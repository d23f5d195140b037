package main

import (
	"fmt"
	"runtime"
	"time"
)

// plan is the shape of one run. Every workload runs the same phases:
//
//  1. passes, each a block of set-up cycles followed by a saturation
//     measurement on a fresh deployment:
//     set-up — cycles × (deploy → ready → teardown) with generators idling;
//     saturation, closed loop — deploy, warm up, windows × window.
//     setup_s is the median over all passes' cycles, mpps the 90th percentile
//     over all passes' windows (see undisturbed). Spreading
//     both over several passes samples the host across the whole run and the
//     program across several deployments. The windows are short and many on
//     purpose: on the shared hosts this runs on, throughput drops by 15-30 %
//     for bursts of about a second a few times a minute, and a quantile over
//     quarter-second windows rejects those bursts where one over a few long
//     windows moves with them;
//  2. paced, open loop at the workload's rate for paced, then pause, settle
//     and close the ledger: attempted = packets the system accepted, failed =
//     packets it did not deliver.
//
// A traced run spends the same seconds differently: one untraced pass as a
// reference, one with timestamps on, one window at GOMAXPROCS=2, a shorter
// paced phase and the stage timings.
type plan struct {
	passes []pass
	cycles int // per pass
	warm   time.Duration
	window time.Duration
	paced  time.Duration
	// traced runs only
	p2Window  time.Duration
	stageReps int
	stageRep  time.Duration
}

// pass is one saturation measurement.
type pass struct {
	windows int
	traced  bool
}

// makePlan scales the reference shape (refSeconds: 18 s of windows, 4 s paced)
// to the requested seconds.
func makePlan(w *workload, seconds float64, trace, quick bool) plan {
	u := time.Duration(seconds / refSeconds * float64(time.Second))
	p := plan{warm: u / 4, window: u / 4, paced: 4 * u}
	for i := 0; i < 8; i++ {
		p.passes = append(p.passes, pass{windows: 9})
	}
	if trace {
		p.passes = []pass{{windows: 16}, {windows: 32, traced: true}}
		p.paced, p.p2Window, p.stageReps, p.stageRep = 3*u, 2*u, 5, u/25
	}
	p.cycles = w.cycles / len(p.passes)
	if quick {
		p.passes = []pass{{windows: 1}}
		p.cycles, p.window, p.paced, p.warm = 2, 200*time.Millisecond, 200*time.Millisecond, 50*time.Millisecond
		if trace {
			p.passes = append(p.passes, pass{windows: 1, traced: true})
			p.p2Window, p.stageReps, p.stageRep = p.window, 1, 5*time.Millisecond
		}
	}
	return p
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Attempted uint64
	Failed    uint64
	// Problems lists every failed correctness check; the run is correct
	// when it is empty.
	Problems []string
	// Values holds every metric the run measured, by name: the end-to-end
	// ones always (a traced run's are for reference only), the per-layer
	// ones on a traced run.
	Values map[string]float64
	// Windows (Mpps) and Cycles (s) are the raw samples behind mpps and
	// setup_s, in order; the report prints them so a run shows how disturbed
	// it was and the estimators can be compared on the same data.
	Windows, Cycles []float64
	Stack           []stackRow
	TraceFile       string
	Host            hostFacts
	Elapsed         time.Duration
}

// runner carries one run's state through its phases.
type runner struct {
	w   *workload
	p   plan
	sys *system
	ups *upLog
	tr  *tracer
	res *result
	// Sample arrays, preallocated: set-up times in s, window rates in Mpps
	// without and with tracing.
	setup, mpps, traced []float64
}

func (r *runner) problemf(format string, args ...any) {
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

// runWorkload runs w once and reports. The error is for runs that could not
// be carried out; failed checks are in result.Problems.
func runWorkload(w *workload, seed int64, seconds float64, trace, quick bool, outDir string) (*result, error) {
	// One P: the figure that repeats on this class of host (see README.md).
	runtime.GOMAXPROCS(1)
	started := time.Now()
	r := &runner{
		w:   w,
		p:   makePlan(w, seconds, trace, quick),
		ups: newUpLog(),
		tr:  newTracer(fmt.Sprintf("%s-%d-%d", w.name, seed, started.UnixNano())),
		res: &result{Workload: w.name, Seed: seed, Trace: trace, Values: make(map[string]float64), Host: readHostFacts()},
	}
	r.setup = make([]float64, 0, r.p.cycles*len(r.p.passes))
	windows := 0
	for _, ps := range r.p.passes {
		windows += ps.windows
	}
	r.mpps, r.traced = make([]float64, 0, windows), make([]float64, 0, windows)
	var err error
	r.tr.in("run", func() { err = r.run() })
	if err != nil {
		return nil, err
	}
	if trace {
		if r.res.TraceFile, err = r.tr.write(outDir, w.name); err != nil {
			return nil, err
		}
	}
	r.res.Values["rss_mb"] = peakRSSMiB()
	r.res.Elapsed = time.Since(started)
	return r.res, nil
}

func (r *runner) run() (err error) {
	r.tr.in("start_node", func() { r.sys, err = r.w.start(r.res.Seed, r.ups) })
	if err != nil {
		return fmt.Errorf("start: %w", err)
	}
	defer func() { r.tr.in("stop_node", r.sys.stop) }()

	var delta counts
	for i, ps := range r.p.passes {
		r.tr.in(fmt.Sprintf("pass[%d]", i), func() {
			if err = r.setupBlock(i * r.p.cycles); err == nil {
				delta, err = r.saturate(ps)
			}
		})
		if err != nil {
			return err
		}
	}
	r.res.Values["setup_s"] = median(r.setup)
	ref := undisturbed(r.mpps)
	r.res.Windows, r.res.Cycles = r.mpps, r.setup
	r.res.Values["mpps"] = ref
	if err := r.pacedPhase(); err != nil {
		return err
	}
	if r.res.Trace {
		r.res.Values["highway.trace_overhead_pct"] = 100 * (ref - undisturbed(r.traced)) / ref
		r.res.Values["highway.window_iqr_pct"] = 100 * iqrShare(r.traced)
		r.layerCounts(delta)
		return r.stages(ref)
	}
	return nil
}

// deployReady deploys at the given rate and waits until the deployment is
// ready: Deploy returned and the expected bypasses are live. The bypass-up
// events arrive through Config.OnBypassUp; the polling loop behind them only
// covers an event that raced the count.
func (r *runner) deployReady(rate float64, stamp bool) (t traffic, err error) {
	r.ups.arm(r.sys.wantBypasses)
	r.tr.in("deploy", func() { t, err = r.sys.deploy(rate, stamp) })
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	r.tr.in("wait_ready", func() {
		if r.sys.wantBypasses == 0 {
			return
		}
		deadline := time.NewTimer(2 * time.Second)
		defer deadline.Stop()
		select {
		case <-r.ups.ready:
		case <-deadline.C:
		}
		for end := time.Now().Add(2 * time.Second); r.sys.bypasses() != r.sys.wantBypasses && time.Now().Before(end); {
			time.Sleep(200 * time.Microsecond)
		}
	})
	if got := r.sys.bypasses(); got != r.sys.wantBypasses {
		t.stop()
		return nil, fmt.Errorf("deploy: %d bypasses live, want %d", got, r.sys.wantBypasses)
	}
	return t, nil
}

// setupBlock measures deploy→ready over one pass's cycles, numbered from
// first. A collection before each cycle keeps the garbage of the previous
// teardown out of the next cycle's timing.
func (r *runner) setupBlock(first int) error {
	for i := first; i < first+r.p.cycles; i++ {
		runtime.GC()
		var err error
		r.tr.in(fmt.Sprintf("setup_cycle[%d]", i), func() {
			t0 := time.Now()
			var t traffic
			if t, err = r.deployReady(setupRate, false); err != nil {
				return
			}
			r.setup = append(r.setup, time.Since(t0).Seconds())
			r.tr.in("stop", t.stop)
		})
		if err != nil {
			return fmt.Errorf("set-up cycle %d: %w", i, err)
		}
	}
	return nil
}

// saturate deploys the closed-loop load, warms up and measures one pass's
// windows into r.mpps (r.traced for a traced pass). It returns the per-layer
// count deltas across the windows.
func (r *runner) saturate(ps pass) (delta counts, err error) {
	var t traffic
	if t, err = r.deployReady(0, ps.traced); err != nil {
		return delta, err
	}
	defer func() { r.tr.in("stop", t.stop) }()
	r.tr.in("warm", func() { time.Sleep(r.p.warm) })

	rates := &r.mpps
	var mem0, mem1 runtime.MemStats
	if ps.traced {
		rates = &r.traced
		runtime.ReadMemStats(&mem0)
	}
	c0 := r.sys.counts()
	_, d0 := t.counts()
	for i := 0; i < ps.windows; i++ {
		r.tr.in(fmt.Sprintf("window[%d]", i), func() { *rates = append(*rates, deliveredMpps(t, r.p.window)) })
	}
	_, d1 := t.counts()
	delta = r.sys.counts().sub(c0)
	delta[cDelivered] = d1 - d0
	if d1 == d0 {
		return delta, fmt.Errorf("nothing delivered at saturation")
	}
	if got := r.sys.bypasses(); got != r.sys.wantBypasses {
		r.problemf("%d bypasses live after the windows, want %d", got, r.sys.wantBypasses)
	}
	if n := delta[cParseErrs]; n != 0 {
		r.problemf("%d parse errors in the windows, want 0", n)
	}
	if ps.traced {
		runtime.ReadMemStats(&mem1)
		r.res.Values["highway.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
		r.res.Values["highway.allocs_per_mpkt"] = float64(mem1.Mallocs-mem0.Mallocs) / (float64(delta[cDelivered]) / 1e6)
		// One more window with a second P: the figure ROADMAP item 1 must move.
		r.tr.in("window_p2", func() {
			runtime.GOMAXPROCS(2)
			defer runtime.GOMAXPROCS(1)
			time.Sleep(r.p.warm)
			r.res.Values["highway.p2_mpps"] = deliveredMpps(t, r.p.p2Window)
		})
	}
	return delta, nil
}

// undisturbed is the saturation rate of a run: the 90th percentile of its
// windows. On the shared hosts this runs on, interference only ever subtracts
// throughput — in bursts of about a second and in slow spells of ten seconds
// and more — so the rate the program sustains when left alone is the upper
// envelope of the windows, not their middle: over ten runs in a bad hour the
// median of the windows spread up to 1.6 times as wide as this (README.md,
// "Measured spreads"). Seven of 72 windows lie beyond it, so it is not an
// extreme value.
func undisturbed(windows []float64) float64 { return quantile(windows, 0.9) }

// deliveredMpps sleeps for d and returns the rate at which t delivered
// packets meanwhile, in Mpps.
func deliveredMpps(t traffic, d time.Duration) float64 {
	_, a := t.counts()
	t0 := time.Now()
	time.Sleep(d)
	_, b := t.counts()
	return float64(b-a) / time.Since(t0).Seconds() / 1e6
}

// settle waits until the sent/delivered ledger stops moving — a sustained
// run of identical readings, since a packet parked behind a descheduled
// goroutine moves no counter for a while — bounded by timeout.
func settle(t traffic, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	ps, pd := t.counts()
	for stable := 0; stable < 8 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		s, d := t.counts()
		if s == ps && d == pd {
			stable++
		} else {
			stable, ps, pd = 0, s, d
		}
	}
}

// pacedPhase offers the workload's fixed rate and closes the ledger. The
// deployment comes up under that load, so the first pause+settle measures
// what the bypass hand-over lost (a count, reported, not a failure); the
// ledger proper starts from that settled state.
func (r *runner) pacedPhase() error {
	var t traffic
	var err error
	r.tr.in("deploy_paced", func() { t, err = r.deployReady(r.w.pacedPps, r.res.Trace) })
	if err != nil {
		return err
	}
	r.tr.in("handover", func() {
		time.Sleep(min(r.p.paced/8, 200*time.Millisecond))
		t.pause(true)
		settle(t, 2*time.Second)
	})
	s0, d0 := t.counts()
	r.res.Values["core.handover_lost_pkts"] = float64(s0 - d0)
	t.resetLatency()
	r.tr.in("paced", func() {
		t.pause(false)
		time.Sleep(r.p.paced)
		t.pause(true)
	})
	r.tr.in("settle", func() { settle(t, 2*time.Second) })
	s1, d1 := t.counts()
	r.res.Attempted = s1 - s0
	r.res.Failed = (s1 - s0) - (d1 - d0)
	if r.res.Attempted == 0 {
		r.problemf("paced phase offered no packets")
	}
	if r.res.Failed != 0 {
		r.problemf("paced phase lost %d of %d packets", r.res.Failed, r.res.Attempted)
	}
	if got := r.sys.bypasses(); got != r.sys.wantBypasses {
		r.problemf("paced phase: %d bypasses live, want %d", got, r.sys.wantBypasses)
	}
	r.res.Problems = append(r.res.Problems, t.verify()...)
	r.tr.in("stop", t.stop)
	if r.res.Trace {
		// Set only what the workload's generator can measure: vnf.Source stamps
		// nothing, and only the harness's own generator knows how late it ran.
		if l := t.latency(); l.samples > 0 {
			r.res.Values["highway.lat_mean_us"] = l.meanUs
			r.res.Values["highway.lat_p50_us"] = l.p50Us
			r.res.Values["highway.lat_p99_us"] = l.p99Us
			r.res.Values["highway.lat_samples"] = float64(l.samples)
			if l.paced {
				r.res.Values["highway.gen_late_pct"] = l.latePct
			}
		}
	}
	return nil
}

// layerCounts turns the count deltas of the traced windows and the set-up
// phase's spans into per-layer metrics. A metric is set only where the
// system has a source for it — a tier split needs lookups, nic.* a NIC,
// conntrack.* an attached table, trunk.* a trunk, core.bypass_up_* an expected
// bypass — so that a reported 0 is always a measurement.
func (r *runner) layerCounts(d counts) {
	v := r.res.Values
	pct := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	lookups := d[cEMCHits] + d[cSMCHits] + d[cDedup] + d[cClsHits] + d[cClsMisses]
	if lookups > 0 {
		v["vswitch.emc_hit_pct"] = pct(d[cEMCHits], lookups)
		v["vswitch.smc_hit_pct"] = pct(d[cSMCHits], lookups)
		v["vswitch.classifier_pct"] = pct(d[cClsHits]+d[cClsMisses], lookups)
		v["vswitch.dedup_pct"] = pct(d[cDedup], lookups)
	}
	v["vswitch.lookups_per_pkt"] = float64(lookups) / float64(d[cDelivered])
	v["vswitch.pmd_busy_pct"] = pct(d[cPMDBusy], d[cPMDTotal])
	v["vswitch.tx_dropped"] = float64(d[cTxDropped])
	v["vswitch.parse_errors"] = float64(d[cParseErrs])
	v["mempool.fails"] = float64(d[cPoolFails])
	v["dpdkr.bypass_pkts_pct"] = pct(d[cBypassPkts], uint64(r.w.hops)*d[cDelivered])
	if d[cNICs] > 0 {
		v["nic.tx_dropped"] = float64(d[cNICTxDropped])
	}
	if d[cCTTables] > 0 {
		v["conntrack.hit_pct"] = pct(d[cCTHits], d[cCTHits]+d[cCTMisses])
		v["conntrack.live"] = float64(d[cCTLive])
	}
	if r.sys.trunks != nil {
		v["trunk.carried"] = float64(d[cTrunkCarried])
		v["trunk.dropped"] = float64(d[cTrunkDropped])
		v["trunk.unrouted"] = float64(d[cTrunkUnrouted])
	}
	if r.sys.wantBypasses > 0 {
		ups := make([]float64, len(r.ups.durs))
		for i, dur := range r.ups.durs {
			ups[i] = float64(dur) / 1e6
		}
		v["core.bypass_up_ms_p50"] = median(ups)
		v["core.bypass_up_ms_max"] = quantile(ups, 1)
	}
	v["orchestrator.deploy_ms"] = median(r.tr.millis("deploy", "setup_cycle"))
	v["orchestrator.stop_ms"] = median(r.tr.millis("stop", "setup_cycle"))
}

// stages takes the stage timings, fills their metrics and prices the
// workload's per-packet cost stack against the measured 1000/mpps.
func (r *runner) stages(refMpps float64) error {
	if r.sys.place != nil {
		for i := 0; i < r.p.stageReps; i++ {
			var err error
			r.tr.in("place", func() { err = r.sys.place() })
			if err != nil {
				return fmt.Errorf("place: %w", err)
			}
		}
		r.res.Values["orchestrator.place_ms"] = median(r.tr.millis("place", "run"))
	}
	var st map[string]float64
	var err error
	r.tr.in("stages", func() { st, err = runStages(r.p.stageReps, r.p.stageRep) })
	if err != nil {
		return fmt.Errorf("stages: %w", err)
	}
	for name, val := range st {
		r.res.Values[name] = val
	}
	r.res.Stack = r.w.stack(st)
	perPkt := 1000 / refMpps
	r.res.Values["highway.budget_residual_pct"] = 100 * (perPkt - stackSum(r.res.Stack)) / perPkt
	return nil
}
