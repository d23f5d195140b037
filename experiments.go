package highway

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/core"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/graph"
	"ovshighway/internal/mempool"
	"ovshighway/internal/orchestrator"
	"ovshighway/internal/pkt"
	"ovshighway/internal/trunk"
	"ovshighway/internal/vnf"
	"ovshighway/internal/vswitch"
)

// ExperimentConfig tunes the measurement harness. Zero values take defaults
// (200 ms warm-up, 500 ms window, 4 flows).
type ExperimentConfig struct {
	Warmup time.Duration
	Window time.Duration
	Flows  int
	// NumPMDs configures the vSwitch forwarding threads (default 1, as a
	// single shared PMD core is what makes the vanilla baseline decay).
	NumPMDs int
	// EMCDisabled turns the exact-match cache off (ablation A1).
	EMCDisabled bool
	// EMCEntries overrides the per-PMD exact-match cache size (0 = the
	// vswitch default, 8192). The probabilistic-insertion win only shows
	// when the cache is small relative to the active flow count.
	EMCEntries int
	// SMCDisabled turns the signature-match cache off (ablation A5).
	SMCDisabled bool
	// EMCInsertInvProb is the vswitch emc-insert-inv-prob knob: 1 = insert
	// every classifier resolution into the EMC (default), N = one in N —
	// the OVS policy that keeps elephants from being churned out by mice
	// under heavy-tailed traffic.
	EMCInsertInvProb int
	// ZipfSkew, when > 1, switches the flowscale generator from uniform
	// cycling to a Zipf(s) draw over the flow ids: a few elephant flows
	// carry most packets over a long mouse tail — the regime where sparse
	// EMC insertion wins.
	ZipfSkew float64
	// NumQueues is the RSS queue count per dpdkr port in the pmdscale
	// experiment (default 4): the hot port's traffic fans over this many
	// independently-homed queues, which is what gives extra PMDs something
	// to own.
	NumQueues int
	// AutoBalance enables the load balancer in experiment arms that support
	// it (pmdscale runs each point with and without regardless; this seeds
	// the default for other harness users).
	AutoBalance bool
}

func (c *ExperimentConfig) fill() {
	if c.Warmup == 0 {
		c.Warmup = 200 * time.Millisecond
	}
	if c.Window == 0 {
		c.Window = 500 * time.Millisecond
	}
	if c.Flows == 0 {
		c.Flows = 4
	}
	if c.NumQueues == 0 {
		c.NumQueues = 4
	}
}

// ThroughputRow is one point of Figure 3.
type ThroughputRow struct {
	VMs  int
	Mode Mode
	Mpps float64
}

// RunFig3aPoint measures one memory-only chain point: vms is the paper's
// x-axis (total VMs including the source/sink endpoints, so vms-2
// forwarders), mode selects the datapath.
func RunFig3aPoint(vms int, mode Mode, cfg ExperimentConfig) (ThroughputRow, error) {
	cfg.fill()
	if vms < 2 {
		return ThroughputRow{}, fmt.Errorf("fig3a: need >= 2 VMs, got %d", vms)
	}
	node, err := Start(Config{Mode: mode, NumPMDs: cfg.NumPMDs, EMCDisabled: cfg.EMCDisabled, SMCDisabled: cfg.SMCDisabled})
	if err != nil {
		return ThroughputRow{}, err
	}
	defer node.Stop()
	chain, err := node.DeployBidirChain(vms-2, ChainOptions{Flows: cfg.Flows})
	if err != nil {
		return ThroughputRow{}, err
	}
	defer chain.Stop()
	if mode == ModeHighway && !node.WaitBypasses(chain.ExpectedBypasses()) {
		return ThroughputRow{}, fmt.Errorf("fig3a: bypasses not established (%d live)", node.BypassCount())
	}
	time.Sleep(cfg.Warmup)
	mpps := chain.MeasureMpps(cfg.Window)
	return ThroughputRow{VMs: vms, Mode: mode, Mpps: mpps}, nil
}

// RunFig3a sweeps chain lengths for both modes, reproducing Figure 3(a).
func RunFig3a(vmCounts []int, cfg ExperimentConfig) ([]ThroughputRow, error) {
	var rows []ThroughputRow
	for _, vms := range vmCounts {
		for _, mode := range []Mode{ModeVanilla, ModeHighway} {
			r, err := RunFig3aPoint(vms, mode, cfg)
			if err != nil {
				return rows, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// RunFig3bPoint measures one NIC-attached chain point: vms forwarder VMs
// between two line-rate-limited 10G NICs.
func RunFig3bPoint(vms int, mode Mode, cfg ExperimentConfig) (ThroughputRow, error) {
	cfg.fill()
	if vms < 1 {
		return ThroughputRow{}, fmt.Errorf("fig3b: need >= 1 VM, got %d", vms)
	}
	node, err := Start(Config{Mode: mode, NumPMDs: cfg.NumPMDs, EMCDisabled: cfg.EMCDisabled, SMCDisabled: cfg.SMCDisabled})
	if err != nil {
		return ThroughputRow{}, err
	}
	defer node.Stop()
	chain, err := node.DeployNICChain(vms, ChainOptions{Flows: cfg.Flows})
	if err != nil {
		return ThroughputRow{}, err
	}
	defer chain.Stop()
	if mode == ModeHighway && !node.WaitBypasses(chain.ExpectedBypasses()) {
		return ThroughputRow{}, fmt.Errorf("fig3b: bypasses not established (%d live)", node.BypassCount())
	}
	time.Sleep(cfg.Warmup)
	mpps := chain.MeasureMpps(cfg.Window)
	return ThroughputRow{VMs: vms, Mode: mode, Mpps: mpps}, nil
}

// RunFig3b sweeps chain lengths for both modes, reproducing Figure 3(b).
func RunFig3b(vmCounts []int, cfg ExperimentConfig) ([]ThroughputRow, error) {
	var rows []ThroughputRow
	for _, vms := range vmCounts {
		for _, mode := range []Mode{ModeVanilla, ModeHighway} {
			r, err := RunFig3bPoint(vms, mode, cfg)
			if err != nil {
				return rows, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// MultiNodeRow is one point of the 2-node split-chain experiment: a
// Fig-3a-style bidirectional chain whose VM sequence is split contiguously
// across two nodes joined by a shared VLAN-steered trunk.
type MultiNodeRow struct {
	VMs      int // total chain VMs (both endpoints included), paper x-axis
	Mode     Mode
	Mpps     float64
	Bypasses int   // live bypasses while measuring (0 in vanilla mode)
	Segments []int // chain VMs per node
}

// RunMultiNodePoint measures one 2-node split-chain point: vms total VMs
// (so vms-2 forwarders) split across nodes "node-a"/"node-b". Intra-node
// hops can bypass in highway mode; the inter-node hop rides a VLAN lane on
// the nodes' shared 10G trunk in either mode — realistic shared-uplink
// contention, not a private wire.
func RunMultiNodePoint(vms int, mode Mode, cfg ExperimentConfig) (MultiNodeRow, error) {
	cfg.fill()
	if vms < 2 {
		return MultiNodeRow{}, fmt.Errorf("multinode: need >= 2 VMs, got %d", vms)
	}
	cluster, err := StartCluster(ClusterConfig{
		Config: Config{Mode: mode, NumPMDs: cfg.NumPMDs, EMCDisabled: cfg.EMCDisabled, SMCDisabled: cfg.SMCDisabled},
		Nodes:  []string{"node-a", "node-b"},
	})
	if err != nil {
		return MultiNodeRow{}, err
	}
	defer cluster.Stop()
	chain, err := cluster.DeploySplitChain(vms-2, nil, ChainOptions{Flows: cfg.Flows})
	if err != nil {
		return MultiNodeRow{}, err
	}
	defer chain.Stop()
	if mode == ModeHighway && !cluster.WaitBypasses(chain.ExpectedBypasses()) {
		return MultiNodeRow{}, fmt.Errorf("multinode: bypasses not established (%d live, want %d)",
			cluster.BypassCount(), chain.ExpectedBypasses())
	}
	time.Sleep(cfg.Warmup)
	mpps := chain.MeasureMpps(cfg.Window)
	return MultiNodeRow{
		VMs: vms, Mode: mode, Mpps: mpps,
		Bypasses: cluster.BypassCount(),
		Segments: chain.Segments(),
	}, nil
}

// RunMultiNode sweeps split-chain lengths for both modes.
func RunMultiNode(vmCounts []int, cfg ExperimentConfig) ([]MultiNodeRow, error) {
	var rows []MultiNodeRow
	for _, vms := range vmCounts {
		for _, mode := range []Mode{ModeVanilla, ModeHighway} {
			r, err := RunMultiNodePoint(vms, mode, cfg)
			if err != nil {
				return rows, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// WireLatencyRow is one point of the cross-node propagation-delay sweep:
// a 2-node split chain measured under a given per-direction trunk latency.
type WireLatencyRow struct {
	WireLatency time.Duration
	VMs         int
	Mode        Mode
	Mpps        float64
	P50, P99    time.Duration
	Samples     uint64
}

// RunWireLatencyPoint measures one split-chain point under the given trunk
// propagation delay (ClusterConfig.WireLatency): throughput and one-way
// latency together, under bidirectional load. The chain crosses the trunk
// once, so every end-to-end path pays the delay exactly once per direction.
func RunWireLatencyPoint(vms int, wireLat time.Duration, mode Mode, cfg ExperimentConfig) (WireLatencyRow, error) {
	cfg.fill()
	if vms < 2 {
		return WireLatencyRow{}, fmt.Errorf("wlatency: need >= 2 VMs, got %d", vms)
	}
	cluster, err := StartCluster(ClusterConfig{
		Config:      Config{Mode: mode, NumPMDs: cfg.NumPMDs, EMCDisabled: cfg.EMCDisabled, SMCDisabled: cfg.SMCDisabled},
		Nodes:       []string{"node-a", "node-b"},
		WireLatency: wireLat,
	})
	if err != nil {
		return WireLatencyRow{}, err
	}
	defer cluster.Stop()
	chain, err := cluster.DeploySplitChain(vms-2, nil, ChainOptions{Flows: cfg.Flows, Timestamp: true})
	if err != nil {
		return WireLatencyRow{}, err
	}
	defer chain.Stop()
	if mode == ModeHighway && !cluster.WaitBypasses(chain.ExpectedBypasses()) {
		return WireLatencyRow{}, fmt.Errorf("wlatency: bypasses not established (%d live, want %d)",
			cluster.BypassCount(), chain.ExpectedBypasses())
	}
	time.Sleep(cfg.Warmup)
	chain.ResetWindow()
	time.Sleep(cfg.Window)
	return WireLatencyRow{
		WireLatency: wireLat,
		VMs:         vms,
		Mode:        mode,
		Mpps:        chain.RatePps() / 1e6,
		P50:         chain.LatencyQuantile(0.50),
		P99:         chain.LatencyQuantile(0.99),
		Samples:     chain.LatencySamples(),
	}, nil
}

// RunWireLatency sweeps the trunk propagation delay over a fixed split
// chain for both modes (ROADMAP's cross-node latency experiment). The
// expectation: the wire delay adds a mode-independent floor, so the
// highway's relative latency advantage shrinks as propagation dominates —
// but its throughput advantage survives untouched.
func RunWireLatency(vms int, latencies []time.Duration, cfg ExperimentConfig) ([]WireLatencyRow, error) {
	var rows []WireLatencyRow
	for _, lat := range latencies {
		for _, mode := range []Mode{ModeVanilla, ModeHighway} {
			r, err := RunWireLatencyPoint(vms, lat, mode, cfg)
			if err != nil {
				return rows, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// LatencyRow is one point of the latency experiment (E3).
type LatencyRow struct {
	VMs     int
	Mode    Mode
	Mean    time.Duration
	P50     time.Duration
	P99     time.Duration
	Samples uint64
}

// RunLatencyPoint measures one-way latency through a memory-only chain of
// vms total VMs under bidirectional load.
func RunLatencyPoint(vms int, mode Mode, cfg ExperimentConfig) (LatencyRow, error) {
	cfg.fill()
	if vms < 2 {
		return LatencyRow{}, fmt.Errorf("latency: need >= 2 VMs, got %d", vms)
	}
	node, err := Start(Config{Mode: mode, NumPMDs: cfg.NumPMDs, EMCDisabled: cfg.EMCDisabled, SMCDisabled: cfg.SMCDisabled})
	if err != nil {
		return LatencyRow{}, err
	}
	defer node.Stop()
	chain, err := node.DeployBidirChain(vms-2, ChainOptions{Flows: cfg.Flows, Timestamp: true})
	if err != nil {
		return LatencyRow{}, err
	}
	defer chain.Stop()
	if mode == ModeHighway && !node.WaitBypasses(chain.ExpectedBypasses()) {
		return LatencyRow{}, fmt.Errorf("latency: bypasses not established")
	}
	time.Sleep(cfg.Warmup)
	chain.ResetWindow()
	time.Sleep(cfg.Window)
	return LatencyRow{
		VMs:     vms,
		Mode:    mode,
		Mean:    chain.LatencyMean(),
		P50:     chain.LatencyQuantile(0.50),
		P99:     chain.LatencyQuantile(0.99),
		Samples: chain.LatencySamples(),
	}, nil
}

// RunLatency sweeps chain lengths for both modes (experiment E3; the paper
// reports ~80% improvement at 8 VMs).
func RunLatency(vmCounts []int, cfg ExperimentConfig) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, vms := range vmCounts {
		for _, mode := range []Mode{ModeVanilla, ModeHighway} {
			r, err := RunLatencyPoint(vms, mode, cfg)
			if err != nil {
				return rows, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// SetupRow summarizes the bypass establishment latency experiment (E4).
type SetupRow struct {
	Samples int
	Min     time.Duration
	Mean    time.Duration
	Max     time.Duration
	// HotplugDelay/ConfigDelay echo the emulated control-plane latencies.
	HotplugDelay time.Duration
	ConfigDelay  time.Duration
}

// RunSetupTime measures the flow-mod→bypass-active latency (experiment E4)
// over `links` directed links, with the given emulated QEMU/virtio delays.
// With QEMU-realistic delays (tens of ms for hot-plug), the total lands in
// the paper's ~100 ms regime; with zero delays it exposes the pure
// control-plane software cost of this implementation.
func RunSetupTime(links int, hotplug, config time.Duration) (SetupRow, error) {
	if links < 2 {
		links = 2
	}
	var (
		mu      sync.Mutex
		samples []time.Duration
	)
	node, err := Start(Config{
		Mode:         ModeHighway,
		HotplugDelay: hotplug,
		ConfigDelay:  config,
		OnBypassUp: func(_, _ uint32, d time.Duration) {
			mu.Lock()
			samples = append(samples, d)
			mu.Unlock()
		},
	})
	if err != nil {
		return SetupRow{}, err
	}
	defer node.Stop()

	// links/2 bidirectional hops ⇒ links directed bypasses.
	chain, err := node.DeployBidirChain(links/2-1, ChainOptions{})
	if err != nil {
		return SetupRow{}, err
	}
	defer chain.Stop()
	if !node.WaitBypasses(chain.ExpectedBypasses()) {
		return SetupRow{}, fmt.Errorf("setup: bypasses not established")
	}

	mu.Lock()
	defer mu.Unlock()
	row := SetupRow{Samples: len(samples), HotplugDelay: hotplug, ConfigDelay: config}
	if len(samples) == 0 {
		return row, fmt.Errorf("setup: no samples observed")
	}
	row.Min = samples[0]
	var sum time.Duration
	for _, s := range samples {
		if s < row.Min {
			row.Min = s
		}
		if s > row.Max {
			row.Max = s
		}
		sum += s
	}
	row.Mean = sum / time.Duration(len(samples))
	return row, nil
}

// FlowScaleRow is one point of the flow-scale experiment: steady traffic
// over a given number of distinct 5-tuples, optionally under flow-table
// delete churn, with the per-tier resolution breakdown of the lookup
// hierarchy. Percentages are shares of all lookups over the run (EMC hit,
// SMC hit, within-batch dedup, full classifier walk); they show the tier
// shift as the distinct-flow count grows past each cache's reach.
type FlowScaleRow struct {
	Flows       int
	ChurnPerSec int
	Mpps        float64
	EMCPct      float64
	SMCPct      float64
	DedupPct    float64
	ClsPct      float64
	ParseErrors uint64
	// EMCConflicts counts LIVE cache entries evicted by insertions over the
	// window — the "elephant churned out by a mouse" events the
	// emc-insert-inv-prob policy exists to suppress.
	EMCConflicts uint64
	// PMDBusy is each forwarding thread's busy-poll fraction over the
	// measurement window (index = PMD), showing how the load spread across
	// threads during the point.
	PMDBusy []float64
}

// churnVictims builds n unrelated drop flows (an ingress port no traffic
// ever uses) for delete-churn fixtures: the flowscale churner and
// BenchmarkLookupChurn delete them one by one to model idle-expiry /
// co-resident-teardown flow-table churn that must not disturb live
// cache entries.
func churnVictims(n int) ([]flow.FlowSpec, []flow.Match) {
	specs := make([]flow.FlowSpec, n)
	matches := make([]flow.Match, n)
	for i := range specs {
		m := flow.MatchInPort(999).WithL4Dst(uint16(i))
		matches[i] = m
		specs[i] = flow.FlowSpec{Priority: 5, Match: m, Actions: flow.Actions{flow.Drop()}}
	}
	return specs, matches
}

// RunFlowScalePoint measures one (distinct flows × churn) point on a bare
// vSwitch: a generator cycles `flows` distinct UDP 5-tuples (one wildcard
// rule forwards them all, so every 5-tuple is its own EMC/SMC entry but the
// classifier holds one subtable row), while a churner deletes pre-installed
// unrelated flows at churnPerSec — the idle-expiry/teardown churn that used
// to stampede the whole EMC onto the classifier before death-mark
// invalidation. Tier percentages are windowed (DatapathStats snapshot-and-
// diff around the measurement window), so they report steady state rather
// than blurring in the warm-up's cold-cache misses.
func RunFlowScalePoint(flows, churnPerSec int, cfg ExperimentConfig) (FlowScaleRow, error) {
	cfg.fill()
	if flows < 1 || flows > 1<<16 {
		return FlowScaleRow{}, fmt.Errorf("flowscale: flows %d out of range [1,65536]", flows)
	}
	if churnPerSec < 0 {
		return FlowScaleRow{}, fmt.Errorf("flowscale: negative churn rate %d", churnPerSec)
	}
	sw := vswitch.New(vswitch.Config{
		NumPMDs:          cfg.NumPMDs,
		EMCDisabled:      cfg.EMCDisabled,
		EMCEntries:       cfg.EMCEntries,
		SMCDisabled:      cfg.SMCDisabled,
		EMCInsertInvProb: cfg.EMCInsertInvProb,
		// Sweep often: each sweep re-ranks the classifier by observed hits.
		SweepInterval: 50 * time.Millisecond,
	})
	pool := mempool.MustNew(mempool.Config{Capacity: 4096})
	portGen, pmdGen, err := dpdkr.NewPort(1, "gen", 1024)
	if err != nil {
		return FlowScaleRow{}, err
	}
	portSink, pmdSink, err := dpdkr.NewPort(2, "sink", 1024)
	if err != nil {
		return FlowScaleRow{}, err
	}
	if err := sw.AddPort(portGen); err != nil {
		return FlowScaleRow{}, err
	}
	if err := sw.AddPort(portSink); err != nil {
		return FlowScaleRow{}, err
	}
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)

	// Churn victims: a bounded pool of unrelated flows, deleted at the
	// requested rate and re-installed in one batch each time the pool runs
	// dry, so the delete pressure is sustained for arbitrary windows (each
	// restock costs one add-generation bump per `victims` deletes —
	// negligible next to the churn it feeds).
	// The pool is deliberately small: a delete costs O(table size) (match
	// scan + snapshot rebuild), so an oversized victim pool would measure
	// delete CPU cost on the shared core instead of cache invalidation.
	var specs []flow.FlowSpec
	var victims []flow.Match
	if churnPerSec > 0 {
		specs, victims = churnVictims(512)
		sw.Table().AddBatch(specs)
	}
	if err := sw.Start(); err != nil {
		return FlowScaleRow{}, err
	}

	raw := make([]byte, 256)
	frameLen, err := pkt.BuildUDP(raw, orchestrator.DefaultTrafficSpec())
	if err != nil {
		sw.Stop()
		return FlowScaleRow{}, err
	}
	// The UDP source port is the flow axis; it sits right after the
	// Ethernet + minimal IPv4 headers in the untagged template frame. The
	// rewrite below does not refresh the UDP checksum, so clear it in the
	// template once (0 = "no checksum" in UDP) and every generated frame
	// stays well-formed.
	const srcPortOff = pkt.EthernetLen + pkt.IPv4MinLen
	raw[srcPortOff+6] = 0
	raw[srcPortOff+7] = 0

	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		delivered atomic.Uint64
	)
	// Sink: drain the far port and return buffers to the pool.
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]*mempool.Buf, 64)
		for !stop.Load() {
			n := pmdSink.Rx(out)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			delivered.Add(uint64(n))
			mempool.FreeBatch(out[:n])
		}
	}()
	// Generator: blast batches, rotating the 5-tuple through `flows`
	// distinct source ports. Uniform mode cycles the set; Zipf mode draws
	// heavy-tailed traffic where rank 0 is the biggest elephant and the
	// cold half of the ranks is replaced by ONE-SHOT mice — fresh ephemeral
	// ports that never repeat, like short-lived connections. One-shot mice
	// are what make unconditional EMC insertion hurt: each claims a cache
	// slot it will never use again, evicting an elephant to do so.
	var zipf *rand.Zipf
	if cfg.ZipfSkew > 1 && flows > 1 {
		zipf = rand.NewZipf(rand.New(rand.NewSource(42)), cfg.ZipfSkew, 1, uint64(flows-1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		bufs := make([]*mempool.Buf, 32)
		seq := 0
		mouse := flows // one-shot mice cycle the port space above the elephants
		for !stop.Load() {
			got := pool.GetBatch(bufs)
			if got == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < got; i++ {
				b := bufs[i]
				b.SetBytes(raw[:frameLen])
				var fp uint16
				if zipf != nil {
					r := int(zipf.Uint64())
					// No mouse space is left when the elephants already fill
					// the 16-bit port axis: fall back to the plain Zipf draw
					// (uint16(flows) would otherwise alias rank 0).
					if r < (flows+1)/2 || flows >= 1<<16 {
						fp = uint16(r) // persistent elephant
					} else {
						// One-shot mouse from the port space above the
						// elephants. The space cycles (65536-flows ports), so
						// "one-shot" holds as long as a full cycle outlives
						// the EMC residence of anything a mouse displaced —
						// true for the demo configs, which keep flows ≤ 4096.
						fp = uint16(mouse)
						mouse++
						if mouse > 0xffff {
							mouse = flows
						}
					}
				} else {
					fp = uint16(seq % flows)
					seq++
				}
				fb := b.Bytes()
				fb[srcPortOff] = byte(fp >> 8)
				fb[srcPortOff+1] = byte(fp)
			}
			sent := pmdGen.Tx(bufs[:got])
			if sent < got {
				mempool.FreeBatch(bufs[sent:got])
				runtime.Gosched()
			}
		}
	}()
	// Churner: delete pre-installed unrelated flows at churnPerSec, paced
	// in 1 ms quanta (a per-delete sleep undershoots badly once the
	// interval drops below the scheduler's sleep granularity), restocking
	// the victim pool when it runs dry.
	if churnPerSec > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Catch-up bursts are capped: after a long deschedule (normal
			// on the 1-core hosts) the backlog is dropped rather than
			// executed as a rebuild storm that would stall the datapath for
			// tens of ms. The achieved rate therefore saturates around
			// 32k/s; the sweep's rates sit far below that.
			const quantum = time.Millisecond
			const burstCap = 32
			start := time.Now()
			done := 0
			next := 0
			for !stop.Load() {
				due := int(time.Since(start).Seconds() * float64(churnPerSec))
				if due-done > burstCap {
					done = due - burstCap
				}
				for ; done < due && !stop.Load(); done++ {
					if next == len(victims) {
						sw.Table().AddBatch(specs)
						next = 0
					}
					sw.Table().DeleteStrict(5, victims[next])
					next++
				}
				time.Sleep(quantum)
			}
		}()
	}

	time.Sleep(cfg.Warmup)
	// Windowed tier stats: snapshot-and-diff around the measurement window
	// (cache counters are per-PMD atomics, safe to read live), so the
	// reported split is steady state — warm-up misses and cold caches do
	// not blur it.
	pre := sw.DatapathStats()
	base := delivered.Load()
	t0 := time.Now()
	time.Sleep(cfg.Window)
	got := delivered.Load() - base
	elapsed := time.Since(t0)
	st := sw.DatapathStats().Delta(pre)
	stop.Store(true)
	wg.Wait()
	sw.Stop()
	lookups := st.EMC.Hits + st.SMC.Hits + st.DedupHits + st.ClassifierHits + st.ClassifierMisses
	pct := func(v uint64) float64 {
		if lookups == 0 {
			return 0
		}
		return 100 * float64(v) / float64(lookups)
	}
	busy := make([]float64, len(st.PMDs))
	for i, l := range st.PMDs {
		busy[i] = l.BusyFraction()
	}
	return FlowScaleRow{
		Flows:        flows,
		ChurnPerSec:  churnPerSec,
		Mpps:         float64(got) / elapsed.Seconds() / 1e6,
		EMCPct:       pct(st.EMC.Hits),
		SMCPct:       pct(st.SMC.Hits),
		DedupPct:     pct(st.DedupHits),
		ClsPct:       pct(st.ClassifierHits + st.ClassifierMisses),
		ParseErrors:  st.ParseErrors,
		EMCConflicts: st.EMC.Conflicts,
		PMDBusy:      busy,
	}, nil
}

// RunFlowScale sweeps distinct-flow counts crossed with churn rates — the
// experiment that exposes the tiered lookup hierarchy: EMC absorbs small
// flow counts, the SMC tier takes over past the EMC's reach, and the
// classifier catches the tail; delete churn barely dents the curve thanks
// to death-mark invalidation.
func RunFlowScale(flowCounts, churnRates []int, cfg ExperimentConfig) ([]FlowScaleRow, error) {
	var rows []FlowScaleRow
	for _, churn := range churnRates {
		for _, flows := range flowCounts {
			r, err := RunFlowScalePoint(flows, churn, cfg)
			if err != nil {
				return rows, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// PMDScaleRow is one point of the multi-PMD scaling experiment: a single
// hot multi-queue port driven at full rate, for a given (PMD count ×
// queues-per-port), with or without the auto-balancer. Spread is
// max−min per-PMD busy fraction; Before is measured with every queue
// deliberately skewed onto PMD 0, After over the final (post-balancing)
// measurement window. Moves counts the balancer's queue re-homings.
type PMDScaleRow struct {
	PMDs         int
	Queues       int
	Balanced     bool
	Mpps         float64
	SpreadBefore float64
	SpreadAfter  float64
	Moves        uint64
}

// pmdSpread is max−min busy fraction across a windowed PMD load sample.
func pmdSpread(win []vswitch.PMDLoad) float64 {
	if len(win) == 0 {
		return 0
	}
	lo, hi := win[0].BusyFraction(), win[0].BusyFraction()
	for _, l := range win[1:] {
		f := l.BusyFraction()
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return hi - lo
}

// pmdLoadWindow samples PMD loads twice, dt apart, and returns the deltas.
func pmdLoadWindow(sw *vswitch.Switch, dt time.Duration) []vswitch.PMDLoad {
	pre := sw.PMDLoads()
	time.Sleep(dt)
	post := sw.PMDLoads()
	win := make([]vswitch.PMDLoad, len(post))
	for i, l := range post {
		if i < len(pre) {
			l = l.Delta(pre[i])
		}
		win[i] = l
	}
	return win
}

// RunPMDScalePoint measures one (PMDs × queues × balancer) point: a bare
// vSwitch with a single multi-queue generator port, all of whose RX queues
// are first forced onto PMD 0 — the residue-clustering pathology made
// deliberate — then, in the balanced arm, handed to the auto-balancer to
// spread. The generator cycles enough distinct 5-tuples that the RSS hash
// populates every queue.
func RunPMDScalePoint(pmds, queues int, balance bool, cfg ExperimentConfig) (PMDScaleRow, error) {
	cfg.fill()
	if pmds < 1 || queues < 1 {
		return PMDScaleRow{}, fmt.Errorf("pmdscale: need pmds >= 1 and queues >= 1")
	}
	sw := vswitch.New(vswitch.Config{NumPMDs: pmds})
	pool := mempool.MustNew(mempool.Config{Capacity: 4096})
	portGen, pmdGen, err := dpdkr.NewPortMQ(1, "gen", 1024, queues)
	if err != nil {
		return PMDScaleRow{}, err
	}
	portSink, pmdSink, err := dpdkr.NewPort(2, "sink", 1024)
	if err != nil {
		return PMDScaleRow{}, err
	}
	if err := sw.AddPort(portGen); err != nil {
		return PMDScaleRow{}, err
	}
	if err := sw.AddPort(portSink); err != nil {
		return PMDScaleRow{}, err
	}
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	if err := sw.Start(); err != nil {
		return PMDScaleRow{}, err
	}

	// Skew: home every gen queue on PMD 0 (the sink queue may stay where the
	// initial assignment put it — one cold single-queue port does not tilt
	// the comparison).
	for q := 0; q < queues; q++ {
		if err := sw.MoveQueue(1, q, 0); err != nil {
			sw.Stop()
			return PMDScaleRow{}, err
		}
	}

	raw := make([]byte, 256)
	frameLen, err := pkt.BuildUDP(raw, orchestrator.DefaultTrafficSpec())
	if err != nil {
		sw.Stop()
		return PMDScaleRow{}, err
	}
	const srcPortOff = pkt.EthernetLen + pkt.IPv4MinLen
	raw[srcPortOff+6] = 0 // zero UDP checksum; the rewrite below won't refresh it
	raw[srcPortOff+7] = 0

	// Enough distinct flows that every queue receives a share of the hash
	// space with overwhelming probability.
	flows := cfg.Flows
	if flows < 8*queues {
		flows = 8 * queues
	}

	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		delivered atomic.Uint64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]*mempool.Buf, 64)
		for !stop.Load() {
			n := pmdSink.Rx(out)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			delivered.Add(uint64(n))
			mempool.FreeBatch(out[:n])
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		bufs := make([]*mempool.Buf, 32)
		seq := 0
		for !stop.Load() {
			got := pool.GetBatch(bufs)
			if got == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < got; i++ {
				b := bufs[i]
				b.SetBytes(raw[:frameLen])
				fp := uint16(seq % flows)
				seq++
				fb := b.Bytes()
				fb[srcPortOff] = byte(fp >> 8)
				fb[srcPortOff+1] = byte(fp)
			}
			sent := pmdGen.Tx(bufs[:got])
			if sent < got {
				mempool.FreeBatch(bufs[sent:got])
				runtime.Gosched()
			}
		}
	}()

	time.Sleep(cfg.Warmup)
	spreadBefore := pmdSpread(pmdLoadWindow(sw, cfg.Window))

	var moves uint64
	if balance && pmds > 1 {
		// Drive convergence deterministically: sample-and-rebalance at the
		// balancer's own cadence until a window stays under threshold (or a
		// bounded number of samples passes — convergence is asserted by the
		// caller from SpreadAfter, not assumed here).
		bal := core.NewBalancer(sw, core.BalancerConfig{})
		for i := 0; i < 20; i++ {
			time.Sleep(100 * time.Millisecond)
			bal.RebalanceOnce()
			st := bal.Stats()
			if st.Samples >= 3 && st.Moves == moves {
				break // stable: recent windows triggered no movement
			}
			moves = st.Moves
		}
		moves = bal.Stats().Moves
	}

	base := delivered.Load()
	t0 := time.Now()
	spreadAfter := pmdSpread(pmdLoadWindow(sw, cfg.Window))
	got := delivered.Load() - base
	elapsed := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	sw.Stop()
	return PMDScaleRow{
		PMDs:         pmds,
		Queues:       queues,
		Balanced:     balance,
		Mpps:         float64(got) / elapsed.Seconds() / 1e6,
		SpreadBefore: spreadBefore,
		SpreadAfter:  spreadAfter,
		Moves:        moves,
	}, nil
}

// RunPMDScale sweeps PMD count × queues-per-port × balancer for the
// pmdscale table: the single-queue column shows why RSS is necessary (one
// queue can never use more than one PMD), the skewed-unbalanced column
// shows why the balancer is (all queues pinned to PMD 0), and the balanced
// column shows the two mechanisms composing.
func RunPMDScale(cfg ExperimentConfig) ([]PMDScaleRow, error) {
	cfg.fill()
	var rows []PMDScaleRow
	for _, pmds := range []int{1, 2, 4} {
		for _, queues := range []int{1, cfg.NumQueues} {
			if queues == 1 && cfg.NumQueues == 1 {
				continue // axis collapsed; avoid a duplicate point
			}
			for _, balance := range []bool{false, true} {
				r, err := RunPMDScalePoint(pmds, queues, balance, cfg)
				if err != nil {
					return rows, err
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// FabricPathRow is one parallel trunk's contribution to a fabric
// experiment point: carried/dropped frames over the measurement window,
// both directions summed.
type FabricPathRow struct {
	Name             string
	Carried, Dropped uint64
}

// FabricRow is one point of the switched-core fabric experiment.
type FabricRow struct {
	Topology string // "mesh", "spine", "ecmp×2", ...
	VMs      int
	Mpps     float64
	P50, P99 time.Duration
	Paths    []FabricPathRow
}

// pathWindow snapshots per-trunk carried/dropped counters so a measurement
// window can be expressed as deltas rather than since-boot blur.
type pathWindow struct {
	trunks  []*trunk.Trunk
	carried []uint64
	dropped []uint64
}

func newPathWindow(trunks []*trunk.Trunk) *pathWindow {
	w := &pathWindow{trunks: trunks, carried: make([]uint64, len(trunks)), dropped: make([]uint64, len(trunks))}
	for i, tr := range trunks {
		ab, ba := tr.Stats()
		w.carried[i] = ab.Carried + ba.Carried
		w.dropped[i] = ab.Dropped + ba.Dropped
	}
	return w
}

func (w *pathWindow) rows() []FabricPathRow {
	out := make([]FabricPathRow, len(w.trunks))
	for i, tr := range w.trunks {
		ab, ba := tr.Stats()
		out[i] = FabricPathRow{
			Name:    tr.Name(),
			Carried: ab.Carried + ba.Carried - w.carried[i],
			Dropped: ab.Dropped + ba.Dropped - w.dropped[i],
		}
	}
	return out
}

// RunFabricThroughputPoint measures one cross-node throughput point on a
// 3-node chain (node-a → node-b → node-c, two crossings) whose trunks are
// rate-limited to perTrunkRate per direction — the uplink, not the
// datapath, is the bottleneck. ECMP width multiplies the parallel trunks
// per adjacency at the SAME per-trunk rate, so a wider bundle must carry
// measurably more once flows spread across the paths.
func RunFabricThroughputPoint(vms, ecmpWidth int, perTrunkRate float64, cfg ExperimentConfig) (FabricRow, error) {
	cfg.fill()
	if vms < 3 {
		return FabricRow{}, fmt.Errorf("fabric: need >= 3 VMs for a 3-node chain, got %d", vms)
	}
	cluster, err := StartCluster(ClusterConfig{
		Config:    Config{Mode: ModeVanilla, NumPMDs: cfg.NumPMDs},
		Nodes:     []string{"node-a", "node-b", "node-c"},
		TrunkRate: perTrunkRate,
		Fabric:    FabricConfig{Mode: FabricMesh, ECMPWidth: ecmpWidth},
	})
	if err != nil {
		return FabricRow{}, err
	}
	defer cluster.Stop()
	chain, err := cluster.DeploySplitChain(vms-2, nil, ChainOptions{Flows: 32})
	if err != nil {
		return FabricRow{}, err
	}
	defer chain.Stop()
	time.Sleep(cfg.Warmup)
	win := newPathWindow(cluster.inner.Trunks())
	mpps := chain.MeasureMpps(cfg.Window)
	name := "ecmp×1"
	if ecmpWidth > 1 {
		name = fmt.Sprintf("ecmp×%d", ecmpWidth)
	}
	return FabricRow{Topology: name, VMs: vms, Mpps: mpps, Paths: win.rows()}, nil
}

// RunFabricLatencyPoint measures one split-chain latency point with the
// chain's two segments on two leaves, in mesh (direct trunk) or spine
// (relay through a third node's vSwitch) topology, under the given trunk
// propagation delay. The spine path pays the delay — and the relay hop —
// twice, which is the extra-hop penalty of a switched core.
func RunFabricLatencyPoint(vms int, mode FabricMode, wireLat time.Duration, cfg ExperimentConfig) (FabricRow, error) {
	cfg.fill()
	if vms < 2 {
		return FabricRow{}, fmt.Errorf("fabric: need >= 2 VMs, got %d", vms)
	}
	cluster, err := StartCluster(ClusterConfig{
		Config:      Config{Mode: ModeVanilla, NumPMDs: cfg.NumPMDs},
		Nodes:       []string{"spine", "leaf-a", "leaf-b"},
		TrunkRate:   -1,
		WireLatency: wireLat,
		Fabric:      FabricConfig{Mode: mode, Spine: "spine"},
	})
	if err != nil {
		return FabricRow{}, err
	}
	defer cluster.Stop()
	chain, err := cluster.DeploySplitChain(vms-2, []string{"leaf-a", "leaf-b"}, ChainOptions{Flows: cfg.Flows, Timestamp: true})
	if err != nil {
		return FabricRow{}, err
	}
	defer chain.Stop()
	time.Sleep(cfg.Warmup)
	win := newPathWindow(cluster.inner.Trunks())
	chain.ResetWindow()
	time.Sleep(cfg.Window)
	return FabricRow{
		Topology: mode.String(),
		VMs:      vms,
		Mpps:     chain.RatePps() / 1e6,
		P50:      chain.LatencyQuantile(0.50),
		P99:      chain.LatencyQuantile(0.99),
		Paths:    win.rows(),
	}, nil
}

// FabricQoSRow summarizes the lane-QoS arm: two co-resident split chains
// saturate one shared trunk from different 802.1Q priority classes under a
// 2:1 DRR weighting.
type FabricQoSRow struct {
	HiMpps, LoMpps float64
	Ratio          float64
	// HiCarried/LoCarried and drops are the trunk's per-PCP window deltas.
	HiCarried, HiDropped uint64
	LoCarried, LoDropped uint64
}

// prefixGraph name-prefixes a graph's VNFs (and their edge endpoints) so
// two chain instances can share one cluster.
func prefixGraph(g *graph.Graph, prefix string) {
	for i := range g.VNFs {
		g.VNFs[i].Name = prefix + g.VNFs[i].Name
	}
	for i := range g.Edges {
		if g.Edges[i].A.Kind == graph.EpVNF {
			g.Edges[i].A.Name = prefix + g.Edges[i].A.Name
		}
		if g.Edges[i].B.Kind == graph.EpVNF {
			g.Edges[i].B.Name = prefix + g.Edges[i].B.Name
		}
	}
}

// RunFabricQoS deploys two 3-VM split chains over one shared 2-node trunk,
// one riding PCP 6 (weight 2), the other PCP 0 (weight 1), both saturating
// the shared perTrunkRate budget, and reports their goodput split. The
// trunk scheduler unit test (TestTrunkPCPWeightedScheduler) asserts the
// same ≈2:1 property in isolation; this is the end-to-end view with real
// chains, steering rules and the mod_vlan_pcp stamp in the datapath.
func RunFabricQoS(perTrunkRate float64, cfg ExperimentConfig) (FabricQoSRow, error) {
	cfg.fill()
	var weights [8]float64
	weights[0] = 1
	weights[6] = 2
	cluster, err := StartCluster(ClusterConfig{
		Config:    Config{Mode: ModeVanilla, NumPMDs: cfg.NumPMDs},
		Nodes:     []string{"node-a", "node-b"},
		TrunkRate: perTrunkRate,
		Fabric:    FabricConfig{PCPWeights: weights},
	})
	if err != nil {
		return FabricQoSRow{}, err
	}
	defer cluster.Stop()

	deployChain := func(prefix string, pcp uint8) (*ClusterDeployment, error) {
		g := graph.SplitBidirChain(1, []string{"node-a", "node-b"})
		applyBidirEndpointArgs(g, ChainOptions{Flows: 8, LanePCP: pcp})
		prefixGraph(g, prefix)
		return cluster.Deploy(g)
	}
	hi, err := deployChain("hi-", 6)
	if err != nil {
		return FabricQoSRow{}, err
	}
	defer hi.Stop()
	lo, err := deployChain("lo-", 0)
	if err != nil {
		return FabricQoSRow{}, err
	}
	defer lo.Stop()

	time.Sleep(cfg.Warmup)
	trunks := cluster.inner.PairTrunks("node-a", "node-b")
	if len(trunks) != 1 {
		return FabricQoSRow{}, fmt.Errorf("fabric qos: expected one shared trunk, have %d", len(trunks))
	}
	preAB, preBA := trunks[0].PCPStats()
	recv := func(cd *ClusterDeployment, names ...string) uint64 {
		var total uint64
		for _, n := range names {
			if ss := cd.Internal().SrcSink(n); ss != nil {
				total += ss.Received.Load()
			}
		}
		return total
	}
	hiBase := recv(hi, "hi-end0", "hi-end1")
	loBase := recv(lo, "lo-end0", "lo-end1")
	t0 := time.Now()
	time.Sleep(cfg.Window)
	elapsed := time.Since(t0).Seconds()
	row := FabricQoSRow{
		HiMpps: float64(recv(hi, "hi-end0", "hi-end1")-hiBase) / elapsed / 1e6,
		LoMpps: float64(recv(lo, "lo-end0", "lo-end1")-loBase) / elapsed / 1e6,
	}
	if row.LoMpps > 0 {
		row.Ratio = row.HiMpps / row.LoMpps
	}
	postAB, postBA := trunks[0].PCPStats()
	row.HiCarried = postAB[6].Carried + postBA[6].Carried - preAB[6].Carried - preBA[6].Carried
	row.HiDropped = postAB[6].Dropped + postBA[6].Dropped - preAB[6].Dropped - preBA[6].Dropped
	row.LoCarried = postAB[0].Carried + postBA[0].Carried - preAB[0].Carried - preBA[0].Carried
	row.LoDropped = postAB[0].Dropped + postBA[0].Dropped - preAB[0].Dropped - preBA[0].Dropped
	return row, nil
}

// HealRow is one fault→repair cycle of the self-healing experiment: the
// fault injected, what the reconciler did to converge, and the chain's
// throughput before and after — RecoveredMpps near BaseMpps with no manual
// redeploy is the acceptance bar.
type HealRow struct {
	Fault         string
	Passes        int           // reconcile passes until a clean (0-repair) pass
	Repairs       int           // total repairs applied across those passes
	Converge      time.Duration // wall time from fault to clean pass
	BaseMpps      float64
	RecoveredMpps float64
}

// healConverge drives synchronous reconcile passes until one applies zero
// repairs (bounded), returning the pass/repair counts and elapsed time.
func healConverge(cluster *Cluster) (passes, repairs int, converge time.Duration, err error) {
	t0 := time.Now()
	for passes < 50 {
		passes++
		n, rerr := cluster.ReconcileOnce()
		if rerr != nil {
			return passes, repairs, time.Since(t0), rerr
		}
		repairs += n
		if n == 0 {
			return passes, repairs, time.Since(t0), nil
		}
	}
	return passes, repairs, time.Since(t0), fmt.Errorf("heal: no clean pass after %d reconcile passes (%d repairs)", passes, repairs)
}

// RunHeal reproduces the self-healing story on a 3-node highway cluster
// with an ECMP×2 fabric: a split chain runs while three faults are injected
// in sequence — a trunk of a bundle killed, the middle node's steering
// rules wiped, the middle node's vSwitch restarted — and after each one the
// declarative reconciler alone repairs the cluster back to full throughput.
func RunHeal(cfg ExperimentConfig) ([]HealRow, error) {
	cfg.fill()
	nodes := []string{"node-a", "node-b", "node-c"}
	cluster, err := StartCluster(ClusterConfig{
		Config: Config{Mode: ModeHighway, NumPMDs: cfg.NumPMDs},
		Nodes:  nodes,
		Fabric: FabricConfig{ECMPWidth: 2},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()
	chain, err := cluster.DeploySplitChain(6, nodes, ChainOptions{Flows: cfg.Flows})
	if err != nil {
		return nil, err
	}
	defer chain.Stop()
	if !cluster.WaitBypasses(chain.ExpectedBypasses()) {
		return nil, fmt.Errorf("heal: bypasses not established (%d live, want %d)",
			cluster.BypassCount(), chain.ExpectedBypasses())
	}
	time.Sleep(cfg.Warmup)
	base := chain.MeasureMpps(cfg.Window)

	mid := nodes[1]
	faults := []struct {
		name   string
		inject func() error
	}{
		{"fail-trunk", func() error { return cluster.FailTrunk(nodes[0], mid, 0) }},
		{"wipe-rules", func() error { _, werr := cluster.WipeRules(mid); return werr }},
		{"restart-vswitch", func() error { return cluster.RestartVSwitch(mid) }},
	}
	var rows []HealRow
	for _, f := range faults {
		if err := f.inject(); err != nil {
			return rows, fmt.Errorf("heal: inject %s: %w", f.name, err)
		}
		passes, repairs, converge, err := healConverge(cluster)
		if err != nil {
			return rows, fmt.Errorf("heal: %s: %w", f.name, err)
		}
		// Rules are back; give the detector time to re-establish any
		// bypasses the fault tore down before measuring.
		if !cluster.WaitBypasses(chain.ExpectedBypasses()) {
			return rows, fmt.Errorf("heal: %s: bypasses not re-established (%d live, want %d)",
				f.name, cluster.BypassCount(), chain.ExpectedBypasses())
		}
		time.Sleep(cfg.Warmup)
		rows = append(rows, HealRow{
			Fault: f.name, Passes: passes, Repairs: repairs, Converge: converge,
			BaseMpps: base, RecoveredMpps: chain.MeasureMpps(cfg.Window),
		})
	}
	return rows, nil
}

// MigrateRow is the zero-loss live-migration experiment's result: where the
// VNF moved, how long the make-before-break cutover took, and the packet
// conservation ledger across it — Lost must be exactly 0.
type MigrateRow struct {
	VNF           string
	From, To      string
	Cutover       time.Duration
	Drained       bool  // old path observed quiet before the drain deadline
	Lost          int64 // in-flight delta across the migration; 0 = no loss
	BaseMpps      float64
	AfterMpps     float64
	BypassesAfter int
}

// RunMigrate live-moves a middle VNF between nodes under paced traffic and
// proves zero loss by conservation: the chain is paused and allowed to
// settle before and after the migration, and the generated-minus-received
// ledger must not change — every packet in flight during the cutover was
// delivered.
func RunMigrate(cfg ExperimentConfig) (MigrateRow, error) {
	cfg.fill()
	nodes := []string{"node-a", "node-b", "node-c"}
	cluster, err := StartCluster(ClusterConfig{
		Config:    Config{Mode: ModeHighway, NumPMDs: cfg.NumPMDs},
		Nodes:     nodes,
		TrunkRate: -1,
	})
	if err != nil {
		return MigrateRow{}, err
	}
	defer cluster.Stop()
	// Paced ends: the conservation ledger is exact only when the chain is
	// not saturated (a saturated chain drops at the generator by design).
	chain, err := cluster.DeploySplitChain(4, nodes[:2], ChainOptions{Flows: cfg.Flows, RatePps: 50_000})
	if err != nil {
		return MigrateRow{}, err
	}
	defer chain.Stop()
	if !cluster.WaitBypasses(chain.ExpectedBypasses()) {
		return MigrateRow{}, fmt.Errorf("migrate: bypasses not established (%d live, want %d)",
			cluster.BypassCount(), chain.ExpectedBypasses())
	}
	time.Sleep(cfg.Warmup)
	base := chain.MeasureMpps(cfg.Window)

	row := MigrateRow{VNF: "vnf2", From: nodes[0], To: nodes[2], BaseMpps: base}
	chain.Pause(true)
	l0 := chain.Settle(2 * time.Second)
	chain.Pause(false)
	t0 := time.Now()
	rep, err := chain.Deployment().Migrate(row.VNF, row.To)
	if err != nil {
		return row, fmt.Errorf("migrate: %w", err)
	}
	row.Cutover = time.Since(t0)
	row.Drained = rep.Drained
	chain.Pause(true)
	l1 := chain.Settle(2 * time.Second)
	row.Lost = l1 - l0
	chain.Pause(false)
	time.Sleep(cfg.Warmup)
	row.AfterMpps = chain.MeasureMpps(cfg.Window)
	row.BypassesAfter = cluster.BypassCount()
	return row, nil
}

// RebalanceReport is the rolling re-placement experiment's result: the
// drifted layout's crossing count before and after the controller ran, the
// move plan it executed (with per-move cutover), how long convergence took,
// and the packet conservation ledger across the whole run — Lost must be
// exactly 0.
type RebalanceReport struct {
	CrossBefore int
	CrossAfter  int
	Moves       []RebalanceMove
	Converge    time.Duration // start of controller → last layout change
	Lost        int64         // in-flight delta across the run; 0 = no loss
	Stats       RebalancerStats
	BaseMpps    float64
	AfterMpps   float64
}

// RunRebalance deploys a split chain, deliberately drifts its layout (two
// middles swapped across the fabric — the skew a long-running cluster
// accumulates), then lets the rolling re-placement controller repair it:
// rolling zero-loss migrations, one in flight at a time, until the crossing
// count is back down. The conservation ledger brackets the entire
// controller run. cfg.Window is the controller's load-sampling interval.
func RunRebalance(cfg ExperimentConfig) (RebalanceReport, error) {
	cfg.fill()
	nodes := []string{"node-a", "node-b", "node-c"}
	cluster, err := StartCluster(ClusterConfig{
		Config:    Config{Mode: ModeHighway, NumPMDs: cfg.NumPMDs},
		Nodes:     nodes,
		TrunkRate: -1,
	})
	if err != nil {
		return RebalanceReport{}, err
	}
	defer cluster.Stop()
	// Paced ends: the ledger is exact only when the chain is not saturated,
	// and unsaturated lanes also drain in milliseconds per migration.
	chain, err := cluster.DeploySplitChain(6, nodes, ChainOptions{Flows: cfg.Flows, RatePps: 30_000})
	if err != nil {
		return RebalanceReport{}, err
	}
	defer chain.Stop()
	if !cluster.WaitBypasses(chain.ExpectedBypasses()) {
		return RebalanceReport{}, fmt.Errorf("rebalance: bypasses not established (%d live, want %d)",
			cluster.BypassCount(), chain.ExpectedBypasses())
	}
	// Drift the layout by hand: vnf2 and vnf5 swapped across the fabric
	// turns the contiguous deploy's 2 crossings into 4.
	for _, mv := range []struct{ vnf, to string }{
		{"vnf2", nodes[2]},
		{"vnf5", nodes[0]},
	} {
		if _, err := chain.Deployment().Migrate(mv.vnf, mv.to); err != nil {
			return RebalanceReport{}, fmt.Errorf("rebalance: skew migrate %s→%s: %w", mv.vnf, mv.to, err)
		}
	}
	rep := RebalanceReport{CrossBefore: chain.Deployment().Crossings()}
	time.Sleep(cfg.Warmup)
	rep.BaseMpps = chain.MeasureMpps(cfg.Window)

	chain.Pause(true)
	l0 := chain.Settle(2 * time.Second)
	chain.Pause(false)

	start := time.Now()
	reb := cluster.StartRebalancer(RebalanceConfig{Interval: cfg.Window})
	// Converged when the crossings dropped below the drifted count and the
	// layout then held still for two full sampling intervals.
	cross := rep.CrossBefore
	lastChange := start
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if c := chain.Deployment().Crossings(); c != cross {
			cross = c
			lastChange = time.Now()
		}
		if cross < rep.CrossBefore && time.Since(lastChange) > 2*cfg.Window {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	reb.Stop()
	rep.Converge = lastChange.Sub(start)
	rep.CrossAfter = chain.Deployment().Crossings()
	rep.Stats = reb.Stats()
	rep.Moves = reb.Moves()

	chain.Pause(true)
	l1 := chain.Settle(2 * time.Second)
	rep.Lost = l1 - l0
	chain.Pause(false)
	time.Sleep(cfg.Warmup)
	rep.AfterMpps = chain.MeasureMpps(cfg.Window)
	if n, err := cluster.ReconcileOnce(); err != nil || n != 0 {
		return rep, fmt.Errorf("rebalance: post-run reconcile: %d repairs, err %v", n, err)
	}
	return rep, nil
}

// IncastRow is one arm of the congestion-aware ECMP incast experiment:
// the measured leaf–leaf chain's goodput and latency while one of the two
// spine paths is deliberately incast-congested by background traffic.
type IncastRow struct {
	Arm      string // "static" (repick disabled) or "adaptive"
	Mpps     float64
	P50, P99 time.Duration
	// Repicks is the number of adaptive avoid-set changes across all nodes
	// since the measured chain deployed (the static arm must report 0; the
	// adaptive arm repicks a handful of times as the masks converge, then
	// holds).
	Repicks uint64
	// Paths are the measured deployment's per-trunk carried/dropped window
	// deltas — the adaptive arm must show the load shifted onto the quiet
	// spine.
	Paths []FabricPathRow
}

// runIncastArm builds a 4-node, 2-spine Clos (leaf-a, leaf-b uplink to
// spine-1 AND spine-2), incasts background chains onto spine-1 from both
// leaves — saturating exactly the trunks the measured lane's spine-1 path
// rides, in both directions — and measures a paced leaf-a↔leaf-b chain
// whose single ECMP rule spreads over both spine paths. With repick
// disabled, the flows hashed onto spine-1 sit behind the incast queue;
// with it enabled, the PMD reads the per-path congestion gauges and moves
// them to spine-2 at a flowlet boundary.
func runIncastArm(arm string, disabled bool, perTrunkRate float64, cfg ExperimentConfig) (IncastRow, error) {
	// Deep staging (2048 frames ≈ 20 ms of wait at the trunk budget) makes
	// the congested path hurt mostly in LATENCY rather than drops — the
	// regime adaptive routing exists for. The congestion gauge saturates
	// long before the queue does (occupancy threshold plus overflow-drop
	// evidence), so the signal does not need the queue to fill.
	cluster, err := StartCluster(ClusterConfig{
		Config:    Config{Mode: ModeVanilla, NumPMDs: cfg.NumPMDs, ECMPAdaptiveDisabled: disabled},
		Nodes:     []string{"spine-1", "spine-2", "leaf-a", "leaf-b"},
		TrunkRate: perTrunkRate,
		Fabric: FabricConfig{
			Mode:       FabricSpine,
			Spines:     []string{"spine-1", "spine-2"},
			StagingCap: 2048,
		},
	})
	if err != nil {
		return IncastRow{}, err
	}
	defer cluster.Stop()

	// Background incast: chains from each leaf onto spine-1, paced at 3×
	// the trunk budget — steady overload, unlike a saturating (pool-bound)
	// generator whose two directions seesaw on buffer exhaustion and flap
	// the congestion signal. Leaf–spine crossings are single-hop, so these
	// congest the (leaf-a, spine-1) and (leaf-b, spine-1) trunks and
	// nothing else.
	for _, bg := range []struct{ prefix, leaf string }{
		{"bga-", "leaf-a"},
		{"bgb-", "leaf-b"},
	} {
		g := graph.SplitBidirChain(1, []string{bg.leaf, "spine-1"})
		applyBidirEndpointArgs(g, ChainOptions{Flows: 8, RatePps: perTrunkRate * 3})
		prefixGraph(g, bg.prefix)
		dep, err := cluster.Deploy(g)
		if err != nil {
			return IncastRow{}, err
		}
		defer dep.Stop()
	}

	// Measured chain: paced well under one path's capacity, so the quiet
	// spine can absorb it entirely — any residual p99 tail or drops come
	// from flows stuck behind the incast, not from self-congestion.
	chain, err := cluster.DeploySplitChain(2, []string{"leaf-a", "leaf-b"},
		ChainOptions{Flows: 32, Timestamp: true, RatePps: perTrunkRate * 0.5})
	if err != nil {
		return IncastRow{}, err
	}
	defer chain.Stop()

	// Repicks are counted from chain deploy, not window start: the masks
	// converge within the first few batches (warmup), and a steady signal
	// means they then STAY put — near-zero in-window churn is the success
	// mode, not an idle datapath.
	repicks := func() uint64 {
		var total uint64
		for _, name := range cluster.NodeNames() {
			total += cluster.inner.Node(name).Switch.DatapathStats().ECMPRepicks
		}
		return total
	}
	base := repicks()
	time.Sleep(cfg.Warmup)
	win := newPathWindow(chain.Deployment().Internal().Trunks())
	chain.ResetWindow()
	time.Sleep(cfg.Window)
	return IncastRow{
		Arm:     arm,
		Mpps:    chain.RatePps() / 1e6,
		P50:     chain.LatencyQuantile(0.50),
		P99:     chain.LatencyQuantile(0.99),
		Repicks: repicks() - base,
		Paths:   win.rows(),
	}, nil
}

// RunIncast runs both arms of the incast experiment — static hash pinning
// vs congestion-aware adaptive repick — on identical topologies and
// offered load. The adaptive arm must beat the static arm on p99 latency
// and carried Mpps.
func RunIncast(perTrunkRate float64, cfg ExperimentConfig) ([]IncastRow, error) {
	cfg.fill()
	var rows []IncastRow
	for _, arm := range []struct {
		name     string
		disabled bool
	}{
		{"static", true},
		{"adaptive", false},
	} {
		row, err := runIncastArm(arm.name, arm.disabled, perTrunkRate, cfg)
		if err != nil {
			return nil, fmt.Errorf("incast %s arm: %w", arm.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ConntrackRow is one point of the conntrack scale sweep: a table
// pre-seeded with Conns established connections, then a measurement window
// of live traffic through an ACL VNF whose fast path is the conntrack
// established-connection bypass.
type ConntrackRow struct {
	Conns int
	// SeedMconnsPerSec is the table fill rate while pre-establishing the
	// Conns connections (arena-backed inserts, no heap traffic).
	SeedMconnsPerSec float64
	Mpps             float64
	// CTHitPct/CTMissPct split conntrack probes over the window: hits are
	// established-bypass packets, misses took the classifier walk (and, up
	// to capacity, established a new connection).
	CTHitPct  float64
	CTMissPct float64
	// Per-tier vSwitch lookup split over the same window. With millions of
	// distinct 5-tuples in flight the EMC/SMC working sets are hopeless and
	// the split slides toward the classifier — the point of showing it.
	EMCPct float64
	SMCPct float64
	ClsPct float64
	// Live is the connection count at the end of the window; the sweep
	// gates Live >= Conns (no seeded connection may fall out mid-run).
	Live int
}

// conntrackConnKey enumerates the sweep's connection space: index i maps to
// a unique 5-tuple toward the experiment VIP. 14 bits ride the source port
// and the rest the source address, so the space covers far beyond the 4M
// sweep ceiling without aliasing.
func conntrackConnKey(i int) conntrack.Key {
	hi := i >> 14
	return conntrack.Key{
		Src:     pkt.IP4{10, byte(hi >> 16), byte(hi >> 8), byte(hi)},
		Dst:     pkt.IP4{10, 99, 0, 1},
		SrcPort: uint16(1024 + i&0x3fff),
		DstPort: 80,
		Proto:   pkt.ProtoUDP,
	}
}

// RunConntrackPoint measures one conntrack scale point. Phase 1 pre-seeds
// `conns` established connections into a sharded table (reporting the fill
// rate); phase 2 drives traffic from the generator through the vSwitch into
// an ACL VNF bound to that table and back out to a sink, with 1 frame in 16
// carrying a never-seeded 5-tuple so the window exercises both the
// established bypass and the first-packet classifier walk. The table is
// attached to the vSwitch, so its counters arrive through the same windowed
// DatapathStats delta as the cache tiers and the expiry sweeper owns
// idle-timeout death-marks. The point fails if any seeded connection fell
// out of the table or the per-shard stats disagree with the global sums.
func RunConntrackPoint(conns int, cfg ExperimentConfig) (ConntrackRow, error) {
	cfg.fill()
	if conns < 1 || conns > 1<<22 {
		return ConntrackRow{}, fmt.Errorf("conntrack: conns %d out of range [1,%d]", conns, 1<<22)
	}
	// Headroom: the arena splits evenly across shards but HashKey spreads
	// keys only statistically evenly, and window misses establish new
	// connections on top of the seeded ones.
	ct, err := conntrack.New(conntrack.Config{
		Shards:      4,
		Capacity:    conns + conns/8 + 4096,
		IdleTimeout: time.Hour,
	})
	if err != nil {
		return ConntrackRow{}, err
	}
	now := time.Now().UnixNano()
	t0 := time.Now()
	for i := 0; i < conns; i++ {
		if ct.Insert(conntrackConnKey(i), now) == nil {
			return ConntrackRow{}, fmt.Errorf("conntrack: seed insert %d/%d failed", i, conns)
		}
	}
	seedRate := float64(conns) / time.Since(t0).Seconds() / 1e6

	sw := vswitch.New(vswitch.Config{NumPMDs: cfg.NumPMDs})
	sw.AttachConntrack(ct)
	defer sw.DetachConntrack(ct)
	pool := mempool.MustNew(mempool.Config{Capacity: 4096})
	portGen, pmdGen, err := dpdkr.NewPort(1, "gen", 1024)
	if err != nil {
		return ConntrackRow{}, err
	}
	portSink, pmdSink, err := dpdkr.NewPort(2, "sink", 1024)
	if err != nil {
		return ConntrackRow{}, err
	}
	portACLIn, pmdACLIn, err := dpdkr.NewPort(3, "aclin", 1024)
	if err != nil {
		return ConntrackRow{}, err
	}
	portACLOut, pmdACLOut, err := dpdkr.NewPort(4, "aclout", 1024)
	if err != nil {
		return ConntrackRow{}, err
	}
	for _, p := range []*dpdkr.Port{portGen, portSink, portACLIn, portACLOut} {
		if err := sw.AddPort(p); err != nil {
			return ConntrackRow{}, err
		}
	}
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(3)}, 0)
	sw.Table().Add(10, flow.MatchInPort(4), flow.Actions{flow.Output(2)}, 0)
	app, acl, err := vnf.NewACL("acl", pmdACLIn, pmdACLOut, pool, ct, []vnf.ACLRule{{
		Priority: 100,
		Match:    flow.MatchAll().WithIPProto(pkt.ProtoUDP).WithIPDst(pkt.IP4{10, 99, 0, 1}, 32).WithL4Dst(80),
		Allow:    true,
	}}, false)
	if err != nil {
		return ConntrackRow{}, err
	}
	_ = acl
	if err := sw.Start(); err != nil {
		return ConntrackRow{}, err
	}
	app.Start()

	spec := orchestrator.DefaultTrafficSpec()
	spec.DstIP = pkt.IP4{10, 99, 0, 1}
	spec.DstPort = 80
	raw := make([]byte, 256)
	frameLen, err := pkt.BuildUDP(raw, spec)
	if err != nil {
		app.Stop()
		sw.Stop()
		return ConntrackRow{}, err
	}
	// The generator rewrites source address and port per frame; neither the
	// parser nor the ACL verifies L3/L4 checksums, so clear the UDP
	// checksum once (0 = "no checksum") and leave the IPv4 sum stale.
	const srcIPOff = pkt.EthernetLen + 12
	const srcPortOff = pkt.EthernetLen + pkt.IPv4MinLen
	raw[srcPortOff+6] = 0
	raw[srcPortOff+7] = 0

	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		delivered atomic.Uint64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]*mempool.Buf, 64)
		for !stop.Load() {
			n := pmdSink.Rx(out)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			delivered.Add(uint64(n))
			mempool.FreeBatch(out[:n])
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		bufs := make([]*mempool.Buf, 32)
		seq := 0
		mouse := 0
		for !stop.Load() {
			got := pool.GetBatch(bufs)
			if got == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < got; i++ {
				var idx int
				if seq%16 == 15 {
					// Never-seeded tuple: a first-packet classifier walk.
					// The space above the seeded connections is large
					// enough that it barely recycles within a window.
					idx = conns + mouse%(1<<16)
					mouse++
				} else {
					idx = seq % conns
				}
				seq++
				k := conntrackConnKey(idx)
				b := bufs[i]
				b.SetBytes(raw[:frameLen])
				fb := b.Bytes()
				copy(fb[srcIPOff:srcIPOff+4], k.Src[:])
				fb[srcPortOff] = byte(k.SrcPort >> 8)
				fb[srcPortOff+1] = byte(k.SrcPort)
			}
			sent := pmdGen.Tx(bufs[:got])
			if sent < got {
				mempool.FreeBatch(bufs[sent:got])
				runtime.Gosched()
			}
		}
	}()

	time.Sleep(cfg.Warmup)
	pre := sw.DatapathStats()
	base := delivered.Load()
	w0 := time.Now()
	time.Sleep(cfg.Window)
	got := delivered.Load() - base
	elapsed := time.Since(w0)
	st := sw.DatapathStats().Delta(pre)
	stop.Store(true)
	wg.Wait()
	app.Stop()
	sw.Stop()

	row := ConntrackRow{
		Conns:            conns,
		SeedMconnsPerSec: seedRate,
		Mpps:             float64(got) / elapsed.Seconds() / 1e6,
		Live:             ct.Live(),
	}
	probes := st.Conntrack.Hits + st.Conntrack.Misses
	if probes > 0 {
		row.CTHitPct = 100 * float64(st.Conntrack.Hits) / float64(probes)
		row.CTMissPct = 100 * float64(st.Conntrack.Misses) / float64(probes)
	}
	lookups := st.EMC.Hits + st.SMC.Hits + st.DedupHits + st.ClassifierHits + st.ClassifierMisses
	if lookups > 0 {
		row.EMCPct = 100 * float64(st.EMC.Hits) / float64(lookups)
		row.SMCPct = 100 * float64(st.SMC.Hits) / float64(lookups)
		row.ClsPct = 100 * float64(st.ClassifierHits+st.ClassifierMisses) / float64(lookups)
	}
	if row.Live < conns {
		return row, fmt.Errorf("conntrack: only %d of %d seeded connections still live after the window", row.Live, conns)
	}
	if err := ct.CheckShardSums(); err != nil {
		return row, fmt.Errorf("conntrack: shard stats audit failed: %w", err)
	}
	return row, nil
}

// RunConntrack sweeps concurrent connections 64k → 4M.
func RunConntrack(cfg ExperimentConfig) ([]ConntrackRow, error) {
	var rows []ConntrackRow
	for _, conns := range []int{64 << 10, 256 << 10, 1 << 20, 1 << 22} {
		row, err := RunConntrackPoint(conns, cfg)
		if err != nil {
			return rows, fmt.Errorf("conntrack %d conns: %w", conns, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
