// Command repro regenerates every table and figure of the paper's
// evaluation section and prints them as aligned text series, paper-style.
//
// Usage:
//
//	repro                 # everything
//	repro -exp fig3a      # one experiment (run repro -h for the list)
//	repro -window 1s      # longer measurement windows for stabler numbers
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"ovshighway"
)

// experiments is the single registry every -exp surface derives from — the
// flag help, the unknown-exp error and the dispatch loop — so a new arm is
// added in exactly one place. Order is run order under -exp all; arms with
// inAll=false (the strict pass/fail gate) run only when named explicitly:
// a noisy host failing a gate criterion must not kill the default table
// run.
var experiments = []struct {
	name  string
	inAll bool
	run   func(highway.ExperimentConfig) error
}{
	{"fig3a", true, fig3a},
	{"fig3b", true, fig3b},
	{"multinode", true, multinode},
	{"wlatency", true, wlatency},
	{"fabric", true, fabric},
	{"incast", true, incast},
	{"flowscale", true, flowscale},
	{"pmdscale", true, pmdscale},
	{"heal", true, heal},
	{"migrate", true, migrate},
	{"rebalance", true, rebalance},
	{"conntrack", true, conntrackScale},
	{"latency", true, latency},
	{"setup", true, func(highway.ExperimentConfig) error { return setup() }},
	{"check", false, check},
}

// expNames renders the registry as "all | fig3a | ..." for help and errors.
func expNames() string {
	names := make([]string, 0, len(experiments)+1)
	names = append(names, "all")
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, " | ")
}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: "+expNames())
		warmup = flag.Duration("warmup", 200*time.Millisecond, "per-point warm-up")
		window = flag.Duration("window", 500*time.Millisecond, "per-point measurement window")
		flows  = flag.Int("flows", 4, "distinct generated 5-tuples")
	)
	flag.Parse()

	known := *exp == "all"
	for _, e := range experiments {
		if e.name == *exp {
			known = true
		}
	}
	if !known {
		log.Fatalf("unknown -exp %q (want %s)", *exp, expNames())
	}

	cfg := highway.ExperimentConfig{Warmup: *warmup, Window: *window, Flows: *flows}

	for _, e := range experiments {
		if *exp == e.name || (*exp == "all" && e.inAll) {
			if err := e.run(cfg); err != nil {
				log.Fatalf("%s: %v", e.name, err)
			}
		}
	}
}

// bothModes measures one point on the vanilla and then the highway datapath.
func bothModes(run func(highway.Mode) (highway.ChainRow, error)) (v, h highway.ChainRow, err error) {
	if v, err = run(highway.ModeVanilla); err == nil {
		h, err = run(highway.ModeHighway)
	}
	return v, h, err
}

// check is the fast pass/fail regression gate for the paper's headline
// claim: highway strictly beats vanilla, and the gap widens with chain
// length. It measures two Figure 3(a) points instead of the full sweep.
func check(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Check: highway ≫ vanilla, gap widening with chain length ===")
	speedup := func(vms int) (float64, error) {
		v, h, err := bothModes(func(mode highway.Mode) (highway.ChainRow, error) {
			return highway.RunFig3aPoint(vms, mode, cfg)
		})
		if err != nil {
			return 0, err
		}
		s := h.Mpps / v.Mpps
		fmt.Printf("%8d VMs: vanilla %.3f Mpps, highway %.3f Mpps (%.2fx)\n", vms, v.Mpps, h.Mpps, s)
		if s <= 1 {
			return s, fmt.Errorf("highway not faster than vanilla at %d VMs (%.2fx)", vms, s)
		}
		return s, nil
	}
	short, err := speedup(3)
	if err != nil {
		return err
	}
	long, err := speedup(8)
	if err != nil {
		return err
	}
	if long <= short {
		return fmt.Errorf("gap did not widen with chain length (%.2fx at 3 VMs vs %.2fx at 8)", short, long)
	}
	fmt.Printf("PASS: gap widens %.2fx → %.2fx\n", short, long)

	// Datapath sanity on a churned flow-scale point: clean synthetic
	// traffic must produce zero parse errors, and the EMC must survive
	// unrelated delete churn (death-mark invalidation, not a cache flush).
	row, err := highway.RunFlowScalePoint(1024, 500, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("datapath: emc %.1f%% smc %.1f%% dedup %.1f%% classifier %.1f%%, parse errors %d\n",
		row.EMCPct, row.SMCPct, row.DedupPct, row.ClsPct, row.ParseErrors)
	if row.ParseErrors != 0 {
		return fmt.Errorf("parse errors on clean traffic: %d", row.ParseErrors)
	}
	if row.EMCPct < 90 {
		return fmt.Errorf("EMC hit rate %.1f%% under delete churn, want >90%% (death-mark invalidation broken?)", row.EMCPct)
	}
	fmt.Println("PASS: EMC >90% under unrelated delete churn, no parse errors")
	fmt.Println()
	return nil
}

func fabric(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Switched-core fabric: ECMP multi-trunk lanes, spine relay, PCP lane QoS ===")

	// Arm 1: cross-node throughput vs ECMP bundle width at the SAME
	// per-trunk rate. The 3-node chain crosses two rate-limited adjacencies;
	// wider bundles carry more because flows hash-spread across the paths.
	const perTrunkRate = 100_000.0
	const vms = 6
	fmt.Printf("--- uplink-bound 3-node chain (%d VMs, %.0f kpps per trunk per direction) ---\n",
		vms, perTrunkRate/1e3)
	fmt.Printf("%8s %10s   %s\n", "fabric", "Mpps", "per-path carried/dropped (both directions)")
	for _, width := range []int{1, 2, 4} {
		r, err := highway.RunFabricThroughputPoint(vms, width, perTrunkRate, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%8s %10.3f   %s\n", fmt.Sprintf("ecmp×%d", width), r.Mpps, pathList(r.Paths))
	}

	// Arm 2: mesh vs spine latency. The leaf–leaf lane relays through the
	// spine's vSwitch, paying the propagation delay and a forwarding hop
	// twice. The delay is chosen large enough to clear the ~16 ms queueing
	// floor a loaded 1-core host adds (the histogram is log₂-bucketed, so
	// the 2× hop count must cross a bucket boundary to be visible).
	const wireLat = 50 * time.Millisecond
	fmt.Printf("--- leaf–leaf chain, mesh vs spine relay (4 VMs, %v wire delay per hop) ---\n", wireLat)
	fmt.Printf("%8s %10s %12s %12s %8s\n", "fabric", "Mpps", "p50", "p99", "paths")
	for _, mode := range []highway.FabricMode{highway.FabricMesh, highway.FabricSpine} {
		r, err := highway.RunFabricLatencyPoint(4, mode, wireLat, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%8s %10.3f %12v %12v %8d\n",
			mode, r.Mpps, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), len(r.Paths))
	}

	// Arm 3: PCP-weighted lane QoS. Two chains saturate one shared trunk
	// from classes weighted 2:1; goodput must split accordingly.
	fmt.Println("--- lane QoS: two saturating chains, PCP 6 weight 2 vs PCP 0 weight 1 ---")
	q, err := highway.RunFabricQoS(perTrunkRate, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %10s %16s %16s\n", "class", "Mpps", "trunk carried", "trunk dropped")
	fmt.Printf("%8s %10.3f %16d %16d\n", "pcp6 w2", q.HiMpps, q.HiCarried, q.HiDropped)
	fmt.Printf("%8s %10.3f %16d %16d\n", "pcp0 w1", q.LoMpps, q.LoCarried, q.LoDropped)
	fmt.Printf("goodput ratio %.2f:1 (want ≈2:1)\n", q.Ratio)
	fmt.Println()
	return nil
}

func incast(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Incast: congestion-aware adaptive ECMP repick vs static hash pinning ===")
	fmt.Println("    (2-spine Clos, 4 nodes; background chains incast onto spine-1 from both")
	fmt.Println("     leaves; the measured leaf–leaf chain ECMPs over both spine paths and")
	fmt.Println("     the adaptive arm must shift it onto the quiet spine at flowlet gaps)")
	const perTrunkRate = 100_000.0
	fmt.Printf("%10s %10s %12s %12s %9s   %s\n",
		"arm", "Mpps", "p50", "p99", "repicks", "per-path carried/dropped (both directions)")
	var rows [2]highway.ChainRow // static, adaptive
	for i, arm := range []string{"static", "adaptive"} {
		r, err := highway.RunIncastPoint(i == 1, perTrunkRate, cfg)
		if err != nil {
			return fmt.Errorf("%s arm: %w", arm, err)
		}
		fmt.Printf("%10s %10.3f %12v %12v %9d   %s\n",
			arm, r.Mpps, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.Repicks, pathList(r.Paths))
		rows[i] = r
	}
	st, ad := rows[0], rows[1]
	fmt.Printf("adaptive vs static: p99 %v → %v, %.3f → %.3f Mpps, %d repicks\n",
		st.P99.Round(time.Microsecond), ad.P99.Round(time.Microsecond), st.Mpps, ad.Mpps, ad.Repicks)
	fmt.Println()
	return nil
}

func flowscale(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Flow scale: distinct 5-tuples × flow-table delete churn ===")
	fmt.Println("    (tier shift as flows outgrow each cache: EMC → SMC → classifier, each")
	fmt.Println("     cache keeping its capacity's share of a set it cannot hold — live")
	fmt.Println("     entries are displaced one miss in emc-insert-inv-prob, default 100;")
	fmt.Println("     unrelated delete churn barely dents it — death-mark invalidation)")
	fmt.Printf("%8s %10s %10s %8s %8s %8s %8s %12s\n",
		"flows", "churn/s", "Mpps", "emc%", "smc%", "dedup%", "cls%", "pmd busy")
	for _, churn := range []int{0, 1000} {
		for _, flows := range []int{64, 1024, 4096, 16384, 65536} {
			r, err := highway.RunFlowScalePoint(flows, churn, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%8d %10d %10.3f %7.1f%% %7.1f%% %7.1f%% %7.1f%%   %s\n",
				r.Flows, r.ChurnPerSec, r.Mpps, r.EMCPct, r.SMCPct, r.DedupPct, r.ClsPct,
				busyList(r.PMDBusy))
		}
	}

	// Skewed traffic: persistent elephants plus an endless stream of
	// one-shot mice (fresh ephemeral ports, never seen twice). When every
	// resolution may displace (invprob 1) each mouse that finds its set full
	// evicts a live elephant for a slot it will never use again; the OVS
	// emc-insert-inv-prob policy (a live entry is displaced one time in N;
	// vacant ways are always taken) suppresses exactly those evictions —
	// watch the conflicts column collapse while throughput rises. (SMC off
	// and a small EMC put the pressure where the policy acts.)
	fmt.Println("    Zipf-skewed traffic (s=1.25): 256 persistent elephants, the cold")
	fmt.Println("    half of the ranks replaced by one-shot mice; 1k-entry EMC, SMC off")
	fmt.Println("    — emc-insert-inv-prob sweep:")
	fmt.Printf("%8s %10s %8s %8s %14s\n", "invprob", "Mpps", "emc%", "cls%", "live evictions")
	for _, inv := range []int{1, 50} {
		zcfg := cfg
		zcfg.ZipfSkew = 1.25
		zcfg.EMCInsertInvProb = inv
		zcfg.EMCEntries = 1024
		zcfg.SMCDisabled = true
		r, err := highway.RunFlowScalePoint(512, 0, zcfg)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %10.3f %7.1f%% %7.1f%% %14d\n",
			inv, r.Mpps, r.EMCPct, r.ClsPct, r.EMCConflicts)
	}
	fmt.Println()
	return nil
}

// pathList renders per-trunk window deltas as "name:carried/dropped  ...".
func pathList(paths []highway.PathDelta) string {
	cells := make([]string, len(paths))
	for i, p := range paths {
		cells[i] = fmt.Sprintf("%s:%d/%d", p.Name, p.Carried, p.Dropped)
	}
	return strings.Join(cells, "  ")
}

// busyList renders per-PMD busy fractions as "53%/2%/..." for table cells.
func busyList(fracs []float64) string {
	if len(fracs) == 0 {
		return "-"
	}
	s := ""
	for i, f := range fracs {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprintf("%.0f%%", 100*f)
	}
	return s
}

func pmdscale(cfg highway.ExperimentConfig) error {
	fmt.Println("=== PMD scale: Mpps vs forwarding threads × RSS queues × auto-balancer ===")
	fmt.Println("    (single hot port, every queue first skewed onto PMD 0; one queue can")
	fmt.Println("     never use more than one PMD, and without the balancer neither can k)")
	fmt.Printf("%6s %8s %10s %10s %14s %13s %7s\n",
		"PMDs", "queues", "balancer", "Mpps", "spread before", "spread after", "moves")
	rows, err := highway.RunPMDScale(cfg)
	if err != nil {
		return err
	}
	for _, r := range rows {
		bal := "off"
		if r.Balanced {
			bal = "on"
		}
		fmt.Printf("%6d %8d %10s %10.3f %13.1f%% %12.1f%% %7d\n",
			r.PMDs, r.Queues, bal, r.Mpps, 100*r.SpreadBefore, 100*r.SpreadAfter, r.Moves)
	}
	fmt.Println()
	return nil
}

func heal(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Self-healing: fault injection vs the declarative reconciler ===")
	fmt.Println("    (3-node highway cluster, ECMP×2 fabric, live split chain; after each")
	fmt.Println("     fault the reconciler alone restores full throughput — no redeploy)")
	rows, err := highway.RunHeal(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%18s %8s %9s %12s %12s %14s\n",
		"fault", "passes", "repairs", "converge", "base Mpps", "recovered Mpps")
	for _, r := range rows {
		fmt.Printf("%18s %8d %9d %12v %12.3f %14.3f\n",
			r.Fault, r.Passes, r.Repairs, r.Converge.Round(time.Microsecond),
			r.BaseMpps, r.RecoveredMpps)
	}
	fmt.Println()
	return nil
}

func migrate(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Live VNF migration: make-before-break double-steering, zero loss ===")
	fmt.Println("    (paced split chain; the VNF moves to a third node mid-stream and the")
	fmt.Println("     sent-minus-received ledger across the cutover must not change)")
	r, err := highway.RunMigrate(cfg)
	if err != nil {
		return err
	}
	drained := "drained"
	if !r.Drained {
		drained = "DRAIN DEADLINE EXPIRED"
	}
	fmt.Printf("%s: %s → %s  cutover %v  %s  packets lost %d  %.3f → %.3f Mpps  bypasses %d\n",
		r.VNF, r.From, r.To, r.Cutover.Round(time.Microsecond), drained, r.Lost,
		r.BaseMpps, r.AfterMpps, r.BypassesAfter)
	if r.Lost != 0 {
		return fmt.Errorf("migration lost %d packets", r.Lost)
	}
	fmt.Println("PASS: zero packets lost across the cutover")
	fmt.Println()
	return nil
}

func rebalance(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Rolling re-placement: drift-driven rebalancing, zero loss ===")
	fmt.Println("    (split chain with two middles deliberately drifted across the fabric;")
	fmt.Println("     the controller repairs the layout through rolling migrations — one in")
	fmt.Println("     flight at a time — and the conservation ledger brackets the whole run;")
	fmt.Println("     -window sets the controller's load-sampling interval)")
	r, err := highway.RunRebalance(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %10s %10s %12s %10s\n", "vnf", "from", "to", "cutover", "drained")
	for _, mv := range r.Moves {
		drained := "yes"
		if !mv.Report.Drained {
			drained = "DEADLINE EXPIRED"
		}
		fmt.Printf("%8s %10s %10s %12v %10s\n",
			mv.VNF, mv.From, mv.To, mv.Report.Cutover.Round(time.Microsecond), drained)
	}
	fmt.Printf("crossings %d → %d  converged in %v  packets lost %d  %.3f → %.3f Mpps\n",
		r.CrossBefore, r.CrossAfter, r.Converge.Round(time.Millisecond), r.Lost,
		r.BaseMpps, r.AfterMpps)
	fmt.Printf("controller: passes %d  moves %d  damped %d  deferred %d  errors %d  max in flight %d\n",
		r.Stats.Passes, r.Stats.Moves, r.Stats.Damped, r.Stats.Deferred,
		r.Stats.Errors, r.Stats.MaxInFlight)
	if r.Lost != 0 {
		return fmt.Errorf("rebalance lost %d packets", r.Lost)
	}
	if r.CrossAfter >= r.CrossBefore {
		return fmt.Errorf("rebalance did not converge: %d → %d crossings", r.CrossBefore, r.CrossAfter)
	}
	if r.Stats.MaxInFlight > 1 {
		return fmt.Errorf("rebalance ran %d migrations concurrently", r.Stats.MaxInFlight)
	}
	if r.Stats.Errors != 0 {
		return fmt.Errorf("rebalance controller recorded %d errors", r.Stats.Errors)
	}
	fmt.Println("PASS: layout converged, zero packets lost, one migration in flight")
	fmt.Println()
	return nil
}

func conntrackScale(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Conntrack scale: concurrent connections 64k → 4M ===")
	fmt.Println("    (table pre-seeded, then live traffic through an ACL VNF: 15/16 of")
	fmt.Println("     frames ride the established bypass, 1/16 are first packets taking")
	fmt.Println("     the classifier walk; each point requires every seeded connection")
	fmt.Println("     to still be live)")
	fmt.Printf("%10s %12s %10s %8s %8s %8s %8s %8s %10s\n",
		"conns", "seed Mc/s", "Mpps", "ct-hit%", "ct-miss%", "emc%", "smc%", "cls%", "live")
	rows, err := highway.RunConntrack(cfg)
	for _, r := range rows {
		fmt.Printf("%10d %12.2f %10.3f %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %10d\n",
			r.Conns, r.SeedMconnsPerSec, r.Mpps, r.CTHitPct, r.CTMissPct,
			r.EMCPct, r.SMCPct, r.ClsPct, r.Live)
	}
	if err != nil {
		return err
	}
	fmt.Println("PASS: all seeded connections live at every point")
	fmt.Println()
	return nil
}

func fig3a(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Figure 3(a): memory-only chains, bidirectional 64B traffic ===")
	fmt.Println("    (paper: log-scale Mpps, 2..8 VMs; vanilla decays, highway stays high)")
	return figure3(2, highway.RunFig3aPoint, cfg)
}

func fig3b(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Figure 3(b): chains behind two 10G NICs (14.88 Mpps line rate each) ===")
	fmt.Println("    (paper: 4..20 Mpps linear scale, 1..8 VMs)")
	return figure3(1, highway.RunFig3bPoint, cfg)
}

// figure3 prints one Figure 3 throughput table for chains of minVMs..8 VMs.
func figure3(minVMs int, point func(int, highway.Mode, highway.ExperimentConfig) (highway.ChainRow, error), cfg highway.ExperimentConfig) error {
	fmt.Printf("%8s %22s %22s %8s\n", "# VMs", "vanilla OvS-DPDK [Mpps]", "our approach [Mpps]", "speedup")
	for vms := minVMs; vms <= 8; vms++ {
		v, h, err := bothModes(func(mode highway.Mode) (highway.ChainRow, error) { return point(vms, mode, cfg) })
		if err != nil {
			return err
		}
		fmt.Printf("%8d %22.3f %22.3f %7.2fx\n", vms, v.Mpps, h.Mpps, h.Mpps/v.Mpps)
	}
	fmt.Println()
	return nil
}

func wlatency(cfg highway.ExperimentConfig) error {
	const vms = 6
	fmt.Println("=== Wire latency: 2-node split chain vs trunk propagation delay ===")
	fmt.Printf("    (%d VMs, one trunk crossing; delay adds a mode-independent floor,\n", vms)
	fmt.Println("     so the highway's latency edge shrinks while its throughput edge survives)")
	fmt.Printf("%10s %12s %12s %12s %12s %10s %10s\n",
		"wire delay", "vanilla p50", "highway p50", "vanilla p99", "highway p99",
		"van Mpps", "hw Mpps")
	for _, lat := range []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond} {
		v, h, err := bothModes(func(mode highway.Mode) (highway.ChainRow, error) {
			return highway.RunWireLatencyPoint(vms, lat, mode, cfg)
		})
		if err != nil {
			return err
		}
		fmt.Printf("%10v %12v %12v %12v %12v %10.3f %10.3f\n",
			lat, v.P50.Round(time.Microsecond), h.P50.Round(time.Microsecond),
			v.P99.Round(time.Microsecond), h.P99.Round(time.Microsecond),
			v.Mpps, h.Mpps)
	}
	fmt.Println()
	return nil
}

func multinode(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Multi-node: bidirectional chains split across 2 nodes sharing a 10G trunk ===")
	fmt.Println("    (beyond the paper: intra-node hops still bypass; the wire hop cannot)")
	fmt.Printf("%8s %9s %22s %22s %8s %9s\n",
		"# VMs", "split", "vanilla cluster [Mpps]", "highway cluster [Mpps]", "speedup", "bypasses")
	for vms := 3; vms <= 8; vms++ {
		v, h, err := bothModes(func(mode highway.Mode) (highway.ChainRow, error) {
			return highway.RunMultiNodePoint(vms, mode, cfg)
		})
		if err != nil {
			return err
		}
		fmt.Printf("%8d %6d+%-2d %22.3f %22.3f %7.2fx %9d\n",
			vms, h.Segments[0], h.Segments[1], v.Mpps, h.Mpps, h.Mpps/v.Mpps, h.Bypasses)
	}
	fmt.Println()
	return nil
}

func latency(cfg highway.ExperimentConfig) error {
	fmt.Println("=== Latency (E3): one-way latency under bidirectional load ===")
	fmt.Println("    (paper: ~80% improvement at 8 VMs; detailed results omitted there)")
	fmt.Printf("%8s %14s %14s %14s %14s %12s\n",
		"# VMs", "vanilla p50", "highway p50", "vanilla p99", "highway p99", "p50 improv")
	for _, vms := range []int{2, 3, 4, 5, 6, 7, 8} {
		v, h, err := bothModes(func(mode highway.Mode) (highway.ChainRow, error) {
			return highway.RunLatencyPoint(vms, mode, cfg)
		})
		if err != nil {
			return err
		}
		improv := 100 * (1 - float64(h.P50)/float64(v.P50))
		fmt.Printf("%8d %14v %14v %14v %14v %11.1f%%\n",
			vms, v.P50, h.P50, v.P99, h.P99, improv)
	}
	fmt.Println()
	return nil
}

func setup() error {
	fmt.Println("=== Setup time (E4): flow-mod analysis → PMD using the bypass ===")
	fmt.Println("    (paper: \"on the order of 100 ms\", dominated by QEMU/virtio plumbing)")
	fmt.Printf("%-18s %10s %12s %12s %12s\n", "emulation", "samples", "min", "mean", "max")
	cases := []struct {
		name            string
		hotplug, config time.Duration
	}{
		{"qemu-realistic", 30 * time.Millisecond, 5 * time.Millisecond},
		{"fast-hypervisor", 5 * time.Millisecond, time.Millisecond},
		{"no-emulation", 0, 0},
	}
	for _, c := range cases {
		row, err := highway.RunSetupTime(8, c.hotplug, c.config)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %10d %12v %12v %12v\n",
			c.name, row.Samples, row.Min.Round(time.Microsecond),
			row.Mean.Round(time.Microsecond), row.Max.Round(time.Microsecond))
	}
	fmt.Println()
	return nil
}
