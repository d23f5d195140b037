package orchestrator

import (
	"testing"
	"time"

	"ovshighway/internal/graph"
)

// skewedChain deploys an n-middle paced chain with the middles deliberately
// alternated between the two outer nodes — every chain edge crosses, the
// layout a drift-driven controller exists to fix.
func skewedChain(t *testing.T, c *Cluster, n int, outer0, outer1 string) *ClusterDeployment {
	t.Helper()
	g := graph.SplitBidirChain(n, nil)
	for i := range g.VNFs {
		v := &g.VNFs[i]
		switch v.Name {
		case "end0":
			v.Node = outer0
			v.Args = SrcSinkArgs{Spec: DefaultTrafficSpec(), Flows: 4, RatePps: 20_000}
		case "end1":
			v.Node = outer1
			spec := DefaultTrafficSpec()
			spec.SrcIP, spec.DstIP = spec.DstIP, spec.SrcIP
			spec.SrcPort, spec.DstPort = spec.DstPort, spec.SrcPort
			v.Args = SrcSinkArgs{Spec: spec, Flows: 4, RatePps: 20_000}
		default:
			// vnf1, vnf3, … on the far node, vnf2, vnf4, … on the near one,
			// so every chain edge crosses.
			if i%2 == 0 {
				v.Node = outer1
			} else {
				v.Node = outer0
			}
		}
	}
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cd.Stop)
	waitRecv(t, cd, "end0", 1000)
	waitRecv(t, cd, "end1", 1000)
	return cd
}

// TestRebalancerConvergesSkewedLayout: a pass over a fully alternating
// layout must strictly reduce crossings through rolling migrations — one in
// flight at a time — and leave a layout the reconciler finds converged.
func TestRebalancerConvergesSkewedLayout(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b", "c")
	cd := skewedChain(t, c, 6, "a", "c")

	before := cd.Crossings()
	if before < 6 {
		t.Fatalf("skew setup produced only %d crossings", before)
	}
	r := c.newRebalancer(RebalanceConfig{Interval: 10 * time.Millisecond, Cooldown: time.Hour})
	if moved := r.runOnce(); moved == 0 {
		t.Fatal("controller planned no moves for a fully skewed layout")
	}
	after := cd.Crossings()
	if after >= before {
		t.Fatalf("crossings did not decrease: %d → %d", before, after)
	}
	st := r.Stats()
	if st.MaxInFlight > 1 {
		t.Fatalf("controller ran %d migrations concurrently, want at most 1", st.MaxInFlight)
	}
	if st.Errors != 0 {
		t.Fatalf("controller recorded %d errors", st.Errors)
	}
	for _, mv := range r.Moves() {
		if mv.Err != nil {
			t.Fatalf("move %s %s→%s failed: %v", mv.VNF, mv.From, mv.To, mv.Err)
		}
		if !mv.Report.Drained {
			t.Errorf("move %s did not drain before the deadline", mv.VNF)
		}
	}
	// Every VNF just moved is cooling down, so a second pass is a no-op.
	if moved := r.runOnce(); moved != 0 {
		t.Fatalf("second pass moved %d VNFs during cooldown", moved)
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)
	if n, err := c.ReconcileOnce(); err != nil || n != 0 {
		t.Fatalf("post-rebalance reconcile: %d repairs, err %v", n, err)
	}
}

// TestRebalanceAbortMidPlan: stopping the controller between moves abandons
// the rest of the plan, and what has executed is a complete, reconcilable
// layout — no half-migrated state.
func TestRebalanceAbortMidPlan(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b", "c")
	cd := skewedChain(t, c, 6, "a", "c")

	r := c.newRebalancer(RebalanceConfig{Interval: 10 * time.Millisecond, Cooldown: time.Hour})
	r.testAfterMove = func(RebalanceMove) { r.requestStop() }
	if moved := r.runOnce(); moved != 1 {
		t.Fatalf("aborted pass executed %d moves, want exactly 1", moved)
	}
	if n, err := c.ReconcileOnce(); err != nil || n != 0 {
		t.Fatalf("layout after mid-plan abort is not converged: %d repairs, err %v", n, err)
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)
}

// TestRebalanceCooldownPreventsPingPong: under load that flips between
// passes, the per-VNF cooldown must keep the controller from bouncing the
// VNF straight back; once the cooldown expires the controller may act again.
func TestRebalanceCooldownPreventsPingPong(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	cd := pacedSplitChain(t, c, 1, []string{"a", "b"})

	r := c.newRebalancer(RebalanceConfig{
		Interval: 10 * time.Millisecond,
		Cooldown: 300 * time.Millisecond,
	})
	// Node a hot: the balance-driven plan pushes vnf1 (crossing-neutral on
	// a 1-middle chain) onto b.
	if moved := r.pass([]float64{4, 0}); moved != 1 {
		t.Fatalf("hot-a pass moved %d VNFs, want 1", moved)
	}
	if cd.Deployment("b") == nil || cd.Deployment("b").inst("vnf1") == nil {
		t.Fatal("vnf1 not moved to b")
	}
	// Load flips immediately: without the cooldown this would bounce vnf1
	// right back. The damper must hold it.
	if moved := r.pass([]float64{0, 4}); moved != 0 {
		t.Fatal("oscillating load ping-ponged a VNF inside its cooldown")
	}
	// After the cooldown expires the same pressure is actionable again.
	time.Sleep(350 * time.Millisecond)
	if moved := r.pass([]float64{0, 4}); moved != 1 {
		t.Fatal("cooldown never expired — controller stuck")
	}
	if n, err := c.ReconcileOnce(); err != nil || n != 0 {
		t.Fatalf("post-pass reconcile: %d repairs, err %v", n, err)
	}
}

// TestDrainEvacuatesNode: draining a node live-moves every resident middle
// VNF elsewhere, cordons the node against re-placement, and loses nothing.
func TestDrainEvacuatesNode(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b", "c")
	g := graph.SplitBidirChain(4, nil)
	for i := range g.VNFs {
		v := &g.VNFs[i]
		switch v.Name {
		case "end0":
			v.Node = "a"
			v.Args = SrcSinkArgs{Spec: DefaultTrafficSpec(), Flows: 4, RatePps: 20_000}
		case "end1":
			v.Node = "b"
			spec := DefaultTrafficSpec()
			spec.SrcIP, spec.DstIP = spec.DstIP, spec.SrcIP
			spec.SrcPort, spec.DstPort = spec.DstPort, spec.SrcPort
			v.Args = SrcSinkArgs{Spec: spec, Flows: 4, RatePps: 20_000}
		default:
			v.Node = "c"
		}
	}
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	waitRecv(t, cd, "end0", 1000)
	waitRecv(t, cd, "end1", 1000)

	moved, err := c.Drain("c")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 4 {
		t.Fatalf("drain moved %d VNFs, want 4", moved)
	}
	if d := cd.Deployment("c"); d != nil && len(d.insts) != 0 {
		t.Fatalf("node c still hosts %d VMs after drain", len(d.insts))
	}
	if cs := c.CordonedNodes(); len(cs) != 1 || cs[0] != "c" {
		t.Fatalf("drain did not cordon the node: %v", cs)
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)
	if n, err := c.ReconcileOnce(); err != nil || n != 0 {
		t.Fatalf("post-drain reconcile: %d repairs, err %v", n, err)
	}
}

// TestDrainEmptyNodeIsNoop: draining a node hosting no VNFs moves nothing
// and still applies the cordon.
func TestDrainEmptyNodeIsNoop(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	cd := pacedSplitChain(t, c, 2, []string{"a"})

	moved, err := c.Drain("b")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("draining an empty node moved %d VNFs", moved)
	}
	if cs := c.CordonedNodes(); len(cs) != 1 || cs[0] != "b" {
		t.Fatalf("drain did not cordon the empty node: %v", cs)
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)

	if _, err := c.Drain("nope"); err == nil {
		t.Fatal("draining an unknown node was accepted")
	}
}

// TestCordonExcludesFromPlacement: DeployPlaced never assigns an unpinned
// VNF to a cordoned node; Uncordon restores it to the pool.
func TestCordonExcludesFromPlacement(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b", "c")
	if err := c.Cordon("c"); err != nil {
		t.Fatal(err)
	}
	if err := c.Cordon("c"); err != nil {
		t.Fatalf("cordon is not idempotent: %v", err)
	}
	if err := c.Cordon("nope"); err == nil {
		t.Fatal("cordoning an unknown node was accepted")
	}

	cd, _, err := c.DeployPlaced(graph.SplitBidirChain(4, nil), TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	for _, v := range cd.graph.VNFs {
		if v.Node == "c" {
			t.Fatalf("VNF %s placed on cordoned node c", v.Name)
		}
	}
	if d := cd.Deployment("c"); d != nil && len(d.insts) != 0 {
		t.Fatalf("cordoned node c hosts %d VMs", len(d.insts))
	}

	if err := c.Uncordon("c"); err != nil {
		t.Fatal(err)
	}
	if cs := c.CordonedNodes(); len(cs) != 0 {
		t.Fatalf("uncordon left cordons behind: %v", cs)
	}
}
