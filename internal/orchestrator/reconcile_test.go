package orchestrator

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ovshighway/internal/graph"
)

// reconcileUntilClean drives synchronous reconcile passes until one applies
// zero repairs, returning the total repair count. Fails the test if the
// cluster does not converge within a bounded number of passes.
func reconcileUntilClean(t *testing.T, c *Cluster) int {
	t.Helper()
	total := 0
	for pass := 0; pass < 50; pass++ {
		n, err := c.ReconcileOnce()
		if err != nil {
			t.Fatalf("reconcile pass %d: %v", pass, err)
		}
		total += n
		if n == 0 {
			return total
		}
	}
	t.Fatalf("reconciler did not converge (%d repairs applied)", total)
	return total
}

// TestNodeLoadsExcludesSpineRelayTraffic: a relay-only spine forwards every
// leaf–leaf frame on its trunk ports but hosts none of the VNF work, so
// NodeLoads must attribute zero load to it — trunk-port RX is excluded from
// the traffic-apportioning pass.
func TestNodeLoadsExcludesSpineRelayTraffic(t *testing.T) {
	c := newCluster(t, ModeVanilla, "spine", "leaf-a", "leaf-b")
	g := graph.SplitBidirChain(1, []string{"leaf-a", "leaf-b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1, Mode: FabricSpine, Spines: []string{"spine"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()

	// First call snapshots the RX baseline; the second sees only the
	// traffic moved in between — all of it relayed through the spine.
	c.NodeLoads()
	waitRecv(t, cd, "end0", 2000)
	waitRecv(t, cd, "end1", 2000)
	loads := c.NodeLoads()

	byName := make(map[string]float64, len(loads))
	for i, name := range c.NodeNames() {
		byName[name] = loads[i]
	}
	if byName["spine"] != 0 {
		t.Fatalf("relay-only spine credited %.2f VNF-equivalents of load (trunk RX leaked into NodeLoads)", byName["spine"])
	}
	if byName["leaf-a"] == 0 || byName["leaf-b"] == 0 {
		t.Fatalf("leaves carried the chain but show no load: a=%.2f b=%.2f", byName["leaf-a"], byName["leaf-b"])
	}
}

// TestFailTrunkTypedErrors: fault injection aimed at adjacencies or bundle
// slots the fabric does not carry reports ErrUnknownAdjacency, matchable
// with errors.Is; re-failing a dead slot is an idempotent no-op.
func TestFailTrunkTypedErrors(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	g := graph.SplitBidirChain(1, []string{"a", "b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1, ECMPWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()

	if err := c.FailTrunk("a", "nope", 0); !errors.Is(err, ErrUnknownAdjacency) {
		t.Fatalf("unknown node pair: got %v, want ErrUnknownAdjacency", err)
	}
	if err := c.FailTrunk("a", "b", 7); !errors.Is(err, ErrUnknownAdjacency) {
		t.Fatalf("out-of-range bundle slot: got %v, want ErrUnknownAdjacency", err)
	}
	if err := c.FailTrunk("a", "b", 0); err != nil {
		t.Fatalf("failing a live slot: %v", err)
	}
	if err := c.FailTrunk("a", "b", 0); err != nil {
		t.Fatalf("re-failing a dead slot must be idempotent, got %v", err)
	}
	if err := c.FailTrunk("a", "b", 1); err == nil {
		t.Fatal("failing the last live slot was accepted")
	} else if errors.Is(err, ErrUnknownAdjacency) {
		t.Fatalf("last-slot refusal mislabeled as unknown adjacency: %v", err)
	}
}

// TestFailTrunkConcurrentWithStop races fault injection against deployment
// teardown: whatever interleaving wins, nothing may panic or deadlock, and
// errors must be the typed kind (the adjacency can legitimately vanish
// mid-call). Run under -race.
func TestFailTrunkConcurrentWithStop(t *testing.T) {
	for round := 0; round < 5; round++ {
		c := newCluster(t, ModeVanilla, "a", "b")
		g := graph.SplitBidirChain(1, []string{"a", "b"})
		cd, err := c.Deploy(g, TrunkConfig{RatePps: -1, ECMPWidth: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if err := c.FailTrunk("a", "b", i); err != nil && !errors.Is(err, ErrUnknownAdjacency) {
					// The only other legitimate refusal is "last live slot".
					continue
				}
			}
		}()
		go func() {
			defer wg.Done()
			cd.Stop()
		}()
		wg.Wait()
		c.Stop()
	}
}

// TestReconcileRepairsRuleWipe: wiping a node's deployment rules (the
// fat-fingered del-flows fault) is fully repaired by reconciliation — the
// first pass reinstalls, a follow-up pass is clean, and traffic resumes.
func TestReconcileRepairsRuleWipe(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	g := graph.SplitBidirChain(2, []string{"a", "b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	waitRecv(t, cd, "end1", 1000)

	// A freshly-converged deployment reconciles to zero repairs.
	if n, err := c.ReconcileOnce(); err != nil || n != 0 {
		t.Fatalf("clean deployment reconciled with %d repairs, err %v", n, err)
	}

	wiped, err := c.WipeDeploymentRules("b")
	if err != nil {
		t.Fatal(err)
	}
	if wiped == 0 {
		t.Fatal("wipe removed no rules — fault not injected")
	}
	if n := reconcileUntilClean(t, c); n < wiped {
		t.Fatalf("reconciler repaired %d rules, expected at least the %d wiped", n, wiped)
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)
}

// TestReconcileRepairsTrunkFailure: a killed bundle slot is rebuilt by
// reconciliation — the bundle returns to full width with its lanes re-added
// and traffic keeps flowing over the repaired fabric.
func TestReconcileRepairsTrunkFailure(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	g := graph.SplitBidirChain(1, []string{"a", "b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1, ECMPWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	waitRecv(t, cd, "end1", 1000)

	if err := c.FailTrunk("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if got := len(c.PairTrunks("a", "b")); got != 1 {
		t.Fatalf("bundle has %d live trunks after failure, want 1", got)
	}
	if n := reconcileUntilClean(t, c); n == 0 {
		t.Fatal("reconciler saw nothing to repair after a trunk failure")
	}
	trunks := c.PairTrunks("a", "b")
	if len(trunks) != 2 {
		t.Fatalf("bundle not rebuilt: %d live trunks, want 2", len(trunks))
	}
	for i, tr := range trunks {
		if tr.LaneCount() != 1 {
			t.Fatalf("repaired slot %d carries %d lanes, want 1", i, tr.LaneCount())
		}
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)
}

// TestReconcileSurvivesVSwitchRestart: a vSwitch restart empties a node's
// flow table entirely; reconciliation reinstalls the deployment's rules and
// the chain recovers without a redeploy.
func TestReconcileSurvivesVSwitchRestart(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	g := graph.SplitBidirChain(2, []string{"a", "b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	waitRecv(t, cd, "end1", 1000)

	if err := c.RestartVSwitch("a"); err != nil {
		t.Fatal(err)
	}
	if got := c.Node("a").Switch.Table().Len(); got != 0 {
		t.Fatalf("restart left %d flows installed", got)
	}
	if n := reconcileUntilClean(t, c); n == 0 {
		t.Fatal("reconciler saw nothing to repair after a vswitch restart")
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)
}

// TestReconcileSurvivesNodeBlip: FailNode combines every fault at once —
// all trunks touching the node die and its vSwitch restarts empty. One
// reconciliation convergence must bring the whole path back.
func TestReconcileSurvivesNodeBlip(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b", "c")
	g := graph.SplitBidirChain(4, []string{"a", "b", "c"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1, ECMPWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	waitRecv(t, cd, "end1", 1000)

	if err := c.FailNode("b"); err != nil {
		t.Fatal(err)
	}
	if n := reconcileUntilClean(t, c); n == 0 {
		t.Fatal("reconciler saw nothing to repair after a node blip")
	}
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if got := len(c.PairTrunks(pair[0], pair[1])); got != 2 {
			t.Fatalf("adjacency %s–%s not rebuilt: %d live trunks, want 2", pair[0], pair[1], got)
		}
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)
}

// TestReconcilerBackgroundLoop: the background reconciler alone — no manual
// ReconcileOnce calls — repairs an injected rule wipe and keeps its error
// counter at zero.
func TestReconcilerBackgroundLoop(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	g := graph.SplitBidirChain(2, []string{"a", "b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	waitRecv(t, cd, "end1", 1000)

	r := c.StartReconciler(2 * time.Millisecond)
	defer r.Stop()
	if _, err := c.WipeDeploymentRules("b"); err != nil {
		t.Fatal(err)
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)
	if !waitCond(func() bool { return r.Stats().Repairs > 0 }) {
		t.Fatal("background reconciler recorded no repairs")
	}
	if st := r.Stats(); st.Errors != 0 {
		t.Fatalf("background reconciler recorded %d errors", st.Errors)
	}
}

// TestMigrateZeroLossOrchestrator: a paced chain's conservation ledger must
// not change across a live migration — every packet in flight during the
// cutover is delivered, none lost.
func TestMigrateZeroLossOrchestrator(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b", "c")
	g := graph.SplitBidirChain(3, []string{"a", "b"})
	for i := range g.VNFs {
		switch g.VNFs[i].Name {
		case "end0":
			g.VNFs[i].Args = SrcSinkArgs{Spec: DefaultTrafficSpec(), Flows: 4, RatePps: 20_000}
		case "end1":
			spec := DefaultTrafficSpec()
			spec.SrcIP, spec.DstIP = spec.DstIP, spec.SrcIP
			spec.SrcPort, spec.DstPort = spec.DstPort, spec.SrcPort
			g.VNFs[i].Args = SrcSinkArgs{Spec: spec, Flows: 4, RatePps: 20_000}
		}
	}
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	waitRecv(t, cd, "end0", 1000)
	waitRecv(t, cd, "end1", 1000)

	settle := func() int64 {
		inFlight := settleEnds(cd, "end0", "end1")
		pauseEnds(cd, false, "end0", "end1")
		return inFlight
	}

	l0 := settle()
	rep, err := cd.Migrate("vnf2", "c")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained {
		t.Errorf("paced chain should drain before the deadline: %+v", rep)
	}
	if rep.From != "a" || rep.To != "c" {
		t.Errorf("report endpoints = %s -> %s, want a -> c", rep.From, rep.To)
	}
	l1 := settle()
	if lost := l1 - l0; lost != 0 {
		t.Fatalf("migration lost %d packets (ledger %d → %d)", lost, l0, l1)
	}
	// The moved VNF now lives on the target; the chain still delivers.
	if cd.Deployment("c") == nil || cd.Deployment("c").inst("vnf2") == nil {
		t.Fatal("vnf2 not instantiated on the target node")
	}
	if d := cd.Deployment("a"); d != nil && d.inst("vnf2") != nil {
		t.Fatal("vnf2 still instantiated on the source node")
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)
	// The deployment reconciles clean against its migrated layout.
	if n, err := c.ReconcileOnce(); err != nil || n != 0 {
		t.Fatalf("post-migration reconcile: %d repairs, err %v", n, err)
	}
}

// TestMigrateValidation covers the refusal paths: unknown VNFs and nodes,
// endpoint (non-middle) VNFs, and the src==target no-op.
func TestMigrateValidation(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	g := graph.SplitBidirChain(1, []string{"a", "b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()

	if _, err := cd.Migrate("vnf1", "nope"); err == nil {
		t.Fatal("migrate to an unknown node was accepted")
	}
	if _, err := cd.Migrate("ghost", "b"); err == nil {
		t.Fatal("migrating an unknown VNF was accepted")
	}
	if _, err := cd.Migrate("end0", "b"); err == nil {
		t.Fatal("migrating an endpoint VNF was accepted")
	}
	if _, err := cd.Migrate("vnf1", "a"); err != nil {
		t.Fatalf("src==target migration should be a no-op, got %v", err)
	}
}

// TestReconcileRepairsMultiSpinePath: in a two-spine Clos with ECMP×2
// uplink bundles, killing a bundle slot on one plane's uplink is repaired by
// reconciliation — the reconciler re-derives the slot shape from the steer's
// per-path hop list, rebuilds the trunk with its lane, and the chain keeps
// delivering across both planes.
func TestReconcileRepairsMultiSpinePath(t *testing.T) {
	c := newCluster(t, ModeVanilla, "s1", "s2", "leaf-a", "leaf-b")
	g := graph.SplitBidirChain(1, []string{"leaf-a", "leaf-b"})
	cd, err := c.Deploy(g, TrunkConfig{
		RatePps: -1, Mode: FabricSpine, Spines: []string{"s1", "s2"}, ECMPWidth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	waitRecv(t, cd, "end1", 1000)

	// A freshly-converged Clos reconciles to zero repairs.
	if n, err := c.ReconcileOnce(); err != nil || n != 0 {
		t.Fatalf("clean fabric reconciled with %d repairs, err %v", n, err)
	}

	if err := c.FailTrunk("leaf-a", "s1", 0); err != nil {
		t.Fatal(err)
	}
	if got := len(c.PairTrunks("leaf-a", "s1")); got != 1 {
		t.Fatalf("uplink bundle has %d live trunks after failure, want 1", got)
	}
	if n := reconcileUntilClean(t, c); n == 0 {
		t.Fatal("reconciler saw nothing to repair after an uplink slot failure")
	}
	trunks := c.PairTrunks("leaf-a", "s1")
	if len(trunks) != 2 {
		t.Fatalf("uplink bundle not rebuilt: %d live trunks, want 2", len(trunks))
	}
	for i, tr := range trunks {
		if tr.LaneCount() != 1 {
			t.Fatalf("repaired slot %d carries %d lanes, want 1", i, tr.LaneCount())
		}
	}
	// The other plane's uplinks were untouched.
	for _, pair := range [][2]string{{"leaf-a", "s2"}, {"leaf-b", "s1"}, {"leaf-b", "s2"}} {
		if got := len(c.PairTrunks(pair[0], pair[1])); got != 2 {
			t.Fatalf("%s–%s bundle disturbed: %d live trunks, want 2", pair[0], pair[1], got)
		}
	}
	base := cd.SrcSink("end1").Received.Load()
	waitRecv(t, cd, "end1", base+1000)
}
