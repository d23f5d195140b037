package highway

import (
	"testing"
	"time"
)

// TestChaosSoakReconciler runs the full self-healing story end to end: a
// 3-node highway cluster with an ECMP×2 fabric carries a live split chain
// while faults are injected in a loop — trunks killed, steering rules
// wiped, vSwitches restarted — and the background reconciler alone must
// keep bringing the cluster back to full throughput, bypasses included,
// with no manual redeploy. Run under -race in CI.
func TestChaosSoakReconciler(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	nodes := []string{"node-a", "node-b", "node-c"}
	cluster, err := StartCluster(ClusterConfig{
		Config: Config{Mode: ModeHighway, PoolSize: 4096},
		Nodes:  nodes,
		Fabric: FabricConfig{ECMPWidth: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	chain, err := cluster.DeploySplitChain(6, nodes, ChainOptions{Flows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Stop()
	if !cluster.WaitBypasses(chain.ExpectedBypasses()) {
		t.Fatalf("initial bypasses not established (%d live)", cluster.BypassCount())
	}
	// Progress probe: both ends together must deliver `want` more packets
	// within the deadline. Fixed-window rate measurements are too flaky
	// under the race detector's scheduling; absolute progress is not.
	received := chain.Received
	waitProgress := func(want uint64) bool {
		start := received()
		deadline := time.Now().Add(5 * time.Second)
		for received() < start+want && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		return received() >= start+want
	}
	if !waitProgress(2000) {
		t.Fatal("chain carries no traffic before chaos")
	}
	base := chain.MeasureMpps(300 * time.Millisecond)

	r := cluster.StartReconciler(2 * time.Millisecond)
	defer r.Stop()

	mid := nodes[1]
	faults := []struct {
		name   string
		inject func() error
	}{
		{"fail-trunk-ab0", func() error { return cluster.FailTrunk(nodes[0], mid, 0) }},
		{"wipe-rules-mid", func() error { _, err := cluster.WipeRules(mid); return err }},
		{"restart-mid", func() error { return cluster.RestartVSwitch(mid) }},
		{"fail-trunk-bc1", func() error { return cluster.FailTrunk(mid, nodes[2], 1) }},
		{"wipe-rules-a", func() error { _, err := cluster.WipeRules(nodes[0]); return err }},
		{"restart-a", func() error { return cluster.RestartVSwitch(nodes[0]) }},
	}
	for round := 0; round < 2; round++ {
		for _, f := range faults {
			if err := f.inject(); err != nil {
				t.Fatalf("round %d: inject %s: %v", round, f.name, err)
			}
			// The reconciler must restore the rules and fabric; the detector
			// then re-establishes any bypasses the fault tore down.
			if !cluster.WaitBypasses(chain.ExpectedBypasses()) {
				st := r.Stats()
				t.Fatalf("round %d: %s: bypasses not restored (%d live, want %d; reconciler passes=%d repairs=%d errors=%d)",
					round, f.name, cluster.BypassCount(), chain.ExpectedBypasses(),
					st.Passes, st.Repairs, st.Errors)
			}
			// Traffic must actually move again end to end.
			if !waitProgress(1000) {
				t.Fatalf("round %d: %s: chain dead after repair", round, f.name)
			}
		}
	}

	st := r.Stats()
	if st.Repairs == 0 {
		t.Fatal("reconciler repaired nothing across the whole chaos run")
	}
	if st.Errors != 0 {
		t.Fatalf("reconciler recorded %d errors", st.Errors)
	}
	// Full recovery: a healthy measurement window after the chaos ends. The
	// bar is deliberately loose (half of baseline) — the point is "repaired
	// to real throughput", not a performance assertion on a loaded host.
	time.Sleep(200 * time.Millisecond)
	final := chain.MeasureMpps(300 * time.Millisecond)
	if final == 0 {
		t.Fatal("no throughput after chaos ended")
	}
	// The ratio bar only holds without the race detector: its scheduler
	// perturbs fixed-window rates by far more than the 2× slack.
	if !raceEnabled && base > 0 && final < base/2 {
		t.Fatalf("throughput did not recover: %.3f Mpps vs %.3f baseline", final, base)
	}
}

// TestChaosSoakRebalancer runs the placement controller and the reconciler
// together under fault injection: a deliberately skewed split chain carries
// paced traffic while trunks are killed, rules wiped, and a vSwitch
// restarted. The rebalancer must converge the layout (fewer crossings) with
// at most one migration in flight, defer around unrepaired faults instead
// of erroring, and never race the reconciler. Run under -race in CI.
func TestChaosSoakRebalancer(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	nodes := []string{"node-a", "node-b", "node-c"}
	cluster, err := StartCluster(ClusterConfig{
		Config:    Config{Mode: ModeHighway, PoolSize: 4096},
		Nodes:     nodes,
		Fabric:    FabricConfig{ECMPWidth: 2},
		TrunkRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	chain, err := cluster.DeploySplitChain(6, nodes, ChainOptions{Flows: 4, RatePps: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Stop()
	if !cluster.WaitBypasses(chain.ExpectedBypasses()) {
		t.Fatalf("initial bypasses not established (%d live)", cluster.BypassCount())
	}
	received := chain.Received
	waitProgress := func(want uint64) bool {
		start := received()
		deadline := time.Now().Add(5 * time.Second)
		for received() < start+want && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		return received() >= start+want
	}
	if !waitProgress(2000) {
		t.Fatal("chain carries no traffic before chaos")
	}

	// Skew the layout by hand: two middles swapped across the fabric. The
	// contiguous deploy has 2 crossings; this drifted layout has 4 — the
	// drift a long-running cluster accumulates and the controller exists to
	// repair. (The controller keeps moving VNFs from here on, so the
	// rest of the test probes progress and crossings, not bypass counts.)
	for _, mv := range []struct{ vnf, to string }{
		{"vnf2", nodes[2]},
		{"vnf5", nodes[0]},
	} {
		if _, err := chain.Deployment().Migrate(mv.vnf, mv.to); err != nil {
			t.Fatalf("skew migrate %s→%s: %v", mv.vnf, mv.to, err)
		}
	}
	crossBefore := chain.Deployment().Crossings()
	if crossBefore < 4 {
		t.Fatalf("skew setup produced only %d crossings", crossBefore)
	}

	rec := cluster.StartReconciler(2 * time.Millisecond)
	defer rec.Stop()
	reb := cluster.StartRebalancer(RebalanceConfig{
		Interval: 15 * time.Millisecond,
		Cooldown: 250 * time.Millisecond,
	})
	defer reb.Stop()

	mid := nodes[1]
	faults := []struct {
		name   string
		inject func() error
	}{
		{"fail-trunk-ab0", func() error { return cluster.FailTrunk(nodes[0], mid, 0) }},
		{"wipe-rules-mid", func() error { _, err := cluster.WipeRules(mid); return err }},
		{"restart-mid", func() error { return cluster.RestartVSwitch(mid) }},
	}
	for round := 0; round < 2; round++ {
		for _, f := range faults {
			if err := f.inject(); err != nil {
				t.Fatalf("round %d: inject %s: %v", round, f.name, err)
			}
			// The reconciler repairs; the rebalancer keeps (or resumes)
			// converging around the fault. Traffic must keep moving.
			if !waitProgress(1000) {
				t.Fatalf("round %d: %s: chain dead after repair", round, f.name)
			}
		}
	}

	// Convergence: with the chaos over, the controller must have reduced the
	// drifted layout's crossings. Poll — moves still cooling down may land
	// shortly after the last fault round.
	deadline := time.Now().Add(10 * time.Second)
	crossAfter := chain.Deployment().Crossings()
	for crossAfter >= crossBefore && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		crossAfter = chain.Deployment().Crossings()
	}
	if crossAfter >= crossBefore {
		st := reb.Stats()
		t.Fatalf("rebalancer never converged the skewed layout: %d → %d crossings (passes=%d deferred=%d damped=%d moves=%d errors=%d)",
			crossBefore, crossAfter, st.Passes, st.Deferred, st.Damped, st.Moves, st.Errors)
	}

	st := reb.Stats()
	if st.Moves == 0 {
		t.Fatal("rebalancer moved nothing across the whole chaos run")
	}
	if st.MaxInFlight > 1 {
		t.Fatalf("rebalancer ran %d migrations concurrently, want at most 1", st.MaxInFlight)
	}
	if st.Errors != 0 {
		t.Fatalf("rebalancer recorded %d errors", st.Errors)
	}
	if rs := rec.Stats(); rs.Errors != 0 {
		t.Fatalf("reconciler recorded %d errors", rs.Errors)
	}
	if !waitProgress(2000) {
		t.Fatal("chain dead after chaos ended")
	}
}

// TestMigrateZeroLossPublicAPI drives a live migration through the public
// highway API under paced traffic and asserts the conservation ledger:
// pausing and settling before and after, the in-flight delta must be zero.
func TestMigrateZeroLossPublicAPI(t *testing.T) {
	nodes := []string{"node-a", "node-b", "node-c"}
	cluster, err := StartCluster(ClusterConfig{
		Config:    Config{Mode: ModeHighway, PoolSize: 4096},
		Nodes:     nodes,
		TrunkRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	chain, err := cluster.DeploySplitChain(4, nodes[:2], ChainOptions{Flows: 4, RatePps: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Stop()
	if !cluster.WaitBypasses(chain.ExpectedBypasses()) {
		t.Fatalf("bypasses not established (%d live)", cluster.BypassCount())
	}

	var rep MigrateReport
	lost, err := chain.LostAcross(func() (err error) {
		rep, err = chain.Deployment().Migrate("vnf2", nodes[2])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained {
		t.Errorf("paced migration should drain before the deadline: %+v", rep)
	}
	if lost != 0 {
		t.Fatalf("migration lost %d packets", lost)
	}
	// The migrated layout keeps flowing and reconciles clean.
	start := chain.Received()
	deadline := time.Now().Add(5 * time.Second)
	alive := func() uint64 { return chain.Received() - start }
	for alive() < 1000 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if alive() < 1000 {
		t.Fatal("chain dead after migration")
	}
	if n, err := cluster.ReconcileOnce(); err != nil || n != 0 {
		t.Fatalf("post-migration reconcile: %d repairs, err %v", n, err)
	}
}

// TestChaosStatefulConntrack puts the stateful NAT44→ACL→balancer chain
// under the same faults the reconciler soak uses — steering rules wiped,
// vSwitches restarted — and requires the connection state to ride through:
// conntrack tables live on the Switch (not in the per-PMD caches a restart
// discards) and rules are reconciled, so established connections must keep
// translating on their original NAT bindings. A reset would show up as
// fresh port allocations; a lost table as unsolicited-inbound drops.
func TestChaosStatefulConntrack(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	nodes := []string{"node-a", "node-b"}
	cluster, err := StartCluster(ClusterConfig{
		Config: Config{Mode: ModeHighway, PoolSize: 4096},
		Nodes:  nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	sc, _, err := cluster.DeployStatefulChain(StatefulChainOptions{
		Flows: 32, RatePps: 20_000, Backends: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	waitProgress := func(want uint64) bool {
		start := sc.Received()
		deadline := time.Now().Add(5 * time.Second)
		for sc.Received() < start+want && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		return sc.Received() >= start+want
	}
	if !waitProgress(2000) {
		t.Fatal("chain carries no traffic before chaos")
	}
	// All 32 connections established: the binding census must not move for
	// the rest of the test — any growth means a connection was reset and
	// had to re-establish through a fresh NAT binding.
	bound := sc.NAT().Bound.Load()
	if bound != 32 {
		t.Fatalf("NAT established %d bindings before chaos, want 32", bound)
	}
	pinned := sc.Balancer().NewConns.Load()

	r := cluster.StartReconciler(2 * time.Millisecond)
	defer r.Stop()

	faults := []struct {
		name   string
		inject func() error
	}{
		{"wipe-rules-a", func() error { _, err := cluster.WipeRules(nodes[0]); return err }},
		{"restart-a", func() error { return cluster.RestartVSwitch(nodes[0]) }},
		{"wipe-rules-b", func() error { _, err := cluster.WipeRules(nodes[1]); return err }},
		{"restart-b", func() error { return cluster.RestartVSwitch(nodes[1]) }},
	}
	for round := 0; round < 2; round++ {
		for _, f := range faults {
			if err := f.inject(); err != nil {
				t.Fatalf("round %d: inject %s: %v", round, f.name, err)
			}
			if !waitProgress(1000) {
				st := r.Stats()
				t.Fatalf("round %d: %s: chain dead after repair (reconciler passes=%d repairs=%d errors=%d)",
					round, f.name, st.Passes, st.Repairs, st.Errors)
			}
		}
	}

	st := r.Stats()
	if st.Errors != 0 {
		t.Fatalf("reconciler recorded %d errors", st.Errors)
	}
	if st.Repairs == 0 {
		t.Fatal("reconciler repaired nothing across the whole chaos run")
	}
	if got := sc.NAT().Bound.Load(); got != bound {
		t.Fatalf("connections reset: NAT bindings grew %d → %d across chaos", bound, got)
	}
	if got := sc.NAT().Unsolicit.Load(); got != 0 {
		t.Fatalf("conntrack state lost: %d inbound packets arrived unsolicited", got)
	}
	if got := sc.Balancer().NewConns.Load(); got != pinned {
		t.Fatalf("balancer re-pinned connections %d → %d: conntrack state lost", pinned, got)
	}
	if got := sc.Balancer().NoState.Load(); got != 0 {
		t.Fatalf("balancer dropped %d reply packets for missing state", got)
	}
}
