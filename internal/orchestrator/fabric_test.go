package orchestrator

import (
	"slices"
	"testing"
	"time"

	"ovshighway/internal/graph"
	"ovshighway/internal/trunk"
)

// carriedTotal sums a trunk's carried frames over both directions.
func carriedTotal(tr *trunk.Trunk) uint64 {
	ab, ba := tr.Stats()
	return ab.Carried + ba.Carried
}

// TestClusterECMPPathPinningAndRebalance: an ECMP×2 adjacency spreads a
// many-flow chain over both parallel trunks while any single flow sticks to
// one path, and failing one trunk re-pins its flows onto the survivor with
// traffic still flowing — the live-rebalance property.
func TestClusterECMPPathPinningAndRebalance(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	g := graph.SplitBidirChain(1, []string{"a", "b"})
	// Plenty of flows so the hash spreads them across the bundle.
	for i := range g.VNFs {
		switch g.VNFs[i].Name {
		case "end0":
			g.VNFs[i].Args = SrcSinkArgs{Spec: DefaultTrafficSpec(), Flows: 16}
		case "end1":
			spec := DefaultTrafficSpec()
			spec.SrcIP, spec.DstIP = spec.DstIP, spec.SrcIP
			spec.SrcPort, spec.DstPort = spec.DstPort, spec.SrcPort
			g.VNFs[i].Args = SrcSinkArgs{Spec: spec, Flows: 16}
		}
	}
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1, ECMPWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()

	if c.TrunkCount() != 1 {
		t.Fatalf("ECMP bundle counted as %d adjacencies, want 1", c.TrunkCount())
	}
	trunks := c.PairTrunks("a", "b")
	if len(trunks) != 2 {
		t.Fatalf("adjacency has %d parallel trunks, want 2", len(trunks))
	}
	// Both paths carry lanes of the same vid.
	for i, tr := range trunks {
		if tr.LaneCount() != 1 {
			t.Fatalf("parallel trunk %d carries %d lanes, want 1", i, tr.LaneCount())
		}
	}
	waitRecv(t, cd, "end0", 2000)
	waitRecv(t, cd, "end1", 2000)
	// Spreading: with 16 flows per direction, both parallel paths carry
	// traffic (probability of all 32 flows pinning one path ~ 2^-32).
	if carriedTotal(trunks[0]) == 0 || carriedTotal(trunks[1]) == 0 {
		t.Fatalf("flows did not spread over the bundle: %d/%d carried",
			carriedTotal(trunks[0]), carriedTotal(trunks[1]))
	}
	if trunks[0].Unrouted()+trunks[1].Unrouted() != 0 {
		t.Fatal("ECMP bundle dropped unrouted frames")
	}

	// Fail path 0: the survivor must absorb ALL the flows (datapath
	// fall-forward, no rule rewrite) and the chain keeps delivering.
	if err := c.FailTrunk("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	survivor := trunks[1]
	if got := c.PairTrunks("a", "b"); len(got) != 1 || got[0] != survivor {
		t.Fatalf("registry did not shrink to the survivor: %d links", len(got))
	}
	ss := cd.SrcSink("end1")
	base := ss.Received.Load()
	carriedBase := carriedTotal(survivor)
	deadline := time.Now().Add(5 * time.Second)
	for ss.Received.Load() < base+2000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := ss.Received.Load(); got < base+2000 {
		t.Fatalf("chain stalled after trunk failure (%d new packets)", got-base)
	}
	if carriedTotal(survivor) <= carriedBase {
		t.Fatal("surviving trunk carried nothing after rebalance")
	}
	// Re-failing the dead slot is idempotent, not an error.
	if err := c.FailTrunk("a", "b", 0); err != nil {
		t.Fatalf("re-failing an already-dead slot errored: %v", err)
	}
	// Failing the last live path is teardown, not rebalance: refused.
	if err := c.FailTrunk("a", "b", 1); err == nil {
		t.Fatal("failing the last live trunk of an adjacency was accepted")
	}
}

// TestClusterSpineRelay: in spine mode a leaf–leaf crossing rides two
// adjacencies (leaf→spine, spine→leaf) with the spine's vSwitch relaying
// the tagged lane between its trunk ports. Frames re-home pool-to-pool at
// every hop — after teardown all three nodes' pools must be whole, and the
// spine must hold no leftover relay rules.
func TestClusterSpineRelay(t *testing.T) {
	c := newCluster(t, ModeVanilla, "spine", "leaf-a", "leaf-b")
	g := graph.SplitBidirChain(1, []string{"leaf-a", "leaf-b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1, Mode: FabricSpine, Spines: []string{"spine"}})
	if err != nil {
		t.Fatal(err)
	}

	// Two adjacencies, no direct leaf–leaf trunk.
	if c.TrunkCount() != 2 {
		t.Fatalf("spine crossing created %d adjacencies, want 2", c.TrunkCount())
	}
	if c.PairTrunks("leaf-a", "leaf-b") != nil {
		t.Fatal("spine mode created a direct leaf–leaf trunk")
	}
	aSpine := c.PairTrunks("leaf-a", "spine")
	bSpine := c.PairTrunks("leaf-b", "spine")
	if len(aSpine) != 1 || len(bSpine) != 1 {
		t.Fatalf("leaf uplinks: %d/%d trunks, want 1/1", len(aSpine), len(bSpine))
	}
	// One lane, same vid on both hops.
	if aSpine[0].LaneCount() != 1 || bSpine[0].LaneCount() != 1 {
		t.Fatalf("lanes per hop: %d/%d, want 1/1", aSpine[0].LaneCount(), bSpine[0].LaneCount())
	}
	if aSpine[0].Lanes()[0] != bSpine[0].Lanes()[0] {
		t.Fatalf("relayed lane changed vid across hops: %d vs %d",
			aSpine[0].Lanes()[0], bSpine[0].Lanes()[0])
	}
	// The spine relays: rules live on its switch even though it hosts no
	// VNFs of this deployment.
	if cd.Deployment("spine") != nil {
		t.Fatal("spine unexpectedly hosts VNFs")
	}
	if got := c.Node("spine").Switch.Table().Len(); got == 0 {
		t.Fatal("spine holds no relay rules")
	}

	// Traffic flows end to end in both directions, through both hops.
	waitRecv(t, cd, "end0", 2000)
	waitRecv(t, cd, "end1", 2000)
	for name, tr := range map[string]*trunk.Trunk{"a-spine": aSpine[0], "spine-b": bSpine[0]} {
		ab, ba := tr.Stats()
		if ab.Carried == 0 || ba.Carried == 0 {
			t.Fatalf("hop %s idle: %+v/%+v", name, ab, ba)
		}
		if tr.Unrouted() != 0 {
			t.Fatalf("hop %s dropped %d unrouted frames", name, tr.Unrouted())
		}
	}

	cd.Stop()
	if c.TrunkCount() != 0 {
		t.Fatalf("%d adjacencies survive the deployment", c.TrunkCount())
	}
	for _, name := range c.NodeNames() {
		n := c.Node(name)
		if got := n.Switch.Table().Len(); got != 0 {
			t.Fatalf("node %s still has %d flows (relay rules leaked?)", name, got)
		}
		// Every buffer is home: the relay re-homed frames leaf→spine pool
		// and spine→leaf pool, and teardown drained the rest. A frame freed
		// into the wrong pool would have panicked via the ownership guard.
		if n.Pool.Avail() != n.Pool.Cap() {
			t.Fatalf("node %s pool leaked: %d of %d free", name, n.Pool.Avail(), n.Pool.Cap())
		}
		if len(n.Switch.Ports()) != 0 {
			t.Fatalf("node %s still has ports attached", name)
		}
	}
}

// TestClusterSpineEndpointStaysSingleHop: a crossing that touches the spine
// itself needs no relay — one adjacency, no steer-cookie rules anywhere.
func TestClusterSpineEndpointStaysSingleHop(t *testing.T) {
	c := newCluster(t, ModeVanilla, "spine", "leaf-a")
	g := graph.SplitBidirChain(1, []string{"spine", "leaf-a"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1, Mode: FabricSpine, Spines: []string{"spine"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	if c.TrunkCount() != 1 {
		t.Fatalf("spine-endpoint crossing created %d adjacencies, want 1", c.TrunkCount())
	}
	waitRecv(t, cd, "end1", 1000)
}

// TestClusterMultiSpineClos: with Spines listing two relay nodes, a
// leaf–leaf crossing is lowered onto one two-hop path per spine — four
// adjacencies, relay rules on BOTH spines, and the sender's ECMP spreading
// a many-flow chain over both planes. Teardown leaves no rules, ports, or
// buffers behind on any of the four nodes.
func TestClusterMultiSpineClos(t *testing.T) {
	c := newCluster(t, ModeVanilla, "s1", "s2", "leaf-a", "leaf-b")
	g := graph.SplitBidirChain(1, []string{"leaf-a", "leaf-b"})
	for i := range g.VNFs {
		switch g.VNFs[i].Name {
		case "end0":
			g.VNFs[i].Args = SrcSinkArgs{Spec: DefaultTrafficSpec(), Flows: 16}
		case "end1":
			spec := DefaultTrafficSpec()
			spec.SrcIP, spec.DstIP = spec.DstIP, spec.SrcIP
			spec.SrcPort, spec.DstPort = spec.DstPort, spec.SrcPort
			g.VNFs[i].Args = SrcSinkArgs{Spec: spec, Flows: 16}
		}
	}
	cd, err := c.Deploy(g, TrunkConfig{
		RatePps: -1, Mode: FabricSpine, Spines: []string{"s1", "s2"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// One leaf→spine→leaf path per spine: four adjacencies, no direct link.
	if c.TrunkCount() != 4 {
		t.Fatalf("2-spine crossing created %d adjacencies, want 4", c.TrunkCount())
	}
	if c.PairTrunks("leaf-a", "leaf-b") != nil {
		t.Fatal("multi-spine mode created a direct leaf–leaf trunk")
	}
	hops := map[string][]*trunk.Trunk{}
	for _, spine := range []string{"s1", "s2"} {
		for _, leaf := range []string{"leaf-a", "leaf-b"} {
			trs := c.PairTrunks(leaf, spine)
			if len(trs) != 1 {
				t.Fatalf("%s–%s: %d trunks, want 1", leaf, spine, len(trs))
			}
			hops[leaf+"/"+spine] = trs
		}
		// Both planes relay: steer rules live on each spine's switch even
		// though neither hosts VNFs.
		if cd.Deployment(spine) != nil {
			t.Fatalf("spine %s unexpectedly hosts VNFs", spine)
		}
		if c.Node(spine).Switch.Table().Len() == 0 {
			t.Fatalf("spine %s holds no relay rules", spine)
		}
	}
	// The lane keeps one vid across every hop of every path.
	vid := hops["leaf-a/s1"][0].Lanes()[0]
	for name, trs := range hops {
		if trs[0].LaneCount() != 1 || trs[0].Lanes()[0] != vid {
			t.Fatalf("hop %s lanes %v, want the single vid %d", name, trs[0].Lanes(), vid)
		}
	}

	waitRecv(t, cd, "end0", 2000)
	waitRecv(t, cd, "end1", 2000)
	// Spreading: 16 flows per direction hash across the two planes, so both
	// spines' uplinks carry traffic and nothing is unrouted.
	for name, trs := range hops {
		if carriedTotal(trs[0]) == 0 {
			t.Fatalf("plane idle: hop %s carried nothing", name)
		}
		if trs[0].Unrouted() != 0 {
			t.Fatalf("hop %s dropped %d unrouted frames", name, trs[0].Unrouted())
		}
	}

	cd.Stop()
	if c.TrunkCount() != 0 {
		t.Fatalf("%d adjacencies survive the deployment", c.TrunkCount())
	}
	for _, name := range c.NodeNames() {
		n := c.Node(name)
		if got := n.Switch.Table().Len(); got != 0 {
			t.Fatalf("node %s still has %d flows (relay rules leaked?)", name, got)
		}
		if n.Pool.Avail() != n.Pool.Cap() {
			t.Fatalf("node %s pool leaked: %d of %d free", name, n.Pool.Avail(), n.Pool.Cap())
		}
		if len(n.Switch.Ports()) != 0 {
			t.Fatalf("node %s still has ports attached", name)
		}
	}
}

// TestClusterMultiSpineEndpointStaysDirect: a crossing that touches one of
// the spines needs no relay — a single direct adjacency, exactly like the
// one-spine rule.
func TestClusterMultiSpineEndpointStaysDirect(t *testing.T) {
	c := newCluster(t, ModeVanilla, "s1", "s2", "leaf-a")
	g := graph.SplitBidirChain(1, []string{"s1", "leaf-a"})
	cd, err := c.Deploy(g, TrunkConfig{
		RatePps: -1, Mode: FabricSpine, Spines: []string{"s1", "s2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	if c.TrunkCount() != 1 {
		t.Fatalf("spine-endpoint crossing created %d adjacencies, want 1", c.TrunkCount())
	}
	waitRecv(t, cd, "end1", 1000)
}

// TestRealizeLane drives the one lane-realize walk through its four jobs:
// a fresh lane, the idempotent second call, in-place repair of a failed
// bundle slot with the lane re-registered, and a mid-path failure that
// leaves nothing behind once the half-realized steer is released.
func TestRealizeLane(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b", "s")
	realize := func(st *laneSteer, spines []string, tcfg TrunkConfig) (int, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.realizeLane(st, spines, tcfg)
	}
	lanesOn := func(a, b string) (lanes []int) {
		for _, tr := range c.PairTrunks(a, b) {
			lanes = append(lanes, tr.LaneCount())
		}
		return lanes
	}
	mesh := TrunkConfig{RatePps: -1, ECMPWidth: 2}

	// Fresh: vid allocated, adjacency created, lane on both bundle slots.
	direct := laneSteer{ce: graph.CrossEdge{NodeA: "s", NodeB: "b"}}
	if n, err := realize(&direct, nil, mesh); err != nil || n == 0 {
		t.Fatalf("fresh lane: %d repairs, err %v; want some and none", n, err)
	}
	if direct.vid == 0 || len(direct.paths) != 1 || !slices.Equal(lanesOn("s", "b"), []int{1, 1}) {
		t.Fatalf("fresh lane: vid %d, paths %v, lanes per slot %v", direct.vid, direct.paths, lanesOn("s", "b"))
	}
	// Again: nothing to do.
	if n, err := realize(&direct, nil, mesh); err != nil || n != 0 {
		t.Fatalf("second call: %d repairs, err %v; want 0 and none", n, err)
	}
	// A failed slot is rebuilt in place and carries the lane again.
	if err := c.FailTrunk("s", "b", 0); err != nil {
		t.Fatal(err)
	}
	if got := lanesOn("s", "b"); len(got) != 1 {
		t.Fatalf("after FailTrunk the bundle has %d live slots, want 1", len(got))
	}
	if n, err := realize(&direct, nil, mesh); err != nil || n != 1 {
		t.Fatalf("repair: %d repairs, err %v; want 1 and none", n, err)
	}
	if got := lanesOn("s", "b"); !slices.Equal(got, []int{1, 1}) {
		t.Fatalf("rebuilt bundle carries lanes %v per slot, want [1 1]", got)
	}

	// A leaf–leaf lane through spine s needs a–s then s–b, and s–b exists
	// with another config: the second hop fails after the first registered.
	spine := TrunkConfig{RatePps: -1, Mode: FabricSpine, Spines: []string{"s"}}
	relayed := laneSteer{ce: graph.CrossEdge{NodeA: "a", NodeB: "b"}}
	if _, err := realize(&relayed, spine.Spines, spine); err == nil {
		t.Fatal("joining s–b with a different trunk config was accepted")
	}
	if relayed.vid == 0 || relayed.vid == direct.vid || !slices.Equal(lanesOn("a", "s"), []int{1}) {
		t.Fatalf("half-realized steer: vid %d (direct lane has %d), a–s lanes %v", relayed.vid, direct.vid, lanesOn("a", "s"))
	}
	c.releaseSteers([]laneSteer{relayed})
	c.mu.Lock()
	vidLive := c.vids[relayed.vid]
	c.mu.Unlock()
	if vidLive || c.PairTrunks("a", "s") != nil || !slices.Equal(lanesOn("s", "b"), []int{1, 1}) {
		t.Fatalf("after release: vid %d allocated=%v, a–s trunks %v, s–b lanes %v; want freed, none, [1 1]",
			relayed.vid, vidLive, c.PairTrunks("a", "s"), lanesOn("s", "b"))
	}
	c.releaseSteers([]laneSteer{direct})
	if c.TrunkCount() != 0 {
		t.Fatalf("%d adjacencies survive their last lane", c.TrunkCount())
	}
}
