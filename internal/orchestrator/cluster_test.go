package orchestrator

import (
	"testing"
	"time"

	"ovshighway/internal/graph"
)

func newCluster(t *testing.T, mode Mode, names ...string) *Cluster {
	t.Helper()
	c, err := NewCluster(names, NodeConfig{
		Mode:     mode,
		PoolSize: 4096,
		RingSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// waitRecv polls until the named srcsink endpoint has received want packets.
func waitRecv(t *testing.T, cd *ClusterDeployment, name string, want uint64) {
	t.Helper()
	ss := cd.SrcSink(name)
	if ss == nil {
		t.Fatalf("endpoint %s not deployed", name)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ss.Received.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := ss.Received.Load(); got < want {
		t.Fatalf("%s received only %d of %d packets", name, got, want)
	}
}

// pauseEnds gates generation on the named srcsink endpoints.
func pauseEnds(cd *ClusterDeployment, paused bool, names ...string) {
	for _, name := range names {
		cd.SrcSink(name).SetPaused(paused)
	}
}

// settleEnds pauses the named srcsink endpoints and waits for their combined
// ledger to go quiet — 8 identical observations 5 ms apart, the window of
// highway.Ledger.Settle: a packet parked behind a stalled goroutine (the
// race detector deschedules aggressively) moves no counter for several
// milliseconds — then returns sent − received. The endpoints stay paused.
func settleEnds(cd *ClusterDeployment, names ...string) int64 {
	pauseEnds(cd, true, names...)
	read := func() (moved uint64, inFlight int64) {
		for _, name := range names {
			ss := cd.SrcSink(name)
			moved += ss.Sent.Load() + ss.Received.Load()
			inFlight += ss.InFlight()
		}
		return moved, inFlight
	}
	deadline := time.Now().Add(2 * time.Second)
	prev, _ := read()
	for stable := 0; stable < 8 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if cur, _ := read(); cur == prev {
			stable++
		} else {
			stable, prev = 0, cur
		}
	}
	_, inFlight := read()
	return inFlight
}

// renamed returns a deep-enough copy of g with every VNF (and edge
// endpoint) name prefixed, so two instances can share a cluster.
func renamed(g *graph.Graph, prefix string) *graph.Graph {
	out := &graph.Graph{
		VNFs:  append([]graph.VNF(nil), g.VNFs...),
		Edges: append([]graph.Edge(nil), g.Edges...),
	}
	for i := range out.VNFs {
		out.VNFs[i].Name = prefix + out.VNFs[i].Name
	}
	for i := range out.Edges {
		if out.Edges[i].A.Kind == graph.EpVNF {
			out.Edges[i].A.Name = prefix + out.Edges[i].A.Name
		}
		if out.Edges[i].B.Kind == graph.EpVNF {
			out.Edges[i].B.Name = prefix + out.Edges[i].B.Name
		}
	}
	return out
}

func TestClusterSplitChainVanillaTrafficCrossesTrunk(t *testing.T) {
	c := newCluster(t, ModeVanilla, "node-a", "node-b")
	// 3 VMs (end0, vnf1, end1) split 2+1: the vnf1↔end1 hop crosses.
	g := graph.SplitBidirChain(1, []string{"node-a", "node-b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()

	if len(cd.Trunks()) != 1 || c.TrunkCount() != 1 {
		t.Fatalf("deployment rides %d trunks (cluster has %d), want 1", len(cd.Trunks()), c.TrunkCount())
	}
	tr := cd.Trunks()[0]
	if tr.LaneCount() != 1 {
		t.Fatalf("trunk carries %d lanes, want 1", tr.LaneCount())
	}
	// Both directions must deliver across the node boundary.
	waitRecv(t, cd, "end0", 2000)
	waitRecv(t, cd, "end1", 2000)
	ab, ba := tr.Stats()
	if ab.Carried == 0 || ba.Carried == 0 {
		t.Fatalf("trunk carried %d/%d frames, both directions must flow", ab.Carried, ba.Carried)
	}
	// The single lane accounts for the whole trunk. Under live traffic the
	// trunk total leads the lane's by up to a burst, so compare once the
	// chain has drained.
	settleEnds(cd, "end0", "end1")
	vid := tr.Lanes()[0]
	ab, ba = tr.Stats()
	if lab, lba, ok := tr.LaneStats(vid); !ok || lab.Carried != ab.Carried || lba.Carried != ba.Carried {
		t.Fatalf("lane %d stats %+v/%+v do not match trunk %+v/%+v", vid, lab, lba, ab, ba)
	}
	if tr.Unrouted() != 0 {
		t.Fatalf("trunk dropped %d unrouted frames", tr.Unrouted())
	}
	if c.BypassLinkCount() != 0 {
		t.Fatal("vanilla cluster created bypasses")
	}
	// The partitions landed where placement said.
	if cd.Deployment("node-a") == nil || cd.Deployment("node-b") == nil {
		t.Fatal("missing per-node deployment")
	}
	if cd.Deployment("node-a").SrcSink("end0") == nil {
		t.Fatal("end0 not on node-a")
	}
	if cd.Deployment("node-b").SrcSink("end1") == nil {
		t.Fatal("end1 not on node-b")
	}
}

func TestClusterSplitChainHighwayBypassesIntraNodeHops(t *testing.T) {
	c := newCluster(t, ModeHighway, "node-a", "node-b")
	// 5 VMs (end0, vnf1..vnf3, end1) split 3+2: intra-node hops are
	// end0↔vnf1, vnf1↔vnf2 on node-a and vnf3↔end1 on node-b = 3 hops ⇒ 6
	// directed bypasses. The vnf2↔vnf3 trunk hop must stay on the NIC path.
	g := graph.SplitBidirChain(3, []string{"node-a", "node-b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()

	if !c.WaitBypassCount(6) {
		t.Fatalf("cluster bypasses = %d, want 6", c.BypassLinkCount())
	}
	// Per node: 2 hops on node-a, 1 hop on node-b.
	if got := c.Node("node-a").Switch.BypassLinkCount(); got != 4 {
		t.Fatalf("node-a bypasses = %d, want 4", got)
	}
	if got := c.Node("node-b").Switch.BypassLinkCount(); got != 2 {
		t.Fatalf("node-b bypasses = %d, want 2", got)
	}
	waitRecv(t, cd, "end0", 2000)
	waitRecv(t, cd, "end1", 2000)
	ab, ba := cd.Trunks()[0].Stats()
	if ab.Carried == 0 || ba.Carried == 0 {
		t.Fatalf("trunk carried %d/%d frames, the inter-node hop cannot bypass", ab.Carried, ba.Carried)
	}
}

// TestClusterSharedTrunkMultipleLanes is the headline fabric property: a
// deployment with k crossings between one node pair gets exactly one trunk
// carrying k distinct VLAN lanes, all flowing concurrently.
func TestClusterSharedTrunkMultipleLanes(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	// Two disjoint split chains in ONE graph: 2 crossings, same node pair.
	g := graph.SplitBidirChain(1, []string{"a", "b"})
	g2 := renamed(graph.SplitBidirChain(1, []string{"a", "b"}), "t2-")
	g.VNFs = append(g.VNFs, g2.VNFs...)
	g.Edges = append(g.Edges, g2.Edges...)

	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()

	if c.TrunkCount() != 1 {
		t.Fatalf("cluster created %d trunks, want exactly 1 per node pair", c.TrunkCount())
	}
	tr := cd.Trunks()[0]
	if got := tr.LaneCount(); got != 2 {
		t.Fatalf("trunk carries %d lanes, want 2 (one per crossing)", got)
	}
	lanes := cd.Lanes()
	if len(lanes) != 2 || lanes[0].VID == lanes[1].VID {
		t.Fatalf("lane vids not distinct: %+v", lanes)
	}
	// Both tenant chains flow across their own lane.
	waitRecv(t, cd, "end1", 2000)
	waitRecv(t, cd, "t2-end1", 2000)
	for _, vid := range tr.Lanes() {
		ab, ba, ok := tr.LaneStats(vid)
		if !ok || ab.Carried == 0 || ba.Carried == 0 {
			t.Fatalf("lane %d idle: %+v/%+v", vid, ab, ba)
		}
	}
	if tr.Unrouted() != 0 {
		t.Fatalf("trunk dropped %d unrouted frames", tr.Unrouted())
	}
}

func TestClusterDeploymentStopReclaimsEverything(t *testing.T) {
	c := newCluster(t, ModeHighway, "a", "b")
	g := graph.SplitBidirChain(2, []string{"a", "b"})
	cd, err := c.Deploy(g, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitRecv(t, cd, "end1", 1000)
	cd.Stop()

	if c.TrunkCount() != 0 {
		t.Fatalf("%d trunks survive their last lane", c.TrunkCount())
	}
	// The shared trunk poller dies with the last trunk: a trunk-less
	// cluster must be back to zero idle wakeups (and a later Deploy below
	// lazily recreates it).
	c.mu.Lock()
	pollerAlive := c.poller != nil
	c.mu.Unlock()
	if pollerAlive {
		t.Fatal("trunk poller survives the last trunk")
	}
	for _, name := range c.NodeNames() {
		n := c.Node(name)
		if got := n.Switch.Table().Len(); got != 0 {
			t.Fatalf("node %s still has %d flows", name, got)
		}
		if got := n.Switch.BypassLinkCount(); got != 0 {
			t.Fatalf("node %s still has %d bypasses", name, got)
		}
		if len(n.Switch.Ports()) != 0 {
			t.Fatalf("node %s still has ports %v", name, n.Switch.Ports())
		}
		// Every packet buffer must be home: VNFs, trunks and NIC queues all
		// drained.
		if n.Pool.Avail() != n.Pool.Cap() {
			t.Fatalf("node %s pool leaked: %d of %d free", name, n.Pool.Avail(), n.Pool.Cap())
		}
	}
	// The cluster survives a second deployment on the same nodes.
	cd2, err := c.Deploy(graph.SplitBidirChain(1, []string{"a", "b"}), TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitRecv(t, cd2, "end1", 1000)
	cd2.Stop()
}

func TestClusterRejectsConflictingTrunkConfig(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	cd, err := c.Deploy(graph.SplitBidirChain(1, []string{"a", "b"}), TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	// A trunk is shared infrastructure: joining it with different shaping
	// must fail loudly instead of silently riding the existing config.
	g2 := renamed(graph.SplitBidirChain(1, []string{"a", "b"}), "g2-")
	if _, err := c.Deploy(g2, TrunkConfig{RatePps: 1000, Latency: time.Millisecond}); err == nil {
		t.Fatal("conflicting trunk config accepted")
	}
	// The failed deployment must not have leaked a lane.
	if tr := cd.Trunks()[0]; tr.LaneCount() != 1 {
		t.Fatalf("failed deploy leaked lanes: %d", tr.LaneCount())
	}
	// Same config still joins fine.
	cd2, err := c.Deploy(g2, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	cd2.Stop()
}

func TestClusterRejectsUnknownPlacement(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	g := graph.SplitBidirChain(1, []string{"a", "elsewhere"})
	if _, err := c.Deploy(g, TrunkConfig{}); err == nil {
		t.Fatal("placement on unknown node accepted")
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, NodeConfig{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := NewCluster([]string{"a", "a"}, NodeConfig{}); err == nil {
		t.Fatal("duplicate node names accepted")
	}
	if _, err := NewCluster([]string{""}, NodeConfig{}); err == nil {
		t.Fatal("empty node name accepted")
	}
}

// TestClusterCoResidentDeploymentsShareTrunk: two deployments land lanes on
// the SAME trunk; tearing one down leaves the other's lane flowing and the
// trunk alive until its last lane dies.
func TestClusterCoResidentDeploymentsShareTrunk(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	cd1, err := c.Deploy(graph.SplitBidirChain(1, []string{"a", "b"}), TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	cd2, err := c.Deploy(renamed(graph.SplitBidirChain(1, []string{"a", "b"}), "g2-"), TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatalf("second concurrent deployment: %v", err)
	}
	if c.TrunkCount() != 1 {
		t.Fatalf("co-resident deployments created %d trunks, want 1 shared", c.TrunkCount())
	}
	tr := cd1.Trunks()[0]
	if tr.LaneCount() != 2 {
		t.Fatalf("shared trunk carries %d lanes, want 2", tr.LaneCount())
	}
	waitRecv(t, cd1, "end1", 1000)
	waitRecv(t, cd2, "g2-end1", 1000)
	// Tearing the first down must not touch the second's lane.
	cd1.Stop()
	if c.TrunkCount() != 1 || tr.LaneCount() != 1 {
		t.Fatalf("trunk state after partial teardown: %d trunks, %d lanes (want 1/1)",
			c.TrunkCount(), tr.LaneCount())
	}
	ss := cd2.SrcSink("g2-end1")
	base := ss.Received.Load()
	deadline := time.Now().Add(5 * time.Second)
	for ss.Received.Load() < base+1000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := ss.Received.Load(); got < base+1000 {
		t.Fatalf("second deployment stalled after first's teardown (%d new packets)", got-base)
	}
	cd2.Stop()
	if c.TrunkCount() != 0 {
		t.Fatalf("trunk survives its last lane")
	}
	for _, name := range c.NodeNames() {
		n := c.Node(name)
		if n.Pool.Avail() != n.Pool.Cap() {
			t.Fatalf("node %s pool leaked: %d of %d free", name, n.Pool.Avail(), n.Pool.Cap())
		}
		if len(n.Switch.Ports()) != 0 {
			t.Fatalf("node %s still has ports attached", name)
		}
	}
}

// TestClusterDeployPlaced exercises the auto-placement path: two disjoint
// tenant chains with interleaved VNF order fit one per node, so the
// optimizer should deploy them with zero crossings — and zero trunks.
func TestClusterDeployPlaced(t *testing.T) {
	c := newCluster(t, ModeVanilla, "a", "b")
	g := graph.BidirChain(2)
	g2 := renamed(graph.BidirChain(2), "t2-")
	// Interleave so the contiguous baseline would cut both chains.
	merged := &graph.Graph{}
	for i := range g.VNFs {
		merged.VNFs = append(merged.VNFs, g.VNFs[i], g2.VNFs[i])
	}
	merged.Edges = append(append([]graph.Edge(nil), g.Edges...), g2.Edges...)

	cd, crossings, err := c.DeployPlaced(merged, TrunkConfig{RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	if crossings != 0 {
		t.Fatalf("optimizer settled on %d crossings, want 0", crossings)
	}
	if c.TrunkCount() != 0 {
		t.Fatalf("crossing-free placement still created %d trunks", c.TrunkCount())
	}
	waitRecv(t, cd, "end1", 1000)
	waitRecv(t, cd, "t2-end1", 1000)
}
