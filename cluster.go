package highway

import (
	"fmt"
	"time"

	"ovshighway/internal/flow"
	"ovshighway/internal/graph"
	"ovshighway/internal/orchestrator"
	"ovshighway/internal/pkt"
	"ovshighway/internal/vnf"
)

// FabricMode selects the cluster's switched-core topology.
type FabricMode = orchestrator.FabricMode

// Fabric modes.
const (
	// FabricMesh joins every communicating node pair directly (default).
	FabricMesh = orchestrator.FabricMesh
	// FabricSpine relays leaf–leaf lanes through a designated spine node.
	FabricSpine = orchestrator.FabricSpine
)

// FabricConfig shapes the switched core joining the cluster's nodes.
type FabricConfig struct {
	// Mode selects mesh (direct adjacencies) or leaf–spine (lanes between
	// leaves relay through the spine's vSwitch).
	Mode FabricMode
	// Spines names the relay nodes of a spine-mode Clos core: each leaf–leaf
	// lane gets one two-hop path per spine and the sender's ECMP spreads
	// flows across all of them. Empty means the cluster's first node.
	Spines []string
	// ECMPWidth is the number of parallel trunks per adjacency (default 1).
	// Flows are pinned to one trunk of the bundle by their (lane, Hash2)
	// hash, repicked off congested paths at flowlet boundaries, and re-pin
	// live onto survivors when a trunk dies.
	ECMPWidth int
	// StagingCap bounds each trunk direction's per-PCP staging queue
	// (default 256). Shallower queues surface congestion faster; deeper
	// ones absorb bigger bursts before dropping.
	StagingCap int
	// PCPWeights are the per-802.1Q-priority deficit-round-robin weights
	// every trunk schedules its shared rate budget by (0 = weight 1). A
	// crossing edge's graph.Edge.PCP selects its class.
	PCPWeights [8]float64
}

// ClusterConfig parametrizes StartCluster. The embedded Config applies to
// every node (OpenFlowAddr is per-node state and is ignored here).
type ClusterConfig struct {
	Config
	// Nodes names the compute nodes, in placement order; the first is the
	// default target for unplaced VNFs. Default: {"node0", "node1"}.
	Nodes []string
	// TrunkRate caps each direction of every node-pair trunk, SHARED by all
	// VLAN lanes riding it (0 = 10G line rate for 64B frames, negative =
	// unlimited). This models the contended ToR uplink: k crossings between
	// two nodes split one budget instead of getting k private wires. With
	// Fabric.ECMPWidth > 1 the cap is per parallel trunk.
	TrunkRate float64
	// WireLatency adds per-direction propagation delay on the trunks.
	WireLatency time.Duration
	// Fabric selects the switched-core topology, ECMP bundle width and lane
	// QoS weights.
	Fabric FabricConfig
}

// Cluster is a running set of NFV nodes connected by shared VLAN-steered
// trunks (one per node pair). Service graphs deployed on it are partitioned
// by per-VNF placement (graph.VNF.Node); hops between co-located VNFs
// behave exactly as on a single node — including, in highway mode,
// transparent bypass — while hops that cross nodes become VLAN lanes
// contending for the pair's trunk.
type Cluster struct {
	inner *orchestrator.Cluster
	tcfg  orchestrator.TrunkConfig
}

// StartCluster boots cfg.Nodes NFV nodes, each with its own vSwitch,
// agent, packet pool and (in highway mode) detector and bypass manager.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	names := cfg.Nodes
	if len(names) == 0 {
		names = []string{"node0", "node1"}
	}
	inner, err := orchestrator.NewCluster(names, cfg.Config.nodeConfig())
	if err != nil {
		return nil, err
	}
	return &Cluster{
		inner: inner,
		tcfg: orchestrator.TrunkConfig{
			RatePps:    cfg.TrunkRate,
			Latency:    cfg.WireLatency,
			StagingCap: cfg.Fabric.StagingCap,
			Mode:       cfg.Fabric.Mode,
			Spines:     cfg.Fabric.Spines,
			ECMPWidth:  cfg.Fabric.ECMPWidth,
			PCPWeights: cfg.Fabric.PCPWeights,
		},
	}, nil
}

// Stop shuts every node down.
func (c *Cluster) Stop() { c.inner.Stop() }

// Mode returns the cluster's datapath mode.
func (c *Cluster) Mode() Mode { return c.inner.Mode() }

// NodeNames returns the node names in placement order.
func (c *Cluster) NodeNames() []string { return c.inner.NodeNames() }

// BypassCount reports the number of live bypass channels cluster-wide.
func (c *Cluster) BypassCount() int { return c.inner.BypassLinkCount() }

// NodeBypassCount reports the live bypass channels on one node.
func (c *Cluster) NodeBypassCount(name string) int {
	n := c.inner.Node(name)
	if n == nil {
		return 0
	}
	return n.Switch.BypassLinkCount()
}

// WaitBypasses blocks (bounded) until exactly want bypasses are live
// across the cluster.
func (c *Cluster) WaitBypasses(want int) bool { return c.inner.WaitBypassCount(want) }

// Deploy partitions g by VNF placement and lowers each partition on its
// node, steering the boundary crossings over shared trunk lanes.
func (c *Cluster) Deploy(g *Graph) (*ClusterDeployment, error) {
	cd, err := c.inner.Deploy(g, c.tcfg)
	if err != nil {
		return nil, err
	}
	return &ClusterDeployment{inner: cd}, nil
}

// DeployPlaced runs the crossing-minimizing placement optimizer
// (graph.Place, a balanced Kernighan–Lin-style swap heuristic) over g
// before deploying: unpinned VNFs are assigned nodes so the deployment pays
// as few trunk lanes as possible. Returns the deployment and the crossing
// count the optimizer settled on.
func (c *Cluster) DeployPlaced(g *Graph) (*ClusterDeployment, int, error) {
	cd, crossings, err := c.inner.DeployPlaced(g, c.tcfg)
	if err != nil {
		return nil, 0, err
	}
	return &ClusterDeployment{inner: cd}, crossings, nil
}

// Internal returns the underlying orchestrator cluster, for advanced
// callers.
func (c *Cluster) Internal() *orchestrator.Cluster { return c.inner }

// Reconciler is the cluster's background convergence loop; see
// StartReconciler.
type Reconciler = orchestrator.Reconciler

// ReconcilerStats is a point-in-time read of a reconciler's counters.
type ReconcilerStats = orchestrator.ReconcilerStats

// ErrUnknownAdjacency reports fault injection aimed at a node pair (or
// bundle slot) the fabric does not carry; match with errors.Is.
var ErrUnknownAdjacency = orchestrator.ErrUnknownAdjacency

// FailTrunk kills one parallel trunk of a node-pair adjacency (bundle slot
// idx). Lanes keep flowing over the surviving slots via ECMP fall-forward;
// the reconciler rebuilds the dead slot. Idempotent per slot; failing the
// last live slot is refused.
func (c *Cluster) FailTrunk(a, b string, idx int) error { return c.inner.FailTrunk(a, b, idx) }

// FailNode simulates a node blip: every trunk touching the node dies and
// its vSwitch restarts with an empty flow table. VMs, ports and pools
// survive. Recovery is the reconciler's job.
func (c *Cluster) FailNode(name string) error { return c.inner.FailNode(name) }

// RestartVSwitch bounces one node's vSwitch, wiping its flow table,
// per-PMD caches and bypasses — the vswitchd-crash fault.
func (c *Cluster) RestartVSwitch(name string) error { return c.inner.RestartVSwitch(name) }

// WipeRules deletes every deployment-installed steering rule on a node
// (the fat-fingered `ovs-ofctl del-flows` fault). Returns the number of
// rules destroyed.
func (c *Cluster) WipeRules(name string) (int, error) { return c.inner.WipeDeploymentRules(name) }

// ReconcileOnce runs one synchronous convergence pass over every live
// deployment, repairing rule drift, dead trunks and missing lanes.
// Returns the number of repairs; zero means the cluster matched its spec.
func (c *Cluster) ReconcileOnce() (int, error) { return c.inner.ReconcileOnce() }

// StartReconciler launches the background convergence loop (interval <= 0
// defaults to 10ms). Stop it before stopping the cluster.
func (c *Cluster) StartReconciler(interval time.Duration) *Reconciler {
	return c.inner.StartReconciler(interval)
}

// Rebalancer is the background placement controller; see StartRebalancer.
type Rebalancer = orchestrator.Rebalancer

// RebalanceConfig tunes the placement controller's sampling interval and
// damping thresholds.
type RebalanceConfig = orchestrator.RebalanceConfig

// RebalancerStats is a point-in-time read of a rebalancer's counters.
type RebalancerStats = orchestrator.RebalancerStats

// RebalanceMove is one executed rolling move of a rebalance plan.
type RebalanceMove = orchestrator.RebalanceMove

// StartRebalancer launches the drift-driven placement controller: every
// interval it samples node loads, re-runs the placement optimizer, and
// converges the live layout onto the proposal via rolling zero-loss
// migrations — one VNF in flight, damped against oscillating load, and
// deferred while the fabric carries unrepaired faults. Stop it before
// stopping the cluster.
func (c *Cluster) StartRebalancer(cfg RebalanceConfig) *Rebalancer {
	return c.inner.StartRebalancer(cfg)
}

// Cordon excludes a node from automatic placement (DeployPlaced and the
// rebalance controller); running VNFs and explicit pins are untouched.
func (c *Cluster) Cordon(node string) error { return c.inner.Cordon(node) }

// Uncordon returns a node to the placement pool.
func (c *Cluster) Uncordon(node string) error { return c.inner.Uncordon(node) }

// CordonedNodes lists the currently cordoned nodes in cluster order.
func (c *Cluster) CordonedNodes() []string { return c.inner.CordonedNodes() }

// Drain cordons a node and live-evacuates every middle VNF it hosts via
// rolling zero-loss migrations, so the node can be retired under traffic.
// Returns the number of VNFs moved.
func (c *Cluster) Drain(node string) (int, error) { return c.inner.Drain(node) }

// ClusterDeployment is a service graph deployed across a cluster.
type ClusterDeployment struct {
	inner *orchestrator.ClusterDeployment
}

// Stop tears the deployment down on every node and dismantles the wires.
func (d *ClusterDeployment) Stop() { d.inner.Stop() }

// Internal returns the underlying cluster deployment.
func (d *ClusterDeployment) Internal() *orchestrator.ClusterDeployment { return d.inner }

// Reconcile runs one convergence pass over just this deployment.
func (d *ClusterDeployment) Reconcile() (int, error) { return d.inner.Reconcile() }

// MigrateReport describes a completed live migration: the make-before-break
// cutover window and whether the old path drained before the deadline.
type MigrateReport = orchestrator.MigrateReport

// ErrMigrationInFlight reports a control-plane action refused because a
// live migration currently owns the deployment; match with errors.Is.
var ErrMigrationInFlight = orchestrator.ErrMigrationInFlight

// Migrate live-moves a middle VNF to another node using make-before-break
// double-steering: the replica and its whole forwarding path are plumbed
// dark, the feed rules flip atomically, and the old path drains to
// delivery before anything is torn down — targeting zero packets lost.
// The report says whether the drain was observed complete (Drained) or the
// teardown proceeded on the deadline. One migration per deployment at a
// time: a concurrent call fails with ErrMigrationInFlight.
func (d *ClusterDeployment) Migrate(vnf, node string) (MigrateReport, error) {
	return d.inner.Migrate(vnf, node)
}

// Crossings reports the deployment's current node-boundary crossing count —
// the trunk lanes its layout pays for.
func (d *ClusterDeployment) Crossings() int { return d.inner.Crossings() }

// DeploySplitChain deploys the Figure 3(a) bidirectional chain of n
// forwarder VMs with its VM sequence placed across the given nodes in
// contiguous, evenly-sized segments (nil nodes = all cluster nodes in
// order). It mirrors Node.DeployBidirChain: the paper's x-axis VM count is
// n+2, and in highway mode every intra-node hop still becomes a bypass —
// only the len(nodes)-1 wire hops stay on the NIC path.
func (c *Cluster) DeploySplitChain(n int, nodes []string, opts ChainOptions) (*Chain, error) {
	return c.deploySplitChain("", n, nodes, opts)
}

// deploySplitChain is DeploySplitChain with every VNF name prefixed, so
// several chain instances can share one cluster.
func (c *Cluster) deploySplitChain(prefix string, n int, nodes []string, opts ChainOptions) (*Chain, error) {
	if len(nodes) == 0 {
		nodes = c.NodeNames()
	}
	if len(nodes) > n+2 {
		nodes = nodes[:n+2]
	}
	g := graph.SplitBidirChain(n, nodes)
	applyBidirEndpointArgs(g, opts)
	// Segment sizes come from the placement the graph actually got, so they
	// can never drift from SplitBidirChain's layout.
	counts := make(map[string]int, len(nodes))
	for i := range g.VNFs {
		counts[g.VNFs[i].Node]++
		g.VNFs[i].Name = prefix + g.VNFs[i].Name
	}
	for i := range g.Edges { // a split chain has VNF endpoints only
		g.Edges[i].A.Name = prefix + g.Edges[i].A.Name
		g.Edges[i].B.Name = prefix + g.Edges[i].B.Name
	}
	dep, err := c.Deploy(g)
	if err != nil {
		return nil, err
	}
	sc := &Chain{host: c, cdep: dep, own: dep.inner, n: n, hops: n + 1}
	for _, name := range nodes {
		if k := counts[name]; k > 0 {
			sc.segments = append(sc.segments, k)
		}
	}
	end0, end1 := dep.inner.SrcSink(prefix+"end0"), dep.inner.SrcSink(prefix+"end1")
	if end0 == nil || end1 == nil {
		dep.Stop()
		return nil, fmt.Errorf("splitchain: endpoints missing after deploy")
	}
	sc.setEnds(end0, end1)
	return sc, nil
}

// StatefulChainOptions parametrizes DeployStatefulChain. Zero values take
// defaults sized so the chain reaches a lossless steady state.
type StatefulChainOptions struct {
	// Flows is the number of concurrent client connections the source
	// cycles through (default 64). The NAT's per-node port block is sized
	// to cover them exactly.
	Flows int
	// RatePps paces the client source (default 50_000). Keep it below
	// chain capacity or the conservation ledger cannot close.
	RatePps float64
	// Backends is the number of balancer targets behind the VIP (default 2).
	Backends int
}

// StatefulChain is the production service chain of the conntrack PR:
// client source → NAT44 → ACL (established bypass) → L4 balancer → sink,
// deployed across cluster nodes by the placement optimizer. Unlike the
// bidirectional benchmark chains, traffic is unidirectional and paced, so
// the conservation ledger is exact: after Pause and Settle, every packet
// the source sent must have landed in the sink.
type StatefulChain struct {
	Ledger
	dep *ClusterDeployment
	nat *vnf.NAT44
	acl *vnf.ACL
	lb  *vnf.Balancer
}

// DeployStatefulChain builds and deploys the NAT44→ACL→balancer chain via
// the crossing-minimizing placement optimizer (DeployPlaced), returning the
// chain handle and the placement's crossing count. The traffic plan: the
// client talks to a VIP, the NAT source-translates it onto its node's port
// block, the ACL admits only VIP-bound traffic (first packet via the
// compiled classifier, the rest through the conntrack bypass), and the
// balancer pins each connection to a backend.
func (c *Cluster) DeployStatefulChain(opts StatefulChainOptions) (*StatefulChain, int, error) {
	if opts.Flows <= 0 {
		opts.Flows = 64
	}
	if opts.RatePps <= 0 {
		opts.RatePps = 50_000
	}
	if opts.Backends <= 0 {
		opts.Backends = 2
	}
	vip := pkt.IP4{10, 99, 0, 1}
	const vipPort = 80
	spec := orchestrator.DefaultTrafficSpec()
	spec.DstIP = vip
	spec.DstPort = vipPort
	backends := make([]vnf.Backend, opts.Backends)
	for i := range backends {
		backends[i] = vnf.Backend{IP: pkt.IP4{10, 1, 0, byte(i + 1)}, Port: 8080}
	}
	g := &Graph{
		VNFs: []graph.VNF{
			{Name: "client", Kind: graph.KindSource, Args: orchestrator.SourceSpecArgs{
				Spec: spec, Flows: opts.Flows, RatePps: opts.RatePps,
			}},
			{Name: "nat", Kind: graph.KindNAT44, Args: orchestrator.NAT44Args{
				ExtIP: pkt.IP4{192, 0, 2, 1}, PortBase: 40000, PortCount: opts.Flows,
			}},
			{Name: "acl", Kind: graph.KindACL, Args: orchestrator.ACLArgs{
				Rules: []vnf.ACLRule{{
					Priority: 100,
					Match:    flow.MatchAll().WithIPProto(pkt.ProtoUDP).WithIPDst(vip, 32).WithL4Dst(vipPort),
					Allow:    true,
				}},
			}},
			{Name: "lb", Kind: graph.KindBalancer, Args: orchestrator.BalancerArgs{
				VIP: vip, VIPPort: vipPort, Backends: backends,
			}},
			{Name: "server", Kind: graph.KindSink},
		},
		Edges: []graph.Edge{
			{A: graph.VNFPort("client", 0), B: graph.VNFPort("nat", 0), Bidirectional: true},
			{A: graph.VNFPort("nat", 1), B: graph.VNFPort("acl", 0), Bidirectional: true},
			{A: graph.VNFPort("acl", 1), B: graph.VNFPort("lb", 0), Bidirectional: true},
			{A: graph.VNFPort("lb", 1), B: graph.VNFPort("server", 0), Bidirectional: true},
		},
	}
	dep, crossings, err := c.DeployPlaced(g)
	if err != nil {
		return nil, 0, err
	}
	sc := &StatefulChain{
		dep: dep,
		nat: dep.inner.NAT44("nat"),
		acl: dep.inner.ACL("acl"),
		lb:  dep.inner.Balancer("lb"),
	}
	srcs, sink := dep.inner.Sources(), dep.inner.Sink("server")
	if len(srcs) != 1 || sink == nil || sc.nat == nil || sc.acl == nil || sc.lb == nil {
		dep.Stop()
		return nil, 0, fmt.Errorf("statefulchain: VNF handles missing after deploy")
	}
	sc.Ledger = Ledger{pause: srcs[0].SetPaused, sent: srcs[0].Sent.Load, received: sink.Received.Load}
	return sc, crossings, nil
}

// Stop tears the chain down across all nodes.
func (sc *StatefulChain) Stop() { sc.dep.Stop() }

// Deployment exposes the chain's underlying cluster deployment.
func (sc *StatefulChain) Deployment() *ClusterDeployment { return sc.dep }

// NAT returns the chain's NAT44 handle.
func (sc *StatefulChain) NAT() *vnf.NAT44 { return sc.nat }

// ACL returns the chain's stateful-firewall handle.
func (sc *StatefulChain) ACL() *vnf.ACL { return sc.acl }

// Balancer returns the chain's L4 balancer handle.
func (sc *StatefulChain) Balancer() *vnf.Balancer { return sc.lb }
