package orchestrator

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ovshighway/internal/flow"
	"ovshighway/internal/graph"
	"ovshighway/internal/nic"
	"ovshighway/internal/trunk"
	"ovshighway/internal/vnf"
)

// FabricMode selects how inter-node crossings are routed through the
// cluster's switched core.
type FabricMode int

// Fabric modes.
const (
	// FabricMesh connects every communicating node pair directly — the
	// ToR-cable-per-pair model. With ECMPWidth > 1 each adjacency is a
	// bundle of parallel trunks with per-flow path pinning.
	FabricMesh FabricMode = iota
	// FabricSpine relays leaf–leaf crossings through a designated spine
	// node: leaves only ever uplink to the spine (leaf–spine adjacencies,
	// optionally ECMP bundles), and the spine's vSwitch forwards tagged
	// lanes between its trunk ports. Crossings that touch the spine itself
	// stay single-hop.
	FabricSpine
)

func (m FabricMode) String() string {
	if m == FabricSpine {
		return "spine"
	}
	return "mesh"
}

// TrunkConfig shapes the shared trunk fabric a cluster creates between
// nodes. Unlike the retired one-wire-per-crossing fabric, the rate budget
// lives on each TRUNK and is contended by every lane riding it: the trunk
// NICs themselves are unshaped so the budget is not paid twice.
type TrunkConfig struct {
	// RatePps caps each trunk direction, shared across all lanes
	// (0 = 10G line rate for 64B frames, negative = unlimited). With
	// ECMPWidth > 1 the cap applies PER PARALLEL TRUNK, so a wider bundle
	// carries proportionally more.
	RatePps float64
	// Latency is the per-direction propagation delay (0 = none).
	Latency time.Duration
	// QueueSize is the trunk NIC descriptor ring depth (default 1024).
	QueueSize int
	// StagingCap bounds each trunk direction's per-PCP staging queue
	// (default 256). Shallower queues surface congestion faster; deeper
	// ones absorb bigger bursts before dropping.
	StagingCap int
	// Mode selects the core topology (mesh or leaf–spine).
	Mode FabricMode
	// Spines names the relay nodes of a k-spine Clos core: every leaf–leaf
	// crossing gets one two-hop path PER SPINE and the sender's ECMP spreads
	// flows across all of them (spines × bundle width, capped at
	// flow.MaxECMPPorts fan-out ports). Empty means the cluster's first
	// node. Crossings that touch a spine themselves stay single-hop.
	Spines []string
	// ECMPWidth is the number of parallel trunks per adjacency (default 1,
	// max flow.MaxECMPPorts). Each flow is pinned to one trunk of the
	// bundle by its (lane, Hash2) hash; surviving trunks absorb the flows
	// of a torn-down one.
	ECMPWidth int
	// PCPWeights are the per-802.1Q-priority DRR weights every trunk of
	// the fabric schedules its shared budget by (0 = weight 1).
	PCPWeights [8]float64
}

// width returns the effective ECMP bundle width.
func (tc TrunkConfig) width() int {
	w := tc.ECMPWidth
	if w < 1 {
		w = 1
	}
	if w > flow.MaxECMPPorts {
		w = flow.MaxECMPPorts
	}
	return w
}

// equal compares two trunk configs field by field. TrunkConfig stopped
// being ==-comparable when Spines arrived (slice field), and ensureTrunk's
// shared-adjacency check must keep comparing by value, not identity.
func (tc TrunkConfig) equal(o TrunkConfig) bool {
	return slices.Equal(tc.Spines, o.Spines) &&
		tc.RatePps == o.RatePps &&
		tc.Latency == o.Latency &&
		tc.QueueSize == o.QueueSize &&
		tc.StagingCap == o.StagingCap &&
		tc.Mode == o.Mode &&
		tc.ECMPWidth == o.ECMPWidth &&
		tc.PCPWeights == o.PCPWeights
}

// Cluster is a set of NFV nodes joined by a switched-core fabric of shared
// VLAN-steered trunks. Every node runs the same datapath mode and carries
// its own vSwitch, agent, packet pool and — in highway mode — detector and
// bypass manager; nothing is shared across nodes except the trunk fabric,
// which is created lazily per adjacency and carries one VLAN lane per
// service-graph crossing (relayed through the spine in spine mode).
type Cluster struct {
	cfg   NodeConfig
	order []string
	nodes map[string]*Node

	// mu guards the trunk registry and the cluster-wide VLAN id allocator.
	mu     sync.Mutex
	trunks map[pairKey]*clusterTrunk
	// vids is the cluster-wide VLAN id allocator: one vid identifies a lane
	// on EVERY trunk of its path (all parallel trunks of every hop), so
	// allocation must be global, not per trunk.
	vids map[uint16]bool
	// poller drives every trunk of this cluster from one shared goroutine
	// (created lazily with the first trunk). Guarded by mu.
	poller *trunk.Poller
	// loadRx remembers each node's total port RX count at the previous
	// NodeLoads call, so load is apportioned by recent movement rather
	// than since-boot totals. Guarded by mu.
	loadRx []float64
	// deployments registers every live ClusterDeployment so the cluster's
	// reconciler can walk them — the desired state the fabric converges
	// toward. Guarded by mu.
	deployments map[*ClusterDeployment]bool
	// cordoned marks nodes excluded from automatic placement (DeployPlaced
	// and the rebalance controller). A cordon does not touch running VNFs —
	// Drain does that — and explicit pins still deploy to a cordoned node.
	// Guarded by mu; created on first Cordon.
	cordoned map[string]bool
}

// pairKey identifies an unordered node pair (lo < hi lexically).
type pairKey struct{ lo, hi string }

func makePair(a, b string) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{lo: a, hi: b}
}

// trunkLink is one physical parallel trunk of an adjacency: the trunk and
// its two NIC attachments. All fields are guarded by Cluster.mu.
type trunkLink struct {
	tr             *trunk.Trunk
	nicLo, nicHi   *nic.NIC
	nameLo, nameHi string
	portLo, portHi uint32
	// failed marks an injected link death. The link keeps its bundle slot
	// (so FailTrunk indices stay stable and repeatable) but contributes no
	// ports to steering and no capacity; the reconciler rebuilds the slot
	// in place.
	failed bool
	// drained is claimed by the one caller that reclaims the dismantled
	// link's NIC queues (drainDeadLink).
	drained atomic.Bool
}

// port returns the link's switch port id on the given node of the pair.
func (tl *trunkLink) port(pair pairKey, node string) uint32 {
	if node == pair.lo {
		return tl.portLo
	}
	return tl.portHi
}

// clusterTrunk is one realized adjacency: an ECMP bundle of parallel trunk
// links between a node pair plus the set of lanes riding it. Guarded by
// Cluster.mu.
type clusterTrunk struct {
	pair  pairKey
	cfg   TrunkConfig // the config the adjacency was created with
	links []*trunkLink
	// lanes is the set of vids riding this adjacency. Membership, not a
	// refcount: vids are cluster-globally unique per crossing and a path
	// never visits the same pair twice.
	lanes map[uint16]bool
}

// ports returns the LIVE bundle's switch port ids on the given node, in
// link order — the ECMP fan-out of steering rules installed on that node.
// Failed links are skipped: they hold their slot for repair but must not
// attract traffic.
func (ct *clusterTrunk) ports(node string) []uint32 {
	out := make([]uint32, 0, len(ct.links))
	for _, tl := range ct.links {
		if tl.failed {
			continue
		}
		out = append(out, tl.port(ct.pair, node))
	}
	return out
}

// liveTrunks returns the bundle's non-failed trunks in link order.
func (ct *clusterTrunk) liveTrunks() []*trunk.Trunk {
	out := make([]*trunk.Trunk, 0, len(ct.links))
	for _, tl := range ct.links {
		if !tl.failed {
			out = append(out, tl.tr)
		}
	}
	return out
}

// live counts the bundle's non-failed links.
func (ct *clusterTrunk) live() int {
	n := 0
	for _, tl := range ct.links {
		if !tl.failed {
			n++
		}
	}
	return n
}

// NewCluster boots one node per name (first name is the default placement
// target). All nodes share the config template but own independent
// resources.
func NewCluster(names []string, cfg NodeConfig) (*Cluster, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("orchestrator: cluster needs at least one node name")
	}
	c := &Cluster{
		cfg:         cfg,
		nodes:       make(map[string]*Node, len(names)),
		trunks:      make(map[pairKey]*clusterTrunk),
		vids:        make(map[uint16]bool),
		deployments: make(map[*ClusterDeployment]bool),
	}
	for _, name := range names {
		if name == "" {
			c.Stop()
			return nil, fmt.Errorf("orchestrator: empty node name")
		}
		if _, dup := c.nodes[name]; dup {
			c.Stop()
			return nil, fmt.Errorf("orchestrator: duplicate node name %q", name)
		}
		n, err := NewNode(cfg)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("orchestrator: node %s: %w", name, err)
		}
		c.nodes[name] = n
		c.order = append(c.order, name)
	}
	return c, nil
}

// Node returns the named node (nil if absent).
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// NodeNames returns the node names in creation order.
func (c *Cluster) NodeNames() []string { return append([]string(nil), c.order...) }

// DefaultNode returns the placement target for unlabeled VNFs.
func (c *Cluster) DefaultNode() string { return c.order[0] }

// Mode returns the cluster's datapath mode.
func (c *Cluster) Mode() Mode { return c.cfg.Mode }

// Stop shuts the cluster down: trunk pumps first (so no goroutine keeps
// feeding the dying switches), then every node.
func (c *Cluster) Stop() {
	c.mu.Lock()
	var links []*trunkLink
	for _, ct := range c.trunks {
		links = append(links, ct.links...)
	}
	c.trunks = make(map[pairKey]*clusterTrunk)
	c.vids = make(map[uint16]bool)
	c.deployments = make(map[*ClusterDeployment]bool)
	poller := c.poller
	c.poller = nil
	c.mu.Unlock()
	for _, tl := range links {
		tl.tr.Stop()
	}
	if poller != nil {
		poller.Stop()
	}
	for _, name := range c.order {
		c.nodes[name].Stop()
	}
}

// BypassLinkCount sums the live bypass channels across all nodes.
func (c *Cluster) BypassLinkCount() int {
	total := 0
	for _, n := range c.nodes {
		total += n.Switch.BypassLinkCount()
	}
	return total
}

// WaitBypassCount blocks (bounded) until exactly want bypasses are live
// cluster-wide.
func (c *Cluster) WaitBypassCount(want int) bool {
	return waitCond(func() bool { return c.BypassLinkCount() == want })
}

// TrunkCount returns the number of live adjacencies (node pairs joined by a
// trunk bundle; a bundle of k parallel trunks counts once).
func (c *Cluster) TrunkCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.trunks)
}

// sortedPairs returns the live adjacency keys in pair order. Caller holds
// c.mu.
func (c *Cluster) sortedPairs() []pairKey {
	keys := make([]pairKey, 0, len(c.trunks))
	for k := range c.trunks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].lo != keys[j].lo {
			return keys[i].lo < keys[j].lo
		}
		return keys[i].hi < keys[j].hi
	})
	return keys
}

// Trunks returns the live trunks, ordered by node pair then bundle index.
func (c *Cluster) Trunks() []*trunk.Trunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*trunk.Trunk
	for _, k := range c.sortedPairs() {
		out = append(out, c.trunks[k].liveTrunks()...)
	}
	return out
}

// PairTrunks returns the parallel trunks of one adjacency in bundle order
// (nil when the pair has none) — the per-path observability surface of the
// fabric experiment.
func (c *Cluster) PairTrunks(a, b string) []*trunk.Trunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ct, ok := c.trunks[makePair(a, b)]; ok {
		return ct.liveTrunks()
	}
	return nil
}

// ErrUnknownAdjacency reports a fault-injection call naming a node pair (or
// bundle slot) the fabric does not carry. Callers match it with errors.Is.
var ErrUnknownAdjacency = errors.New("orchestrator: unknown trunk adjacency")

// FailTrunk kills one parallel trunk of an adjacency (bundle index idx)
// while its lanes keep flowing over the surviving links: the datapath's
// ECMP output falls forward past the dead port, re-pinning the failed
// path's flows — live rebalance without a rule rewrite. The dead link keeps
// its bundle slot marked failed, so indices stay stable, a repeat call on
// an already-dead slot is a no-op, and the reconciler can rebuild the slot
// in place. Failing the last LIVE link of an adjacency is refused (that is
// teardown, not rebalance — use FailNode for total-loss scenarios).
func (c *Cluster) FailTrunk(a, b string, idx int) error {
	pair := makePair(a, b)
	c.mu.Lock()
	ct, ok := c.trunks[pair]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: no trunk between %s and %s", ErrUnknownAdjacency, a, b)
	}
	if idx < 0 || idx >= len(ct.links) {
		c.mu.Unlock()
		return fmt.Errorf("%w: trunk %s-%s has no bundle index %d", ErrUnknownAdjacency, pair.lo, pair.hi, idx)
	}
	tl := ct.links[idx]
	if tl.failed {
		c.mu.Unlock()
		return nil // idempotent: the slot is already dead
	}
	if ct.live() == 1 {
		c.mu.Unlock()
		return fmt.Errorf("orchestrator: refusing to fail the last live trunk of %s-%s", pair.lo, pair.hi)
	}
	tl.failed = true
	c.dismantleLinkLocked(pair, tl)
	c.mu.Unlock()
	c.drainDeadLink(pair, tl)
	return nil
}

// FailNode simulates a node blip: every trunk link touching the node dies
// (both directions — the peer sees its uplink vanish too) and the node's
// vSwitch restarts, losing its entire flow table and per-PMD caches. VMs,
// ports and pools survive, as they would across a vswitchd crash on a real
// host. Nothing is repaired here: recovery is the reconciler's job.
func (c *Cluster) FailNode(node string) error {
	if c.nodes[node] == nil {
		return fmt.Errorf("orchestrator: unknown node %q", node)
	}
	type dead struct {
		pair pairKey
		tl   *trunkLink
	}
	var killed []dead
	c.mu.Lock()
	for pair, ct := range c.trunks {
		if pair.lo != node && pair.hi != node {
			continue
		}
		for _, tl := range ct.links {
			if tl.failed {
				continue
			}
			tl.failed = true
			c.dismantleLinkLocked(pair, tl)
			killed = append(killed, dead{pair: pair, tl: tl})
		}
	}
	c.mu.Unlock()
	for _, d := range killed {
		c.drainDeadLink(d.pair, d.tl)
	}
	return c.RestartVSwitch(node)
}

// WipeDeploymentRules deletes every deployment-installed steering rule on
// the node (any flow carrying a deployment cookie), simulating an operator
// fat-fingering `ovs-ofctl del-flows` — controller-installed flows
// survive. Returns the number of rules destroyed; the reconciler is
// expected to put them all back.
func (c *Cluster) WipeDeploymentRules(node string) (int, error) {
	n := c.nodes[node]
	if n == nil {
		return 0, fmt.Errorf("orchestrator: unknown node %q", node)
	}
	return n.Switch.Table().DeleteWhere(func(f *flow.Flow) bool {
		return f.Cookie>>56 == DeployCookieBase>>56
	}), nil
}

// RestartVSwitch bounces the node's vSwitch: PMD threads stop, the flow
// table is wiped (taking EMC/SMC caches and all bypasses with it), and a
// fresh datapath relaunches empty. This is the vswitchd-crash fault the
// reconciler must heal by re-installing the deployment's rules.
func (c *Cluster) RestartVSwitch(node string) error {
	n := c.nodes[node]
	if n == nil {
		return fmt.Errorf("orchestrator: unknown node %q", node)
	}
	return n.Switch.Restart()
}

// nicNodes maps every externally-registered NIC name to its home node, for
// partitioning graphs with NIC endpoints.
func (c *Cluster) nicNodes() map[string]string {
	out := make(map[string]string)
	for _, name := range c.order {
		for _, nn := range c.nodes[name].NICNames() {
			out[nn] = name
		}
	}
	return out
}

// spineNodes resolves the relay nodes for spine-mode routing: the Spines
// list, defaulting to the cluster's first node. Nil in mesh mode.
func (c *Cluster) spineNodes(tcfg TrunkConfig) ([]string, error) {
	if tcfg.Mode != FabricSpine {
		return nil, nil
	}
	spines := tcfg.Spines
	if len(spines) == 0 {
		spines = []string{c.order[0]}
	}
	seen := make(map[string]bool, len(spines))
	for _, s := range spines {
		if c.nodes[s] == nil {
			return nil, fmt.Errorf("orchestrator: spine node %q not in cluster %v", s, c.order)
		}
		if seen[s] {
			return nil, fmt.Errorf("orchestrator: duplicate spine node %q", s)
		}
		seen[s] = true
	}
	return spines, nil
}

// paths returns the adjacency paths a crossing between two distinct nodes
// rides: one direct path in mesh mode (or when either end IS a spine), and
// one src→spineᵢ→dst path per spine otherwise — the Clos multipath the
// sender's ECMP spreads flows across.
func (c *Cluster) paths(a, b string, spines []string, tcfg TrunkConfig) [][]pairKey {
	if tcfg.Mode != FabricSpine {
		return [][]pairKey{{makePair(a, b)}}
	}
	for _, s := range spines {
		if a == s || b == s {
			return [][]pairKey{{makePair(a, b)}}
		}
	}
	out := make([][]pairKey, 0, len(spines))
	for _, s := range spines {
		out = append(out, []pairKey{makePair(a, s), makePair(s, b)})
	}
	return out
}

// allocVidLocked hands out the lowest free cluster-wide VLAN id. Caller
// holds c.mu.
func (c *Cluster) allocVidLocked() (uint16, error) {
	for vid := uint16(1); vid <= 4094; vid++ {
		if !c.vids[vid] {
			c.vids[vid] = true
			return vid, nil
		}
	}
	return 0, fmt.Errorf("orchestrator: out of cluster VLAN ids")
}

// ensureTrunk returns the node pair's adjacency, creating its ECMP bundle
// (NICs on both sides plus the pump pairs) on first use. An adjacency is
// shared infrastructure: a deployment joining an existing one must ask for
// the same shaping and fabric shape, or its lanes would silently ride a
// link configured by somebody else — that mismatch is an error, not a
// silent drop. Caller holds c.mu.
func (c *Cluster) ensureTrunk(pair pairKey, tcfg TrunkConfig) (*clusterTrunk, error) {
	if ct, ok := c.trunks[pair]; ok {
		if !ct.cfg.equal(tcfg) {
			return nil, fmt.Errorf(
				"orchestrator: trunk %s-%s already exists with config %+v; deployment asked for %+v",
				pair.lo, pair.hi, ct.cfg, tcfg)
		}
		return ct, nil
	}
	nlo, nhi := c.nodes[pair.lo], c.nodes[pair.hi]
	if c.poller == nil {
		c.poller = trunk.NewPoller()
	}
	ct := &clusterTrunk{pair: pair, cfg: tcfg, lanes: make(map[uint16]bool)}
	undo := func() {
		for _, tl := range ct.links {
			tl.tr.Stop()
			_ = nlo.RemoveNIC(tl.nameLo)
			_ = nhi.RemoveNIC(tl.nameHi)
		}
		if len(c.trunks) == 0 && c.poller != nil {
			c.poller.Stop()
			c.poller = nil
		}
	}
	for i := 0; i < tcfg.width(); i++ {
		tl, err := c.newTrunkLinkLocked(pair, i, tcfg)
		if err != nil {
			undo()
			return nil, err
		}
		ct.links = append(ct.links, tl)
	}
	c.trunks[pair] = ct
	return ct, nil
}

// trunkRate maps the config's rate knob to the trunk's effective budget.
func trunkRate(tcfg TrunkConfig) float64 {
	switch {
	case tcfg.RatePps == 0:
		return nic.LineRate64B
	case tcfg.RatePps < 0:
		return 0 // unshaped
	}
	return tcfg.RatePps
}

// newTrunkLinkLocked creates bundle slot i of an adjacency: NICs on both
// sides plus the trunk joining them. Shared by first-use creation
// (ensureTrunk) and in-place repair of a failed slot (repairTrunkLocked) —
// a repaired link reuses the slot's NIC names, so the fabric looks
// identical before and after the fault. Caller holds c.mu.
func (c *Cluster) newTrunkLinkLocked(pair pairKey, i int, tcfg TrunkConfig) (*trunkLink, error) {
	nlo, nhi := c.nodes[pair.lo], c.nodes[pair.hi]
	// The peer names the uplink, like eth-to-<peer>; parallel bundle
	// members are distinguished by index.
	nameLo := fmt.Sprintf("trunk:%s#%d", pair.hi, i)
	nameHi := fmt.Sprintf("trunk:%s#%d", pair.lo, i)
	// Trunk NICs are unshaped: the shared budget lives on the trunk itself.
	devLo, err := nlo.AddNIC(nameLo, nic.Config{RatePps: -1, QueueSize: tcfg.QueueSize})
	if err != nil {
		return nil, fmt.Errorf("orchestrator: trunk NIC on %s: %w", pair.lo, err)
	}
	devHi, err := nhi.AddNIC(nameHi, nic.Config{RatePps: -1, QueueSize: tcfg.QueueSize})
	if err != nil {
		_ = nlo.RemoveNIC(nameLo)
		return nil, fmt.Errorf("orchestrator: trunk NIC on %s: %w", pair.hi, err)
	}
	tr, err := trunk.New(trunk.Config{
		Name:       fmt.Sprintf("trunk-%s-%s#%d", pair.lo, pair.hi, i),
		A:          trunk.Endpoint{NIC: devLo, Pool: nlo.Pool},
		B:          trunk.Endpoint{NIC: devHi, Pool: nhi.Pool},
		RatePps:    trunkRate(tcfg),
		Latency:    tcfg.Latency,
		PCPWeights: tcfg.PCPWeights,
		StagingCap: tcfg.StagingCap,
		Poller:     c.poller,
	})
	if err != nil {
		_ = nlo.RemoveNIC(nameLo)
		_ = nhi.RemoveNIC(nameHi)
		return nil, err
	}
	portLo, _ := nlo.NICPort(nameLo)
	portHi, _ := nhi.NICPort(nameHi)
	return &trunkLink{
		tr:    tr,
		nicLo: devLo, nicHi: devHi,
		nameLo: nameLo, nameHi: nameHi,
		portLo: portLo, portHi: portHi,
	}, nil
}

// repairTrunkLocked rebuilds every failed slot of an adjacency in place:
// fresh NICs under the slot's original names, a fresh trunk, and every lane
// the adjacency carries re-registered on it. Returns the number of slots
// rebuilt. Caller holds c.mu.
func (c *Cluster) repairTrunkLocked(ct *clusterTrunk) (int, error) {
	repaired := 0
	for i, tl := range ct.links {
		if !tl.failed {
			continue
		}
		fresh, err := c.newTrunkLinkLocked(ct.pair, i, ct.cfg)
		if err != nil {
			return repaired, fmt.Errorf("orchestrator: repair trunk %s-%s#%d: %w", ct.pair.lo, ct.pair.hi, i, err)
		}
		for vid := range ct.lanes {
			if err := fresh.tr.AddLane(vid); err != nil {
				fresh.tr.Stop()
				_ = c.nodes[ct.pair.lo].RemoveNIC(fresh.nameLo)
				_ = c.nodes[ct.pair.hi].RemoveNIC(fresh.nameHi)
				return repaired, err
			}
		}
		ct.links[i] = fresh
		repaired++
	}
	return repaired, nil
}

// addLaneLocked registers vid on every parallel trunk of the adjacency.
// Caller holds c.mu.
func (ct *clusterTrunk) addLaneLocked(vid uint16) error {
	for i, tl := range ct.links {
		if err := tl.tr.AddLane(vid); err != nil {
			for _, prev := range ct.links[:i] {
				_ = prev.tr.RemoveLane(vid)
			}
			return err
		}
	}
	ct.lanes[vid] = true
	return nil
}

// dismantleLinkLocked stops one link's pumps and detaches its NICs. Caller
// holds c.mu; call drainDeadLink after unlocking to reclaim queued buffers.
func (c *Cluster) dismantleLinkLocked(pair pairKey, tl *trunkLink) {
	tl.tr.Stop()
	_ = c.nodes[pair.lo].RemoveNIC(tl.nameLo)
	_ = c.nodes[pair.hi].RemoveNIC(tl.nameHi)
}

// drainDeadLink waits out PMD iterations still holding the old port
// snapshots, then reclaims whatever is parked in the dead link's NIC queues
// (pumps and PMDs are both gone, so the drains see quiescent rings).
func (c *Cluster) drainDeadLink(pair pairKey, tl *trunkLink) {
	if tl.drained.Swap(true) {
		// The NIC queues are single-consumer: a second drain racing the
		// first would free buffers twice.
		panic("orchestrator: dead trunk link drained twice")
	}
	c.nodes[pair.lo].Switch.WaitDatapathQuiescence()
	c.nodes[pair.hi].Switch.WaitDatapathQuiescence()
	tl.nicLo.Reclaim()
	tl.nicHi.Reclaim()
}

// releaseLane frees one lane hop on an adjacency and, when the adjacency
// has no lanes left, tears the whole bundle down: pumps stopped, NICs
// detached, queues drained. Registry removal, pump stop and NIC detachment
// all happen inside the critical section, so a concurrent Deploy on the
// same node pair either still finds the adjacency (and joins it) or finds
// the NIC names free — it can never hit a half-dismantled bundle's name
// reservation.
func (c *Cluster) releaseLane(pair pairKey, vid uint16) {
	c.mu.Lock()
	ct, ok := c.trunks[pair]
	if !ok {
		c.mu.Unlock()
		return
	}
	delete(ct.lanes, vid)
	for _, tl := range ct.links {
		_ = tl.tr.RemoveLane(vid)
	}
	if len(ct.lanes) > 0 {
		c.mu.Unlock()
		return
	}
	// Last lane gone: dismantle the bundle. Stop the pumps (bounded: the
	// poller detaches them within two iterations) and detach the NICs
	// before unlocking.
	delete(c.trunks, pair)
	var dead []*trunkLink
	for _, tl := range ct.links {
		if tl.failed {
			// FailTrunk/FailNode already dismantled this link and own its
			// drain, which may still be running: the NIC queues are
			// single-consumer, so a second drain would free buffers twice.
			continue
		}
		c.dismantleLinkLocked(pair, tl)
		dead = append(dead, tl)
	}
	if len(c.trunks) == 0 && c.poller != nil {
		// Symmetric with the lazy create in ensureTrunk: the last trunk
		// takes the shared poller goroutine with it, so a trunk-less
		// cluster is back to zero idle wakeups (a later Deploy recreates
		// it).
		c.poller.Stop()
		c.poller = nil
	}
	c.mu.Unlock()

	for _, tl := range dead {
		c.drainDeadLink(pair, tl)
	}
}

// laneSteer is one crossing's steering intent: the crossing, its
// cluster-wide VLAN id (0 until realizeLane allocates one) and the adjacency
// paths it rides (a single one-hop path in mesh mode, one two-hop path per
// spine in a k-spine core; the vid is registered on every trunk of every
// path). Hop port snapshots are deliberately NOT stored: they are recaptured
// under Cluster.mu every time rules are (re)derived, so a repaired bundle's
// fresh ports flow into the next reconcile pass automatically.
type laneSteer struct {
	ce    graph.CrossEdge
	vid   uint16
	paths [][]pairKey
}

// eachPair visits every adjacency of every path, in path-then-hop order.
func (st laneSteer) eachPair(fn func(pairKey)) {
	for _, path := range st.paths {
		for _, pair := range path {
			fn(pair)
		}
	}
}

// realizeLane makes the steer's lane real and whole, idempotently: a fresh
// steer gets its vid and paths; then every adjacency of every path is
// created if absent, has its failed bundle slots rebuilt in place, and
// carries the vid. It is the only place adjacencies are created and lanes
// registered — Deploy calls it for fresh steers, Migrate for the crossings a
// move adds, Reconcile for all of them. Returns the number of things it had
// to create or repair (0 = the fabric already matched). Vid and paths are
// recorded in the steer BEFORE any hop is attempted, so after a failure
// releaseSteers removes whatever hops did register first and only then
// returns the vid to the allocator — freeing it while earlier hops still
// carry it would let a concurrent Deploy be handed a vid that is live on
// other trunks. Caller holds c.mu.
func (c *Cluster) realizeLane(st *laneSteer, spines []string, tcfg TrunkConfig) (int, error) {
	if st.vid == 0 {
		vid, err := c.allocVidLocked()
		if err != nil {
			return 0, err
		}
		st.vid, st.paths = vid, c.paths(st.ce.NodeA, st.ce.NodeB, spines, tcfg)
	}
	repairs := 0
	for _, path := range st.paths {
		for _, pair := range path {
			_, existed := c.trunks[pair]
			ct, err := c.ensureTrunk(pair, tcfg)
			if err != nil {
				return repairs, err
			}
			if !existed {
				repairs++
			}
			n, err := c.repairTrunkLocked(ct)
			repairs += n
			if err != nil {
				return repairs, err
			}
			if !ct.lanes[st.vid] {
				if err := ct.addLaneLocked(st.vid); err != nil {
					return repairs, err
				}
				repairs++
			}
		}
	}
	return repairs, nil
}

// releaseSteers unwinds realizeLane for each steer: its hops come off every
// adjacency of its paths (an adjacency dies with its last lane), and only
// then does its vid return to the allocator. Safe on half-realized steers —
// releasing a hop that never registered is a no-op.
func (c *Cluster) releaseSteers(sts []laneSteer) {
	for _, st := range sts {
		if st.vid == 0 {
			continue
		}
		st.eachPair(func(pair pairKey) { c.releaseLane(pair, st.vid) })
		c.mu.Lock()
		delete(c.vids, st.vid)
		c.mu.Unlock()
	}
}

// ClusterDeployment is a service graph deployed across a cluster: one local
// deployment per participating node plus the trunk lanes realizing the
// cross-node edges (and, in spine mode, the relay rules on the spine). It
// retains its DESIRED state — the graph, fabric config and lane
// assignments — so the reconciler can re-derive what every node's flow
// table and the trunk registry should hold and repair drift.
type ClusterDeployment struct {
	cluster *Cluster
	// mu serializes control-plane operations on this deployment: reconcile
	// passes, live migration and teardown.
	mu      sync.Mutex
	stopped bool

	// migrating names the VNF whose live migration currently owns the
	// deployment (empty when none). It stays set while Migrate RELEASES
	// cd.mu for its drain window, so control-plane entrants can tell "lock
	// free" from "deployment free": a second Migrate fails with
	// ErrMigrationInFlight, Reconcile defers its pass, Stop waits on
	// migDone. Guarded by mu; migDone is created on first use.
	migrating string
	migDone   *sync.Cond
	// testDrainHold, when set, is invoked at the start of the migration
	// drain window (after cd.mu is released); tests use it to hold the
	// drain open while probing concurrent control-plane behavior.
	testDrainHold func()

	graph  *graph.Graph
	tcfg   TrunkConfig
	spines []string

	deps   map[string]*Deployment
	steers []laneSteer
	// live is set once the generators run: from then on install lets the
	// datapath see freshly added ports before any rule names them.
	live bool
	// steerCookie stamps relay rules installed on nodes that host none of
	// the deployment's VNFs (the spine), so prune can find exactly them.
	steerCookie uint64
}

// hopSnapshot is an adjacency's bundle ports captured under Cluster.mu, so
// the unlocked steering-install phase of Deploy never reads ct.links while
// a concurrent FailTrunk mutates it.
type hopSnapshot struct {
	pair             pairKey
	portsLo, portsHi []uint32
}

// snapshotHop captures the bundle's ports on both nodes. Caller holds
// Cluster.mu.
func snapshotHop(ct *clusterTrunk) hopSnapshot {
	return hopSnapshot{
		pair:    ct.pair,
		portsLo: ct.ports(ct.pair.lo),
		portsHi: ct.ports(ct.pair.hi),
	}
}

// ports returns the snapshot's switch port ids on the given node.
func (h hopSnapshot) ports(node string) []uint32 {
	if node == h.pair.lo {
		return h.portsLo
	}
	return h.portsHi
}

// outputTo returns the action steering a frame into the given trunk ports:
// plain output for a single trunk, hash-pinned ECMP spread for a bundle.
func outputTo(ports []uint32) flow.Action {
	if len(ports) == 1 {
		return flow.Output(ports[0])
	}
	return flow.OutputECMP(ports...)
}

// Deploy partitions g by VNF placement (unlabeled VNFs land on the default
// node), allocates a cluster-wide VLAN lane for every boundary crossing and
// registers it on every trunk of the crossing's fabric path (creating
// adjacencies on first use), and lowers each partition on its node.
// Crossing edges lower to vlan steering: the sending side pushes the lane's
// tag (stamping the edge's PCP priority for the trunk scheduler when set)
// and outputs into the union of its paths' first-hop bundles — hash-pinned
// ECMP when that union is wider than one trunk, so with k spines a leaf–leaf
// crossing spreads over k × bundle-width uplinks; in spine mode each spine's
// vSwitch relays the tagged lane between its trunk ports; the receiving side
// matches (trunk port, vid), strips the tag and outputs to the target VNF
// port. The per-node lowering is exactly the single-node Deploy path, so in
// highway mode each node's detector establishes bypasses for its intra-node
// hops while the trunk hops stay on the NIC path — the highway survives the
// split, and all crossings of an adjacency contend for its shared uplink
// exactly like a ToR fabric. The steps run in the deploy transaction's one
// order (DESIGN.md "Deploy transaction"): realize lanes, instantiate,
// install rules, start generators.
func (c *Cluster) Deploy(g *graph.Graph, tcfg TrunkConfig) (*ClusterDeployment, error) {
	part, err := g.Partition(c.DefaultNode(), c.nicNodes())
	if err != nil {
		return nil, err
	}
	for node := range part.Local {
		if c.nodes[node] == nil {
			return nil, fmt.Errorf("orchestrator: graph places VNFs on unknown node %q (cluster has %v)", node, c.order)
		}
	}
	spines, err := c.spineNodes(tcfg)
	if err != nil {
		return nil, err
	}
	cd := &ClusterDeployment{
		cluster:     c,
		graph:       g,
		tcfg:        tcfg,
		spines:      spines,
		deps:        make(map[string]*Deployment),
		steerCookie: DeployCookieBase | deployCookieSeq.Add(1),
	}
	fail := func(err error) (*ClusterDeployment, error) {
		cd.Stop()
		return nil, err
	}

	// Realize the crossings first, so the steering rules have trunk ports
	// and vids to reference. A half-realized steer is recorded before the
	// failure returns: Stop releases it.
	c.mu.Lock()
	for _, ce := range part.Cross {
		st := laneSteer{ce: ce}
		_, err := c.realizeLane(&st, spines, tcfg)
		cd.steers = append(cd.steers, st)
		if err != nil {
			c.mu.Unlock()
			return fail(err)
		}
	}
	c.mu.Unlock()

	// Instantiate each partition on its node. The local graphs came out of
	// Partition validated and hold no crossing edges.
	for _, node := range c.order {
		lg, ok := part.Local[node]
		if !ok {
			continue
		}
		dep, err := c.nodes[node].lower(lg)
		if err != nil {
			return fail(fmt.Errorf("orchestrator: node %s: %w", node, err))
		}
		cd.deps[node] = dep
	}

	// Install every node's local and lane rules in one batch per node, and
	// only then let the generators go.
	desired, err := cd.desiredSpecs()
	if err != nil {
		return fail(err)
	}
	cd.install(desired)
	for _, d := range cd.deps {
		d.startGenerators()
	}
	cd.live = true
	c.mu.Lock()
	c.deployments[cd] = true
	c.mu.Unlock()
	return cd, nil
}

// snapshotPaths captures fresh hop port snapshots for each of a steer's
// adjacency paths under Cluster.mu — the only safe way to read bundle ports
// while FailTrunk/repair mutate link slots concurrently.
func (c *Cluster) snapshotPaths(paths [][]pairKey) ([][]hopSnapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]hopSnapshot, 0, len(paths))
	for _, pairs := range paths {
		hops := make([]hopSnapshot, 0, len(pairs))
		for _, pair := range pairs {
			ct, ok := c.trunks[pair]
			if !ok {
				return nil, fmt.Errorf("%w: %s-%s vanished from the fabric", ErrUnknownAdjacency, pair.lo, pair.hi)
			}
			hops = append(hops, snapshotHop(ct))
		}
		out = append(out, hops)
	}
	return out, nil
}

// steerSpecsInto derives the crossing's steering rules against the fabric's
// CURRENT ports and appends them per node — the desired-state generator
// shared by Deploy, the reconciler and live migration. Endpoint-node rules
// are stamped with that node's deployment cookie (teardown reclaims them
// with the deployment); relay rules on pass-through nodes carry the
// deployment's steer cookie instead.
func (cd *ClusterDeployment) steerSpecsInto(st laneSteer, specs map[string][]flow.FlowSpec) error {
	paths, err := cd.cluster.snapshotPaths(st.paths)
	if err != nil {
		return err
	}
	if err := cd.steerDir(st, st.ce.NodeA, st.ce.A, st.ce.NodeB, st.ce.B, paths, specs); err != nil {
		return err
	}
	if st.ce.Bidirectional {
		rev := make([][]hopSnapshot, len(paths))
		for i, hops := range paths {
			r := make([]hopSnapshot, len(hops))
			for j, h := range hops {
				r[len(r)-1-j] = h
			}
			rev[i] = r
		}
		if err := cd.steerDir(st, st.ce.NodeB, st.ce.B, st.ce.NodeA, st.ce.A, rev, specs); err != nil {
			return err
		}
	}
	return nil
}

// steerDir lowers one direction of a crossing: sender tag+fan-in, per-hop
// relays on each path, receiver strip+deliver. With k spine paths the
// sender's fan-in is a single ECMP spread over the UNION of every path's
// first-hop bundle ports (path order, then bundle order) — one rule, so the
// PMD's hash pin (and its congestion-aware repick) chooses both the spine
// and the trunk within its bundle in one pick. Paths whose first hop has no
// live ports are left out of the union; the direction only errors when NO
// path can carry it.
func (cd *ClusterDeployment) steerDir(st laneSteer, fromNode string, fromEp graph.Endpoint, toNode string, toEp graph.Endpoint, paths [][]hopSnapshot, specs map[string][]flow.FlowSpec) error {
	src, err := cd.deps[fromNode].resolve(fromEp)
	if err != nil {
		return err
	}
	dst, err := cd.deps[toNode].resolve(toEp)
	if err != nil {
		return err
	}
	var sendPorts []uint32
	recvLive := false
	for _, hops := range paths {
		sendPorts = append(sendPorts, hops[0].ports(fromNode)...)
		if len(hops[len(hops)-1].ports(toNode)) > 0 {
			recvLive = true
		}
	}
	if len(sendPorts) == 0 || !recvLive {
		// Every link of the entry (or exit) hop of every path is dead: there
		// is nothing to steer into. The reconciler repairs bundles before
		// re-deriving specs, so hitting this means repair itself failed —
		// surface it.
		return fmt.Errorf("orchestrator: lane %d of %s→%s has no live trunk ports", st.vid, fromNode, toNode)
	}
	// Sender: tag, stamp the crossing priority, fan into the union of
	// first hops.
	acts := flow.Actions{flow.PushVlan(st.vid)}
	if st.ce.PCP != 0 {
		acts = append(acts, flow.SetVlanPcp(st.ce.PCP))
	}
	acts = append(acts, outputTo(sendPorts))
	specs[fromNode] = append(specs[fromNode], flow.FlowSpec{
		Priority: cd.deps[fromNode].flowPrio,
		Match:    flow.MatchInPort(src),
		Actions:  acts,
		Cookie:   cd.deps[fromNode].cookie,
	})
	for _, hops := range paths {
		// Relays: on each intermediate node of this path, forward the tagged
		// lane from every inbound trunk port of one hop into the next hop's
		// bundle.
		relay := fromNode
		for h := 0; h+1 < len(hops); h++ {
			next := hops[h].pair.lo
			if next == relay {
				next = hops[h].pair.hi
			}
			prio := uint16(10)
			if d := cd.deps[next]; d != nil {
				prio = d.flowPrio
			}
			for _, inPort := range hops[h].ports(next) {
				specs[next] = append(specs[next], flow.FlowSpec{
					Priority: prio,
					Match:    flow.MatchInPort(inPort).WithVlan(st.vid),
					Actions:  flow.Actions{outputTo(hops[h+1].ports(next))},
					Cookie:   cd.steerCookie,
				})
			}
			relay = next
		}
		// Receiver: match every inbound trunk port of this path's last hop,
		// strip the tag, deliver.
		for _, inPort := range hops[len(hops)-1].ports(toNode) {
			specs[toNode] = append(specs[toNode], flow.FlowSpec{
				Priority: cd.deps[toNode].flowPrio,
				Match:    flow.MatchInPort(inPort).WithVlan(st.vid),
				Actions:  flow.Actions{flow.PopVlan(), flow.Output(dst)},
				Cookie:   cd.deps[toNode].cookie,
			})
		}
	}
	return nil
}

// NodeLoads estimates each node's background load in VNF-equivalents for
// placement: the cluster's already-deployed VNF mass (VM port pairs)
// apportioned by each node's measured datapath traffic — the MOVEMENT of
// its vswitch port RX counters since the previous NodeLoads call, not the
// since-boot totals, so a chain that was busy an hour ago but idles now
// stops skewing placement (the same snapshot-and-diff idiom as
// DatapathStats.Delta). A node carrying most of the recent packets counts
// as hosting most of the load, which is what distinguishes a busy short
// chain from an idle long one. With no traffic observed in the interval
// (including the first call), the VM count alone is the load.
//
// Trunk-port RX is excluded: a relay-only spine receives every leaf–leaf
// frame on its trunk ports but hosts none of the VNF work, and counting
// that forwarding as load would repel placements from the node best wired
// to host them. Only traffic arriving on VM and external NIC ports — the
// packets a node's own VNFs actually handle — counts.
func (c *Cluster) NodeLoads() []float64 {
	trunkRx := make([]map[uint32]bool, len(c.order))
	for i := range c.order {
		trunkRx[i] = make(map[uint32]bool)
	}
	c.mu.Lock()
	for pair, ct := range c.trunks {
		for _, tl := range ct.links {
			trunkRx[c.nodeIndex(pair.lo)][tl.portLo] = true
			trunkRx[c.nodeIndex(pair.hi)][tl.portHi] = true
		}
	}
	c.mu.Unlock()
	loads := make([]float64, len(c.order))
	var totalVNFs, totalDelta float64
	rx := make([]float64, len(c.order))
	delta := make([]float64, len(c.order))
	for i, name := range c.order {
		n := c.nodes[name]
		loads[i] = float64(n.VMPortCount()) / 2
		totalVNFs += loads[i]
		for _, ps := range n.Switch.AllPortStats() {
			if trunkRx[i][ps.PortNo] {
				continue
			}
			rx[i] += float64(ps.RxPackets)
		}
	}
	c.mu.Lock()
	first := c.loadRx == nil
	for i := range rx {
		if !first && rx[i] >= c.loadRx[i] {
			delta[i] = rx[i] - c.loadRx[i]
		}
		totalDelta += delta[i]
	}
	c.loadRx = rx
	c.mu.Unlock()
	if totalDelta == 0 || totalVNFs == 0 {
		return loads
	}
	for i := range loads {
		loads[i] = totalVNFs * delta[i] / totalDelta
	}
	return loads
}

// Cordon excludes a node from automatic placement: DeployPlaced and the
// rebalance controller will not assign unpinned VNFs to it. Running VNFs
// are untouched (Drain evacuates them) and explicitly pinned graphs still
// deploy there — a cordon is an operator intent, not a fault. Idempotent.
func (c *Cluster) Cordon(node string) error {
	if c.nodes[node] == nil {
		return fmt.Errorf("orchestrator: cordon: unknown node %q (cluster has %v)", node, c.order)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cordoned == nil {
		c.cordoned = make(map[string]bool)
	}
	c.cordoned[node] = true
	return nil
}

// Uncordon returns a node to the placement pool. Idempotent.
func (c *Cluster) Uncordon(node string) error {
	if c.nodes[node] == nil {
		return fmt.Errorf("orchestrator: uncordon: unknown node %q (cluster has %v)", node, c.order)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cordoned, node)
	return nil
}

// CordonedNodes lists the currently cordoned nodes in cluster order.
func (c *Cluster) CordonedNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, name := range c.order {
		if c.cordoned[name] {
			out = append(out, name)
		}
	}
	return out
}

// placementExclusions builds the per-node placement exclusion mask (indexed
// like c.order): cordoned nodes always, plus — when withFaults is set —
// every node touching a failed trunk slot, so a controller never targets a
// node whose fabric attachment is degraded. The second result reports
// whether any failed slot exists at all (the controller's defer signal),
// independent of withFaults.
func (c *Cluster) placementExclusions(withFaults bool) ([]bool, bool) {
	excluded := make([]bool, len(c.order))
	c.mu.Lock()
	defer c.mu.Unlock()
	for name := range c.cordoned {
		excluded[c.nodeIndex(name)] = true
	}
	anyFailed := false
	for pair, ct := range c.trunks {
		for _, tl := range ct.links {
			if tl.failed {
				anyFailed = true
				if withFaults {
					excluded[c.nodeIndex(pair.lo)] = true
					excluded[c.nodeIndex(pair.hi)] = true
				}
			}
		}
	}
	return excluded, anyFailed
}

// placeOptions assembles the optimizer inputs shared by DeployPlaced and
// the rebalance controller: measured load-weighted balance, spine-aware
// fabric distances (leaf–leaf relays cost 2), and node exclusions.
func (c *Cluster) placeOptions(loads []float64, spines []string, excluded []bool) graph.PlaceOptions {
	opts := graph.PlaceOptions{NodeLoad: loads, Excluded: excluded}
	if len(spines) > 0 {
		isSpine := make(map[int]bool, len(spines))
		for i, name := range c.order {
			for _, s := range spines {
				if name == s {
					isSpine[i] = true
				}
			}
		}
		opts.Dist = func(a, b int) int {
			if isSpine[a] || isSpine[b] {
				return 1
			}
			return 2
		}
	}
	return opts
}

// DeployPlaced optimizes the graph's placement first — Graph.PlaceWith
// assigns every unpinned VNF a node, minimizing fabric hop cost (leaf–leaf
// crossings through a spine cost 2) under load-weighted balance (NodeLoads),
// skipping cordoned nodes — and then deploys the placed graph. The chosen
// crossing count is returned alongside the deployment.
func (c *Cluster) DeployPlaced(g *graph.Graph, tcfg TrunkConfig) (*ClusterDeployment, int, error) {
	spines, err := c.spineNodes(tcfg)
	if err != nil {
		return nil, 0, err
	}
	excluded, _ := c.placementExclusions(false)
	opts := c.placeOptions(c.NodeLoads(), spines, excluded)
	crossings, err := g.PlaceWith(c.order, c.nicNodes(), opts)
	if err != nil {
		return nil, 0, err
	}
	cd, err := c.Deploy(g, tcfg)
	if err != nil {
		return nil, 0, err
	}
	return cd, crossings, nil
}

// Deployment returns the named node's local deployment (nil if the node
// hosts no VNFs).
func (cd *ClusterDeployment) Deployment(node string) *Deployment { return cd.deps[node] }

// Crossings reports the deployment's current node-boundary crossing count
// under its live placement — the number of trunk lanes the layout pays for.
func (cd *ClusterDeployment) Crossings() int {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	return cd.graph.Crossings(cd.cluster.DefaultNode(), cd.cluster.nicNodes())
}

// ordered returns the local deployments in cluster node order.
func (cd *ClusterDeployment) ordered() []*Deployment {
	out := make([]*Deployment, 0, len(cd.deps))
	for _, node := range cd.cluster.order {
		if d := cd.deps[node]; d != nil {
			out = append(out, d)
		}
	}
	return out
}

// SrcSink finds a named bidirectional endpoint VNF across all partitions.
func (cd *ClusterDeployment) SrcSink(name string) *vnf.SrcSink {
	return first(handles[*vnf.SrcSink](name, cd.ordered()...))
}

// Sink finds a named sink VNF across all partitions.
func (cd *ClusterDeployment) Sink(name string) *vnf.Sink {
	return first(handles[*vnf.Sink](name, cd.ordered()...))
}

// Sources returns every source VNF across all partitions.
func (cd *ClusterDeployment) Sources() []*vnf.Source {
	return handles[*vnf.Source]("", cd.ordered()...)
}

// NAT44 finds a named stateful NAT VNF across all partitions.
func (cd *ClusterDeployment) NAT44(name string) *vnf.NAT44 {
	return first(handles[*vnf.NAT44](name, cd.ordered()...))
}

// ACL finds a named stateful firewall VNF across all partitions.
func (cd *ClusterDeployment) ACL(name string) *vnf.ACL {
	return first(handles[*vnf.ACL](name, cd.ordered()...))
}

// Balancer finds a named L4 balancer VNF across all partitions.
func (cd *ClusterDeployment) Balancer(name string) *vnf.Balancer {
	return first(handles[*vnf.Balancer](name, cd.ordered()...))
}

// BypassCount sums the live bypass links touching the deployment's own
// ports on every node it spans.
func (cd *ClusterDeployment) BypassCount() int {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	total := 0
	for _, d := range cd.deps {
		total += d.BypassCount()
	}
	return total
}

// WaitBypassCount blocks (bounded) until exactly want of the deployment's
// own bypasses are live.
func (cd *ClusterDeployment) WaitBypassCount(want int) bool {
	return waitCond(func() bool { return cd.BypassCount() == want })
}

// Trunks returns the trunks this deployment's lanes ride, ordered by node
// pair then bundle index (shared adjacencies appear once even when several
// lanes use them).
func (cd *ClusterDeployment) Trunks() []*trunk.Trunk {
	cd.cluster.mu.Lock()
	defer cd.cluster.mu.Unlock()
	seen := make(map[pairKey]bool)
	var out []*trunk.Trunk
	for _, ln := range cd.steers {
		ln.eachPair(func(pair pairKey) {
			if seen[pair] {
				return
			}
			seen[pair] = true
			if ct, ok := cd.cluster.trunks[pair]; ok {
				out = append(out, ct.liveTrunks()...)
			}
		})
	}
	return out
}

// Lane is one hop of a deployment's lane assignment: the adjacency and the
// vid riding it.
type Lane struct {
	NodeA, NodeB string
	VID          uint16
}

// Lanes returns the deployment's (node pair, vid) lane assignments in
// crossing order; a spine-relayed lane appears once per hop.
func (cd *ClusterDeployment) Lanes() []Lane {
	var out []Lane
	for _, ln := range cd.steers {
		ln.eachPair(func(pair pairKey) {
			out = append(out, Lane{NodeA: pair.lo, NodeB: pair.hi, VID: ln.vid})
		})
	}
	return out
}

// Stop is the deploy transaction in reverse: generators paused on every
// node, then the deployment's rules pruned everywhere (relay rules on
// pass-through nodes included), then the local deployments retired
// (bypasses dissolved, VMs destroyed), then the lanes released — and with an
// adjacency's last lane the whole bundle, its pumps stopped, NICs detached
// and queues drained. Lanes of co-resident deployments on the same trunks
// keep flowing.
func (cd *ClusterDeployment) Stop() {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	// A migration's drain window owns the deployment even though it has
	// released cd.mu; tearing down under it would destroy the VMs and lanes
	// the drain is reading. Wait it out first.
	cd.waitMigrationDone()
	if cd.stopped {
		return
	}
	cd.stopped = true
	cd.cluster.mu.Lock()
	delete(cd.cluster.deployments, cd)
	cd.cluster.mu.Unlock()
	deps := cd.ordered()
	for _, d := range deps {
		d.pauseGenerators()
	}
	cd.prune(nil)
	for _, d := range deps {
		d.Stop()
	}
	cd.deps = map[string]*Deployment{}
	cd.cluster.releaseSteers(cd.steers)
	cd.steers = nil
}
