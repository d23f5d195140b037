// Package orchestrator assembles a complete NFV node — vSwitch, compute
// agent, shared-memory registry, p-2-p detector and bypass manager — and
// lowers service graphs onto it (Figure 1(b) of the paper). It is the
// engine behind the public highway API and the experiment harness.
package orchestrator

import (
	"fmt"
	"sync"
	"time"

	"ovshighway/internal/agent"
	"ovshighway/internal/conntrack"
	"ovshighway/internal/core"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/mempool"
	"ovshighway/internal/nic"
	"ovshighway/internal/shm"
	"ovshighway/internal/vswitch"
)

// Mode selects the datapath variant: the vanilla OVS-DPDK baseline or the
// paper's transparent-highway extension.
type Mode int

// Datapath modes.
const (
	ModeVanilla Mode = iota // all traffic crosses the vSwitch
	ModeHighway             // p-2-p links bypass the vSwitch dynamically
)

func (m Mode) String() string {
	if m == ModeHighway {
		return "highway"
	}
	return "vanilla"
}

// NodeConfig parametrizes a Node. Zero values take defaults.
type NodeConfig struct {
	Mode       Mode
	Switch     vswitch.Config
	Agent      agent.Config
	RingSize   int // dpdkr and bypass ring size; default dpdkr.DefaultRingSize
	PoolSize   int // shared packet pool population; default 8192
	BufSize    int // packet buffer size; default 2048
	DrainTO    time.Duration
	OnBypassUp func(from, to uint32, setup time.Duration)

	// NumQueues is the RSS queue count of every VM-facing dpdkr port the
	// node creates; default 1 (classic single-queue ports).
	NumQueues int
	// AutoBalance starts the datapath load balancer alongside the switch:
	// per-PMD busy fractions are sampled every BalanceInterval and queues
	// re-home off the hottest PMD when the spread exceeds BalanceSpread
	// (zero values take the balancer's defaults: 100ms, 0.2).
	AutoBalance     bool
	BalanceInterval time.Duration
	BalanceSpread   float64

	// ConntrackCapacity/ConntrackIdle size the connection table each
	// stateful VNF gets when it deploys (zero values take the conntrack
	// defaults: 65536 entries, 30s idle).
	ConntrackCapacity int
	ConntrackIdle     time.Duration
}

// Node is one NFV compute node.
type Node struct {
	cfg NodeConfig

	Switch   *vswitch.Switch
	Agent    *agent.Agent
	Registry *shm.Registry
	Pool     *mempool.Pool
	Detector *core.Detector
	Manager  *core.Manager
	Balancer *core.Balancer

	mu       sync.Mutex
	nextPort uint32
	vmPorts  []uint32               // candidate ports for the detector
	ports    map[uint32]*dpdkr.Port // host-side port objects, for teardown drains
	nicByNm  map[string]uint32      // NIC name → port id
	stopped  bool
}

// NewConntrack builds a connection table sized by the node's config and
// attaches it to the vSwitch sweeper. Each stateful VNF gets its OWN table:
// a table shard has a single writer (the owning app goroutine), and VNFs at
// different points of a chain see different 5-tuples for the same
// connection anyway (a NAT keys on the pre-translation tuple, the balancer
// behind it on the post-translation one) — sharing a node-wide table would
// both break the single-writer contract and collide those key spaces.
// Shards follow the RSS queue count. Like the flow table, attached tables
// survive a vSwitch Restart: connection state is node-local, rules are
// reconciled.
func (n *Node) NewConntrack() (*conntrack.Table, error) {
	shards := n.cfg.NumQueues
	if shards <= 0 {
		shards = 1
	}
	ct, err := conntrack.New(conntrack.Config{
		Shards:      shards,
		Capacity:    n.cfg.ConntrackCapacity,
		IdleTimeout: n.cfg.ConntrackIdle,
	})
	if err != nil {
		return nil, err
	}
	n.Switch.AttachConntrack(ct)
	return ct, nil
}

// NewNode builds and starts a node (switch PMDs running; in highway mode the
// detector and manager are live as well).
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.RingSize == 0 {
		cfg.RingSize = dpdkr.DefaultRingSize
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 8192
	}
	if cfg.BufSize == 0 {
		cfg.BufSize = 2048
	}
	n := &Node{
		cfg:      cfg,
		Switch:   vswitch.New(cfg.Switch),
		Registry: shm.NewRegistry(),
		nextPort: 1,
		ports:    make(map[uint32]*dpdkr.Port),
		nicByNm:  make(map[string]uint32),
	}
	var err error
	n.Pool, err = mempool.New(mempool.Config{Capacity: cfg.PoolSize, BufSize: cfg.BufSize})
	if err != nil {
		return nil, err
	}
	n.Switch.SetInjectionPool(n.Pool)
	n.Agent = agent.New(n.Registry, cfg.Agent)

	if cfg.Mode == ModeHighway {
		n.Detector = core.NewDetector(n.Switch.Table(), n.candidatePorts)
		n.Manager = core.NewManager(n.Switch, n.Registry, n.Agent, n.Detector, core.ManagerConfig{
			RingSize:      cfg.RingSize,
			DrainTimeout:  cfg.DrainTO,
			OnEstablished: cfg.OnBypassUp,
		})
		go n.Manager.Run()
	}
	if err := n.Switch.Start(); err != nil {
		return nil, err
	}
	if cfg.AutoBalance {
		n.Balancer = core.NewBalancer(n.Switch, core.BalancerConfig{
			Interval:        cfg.BalanceInterval,
			SpreadThreshold: cfg.BalanceSpread,
		})
		go n.Balancer.Run()
	}
	return n, nil
}

// Stop tears the node down: manager (and all bypasses) first, then the
// switch threads.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	if n.Balancer != nil {
		n.Balancer.Stop()
	}
	if n.Manager != nil {
		n.Manager.Stop()
	}
	n.Switch.Stop()
}

// Mode returns the node's datapath mode.
func (n *Node) Mode() Mode { return n.cfg.Mode }

// VMPortCount reports the number of live VM-facing dpdkr ports — two per
// typical VNF — which NodeLoads converts into VNF-equivalents.
func (n *Node) VMPortCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.vmPorts)
}

func (n *Node) candidatePorts() []uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]uint32(nil), n.vmPorts...)
}

func (n *Node) allocPortID() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.allocPortIDLocked()
}

// allocPortIDLocked is allocPortID for callers already holding n.mu.
func (n *Node) allocPortIDLocked() uint32 {
	id := n.nextPort
	n.nextPort++
	return id
}

// CreateVM provisions a VM with nports fresh dpdkr ports attached to the
// switch, registers it with the agent, and returns the guest PMDs in
// creation order alongside the allocated port ids.
func (n *Node) CreateVM(name string, nports int) ([]uint32, []*dpdkr.PMD, error) {
	ids := make([]uint32, 0, nports)
	pmds := make([]*dpdkr.PMD, 0, nports)
	byID := make(map[uint32]*dpdkr.PMD, nports)
	for i := 0; i < nports; i++ {
		id := n.allocPortID()
		port, pmd, err := dpdkr.NewPortMQ(id, fmt.Sprintf("dpdkr%d", id), n.cfg.RingSize, n.cfg.NumQueues)
		if err != nil {
			return nil, nil, err
		}
		if err := n.Switch.AddPort(port); err != nil {
			return nil, nil, err
		}
		ids = append(ids, id)
		pmds = append(pmds, pmd)
		byID[id] = pmd
	}
	if _, err := n.Agent.CreateVM(name, byID); err != nil {
		for _, id := range ids {
			_ = n.Switch.RemovePort(id)
		}
		return nil, nil, err
	}
	n.mu.Lock()
	n.vmPorts = append(n.vmPorts, ids...)
	for _, id := range ids {
		if p, ok := n.Switch.Port(id).(*dpdkr.Port); ok {
			n.ports[id] = p
		}
	}
	n.mu.Unlock()
	if n.Detector != nil {
		n.Detector.Poke()
	}
	return ids, pmds, nil
}

// DestroyVM removes a VM and its ports from the node.
func (n *Node) DestroyVM(name string, ids []uint32) error {
	if err := n.Agent.DestroyVM(name); err != nil {
		return err
	}
	n.mu.Lock()
	keep := n.vmPorts[:0]
	drop := make(map[uint32]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	for _, id := range n.vmPorts {
		if !drop[id] {
			keep = append(keep, id)
		}
	}
	n.vmPorts = keep
	n.mu.Unlock()
	for _, id := range ids {
		_ = n.Switch.RemovePort(id)
	}
	// Wait for in-flight PMD iterations still holding the old port snapshot,
	// then — with the forwarding engine and the (destroyed) VM both
	// detached — free whatever was parked in the normal channels.
	n.Switch.WaitDatapathQuiescence()
	n.mu.Lock()
	for _, id := range ids {
		if p, ok := n.ports[id]; ok {
			p.Drain()
			delete(n.ports, id)
		}
	}
	n.mu.Unlock()
	if n.Detector != nil {
		n.Detector.Poke()
	}
	return nil
}

// portBacklog reports a port's normal-channel backlog in both directions —
// frames queued toward the VM plus frames the VM transmitted that the
// forwarding engine has not yet picked up. The migration drain's emptiness
// probe: a frame parked in either ring when the VM is destroyed would be
// freed, not delivered. Returns 0 for unknown ports.
func (n *Node) portBacklog(id uint32) int {
	n.mu.Lock()
	p := n.ports[id]
	n.mu.Unlock()
	if p == nil {
		return 0
	}
	return p.NormalBacklog() + p.ReturnBacklog()
}

// AddNIC attaches a simulated physical NIC to the switch under the given
// graph-visible name.
func (n *Node) AddNIC(name string, cfg nic.Config) (*nic.NIC, error) {
	// Duplicate check, port-id allocation and name registration happen in
	// one critical section: a check-then-act gap would let two concurrent
	// AddNIC calls both pass and silently shadow one port behind the other
	// — teardown of either NIC then detaches the wrong one.
	n.mu.Lock()
	if _, dup := n.nicByNm[name]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("orchestrator: NIC name %q already in use", name)
	}
	if cfg.ID == 0 {
		cfg.ID = n.allocPortIDLocked()
	}
	n.nicByNm[name] = cfg.ID
	n.mu.Unlock()
	unregister := func() {
		n.mu.Lock()
		delete(n.nicByNm, name)
		n.mu.Unlock()
	}
	if cfg.Name == "" {
		cfg.Name = name
	}
	dev, err := nic.New(cfg)
	if err != nil {
		unregister()
		return nil, err
	}
	if err := n.Switch.AddPort(dev); err != nil {
		unregister()
		return nil, err
	}
	return dev, nil
}

// NICPort resolves a NIC name to its switch port id.
func (n *Node) NICPort(name string) (uint32, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id, ok := n.nicByNm[name]
	return id, ok
}

// NICNames lists the NICs registered on this node (any order). The cluster
// deployer uses it to resolve NIC graph endpoints to their home nodes.
func (n *Node) NICNames() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.nicByNm))
	for name := range n.nicByNm {
		out = append(out, name)
	}
	return out
}

// RemoveNIC detaches a previously-added NIC from the switch and forgets its
// name. The caller is responsible for draining the device's queues once the
// datapath has quiesced.
func (n *Node) RemoveNIC(name string) error {
	n.mu.Lock()
	id, ok := n.nicByNm[name]
	if ok {
		delete(n.nicByNm, name)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("orchestrator: unknown NIC %q", name)
	}
	return n.Switch.RemovePort(id)
}
