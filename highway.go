// Package highway is the public API of the transparent inter-VNF
// communication highway: a reproduction of "A Transparent Highway for
// inter-Virtual Network Function Communication with Open vSwitch"
// (SIGCOMM 2016).
//
// A Node is a complete simulated NFV compute node: an OVS-DPDK-style
// vSwitch, a compute agent managing VM contexts, and — in highway mode —
// the p-2-p link detector and bypass manager that transparently replace
// VM→vSwitch→VM paths with direct VM-to-VM shared-memory channels whenever
// the OpenFlow rules describe a point-to-point link.
//
// Quick start:
//
//	node, _ := highway.Start(highway.Config{Mode: highway.ModeHighway})
//	defer node.Stop()
//	chain, _ := node.DeployBidirChain(3, highway.ChainOptions{})
//	defer chain.Stop()
//	w, _ := chain.Measure(200*time.Millisecond, time.Second) // waits for the 8 bypasses first
//	fmt.Println(w.Mpps)
package highway

import (
	"net"
	"time"

	"ovshighway/internal/agent"
	"ovshighway/internal/graph"
	"ovshighway/internal/nic"
	"ovshighway/internal/orchestrator"
	"ovshighway/internal/pkt"
	"ovshighway/internal/vswitch"
)

// Mode selects the datapath variant.
type Mode = orchestrator.Mode

// Datapath modes.
const (
	// ModeVanilla is the baseline: every packet crosses the vSwitch
	// forwarding engine (vanilla OVS-DPDK behaviour).
	ModeVanilla = orchestrator.ModeVanilla
	// ModeHighway enables the paper's system: point-to-point steering rules
	// are detected at run time and served by direct VM-to-VM channels.
	ModeHighway = orchestrator.ModeHighway
)

// Graph re-exports the service-graph model for custom topologies.
type Graph = graph.Graph

// Config parametrizes Start. Zero values take sensible defaults.
type Config struct {
	Mode Mode
	// NumPMDs is the number of vSwitch forwarding threads (default 1; the
	// paper's baseline contends on these).
	NumPMDs int
	// EMCDisabled turns off the vSwitch exact-match cache (ablation A1).
	EMCDisabled bool
	// SMCDisabled turns off the vSwitch signature-match cache, the second
	// lookup tier between the EMC and the classifier (ablation A5).
	SMCDisabled bool
	// ECMPAdaptiveDisabled pins every ECMP flow to its static hash pick,
	// ignoring the per-path congestion signal — the baseline arm of the
	// incast experiment.
	ECMPAdaptiveDisabled bool
	// RingSize is the dpdkr/bypass ring capacity (default 1024).
	RingSize int
	// PoolSize is the packet-buffer population (default 8192).
	PoolSize int
	// HotplugDelay/ConfigDelay emulate QEMU ivshmem hot-plug and
	// virtio-serial latencies; with QEMU-realistic values (tens of ms) the
	// end-to-end bypass setup time lands near the paper's ~100 ms.
	HotplugDelay time.Duration
	ConfigDelay  time.Duration
	// OpenFlowAddr, when non-empty (e.g. "127.0.0.1:6653"), starts an
	// OpenFlow 1.3 controller listener for external controllers.
	OpenFlowAddr string
	// OnBypassUp observes each bypass establishment and its setup latency.
	OnBypassUp func(from, to uint32, setup time.Duration)
	// NumQueues is the RSS queue count of every VM-facing dpdkr port: the
	// guest PMD hashes each flow onto one of NumQueues rings, and the
	// vSwitch homes each ring on a forwarding thread independently. Default
	// 1 (classic single-queue ports).
	NumQueues int
	// AutoBalance runs the datapath load balancer: per-PMD busy fractions
	// are sampled every BalanceInterval and RX queues re-home off the
	// hottest thread when the busy-fraction spread exceeds BalanceSpread
	// (zero values default to 100ms and 0.2).
	AutoBalance     bool
	BalanceInterval time.Duration
	BalanceSpread   float64
	// ConntrackCapacity/ConntrackIdle size the connection table each
	// stateful VNF (NAT44, ACL, balancer) gets when it deploys. Zero values
	// take the defaults: 65536 entries, 30s idle timeout. Each table is
	// preallocated in one arena — lookups and inserts never touch the heap.
	ConntrackCapacity int
	ConntrackIdle     time.Duration
}

// Node is a running NFV node.
type Node struct {
	inner *orchestrator.Node
	ofsrv *vswitch.OFServer
}

// nodeConfig lowers the public Config to the orchestrator's NodeConfig —
// the single mapping Start and StartCluster both use, so node and cluster
// deployments can never diverge on a config field.
func (cfg Config) nodeConfig() orchestrator.NodeConfig {
	return orchestrator.NodeConfig{
		Mode: cfg.Mode,
		Switch: vswitch.Config{
			NumPMDs:              cfg.NumPMDs,
			EMCDisabled:          cfg.EMCDisabled,
			SMCDisabled:          cfg.SMCDisabled,
			ECMPAdaptiveDisabled: cfg.ECMPAdaptiveDisabled,
		},
		Agent: agent.Config{
			HotplugDelay: cfg.HotplugDelay,
			ConfigDelay:  cfg.ConfigDelay,
		},
		RingSize:        cfg.RingSize,
		PoolSize:        cfg.PoolSize,
		OnBypassUp:      cfg.OnBypassUp,
		NumQueues:       cfg.NumQueues,
		AutoBalance:     cfg.AutoBalance,
		BalanceInterval: cfg.BalanceInterval,
		BalanceSpread:   cfg.BalanceSpread,

		ConntrackCapacity: cfg.ConntrackCapacity,
		ConntrackIdle:     cfg.ConntrackIdle,
	}
}

// Start boots a node: switch PMDs running, agent ready, and (in highway
// mode) detector and bypass manager live.
func Start(cfg Config) (*Node, error) {
	inner, err := orchestrator.NewNode(cfg.nodeConfig())
	if err != nil {
		return nil, err
	}
	n := &Node{inner: inner}
	if cfg.OpenFlowAddr != "" {
		ln, err := net.Listen("tcp", cfg.OpenFlowAddr)
		if err != nil {
			inner.Stop()
			return nil, err
		}
		n.ofsrv = vswitch.NewOFServer(inner.Switch, ln)
		go n.ofsrv.Serve()
	}
	return n, nil
}

// Stop shuts the node down: bypasses torn down, PMD threads joined, the
// OpenFlow listener closed.
func (n *Node) Stop() {
	if n.ofsrv != nil {
		n.ofsrv.Close()
	}
	n.inner.Stop()
}

// Mode returns the node's datapath mode.
func (n *Node) Mode() Mode { return n.inner.Mode() }

// OpenFlowAddr returns the controller listener address ("" if not enabled).
func (n *Node) OpenFlowAddr() string {
	if n.ofsrv == nil {
		return ""
	}
	return n.ofsrv.Addr().String()
}

// BypassCount reports the number of live bypass channels.
func (n *Node) BypassCount() int { return n.inner.Switch.BypassLinkCount() }

// WaitBypasses blocks (bounded) until exactly want bypasses are live.
func (n *Node) WaitBypasses(want int) bool { return n.inner.WaitBypassCount(want) }

// PortStats returns the OpenFlow-visible counters for a port, with bypass
// traffic merged in (the paper's stats transparency).
func (n *Node) PortStats(id uint32) (vswitch.PortStatsView, bool) {
	return n.inner.Switch.PortStats(id)
}

// FlowStats returns the OpenFlow-visible flow entries with merged counters.
func (n *Node) FlowStats() []vswitch.FlowStatsView {
	return n.inner.Switch.FlowStats()
}

// AddNIC attaches a simulated 10G NIC under the given graph-visible name.
// rate 0 means 64B line rate (14.88 Mpps); negative means unlimited.
func (n *Node) AddNIC(name string, rate float64) (*nic.NIC, error) {
	return n.inner.AddNIC(name, nic.Config{RatePps: rate})
}

// Deploy lowers an arbitrary service graph onto the node.
func (n *Node) Deploy(g *Graph) (*Deployment, error) {
	d, err := n.inner.Deploy(g)
	if err != nil {
		return nil, err
	}
	return &Deployment{inner: d}, nil
}

// Internal returns the underlying orchestrator node, for advanced callers
// (the benchmark harness reaches through this).
func (n *Node) Internal() *orchestrator.Node { return n.inner }

// Deployment is a deployed service graph.
type Deployment struct {
	inner *orchestrator.Deployment
}

// Stop tears the deployment down (flows deleted, bypasses dissolved, VMs
// destroyed).
func (d *Deployment) Stop() { d.inner.Stop() }

// Internal returns the underlying deployment.
func (d *Deployment) Internal() *orchestrator.Deployment { return d.inner }

// DefaultTrafficSpec returns the canonical 64-byte UDP workload used by the
// paper's evaluation.
func DefaultTrafficSpec() pkt.UDPSpec { return orchestrator.DefaultTrafficSpec() }
