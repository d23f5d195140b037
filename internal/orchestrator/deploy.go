package orchestrator

import (
	"fmt"
	"sync/atomic"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/graph"
	"ovshighway/internal/pkt"
	"ovshighway/internal/vnf"
)

// DeployCookieBase marks the OpenFlow cookie space deployments stamp on
// their steering rules; the low bits carry a process-unique sequence so a
// deployment tears down exactly its own rules (several deployments can
// share one node's table, and controller-installed flows must survive).
const DeployCookieBase = uint64(0xD0) << 56

var deployCookieSeq atomic.Uint64

// Deployment is a service graph instantiated on a node.
type Deployment struct {
	node *Node

	apps     []*vnf.App
	sources  []*vnf.Source
	sinks    map[string]*vnf.Sink
	srcsinks map[string]*vnf.SrcSink
	nats     map[string]*vnf.NAT44    // stateful-VNF handles, by VNF name
	acls     map[string]*vnf.ACL      // (lazily allocated: most deployments
	lbs      map[string]*vnf.Balancer // carry none)
	vms      map[string][]uint32      // VM name → port ids
	// cts holds, by VNF name, the connection tables this deployment attached
	// to the node's switch; whoever stops the VNF detaches its table.
	cts map[string]*conntrack.Table

	// PortOf maps (VNF name, local port) to switch port ids.
	portOf map[graph.Endpoint]uint32

	// specs is the deployment's DESIRED local steering state: the rules its
	// node-local edges lower to, stamped with the deployment cookie. The
	// reconciler re-derives the installed set from the flow table and diffs
	// it against this — drift (a wiped table, a restarted vSwitch) shows up
	// as missing entries and is re-installed verbatim.
	specs []flow.FlowSpec

	flowPrio uint16
	cookie   uint64
}

// newDeployment returns an empty deployment shell on n — no VNFs, no rules.
// Cluster migration uses it to grow a deployment onto a node that hosted
// none of the graph's VNFs at Deploy time.
func newDeployment(n *Node) *Deployment {
	return &Deployment{
		node:     n,
		sinks:    make(map[string]*vnf.Sink),
		srcsinks: make(map[string]*vnf.SrcSink),
		vms:      make(map[string][]uint32),
		portOf:   make(map[graph.Endpoint]uint32),
		flowPrio: 10,
		cookie:   DeployCookieBase | deployCookieSeq.Add(1),
	}
}

// SourceSpecArgs configures a source VNF through graph.VNF.Args.
type SourceSpecArgs struct {
	Spec  pkt.UDPSpec
	Flows int
	// RatePps paces generation (0 = full blast). A paced source below chain
	// capacity reaches a lossless steady state — the precondition for the
	// unidirectional conservation ledger (Sent == Received after settle).
	RatePps float64
}

// NAT44Args configures a stateful NAT44 VNF through graph.VNF.Args. The
// port block is the node's slice of the ExtIP port space — cluster
// placement hands each NAT node a disjoint block so nodes allocate without
// coordinating.
type NAT44Args struct {
	ExtIP     pkt.IP4
	PortBase  uint16
	PortCount int
	// Table overrides the node's shared conntrack table (tests; optional).
	Table *conntrack.Table
}

// ACLArgs configures a stateful ACL VNF through graph.VNF.Args.
type ACLArgs struct {
	Rules        []vnf.ACLRule
	DefaultAllow bool
	// Table overrides the node's shared conntrack table (tests; optional).
	Table *conntrack.Table
}

// BalancerArgs configures an L4 balancer VNF through graph.VNF.Args.
type BalancerArgs struct {
	VIP      pkt.IP4
	VIPPort  uint16
	Backends []vnf.Backend
	// Table overrides the node's shared conntrack table (tests; optional).
	Table *conntrack.Table
}

// SrcSinkArgs configures a bidirectional endpoint VNF through graph.VNF.Args.
type SrcSinkArgs struct {
	Spec      pkt.UDPSpec
	Flows     int
	Timestamp bool
	// RatePps paces generation (0 = full blast). Paced endpoints below
	// chain capacity reach a lossless steady state — the precondition for
	// exact end-to-end packet accounting across a live migration.
	RatePps float64
}

// Deploy lowers g onto the node: one VM per VNF with its dpdkr ports, the
// VNF applications started inside, and one steering rule per directed edge
// (in_port=A → output:B). In highway mode the detector then turns each
// point-to-point pair into a bypass automatically — deployment code is
// identical in both modes, which is the transparency argument end to end.
//
// Deploy is validation plus lower: Cluster.Deploy validates and partitions
// a placement-labeled graph first and then runs the same per-node lowering
// on each partition.
func (n *Node) Deploy(g *graph.Graph) (*Deployment, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return n.lower(g)
}

// lower is the per-node local lowering step: instantiate every VNF of the
// (already validated, node-local) graph and install the steering rules for
// its edges in one batched table mutation. NIC endpoints the edges name
// must already be attached to this node.
func (n *Node) lower(g *graph.Graph) (*Deployment, error) {
	d := newDeployment(n)

	// Instantiate VNFs.
	for _, v := range g.VNFs {
		if err := d.instantiate(v); err != nil {
			d.Stop()
			return nil, err
		}
	}

	// Program steering rules in one batched table mutation: a chain lays
	// down O(edges) rules and per-rule Add would rebuild the classifier
	// snapshot per rule. The spec list is retained as the deployment's
	// desired local state for the reconciler.
	specs, err := d.edgeSpecs(g)
	if err != nil {
		d.Stop()
		return nil, err
	}
	d.specs = specs
	n.Switch.Table().AddBatch(specs)
	return d, nil
}

// instantiate creates v's VM on the deployment's node and starts its
// application, recording the port mapping.
func (d *Deployment) instantiate(v graph.VNF) error {
	ids, pmds, err := d.node.CreateVM(v.Name, v.Kind.PortCount())
	if err != nil {
		return fmt.Errorf("deploy %s: %w", v.Name, err)
	}
	d.vms[v.Name] = ids
	for i, id := range ids {
		d.portOf[graph.VNFPort(v.Name, i)] = id
	}
	if err := d.startVNF(v, pmds); err != nil {
		return fmt.Errorf("deploy %s: %w", v.Name, err)
	}
	return nil
}

// edgeSpecs lowers the node-local edges of g to steering rule specs against
// the deployment's current port mapping. Pure derivation — no table mutation
// — so Deploy installs the result and the reconciler rederives it each pass.
func (d *Deployment) edgeSpecs(g *graph.Graph) ([]flow.FlowSpec, error) {
	specs := make([]flow.FlowSpec, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		a, err := d.resolve(e.A)
		if err != nil {
			return nil, err
		}
		b, err := d.resolve(e.B)
		if err != nil {
			return nil, err
		}
		specs = append(specs, flow.FlowSpec{
			Priority: d.flowPrio, Match: flow.MatchInPort(a), Actions: flow.Actions{flow.Output(b)},
			Cookie: d.cookie,
		})
		if e.Bidirectional {
			specs = append(specs, flow.FlowSpec{
				Priority: d.flowPrio, Match: flow.MatchInPort(b), Actions: flow.Actions{flow.Output(a)},
				Cookie: d.cookie,
			})
		}
	}
	return specs, nil
}

// appByName returns the named middle-VNF application (nil if absent).
func (d *Deployment) appByName(name string) *vnf.App {
	for _, a := range d.apps {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func (d *Deployment) resolve(ep graph.Endpoint) (uint32, error) {
	switch ep.Kind {
	case graph.EpVNF:
		id, ok := d.portOf[graph.Endpoint{Kind: graph.EpVNF, Name: ep.Name, Port: ep.Port}]
		if !ok {
			return 0, fmt.Errorf("deploy: unresolved endpoint %s/%d", ep.Name, ep.Port)
		}
		return id, nil
	case graph.EpNIC:
		id, ok := d.node.NICPort(ep.Name)
		if !ok {
			return 0, fmt.Errorf("deploy: unknown NIC %q", ep.Name)
		}
		return id, nil
	default:
		return 0, fmt.Errorf("deploy: bad endpoint kind %d", ep.Kind)
	}
}

func (d *Deployment) startVNF(v graph.VNF, pmds []*dpdkr.PMD) error {
	switch v.Kind {
	case graph.KindForward:
		app, err := vnf.NewForwarder(v.Name, pmds[0], pmds[1], d.node.Pool)
		if err != nil {
			return err
		}
		app.Start()
		d.apps = append(d.apps, app)
	case graph.KindFirewall:
		rules, _ := v.Args.([]vnf.FirewallRule)
		app, _, err := vnf.NewFirewall(v.Name, pmds[0], pmds[1], d.node.Pool, rules)
		if err != nil {
			return err
		}
		app.Start()
		d.apps = append(d.apps, app)
	case graph.KindMonitor:
		app, _, err := vnf.NewMonitor(v.Name, pmds[0], pmds[1], d.node.Pool, 0)
		if err != nil {
			return err
		}
		app.Start()
		d.apps = append(d.apps, app)
	case graph.KindNAT44:
		args, ok := v.Args.(NAT44Args)
		if !ok {
			return fmt.Errorf("nat44 %s: missing NAT44Args", v.Name)
		}
		ct, err := d.conntrackFor(v.Name, args.Table)
		if err != nil {
			return err
		}
		app, nat, err := vnf.NewNAT44(v.Name, pmds[0], pmds[1], d.node.Pool, vnf.NAT44Config{
			ExtIP: args.ExtIP, PortBase: args.PortBase, PortCount: args.PortCount, Table: ct,
		})
		if err != nil {
			return err
		}
		app.Start()
		d.apps = append(d.apps, app)
		if d.nats == nil {
			d.nats = make(map[string]*vnf.NAT44)
		}
		d.nats[v.Name] = nat
	case graph.KindACL:
		args, _ := v.Args.(ACLArgs)
		ct, err := d.conntrackFor(v.Name, args.Table)
		if err != nil {
			return err
		}
		app, acl, err := vnf.NewACL(v.Name, pmds[0], pmds[1], d.node.Pool, ct, args.Rules, args.DefaultAllow)
		if err != nil {
			return err
		}
		app.Start()
		d.apps = append(d.apps, app)
		if d.acls == nil {
			d.acls = make(map[string]*vnf.ACL)
		}
		d.acls[v.Name] = acl
	case graph.KindBalancer:
		args, ok := v.Args.(BalancerArgs)
		if !ok {
			return fmt.Errorf("balancer %s: missing BalancerArgs", v.Name)
		}
		ct, err := d.conntrackFor(v.Name, args.Table)
		if err != nil {
			return err
		}
		app, lb, err := vnf.NewBalancer(v.Name, pmds[0], pmds[1], d.node.Pool, vnf.BalancerConfig{
			VIP: args.VIP, VIPPort: args.VIPPort, Backends: args.Backends, Table: ct,
		})
		if err != nil {
			return err
		}
		app.Start()
		d.apps = append(d.apps, app)
		if d.lbs == nil {
			d.lbs = make(map[string]*vnf.Balancer)
		}
		d.lbs[v.Name] = lb
	case graph.KindSource:
		args, _ := v.Args.(SourceSpecArgs)
		if args.Spec.FrameLen == 0 {
			args.Spec = DefaultTrafficSpec()
		}
		if args.Flows == 0 {
			args.Flows = 1
		}
		src, err := vnf.NewSourcePaced(v.Name, pmds[0], d.node.Pool, args.Spec, args.Flows, args.RatePps)
		if err != nil {
			return err
		}
		d.sources = append(d.sources, src)
	case graph.KindSink:
		sink, err := vnf.NewSink(v.Name, pmds[0], d.node.Pool)
		if err != nil {
			return err
		}
		d.sinks[v.Name] = sink
	case graph.KindSrcSink:
		args, _ := v.Args.(SrcSinkArgs)
		if args.Spec.FrameLen == 0 {
			args.Spec = DefaultTrafficSpec()
		}
		if args.Flows == 0 {
			args.Flows = 1
		}
		ss, err := vnf.NewSrcSink(vnf.SrcSinkConfig{
			Name: v.Name, PMD: pmds[0], Pool: d.node.Pool,
			Spec: args.Spec, Flows: args.Flows, Timestamp: args.Timestamp,
			RatePps: args.RatePps,
		})
		if err != nil {
			return err
		}
		d.srcsinks[v.Name] = ss
	default:
		return fmt.Errorf("unknown VNF kind %q", v.Kind)
	}
	return nil
}

// DefaultTrafficSpec is the canonical 64-byte bidirectional UDP workload of
// the paper's evaluation.
func DefaultTrafficSpec() pkt.UDPSpec {
	return pkt.UDPSpec{
		SrcMAC: pkt.MAC{0x02, 0, 0, 0, 0, 0x01},
		DstMAC: pkt.MAC{0x02, 0, 0, 0, 0, 0x02},
		SrcIP:  pkt.IP4{10, 0, 0, 1}, DstIP: pkt.IP4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000,
		FrameLen: pkt.MinFrame,
	}
}

// conntrackFor resolves a stateful VNF's connection table: an explicit
// override, or a fresh per-VNF (sweeper-attached) table — per-VNF because a
// shard admits one writer and chain stages key on different tuple spaces.
func (d *Deployment) conntrackFor(vnfName string, override *conntrack.Table) (*conntrack.Table, error) {
	ct := override
	if ct != nil {
		d.node.Switch.AttachConntrack(ct)
	} else {
		var err error
		if ct, err = d.node.NewConntrack(); err != nil {
			return nil, err
		}
	}
	if d.cts == nil {
		d.cts = make(map[string]*conntrack.Table)
	}
	d.cts[vnfName] = ct
	return ct, nil
}

// detachConntrack releases the named VNF's connection table from the
// switch sweeper and stats, once the VNF's app has stopped.
func (d *Deployment) detachConntrack(vnfName string) {
	if ct := d.cts[vnfName]; ct != nil {
		d.node.Switch.DetachConntrack(ct)
		delete(d.cts, vnfName)
	}
}

// Sink returns a named sink VNF (nil if absent).
func (d *Deployment) Sink(name string) *vnf.Sink { return d.sinks[name] }

// Source returns the i-th source VNF (nil if absent); sources carry no graph
// names, deployment order is instantiation order.
func (d *Deployment) Source(i int) *vnf.Source {
	if i < 0 || i >= len(d.sources) {
		return nil
	}
	return d.sources[i]
}

// NAT44 returns a named NAT44 VNF handle (nil if absent).
func (d *Deployment) NAT44(name string) *vnf.NAT44 { return d.nats[name] }

// ACL returns a named ACL VNF handle (nil if absent).
func (d *Deployment) ACL(name string) *vnf.ACL { return d.acls[name] }

// Balancer returns a named balancer VNF handle (nil if absent).
func (d *Deployment) Balancer(name string) *vnf.Balancer { return d.lbs[name] }

// SrcSink returns a named bidirectional endpoint VNF (nil if absent).
func (d *Deployment) SrcSink(name string) *vnf.SrcSink { return d.srcsinks[name] }

// Apps returns the started middle-VNF applications.
func (d *Deployment) Apps() []*vnf.App { return d.apps }

// Stop halts all VNFs and destroys their VMs (ports removed from the
// switch). Steering rules die first — the deployment's own (by cookie)
// plus any flow referencing the doomed ports, whoever installed it, so the
// bypass manager tears links down before the PMD owners disappear.
// Unrelated flows (other deployments, controller rules on other ports)
// survive.
func (d *Deployment) Stop() {
	mine := make(map[uint32]bool)
	for _, ids := range d.vms {
		for _, id := range ids {
			mine[id] = true
		}
	}
	touchesMine := func(f *flow.Flow) bool {
		if f.Match.Mask.InPort != 0 && mine[f.Match.Key.InPort] {
			return true
		}
		for _, a := range f.Actions {
			if a.Type == flow.ActOutput && mine[a.Port] {
				return true
			}
		}
		return false
	}
	d.node.Switch.Table().DeleteWhere(func(f *flow.Flow) bool {
		return f.Cookie == d.cookie || touchesMine(f)
	})
	if d.node.Manager != nil {
		// Wait for the manager to process the deletions before VMs go away.
		// Only this deployment's bypasses dissolve; count the survivors via
		// the ports being destroyed instead of expecting zero.
		waitCond(func() bool {
			for _, l := range d.node.Switch.BypassLinks() {
				if mine[l.From] || mine[l.To] {
					return false
				}
			}
			return true
		})
	}
	for _, s := range d.sources {
		s.Stop()
	}
	for _, s := range d.srcsinks {
		s.Stop()
	}
	for _, app := range d.apps {
		app.Stop()
	}
	for _, s := range d.sinks {
		s.Stop()
	}
	for name := range d.cts {
		d.detachConntrack(name)
	}
	for name, ids := range d.vms {
		_ = d.node.DestroyVM(name, ids)
	}
}
