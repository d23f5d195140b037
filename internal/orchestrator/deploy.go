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

	// insts is the instance table: every VNF this deployment runs on the
	// node, in instantiate order. Ports, application, typed handle and
	// connection table of a VNF live in its one entry.
	insts []*instance

	// specs is the deployment's DESIRED local steering state: the rules its
	// node-local edges lower to, stamped with the deployment cookie. The
	// reconciler re-derives the installed set from the flow table and diffs
	// it against this — drift (a wiped table, a restarted vSwitch) shows up
	// as missing entries and is re-installed verbatim.
	specs []flow.FlowSpec

	flowPrio uint16
	cookie   uint64
}

// lcore is what runs inside a VNF's VM: built stopped, started by the
// deploy transaction, stopped at retirement.
type lcore interface {
	Start()
	Stop()
}

// generator is a handle that injects traffic (vnf.Source, vnf.SrcSink).
// Generators start only after the last steering rule is installed and are
// paused before the first one is deleted.
type generator interface{ SetPaused(bool) }

// instance is one instantiated VNF.
type instance struct {
	name  string
	ports []uint32 // switch port ids, in VNF-local port order
	// run is the VM's lcore: the *vnf.App of a middle VNF, or the traffic
	// endpoint itself. Nil only while a failed instantiate is torn down.
	run lcore
	// handle is what the typed accessors hand out: the endpoint, or a
	// stateful VNF's control handle (nil for plain forwarders).
	handle any
	// ct is the connection table this VNF attached to the node's switch;
	// whoever retires the VNF detaches it.
	ct *conntrack.Table
}

// newDeployment returns an empty deployment shell on n — no VNFs, no rules.
// Cluster migration uses it to grow a deployment onto a node that hosted
// none of the graph's VNFs at Deploy time.
func newDeployment(n *Node) *Deployment {
	return &Deployment{
		node:     n,
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
// VNF applications inside, and one steering rule per directed edge
// (in_port=A → output:B). In highway mode the detector then turns each
// point-to-point pair into a bypass automatically — deployment code is
// identical in both modes, which is the transparency argument end to end.
//
// Deploy is the one-node deploy transaction (DESIGN.md "Deploy
// transaction"): instantiate, install rules, start generators.
// Cluster.Deploy runs the same steps around a partitioned graph.
func (n *Node) Deploy(g *graph.Graph) (*Deployment, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	d, err := n.lower(g)
	if err != nil {
		return nil, err
	}
	installRules([]ruleTarget{d.target(d.specs)}, false)
	d.startGenerators()
	return d, nil
}

// lower instantiates every VNF of the (already validated, node-local) graph
// — ports added, middle VNFs and sinks running, generators still stopped —
// and derives the steering rules for its edges into d.specs without
// installing them. NIC endpoints the edges name must already be attached to
// this node.
func (n *Node) lower(g *graph.Graph) (*Deployment, error) {
	d := newDeployment(n)
	for _, v := range g.VNFs {
		if err := d.instantiate(v); err != nil {
			d.Stop()
			return nil, err
		}
	}
	specs, err := d.edgeSpecs(g)
	if err != nil {
		d.Stop()
		return nil, err
	}
	d.specs = specs
	return d, nil
}

// instantiate creates v's VM on the deployment's node and builds its
// application. The instance is recorded first, so a failed start is torn
// down with the rest of the table.
func (d *Deployment) instantiate(v graph.VNF) error {
	ids, pmds, err := d.node.CreateVM(v.Name, v.Kind.PortCount())
	if err != nil {
		return fmt.Errorf("deploy %s: %w", v.Name, err)
	}
	in := &instance{name: v.Name, ports: ids}
	d.insts = append(d.insts, in)
	if err := d.startVNF(v, in, pmds); err != nil {
		return fmt.Errorf("deploy %s: %w", v.Name, err)
	}
	return nil
}

// startGenerators is the last step of a deploy transaction: every port,
// lane and rule is in place, so the first generated packet finds its whole
// path.
func (d *Deployment) startGenerators() {
	for _, in := range d.insts {
		if _, ok := in.handle.(generator); ok {
			in.run.Start()
		}
	}
}

// pauseGenerators is the first step of teardown: nothing new enters the
// chain while its rules and ports go away.
func (d *Deployment) pauseGenerators() {
	for _, in := range d.insts {
		if g, ok := in.handle.(generator); ok {
			g.SetPaused(true)
		}
	}
}

// inst returns the named instance (nil if absent).
func (d *Deployment) inst(name string) *instance {
	for _, in := range d.insts {
		if in.name == name {
			return in
		}
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

func (d *Deployment) resolve(ep graph.Endpoint) (uint32, error) {
	switch ep.Kind {
	case graph.EpVNF:
		in := d.inst(ep.Name)
		if in == nil || ep.Port < 0 || ep.Port >= len(in.ports) {
			return 0, fmt.Errorf("deploy: unresolved endpoint %s/%d", ep.Name, ep.Port)
		}
		return in.ports[ep.Port], nil
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

// startVNF builds v's application against its guest PMDs into in. Only the
// construction differs per kind; the lifecycle is one rule at the end —
// everything but a generator starts now.
func (d *Deployment) startVNF(v graph.VNF, in *instance, pmds []*dpdkr.PMD) error {
	pool := d.node.Pool
	var err error
	switch v.Kind {
	case graph.KindForward:
		in.run, err = vnf.NewForwarder(v.Name, pmds[0], pmds[1], pool)
	case graph.KindFirewall:
		rules, _ := v.Args.([]vnf.FirewallRule)
		in.run, _, err = vnf.NewFirewall(v.Name, pmds[0], pmds[1], pool, rules)
	case graph.KindMonitor:
		in.run, _, err = vnf.NewMonitor(v.Name, pmds[0], pmds[1], pool, 0)
	case graph.KindNAT44:
		args, ok := v.Args.(NAT44Args)
		if !ok {
			return fmt.Errorf("nat44 %s: missing NAT44Args", v.Name)
		}
		if err = d.attachConntrack(in, args.Table); err != nil {
			return err
		}
		in.run, in.handle, err = vnf.NewNAT44(v.Name, pmds[0], pmds[1], pool, vnf.NAT44Config{
			ExtIP: args.ExtIP, PortBase: args.PortBase, PortCount: args.PortCount, Table: in.ct,
		})
	case graph.KindACL:
		args, _ := v.Args.(ACLArgs)
		if err = d.attachConntrack(in, args.Table); err != nil {
			return err
		}
		in.run, in.handle, err = vnf.NewACL(v.Name, pmds[0], pmds[1], pool, in.ct, args.Rules, args.DefaultAllow)
	case graph.KindBalancer:
		args, ok := v.Args.(BalancerArgs)
		if !ok {
			return fmt.Errorf("balancer %s: missing BalancerArgs", v.Name)
		}
		if err = d.attachConntrack(in, args.Table); err != nil {
			return err
		}
		in.run, in.handle, err = vnf.NewBalancer(v.Name, pmds[0], pmds[1], pool, vnf.BalancerConfig{
			VIP: args.VIP, VIPPort: args.VIPPort, Backends: args.Backends, Table: in.ct,
		})
	case graph.KindSource:
		args, _ := v.Args.(SourceSpecArgs)
		if args.Spec.FrameLen == 0 {
			args.Spec = DefaultTrafficSpec()
		}
		var src *vnf.Source
		src, err = vnf.NewSource(v.Name, pmds[0], pool, args.Spec, args.Flows, args.RatePps)
		in.run, in.handle = src, src
	case graph.KindSink:
		var sink *vnf.Sink
		sink, err = vnf.NewSink(v.Name, pmds[0], pool)
		in.run, in.handle = sink, sink
	case graph.KindSrcSink:
		args, _ := v.Args.(SrcSinkArgs)
		if args.Spec.FrameLen == 0 {
			args.Spec = DefaultTrafficSpec()
		}
		var ss *vnf.SrcSink
		ss, err = vnf.NewSrcSink(vnf.SrcSinkConfig{
			Name: v.Name, PMD: pmds[0], Pool: pool,
			Spec: args.Spec, Flows: args.Flows, Timestamp: args.Timestamp,
			RatePps: args.RatePps,
		})
		in.run, in.handle = ss, ss
	default:
		return fmt.Errorf("unknown VNF kind %q", v.Kind)
	}
	if err != nil {
		in.run, in.handle = nil, nil // typed nil pointers from the failed constructor
		return err
	}
	if _, gen := in.handle.(generator); !gen {
		in.run.Start()
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

// attachConntrack resolves a stateful VNF's connection table into in.ct: an
// explicit override, or a fresh per-VNF (sweeper-attached) table — per-VNF
// because a shard admits one writer and chain stages key on different tuple
// spaces.
func (d *Deployment) attachConntrack(in *instance, override *conntrack.Table) error {
	if override != nil {
		d.node.Switch.AttachConntrack(override)
		in.ct = override
		return nil
	}
	var err error
	in.ct, err = d.node.NewConntrack()
	return err
}

// handles collects, over the given local deployments in order, the typed
// handle of every instance that has one of type T and is called name (""
// matches any name) — the one lookup behind every typed accessor.
func handles[T any](name string, deps ...*Deployment) []T {
	var out []T
	for _, d := range deps {
		for _, in := range d.insts {
			if h, ok := in.handle.(T); ok && (name == "" || in.name == name) {
				out = append(out, h)
			}
		}
	}
	return out
}

// first returns the first handle found (the zero T — a nil pointer — if none).
func first[T any](hs []T) (h T) {
	if len(hs) > 0 {
		h = hs[0]
	}
	return h
}

// Sink returns a named sink VNF (nil if absent).
func (d *Deployment) Sink(name string) *vnf.Sink { return first(handles[*vnf.Sink](name, d)) }

// NAT44 returns a named NAT44 VNF handle (nil if absent).
func (d *Deployment) NAT44(name string) *vnf.NAT44 { return first(handles[*vnf.NAT44](name, d)) }

// ACL returns a named ACL VNF handle (nil if absent).
func (d *Deployment) ACL(name string) *vnf.ACL { return first(handles[*vnf.ACL](name, d)) }

// Balancer returns a named balancer VNF handle (nil if absent).
func (d *Deployment) Balancer(name string) *vnf.Balancer {
	return first(handles[*vnf.Balancer](name, d))
}

// SrcSink returns a named bidirectional endpoint VNF (nil if absent).
func (d *Deployment) SrcSink(name string) *vnf.SrcSink {
	return first(handles[*vnf.SrcSink](name, d))
}

// ownPorts returns the set of switch ports of the deployment's own VMs.
func (d *Deployment) ownPorts() map[uint32]bool {
	mine := make(map[uint32]bool)
	for _, in := range d.insts {
		for _, id := range in.ports {
			mine[id] = true
		}
	}
	return mine
}

// bypassesOn counts the node's live bypass links touching any port of mine.
func (d *Deployment) bypassesOn(mine map[uint32]bool) int {
	n := 0
	for _, l := range d.node.Switch.BypassLinks() {
		if mine[l.From] || mine[l.To] {
			n++
		}
	}
	return n
}

// BypassCount reports the live bypass links touching the deployment's own
// ports — its share of the node's highway, whoever else is deployed there.
func (d *Deployment) BypassCount() int { return d.bypassesOn(d.ownPorts()) }

// WaitBypassCount blocks (bounded) until exactly want of the deployment's
// own bypasses are live.
func (d *Deployment) WaitBypassCount(want int) bool {
	mine := d.ownPorts()
	return waitCond(func() bool { return d.bypassesOn(mine) == want })
}

// Stop is the deploy transaction in reverse: generators paused, steering
// rules deleted — the deployment's own (by cookie) plus any flow referencing
// the doomed ports, whoever installed it, so the bypass manager tears links
// down before the PMD owners disappear — then every VNF retired, last
// instantiated first. Unrelated flows (other deployments, controller rules
// on other ports) survive.
func (d *Deployment) Stop() {
	d.pauseGenerators()
	mine := d.ownPorts()
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
		// Only this deployment's bypasses dissolve; the survivors belong to
		// co-resident deployments.
		waitCond(func() bool { return d.bypassesOn(mine) == 0 })
	}
	for len(d.insts) > 0 {
		d.removeVNF(d.insts[len(d.insts)-1].name)
	}
}

// removeVNF retires one VNF from the deployment: lcore stopped, connection
// table detached from the switch sweeper and stats, VM destroyed (which
// waits out the datapath and frees parked frames), table entry dropped.
// Rules are the caller's business.
func (d *Deployment) removeVNF(name string) {
	for i, in := range d.insts {
		if in.name != name {
			continue
		}
		if in.run != nil {
			in.run.Stop()
		}
		if in.ct != nil {
			d.node.Switch.DetachConntrack(in.ct)
		}
		_ = d.node.DestroyVM(name, in.ports)
		d.insts = append(d.insts[:i], d.insts[i+1:]...)
		return
	}
}
