package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	highway "ovshighway"
	"ovshighway/internal/flow"
	"ovshighway/internal/graph"
	"ovshighway/internal/mempool"
	"ovshighway/internal/orchestrator"
	"ovshighway/internal/pkt"
	"ovshighway/internal/trunk"
	"ovshighway/internal/vnf"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	// name is the workload's name in BENCHMARK.json, which also says why it
	// was chosen.
	name string
	// cycles is the number of deploy→ready→teardown rounds per run, split
	// evenly over the passes.
	cycles int
	// pacedPps is the open-loop rate of the paced phase, per generator.
	pacedPps float64
	// hops is the number of VNF↔VNF edges a delivered packet crosses — the
	// denominator of dpdkr.bypass_pkts_pct.
	hops int
	// start boots the node or cluster the workload runs on.
	start func(seed int64, ups *upLog) (*system, error)
	// stack lists the per-packet cost stack from the stage timings.
	stack func(st map[string]float64) []stackRow
}

// stackRow is one line of a per-packet cost stack: a stage's cost times how
// often a delivered packet pays it.
type stackRow struct {
	Stage string  `json:"stage"`
	Ns    float64 `json:"ns"`
	Calls float64 `json:"calls_per_pkt"`
}

// stackSum is the stack's predicted ns per delivered packet.
func stackSum(rows []stackRow) float64 {
	var sum float64
	for _, row := range rows {
		sum += row.Ns * row.Calls
	}
	return sum
}

// setupRate is the negligible generator rate of the set-up phase's cycles.
const setupRate = 1000

var workloads = []*workload{
	{
		name:     "chain8-highway",
		cycles:   96,
		pacedPps: 2.0e6,
		hops:     7,
		start:    func(seed int64, ups *upLog) (*system, error) { return startChain8(highway.ModeHighway, seed, ups) },
		stack: func(st map[string]float64) []stackRow {
			return []stackRow{
				{"srcsink generate+terminate incl. 1 bypass link (1000/vnf.srcsink_pair_mpps)", 1000 / st["vnf.srcsink_pair_mpps"], 1},
				{"forwarder + 1 bypass link (vnf.forward_hop - dpdkr.bypass)", st["vnf.forward_hop_ns_per_pkt"] - st["dpdkr.bypass_ns_per_pkt"], 6},
			}
		},
	},
	{
		name:     "chain8-vanilla",
		cycles:   96,
		pacedPps: 0.2e6,
		hops:     7,
		start:    func(seed int64, ups *upLog) (*system, error) { return startChain8(highway.ModeVanilla, seed, ups) },
		stack: func(st map[string]float64) []stackRow {
			return []stackRow{
				{"srcsink generate+terminate (1000/vnf.srcsink_pair_mpps - dpdkr.bypass)", 1000/st["vnf.srcsink_pair_mpps"] - st["dpdkr.bypass_ns_per_pkt"], 1},
				{"vswitch.hop_ns_per_pkt", st["vswitch.hop_ns_per_pkt"], 7},
				{"forwarder loop (vnf.forward_hop - 2 dpdkr.bypass)", st["vnf.forward_hop_ns_per_pkt"] - 2*st["dpdkr.bypass_ns_per_pkt"], 6},
			}
		},
	},
	{
		name:     "nic1-flows64k",
		cycles:   96,
		pacedPps: 0.4e6,
		hops:     0,
		start:    startNIC1,
		stack: func(st map[string]float64) []stackRow {
			return []stackRow{
				{"mempool.getfree_ns_per_pkt (harness generator)", st["mempool.getfree_ns_per_pkt"], 1},
				{"nic.sendrecv_ns_per_pkt", st["nic.sendrecv_ns_per_pkt"], 1},
				{"vswitch.hop64k_ns_per_pkt", st["vswitch.hop64k_ns_per_pkt"], 2},
				{"dpdkr.normal_ns_per_pkt (hop64k counts it twice, the path once)", st["dpdkr.normal_ns_per_pkt"], -1},
				{"forwarder loop (vnf.forward_hop - 2 dpdkr.bypass)", st["vnf.forward_hop_ns_per_pkt"] - 2*st["dpdkr.bypass_ns_per_pkt"], 1},
			}
		},
	},
	{
		name:     "stateful2n",
		cycles:   48,
		pacedPps: 0.4e6,
		hops:     4,
		start:    startStateful2n,
		stack: func(st map[string]float64) []stackRow {
			app := func(name string) float64 { return st[name] - 2*st["dpdkr.bypass_ns_per_pkt"] }
			return []stackRow{
				{"source+sink (1000/vnf.srcsink_pair_mpps - dpdkr.bypass)", 1000/st["vnf.srcsink_pair_mpps"] - st["dpdkr.bypass_ns_per_pkt"], 1},
				{"dpdkr.bypass_ns_per_pkt", st["dpdkr.bypass_ns_per_pkt"], 3},
				{"NAT44 app (vnf.nat44 - 2 dpdkr.bypass)", app("vnf.nat44_ns_per_pkt"), 1},
				{"ACL app (vnf.acl - 2 dpdkr.bypass)", app("vnf.acl_ns_per_pkt"), 1},
				{"balancer app (vnf.balancer - 2 dpdkr.bypass)", app("vnf.balancer_ns_per_pkt"), 1},
				{"vswitch.hop_ns_per_pkt (one per node at the crossing)", st["vswitch.hop_ns_per_pkt"], 2},
				{"dpdkr.normal_ns_per_pkt (each crossing hop has one VM side only)", st["dpdkr.normal_ns_per_pkt"], -1},
				{"trunk.hop_ns_per_pkt", st["trunk.hop_ns_per_pkt"], 1},
			}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// system is a started node or cluster, as the run phases see it.
type system struct {
	nodes []*orchestrator.Node
	// trunks returns the live inter-node trunks (nil on one node).
	trunks func() []*trunk.Trunk
	// wantBypasses is the live bypass count a deployment must reach.
	wantBypasses int
	// deploy lowers the workload's graph and starts its traffic: rate 0 is
	// closed-loop saturation, rate > 0 an open loop at that many packets/s
	// per generator. stamp turns on latency timestamps.
	deploy func(rate float64, stamp bool) (traffic, error)
	// place, where the workload is placed by the optimizer, runs the placement
	// alone on a fresh copy of the graph (nil elsewhere).
	place func() error
	stop  func()
}

func (s *system) bypasses() int {
	n := 0
	for _, node := range s.nodes {
		n += node.Switch.BypassLinkCount()
	}
	return n
}

// traffic is a live deployment with its generators and sinks.
type traffic interface {
	// counts returns packets the system accepted and packets it delivered.
	counts() (sent, delivered uint64)
	// pause gates generation; reception keeps running so the pipeline drains.
	pause(on bool)
	// resetLatency forgets latency samples taken so far.
	resetLatency()
	// verify returns the workload's own correctness failures (nil if none).
	// Called on a paused, settled deployment.
	verify() []string
	// stop tears the deployment down.
	stop()
	// latency reports the paced phase's samples; valid after stop.
	latency() latency
}

// latency is what a workload's generator can say about one-way delay.
// p50/p99 of a SrcSink histogram are log2-bucket upper bounds. Only the
// harness's own generator knows how late it ran (paced, latePct).
type latency struct {
	meanUs, p50Us, p99Us float64
	samples              uint64
	paced                bool
	latePct              float64
}

// upLog collects bypass-up events (Config.OnBypassUp) and signals when the
// armed count is reached — so "ready" is observed when it happens, not at
// the next tick of a polling loop.
type upLog struct {
	mu    sync.Mutex
	n     int
	want  int
	durs  []time.Duration
	ready chan struct{}
}

func newUpLog() *upLog {
	// One slot: the signal is "count reached", sent at most once per arm.
	return &upLog{durs: make([]time.Duration, 0, 4096), ready: make(chan struct{}, 1)}
}

func (u *upLog) onUp(_, _ uint32, d time.Duration) {
	u.mu.Lock()
	if len(u.durs) < cap(u.durs) {
		u.durs = append(u.durs, d)
	}
	u.n++
	hit := u.n == u.want
	u.mu.Unlock()
	if hit {
		select {
		case u.ready <- struct{}{}:
		default:
		}
	}
}

// arm resets the event count and expects want events.
func (u *upLog) arm(want int) {
	u.mu.Lock()
	u.n, u.want = 0, want
	u.mu.Unlock()
	select {
	case <-u.ready:
	default:
	}
}

// seededSpec is the canonical 64 B UDP workload with its tuple base moved by
// the seed. The destination stays inside 10.0.0.0/8 and clear of the
// stateful chain's VIP (10.99.0.1).
func seededSpec(seed int64) pkt.UDPSpec {
	r := rand.New(rand.NewSource(seed))
	s := orchestrator.DefaultTrafficSpec()
	a, b := byte(r.Intn(90)), byte(r.Intn(250))
	s.SrcIP = pkt.IP4{10, a, b, 1}
	s.DstIP = pkt.IP4{10, a, b, 2}
	s.SrcPort = uint16(1024 + r.Intn(30000))
	s.DstPort = uint16(1024 + r.Intn(30000))
	return s
}

// --- chain8-highway / chain8-vanilla ---------------------------------------

const chainFlows = 4

func startChain8(mode highway.Mode, seed int64, ups *upLog) (*system, error) {
	node, err := highway.Start(highway.Config{Mode: mode, OnBypassUp: ups.onUp})
	if err != nil {
		return nil, err
	}
	fwd := seededSpec(seed)
	rev := fwd
	rev.SrcIP, rev.DstIP = fwd.DstIP, fwd.SrcIP
	rev.SrcMAC, rev.DstMAC = fwd.DstMAC, fwd.SrcMAC
	rev.SrcPort, rev.DstPort = fwd.DstPort, fwd.SrcPort
	sys := &system{nodes: []*orchestrator.Node{node.Internal()}, stop: node.Stop}
	if mode == highway.ModeHighway {
		sys.wantBypasses = 2 * (6 + 1)
	}
	sys.deploy = func(rate float64, stamp bool) (traffic, error) {
		g := graph.BidirChain(6)
		for i := range g.VNFs {
			switch g.VNFs[i].Name {
			case "end0":
				g.VNFs[i].Args = orchestrator.SrcSinkArgs{Spec: fwd, Flows: chainFlows, Timestamp: stamp, RatePps: rate}
			case "end1":
				g.VNFs[i].Args = orchestrator.SrcSinkArgs{Spec: rev, Flows: chainFlows, Timestamp: stamp, RatePps: rate}
			}
		}
		dep, err := node.Deploy(g)
		if err != nil {
			return nil, err
		}
		return &srcsinkTraffic{
			dep:  dep,
			ends: []*vnf.SrcSink{dep.Internal().SrcSink("end0"), dep.Internal().SrcSink("end1")},
		}, nil
	}
	return sys, nil
}

// srcsinkTraffic is a bidirectional chain driven by the program's own
// SrcSink endpoints.
type srcsinkTraffic struct {
	dep  *highway.Deployment
	ends []*vnf.SrcSink
}

func (t *srcsinkTraffic) counts() (sent, delivered uint64) {
	for _, e := range t.ends {
		sent += e.Sent.Load()
		delivered += e.Received.Load()
	}
	return sent, delivered
}

func (t *srcsinkTraffic) pause(on bool) {
	for _, e := range t.ends {
		e.SetPaused(on)
	}
}

func (t *srcsinkTraffic) resetLatency() {
	for _, e := range t.ends {
		e.Lat.Reset()
	}
}

func (t *srcsinkTraffic) verify() []string { return nil }
func (t *srcsinkTraffic) stop()            { t.dep.Stop() }

func (t *srcsinkTraffic) latency() latency {
	var l latency
	var sumUs float64
	for _, e := range t.ends {
		n := e.Lat.Count()
		l.samples += n
		sumUs += float64(n) * float64(e.Lat.Mean()) / 1e3
		l.p50Us = max(l.p50Us, float64(e.Lat.Quantile(0.50))/1e3)
		l.p99Us = max(l.p99Us, float64(e.Lat.Quantile(0.99))/1e3)
	}
	if l.samples > 0 {
		l.meanUs = sumUs / float64(l.samples)
	}
	return l
}

// --- nic1-flows64k ----------------------------------------------------------

func startNIC1(seed int64, ups *upLog) (*system, error) {
	node, err := highway.Start(highway.Config{Mode: highway.ModeHighway, OnBypassUp: ups.onUp})
	if err != nil {
		return nil, err
	}
	eth0, err := node.AddNIC("eth0", -1)
	if err != nil {
		node.Stop()
		return nil, err
	}
	eth1, err := node.AddNIC("eth1", -1)
	if err != nil {
		node.Stop()
		return nil, err
	}
	plan, err := newFlowPlan(seed)
	if err != nil {
		node.Stop()
		return nil, err
	}
	sys := &system{nodes: []*orchestrator.Node{node.Internal()}, stop: node.Stop}
	sys.deploy = func(rate float64, stamp bool) (traffic, error) {
		dep, err := node.Deploy(graph.Chain(1, "eth0", "eth1"))
		if err != nil {
			return nil, err
		}
		return &nicTraffic{
			dep: dep,
			gen: startNICGen(eth0, eth1, node.Internal().Pool, plan, rate, stamp),
		}, nil
	}
	return sys, nil
}

// nicTraffic is a NIC-to-NIC chain driven by the harness's own generator.
type nicTraffic struct {
	dep *highway.Deployment
	gen *nicGen
}

func (t *nicTraffic) counts() (uint64, uint64) { return t.gen.sent.Load(), t.gen.delivered.Load() }
func (t *nicTraffic) pause(on bool)            { t.gen.paused.Store(on) }
func (t *nicTraffic) resetLatency()            { t.gen.resetLat.Store(true) }

func (t *nicTraffic) verify() []string {
	if n := t.gen.badFrames.Load(); n > 0 {
		return []string{fmt.Sprintf("%d sampled frames left eth1 with a wrong length or a 5-tuple outside the generated set", n)}
	}
	return nil
}

func (t *nicTraffic) stop() {
	t.gen.halt()
	t.dep.Stop()
	// Frames the switch had already queued toward the wire when the sink
	// stopped go back to the pool; the generator has exited, so this is the
	// ring's only consumer.
	var scratch [32]*mempool.Buf
	for {
		k := t.gen.out.DrainToWire(scratch[:])
		if k == 0 {
			return
		}
		mempool.FreeBatch(scratch[:k])
	}
}

func (t *nicTraffic) latency() latency { return t.gen.latency() }

// --- stateful2n -------------------------------------------------------------

const statefulFlows = 64

func startStateful2n(seed int64, ups *upLog) (*system, error) {
	cluster, err := highway.StartCluster(highway.ClusterConfig{
		Config:    highway.Config{Mode: highway.ModeHighway, OnBypassUp: ups.onUp, ConntrackCapacity: 4096},
		TrunkRate: -1,
	})
	if err != nil {
		return nil, err
	}
	sys := &system{
		trunks:       cluster.Internal().Trunks,
		wantBypasses: 6, // 5 VNFs, 4 hops, 1 crossing: 3 intra-node hops x 2 directions
		stop:         cluster.Stop,
	}
	for _, name := range cluster.NodeNames() {
		sys.nodes = append(sys.nodes, cluster.Internal().Node(name))
	}
	vip := pkt.IP4{10, 99, 0, 1}
	const vipPort = 80
	spec := seededSpec(seed)
	spec.DstIP, spec.DstPort = vip, vipPort
	// The graph of highway.Cluster.DeployStatefulChain, rebuilt here so the
	// client's tuple base follows the seed.
	build := func(rate float64) *highway.Graph {
		return &highway.Graph{
			VNFs: []graph.VNF{
				{Name: "client", Kind: graph.KindSource, Args: orchestrator.SourceSpecArgs{Spec: spec, Flows: statefulFlows, RatePps: rate}},
				{Name: "nat", Kind: graph.KindNAT44, Args: orchestrator.NAT44Args{ExtIP: pkt.IP4{192, 0, 2, 1}, PortBase: 40000, PortCount: statefulFlows}},
				{Name: "acl", Kind: graph.KindACL, Args: orchestrator.ACLArgs{Rules: []vnf.ACLRule{{
					Priority: 100,
					Match:    flow.MatchAll().WithIPProto(pkt.ProtoUDP).WithIPDst(vip, 32).WithL4Dst(vipPort),
					Allow:    true,
				}}}},
				{Name: "lb", Kind: graph.KindBalancer, Args: orchestrator.BalancerArgs{VIP: vip, VIPPort: vipPort, Backends: []vnf.Backend{
					{IP: pkt.IP4{10, 1, 0, 1}, Port: 8080}, {IP: pkt.IP4{10, 1, 0, 2}, Port: 8080},
				}}},
				{Name: "server", Kind: graph.KindSink},
			},
			Edges: []graph.Edge{
				{A: graph.VNFPort("client", 0), B: graph.VNFPort("nat", 0), Bidirectional: true},
				{A: graph.VNFPort("nat", 1), B: graph.VNFPort("acl", 0), Bidirectional: true},
				{A: graph.VNFPort("acl", 1), B: graph.VNFPort("lb", 0), Bidirectional: true},
				{A: graph.VNFPort("lb", 1), B: graph.VNFPort("server", 0), Bidirectional: true},
			},
		}
	}
	sys.place = func() error {
		_, err := build(setupRate).Place(cluster.NodeNames(), nil)
		return err
	}
	sys.deploy = func(rate float64, _ bool) (traffic, error) {
		if rate == 0 {
			// vnf.Source is paced by credits capped at two bursts, so a rate far
			// above capacity is a closed loop: it sends whenever pool and ring
			// accept.
			rate = 1e9
		}
		dep, crossings, err := cluster.DeployPlaced(build(rate))
		if err != nil {
			return nil, err
		}
		t := &statefulTraffic{
			dep: dep, crossings: crossings,
			sink: dep.Internal().Sink("server"),
			nat:  dep.Internal().NAT44("nat"),
			acl:  dep.Internal().ACL("acl"),
		}
		if srcs := dep.Internal().Sources(); len(srcs) == 1 {
			t.src = srcs[0]
		}
		if t.src == nil || t.sink == nil || t.nat == nil || t.acl == nil {
			dep.Stop()
			return nil, fmt.Errorf("stateful2n: VNF handles missing after deploy")
		}
		return t, nil
	}
	return sys, nil
}

// statefulTraffic is the unidirectional NAT44→ACL→balancer chain.
type statefulTraffic struct {
	dep       *highway.ClusterDeployment
	crossings int
	src       *vnf.Source
	sink      *vnf.Sink
	nat       *vnf.NAT44
	acl       *vnf.ACL
}

func (t *statefulTraffic) counts() (uint64, uint64) {
	return t.src.Sent.Load(), t.sink.Received.Load()
}
func (t *statefulTraffic) pause(on bool)    { t.src.SetPaused(on) }
func (t *statefulTraffic) resetLatency()    {}
func (t *statefulTraffic) stop()            { t.dep.Stop() }
func (t *statefulTraffic) latency() latency { return latency{} } // vnf.Source stamps nothing

func (t *statefulTraffic) verify() []string {
	var bad []string
	if t.crossings != 1 {
		bad = append(bad, fmt.Sprintf("placement paid %d crossings, want 1", t.crossings))
	}
	if n := t.acl.Denied.Load(); n != 0 {
		bad = append(bad, fmt.Sprintf("ACL denied %d packets, want 0", n))
	}
	if n := t.nat.Bound.Load() - t.nat.Unbound.Load(); n != statefulFlows {
		bad = append(bad, fmt.Sprintf("NAT holds %d active bindings, want %d", n, statefulFlows))
	}
	// The trunks were built for this deployment, so every delivered packet
	// has been carried across exactly once.
	var carried uint64
	for _, tr := range t.dep.Internal().Trunks() {
		ab, ba := tr.Stats()
		carried += ab.Carried + ba.Carried
	}
	if _, delivered := t.counts(); carried < delivered {
		bad = append(bad, fmt.Sprintf("trunk carried %d < delivered %d", carried, delivered))
	}
	return bad
}
