package highway

import (
	"errors"
	"fmt"
	"time"

	"ovshighway/internal/graph"
	"ovshighway/internal/nic"
	"ovshighway/internal/orchestrator"
	"ovshighway/internal/trunk"
	"ovshighway/internal/vnf"
)

// ChainOptions tunes chain deployments.
type ChainOptions struct {
	// Flows is the number of distinct 5-tuples generated (default 1).
	Flows int
	// Timestamp stamps generated frames for one-way latency measurement.
	Timestamp bool
	// LanePCP stamps every edge of the chain with this 802.1Q priority
	// (0..7). Only edges that cross a node boundary are affected: their
	// trunk lanes are scheduled in the corresponding DRR class
	// (ClusterConfig.Fabric.PCPWeights). Intra-node hops ignore it.
	LanePCP uint8
	// RatePps paces each end's generator to this rate instead of
	// saturating (0 = unpaced). A paced chain has an exact conservation
	// ledger — every generated packet is eventually received — which the
	// migration experiments use to prove zero loss.
	RatePps float64
}

// Ledger is a chain's conservation ledger: what its sources generated
// against what its sinks absorbed. On a paced chain it is exact — once
// generation pauses and the chain drains, sent equals received unless
// packets were lost. Chain and StatefulChain embed it.
type Ledger struct {
	pause          func(bool)
	sent, received func() uint64
}

// settleTimeout bounds each Settle of LostAcross.
const settleTimeout = 2 * time.Second

// Pause stops (or resumes) packet generation. Reception keeps running, so a
// paused chain drains: in-flight packets land and the ledger settles.
func (l *Ledger) Pause(p bool) {
	if l.pause != nil {
		l.pause(p)
	}
}

// Sent returns the number of packets the chain's sources generated.
func (l *Ledger) Sent() uint64 { return l.sent() }

// Received returns the number of packets the chain's sinks absorbed (on a
// Chain, since its last ResetWindow).
func (l *Ledger) Received() uint64 { return l.received() }

// InFlight returns sent-minus-received: the packets currently somewhere
// inside the chain. After Pause+Settle a nonzero delta across an operation
// means packets were lost.
func (l *Ledger) InFlight() int64 { return int64(l.sent()) - int64(l.received()) }

// Settle waits (bounded by timeout) for the ledger to stop moving — a
// sustained run of identical observations, not just two, since a packet
// parked behind a stalled thread moves no counter for a while — then
// returns InFlight. Call after Pause(true) to let residual in-flight
// packets land.
func (l *Ledger) Settle(timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	prev := l.sent() + l.received()
	stable := 0
	for time.Now().Before(deadline) && stable < 8 {
		time.Sleep(5 * time.Millisecond)
		cur := l.sent() + l.received()
		if cur == prev {
			stable++
		} else {
			stable = 0
			prev = cur
		}
	}
	return l.InFlight()
}

// LostAcross brackets op with the conservation ledger: pause and settle,
// resume and run op under live traffic, pause and settle again. The
// returned in-flight delta is the number of packets op lost (0 on a
// loss-free operation). op must not ResetWindow the chain. Generation is
// running again on return. A ledger with nothing to pause (a NIC chain's)
// cannot bracket anything and fails instead of reporting a vacuous 0.
func (l *Ledger) LostAcross(op func() error) (int64, error) {
	if l.pause == nil {
		return 0, errors.New("highway: ledger has no pausable source")
	}
	l.Pause(true)
	before := l.Settle(settleTimeout)
	l.Pause(false)
	if err := op(); err != nil {
		return 0, err
	}
	l.Pause(true)
	after := l.Settle(settleTimeout)
	l.Pause(false)
	return after - before, nil
}

// chainHost is what a chain needs of the node or cluster it runs on.
type chainHost interface{ Mode() Mode }

// bypassOwner is a chain's underlying deployment, single-node or cluster: it
// counts the live bypass links touching the chain's own ports, whatever else
// is deployed beside it.
type bypassOwner interface {
	BypassCount() int
	WaitBypassCount(want int) bool
}

// Chain is a deployed benchmark chain with measurement hooks, on one node
// (DeployBidirChain, DeployNICChain) or split across a cluster
// (DeploySplitChain). Its embedded Ledger covers the chain's source/sink
// end VMs; a NIC chain's external generators cannot pause, so its ledger
// stays empty.
type Chain struct {
	Ledger
	host     chainHost          // the *Node or *Cluster the chain runs on
	dep      *Deployment        // single-node chains
	cdep     *ClusterDeployment // cluster chains
	own      bypassOwner        // dep's or cdep's orchestrator deployment
	n        int
	hops     int              // VM↔VM hops along the chain
	segments []int            // chain VMs per node, in node order, at deploy
	ends     []*vnf.SrcSink   // memory-only chains (Figure 3(a))
	gens     []*nic.Generator // NIC chains (Figure 3(b))
	wsnk     []*nic.WireSink
	nics     []*nic.NIC
}

// setEnds binds the chain's source/sink end VMs and builds the ledger over
// them.
func (c *Chain) setEnds(ends ...*vnf.SrcSink) {
	c.ends = ends
	c.Ledger = Ledger{
		sent: func() (v uint64) {
			for _, e := range ends {
				v += e.Sent.Load()
			}
			return v
		},
		received: func() (v uint64) {
			for _, e := range ends {
				v += e.Received.Load()
			}
			return v
		},
	}
	if len(ends) > 0 {
		c.Ledger.pause = func(p bool) {
			for _, e := range ends {
				e.SetPaused(p)
			}
		}
	}
}

// applyBidirEndpointArgs injects per-end traffic args into a bidirectional
// chain graph (mirror the 5-tuple for the reverse direction so both ends
// generate sane, distinct flows). Shared by the single-node and the
// cluster split-chain deployers.
func applyBidirEndpointArgs(g *graph.Graph, opts ChainOptions) {
	if opts.LanePCP != 0 {
		for i := range g.Edges {
			g.Edges[i].PCP = opts.LanePCP & 0x07
		}
	}
	for i := range g.VNFs {
		switch g.VNFs[i].Name {
		case "end0":
			g.VNFs[i].Args = orchestrator.SrcSinkArgs{
				Spec: orchestrator.DefaultTrafficSpec(), Flows: opts.Flows, Timestamp: opts.Timestamp,
				RatePps: opts.RatePps,
			}
		case "end1":
			spec := orchestrator.DefaultTrafficSpec()
			spec.SrcIP, spec.DstIP = spec.DstIP, spec.SrcIP
			spec.SrcMAC, spec.DstMAC = spec.DstMAC, spec.SrcMAC
			spec.SrcPort, spec.DstPort = spec.DstPort, spec.SrcPort
			g.VNFs[i].Args = orchestrator.SrcSinkArgs{
				Spec: spec, Flows: opts.Flows, Timestamp: opts.Timestamp,
				RatePps: opts.RatePps,
			}
		}
	}
}

// DeployBidirChain deploys the paper's Figure 3(a) workload: n forwarder VMs
// in a line with a combined source/sink VM at each end, bidirectional 64B
// traffic. The number of VMs in the paper's x-axis sense is n+2.
func (node *Node) DeployBidirChain(n int, opts ChainOptions) (*Chain, error) {
	g := graph.BidirChain(n)
	applyBidirEndpointArgs(g, opts)
	d, err := node.Deploy(g)
	if err != nil {
		return nil, err
	}
	c := &Chain{host: node, dep: d, own: d.inner, n: n, hops: n + 1, segments: []int{n + 2}}
	c.setEnds(d.inner.SrcSink("end0"), d.inner.SrcSink("end1"))
	return c, nil
}

// DeployNICChain deploys the paper's Figure 3(b) workload: n forwarder VMs
// between two simulated 10G NICs, with external generators and sinks on
// both NICs (bidirectional 64B traffic through the node).
func (node *Node) DeployNICChain(n int, opts ChainOptions) (*Chain, error) {
	flows := opts.Flows
	if flows == 0 {
		flows = 1
	}
	eth0, err := node.AddNIC(fmt.Sprintf("eth0-n%d", n), 0)
	if err != nil {
		return nil, err
	}
	eth1, err := node.AddNIC(fmt.Sprintf("eth1-n%d", n), 0)
	if err != nil {
		return nil, err
	}
	g := graph.Chain(n, eth0.PortName(), eth1.PortName())
	d, err := node.Deploy(g)
	if err != nil {
		return nil, err
	}
	// NIC↔VM hops cannot bypass: n VMs ⇒ n-1 VM↔VM hops.
	c := &Chain{host: node, dep: d, own: d.inner, n: n, hops: max(n-1, 0), segments: []int{n},
		nics: []*nic.NIC{eth0, eth1}}
	c.setEnds()

	fwd := orchestrator.DefaultTrafficSpec()
	rev := fwd
	rev.SrcIP, rev.DstIP = fwd.DstIP, fwd.SrcIP
	rev.SrcPort, rev.DstPort = fwd.DstPort, fwd.SrcPort

	g0, err := nic.NewGenerator(eth0, node.inner.Pool, fwd, flows)
	if err != nil {
		d.Stop()
		return nil, err
	}
	g1, err := nic.NewGenerator(eth1, node.inner.Pool, rev, flows)
	if err != nil {
		g0.Stop()
		d.Stop()
		return nil, err
	}
	c.gens = []*nic.Generator{g0, g1}
	c.wsnk = []*nic.WireSink{nic.NewWireSink(eth0), nic.NewWireSink(eth1)}
	return c, nil
}

// Stop halts traffic and tears the chain down on every node it spans,
// including any NICs the chain created.
func (c *Chain) Stop() {
	if c.cdep != nil {
		c.cdep.Stop()
		return
	}
	node := c.host.(*Node).inner
	for _, g := range c.gens {
		g.Stop()
	}
	c.dep.Stop()
	for _, s := range c.wsnk {
		s.Stop()
	}
	for _, dev := range c.nics {
		// Through RemoveNIC (not bare RemovePort) so the name registration
		// dies with the port and a later chain can reuse it.
		_ = node.RemoveNIC(dev.PortName())
	}
	// Wait out PMD iterations still holding the old port snapshot: draining
	// a queue the datapath is also consuming would break the SPSC contract.
	node.Switch.WaitDatapathQuiescence()
	for _, dev := range c.nics {
		// Free anything still parked in either NIC queue. The generators and
		// the switch PMDs are stopped or detached by now, so the drain sees
		// quiescent rings.
		dev.Reclaim()
	}
}

// Deployment exposes a cluster chain's underlying deployment, for reconcile
// and migration calls against a benchmark chain (nil on a single node).
func (c *Chain) Deployment() *ClusterDeployment { return c.cdep }

// Length returns the number of forwarder VMs.
func (c *Chain) Length() int { return c.n }

// Segments returns the number of chain VMs placed on each node at deploy,
// in node order.
func (c *Chain) Segments() []int { return append([]int(nil), c.segments...) }

// ExpectedBypasses returns the number of directed bypass links a highway
// node or cluster should establish for this chain under its live layout:
// every intra-node VM↔VM hop in both directions. NIC↔VM hops and the trunk
// hops between nodes cannot bypass.
func (c *Chain) ExpectedBypasses() int {
	hops := c.hops
	if c.cdep != nil {
		hops -= c.cdep.Crossings()
	}
	return 2 * hops
}

// ResetWindow zeroes all measurement counters.
func (c *Chain) ResetWindow() {
	for _, e := range c.ends {
		e.ResetWindow()
	}
	for _, s := range c.wsnk {
		s.ResetWindow()
	}
}

// RatePps returns the aggregate receive rate since the last ResetWindow
// (both directions summed, matching the paper's bidirectional throughput
// axis).
func (c *Chain) RatePps() float64 {
	var total float64
	for _, e := range c.ends {
		total += e.RatePps()
	}
	for _, s := range c.wsnk {
		total += s.RatePps()
	}
	return total
}

// MeasureMpps runs a fresh measurement window of the given duration and
// returns the aggregate throughput in Mpps — the bare window, for callers
// that shaped the datapath by hand; Measure is the full cycle.
func (c *Chain) MeasureMpps(window time.Duration) float64 {
	c.ResetWindow()
	time.Sleep(window)
	return c.RatePps() / 1e6
}

// LatencyQuantile returns the q-quantile of one-way latency across both
// directions. Only meaningful for chains deployed with Timestamp: true;
// timestamps survive a trunk hop (the pump copies them across pools).
func (c *Chain) LatencyQuantile(q float64) time.Duration {
	var worst time.Duration
	for _, e := range c.ends {
		if v := e.Lat.Quantile(q); v > worst {
			worst = v
		}
	}
	return worst
}

// LatencyMean returns the mean one-way latency across both directions.
func (c *Chain) LatencyMean() time.Duration {
	var sum time.Duration
	var n int
	for _, e := range c.ends {
		if e.Lat.Count() > 0 {
			sum += e.Lat.Mean()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// LatencySamples returns the number of recorded latency samples.
func (c *Chain) LatencySamples() uint64 {
	var total uint64
	for _, e := range c.ends {
		total += e.Lat.Count()
	}
	return total
}

// PathDelta is one trunk's carried/dropped frames over a measurement
// window, both directions summed.
type PathDelta struct {
	Name             string
	Carried, Dropped uint64
}

// trunkTotals reads each trunk's since-boot carried/dropped totals.
func trunkTotals(trunks []*trunk.Trunk) []PathDelta {
	out := make([]PathDelta, len(trunks))
	for i, tr := range trunks {
		ab, ba := tr.Stats()
		out[i] = PathDelta{tr.Name(), ab.Carried + ba.Carried, ab.Dropped + ba.Dropped}
	}
	return out
}

// Window is what one measurement window of a chain read.
type Window struct {
	Mpps           float64 // aggregate receive rate, both directions
	Mean, P50, P99 time.Duration
	Samples        uint64 // latency samples (0 unless deployed with Timestamp)
	Bypasses       int    // the chain's own live bypasses at the end of the window
	// Paths are the window deltas of every trunk a cluster chain's lanes
	// ride (shared adjacencies count co-resident chains' frames too).
	Paths []PathDelta
}

// Measure runs the one measurement cycle on a deployed chain. In highway
// mode it first waits for exactly ExpectedBypasses live bypasses on the
// chain's own ports and fails otherwise, so a window never silently measures
// a half-built highway. Then it warms up, zeroes the counters, sleeps the
// window and reads throughput, latency, bypass count and per-trunk deltas
// together.
func (c *Chain) Measure(warmup, window time.Duration) (Window, error) {
	if c.host.Mode() == ModeHighway {
		if want := c.ExpectedBypasses(); !c.own.WaitBypassCount(want) {
			return Window{}, fmt.Errorf("bypasses not established: %d live, want %d", c.own.BypassCount(), want)
		}
	}
	time.Sleep(warmup)
	var trunks []*trunk.Trunk
	if c.cdep != nil {
		trunks = c.cdep.inner.Trunks()
	}
	pre := trunkTotals(trunks)
	c.ResetWindow()
	time.Sleep(window)
	w := Window{
		Mpps:     c.RatePps() / 1e6,
		Mean:     c.LatencyMean(),
		P50:      c.LatencyQuantile(0.50),
		P99:      c.LatencyQuantile(0.99),
		Samples:  c.LatencySamples(),
		Bypasses: c.own.BypassCount(),
		Paths:    trunkTotals(trunks),
	}
	for i := range w.Paths {
		w.Paths[i].Carried -= pre[i].Carried
		w.Paths[i].Dropped -= pre[i].Dropped
	}
	return w, nil
}
