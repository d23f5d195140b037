package highway

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/core"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/orchestrator"
	"ovshighway/internal/pkt"
	"ovshighway/internal/vnf"
	"ovshighway/internal/vswitch"
)

// ExperimentConfig tunes the measurement harness. Zero values take defaults
// (200 ms warm-up, 500 ms window, 4 flows).
type ExperimentConfig struct {
	Warmup time.Duration
	Window time.Duration
	Flows  int
	// NumPMDs configures the vSwitch forwarding threads (default 1, as a
	// single shared PMD core is what makes the vanilla baseline decay).
	NumPMDs int
	// EMCDisabled turns the exact-match cache off (ablation A1).
	EMCDisabled bool
	// EMCEntries overrides the per-PMD exact-match cache size (0 = the
	// vswitch default, 8192). The probabilistic-insertion win only shows
	// when the cache is small relative to the active flow count.
	EMCEntries int
	// SMCDisabled turns the signature-match cache off (ablation A5).
	SMCDisabled bool
	// EMCInsertInvProb is the vswitch emc-insert-inv-prob knob: a
	// classifier resolution may displace a LIVE EMC or SMC entry one time in
	// N (vacant, stale and dead ways are always taken). 0 = the vswitch
	// default, 100; 1 = always displace — the replace-on-every-miss contrast
	// arm that lets one-packet mice churn elephants out under heavy-tailed
	// traffic.
	EMCInsertInvProb int
	// ZipfSkew, when > 1, switches the flowscale generator from uniform
	// cycling to a Zipf(s) draw over the flow ids: a few elephant flows
	// carry most packets over a long mouse tail — the regime where sparse
	// EMC insertion wins.
	ZipfSkew float64
	// NumQueues is the RSS queue count per dpdkr port in the pmdscale
	// experiment (default 4): the hot port's traffic fans over this many
	// independently-homed queues, which is what gives extra PMDs something
	// to own.
	NumQueues int
}

func (c *ExperimentConfig) fill() {
	if c.Warmup == 0 {
		c.Warmup = 200 * time.Millisecond
	}
	if c.Window == 0 {
		c.Window = 500 * time.Millisecond
	}
	if c.Flows == 0 {
		c.Flows = 4
	}
	if c.NumQueues == 0 {
		c.NumQueues = 4
	}
}

// node lowers the harness knobs onto the Config of every node an experiment
// boots.
func (c ExperimentConfig) node(mode Mode) Config {
	return Config{Mode: mode, NumPMDs: c.NumPMDs, EMCDisabled: c.EMCDisabled, SMCDisabled: c.SMCDisabled}
}

// ChainRow is one measured chain point: which chain it was and what its
// measurement window read. Every chain-shaped experiment reports this row.
type ChainRow struct {
	Mode     Mode
	Segments []int // chain VMs per node; their sum is the paper's x-axis
	Window
	// Repicks is the number of adaptive ECMP avoid-set changes across all
	// nodes since the measured chain deployed (incast experiment only).
	Repicks uint64
}

// measure runs the chain's one measurement cycle under cfg and projects it
// onto a row.
func (cfg ExperimentConfig) measure(chain *Chain) (ChainRow, error) {
	w, err := chain.Measure(cfg.Warmup, cfg.Window)
	return ChainRow{Mode: chain.host.Mode(), Segments: chain.Segments(), Window: w}, err
}

// measurePoint is the cycle every one-chain experiment point shares, from a
// freshly booted node or cluster on: deploy the chain, measure it, tear
// both down.
func (cfg ExperimentConfig) measurePoint(host interface{ Stop() }, deploy func() (*Chain, error)) (ChainRow, error) {
	defer host.Stop()
	chain, err := deploy()
	if err != nil {
		return ChainRow{}, err
	}
	defer chain.Stop()
	return cfg.measure(chain)
}

// bidirPoint measures one memory-only chain of vms total VMs (the paper's
// x-axis: both source/sink end VMs included, so vms-2 forwarders) on one
// node.
func bidirPoint(exp string, vms int, mode Mode, cfg ExperimentConfig, timestamp bool) (ChainRow, error) {
	cfg.fill()
	if vms < 2 {
		return ChainRow{}, fmt.Errorf("%s: need >= 2 VMs, got %d", exp, vms)
	}
	node, err := Start(cfg.node(mode))
	if err != nil {
		return ChainRow{}, err
	}
	return cfg.measurePoint(node, func() (*Chain, error) {
		return node.DeployBidirChain(vms-2, ChainOptions{Flows: cfg.Flows, Timestamp: timestamp})
	})
}

// RunFig3aPoint measures one Figure 3(a) point: the throughput of a
// memory-only chain of vms total VMs in the given datapath mode.
func RunFig3aPoint(vms int, mode Mode, cfg ExperimentConfig) (ChainRow, error) {
	return bidirPoint("fig3a", vms, mode, cfg, false)
}

// RunLatencyPoint measures one-way latency through a memory-only chain of
// vms total VMs under bidirectional load (experiment E3; the paper reports
// ~80% improvement at 8 VMs).
func RunLatencyPoint(vms int, mode Mode, cfg ExperimentConfig) (ChainRow, error) {
	return bidirPoint("latency", vms, mode, cfg, true)
}

// RunFig3bPoint measures one Figure 3(b) point: vms forwarder VMs between
// two line-rate-limited 10G NICs.
func RunFig3bPoint(vms int, mode Mode, cfg ExperimentConfig) (ChainRow, error) {
	cfg.fill()
	if vms < 1 {
		return ChainRow{}, fmt.Errorf("fig3b: need >= 1 VM, got %d", vms)
	}
	node, err := Start(cfg.node(mode))
	if err != nil {
		return ChainRow{}, err
	}
	return cfg.measurePoint(node, func() (*Chain, error) {
		return node.DeployNICChain(vms, ChainOptions{Flows: cfg.Flows})
	})
}

// splitPoint measures one split chain of vms total VMs placed over the
// given nodes (nil = all) of a freshly booted cluster.
func splitPoint(exp string, vms int, ccfg ClusterConfig, nodes []string, opts ChainOptions, cfg ExperimentConfig) (ChainRow, error) {
	if vms < 2 {
		return ChainRow{}, fmt.Errorf("%s: need >= 2 VMs, got %d", exp, vms)
	}
	cluster, err := StartCluster(ccfg)
	if err != nil {
		return ChainRow{}, err
	}
	return cfg.measurePoint(cluster, func() (*Chain, error) {
		return cluster.DeploySplitChain(vms-2, nodes, opts)
	})
}

// RunMultiNodePoint measures one 2-node split-chain point: vms total VMs
// split across nodes "node-a"/"node-b". Intra-node hops can bypass in
// highway mode; the inter-node hop rides a VLAN lane on the nodes' shared
// 10G trunk in either mode — realistic shared-uplink contention, not a
// private wire.
func RunMultiNodePoint(vms int, mode Mode, cfg ExperimentConfig) (ChainRow, error) {
	cfg.fill()
	return splitPoint("multinode", vms,
		ClusterConfig{Config: cfg.node(mode), Nodes: []string{"node-a", "node-b"}},
		nil, ChainOptions{Flows: cfg.Flows}, cfg)
}

// RunWireLatencyPoint measures one 2-node split-chain point under the given
// trunk propagation delay: throughput and one-way latency together, under
// bidirectional load. The chain crosses the trunk once, so every end-to-end
// path pays the delay exactly once per direction — a mode-independent
// floor under which the highway's latency edge shrinks while its
// throughput edge survives.
func RunWireLatencyPoint(vms int, wireLat time.Duration, mode Mode, cfg ExperimentConfig) (ChainRow, error) {
	cfg.fill()
	return splitPoint("wlatency", vms,
		ClusterConfig{Config: cfg.node(mode), Nodes: []string{"node-a", "node-b"}, WireLatency: wireLat},
		nil, ChainOptions{Flows: cfg.Flows, Timestamp: true}, cfg)
}

// RunFabricThroughputPoint measures one cross-node throughput point on a
// 3-node vanilla chain (node-a → node-b → node-c, two crossings) whose
// trunks are rate-limited to perTrunkRate per direction — the uplink, not
// the datapath, is the bottleneck. ECMP width multiplies the parallel
// trunks per adjacency at the SAME per-trunk rate, so a wider bundle must
// carry measurably more once flows spread across the paths (the row's
// Paths).
func RunFabricThroughputPoint(vms, ecmpWidth int, perTrunkRate float64, cfg ExperimentConfig) (ChainRow, error) {
	cfg.fill()
	if vms < 3 {
		return ChainRow{}, fmt.Errorf("fabric: need >= 3 VMs for a 3-node chain, got %d", vms)
	}
	return splitPoint("fabric", vms, ClusterConfig{
		Config:    cfg.node(ModeVanilla),
		Nodes:     []string{"node-a", "node-b", "node-c"},
		TrunkRate: perTrunkRate,
		Fabric:    FabricConfig{Mode: FabricMesh, ECMPWidth: ecmpWidth},
	}, nil, ChainOptions{Flows: 32}, cfg)
}

// RunFabricLatencyPoint measures one vanilla split-chain latency point with
// the chain's two segments on two leaves, in mesh (direct trunk) or spine
// (relay through a third node's vSwitch) topology, under the given trunk
// propagation delay. The spine path pays the delay — and the relay hop —
// twice, which is the extra-hop penalty of a switched core.
func RunFabricLatencyPoint(vms int, mode FabricMode, wireLat time.Duration, cfg ExperimentConfig) (ChainRow, error) {
	cfg.fill()
	return splitPoint("fabric", vms, ClusterConfig{
		Config:      cfg.node(ModeVanilla),
		Nodes:       []string{"spine", "leaf-a", "leaf-b"},
		TrunkRate:   -1,
		WireLatency: wireLat,
		Fabric:      FabricConfig{Mode: mode, Spines: []string{"spine"}},
	}, []string{"leaf-a", "leaf-b"}, ChainOptions{Flows: cfg.Flows, Timestamp: true}, cfg)
}

// FabricQoSRow summarizes the lane-QoS arm: two co-resident split chains
// saturate one shared trunk from different 802.1Q priority classes under a
// 2:1 DRR weighting.
type FabricQoSRow struct {
	HiMpps, LoMpps float64
	Ratio          float64
	// HiCarried/LoCarried and drops are the trunk's per-PCP window deltas.
	HiCarried, HiDropped uint64
	LoCarried, LoDropped uint64
}

// RunFabricQoS deploys two 3-VM split chains over one shared 2-node trunk,
// one riding PCP 6 (weight 2), the other PCP 0 (weight 1), both saturating
// the shared perTrunkRate budget, and reports their goodput split. The
// trunk scheduler unit test (TestTrunkPCPWeightedScheduler) asserts the
// same ≈2:1 property in isolation; this is the end-to-end view with real
// chains, steering rules and the mod_vlan_pcp stamp in the datapath. The
// two chains share ONE window, so it is opened here rather than by either
// chain's Measure.
func RunFabricQoS(perTrunkRate float64, cfg ExperimentConfig) (FabricQoSRow, error) {
	cfg.fill()
	nodes := []string{"node-a", "node-b"}
	cluster, err := StartCluster(ClusterConfig{
		Config:    cfg.node(ModeVanilla),
		Nodes:     nodes,
		TrunkRate: perTrunkRate,
		Fabric:    FabricConfig{PCPWeights: [8]float64{0: 1, 6: 2}},
	})
	if err != nil {
		return FabricQoSRow{}, err
	}
	defer cluster.Stop()
	hi, err := cluster.deploySplitChain("hi-", 1, nodes, ChainOptions{Flows: 8, LanePCP: 6})
	if err != nil {
		return FabricQoSRow{}, err
	}
	defer hi.Stop()
	lo, err := cluster.deploySplitChain("lo-", 1, nodes, ChainOptions{Flows: 8})
	if err != nil {
		return FabricQoSRow{}, err
	}
	defer lo.Stop()

	time.Sleep(cfg.Warmup)
	trunks := cluster.inner.PairTrunks("node-a", "node-b")
	if len(trunks) != 1 {
		return FabricQoSRow{}, fmt.Errorf("fabric qos: expected one shared trunk, have %d", len(trunks))
	}
	preAB, preBA := trunks[0].PCPStats()
	hi.ResetWindow()
	lo.ResetWindow()
	time.Sleep(cfg.Window)
	row := FabricQoSRow{HiMpps: hi.RatePps() / 1e6, LoMpps: lo.RatePps() / 1e6}
	if row.LoMpps > 0 {
		row.Ratio = row.HiMpps / row.LoMpps
	}
	postAB, postBA := trunks[0].PCPStats()
	row.HiCarried = postAB[6].Carried + postBA[6].Carried - preAB[6].Carried - preBA[6].Carried
	row.HiDropped = postAB[6].Dropped + postBA[6].Dropped - preAB[6].Dropped - preBA[6].Dropped
	row.LoCarried = postAB[0].Carried + postBA[0].Carried - preAB[0].Carried - preBA[0].Carried
	row.LoDropped = postAB[0].Dropped + postBA[0].Dropped - preAB[0].Dropped - preBA[0].Dropped
	return row, nil
}

// RunIncastPoint measures one arm of the congestion-aware ECMP incast
// experiment — static hash pinning (adaptive false) or adaptive repick — on
// a 4-node, 2-spine Clos (leaf-a, leaf-b uplink to spine-1 AND spine-2).
// Background chains incast onto spine-1 from both leaves, saturating
// exactly the trunks the measured lane's spine-1 path rides, in both
// directions, while a paced leaf-a↔leaf-b chain whose single ECMP rule
// spreads over both spine paths is measured. With repick disabled, the
// flows hashed onto spine-1 sit behind the incast queue; with it enabled,
// the PMD reads the per-path congestion gauges and moves them to spine-2 at
// a flowlet boundary: lower p99 AND higher carried Mpps, with the row's
// Paths showing the load shifted onto the quiet spine.
func RunIncastPoint(adaptive bool, perTrunkRate float64, cfg ExperimentConfig) (ChainRow, error) {
	cfg.fill()
	// Deep staging (2048 frames ≈ 20 ms of wait at the trunk budget) makes
	// the congested path hurt mostly in LATENCY rather than drops — the
	// regime adaptive routing exists for. The congestion gauge saturates
	// long before the queue does (occupancy threshold plus overflow-drop
	// evidence), so the signal does not need the queue to fill.
	ncfg := cfg.node(ModeVanilla)
	ncfg.ECMPAdaptiveDisabled = !adaptive
	cluster, err := StartCluster(ClusterConfig{
		Config:    ncfg,
		Nodes:     []string{"spine-1", "spine-2", "leaf-a", "leaf-b"},
		TrunkRate: perTrunkRate,
		Fabric: FabricConfig{
			Mode:       FabricSpine,
			Spines:     []string{"spine-1", "spine-2"},
			StagingCap: 2048,
		},
	})
	if err != nil {
		return ChainRow{}, err
	}
	defer cluster.Stop()

	// Background incast: chains from each leaf onto spine-1, paced at 3×
	// the trunk budget — steady overload, unlike a saturating (pool-bound)
	// generator whose two directions seesaw on buffer exhaustion and flap
	// the congestion signal. Leaf–spine crossings are single-hop, so these
	// congest the (leaf-a, spine-1) and (leaf-b, spine-1) trunks and
	// nothing else.
	for _, bg := range []struct{ prefix, leaf string }{
		{"bga-", "leaf-a"},
		{"bgb-", "leaf-b"},
	} {
		c, err := cluster.deploySplitChain(bg.prefix, 1, []string{bg.leaf, "spine-1"},
			ChainOptions{Flows: 8, RatePps: perTrunkRate * 3})
		if err != nil {
			return ChainRow{}, err
		}
		defer c.Stop()
	}

	// Measured chain: paced well under one path's capacity, so the quiet
	// spine can absorb it entirely — any residual p99 tail or drops come
	// from flows stuck behind the incast, not from self-congestion.
	chain, err := cluster.DeploySplitChain(2, []string{"leaf-a", "leaf-b"},
		ChainOptions{Flows: 32, Timestamp: true, RatePps: perTrunkRate * 0.5})
	if err != nil {
		return ChainRow{}, err
	}
	defer chain.Stop()

	// Repicks are counted from chain deploy, not window start: the masks
	// converge within the first few batches (warmup), and a steady signal
	// means they then STAY put — near-zero in-window churn is the success
	// mode, not an idle datapath.
	repicks := func() uint64 {
		var total uint64
		for _, name := range cluster.NodeNames() {
			total += cluster.inner.Node(name).Switch.DatapathStats().ECMPRepicks
		}
		return total
	}
	base := repicks()
	row, err := cfg.measure(chain)
	row.Repicks = repicks() - base
	return row, err
}

// SetupRow summarizes the bypass establishment latency experiment (E4).
type SetupRow struct {
	Samples int
	Min     time.Duration
	Mean    time.Duration
	Max     time.Duration
	// HotplugDelay/ConfigDelay echo the emulated control-plane latencies.
	HotplugDelay time.Duration
	ConfigDelay  time.Duration
}

// RunSetupTime measures the flow-mod→bypass-active latency (experiment E4)
// over `links` directed links, with the given emulated QEMU/virtio delays.
// With QEMU-realistic delays (tens of ms for hot-plug), the total lands in
// the paper's ~100 ms regime; with zero delays it exposes the pure
// control-plane software cost of this implementation.
func RunSetupTime(links int, hotplug, config time.Duration) (SetupRow, error) {
	if links < 2 {
		links = 2
	}
	var (
		mu      sync.Mutex
		samples []time.Duration
	)
	node, err := Start(Config{
		Mode:         ModeHighway,
		HotplugDelay: hotplug,
		ConfigDelay:  config,
		OnBypassUp: func(_, _ uint32, d time.Duration) {
			mu.Lock()
			samples = append(samples, d)
			mu.Unlock()
		},
	})
	if err != nil {
		return SetupRow{}, err
	}
	defer node.Stop()

	// links/2 bidirectional hops ⇒ links directed bypasses.
	chain, err := node.DeployBidirChain(links/2-1, ChainOptions{})
	if err != nil {
		return SetupRow{}, err
	}
	defer chain.Stop()
	if !node.WaitBypasses(chain.ExpectedBypasses()) {
		return SetupRow{}, fmt.Errorf("setup: bypasses not established")
	}

	mu.Lock()
	defer mu.Unlock()
	row := SetupRow{Samples: len(samples), HotplugDelay: hotplug, ConfigDelay: config}
	if len(samples) == 0 {
		return row, fmt.Errorf("setup: no samples observed")
	}
	row.Min = samples[0]
	var sum time.Duration
	for _, s := range samples {
		if s < row.Min {
			row.Min = s
		}
		if s > row.Max {
			row.Max = s
		}
		sum += s
	}
	row.Mean = sum / time.Duration(len(samples))
	return row, nil
}

// FlowScaleRow is one point of the flow-scale experiment: steady traffic
// over a given number of distinct 5-tuples, optionally under flow-table
// delete churn, with the per-tier resolution breakdown of the lookup
// hierarchy. Percentages are shares of all lookups over the run (EMC hit,
// SMC hit, within-batch dedup, full classifier walk); they show the tier
// shift as the distinct-flow count grows past each cache's reach.
type FlowScaleRow struct {
	Flows       int
	ChurnPerSec int
	Mpps        float64
	EMCPct      float64
	SMCPct      float64
	DedupPct    float64
	ClsPct      float64
	ParseErrors uint64
	// EMCConflicts counts LIVE cache entries evicted by insertions over the
	// window — the "elephant churned out by a mouse" events the
	// emc-insert-inv-prob policy exists to suppress.
	EMCConflicts uint64
	// PMDBusy is each forwarding thread's busy-poll fraction over the
	// measurement window (index = PMD), showing how the load spread across
	// threads during the point.
	PMDBusy []float64
}

// churnVictims builds n unrelated drop flows (an ingress port no traffic
// ever uses) for delete-churn fixtures: the flowscale churner and
// BenchmarkLookupChurn delete them one by one to model idle-expiry /
// co-resident-teardown flow-table churn that must not disturb live
// cache entries.
func churnVictims(n int) ([]flow.FlowSpec, []flow.Match) {
	specs := make([]flow.FlowSpec, n)
	matches := make([]flow.Match, n)
	for i := range specs {
		m := flow.MatchInPort(999).WithL4Dst(uint16(i))
		matches[i] = m
		specs[i] = flow.FlowSpec{Priority: 5, Match: m, Actions: flow.Actions{flow.Drop()}}
	}
	return specs, matches
}

// Offsets of the fields a switchRig stamp rewrites in the untagged template
// frame: the IPv4 source address, and the UDP source port right after the
// Ethernet + minimal IPv4 headers.
const (
	rigSrcIPOff   = pkt.EthernetLen + 12
	rigSrcPortOff = pkt.EthernetLen + pkt.IPv4MinLen
)

// switchRig is the bare-vSwitch fixture of the flowscale, pmdscale and
// conntrack experiments: one switch with a generator port (1) and a sink
// port (2), a buffer pool, a template frame, a generator goroutine that
// blasts the template with a per-frame stamp turning it into distinct
// flows, a sink goroutine counting deliveries, windowed DatapathStats
// deltas and an ordered teardown. The experiments add only what differs:
// rules, extra ports, an app under test, helper loops.
type switchRig struct {
	sw        *vswitch.Switch
	pool      *mempool.Pool
	gen, sink *dpdkr.PMD
	frame     []byte
	app       *vnf.App // optional VNF under test, started and stopped with the rig
	stop      atomic.Bool
	wg        sync.WaitGroup
	delivered atomic.Uint64
}

func newSwitchRig(scfg vswitch.Config, genQueues int, spec pkt.UDPSpec) (*switchRig, error) {
	r := &switchRig{sw: vswitch.New(scfg), pool: mempool.MustNew(mempool.Config{Capacity: 4096})}
	var err error
	if r.gen, err = r.addPort(1, "gen", genQueues); err != nil {
		return nil, err
	}
	if r.sink, err = r.addPort(2, "sink", 1); err != nil {
		return nil, err
	}
	raw := make([]byte, 256)
	n, err := pkt.BuildUDP(raw, spec)
	if err != nil {
		return nil, err
	}
	// A stamp rewrites addresses and ports without refreshing checksums.
	// Neither the parser nor the ACL verifies them, so clear the UDP
	// checksum once (0 = "no checksum") and every generated frame stays
	// well-formed; the IPv4 sum may go stale.
	raw[rigSrcPortOff+6], raw[rigSrcPortOff+7] = 0, 0
	r.frame = raw[:n]
	return r, nil
}

// addPort attaches one more dpdkr port and returns its guest side.
func (r *switchRig) addPort(id uint32, name string, queues int) (*dpdkr.PMD, error) {
	port, pmd, err := dpdkr.NewPortMQ(id, name, 1024, queues)
	if err != nil {
		return nil, err
	}
	return pmd, r.sw.AddPort(port)
}

// loop runs step repeatedly on its own goroutine until the rig closes.
func (r *switchRig) loop(step func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for !r.stop.Load() {
			step()
		}
	}()
}

// start boots the switch, the app under test and the traffic: the sink
// drains port 2 back into the pool, the generator fills bursts with the
// template frame, lets stamp(seq, frame) rewrite each (seq counts frames
// from 0), and sends them into port 1. Pair with close.
func (r *switchRig) start(stamp func(seq int, frame []byte)) error {
	if err := r.sw.Start(); err != nil {
		return err
	}
	if r.app != nil {
		r.app.Start()
	}
	out := make([]*mempool.Buf, 64)
	r.loop(func() {
		n := r.sink.Rx(out)
		if n == 0 {
			runtime.Gosched()
			return
		}
		r.delivered.Add(uint64(n))
		mempool.FreeBatch(out[:n])
	})
	bufs := make([]*mempool.Buf, 32)
	seq := 0
	r.loop(func() {
		got := r.pool.GetBatch(bufs)
		if got == 0 {
			runtime.Gosched()
			return
		}
		for _, b := range bufs[:got] {
			b.SetBytes(r.frame)
			stamp(seq, b.Bytes())
			seq++
		}
		if sent := r.gen.Tx(bufs[:got]); sent < got {
			mempool.FreeBatch(bufs[sent:got])
			runtime.Gosched()
		}
	})
	return nil
}

// window sleeps d and returns the delivered rate over it together with the
// DatapathStats delta across it — snapshot-and-diff (the counters are
// per-PMD atomics, safe to read live), so tier splits and PMD loads report
// steady state rather than blurring in warm-up misses and cold caches.
func (r *switchRig) window(d time.Duration) (mpps float64, st vswitch.DatapathStats) {
	pre := r.sw.DatapathStats()
	base := r.delivered.Load()
	t0 := time.Now()
	time.Sleep(d)
	got := r.delivered.Load() - base
	elapsed := time.Since(t0)
	return float64(got) / elapsed.Seconds() / 1e6, r.sw.DatapathStats().Delta(pre)
}

// close tears a started rig down in order: traffic and helper loops, then
// the app, then the switch.
func (r *switchRig) close() {
	r.stop.Store(true)
	r.wg.Wait()
	if r.app != nil {
		r.app.Stop()
	}
	r.sw.Stop()
}

// stampSrcPort writes the UDP source port — the flow axis of the template
// frame.
func stampSrcPort(frame []byte, port uint16) {
	frame[rigSrcPortOff] = byte(port >> 8)
	frame[rigSrcPortOff+1] = byte(port)
}

// tierSplit expresses a DatapathStats window as each lookup tier's share
// (in percent) of all lookups: EMC hit, SMC hit, within-batch dedup, full
// classifier walk.
func tierSplit(st vswitch.DatapathStats) (emc, smc, dedup, cls float64) {
	lookups := st.EMC.Hits + st.SMC.Hits + st.DedupHits + st.ClassifierHits + st.ClassifierMisses
	if lookups == 0 {
		return 0, 0, 0, 0
	}
	pct := func(v uint64) float64 { return 100 * float64(v) / float64(lookups) }
	return pct(st.EMC.Hits), pct(st.SMC.Hits), pct(st.DedupHits), pct(st.ClassifierHits + st.ClassifierMisses)
}

// RunFlowScalePoint measures one (distinct flows × churn) point on a bare
// vSwitch: the generator cycles `flows` distinct UDP 5-tuples (one wildcard
// rule forwards them all, so every 5-tuple is its own EMC/SMC entry but the
// classifier holds one subtable row), while a churner deletes pre-installed
// unrelated flows at churnPerSec — the idle-expiry/teardown churn that used
// to stampede the whole EMC onto the classifier before death-mark
// invalidation.
func RunFlowScalePoint(flows, churnPerSec int, cfg ExperimentConfig) (FlowScaleRow, error) {
	cfg.fill()
	if flows < 1 || flows > 1<<16 {
		return FlowScaleRow{}, fmt.Errorf("flowscale: flows %d out of range [1,65536]", flows)
	}
	if churnPerSec < 0 {
		return FlowScaleRow{}, fmt.Errorf("flowscale: negative churn rate %d", churnPerSec)
	}
	rig, err := newSwitchRig(vswitch.Config{
		NumPMDs:          cfg.NumPMDs,
		EMCDisabled:      cfg.EMCDisabled,
		EMCEntries:       cfg.EMCEntries,
		SMCDisabled:      cfg.SMCDisabled,
		EMCInsertInvProb: cfg.EMCInsertInvProb,
		// Sweep often: each sweep re-ranks the classifier by observed hits.
		SweepInterval: 50 * time.Millisecond,
	}, 1, orchestrator.DefaultTrafficSpec())
	if err != nil {
		return FlowScaleRow{}, err
	}
	table := rig.sw.Table()
	table.Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)

	// Churn victims: a bounded pool of unrelated flows, deleted at the
	// requested rate and re-installed in one batch each time the pool runs
	// dry, so the delete pressure is sustained for arbitrary windows (each
	// restock costs one add-generation bump per `victims` deletes —
	// negligible next to the churn it feeds).
	// The pool is deliberately small: a delete costs O(table size) (match
	// scan + snapshot rebuild), so an oversized victim pool would measure
	// delete CPU cost on the shared core instead of cache invalidation.
	var specs []flow.FlowSpec
	var victims []flow.Match
	if churnPerSec > 0 {
		specs, victims = churnVictims(512)
		table.AddBatch(specs)
	}

	// Uniform mode cycles the flow set; Zipf mode draws heavy-tailed
	// traffic where rank 0 is the biggest elephant and the cold half of the
	// ranks is replaced by ONE-SHOT mice — fresh ephemeral ports that never
	// repeat, like short-lived connections. One-shot mice are what make
	// unconditional EMC insertion hurt: each claims a cache slot it will
	// never use again, evicting an elephant to do so.
	stamp := func(seq int, frame []byte) { stampSrcPort(frame, uint16(seq%flows)) }
	if cfg.ZipfSkew > 1 && flows > 1 {
		zipf := rand.NewZipf(rand.New(rand.NewSource(42)), cfg.ZipfSkew, 1, uint64(flows-1))
		mouse := flows // one-shot mice cycle the port space above the elephants
		stamp = func(_ int, frame []byte) {
			r := int(zipf.Uint64())
			// No mouse space is left when the elephants already fill the
			// 16-bit port axis: fall back to the plain Zipf draw
			// (uint16(flows) would otherwise alias rank 0).
			if r < (flows+1)/2 || flows >= 1<<16 {
				stampSrcPort(frame, uint16(r)) // persistent elephant
				return
			}
			// One-shot mouse from the port space above the elephants. The
			// space cycles (65536-flows ports), so "one-shot" holds as long
			// as a full cycle outlives the EMC residence of anything a
			// mouse displaced — true for the demo configs, which keep
			// flows ≤ 4096.
			stampSrcPort(frame, uint16(mouse))
			mouse++
			if mouse > 0xffff {
				mouse = flows
			}
		}
	}
	if err := rig.start(stamp); err != nil {
		return FlowScaleRow{}, err
	}
	defer rig.close()

	// Churner: delete pre-installed unrelated flows at churnPerSec, paced
	// in 1 ms quanta (a per-delete sleep undershoots badly once the
	// interval drops below the scheduler's sleep granularity), restocking
	// the victim pool when it runs dry.
	if churnPerSec > 0 {
		// Catch-up bursts are capped: after a long deschedule (normal on
		// the 1-core hosts) the backlog is dropped rather than executed as
		// a rebuild storm that would stall the datapath for tens of ms. The
		// achieved rate therefore saturates around 32k/s; the sweep's rates
		// sit far below that.
		const burstCap = 32
		churnStart := time.Now()
		done, next := 0, 0
		rig.loop(func() {
			due := int(time.Since(churnStart).Seconds() * float64(churnPerSec))
			if due-done > burstCap {
				done = due - burstCap
			}
			for ; done < due && !rig.stop.Load(); done++ {
				if next == len(victims) {
					table.AddBatch(specs)
					next = 0
				}
				table.DeleteStrict(5, victims[next])
				next++
			}
			time.Sleep(time.Millisecond)
		})
	}

	time.Sleep(cfg.Warmup)
	mpps, st := rig.window(cfg.Window)
	row := FlowScaleRow{
		Flows:        flows,
		ChurnPerSec:  churnPerSec,
		Mpps:         mpps,
		ParseErrors:  st.ParseErrors,
		EMCConflicts: st.EMC.Conflicts,
		PMDBusy:      make([]float64, len(st.PMDs)),
	}
	row.EMCPct, row.SMCPct, row.DedupPct, row.ClsPct = tierSplit(st)
	for i, l := range st.PMDs {
		row.PMDBusy[i] = l.BusyFraction()
	}
	return row, nil
}

// PMDScaleRow is one point of the multi-PMD scaling experiment: a single
// hot multi-queue port driven at full rate, for a given (PMD count ×
// queues-per-port), with or without the auto-balancer. Spread is
// max−min per-PMD busy fraction; Before is measured with every queue
// deliberately skewed onto PMD 0, After over the final (post-balancing)
// measurement window. Moves counts the balancer's queue re-homings.
type PMDScaleRow struct {
	PMDs         int
	Queues       int
	Balanced     bool
	Mpps         float64
	SpreadBefore float64
	SpreadAfter  float64
	Moves        uint64
}

// pmdSpread is max−min busy fraction across a windowed PMD load sample.
func pmdSpread(win []vswitch.PMDLoad) float64 {
	if len(win) == 0 {
		return 0
	}
	lo, hi := win[0].BusyFraction(), win[0].BusyFraction()
	for _, l := range win[1:] {
		f := l.BusyFraction()
		lo, hi = min(lo, f), max(hi, f)
	}
	return hi - lo
}

// RunPMDScalePoint measures one (PMDs × queues × balancer) point: a bare
// vSwitch with a single multi-queue generator port, all of whose RX queues
// are first forced onto PMD 0 — the residue-clustering pathology made
// deliberate — then, in the balanced arm, handed to the auto-balancer to
// spread. The generator cycles enough distinct 5-tuples that the RSS hash
// populates every queue.
func RunPMDScalePoint(pmds, queues int, balance bool, cfg ExperimentConfig) (PMDScaleRow, error) {
	cfg.fill()
	if pmds < 1 || queues < 1 {
		return PMDScaleRow{}, fmt.Errorf("pmdscale: need pmds >= 1 and queues >= 1")
	}
	rig, err := newSwitchRig(vswitch.Config{NumPMDs: pmds}, queues, orchestrator.DefaultTrafficSpec())
	if err != nil {
		return PMDScaleRow{}, err
	}
	rig.sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	// Enough distinct flows that every queue receives a share of the hash
	// space with overwhelming probability.
	flows := max(cfg.Flows, 8*queues)
	if err := rig.start(func(seq int, frame []byte) { stampSrcPort(frame, uint16(seq%flows)) }); err != nil {
		return PMDScaleRow{}, err
	}
	defer rig.close()

	// Skew: home every gen queue on PMD 0 (the sink queue may stay where the
	// initial assignment put it — one cold single-queue port does not tilt
	// the comparison).
	for q := 0; q < queues; q++ {
		if err := rig.sw.MoveQueue(1, q, 0); err != nil {
			return PMDScaleRow{}, err
		}
	}
	time.Sleep(cfg.Warmup)
	_, before := rig.window(cfg.Window)
	row := PMDScaleRow{PMDs: pmds, Queues: queues, Balanced: balance, SpreadBefore: pmdSpread(before.PMDs)}

	if balance && pmds > 1 {
		// Drive convergence deterministically: sample-and-rebalance at the
		// balancer's own cadence until a window stays under threshold (or a
		// bounded number of samples passes — convergence is asserted by the
		// caller from SpreadAfter, not assumed here).
		bal := core.NewBalancer(rig.sw, core.BalancerConfig{})
		for i := 0; i < 20; i++ {
			time.Sleep(100 * time.Millisecond)
			bal.RebalanceOnce()
			st := bal.Stats()
			if st.Samples >= 3 && st.Moves == row.Moves {
				break // stable: recent windows triggered no movement
			}
			row.Moves = st.Moves
		}
		row.Moves = bal.Stats().Moves
	}

	mpps, after := rig.window(cfg.Window)
	row.Mpps, row.SpreadAfter = mpps, pmdSpread(after.PMDs)
	return row, nil
}

// RunPMDScale sweeps PMD count × queues-per-port × balancer for the
// pmdscale table: the single-queue column shows why RSS is necessary (one
// queue can never use more than one PMD), the skewed-unbalanced column
// shows why the balancer is (all queues pinned to PMD 0), and the balanced
// column shows the two mechanisms composing.
func RunPMDScale(cfg ExperimentConfig) ([]PMDScaleRow, error) {
	cfg.fill()
	var rows []PMDScaleRow
	for _, pmds := range []int{1, 2, 4} {
		for _, queues := range []int{1, cfg.NumQueues} {
			if queues == 1 && cfg.NumQueues == 1 {
				continue // axis collapsed; avoid a duplicate point
			}
			for _, balance := range []bool{false, true} {
				r, err := RunPMDScalePoint(pmds, queues, balance, cfg)
				if err != nil {
					return rows, err
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// ConntrackRow is one point of the conntrack scale sweep: a table
// pre-seeded with Conns established connections, then a measurement window
// of live traffic through an ACL VNF whose fast path is the conntrack
// established-connection bypass.
type ConntrackRow struct {
	Conns int
	// SeedMconnsPerSec is the table fill rate while pre-establishing the
	// Conns connections (arena-backed inserts, no heap traffic).
	SeedMconnsPerSec float64
	Mpps             float64
	// CTHitPct/CTMissPct split conntrack probes over the window: hits are
	// established-bypass packets, misses took the classifier walk (and, up
	// to capacity, established a new connection).
	CTHitPct  float64
	CTMissPct float64
	// Per-tier vSwitch lookup split over the same window. With millions of
	// distinct 5-tuples in flight the EMC/SMC working sets are hopeless and
	// the split slides toward the classifier — the point of showing it.
	EMCPct float64
	SMCPct float64
	ClsPct float64
	// Live is the connection count at the end of the window; the sweep
	// gates Live >= Conns (no seeded connection may fall out mid-run).
	Live int
}

// conntrackVIP is the address every connection of the sweep talks to.
var conntrackVIP = pkt.IP4{10, 99, 0, 1}

// conntrackConnKey enumerates the sweep's connection space: index i maps to
// a unique 5-tuple toward the experiment VIP. 14 bits ride the source port
// and the rest the source address, so the space covers far beyond the 4M
// sweep ceiling without aliasing.
func conntrackConnKey(i int) conntrack.Key {
	hi := i >> 14
	return conntrack.Key{
		Src:     pkt.IP4{10, byte(hi >> 16), byte(hi >> 8), byte(hi)},
		Dst:     conntrackVIP,
		SrcPort: uint16(1024 + i&0x3fff),
		DstPort: 80,
		Proto:   pkt.ProtoUDP,
	}
}

// RunConntrackPoint measures one conntrack scale point. Phase 1 pre-seeds
// `conns` established connections into a sharded table (reporting the fill
// rate); phase 2 drives traffic from the generator through the vSwitch into
// an ACL VNF bound to that table and back out to a sink, with 1 frame in 16
// carrying a never-seeded 5-tuple so the window exercises both the
// established bypass and the first-packet classifier walk. The table is
// attached to the vSwitch, so its counters arrive through the same windowed
// DatapathStats delta as the cache tiers and the expiry sweeper owns
// idle-timeout death-marks. The point fails if any seeded connection fell
// out of the table.
func RunConntrackPoint(conns int, cfg ExperimentConfig) (ConntrackRow, error) {
	cfg.fill()
	if conns < 1 || conns > 1<<22 {
		return ConntrackRow{}, fmt.Errorf("conntrack: conns %d out of range [1,%d]", conns, 1<<22)
	}
	// Headroom: the arena splits evenly across shards but HashKey spreads
	// keys only statistically evenly, and window misses establish new
	// connections on top of the seeded ones.
	ct, err := conntrack.New(conntrack.Config{
		Shards:      4,
		Capacity:    conns + conns/8 + 4096,
		IdleTimeout: time.Hour,
	})
	if err != nil {
		return ConntrackRow{}, err
	}
	now := time.Now().UnixNano()
	t0 := time.Now()
	for i := 0; i < conns; i++ {
		if ct.Insert(conntrackConnKey(i), now) == nil {
			return ConntrackRow{}, fmt.Errorf("conntrack: seed insert %d/%d failed", i, conns)
		}
	}
	row := ConntrackRow{Conns: conns, SeedMconnsPerSec: float64(conns) / time.Since(t0).Seconds() / 1e6}

	spec := orchestrator.DefaultTrafficSpec()
	spec.DstIP, spec.DstPort = conntrackVIP, 80
	rig, err := newSwitchRig(vswitch.Config{NumPMDs: cfg.NumPMDs}, 1, spec)
	if err != nil {
		return row, err
	}
	rig.sw.AttachConntrack(ct)
	defer rig.sw.DetachConntrack(ct)
	aclIn, err := rig.addPort(3, "aclin", 1)
	if err != nil {
		return row, err
	}
	aclOut, err := rig.addPort(4, "aclout", 1)
	if err != nil {
		return row, err
	}
	rig.sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(3)}, 0)
	rig.sw.Table().Add(10, flow.MatchInPort(4), flow.Actions{flow.Output(2)}, 0)
	rig.app, _, err = vnf.NewACL("acl", aclIn, aclOut, rig.pool, ct, []vnf.ACLRule{{
		Priority: 100,
		Match:    flow.MatchAll().WithIPProto(pkt.ProtoUDP).WithIPDst(conntrackVIP, 32).WithL4Dst(80),
		Allow:    true,
	}}, false)
	if err != nil {
		return row, err
	}
	mouse := 0
	err = rig.start(func(seq int, frame []byte) {
		idx := seq % conns
		if seq%16 == 15 {
			// Never-seeded tuple: a first-packet classifier walk. The space
			// above the seeded connections is large enough that it barely
			// recycles within a window.
			idx = conns + mouse%(1<<16)
			mouse++
		}
		k := conntrackConnKey(idx)
		copy(frame[rigSrcIPOff:rigSrcIPOff+4], k.Src[:])
		stampSrcPort(frame, k.SrcPort)
	})
	if err != nil {
		return row, err
	}
	time.Sleep(cfg.Warmup)
	mpps, st := rig.window(cfg.Window)
	rig.close()

	row.Mpps, row.Live = mpps, ct.Live()
	if probes := st.Conntrack.Hits + st.Conntrack.Misses; probes > 0 {
		row.CTHitPct = 100 * float64(st.Conntrack.Hits) / float64(probes)
		row.CTMissPct = 100 * float64(st.Conntrack.Misses) / float64(probes)
	}
	row.EMCPct, row.SMCPct, _, row.ClsPct = tierSplit(st)
	if row.Live < conns {
		return row, fmt.Errorf("conntrack: only %d of %d seeded connections still live after the window", row.Live, conns)
	}
	return row, nil
}

// RunConntrack sweeps concurrent connections 64k → 4M.
func RunConntrack(cfg ExperimentConfig) ([]ConntrackRow, error) {
	var rows []ConntrackRow
	for _, conns := range []int{64 << 10, 256 << 10, 1 << 20, 1 << 22} {
		row, err := RunConntrackPoint(conns, cfg)
		if err != nil {
			return rows, fmt.Errorf("conntrack %d conns: %w", conns, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// HealRow is one fault→repair cycle of the self-healing experiment: the
// fault injected, what the reconciler did to converge, and the chain's
// throughput before and after — RecoveredMpps near BaseMpps with no manual
// redeploy is the acceptance bar.
type HealRow struct {
	Fault         string
	Passes        int           // reconcile passes until a clean (0-repair) pass
	Repairs       int           // total repairs applied across those passes
	Converge      time.Duration // wall time from fault to clean pass
	BaseMpps      float64
	RecoveredMpps float64
}

// healConverge drives synchronous reconcile passes until one applies zero
// repairs (bounded), returning the pass/repair counts and elapsed time.
func healConverge(cluster *Cluster) (passes, repairs int, converge time.Duration, err error) {
	t0 := time.Now()
	for passes < 50 {
		passes++
		n, rerr := cluster.ReconcileOnce()
		if rerr != nil {
			return passes, repairs, time.Since(t0), rerr
		}
		repairs += n
		if n == 0 {
			return passes, repairs, time.Since(t0), nil
		}
	}
	return passes, repairs, time.Since(t0), fmt.Errorf("heal: no clean pass after %d reconcile passes (%d repairs)", passes, repairs)
}

// controlCluster boots the 3-node highway cluster of the control-plane
// experiments and deploys one split chain on it. Stop the chain, then the
// cluster.
func controlCluster(cfg ExperimentConfig, ccfg ClusterConfig, n int, nodes []string, opts ChainOptions) (*Cluster, *Chain, error) {
	ccfg.Config = cfg.node(ModeHighway)
	ccfg.Nodes = []string{"node-a", "node-b", "node-c"}
	cluster, err := StartCluster(ccfg)
	if err != nil {
		return nil, nil, err
	}
	chain, err := cluster.DeploySplitChain(n, nodes, opts)
	if err != nil {
		cluster.Stop()
		return nil, nil, err
	}
	return cluster, chain, nil
}

// RunHeal reproduces the self-healing story on a 3-node highway cluster
// with an ECMP×2 fabric: a split chain runs while three faults are injected
// in sequence — a trunk of a bundle killed, the middle node's steering
// rules wiped, the middle node's vSwitch restarted — and after each one the
// declarative reconciler alone repairs the cluster back to full throughput
// (each recovery window first waits for the bypasses the fault tore down).
func RunHeal(cfg ExperimentConfig) ([]HealRow, error) {
	cfg.fill()
	cluster, chain, err := controlCluster(cfg, ClusterConfig{Fabric: FabricConfig{ECMPWidth: 2}},
		6, nil, ChainOptions{Flows: cfg.Flows})
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()
	defer chain.Stop()
	base, err := cfg.measure(chain)
	if err != nil {
		return nil, err
	}

	faults := []struct {
		name   string
		inject func() error
	}{
		{"fail-trunk", func() error { return cluster.FailTrunk("node-a", "node-b", 0) }},
		{"wipe-rules", func() error { _, werr := cluster.WipeRules("node-b"); return werr }},
		{"restart-vswitch", func() error { return cluster.RestartVSwitch("node-b") }},
	}
	var rows []HealRow
	for _, f := range faults {
		if err := f.inject(); err != nil {
			return rows, fmt.Errorf("heal: inject %s: %w", f.name, err)
		}
		passes, repairs, converge, err := healConverge(cluster)
		if err != nil {
			return rows, fmt.Errorf("heal: %s: %w", f.name, err)
		}
		recovered, err := cfg.measure(chain)
		if err != nil {
			return rows, fmt.Errorf("heal: %s: %w", f.name, err)
		}
		rows = append(rows, HealRow{
			Fault: f.name, Passes: passes, Repairs: repairs, Converge: converge,
			BaseMpps: base.Mpps, RecoveredMpps: recovered.Mpps,
		})
	}
	return rows, nil
}

// MigrateRow is the zero-loss live-migration experiment's result: where the
// VNF moved, how long the make-before-break cutover took, and the packet
// conservation ledger across it — Lost must be exactly 0.
type MigrateRow struct {
	VNF           string
	From, To      string
	Cutover       time.Duration
	Drained       bool  // old path observed quiet before the drain deadline
	Lost          int64 // in-flight delta across the migration; 0 = no loss
	BaseMpps      float64
	AfterMpps     float64
	BypassesAfter int
}

// RunMigrate live-moves a middle VNF between nodes under paced traffic and
// proves zero loss by conservation: the chain is paused and allowed to
// settle before and after the migration, and the generated-minus-received
// ledger must not change — every packet in flight during the cutover was
// delivered.
func RunMigrate(cfg ExperimentConfig) (MigrateRow, error) {
	cfg.fill()
	// Paced ends: the conservation ledger is exact only when the chain is
	// not saturated (a saturated chain drops at the generator by design).
	cluster, chain, err := controlCluster(cfg, ClusterConfig{TrunkRate: -1},
		4, []string{"node-a", "node-b"}, ChainOptions{Flows: cfg.Flows, RatePps: 50_000})
	if err != nil {
		return MigrateRow{}, err
	}
	defer cluster.Stop()
	defer chain.Stop()
	base, err := cfg.measure(chain)
	if err != nil {
		return MigrateRow{}, err
	}
	row := MigrateRow{VNF: "vnf2", From: "node-a", To: "node-c", BaseMpps: base.Mpps}
	row.Lost, err = chain.LostAcross(func() error {
		t0 := time.Now()
		rep, err := chain.Deployment().Migrate(row.VNF, row.To)
		row.Cutover, row.Drained = time.Since(t0), rep.Drained
		return err
	})
	if err != nil {
		return row, fmt.Errorf("migrate: %w", err)
	}
	after, err := cfg.measure(chain)
	row.AfterMpps, row.BypassesAfter = after.Mpps, after.Bypasses
	return row, err
}

// RebalanceReport is the rolling re-placement experiment's result: the
// drifted layout's crossing count before and after the controller ran, the
// move plan it executed (with per-move cutover), how long convergence took,
// and the packet conservation ledger across the whole run — Lost must be
// exactly 0.
type RebalanceReport struct {
	CrossBefore int
	CrossAfter  int
	Moves       []RebalanceMove
	Converge    time.Duration // start of controller → last layout change
	Lost        int64         // in-flight delta across the run; 0 = no loss
	Stats       RebalancerStats
	BaseMpps    float64
	AfterMpps   float64
}

// RunRebalance deploys a split chain, deliberately drifts its layout (two
// middles swapped across the fabric — the skew a long-running cluster
// accumulates), then lets the rolling re-placement controller repair it:
// rolling zero-loss migrations, one in flight at a time, until the crossing
// count is back down. The conservation ledger brackets the entire
// controller run. cfg.Window is the controller's load-sampling interval.
func RunRebalance(cfg ExperimentConfig) (RebalanceReport, error) {
	cfg.fill()
	// Paced ends: the ledger is exact only when the chain is not saturated,
	// and unsaturated lanes also drain in milliseconds per migration.
	cluster, chain, err := controlCluster(cfg, ClusterConfig{TrunkRate: -1},
		6, nil, ChainOptions{Flows: cfg.Flows, RatePps: 30_000})
	if err != nil {
		return RebalanceReport{}, err
	}
	defer cluster.Stop()
	defer chain.Stop()
	// Drift the layout by hand: vnf2 and vnf5 swapped across the fabric
	// turns the contiguous deploy's 2 crossings into 4.
	for _, mv := range []struct{ vnf, to string }{
		{"vnf2", "node-c"},
		{"vnf5", "node-a"},
	} {
		if _, err := chain.Deployment().Migrate(mv.vnf, mv.to); err != nil {
			return RebalanceReport{}, fmt.Errorf("rebalance: skew migrate %s→%s: %w", mv.vnf, mv.to, err)
		}
	}
	rep := RebalanceReport{CrossBefore: chain.Deployment().Crossings()}
	base, err := cfg.measure(chain)
	if err != nil {
		return rep, err
	}
	rep.BaseMpps = base.Mpps

	rep.Lost, err = chain.LostAcross(func() error {
		start := time.Now()
		reb := cluster.StartRebalancer(RebalanceConfig{Interval: cfg.Window})
		// Converged when the crossings dropped below the drifted count and
		// the layout then held still for two full sampling intervals.
		cross := rep.CrossBefore
		lastChange := start
		deadline := start.Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if c := chain.Deployment().Crossings(); c != cross {
				cross = c
				lastChange = time.Now()
			}
			if cross < rep.CrossBefore && time.Since(lastChange) > 2*cfg.Window {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		reb.Stop()
		rep.Converge = lastChange.Sub(start)
		rep.CrossAfter = chain.Deployment().Crossings()
		rep.Stats = reb.Stats()
		rep.Moves = reb.Moves()
		return nil
	})
	if err != nil {
		return rep, err
	}
	after, err := cfg.measure(chain)
	if err != nil {
		return rep, err
	}
	rep.AfterMpps = after.Mpps
	if n, err := cluster.ReconcileOnce(); err != nil || n != 0 {
		return rep, fmt.Errorf("rebalance: post-run reconcile: %d repairs, err %v", n, err)
	}
	return rep, nil
}
