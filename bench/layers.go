package main

import (
	"fmt"
	"runtime"
	"time"

	highway "ovshighway"
	"ovshighway/internal/conntrack"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/graph"
	"ovshighway/internal/mempool"
	"ovshighway/internal/nic"
	"ovshighway/internal/orchestrator"
	"ovshighway/internal/pkt"
	"ovshighway/internal/ring"
	"ovshighway/internal/trunk"
	"ovshighway/internal/vnf"
	"ovshighway/internal/vswitch"
)

// The stage timings: each layer's public functions driven from the harness
// in a loop of 32-packet bursts of 64 B frames. They do not depend on the
// workload; a traced run of any workload takes all of them, so its cost stack
// and its end-to-end figure come from the same process on the same host.

const burst = 32

// sink keeps results of pure functions alive so the compiler cannot drop
// the calls being timed.
var sink uint32

// stager times stages: the median of reps repetitions of rep each.
type stager struct {
	reps int
	rep  time.Duration
	out  map[string]float64
}

// time runs step — which handles some packets and returns how many — for
// s.rep, s.reps times, and records the median ns per packet under name.
func (s *stager) time(name string, step func() int) {
	vals := make([]float64, s.reps)
	for r := range vals {
		pkts := 0
		t0 := time.Now()
		for time.Since(t0) < s.rep {
			for i := 0; i < 16; i++ {
				pkts += step()
			}
		}
		vals[r] = float64(time.Since(t0).Nanoseconds()) / float64(max(pkts, 1))
	}
	s.out[name] = median(vals)
}

// frames builds n 64 B frames of spec that differ in their UDP source port.
func frames(n int, spec pkt.UDPSpec) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		spec.SrcPort++
		raw := make([]byte, 64)
		k, err := pkt.BuildUDP(raw, spec)
		if err != nil {
			return nil, err
		}
		out[i] = raw[:k]
	}
	return out, nil
}

// takeBufs allocates n buffers holding copies of frames, cycled.
func takeBufs(pool *mempool.Pool, n int, frames [][]byte) ([]*mempool.Buf, error) {
	bufs := make([]*mempool.Buf, n)
	if got := pool.GetBatch(bufs); got != n {
		return nil, fmt.Errorf("stage pool gave %d of %d buffers", got, n)
	}
	for i, b := range bufs {
		if err := b.SetBytes(frames[i%len(frames)]); err != nil {
			return nil, err
		}
	}
	return bufs, nil
}

// runStages times every stage and returns ns per packet by metric name
// (Mpps for vnf.srcsink_pair_mpps).
func runStages(reps int, rep time.Duration) (map[string]float64, error) {
	s := &stager{reps: reps, rep: rep, out: make(map[string]float64)}
	fr, err := frames(64, orchestrator.DefaultTrafficSpec())
	if err != nil {
		return nil, err
	}
	pool := mempool.MustNew(mempool.Config{Capacity: 4096})
	bufs, err := takeBufs(pool, burst, fr)
	if err != nil {
		return nil, err
	}
	out := make([]*mempool.Buf, burst)

	// ring
	spsc := ring.MustSPSC[*mempool.Buf](1024)
	s.time("ring.spsc_ns_per_pkt", func() int {
		spsc.Enqueue(bufs)
		return spsc.Dequeue(out)
	})
	mpmc := ring.MustMPMC[*mempool.Buf](1024)
	s.time("ring.mpmc_ns_per_pkt", func() int {
		mpmc.Enqueue(bufs)
		return mpmc.Dequeue(out)
	})

	// mempool
	s.time("mempool.getfree_ns_per_pkt", func() int {
		n := pool.GetBatch(out)
		mempool.FreeBatch(out[:n])
		return n
	})

	// pkt
	var parser pkt.Parser
	s.time("pkt.parse_ns_per_pkt", func() int {
		for _, f := range fr[:burst] {
			if parser.Parse(f) == nil {
				sink += uint32(parser.Decoded)
			}
		}
		return burst
	})
	if err := parser.Parse(fr[0]); err != nil {
		return nil, err
	}
	seg := append([]byte(nil), parser.UDP.Datagram()...)
	seg[6], seg[7] = 0, 0
	src, dst := parser.IPv4.Src(), parser.IPv4.Dst()
	s.time("pkt.l4csum_ns_per_pkt", func() int {
		for i := 0; i < burst; i++ {
			sink += uint32(pkt.L4Checksum(src, dst, pkt.ProtoUDP, seg))
		}
		return burst
	})

	// flow
	s.time("flow.extract_pack_ns", func() int {
		for i := 0; i < burst; i++ {
			k := flow.ExtractKey(&parser, uint32(i))
			kp := k.Pack()
			sink += uint32(kp[3])
		}
		return burst
	})
	keys := make([]flow.Packed, nicFlows)
	hashes := make([]uint32, nicFlows)
	for i := range keys {
		k := flow.ExtractKey(&parser, 1)
		k.L4Src = uint16(i)
		keys[i] = k.Pack()
		hashes[i] = keys[i].Hash()
	}
	s.time("flow.hash_ns", func() int {
		for i := 0; i < burst; i++ {
			sink += keys[i].Hash()
		}
		return burst
	})
	s.time("flow.hash2_ns", func() int {
		for i := 0; i < burst; i++ {
			sink += keys[i].Hash2()
		}
		return burst
	})
	table := flow.NewTable()
	rule := table.Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	gen := table.Generation()
	cycle := func(n int, lookup func(i int) *flow.Flow) func() int {
		next := 0
		return func() int {
			for i := 0; i < burst; i++ {
				if lookup(next) != nil {
					sink++
				}
				next = (next + 1) & (n - 1)
			}
			return burst
		}
	}
	emc := flow.NewEMC(8192)
	for i := 0; i < chainFlows; i++ {
		emc.Insert(keys[i], hashes[i], rule, gen)
	}
	s.time("flow.emc_hit_ns", cycle(chainFlows, func(i int) *flow.Flow { return emc.Lookup(keys[i], hashes[i], gen) }))
	const smcResident = 16384
	smc := flow.NewSMC(32768)
	for i := 0; i < smcResident; i++ {
		smc.Insert(&keys[i], hashes[i], rule, gen)
	}
	s.time("flow.smc_hit_ns", cycle(smcResident, func(i int) *flow.Flow { return smc.Lookup(&keys[i], hashes[i], gen) }))
	s.time("flow.classifier_ns", cycle(nicFlows, func(i int) *flow.Flow { return table.LookupPacked(&keys[i]) }))

	// dpdkr
	port, pmd, err := dpdkr.NewPort(1, "stage", 1024)
	if err != nil {
		return nil, err
	}
	s.time("dpdkr.normal_ns_per_pkt", func() int {
		pmd.Tx(bufs)
		n := port.Recv(out)
		port.Send(out[:n])
		return pmd.Rx(bufs)
	})
	_, pmdA, err := dpdkr.NewPort(2, "stage-a", 1024)
	if err != nil {
		return nil, err
	}
	_, pmdB, err := dpdkr.NewPort(3, "stage-b", 1024)
	if err != nil {
		return nil, err
	}
	link, err := dpdkr.NewLink("stage", 2, 3, 1024)
	if err != nil {
		return nil, err
	}
	pmdB.AttachRxBypass(link)
	pmdA.AttachTxBypass(link)
	s.time("dpdkr.bypass_ns_per_pkt", func() int {
		pmdA.Tx(bufs)
		return pmdB.Rx(bufs)
	})

	// nic
	dev, err := nic.New(nic.Config{ID: 1, Name: "stage", RatePps: -1})
	if err != nil {
		return nil, err
	}
	s.time("nic.sendrecv_ns_per_pkt", func() int {
		dev.InjectFromWire(bufs)
		n := dev.Recv(out)
		dev.Send(out[:n])
		return dev.DrainToWire(bufs)
	})

	// conntrack
	ct, err := conntrack.New(conntrack.Config{})
	if err != nil {
		return nil, err
	}
	ctKey := func(i int) conntrack.Key {
		return conntrack.Key{Src: pkt.IP4{10, 0, byte(i >> 8), byte(i)}, Dst: pkt.IP4{10, 99, 0, 1}, SrcPort: 1000, DstPort: 80, Proto: pkt.ProtoUDP}
	}
	now := time.Now().UnixNano()
	for i := 0; i < statefulFlows; i++ {
		if ct.Insert(ctKey(i), now) == nil {
			return nil, fmt.Errorf("conntrack stage: seed insert %d failed", i)
		}
	}
	ctLoop := func(base int, op func(k conntrack.Key)) func() int {
		next := 0
		return func() int {
			for i := 0; i < burst; i++ {
				op(ctKey(base + next))
				next = (next + 1) & (statefulFlows - 1)
			}
			return burst
		}
	}
	s.time("conntrack.hit_ns", ctLoop(0, func(k conntrack.Key) {
		if ct.Lookup(k, now) != nil {
			sink++
		}
	}))
	s.time("conntrack.miss_ns", ctLoop(statefulFlows, func(k conntrack.Key) {
		if ct.Lookup(k, now) != nil {
			sink++
		}
	}))
	s.time("conntrack.insert_ns", ctLoop(statefulFlows, func(k conntrack.Key) {
		if ct.Insert(k, now) != nil {
			ct.Remove(k)
		}
	}))
	mempool.FreeBatch(bufs)

	// Stages with the program's own goroutines on the other side.
	for _, st := range []func(*stager, [][]byte) error{stageSwitchHops, stageApps, stageTrunk, stageSrcSinkPair} {
		if err := st(s, fr); err != nil {
			return nil, err
		}
	}
	return s.out, nil
}

// shuttle keeps a fixed set of buffers circulating through a pipeline whose
// far side runs on the program's goroutines: it transmits on tx while it
// holds buffers and the ring accepts, collects on rx, and yields the core
// when nothing came back. held stays below every ring's capacity, so the
// pipeline never has to drop.
type shuttle struct {
	tx, rx *dpdkr.PMD
	held   []*mempool.Buf
	rxb    []*mempool.Buf
	seq    int
	// prep rewrites a buffer before each transmission (nil = send as is).
	prep func(b *mempool.Buf, seq int)
}

const shuttleBufs = 512

func newShuttle(tx, rx *dpdkr.PMD, pool *mempool.Pool, fr [][]byte, prep func(*mempool.Buf, int)) (*shuttle, error) {
	held, err := takeBufs(pool, shuttleBufs, fr)
	if err != nil {
		return nil, err
	}
	return &shuttle{tx: tx, rx: rx, held: held, rxb: make([]*mempool.Buf, burst), prep: prep}, nil
}

func (s *shuttle) step() int {
	for len(s.held) >= burst {
		b := s.held[len(s.held)-burst:]
		if s.prep != nil {
			for _, buf := range b {
				s.prep(buf, s.seq)
				s.seq++
			}
		}
		n := s.tx.Tx(b)
		copy(b, b[n:]) // the unsent tail stays ours
		s.held = s.held[:len(s.held)-n]
		if n < burst {
			break
		}
	}
	got := 0
	for {
		k := s.rx.Rx(s.rxb)
		if k == 0 {
			break
		}
		s.held = append(s.held, s.rxb[:k]...)
		got += k
	}
	if got == 0 {
		runtime.Gosched()
	}
	return got
}

// drain collects what is still in flight and frees every buffer.
func (s *shuttle) drain() {
	for deadline := time.Now().Add(time.Second); len(s.held) < shuttleBufs && time.Now().Before(deadline); {
		k := s.rx.Rx(s.rxb)
		s.held = append(s.held, s.rxb[:k]...)
		if k == 0 {
			runtime.Gosched()
		}
	}
	mempool.FreeBatch(s.held)
}

// stageSwitchHops times one vSwitch hop — guest Tx, normal channel, PMD
// thread, normal channel, guest Rx — with 4 flows (EMC-resident) and with
// 65536 (SMC/classifier).
func stageSwitchHops(s *stager, fr [][]byte) error {
	for _, c := range []struct {
		name  string
		flows int
	}{{"vswitch.hop_ns_per_pkt", chainFlows}, {"vswitch.hop64k_ns_per_pkt", nicFlows}} {
		sw := vswitch.New(vswitch.Config{SweepInterval: time.Hour})
		pool := mempool.MustNew(mempool.Config{Capacity: 1024})
		sw.SetInjectionPool(pool)
		portA, pmdA, err := dpdkr.NewPort(1, "a", 1024)
		if err != nil {
			return err
		}
		portB, pmdB, err := dpdkr.NewPort(2, "b", 1024)
		if err != nil {
			return err
		}
		if err := sw.AddPort(portA); err != nil {
			return err
		}
		if err := sw.AddPort(portB); err != nil {
			return err
		}
		sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
		if err := sw.Start(); err != nil {
			return err
		}
		mask := c.flows - 1
		sh, err := newShuttle(pmdA, pmdB, pool, fr[:1], func(b *mempool.Buf, seq int) {
			fb := b.Bytes()
			fb[srcPortOff], fb[srcPortOff+1] = byte((seq&mask)>>8), byte(seq&mask)
			fb[srcPortOff+6], fb[srcPortOff+7] = 0, 0
		})
		if err != nil {
			sw.Stop()
			return err
		}
		s.time(c.name, sh.step)
		sh.drain()
		sw.Stop()
	}
	return nil
}

// stageApps times one VNF between two harness-driven PMDs over bypass
// links: harness Tx → link → app → link → harness Rx. The stateful apps are
// fed 64 flows that are established after the first round; their frames are
// written afresh before each round because NAT44 and the balancer rewrite
// them in place.
func stageApps(s *stager, fr [][]byte) error {
	vip := pkt.IP4{10, 99, 0, 1}
	spec := orchestrator.DefaultTrafficSpec()
	spec.DstIP, spec.DstPort = vip, 80
	toVIP, err := frames(statefulFlows, spec)
	if err != nil {
		return err
	}
	restamp := func(b *mempool.Buf, seq int) { b.SetBytes(toVIP[seq&(statefulFlows-1)]) }
	newCT := func() *conntrack.Table {
		ct, err := conntrack.New(conntrack.Config{})
		if err != nil {
			panic(err) // the zero config is valid
		}
		return ct
	}
	type build func(in, out *dpdkr.PMD, pool *mempool.Pool) (*vnf.App, error)
	for _, c := range []struct {
		name   string
		frames [][]byte
		prep   func(*mempool.Buf, int)
		build  build
	}{
		{"vnf.forward_hop_ns_per_pkt", fr, nil, func(in, out *dpdkr.PMD, pool *mempool.Pool) (*vnf.App, error) {
			return vnf.NewForwarder("fwd", in, out, pool)
		}},
		{"vnf.nat44_ns_per_pkt", toVIP, restamp, func(in, out *dpdkr.PMD, pool *mempool.Pool) (*vnf.App, error) {
			app, _, err := vnf.NewNAT44("nat", in, out, pool, vnf.NAT44Config{
				ExtIP: pkt.IP4{192, 0, 2, 1}, PortBase: 40000, PortCount: statefulFlows, Table: newCT(),
			})
			return app, err
		}},
		{"vnf.acl_ns_per_pkt", toVIP, restamp, func(in, out *dpdkr.PMD, pool *mempool.Pool) (*vnf.App, error) {
			app, _, err := vnf.NewACL("acl", in, out, pool, newCT(), []vnf.ACLRule{{
				Priority: 100, Match: flow.MatchAll().WithIPProto(pkt.ProtoUDP).WithIPDst(vip, 32).WithL4Dst(80), Allow: true,
			}}, false)
			return app, err
		}},
		{"vnf.balancer_ns_per_pkt", toVIP, restamp, func(in, out *dpdkr.PMD, pool *mempool.Pool) (*vnf.App, error) {
			app, _, err := vnf.NewBalancer("lb", in, out, pool, vnf.BalancerConfig{
				VIP: vip, VIPPort: 80, Table: newCT(),
				Backends: []vnf.Backend{{IP: pkt.IP4{10, 1, 0, 1}, Port: 8080}, {IP: pkt.IP4{10, 1, 0, 2}, Port: 8080}},
			})
			return app, err
		}},
	} {
		pool := mempool.MustNew(mempool.Config{Capacity: 1024})
		var pmds [4]*dpdkr.PMD // harness tx, app in, app out, harness rx
		for i := range pmds {
			_, pmd, err := dpdkr.NewPort(uint32(i+1), fmt.Sprintf("p%d", i+1), 1024)
			if err != nil {
				return err
			}
			pmds[i] = pmd
		}
		for i := 0; i < 4; i += 2 {
			l, err := dpdkr.NewLink(fmt.Sprintf("l%d", i), uint32(i+1), uint32(i+2), 1024)
			if err != nil {
				return err
			}
			pmds[i+1].AttachRxBypass(l)
			pmds[i].AttachTxBypass(l)
		}
		app, err := c.build(pmds[1], pmds[2], pool)
		if err != nil {
			return err
		}
		sh, err := newShuttle(pmds[0], pmds[3], pool, c.frames, c.prep)
		if err != nil {
			return err
		}
		app.Start()
		s.time(c.name, sh.step)
		sh.drain()
		app.Stop()
	}
	return nil
}

// stageTrunk times one trunk hop: tagged frames sent on one unlimited NIC,
// pumped (drained, re-homed into the other node's pool, injected) by the
// trunk's poller, received on the other NIC.
func stageTrunk(s *stager, _ [][]byte) error {
	const vid = 100
	spec := orchestrator.DefaultTrafficSpec()
	spec.VlanID = vid
	raw := make([]byte, 64)
	n, err := pkt.BuildUDP(raw, spec)
	if err != nil {
		return err
	}
	tagged := raw[:n]
	var ends [2]trunk.Endpoint
	for i := range ends {
		dev, err := nic.New(nic.Config{ID: uint32(i + 1), Name: fmt.Sprintf("t%d", i), RatePps: -1})
		if err != nil {
			return err
		}
		ends[i] = trunk.Endpoint{NIC: dev, Pool: mempool.MustNew(mempool.Config{Capacity: 2048})}
	}
	tr, err := trunk.New(trunk.Config{Name: "stage", A: ends[0], B: ends[1]})
	if err != nil {
		return err
	}
	defer tr.Stop()
	if err := tr.AddLane(vid); err != nil {
		return err
	}
	tx := make([]*mempool.Buf, burst)
	rx := make([]*mempool.Buf, burst)
	s.time("trunk.hop_ns_per_pkt", func() int {
		// Keep the sending NIC's queue half full at most: Send frees what does
		// not fit, and a dropped frame is work the hop did not do.
		for ends[0].NIC.QueueBacklog() <= 512 {
			k := ends[0].Pool.GetBatch(tx)
			for _, b := range tx[:k] {
				b.SetBytes(tagged)
			}
			ends[0].NIC.Send(tx[:k])
		}
		got := 0
		for {
			k := ends[1].NIC.Recv(rx)
			if k == 0 {
				break
			}
			mempool.FreeBatch(rx[:k])
			got += k
		}
		if got == 0 {
			runtime.Gosched()
		}
		return got
	})
	return nil
}

// stageSrcSinkPair measures the load generator's own ceiling: two SrcSinks
// back to back over a bypass (BidirChain(0) on a highway node), in Mpps.
func stageSrcSinkPair(s *stager, _ [][]byte) error {
	ups := newUpLog()
	ups.arm(2)
	node, err := highway.Start(highway.Config{Mode: highway.ModeHighway, OnBypassUp: ups.onUp})
	if err != nil {
		return err
	}
	defer node.Stop()
	g := graph.BidirChain(0)
	for i := range g.VNFs {
		g.VNFs[i].Args = orchestrator.SrcSinkArgs{Spec: orchestrator.DefaultTrafficSpec(), Flows: chainFlows}
	}
	dep, err := node.Deploy(g)
	if err != nil {
		return err
	}
	defer dep.Stop()
	select {
	case <-ups.ready:
	case <-time.After(2 * time.Second):
		return fmt.Errorf("srcsink pair: bypasses did not come up")
	}
	ends := []*vnf.SrcSink{dep.Internal().SrcSink("end0"), dep.Internal().SrcSink("end1")}
	received := func() uint64 { return ends[0].Received.Load() + ends[1].Received.Load() }
	time.Sleep(s.rep) // warm
	vals := make([]float64, s.reps)
	for r := range vals {
		d0, t0 := received(), time.Now()
		time.Sleep(s.rep)
		vals[r] = float64(received()-d0) / time.Since(t0).Seconds() / 1e6
	}
	s.out["vnf.srcsink_pair_mpps"] = median(vals)
	return nil
}
