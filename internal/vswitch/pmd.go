package vswitch

import (
	"runtime"
	"sync/atomic"
	"time"

	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

// pktMeta is one packet's slot in the per-thread scratch array filled by the
// walk phase of the batched pipeline. It carries everything the action
// phase needs so no header is re-walked per packet: the packed key and its
// 64-bit hash (returned by the one header walk: all of it signs the EMC
// entry, the low half indexes the EMC and SMC, the high half pins the ECMP
// path), the resolved flow, the layers the walk decoded and the offset of
// the L3 header, which the mutating actions re-slice the frame at. next
// chains packets of the same flow group within the batch (-1 terminates).
type pktMeta struct {
	buf     *mempool.Buf
	kp      flow.Packed
	hash    uint64
	f       *flow.Flow
	next    int32
	decoded pkt.Layers
	l3      uint16
}

// flowGroup is one resolved flow within a batch plus the chain of packets
// that hit it. Counters aggregate here and land on the flow with a single
// atomic add per counter per batch, and the action list executes once per
// group instead of once per packet.
type flowGroup struct {
	f           *flow.Flow
	first, last int32
	pkts        uint64
	bytes       uint64
}

// pmdThread is one forwarding thread. It owns the ports whose id hashes to
// its index, a private parser, EMC and SMC (no cross-thread sharing on the
// fast path), preallocated batch scratch (pktMeta/flowGroup arrays), and
// dense per-destination TX accumulators flushed once per input batch.
// Steady-state forwarding performs no heap allocation.
type pmdThread struct {
	s    *Switch
	idx  int
	stop atomic.Bool
	// iters counts loop iterations; each iteration re-loads the port
	// snapshot, so control code can wait out an in-flight iteration after
	// swapping the snapshot (see Switch.WaitDatapathQuiescence and the
	// quiesce step of Switch.MoveQueue).
	iters atomic.Uint64
	// testPark, when set, runs each iteration between loading the port
	// snapshot and polling: tests use it to hold an iteration open on a
	// stale snapshot while the control plane moves on.
	testPark atomic.Pointer[func()]

	// busyNanos/totalNanos implement the pmd-auto-lb load signal: busy is
	// time spent receiving and processing non-empty bursts, total is wall
	// time across whole loop iterations (empty polls and Gosched waits
	// included), both written only by this thread. busy/total over a
	// sampling window is the PMD's busy fraction — what the balancer
	// equalizes.
	busyNanos  atomic.Uint64
	totalNanos atomic.Uint64
	// The thread's clock is monotonic nanoseconds since clockBase (time.Since
	// on a base that carries a monotonic reading never reads the wall
	// clock); baseNano is the base's wall-clock time, so baseNano+clock() is
	// the Unix-nanosecond stamp flows are touched with. tick is the stamp
	// totalNanos has been accumulated up to.
	clockBase time.Time
	baseNano  int64
	tick      int64

	emc *flow.EMC
	smc *flow.SMC
	// admit is the emc-insert-inv-prob rule both cache tiers admit a
	// classifier-resolved key under.
	admit flow.Admission

	rxBatch []*mempool.Buf
	// touched keeps the sum of the bytes the touch pass of processBatch
	// loaded, so the compiler cannot drop the loads.
	touched uint64
	metas   []pktMeta
	groups  []flowGroup
	// missIdx lists the meta indexes of this batch's cache misses, so a
	// burst of identical missed keys walks the tuple space once (the rest
	// resolve against earlier misses — see earlierMiss). missHash holds the
	// same misses' Hash64s side by side: the scan reads one or two cache
	// lines of words and touches a key only behind an equal hash.
	missIdx  []int32
	missHash []uint64

	// txAcc accumulates output per destination port index within the current
	// port snapshot (dense — no map operations on the hot path); txTouched
	// lists the indexes with pending traffic in first-use order for a
	// deterministic flush. Both retain their capacity across batches.
	txAcc     [][]*mempool.Buf
	txTouched []int

	// drops collects the buffers the current burst kills (parse errors,
	// table misses, drop actions, TTL expiry, output to nowhere) so they are
	// freed once, in one batch, after the burst's TX flush. They go into the
	// thread's buffer cache, flushed whenever an iteration finds no frames
	// and when the thread exits.
	drops []*mempool.Buf
	cache mempool.Cache

	// blocked records that a TX flush since run last looked found a
	// destination ring full (the port freed and counted the overflow): run
	// yields so the consumer that would drain it gets the core.
	blocked bool
}

func newPMDThread(s *Switch, idx int) *pmdThread {
	base := time.Now() // the thread's only wall-clock read
	p := &pmdThread{
		s:         s,
		idx:       idx,
		clockBase: base,
		baseNano:  base.UnixNano(),
		admit:     flow.NewAdmission(0x9e3779b9+uint32(idx), s.cfg.EMCInsertInvProb),
		emc:       flow.NewEMC(s.cfg.EMCEntries),
		rxBatch:   make([]*mempool.Buf, s.cfg.BatchSize),
		metas:     make([]pktMeta, s.cfg.BatchSize),
		groups:    make([]flowGroup, s.cfg.BatchSize),
		missIdx:   make([]int32, 0, s.cfg.BatchSize),
		missHash:  make([]uint64, 0, s.cfg.BatchSize),
		txTouched: make([]int, 0, 8),
		drops:     make([]*mempool.Buf, 0, s.cfg.BatchSize),
	}
	if !s.cfg.SMCDisabled {
		// Only allocated when in use: the SMC's entry array (~768 KB at the
		// default 32768 entries) would otherwise weigh on exactly the
		// configurations meant to measure the switch without the tier.
		p.smc = flow.NewSMC(s.cfg.SMCEntries)
	}
	return p
}

func (p *pmdThread) emcStats() flow.EMCStats { return p.emc.Stats() }

// earlierMiss returns the meta index of an earlier miss of this burst with
// m's key, or -1. The 64-bit hash is compared first; the full key is still
// compared behind it, so a hash collision alone never merges two keys.
func (p *pmdThread) earlierMiss(m *pktMeta) int32 {
	for i, h := range p.missHash {
		if h != m.hash {
			continue
		}
		if j := p.missIdx[i]; p.metas[j].kp.Equal(&m.kp) {
			return j
		}
	}
	return -1
}

// owns reports whether this PMD polls any queue of the given port under the
// current assignment table. Ownership is a runtime property of the table,
// not a function of the id — the old id%NumPMDs rule clustered all-even
// port ids onto PMD 0 and left the others spinning.
func (p *pmdThread) owns(id uint32) bool {
	asg := p.s.asgSnap.Load()
	for qi, q := range asg.ports.queues {
		if q.e.port.PortID() == id && asg.owner[qi] == p.idx {
			return true
		}
	}
	return false
}

func (p *pmdThread) run() {
	defer p.cache.Flush()
	p.tick = p.clock()
	for !p.stop.Load() {
		if p.iterate() == 0 || p.blocked {
			p.blocked = false
			runtime.Gosched()
		}
	}
}

// clock reads the thread's monotonic clock.
func (p *pmdThread) clock() int64 { return int64(time.Since(p.clockBase)) }

// iterate is one loop iteration: one receive burst from every queue this
// thread owns, each run through processBatch. It returns the frames handled.
//
// The clock is read once on entry and once after each non-empty burst. Each
// stamp ends one busy interval, starts the next and is the coarse "now" the
// following burst's flows are touched with — at most one burst plus one
// round of empty polls behind the true time. So a burst's busy time runs
// from the previous stamp to its own: its receive, its processBatch and the
// empty polls that led to it. totalNanos advances to the iteration's last
// stamp, so busy never runs ahead of total.
func (p *pmdThread) iterate() int {
	p.iters.Add(1)
	stamp := p.clock()
	// One atomic load yields a mutually consistent (ports, owners) pair;
	// the embedded port set is what processBatch resolves output ports
	// against, so a queue and its destinations always come from the same
	// generation.
	asg := p.s.asgSnap.Load()
	if park := p.testPark.Load(); park != nil {
		(*park)()
	}
	frames := 0
	for qi, q := range asg.ports.queues {
		if asg.owner[qi] != p.idx {
			continue
		}
		n := q.recv(p.rxBatch)
		if n == 0 {
			continue
		}
		frames += n
		p.processBatch(q.e.port.PortID(), p.rxBatch[:n], asg.ports, p.baseNano+stamp)
		end := p.clock()
		busy := uint64(end - stamp)
		stamp = end
		p.busyNanos.Add(busy)
		q.busyNanos.Add(busy)
		q.batches.Add(1)
		q.frames.Add(uint64(n))
	}
	p.totalNanos.Add(uint64(stamp - p.tick))
	p.tick = stamp
	if frames == 0 {
		p.cache.Flush()
	}
	return frames
}

// processBatch runs one input burst through the two-phase pipeline:
//
//	phase 1 walks every frame's headers once (flow.PackFrame: validate,
//	pack the key, hash it) and classifies it into the scratch array (EMC,
//	then SMC, then within-batch miss dedup, then the masked classifier —
//	all on the already-packed key);
//	phase 2 chains packets by resolved flow and executes each flow's action
//	list once per group, then flushes the per-destination accumulators.
//
// Cross-flow packet order within a batch may change (groups flush in
// first-seen order); per-flow order is preserved — the same reordering
// window a flow-grouped hardware datapath has.
//
// nowNano is the caller's coarse Unix-nanosecond stamp (see iterate): the
// idle-timeout touch and the ECMP flowlet gate read no clock of their own.
func (p *pmdThread) processBatch(inPort uint32, bufs []*mempool.Buf, snap *portSet, nowNano int64) {
	if len(p.txAcc) < len(snap.order) {
		p.txAcc = append(p.txAcc, make([][]*mempool.Buf, len(snap.order)-len(p.txAcc))...)
	}
	table := p.s.table
	gen := table.Generation()
	emcOn := !p.s.cfg.EMCDisabled
	smcOn := !p.s.cfg.SMCDisabled

	// Touch pass: stamp each buffer and load the first line of its frame.
	// The loads do not depend on one another, so their cache misses overlap
	// instead of each stalling the walk below in turn — the stand-in for
	// OvS-DPDK's per-packet OVS_PREFETCH in dfc_processing.
	var touched uint64
	for _, b := range bufs {
		b.Port = inPort
		if b.Len > 0 {
			touched += uint64(b.Data[b.Off])
		}
	}
	p.touched += touched

	// Phase 1: walk + classify into scratch.
	n := int32(0)
	p.missIdx, p.missHash = p.missIdx[:0], p.missHash[:0]
	var emcHits, emcMisses, smcHits, smcMisses, smcFalsePos, misses, tableMisses, dedups, parseErrs uint64
	for _, b := range bufs {
		m := &p.metas[n]
		hash, layers, l3, ok := flow.PackFrame(b.Bytes(), inPort, &m.kp)
		if !ok {
			p.drops = append(p.drops, b)
			parseErrs++
			continue
		}
		m.buf = b
		m.hash = hash
		m.decoded = layers
		m.l3 = uint16(l3)
		m.next = -1
		var f *flow.Flow
		resolved := false
		if emcOn {
			if f = p.emc.Probe(&m.kp, m.hash, gen); f != nil {
				resolved = true
				emcHits++
			} else {
				emcMisses++
			}
		}
		if !resolved && smcOn {
			// SMC hits do not promote into the EMC (as in OVS-DPDK): when
			// the flow count has outgrown the EMC, promotion would just
			// churn its sets without raising the hit rate.
			var fp uint64
			if f, fp = p.smc.Probe(&m.kp, m.hash, gen); f != nil {
				resolved = true
				smcHits++
			} else {
				smcMisses++
			}
			smcFalsePos += fp
		}
		if !resolved {
			// Within-batch dedup: a burst of identical missed keys walks
			// the tuple space once. A memoized nil (table miss) counts too.
			if j := p.earlierMiss(m); j >= 0 {
				f = p.metas[j].f
				resolved = true
				dedups++
			}
		}
		if !resolved {
			f = table.LookupPacked(&m.kp)
			misses++
			if f != nil {
				// Both tiers take the key under one admission verdict. A LIVE
				// entry the EMC displaces for it demotes into the second tier
				// (OVS-style), so the flows the EMC can no longer hold keep
				// resolving without another classifier walk.
				p.admit.Next()
				if emcOn {
					if v, ev := p.emc.Put(&m.kp, m.hash, f, gen, &p.admit); ev && smcOn {
						p.smc.Put(v.Hash, v.Flow, gen, &p.admit)
					}
				}
				if smcOn {
					p.smc.Put(m.hash, f, gen, &p.admit)
				}
			} else {
				tableMisses++
			}
			p.missIdx = append(p.missIdx, n)
			p.missHash = append(p.missHash, m.hash)
		}
		m.f = f
		n++
	}
	if emcOn {
		p.emc.Count(emcHits, emcMisses)
	}
	if smcOn {
		p.smc.Count(smcHits, smcMisses, smcFalsePos)
	}
	if misses > 0 {
		p.s.Misses.Add(misses)
	}
	if tableMisses > 0 {
		p.s.TableMisses.Add(tableMisses)
	}
	if dedups > 0 {
		p.s.DedupHits.Add(dedups)
	}
	if parseErrs > 0 {
		p.s.ParseErrors.Add(parseErrs)
	}

	// Phase 2: group by flow. Bursts carry few distinct flows, so a linear
	// scan over the open groups beats any allocation-bearing structure.
	ng := 0
	for i := int32(0); i < n; i++ {
		m := &p.metas[i]
		if m.f == nil {
			p.tableMiss(inPort, m.buf)
			m.buf = nil
			continue
		}
		gi := 0
		for ; gi < ng; gi++ {
			if p.groups[gi].f == m.f {
				break
			}
		}
		if gi == ng {
			p.groups[ng] = flowGroup{f: m.f, first: i, last: i, pkts: 1, bytes: uint64(m.buf.Len)}
			ng++
			continue
		}
		g := &p.groups[gi]
		p.metas[g.last].next = i
		g.last = i
		g.pkts++
		g.bytes += uint64(m.buf.Len)
	}

	for gi := 0; gi < ng; gi++ {
		g := &p.groups[gi]
		g.f.Packets.Add(g.pkts)
		g.f.Bytes.Add(g.bytes)
		g.f.Touch(nowNano)
		p.executeGroup(g, snap, nowNano)
	}

	// Flush accumulated outputs.
	if len(p.txTouched) > 0 {
		multiPMD := p.s.cfg.NumPMDs > 1
		for _, idx := range p.txTouched {
			batch := p.txAcc[idx]
			if snap.order[idx].send(batch, multiPMD) < len(batch) {
				p.blocked = true
			}
			p.txAcc[idx] = batch[:0]
		}
		p.txTouched = p.txTouched[:0]
	}

	if len(p.drops) > 0 {
		p.cache.FreeBatch(p.drops)
		p.drops = p.drops[:0]
	}
}

func (p *pmdThread) tableMiss(inPort uint32, b *mempool.Buf) {
	if p.s.cfg.TableMissToController {
		p.punt(inPort, b, 0 /* OFPR_NO_MATCH */)
	}
	p.drops = append(p.drops, b)
}

// punt copies the frame into a pooled payload and hands it to the controller
// queue (best effort: a slow or absent controller must not stall the
// datapath; on overflow the copy goes straight back to the pool).
func (p *pmdThread) punt(inPort uint32, b *mempool.Buf, reason uint8) {
	ev := PacketInEvent{
		InPort: inPort,
		Reason: reason,
		Data:   p.s.borrowPuntData(b.Bytes()),
	}
	select {
	case p.s.packetIns <- ev:
	default:
		p.s.ReleasePacketIn(ev)
	}
}

// Adaptive-ECMP tuning. A bundle slot whose egress gauge reads at or above
// ecmpCongestedScore is avoidable; a flow may change its avoid mask only
// when the flowlet gate is open — an idle gap of ecmpFlowletGapNanos since
// the flow's previous ECMP batch (no packets in flight to overtake), or
// ecmpRepickMinNanos since the mask last moved (bounded repick rate). The
// mask is stable between gate openings, so the path mapping packets observe
// changes at most once per gate — the same quiesce-then-move ordering
// argument MoveQueue makes, with the flowlet gap standing in for the parked
// iteration.
const (
	ecmpCongestedScore  = 64
	ecmpFlowletGapNanos = int64(time.Millisecond)
	ecmpRepickMinNanos  = int64(5 * time.Millisecond)
)

// executeGroup runs the group's action list once, applying each action to
// every live packet in the group chain. Ownership: every chained buffer is
// consumed (moved into a TX accumulator, or freed). Header-mutating actions
// only apply before the first output: once a buffer has been handed to a
// destination (clones share storage), mutating it would corrupt the copy
// already sent. OpenFlow action lists emitted by this system always mutate
// before output. A packet dropped mid-list (TTL expiry) marks its meta slot
// nil and later actions skip it.
func (p *pmdThread) executeGroup(g *flowGroup, snap *portSet, nowNano int64) {
	moved := false
	for _, a := range g.f.Actions {
		switch a.Type {
		case flow.ActOutput:
			dstIdx, ok := snap.byID[a.Port]
			if !ok {
				// Unknown/removed destination: outputting nowhere is a
				// no-op. The buffers stay live for any later action and are
				// freed at the end if nothing moves them — freeing here
				// would leave freed buffers chained for later actions.
				continue
			}
			for i := g.first; i >= 0; i = p.metas[i].next {
				m := &p.metas[i]
				if m.buf == nil {
					continue
				}
				out := m.buf
				if moved {
					out = out.Clone()
				}
				if len(p.txAcc[dstIdx]) == 0 {
					p.txTouched = append(p.txTouched, dstIdx)
				}
				p.txAcc[dstIdx] = append(p.txAcc[dstIdx], out)
			}
			moved = true
		case flow.ActOutputECMP:
			if a.NPorts == 0 {
				continue
			}
			// Resolve the bundle's ports against the snapshot once per
			// action (-1 = gone), not once per packet.
			var ecmpIdx [flow.MaxECMPPorts]int
			n := uint32(a.NPorts)
			for j := uint32(0); j < n; j++ {
				ecmpIdx[j] = -1
				if idx, ok := snap.byID[a.Ports[j]]; ok {
					ecmpIdx[j] = idx
				}
			}
			// Congestion-aware repick: read each live path's egress gauge
			// (≤8 atomic loads per action) and, when some-but-not-all paths
			// are congested, move the flow's avoid mask onto the congested
			// set — but only through the flowlet gate, so the mask packets
			// observe is stable between gate openings and intra-flow order
			// holds. All paths congested (or all quiet) falls back to the
			// static hash pin. Disabled, this whole block is skipped and
			// avoid stays 0 — exactly the PR 5 datapath.
			var avoid uint32
			if !p.s.cfg.ECMPAdaptiveDisabled && n > 1 {
				var congMask uint32
				quiet := 0
				for j := uint32(0); j < n; j++ {
					idx := ecmpIdx[j]
					if idx < 0 {
						continue
					}
					if c := snap.order[idx].cong; c != nil && c.Load() >= ecmpCongestedScore {
						congMask |= 1 << j
					} else {
						quiet++
					}
				}
				st := g.f.ECMP()
				avoid = st.Avoid.Load()
				want := congMask
				if quiet == 0 {
					want = 0 // nowhere better to go: keep the static pin
				}
				if want != avoid &&
					(nowNano-st.Seen.Load() >= ecmpFlowletGapNanos ||
						nowNano-st.Moved.Load() >= ecmpRepickMinNanos) {
					st.Avoid.Store(want)
					st.Moved.Store(nowNano)
					avoid = want
					p.s.ECMPRepicks.Add(1)
				}
				st.Seen.Store(nowNano)
			}
			// Per-packet path pinning: the high half of the packet's key hash (mixed
			// with its VLAN lane, present after an earlier push in this same
			// action list) selects one of the parallel destinations, so one
			// flow always rides one path while distinct flows spread. A
			// selected port missing from the snapshot (a torn-down trunk) or
			// sitting in the avoid mask falls forward to the next live
			// unavoided one — live rebalance without a rule rewrite; with an
			// empty avoid mask surviving pins never move.
			sent := false
			for i := g.first; i >= 0; i = p.metas[i].next {
				m := &p.metas[i]
				if m.buf == nil {
					continue
				}
				pick := uint32(m.hash >> 32)
				if vid, tagged := pkt.FrameVlanID(m.buf.Bytes()); tagged {
					pick ^= uint32(vid) * 0x9e3779b9
				}
				dstIdx := -1
				fallback := -1
				for j := uint32(0); j < n; j++ {
					slot := (pick + j) % n
					idx := ecmpIdx[slot]
					if idx < 0 {
						continue
					}
					if fallback < 0 {
						fallback = idx
					}
					if avoid&(1<<slot) != 0 {
						continue
					}
					dstIdx = idx
					break
				}
				if dstIdx < 0 {
					dstIdx = fallback // every live path avoided: static pin
				}
				if dstIdx < 0 {
					continue // every parallel path is down: behave like ActOutput to nowhere
				}
				out := m.buf
				if moved {
					out = out.Clone()
				}
				if len(p.txAcc[dstIdx]) == 0 {
					p.txTouched = append(p.txTouched, dstIdx)
				}
				p.txAcc[dstIdx] = append(p.txAcc[dstIdx], out)
				sent = true
			}
			if sent {
				moved = true
			}
		case flow.ActController:
			for i := g.first; i >= 0; i = p.metas[i].next {
				if m := &p.metas[i]; m.buf != nil {
					p.punt(m.buf.Port, m.buf, 1 /* OFPR_ACTION */)
				}
			}
		case flow.ActDrop:
			if !moved {
				p.freeGroup(g)
			}
			return
		case flow.ActSetEthSrc, flow.ActSetEthDst:
			if !moved {
				for i := g.first; i >= 0; i = p.metas[i].next {
					if m := &p.metas[i]; m.buf != nil {
						setEth(m.buf.Bytes(), a)
					}
				}
			}
		case flow.ActPushVlan:
			if !moved {
				for i := g.first; i >= 0; i = p.metas[i].next {
					m := &p.metas[i]
					if m.buf == nil {
						continue
					}
					if _, err := m.buf.Prepend(pkt.VLANLen); err != nil {
						// No headroom left (already deeply encapsulated): the
						// frame cannot carry the tag, drop it.
						p.drops = append(p.drops, m.buf)
						m.buf = nil
						continue
					}
					if err := pkt.PushVlan(m.buf.Bytes(), a.Vlan, 0); err != nil {
						p.drops = append(p.drops, m.buf)
						m.buf = nil
						continue
					}
					m.decoded |= pkt.LayerVLAN
					m.l3 += pkt.VLANLen
				}
			}
		case flow.ActPopVlan:
			if !moved {
				for i := g.first; i >= 0; i = p.metas[i].next {
					m := &p.metas[i]
					if m.buf == nil || !m.decoded.Has(pkt.LayerVLAN) {
						continue
					}
					if _, err := pkt.PopVlan(m.buf.Bytes()); err != nil {
						continue
					}
					_ = m.buf.Adj(pkt.VLANLen)
					// Popping a tag pushed over an arriving one leaves
					// the frame tagged.
					if m.l3 -= pkt.VLANLen; m.l3 == pkt.EthernetLen {
						m.decoded &^= pkt.LayerVLAN
					}
				}
			}
		case flow.ActSetVlan:
			if !moved {
				for i := g.first; i >= 0; i = p.metas[i].next {
					m := &p.metas[i]
					if m.buf == nil || !m.decoded.Has(pkt.LayerVLAN) {
						continue
					}
					frame := m.buf.Bytes()
					if vl, err := pkt.DecodeVLAN(frame[pkt.EthernetLen:]); err == nil {
						vl.SetVID(a.Vlan)
					}
				}
			}
		case flow.ActSetVlanPcp:
			if !moved {
				for i := g.first; i >= 0; i = p.metas[i].next {
					m := &p.metas[i]
					if m.buf == nil || !m.decoded.Has(pkt.LayerVLAN) {
						continue
					}
					frame := m.buf.Bytes()
					if vl, err := pkt.DecodeVLAN(frame[pkt.EthernetLen:]); err == nil {
						vl.SetPCP(a.PCP)
					}
				}
			}
		case flow.ActDecTTL:
			if !moved {
				for i := g.first; i >= 0; i = p.metas[i].next {
					m := &p.metas[i]
					if m.buf == nil || !m.decoded.Has(pkt.LayerIPv4) {
						continue
					}
					if !decTTL(m.buf.Bytes(), int(m.l3)) {
						p.drops = append(p.drops, m.buf)
						m.buf = nil
					}
				}
			}
		}
	}
	if !moved {
		p.s.OutputNowhere.Add(p.freeGroup(g))
	}
}

// freeGroup drops every live buffer in the group chain and returns how many
// there were.
func (p *pmdThread) freeGroup(g *flowGroup) (freed uint64) {
	for i := g.first; i >= 0; i = p.metas[i].next {
		if m := &p.metas[i]; m.buf != nil {
			p.drops = append(p.drops, m.buf)
			m.buf = nil
			freed++
		}
	}
	return freed
}

// setEth applies a set-eth-src or set-eth-dst action to frame, which the
// header walk has found to hold an Ethernet header.
func setEth(frame []byte, a flow.Action) {
	eth, err := pkt.DecodeEthernet(frame)
	if err != nil {
		return // not reached: the walk rejects a frame this short
	}
	if a.Type == flow.ActSetEthSrc {
		eth.SetSrc(a.MAC)
	} else {
		eth.SetDst(a.MAC)
	}
}

// decTTL decrements the TTL of the IPv4 header at frame[l3:], which the
// header walk has validated, and refreshes its checksum. It reports false,
// leaving the frame as it was, when the TTL has run out and the frame must
// drop.
func decTTL(frame []byte, l3 int) bool {
	ip, err := pkt.DecodeIPv4(frame[l3:])
	if err != nil {
		return true // not reached: the walk validated this header
	}
	ttl := ip.TTL()
	if ttl <= 1 {
		return false
	}
	ip.SetTTL(ttl - 1)
	ip.UpdateChecksum()
	return true
}
