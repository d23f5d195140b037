// Package trunk simulates the shared uplink joining two NFV nodes' NICs —
// the ToR-style cable every inter-node service-graph crossing rides. Where
// the old per-crossing wire model gave each crossing a private link, a Trunk
// carries many VLAN-tagged lanes over ONE link per node pair: frames are
// demultiplexed by their 802.1Q vid, all lanes contend for the trunk's
// shared per-direction rate budget under a PCP-weighted deficit-round-robin
// scheduler (DCB-style per-priority queues, Config.PCPWeights), and stats
// are kept per lane, per PCP class and per direction.
//
// Each direction is a pump stepped by a Poller — one goroutine
// round-robining over every pump attached to it (a cluster shares ONE
// poller across all of its trunks, so an idle fabric costs one sleeper, not
// a goroutine per direction). A pump step drains the transmitting NIC's
// wire side (nic.DrainToWire), classifies each frame's lane by its VLAN id,
// re-homes accepted frames into the receiving node's mempool, applies the
// shared rate budget and propagation latency, and injects the copies into
// the receiving NIC (nic.InjectFromWire). Frames that carry no tag or an
// unregistered vid are dropped on the trunk (a real trunk port discards
// traffic for VLANs it is not configured to carry).
//
// Re-homing is the load-bearing step: the two nodes own independent
// fixed-population pools (independent hugepage regions on real hosts), so a
// frame can never carry its buffer across the link — the payload is copied
// into a buffer allocated from the destination pool and the source buffer
// returns to its own freelist. The mempool ownership guard turns any
// violation of this rule into a panic instead of silent freelist corruption.
package trunk

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ovshighway/internal/mempool"
	"ovshighway/internal/nic"
	"ovshighway/internal/pkt"
)

// Endpoint is one side of a trunk: the NIC it plugs into and the node-local
// pool arriving frames are re-homed into.
type Endpoint struct {
	NIC  *nic.NIC
	Pool *mempool.Pool
}

// Config parametrizes New.
type Config struct {
	Name string
	A, B Endpoint
	// RatePps caps each direction's carried rate, SHARED by every lane on
	// the trunk (0 = unshaped). This is the contended uplink budget: two
	// lanes saturating the trunk each converge to roughly half of it.
	RatePps float64
	// Latency is the propagation delay added to every frame, per direction.
	Latency time.Duration
	// PCPWeights assigns a deficit-round-robin weight to each 802.1Q
	// priority code point class. Under contention for the shared RatePps
	// budget, class i receives bandwidth proportional to its weight — the
	// DCB-style per-priority scheduling of a real ToR uplink. A zero weight
	// means the default weight 1 (an all-zero array is plain fair sharing),
	// so existing FIFO-era configs keep their contention behaviour.
	PCPWeights [8]float64
	// StagingCap bounds each PCP class's staging queue (default 256).
	// Overflow drops on the trunk exactly like a full hardware per-priority
	// egress queue; the bound also caps how much of the destination pool the
	// scheduler can park. Shallower queues drop sooner under incast —
	// sharper congestion signal, worse burst tolerance.
	StagingCap int
	// BatchSize is the per-iteration pump burst (default 32).
	BatchSize int
	// Poller, when non-nil, drives this trunk's two directions from a
	// shared polling goroutine (a cluster runs ONE poller for all of its
	// trunks). Nil gives the trunk a private poller, stopped with it.
	Poller *Poller
}

// Poller drives trunk pumps: a single goroutine round-robins over every
// direction of every attached trunk, replacing the old
// goroutine-per-direction pump model. On hosts with many node pairs this
// collapses 2·pairs idle pollers into one, and an idle fabric costs one
// 1 µs sleeper instead of a herd.
type Poller struct {
	mu    sync.Mutex // serializes attach/detach
	pumps atomic.Pointer[[]*pump]
	iters atomic.Uint64
	stop  atomic.Bool
	done  chan struct{}
}

// NewPoller starts an empty poller. Stop it after the last trunk using it
// has been stopped.
func NewPoller() *Poller {
	po := &Poller{done: make(chan struct{})}
	empty := []*pump{}
	po.pumps.Store(&empty)
	go po.run()
	return po
}

func (po *Poller) run() {
	defer close(po.done)
	for !po.stop.Load() {
		po.iters.Add(1)
		moved := 0
		for _, p := range *po.pumps.Load() {
			moved += p.pull()
			moved += p.deliver()
		}
		if moved == 0 {
			// The whole fabric is idle (or waiting out propagation delays):
			// yield the core. A busy spin here would starve the single-core
			// measurement hosts (see DESIGN.md "Cooperative backpressure").
			time.Sleep(time.Microsecond)
		}
	}
}

// attach registers pumps; the poller starts stepping them on its next
// iteration.
func (po *Poller) attach(ps ...*pump) {
	po.mu.Lock()
	defer po.mu.Unlock()
	cur := *po.pumps.Load()
	next := make([]*pump, 0, len(cur)+len(ps))
	next = append(append(next, cur...), ps...)
	po.pumps.Store(&next)
}

// detach removes pumps and returns only after the polling goroutine can no
// longer be mid-step on them, so the caller may reclaim their in-flight
// buffers.
func (po *Poller) detach(ps ...*pump) {
	drop := make(map[*pump]bool, len(ps))
	for _, p := range ps {
		drop[p] = true
	}
	po.mu.Lock()
	cur := *po.pumps.Load()
	next := make([]*pump, 0, len(cur))
	for _, p := range cur {
		if !drop[p] {
			next = append(next, p)
		}
	}
	po.pumps.Store(&next)
	po.mu.Unlock()
	// Two iteration boundaries: the iteration that may have loaded the old
	// slice finishes, then a fresh one starts from the new slice.
	c := po.iters.Load()
	for po.iters.Load() < c+2 {
		select {
		case <-po.done:
			return // poller already stopped: nothing is stepping anything
		default:
			runtime.Gosched()
		}
	}
}

// Stop halts the polling goroutine and waits for it. Idempotent.
func (po *Poller) Stop() {
	if !po.stop.CompareAndSwap(false, true) {
		return
	}
	<-po.done
}

// DirStats counts one direction's traffic.
type DirStats struct {
	// Carried frames were delivered into the receiving NIC.
	Carried uint64
	// Dropped frames were lost on the trunk: receiving pool exhausted,
	// receiving NIC ring full, or frame larger than the receiving buffers.
	// Lane-less frames (no tag / unknown vid) count here too, and in
	// Unrouted.
	Dropped uint64
}

// dirCounters is the atomic backing of DirStats.
type dirCounters struct {
	carried atomic.Uint64
	dropped atomic.Uint64
}

func (c *dirCounters) stats() DirStats {
	return DirStats{Carried: c.carried.Load(), Dropped: c.dropped.Load()}
}

// lane is one VLAN-steered flow sharing the trunk: a vid plus its
// per-direction counters. ab/ba are in trunk orientation (A→B, B→A).
type lane struct {
	vid uint16
	ab  dirCounters
	ba  dirCounters
}

// Trunk is a running bidirectional shared link.
type Trunk struct {
	name string
	ab   *pump
	ba   *pump

	poller      *Poller
	ownedPoller bool
	stopped     atomic.Bool

	// Fault-injection state (chaos testing): down simulates a pulled cable —
	// the pumps keep draining the NICs but every frame is lost on the wire —
	// and lossBits (a float64's bits) drops each carried frame with the given
	// probability. Both are atomics so the control plane flaps them while the
	// poller goroutine is mid-step; faulted counts the frames they ate.
	down     atomic.Bool
	lossBits atomic.Uint64
	faulted  atomic.Uint64

	// lanes is a copy-on-write vid→lane map: the polling goroutine loads
	// it wait-free per frame; AddLane/RemoveLane swap whole maps under mu.
	mu    sync.Mutex
	lanes atomic.Pointer[map[uint16]*lane]
}

// New connects the two endpoints and attaches both direction pumps to the
// configured (or a private) poller. The trunk carries no lanes until
// AddLane registers them.
func New(cfg Config) (*Trunk, error) {
	if cfg.A.NIC == nil || cfg.B.NIC == nil {
		return nil, errors.New("trunk: both endpoints need a NIC")
	}
	if cfg.A.Pool == nil || cfg.B.Pool == nil {
		return nil, errors.New("trunk: both endpoints need a pool")
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	if cfg.StagingCap <= 0 {
		cfg.StagingCap = defaultStagingCap
	}
	t := &Trunk{name: cfg.Name, poller: cfg.Poller}
	if t.poller == nil {
		t.poller = NewPoller()
		t.ownedPoller = true
	}
	empty := map[uint16]*lane{}
	t.lanes.Store(&empty)
	sh := shaping{RatePps: cfg.RatePps, Latency: cfg.Latency, Weights: cfg.PCPWeights, StagingCap: cfg.StagingCap}
	t.ab = newPump(fmt.Sprintf("%s:a->b", cfg.Name), t, dirAB, cfg.A, cfg.B, sh, cfg.BatchSize)
	t.ba = newPump(fmt.Sprintf("%s:b->a", cfg.Name), t, dirBA, cfg.B, cfg.A, sh, cfg.BatchSize)
	t.poller.attach(t.ab, t.ba)
	return t, nil
}

// Name returns the trunk's name.
func (t *Trunk) Name() string { return t.name }

// AddLane registers a VLAN lane; frames tagged with vid start flowing.
// Valid vids are 1..4094. Registering a live vid is an error.
func (t *Trunk) AddLane(vid uint16) error {
	if vid == 0 || vid > 4094 {
		return fmt.Errorf("trunk %s: vid %d out of range [1,4094]", t.name, vid)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLaneLocked(vid)
}

// AllocLane registers a lane on the lowest free vid and returns it — the
// single atomic owner of vid allocation, so callers need no shadow set of
// registered vids.
func (t *Trunk) AllocLane() (uint16, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := *t.lanes.Load()
	for vid := uint16(1); vid <= 4094; vid++ {
		if _, taken := cur[vid]; !taken {
			return vid, t.addLaneLocked(vid)
		}
	}
	return 0, fmt.Errorf("trunk %s: out of VLAN ids", t.name)
}

// addLaneLocked registers vid; caller holds t.mu.
func (t *Trunk) addLaneLocked(vid uint16) error {
	cur := *t.lanes.Load()
	if _, dup := cur[vid]; dup {
		return fmt.Errorf("trunk %s: lane %d already registered", t.name, vid)
	}
	next := make(map[uint16]*lane, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[vid] = &lane{vid: vid}
	t.lanes.Store(&next)
	return nil
}

// RemoveLane unregisters a lane. Frames already re-homed onto the delay
// line still deliver; new arrivals for the vid drop as unrouted. Removing
// an unknown vid is an error.
func (t *Trunk) RemoveLane(vid uint16) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := *t.lanes.Load()
	if _, ok := cur[vid]; !ok {
		return fmt.Errorf("trunk %s: lane %d not registered", t.name, vid)
	}
	next := make(map[uint16]*lane, len(cur)-1)
	for k, v := range cur {
		if k != vid {
			next[k] = v
		}
	}
	t.lanes.Store(&next)
	return nil
}

// LaneCount returns the number of registered lanes.
func (t *Trunk) LaneCount() int { return len(*t.lanes.Load()) }

// Lanes returns the registered vids in ascending order.
func (t *Trunk) Lanes() []uint16 {
	cur := *t.lanes.Load()
	out := make([]uint16, 0, len(cur))
	for vid := range cur {
		out = append(out, vid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LaneStats returns one lane's per-direction counters (A→B, B→A). ok is
// false for unregistered vids.
func (t *Trunk) LaneStats(vid uint16) (ab, ba DirStats, ok bool) {
	ln := (*t.lanes.Load())[vid]
	if ln == nil {
		return DirStats{}, DirStats{}, false
	}
	return ln.ab.stats(), ln.ba.stats(), true
}

// Stats returns whole-trunk per-direction counters (A→B, B→A), including
// unrouted drops.
func (t *Trunk) Stats() (ab, ba DirStats) { return t.ab.stats(), t.ba.stats() }

// PCPStats returns per-direction counters split by 802.1Q priority class —
// the observable of the DRR scheduler (index = PCP).
func (t *Trunk) PCPStats() (ab, ba [8]DirStats) {
	for c := 0; c < 8; c++ {
		ab[c] = DirStats{Carried: t.ab.pcpCarried[c].Load(), Dropped: t.ab.pcpDropped[c].Load()}
		ba[c] = DirStats{Carried: t.ba.pcpCarried[c].Load(), Dropped: t.ba.pcpDropped[c].Load()}
	}
	return ab, ba
}

// Congestion returns each direction's published congestion score (A→B,
// B→A): the staging-occupancy EWMA + overflow-drop signal, 0 (quiet) to 255
// (saturated). The same value the sending switch's adaptive ECMP reads from
// the trunk NIC's gauge, exposed here for tests and experiment tables.
func (t *Trunk) Congestion() (ab, ba uint32) {
	return t.ab.gauge.Load(), t.ba.gauge.Load()
}

// Backlog reports the number of frames currently held inside the trunk —
// staged in a PCP class queue or waiting out the propagation delay line,
// both directions. Parked frames move no stats counter, so counter
// stability alone cannot distinguish an empty trunk from a stalled one;
// a migration drain must see this reach zero before retiring a lane.
func (t *Trunk) Backlog() int {
	total := 0
	for _, p := range []*pump{t.ab, t.ba} {
		// carried+dropped are loaded BEFORE queued: the pump may be moving
		// frames concurrently, and the reversed order could observe a queued
		// bump without its matching carried/dropped yet — fine (backlog reads
		// high, the probe stays conservative) — whereas loading queued first
		// could undercount and report empty while frames are still inside.
		done := p.carried.Load() + p.dropped.Load()
		if q := p.queued.Load(); q > done {
			total += int(q - done)
		}
	}
	return total
}

// Unrouted counts frames dropped because they carried no 802.1Q tag or an
// unregistered vid, summed over both directions.
func (t *Trunk) Unrouted() uint64 {
	return t.ab.unrouted.Load() + t.ba.unrouted.Load()
}

// SetDown injects (or clears) a link-down fault: while down the trunk keeps
// draining its NICs but every frame is lost on the wire, exactly like a
// pulled cable with the ports still up. Toggling it rapidly models a
// flapping link. Safe while traffic flows.
func (t *Trunk) SetDown(down bool) { t.down.Store(down) }

// Down reports whether a link-down fault is injected.
func (t *Trunk) Down() bool { return t.down.Load() }

// SetLossRate injects random frame loss: each frame entering the trunk is
// dropped with probability rate (clamped to [0,1]). Zero clears the fault.
// Safe while traffic flows.
func (t *Trunk) SetLossRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	t.lossBits.Store(math.Float64bits(rate))
}

// LossRate returns the injected random-loss probability.
func (t *Trunk) LossRate() float64 { return math.Float64frombits(t.lossBits.Load()) }

// Faulted counts the frames eaten by injected faults (down or random loss),
// summed over both directions. Fault drops also count in the regular
// per-lane/per-direction Dropped counters — Faulted attributes the share
// that was injected rather than congestion.
func (t *Trunk) Faulted() uint64 { return t.faulted.Load() }

// Stop detaches both pumps from the poller and frees frames still in
// flight on the trunk. Frames parked inside the NIC queues stay put: they
// belong to whoever tears the NICs down. Idempotent.
func (t *Trunk) Stop() {
	if !t.stopped.CompareAndSwap(false, true) {
		return
	}
	t.poller.detach(t.ab, t.ba)
	t.ab.drain()
	t.ba.drain()
	if t.ownedPoller {
		t.poller.Stop()
	}
}

// direction orients a pump relative to the trunk's A/B endpoints, selecting
// which side of each lane's counters it owns.
type direction int

const (
	dirAB direction = iota
	dirBA
)

// shaping configures one direction of the trunk.
type shaping struct {
	RatePps    float64
	Latency    time.Duration
	Weights    [8]float64
	StagingCap int
}

// delayed is one re-homed frame waiting out its propagation delay. The lane
// pointer is resolved at pull time so delivery attributes drops to the lane
// even if it was removed meanwhile; pcp is the frame's 802.1Q priority
// class, resolved once for scheduler classing and per-class stats.
type delayed struct {
	buf  *mempool.Buf
	lane *lane
	due  int64 // UnixNano
	pcp  uint8
}

// classQueue is one PCP class's staging FIFO between lane demux and the DRR
// grant (head index avoids reslicing, same idiom as the delay line).
type classQueue struct {
	q    []delayed
	head int
}

func (c *classQueue) pending() int { return len(c.q) - c.head }

// defaultStagingCap is the Config.StagingCap default: the per-PCP staging
// bound overflow drops against when the deployment does not choose one.
const defaultStagingCap = 256

// pump moves one direction: src NIC wire-TX → lane demux → re-home →
// per-PCP staging → deficit-round-robin grant under the shared rate budget
// → propagation delay line → dst NIC wire-RX. The owning poller's goroutine
// is the single consumer of the src queue and the single producer of the
// dst queue, honoring both SPSC contracts; every pump field is touched only
// by that goroutine while the pump is attached.
type pump struct {
	name    string
	trunk   *Trunk
	dir     direction
	src     Endpoint
	dst     Endpoint
	shaping shaping
	bucket  tokenBucket

	drained []*mempool.Buf // scratch: frames pulled off the src NIC
	homed   []*mempool.Buf // scratch: fresh dst-pool buffers
	// srcFree takes the drained source buffers, dstBufs hands out and takes
	// back the re-home buffers; both are flushed whenever a pull finds the
	// wire empty, and by drain.
	srcFree *mempool.Cache
	dstBufs *mempool.Cache
	inFly   []delayed // FIFO delay line (head index avoids reslicing)
	inHead  int

	// classes stage re-homed frames per PCP; quantum/deficit/cursor drive
	// the DRR pass distributing the shared token budget across them. The
	// cursor and in-service flag persist across passes: the shaped budget
	// arrives in sub-quantum trickles, and a scheduler that restarted its
	// scan at class 0 on every grant would hand the whole trickle to the
	// lowest backlogged class regardless of weight.
	classes    [8]classQueue
	quantum    [8]int
	deficit    [8]int
	cursor     int
	inService  [8]bool
	stagingCap int
	// staged is the number of frames in the eight class queues together,
	// kept as frames are staged and granted so that no step has to scan the
	// classes to learn whether, or how much, there is to schedule.
	staged int

	// Congestion signal: every pump step folds the staging occupancy (staged,
	// scaled against stagingCap) and the
	// staging-overflow drop delta into an EWMA and publishes the resulting
	// 0..255 score into the SOURCE NIC's congestion gauge — the port the
	// sending switch outputs into, so its adaptive ECMP reads exactly this
	// direction's backpressure. congAcc holds the EWMA in 1/16ths for
	// smoothing headroom; congDrops/lastCongDrops are single-writer like
	// every other pump field (only the gauge store is atomic, and it happens
	// only when the score moved).
	congAcc       int
	congDrops     uint64
	lastCongDrops uint64
	gauge         *atomic.Uint32

	// queued counts every frame pulled off the source NIC; each such frame
	// eventually lands in carried or dropped, so queued-carried-dropped is
	// the number of frames currently held inside the pump (class staging
	// queues plus the propagation delay line) — the emptiness probe a
	// migration drain needs, since parked frames move no other counter.
	queued   atomic.Uint64
	carried  atomic.Uint64
	dropped  atomic.Uint64
	unrouted atomic.Uint64
	// pcpCarried/pcpDropped split the direction's counters by PCP class for
	// the lane-QoS experiment tables.
	pcpCarried [8]atomic.Uint64
	pcpDropped [8]atomic.Uint64

	// rng drives injected random loss (xorshift64*; single-goroutine like
	// every other pump field, seeded per direction so the two pumps of a
	// trunk do not drop in lockstep).
	rng uint64
}

func newPump(name string, t *Trunk, dir direction, src, dst Endpoint, sh shaping, batch int) *pump {
	p := &pump{
		name:       name,
		trunk:      t,
		dir:        dir,
		src:        src,
		dst:        dst,
		shaping:    sh,
		stagingCap: sh.StagingCap,
		gauge:      src.NIC.CongestionGauge(),
		drained:    make([]*mempool.Buf, batch),
		homed:      make([]*mempool.Buf, batch),
		srcFree:    src.Pool.NewCache(),
		dstBufs:    dst.Pool.NewCache(),
		rng:        0x9E3779B97F4A7C15 ^ uint64(dir+1),
	}
	if p.stagingCap <= 0 {
		p.stagingCap = defaultStagingCap
	}
	// Packet-granular quanta: normalize so the smallest positive weight maps
	// to one packet per service turn (zero = default weight 1 — an
	// unconfigured class is not starved), preserving the configured ratios
	// up to rounding.
	minW := 0.0
	var w [8]float64
	for c := range w {
		w[c] = sh.Weights[c]
		if w[c] <= 0 {
			w[c] = 1
		}
		if minW == 0 || w[c] < minW {
			minW = w[c]
		}
	}
	for c := range p.quantum {
		q := int(w[c]/minW + 0.5)
		if q < 1 {
			q = 1
		}
		p.quantum[c] = q
	}
	p.bucket.init(sh.RatePps)
	return p
}

func (p *pump) stats() DirStats {
	return DirStats{Carried: p.carried.Load(), Dropped: p.dropped.Load()}
}

// run is an open run of frames that share a lane and a PCP class and are not
// yet counted: the lane and class counters move once per run — two atomic
// adds where a burst is nearly always one run — not once per frame.
type run struct {
	ln  *lane
	pcp uint8
	n   uint64
}

// add extends r by one frame of (ln, pcp), closing it first if it was a run
// of another pair.
func (p *pump) add(r *run, ln *lane, pcp uint8, dropped bool) {
	if ln != r.ln || pcp != r.pcp {
		p.flush(r, dropped)
		r.ln, r.pcp = ln, pcp
	}
	r.n++
}

// flush closes r into its lane's and its class's carried (or dropped)
// counters.
func (p *pump) flush(r *run, dropped bool) {
	if r.n == 0 {
		return
	}
	dc := &r.ln.ab
	if p.dir == dirBA {
		dc = &r.ln.ba
	}
	if dropped {
		dc.dropped.Add(r.n)
		p.pcpDropped[r.pcp].Add(r.n)
	} else {
		dc.carried.Add(r.n)
		p.pcpCarried[r.pcp].Add(r.n)
	}
	r.n = 0
}

// countRuns counts the delayed frames ds as carried (or dropped).
func (p *pump) countRuns(ds []delayed, dropped bool) {
	var r run
	for i := range ds {
		p.add(&r, ds[i].lane, ds[i].pcp, dropped)
	}
	p.flush(&r, dropped)
}

// pull drains a burst off the transmitting NIC, demultiplexes each frame to
// its lane by VLAN id and its PCP class, re-homes accepted frames into the
// destination pool and stages them per class, then runs the DRR grant pass.
// Lane-less frames (no tag, unregistered vid), frames that cannot be
// re-homed (destination pool exhausted, oversized payload) and frames
// overflowing their class's staging queue are dropped on the trunk.
func (p *pump) pull() int {
	n := p.src.NIC.DrainToWire(p.drained)
	moved := 0
	if n > 0 {
		p.queued.Add(uint64(n))
		lanes := *p.trunk.lanes.Load()
		down := p.trunk.down.Load()
		loss := math.Float64frombits(p.trunk.lossBits.Load())
		got := p.dstBufs.GetBatch(p.homed[:n])
		kept := 0
		var unrouted, faulted uint64
		// A burst rides few lanes: the previous frame's (vid → lane) answer
		// is kept, so a run of one lane costs one map access, and trunk
		// drops are counted per run of one (lane, pcp).
		var memoVid uint16
		var memoLane *lane
		memo := false
		var drops run
		for i := 0; i < n; i++ {
			srcBuf := p.drained[i]
			frame := srcBuf.Bytes()
			tci, tagged := pkt.FrameVlanTCI(frame)
			var ln *lane
			if tagged {
				if vid := tci & 0x0fff; !memo || vid != memoVid {
					memoVid, memoLane, memo = vid, lanes[vid], true
				}
				ln = memoLane
			}
			if ln == nil {
				unrouted++
				continue // no lane carries this frame: trunk drop
			}
			pcp := uint8(tci >> 13)
			cq := &p.classes[pcp]
			var dstBuf *mempool.Buf
			switch {
			case down || (loss > 0 && p.rand01() < loss):
				faulted++ // injected fault: lost on the wire
			case kept >= got:
				// destination pool exhausted
			case cq.pending() >= p.stagingCap:
				p.congDrops++ // class egress queue full
			case p.homed[kept].SetBytes(frame) != nil:
				// frame exceeds destination buffer geometry
			default:
				dstBuf = p.homed[kept]
			}
			if dstBuf == nil {
				p.add(&drops, ln, pcp, true) // trunk drop
				continue
			}
			dstBuf.TS = srcBuf.TS // latency probes survive the hop
			cq.q = append(cq.q, delayed{buf: dstBuf, lane: ln, pcp: pcp})
			kept++
		}
		p.flush(&drops, true)
		p.staged += kept
		if faulted > 0 {
			p.trunk.faulted.Add(faulted)
		}
		// Unused destination buffers (demux/re-home failures) go straight back…
		if kept < got {
			p.dstBufs.FreeBatch(p.homed[kept:got])
		}
		// …and every source buffer returns to the transmitting node's pool.
		p.srcFree.FreeBatch(p.drained[:n])
		if unrouted > 0 {
			p.unrouted.Add(unrouted)
		}
		if d := n - kept; d > 0 {
			p.dropped.Add(uint64(d))
		}
		moved = n
	} else {
		p.srcFree.Flush()
		p.dstBufs.Flush()
	}
	moved += p.schedule()
	p.updateCongestion()
	return moved
}

// updateCongestion folds this step's staging occupancy and overflow-drop
// delta into the direction's congestion EWMA and publishes the 0..255 score
// into the source NIC's gauge. Runs every pump step — including idle ones,
// so a drained queue decays the score back to zero. A step that overflowed
// the staging bound saturates the instantaneous sample: drops are the
// unambiguous congestion evidence, occupancy alone could sit just under the
// cap forever. Zero-alloc, single-writer; only the gauge store is atomic.
func (p *pump) updateCongestion() {
	inst := p.staged * 255 / p.stagingCap
	if d := p.congDrops - p.lastCongDrops; d > 0 {
		inst = 255
		p.lastCongDrops = p.congDrops
	}
	if inst > 255 {
		inst = 255
	}
	// EWMA in 1/16ths with alpha 1/4: fast enough to open within a few pump
	// steps of an incast, smooth enough that one bursty poll does not flap
	// the sender's repick gate.
	p.congAcc += (inst*16 - p.congAcc) / 4
	if score := uint32(p.congAcc / 16); score != p.gauge.Load() {
		p.gauge.Store(score)
	}
}

// rand01 returns the next xorshift64* sample mapped to [0,1).
func (p *pump) rand01() float64 {
	x := p.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	p.rng = x
	return float64((x*0x2545F4914F6CDD1D)>>11) / (1 << 53)
}

// schedule runs one deficit-round-robin pass: the shared token bucket
// grants an aggregate budget, and each PCP class with staged frames earns
// deficit proportional to its weight per round, moving that many frames
// onto the propagation delay line. Under contention the carried rates of
// two saturating classes converge to the ratio of their weights; with no
// shaping (rate 0) every staged frame moves immediately and weights are
// moot — QoS only bites when the uplink is the bottleneck.
func (p *pump) schedule() int {
	if p.staged == 0 {
		return 0
	}
	tokens := p.bucket.take(p.staged)
	if tokens == 0 {
		return 0
	}
	granted := 0
	due := time.Now().Add(p.shaping.Latency).UnixNano()
	for tokens > 0 && p.staged > 0 {
		// Advance the cursor to the next backlogged class (staged > 0: there
		// is one); an emptied class forfeits its deficit (classic DRR).
		for p.classes[p.cursor].pending() == 0 {
			p.deficit[p.cursor] = 0
			p.inService[p.cursor] = false
			p.cursor = (p.cursor + 1) & 7
		}
		c := p.cursor
		cq := &p.classes[c]
		if !p.inService[c] {
			// The class earns its quantum once per service turn, even when
			// the budget then arrives one token at a time across many passes.
			p.deficit[c] += p.quantum[c]
			p.inService[c] = true
		}
		serve := p.deficit[c]
		if avail := cq.pending(); serve > avail {
			serve = avail
		}
		if serve > tokens {
			serve = tokens
		}
		for i := 0; i < serve; i++ {
			p.inFly = append(p.inFly, cq.q[cq.head])
			cq.q[cq.head].buf = nil
			cq.head++
		}
		p.deficit[c] -= serve
		p.staged -= serve
		tokens -= serve
		granted += serve
		switch {
		case cq.pending() == 0:
			cq.q = cq.q[:0]
			cq.head = 0
			p.deficit[c] = 0
			p.inService[c] = false
			// The turn passes on only if someone is waiting for it: with
			// nothing staged at all the cursor rests here, and the one-class
			// trunk does not walk seven empty classes back round every step.
			if p.staged > 0 {
				p.cursor = (c + 1) & 7
			}
		case p.deficit[c] < 1:
			p.inService[c] = false
			p.cursor = (c + 1) & 7
		default:
			// Tokens ran out mid-quantum: stay in service at this class so
			// the next grant resumes here.
		}
		if cq.head >= p.stagingCap {
			n := copy(cq.q, cq.q[cq.head:])
			cq.q = cq.q[:n]
			cq.head = 0
		}
	}
	p.bucket.refund(tokens)
	// Stamp the grant batch's due time: frames scheduled in this pass share
	// one propagation deadline (they left the port back-to-back).
	for i := len(p.inFly) - granted; i < len(p.inFly); i++ {
		p.inFly[i].due = due
	}
	return granted
}

// deliver injects frames whose propagation delay has elapsed into the
// receiving NIC. Frames the NIC ring rejects are dropped (a full physical
// RX ring drops on the wire too), attributed to their lane.
func (p *pump) deliver() int {
	pending := len(p.inFly) - p.inHead
	if pending == 0 {
		return 0
	}
	ready := p.inHead
	now := time.Now().UnixNano()
	for ready < len(p.inFly) && p.inFly[ready].due <= now {
		ready++
	}
	if ready == p.inHead {
		return 0
	}
	moved := 0
	for p.inHead < ready {
		// Reuse the homed scratch as the injection window, remembering the
		// window's lanes for stats attribution.
		k := 0
		winStart := p.inHead
		for p.inHead < ready && k < len(p.homed) {
			p.homed[k] = p.inFly[p.inHead].buf
			k++
			p.inHead++
		}
		sent := p.dst.NIC.InjectFromWire(p.homed[:k])
		p.carried.Add(uint64(sent))
		p.countRuns(p.inFly[winStart:winStart+sent], false)
		moved += k
		if sent < k {
			p.dstBufs.FreeBatch(p.homed[sent:k])
			p.dropped.Add(uint64(k - sent))
			p.countRuns(p.inFly[winStart+sent:winStart+k], true)
		}
	}
	if p.inHead == len(p.inFly) {
		p.inFly = p.inFly[:0]
		p.inHead = 0
	} else if p.inHead >= 1024 {
		// Under sustained latency-shaped traffic the line never fully
		// drains, so compact the consumed head periodically or the slice
		// grows for the trunk's lifetime.
		n := copy(p.inFly, p.inFly[p.inHead:])
		p.inFly = p.inFly[:n]
		p.inHead = 0
	}
	return moved
}

// drain frees frames still on the delay line or staged in a class queue
// (they were already re-homed, so they return to the destination pool).
// Only call after the pump has been detached from its poller.
func (p *pump) drain() {
	for _, d := range p.inFly[p.inHead:] {
		d.buf.Free()
	}
	p.inFly = nil
	p.inHead = 0
	for c := range p.classes {
		cq := &p.classes[c]
		for _, d := range cq.q[cq.head:] {
			d.buf.Free()
		}
		cq.q = nil
		cq.head = 0
	}
	p.staged = 0
	p.srcFree.Flush()
	p.dstBufs.Flush()
}

// tokenBucket is a packet-granular rate limiter (rate 0 disables shaping).
// Single-goroutine use: only the owning pump touches it.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func (t *tokenBucket) init(rate float64) {
	t.rate = rate
	if rate <= 0 {
		t.rate = 0
		return
	}
	t.burst = rate / 1000 // 1 ms of line rate
	if t.burst < 64 {
		t.burst = 64
	}
	t.tokens = t.burst
	t.last = time.Now()
}

func (t *tokenBucket) take(want int) int {
	if t.rate == 0 {
		return want
	}
	now := time.Now()
	t.tokens += now.Sub(t.last).Seconds() * t.rate
	t.last = now
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	grant := int(t.tokens)
	if grant > want {
		grant = want
	}
	if grant > 0 {
		t.tokens -= float64(grant)
	}
	return grant
}

func (t *tokenBucket) refund(n int) {
	if t.rate == 0 || n <= 0 {
		return
	}
	t.tokens += float64(n)
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
}
