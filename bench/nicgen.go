package main

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"ovshighway/internal/mempool"
	"ovshighway/internal/nic"
	"ovshighway/internal/pkt"
)

const (
	nicFlows = 1 << 16
	// srcPortOff is where the UDP source port — the flow axis — sits in the
	// untagged template frame.
	srcPortOff = pkt.EthernetLen + pkt.IPv4MinLen
	// stampEvery is the latency sampling stride of the paced phase.
	stampEvery = 8
	// lateAfter is how far behind its due time an injection counts as late.
	lateAfter = 100 * time.Microsecond
	// latCap bounds the preallocated latency samples (paced seconds × rate ÷
	// stampEvery stays well below it).
	latCap = 1 << 18
)

// flowPlan is the generated input of nic1-flows64k: one 64 B template frame
// and the order in which its 65536 source ports cycle.
type flowPlan struct {
	frame []byte
	ports []uint16
	tuple pkt.FiveTuple // of the template; SrcPort is the varying field
}

func newFlowPlan(seed int64) (*flowPlan, error) {
	spec := seededSpec(seed)
	raw := make([]byte, 128)
	n, err := pkt.BuildUDP(raw, spec)
	if err != nil {
		return nil, err
	}
	// The per-frame port rewrite does not refresh the UDP checksum; 0 means
	// "no checksum", so every generated frame stays well-formed.
	raw[srcPortOff+6], raw[srcPortOff+7] = 0, 0
	p := &flowPlan{
		frame: raw[:n],
		ports: make([]uint16, nicFlows),
		tuple: pkt.FiveTuple{Src: spec.SrcIP, Dst: spec.DstIP, DstPort: spec.DstPort, Proto: pkt.ProtoUDP},
	}
	for i, v := range rand.New(rand.NewSource(seed)).Perm(nicFlows) {
		p.ports[i] = uint16(v)
	}
	return p, nil
}

// nicGen is the harness-owned load generator and sink of nic1-flows64k: one
// goroutine that injects on the in NIC's wire side and drains the out NIC's.
// rate 0 is a closed loop (inject whenever pool and ring accept); rate > 0
// is an open loop on a fixed schedule, each sampled packet timed from when
// it was due.
type nicGen struct {
	in, out *nic.NIC
	pool    *mempool.Pool
	plan    *flowPlan
	rate    float64
	stamp   bool

	sent      atomic.Uint64 // frames the in NIC accepted
	delivered atomic.Uint64 // frames drained from the out NIC
	badFrames atomic.Uint64 // sampled deliveries that failed validation
	paused    atomic.Bool
	resetLat  atomic.Bool
	stop      atomic.Bool
	done      chan struct{}

	// Owned by the generator goroutine; read after halt.
	lat     []int64 // ns
	stamped uint64
	late    uint64
}

func startNICGen(in, out *nic.NIC, pool *mempool.Pool, plan *flowPlan, rate float64, stamp bool) *nicGen {
	g := &nicGen{in: in, out: out, pool: pool, plan: plan, rate: rate, stamp: stamp && rate > 0, done: make(chan struct{})}
	if g.stamp {
		g.lat = make([]int64, 0, latCap)
	}
	go g.run()
	return g
}

func (g *nicGen) halt() {
	g.stop.Store(true)
	<-g.done
}

func (g *nicGen) run() {
	defer close(g.done)
	var (
		tx, rx   [32]*mempool.Buf
		parser   pkt.Parser
		next     int    // position in the port cycle
		seq      uint64 // frames accepted since the schedule started
		rxSeq    uint64
		start    time.Time
		wasPause = true
	)
	interval := 0.0
	if g.rate > 0 {
		interval = 1e9 / g.rate
	}
	for !g.stop.Load() {
		if g.resetLat.CompareAndSwap(true, false) {
			g.lat, g.stamped, g.late = g.lat[:0], 0, 0
		}
		moved := false
		blocked := false
		want := len(tx)
		switch {
		case g.paused.Load():
			want, wasPause = 0, true
		case wasPause:
			start, seq, wasPause = time.Now(), 0, false
		}
		if want > 0 && g.rate > 0 {
			due := uint64(time.Since(start).Seconds() * g.rate)
			if due <= seq {
				want = 0
			} else if due-seq < uint64(want) {
				want = int(due - seq)
			}
		}
		if want > 0 {
			n := g.pool.GetBatch(tx[:want])
			var now int64
			if g.stamp {
				now = time.Now().UnixNano()
			}
			for i := 0; i < n; i++ {
				b := tx[i]
				b.SetBytes(g.plan.frame)
				fb := b.Bytes()
				port := g.plan.ports[(next+i)&(nicFlows-1)]
				fb[srcPortOff], fb[srcPortOff+1] = byte(port>>8), byte(port)
				if g.stamp && (seq+uint64(i))%stampEvery == 0 {
					b.TS = start.UnixNano() + int64(float64(seq+uint64(i))*interval)
				}
			}
			sent := g.in.InjectFromWire(tx[:n])
			if g.stamp {
				// Only accepted frames count as stamped; the rejected tail is
				// offered again on a later pass, later still against its due time.
				for i := 0; i < sent; i++ {
					if ts := tx[i].TS; ts != 0 {
						g.stamped++
						if now-ts > int64(lateAfter) {
							g.late++
						}
					}
				}
			}
			if sent < n {
				mempool.FreeBatch(tx[sent:n])
				blocked = true
			}
			next = (next + sent) & (nicFlows - 1)
			seq += uint64(sent)
			g.sent.Add(uint64(sent))
			moved = sent > 0
		}
		if k := g.out.DrainToWire(rx[:]); k > 0 {
			var now int64
			if g.stamp {
				now = time.Now().UnixNano()
			}
			for _, b := range rx[:k] {
				if b.TS != 0 && len(g.lat) < cap(g.lat) {
					g.lat = append(g.lat, now-b.TS)
				}
				if rxSeq%64 == 0 && !g.valid(&parser, b) {
					g.badFrames.Add(1)
				}
				rxSeq++
			}
			mempool.FreeBatch(rx[:k])
			g.delivered.Add(uint64(k))
			moved = true
		}
		// On one P the datapath only runs when this goroutine yields: always
		// between scheduled sends, and in the closed loop once the ring pushes
		// back or nothing moves.
		if g.rate > 0 || blocked || !moved {
			runtime.Gosched()
		}
	}
}

// valid checks a delivered frame against the generated set: 64 B on the wire
// (pkt.MinFrame bytes in memory) and the template's 5-tuple with any source
// port — every 16-bit value is in the set.
func (g *nicGen) valid(p *pkt.Parser, b *mempool.Buf) bool {
	if b.Len != pkt.MinFrame || p.Parse(b.Bytes()) != nil {
		return false
	}
	ft, ok := p.FiveTuple()
	ft.SrcPort = 0
	return ok && ft == g.plan.tuple
}

func (g *nicGen) latency() latency {
	l := latency{samples: uint64(len(g.lat)), paced: true}
	if g.stamped > 0 {
		l.latePct = 100 * float64(g.late) / float64(g.stamped)
	}
	if len(g.lat) == 0 {
		return l
	}
	us := make([]float64, len(g.lat))
	var sum float64
	for i, ns := range g.lat {
		us[i] = float64(ns) / 1e3
		sum += us[i]
	}
	l.meanUs = sum / float64(len(us))
	l.p50Us = quantile(us, 0.50)
	l.p99Us = quantile(us, 0.99)
	return l
}
