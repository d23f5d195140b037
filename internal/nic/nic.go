// Package nic simulates the physical 10G NICs of the paper's testbed
// (Intel 82599ES). A NIC is a vSwitch DataPort whose wire side is fed and
// drained by traffic generators; a token bucket enforces line rate in each
// direction, reproducing the NIC/PCIe bottleneck that distinguishes the
// paper's Figure 3(b) from the memory-only Figure 3(a).
package nic

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ovshighway/internal/mempool"
	"ovshighway/internal/ring"
	"ovshighway/internal/stats"
)

// LineRate64B is the 10GbE line rate in packets/s for minimum-size frames
// (64B + 20B inter-frame overhead = 84B slots ⇒ 14.88 Mpps).
const LineRate64B = 14_880_952

// Config parametrizes a NIC.
type Config struct {
	ID   uint32
	Name string
	// RatePps caps each direction, 0 = LineRate64B. Negative = unlimited.
	RatePps float64
	// QueueSize is the per-direction descriptor ring size. Default 1024.
	QueueSize int
}

// NIC is one simulated physical port.
type NIC struct {
	id   uint32
	name string

	rxQ *ring.SPSC[*mempool.Buf] // wire → switch
	txQ *ring.SPSC[*mempool.Buf] // switch → wire

	rxBucket tokenBucket // applied when the switch pulls from the wire
	txBucket tokenBucket // applied when the switch pushes to the wire

	counters stats.PortCounters

	// cong is the egress congestion gauge (0 quiet .. 255 saturated).
	// Whoever consumes this NIC's wire-TX side (a trunk pump) publishes its
	// backpressure here; the switch-side sender reads it through
	// CongestionGauge to steer flows off a congested path. A NIC nobody
	// writes stays at 0 — permanently quiet.
	cong atomic.Uint32

	// WireTxDrops counts generator-side drops (wire ingress queue full).
	WireTxDrops uint64
	wireMu      sync.Mutex
}

// New builds a NIC.
func New(cfg Config) (*NIC, error) {
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 1024
	}
	rate := cfg.RatePps
	switch {
	case rate == 0:
		rate = LineRate64B
	case rate < 0:
		rate = 0 // unlimited
	}
	rxQ, err := ring.NewSPSC[*mempool.Buf](cfg.QueueSize)
	if err != nil {
		return nil, fmt.Errorf("nic %s: %w", cfg.Name, err)
	}
	txQ, err := ring.NewSPSC[*mempool.Buf](cfg.QueueSize)
	if err != nil {
		return nil, fmt.Errorf("nic %s: %w", cfg.Name, err)
	}
	n := &NIC{id: cfg.ID, name: cfg.Name, rxQ: rxQ, txQ: txQ}
	n.rxBucket.init(rate)
	n.txBucket.init(rate)
	return n, nil
}

// PortID implements vswitch.DataPort.
func (n *NIC) PortID() uint32 { return n.id }

// PortName implements vswitch.DataPort.
func (n *NIC) PortName() string { return n.name }

// PortCounters implements vswitch.DataPort.
func (n *NIC) PortCounters() *stats.PortCounters { return &n.counters }

// CongestionGauge exposes the egress congestion gauge: the wire-side
// consumer stores a 0..255 score, the datapath's adaptive ECMP loads it per
// action execution. Handing out the atomic itself keeps the hot-path read a
// single load with no interface call.
func (n *NIC) CongestionGauge() *atomic.Uint32 { return &n.cong }

// Recv implements vswitch.DataPort: the switch pulls wire arrivals, paced at
// line rate.
func (n *NIC) Recv(out []*mempool.Buf) int {
	allowed := n.rxBucket.take(len(out))
	if allowed == 0 {
		return 0
	}
	got := n.rxQ.Dequeue(out[:allowed])
	n.rxBucket.refund(allowed - got)
	if got > 0 {
		var bytes uint64
		for _, b := range out[:got] {
			bytes += uint64(b.Len)
		}
		n.counters.RxPackets.Add(uint64(got))
		n.counters.RxBytes.Add(bytes)
	}
	return got
}

// Send implements vswitch.DataPort: the switch pushes toward the wire, paced
// at line rate; excess is dropped exactly like a saturated physical NIC.
// Bytes are summed before the enqueue transfers buffer ownership.
func (n *NIC) Send(bufs []*mempool.Buf) int {
	var total uint64
	for _, b := range bufs {
		total += uint64(b.Len)
	}
	allowed := n.txBucket.take(len(bufs))
	sent := 0
	if allowed > 0 {
		sent = n.txQ.Enqueue(bufs[:allowed])
		n.txBucket.refund(allowed - sent)
	}
	var unsent uint64
	for _, b := range bufs[sent:] {
		unsent += uint64(b.Len)
	}
	mempool.FreeBatch(bufs[sent:])
	n.counters.TxPackets.Add(uint64(sent))
	n.counters.TxBytes.Add(total - unsent)
	if d := len(bufs) - sent; d > 0 {
		n.counters.TxDropped.Add(uint64(d))
	}
	return sent
}

// InjectFromWire places generator frames on the wire side (single generator
// goroutine). Returns how many were accepted; the rest remain owned by the
// caller.
func (n *NIC) InjectFromWire(bufs []*mempool.Buf) int {
	return n.rxQ.Enqueue(bufs)
}

// DrainToWire removes frames the switch transmitted (single sink goroutine).
func (n *NIC) DrainToWire(out []*mempool.Buf) int {
	return n.txQ.Dequeue(out)
}

// QueueBacklog reports the frames parked in the NIC's descriptor rings,
// both directions — an emptiness probe for drains that must not tear the
// device down while it still holds packets.
func (n *NIC) QueueBacklog() int { return n.rxQ.Len() + n.txQ.Len() }

// DrainFromWire removes frames still parked on the wire-ingress queue
// without pacing or counting — a teardown helper, only valid once the
// switch-side consumer has detached.
func (n *NIC) DrainFromWire(out []*mempool.Buf) int {
	return n.rxQ.Dequeue(out)
}

// Reclaim frees every frame still parked in either descriptor ring — the
// last step of tearing a NIC down, only valid once the wire side (pump,
// generator, sink) has stopped and the switch has detached the port and
// quiesced: both rings are single-consumer.
func (n *NIC) Reclaim() {
	var scratch [32]*mempool.Buf
	for _, q := range []*ring.SPSC[*mempool.Buf]{n.txQ, n.rxQ} {
		for k := q.Dequeue(scratch[:]); k > 0; k = q.Dequeue(scratch[:]) {
			mempool.FreeBatch(scratch[:k])
		}
	}
}

// tokenBucket is a packet-granular rate limiter. rate 0 disables limiting.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func (t *tokenBucket) init(rate float64) {
	t.rate = rate
	t.burst = rate / 1000 // 1ms worth of line rate
	if t.burst < 64 {
		t.burst = 64
	}
	t.tokens = t.burst
	t.last = time.Now()
}

// take grants up to want tokens, returning how many were granted.
func (t *tokenBucket) take(want int) int {
	if t.rate == 0 {
		return want
	}
	t.mu.Lock()
	defer t.mu.Unlock()
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

// refund returns unused tokens (taken but not consumed by the queue).
func (t *tokenBucket) refund(n int) {
	if t.rate == 0 || n <= 0 {
		return
	}
	t.mu.Lock()
	t.tokens += float64(n)
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	t.mu.Unlock()
}
