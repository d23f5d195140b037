package nic

import (
	"sync/atomic"
	"time"

	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

// Generator feeds synthesized frames into a NIC's wire side as fast as the
// NIC accepts them — the external traffic generator of the paper's Figure
// 3(b) setup.
type Generator struct {
	nic  *NIC
	pool *mempool.Pool

	Sent atomic.Uint64

	stop atomic.Bool
	done chan struct{}
}

// NewGenerator starts a generator producing spec-shaped frames cycling over
// `flows` UDP source ports.
func NewGenerator(n *NIC, pool *mempool.Pool, spec pkt.UDPSpec, flows int) (*Generator, error) {
	if flows < 1 {
		flows = 1
	}
	if spec.FrameLen == 0 {
		spec.FrameLen = pkt.MinFrame
	}
	templates := make([][]byte, flows)
	for i := range templates {
		sp := spec
		sp.SrcPort = spec.SrcPort + uint16(i)
		buf := make([]byte, 2048)
		ln, err := pkt.BuildUDP(buf, sp)
		if err != nil {
			return nil, err
		}
		templates[i] = buf[:ln]
	}
	g := &Generator{nic: n, pool: pool, done: make(chan struct{})}
	go func() {
		defer close(g.done)
		batch := make([]*mempool.Buf, 32)
		next := 0
		for !g.stop.Load() {
			k := pool.GetBatch(batch)
			if k == 0 {
				time.Sleep(10 * time.Microsecond)
				continue
			}
			for i := 0; i < k; i++ {
				batch[i].SetBytes(templates[next])
				next++
				if next == len(templates) {
					next = 0
				}
			}
			sent := n.InjectFromWire(batch[:k])
			if sent < k {
				mempool.FreeBatch(batch[sent:k])
			}
			g.Sent.Add(uint64(sent))
			if sent == 0 {
				time.Sleep(time.Microsecond)
			}
		}
	}()
	return g, nil
}

// Stop halts the generator.
func (g *Generator) Stop() {
	if g.stop.CompareAndSwap(false, true) {
		<-g.done
	}
}

// WireSink drains a NIC's transmit side, counting and freeing frames — the
// measurement endpoint of the NIC experiments.
type WireSink struct {
	nic *NIC

	Received atomic.Uint64
	Bytes    atomic.Uint64
	start    atomic.Int64 // UnixNano of window start

	stop atomic.Bool
	done chan struct{}
}

// NewWireSink starts a sink on the NIC's wire TX side.
func NewWireSink(n *NIC) *WireSink {
	s := &WireSink{nic: n, done: make(chan struct{})}
	s.start.Store(time.Now().UnixNano())
	go func() {
		defer close(s.done)
		batch := make([]*mempool.Buf, 32)
		var cache mempool.Cache
		defer cache.Flush()
		for !s.stop.Load() {
			k := n.DrainToWire(batch)
			if k == 0 {
				cache.Flush()
				time.Sleep(time.Microsecond)
				continue
			}
			var bytes uint64
			for i := 0; i < k; i++ {
				bytes += uint64(batch[i].Len)
			}
			cache.FreeBatch(batch[:k])
			s.Received.Add(uint64(k))
			s.Bytes.Add(bytes)
		}
	}()
	return s
}

// Stop halts the sink.
func (s *WireSink) Stop() {
	if s.stop.CompareAndSwap(false, true) {
		<-s.done
	}
}

// ResetWindow zeroes counters and restarts the rate clock.
func (s *WireSink) ResetWindow() {
	s.Received.Store(0)
	s.Bytes.Store(0)
	s.start.Store(time.Now().UnixNano())
}

// RatePps returns packets per second since the window start.
func (s *WireSink) RatePps() float64 {
	el := time.Since(time.Unix(0, s.start.Load())).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(s.Received.Load()) / el
}
