package nic

import (
	"testing"
	"time"

	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

func pool(t testing.TB, n int) *mempool.Pool {
	t.Helper()
	return mempool.MustNew(mempool.Config{Capacity: n, BufSize: 2048, Headroom: 128})
}

func TestWireRoundTrip(t *testing.T) {
	pl := pool(t, 64)
	n, err := New(Config{ID: 1, Name: "eth0", RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := pl.Get()
	b.SetBytes([]byte{1, 2, 3})

	// wire → switch
	if got := n.InjectFromWire([]*mempool.Buf{b}); got != 1 {
		t.Fatal("inject failed")
	}
	out := make([]*mempool.Buf, 4)
	if got := n.Recv(out); got != 1 || out[0] != b {
		t.Fatalf("Recv = %d", got)
	}
	if n.PortCounters().RxPackets.Load() != 1 {
		t.Fatal("rx counter not updated")
	}

	// switch → wire
	if got := n.Send([]*mempool.Buf{b}); got != 1 {
		t.Fatal("send failed")
	}
	if got := n.DrainToWire(out); got != 1 {
		t.Fatal("drain failed")
	}
	if n.PortCounters().TxPackets.Load() != 1 {
		t.Fatal("tx counter not updated")
	}
	b.Free()
}

func TestSendDropsWhenQueueFull(t *testing.T) {
	pl := pool(t, 16)
	n, _ := New(Config{ID: 1, Name: "eth0", RatePps: -1, QueueSize: 4})
	bufs := make([]*mempool.Buf, 6)
	for i := range bufs {
		bufs[i], _ = pl.Get()
		bufs[i].SetBytes([]byte{9})
	}
	if got := n.Send(bufs); got != 4 {
		t.Fatalf("Send = %d, want 4", got)
	}
	if n.PortCounters().TxDropped.Load() != 2 {
		t.Fatal("drops not counted")
	}
	if pl.Avail() != 16-4 {
		t.Fatalf("dropped frames not freed: avail %d", pl.Avail())
	}
}

func TestRateLimitEnforced(t *testing.T) {
	const rate = 100_000 // pps
	pl := pool(t, 2048)
	n, _ := New(Config{ID: 1, Name: "eth0", RatePps: rate, QueueSize: 2048})

	// Preload the wire side.
	for i := 0; i < 2000; i++ {
		b, err := pl.Get()
		if err != nil {
			break
		}
		b.SetBytes([]byte{1})
		if n.InjectFromWire([]*mempool.Buf{b}) == 0 {
			b.Free()
			break
		}
	}

	// Pull as fast as possible for 50ms, recycling frames back onto the
	// wire so the queue never runs dry: the bucket must cap throughput near
	// rate*0.05 = 5000 packets (plus one burst allowance).
	out := make([]*mempool.Buf, 32)
	got := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		k := n.Recv(out)
		if k > 0 {
			for sent := 0; sent < k; {
				sent += n.InjectFromWire(out[sent:k])
			}
		}
		got += k
	}
	want := int(rate * 0.05)
	burst := 64 + int(rate/1000)
	if got > want+burst*2 {
		t.Fatalf("rate limit leaked: got %d in 50ms, want <= ~%d", got, want+burst)
	}
	if got < want/2 {
		t.Fatalf("rate limiter too aggressive: got %d, want around %d", got, want)
	}
}

func TestUnlimitedRate(t *testing.T) {
	n, _ := New(Config{ID: 1, Name: "eth0", RatePps: -1})
	if got := n.Recv(make([]*mempool.Buf, 8)); got != 0 {
		t.Fatal("recv from empty wire")
	}
	// take() must grant everything when unlimited.
	if got := n.rxBucket.take(1000000); got != 1000000 {
		t.Fatalf("unlimited take = %d", got)
	}
}

func TestGeneratorAndWireSink(t *testing.T) {
	pl := pool(t, 512)
	n, _ := New(Config{ID: 1, Name: "eth0", RatePps: -1, QueueSize: 256})

	spec := pkt.UDPSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.IP4{10, 0, 0, 1}, DstIP: pkt.IP4{10, 0, 0, 2},
		SrcPort: 1, DstPort: 2,
	}
	gen, err := NewGenerator(n, pl, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Stop()

	// Loop wire-rx back to wire-tx through the "switch" by hand, and verify
	// the sink counts them.
	sink := NewWireSink(n)
	defer sink.Stop()

	batch := make([]*mempool.Buf, 32)
	deadline := time.Now().Add(2 * time.Second)
	for sink.Received.Load() < 5000 && time.Now().Before(deadline) {
		k := n.Recv(batch)
		if k > 0 {
			n.Send(batch[:k])
		}
	}
	if sink.Received.Load() < 5000 {
		t.Fatalf("sink received %d", sink.Received.Load())
	}
	if gen.Sent.Load() == 0 {
		t.Fatal("generator sent nothing")
	}
	if sink.RatePps() <= 0 {
		t.Fatal("sink rate not positive")
	}
	// Quiesce both ends before checking the reset: a running sink would
	// count frames still queued on the wire right after the counters zero.
	gen.Stop()
	sink.Stop()
	sink.ResetWindow()
	if sink.Received.Load() != 0 {
		t.Fatal("window reset failed")
	}
}

func TestLineRateConstant(t *testing.T) {
	// 10GbE 64B line rate: 10e9 / ((64+20)*8) = 14,880,952.
	if LineRate64B != 14_880_952 {
		t.Fatalf("LineRate64B = %d", LineRate64B)
	}
}
