package dpdkr

import (
	"testing"

	"ovshighway/internal/flow"
	"ovshighway/internal/flow/flowtest"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

func buildFlowFrame(t *testing.T, srcPort uint16) []byte {
	t.Helper()
	raw := make([]byte, 128)
	n, err := pkt.BuildUDP(raw, pkt.UDPSpec{
		SrcMAC: pkt.MAC{0x02, 0, 0, 0, 0, 0x01},
		DstMAC: pkt.MAC{0x02, 0, 0, 0, 0, 0x02},
		SrcIP:  pkt.IP4{10, 0, 0, 1}, DstIP: pkt.IP4{10, 0, 0, 2},
		SrcPort: srcPort, DstPort: 2000,
		FrameLen: pkt.MinFrame,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw[:n]
}

// TestGuestTxRSSFanOut sends 64 distinct flows through a 4-queue port and
// checks the guest-side RSS split: every frame lands on the queue its EMC
// hash selects, more than one queue receives traffic, and repeated frames of
// one flow always pick the same queue (per-flow ordering depends on this).
// It holds under every pinned hash seed.
func TestGuestTxRSSFanOut(t *testing.T) {
	flowtest.ForEachSeed(t, testGuestTxRSSFanOut)
}

func testGuestTxRSSFanOut(t *testing.T) {
	const queues = 4
	pool := mempool.MustNew(mempool.Config{Capacity: 256, BufSize: 256, Headroom: 32})
	port, pmd, err := NewPortMQ(1, "dpdkr1", 64, queues)
	if err != nil {
		t.Fatal(err)
	}
	if got := port.NumRxQueues(); got != queues {
		t.Fatalf("NumRxQueues = %d, want %d", got, queues)
	}

	expect := make(map[*mempool.Buf]int)
	perQueue := make([]int, queues)
	for fl := 0; fl < 64; fl++ {
		frame := buildFlowFrame(t, uint16(5000+fl))
		h, ok := flow.RSSHash(frame)
		if !ok {
			t.Fatalf("flow %d: frame did not parse", fl)
		}
		q := int(h % queues)
		perQueue[q]++
		b, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SetBytes(frame); err != nil {
			t.Fatal(err)
		}
		expect[b] = q
		if n := pmd.Tx([]*mempool.Buf{b}); n != 1 {
			t.Fatalf("flow %d: Tx = %d", fl, n)
		}
	}

	populated := 0
	for q := 0; q < queues; q++ {
		out := make([]*mempool.Buf, 64)
		n := port.RecvQueue(q, out)
		if n != perQueue[q] {
			t.Fatalf("queue %d: received %d frames, RSS predicted %d", q, n, perQueue[q])
		}
		if n > 0 {
			populated++
		}
		for _, b := range out[:n] {
			if want, ok := expect[b]; !ok || want != q {
				t.Fatalf("queue %d: frame expected on queue %d", q, want)
			}
			b.Free()
		}
	}
	// 64 flows over 4 queues: a hash that funnels everything into one queue
	// is broken no matter how unlucky the draw.
	if populated < 2 {
		t.Fatalf("RSS populated only %d of %d queues", populated, queues)
	}

	// Per-flow stability: the same flow re-sent lands on the same queue.
	frame := buildFlowFrame(t, 5007)
	h, _ := flow.RSSHash(frame)
	want := int(h % queues)
	for i := 0; i < 3; i++ {
		b, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SetBytes(frame); err != nil {
			t.Fatal(err)
		}
		if n := pmd.Tx([]*mempool.Buf{b}); n != 1 {
			t.Fatalf("resend %d: Tx = %d", i, n)
		}
		out := make([]*mempool.Buf, 4)
		if n := port.RecvQueue(want, out); n != 1 {
			t.Fatalf("resend %d: flow hopped off queue %d", i, want)
		}
		out[0].Free()
	}
}

// TestGuestTxRSSPrefixOnFullQueue fills one RSS queue and checks the Tx
// prefix contract: the send stops at the first frame whose queue is full,
// the shortfall is counted as TxNormalDrops, and the caller keeps ownership
// of the unsent tail.
func TestGuestTxRSSPrefixOnFullQueue(t *testing.T) {
	const queues = 2
	pool := mempool.MustNew(mempool.Config{Capacity: 64, BufSize: 256, Headroom: 32})
	_, pmd, err := NewPortMQ(1, "dpdkr1", 4, queues)
	if err != nil {
		t.Fatal(err)
	}
	// Find a flow that hashes to queue 0 and saturate that ring.
	var frame []byte
	for fp := uint16(5000); ; fp++ {
		f := buildFlowFrame(t, fp)
		if h, ok := flow.RSSHash(f); ok && h%queues == 0 {
			frame = f
			break
		}
	}
	bufs := make([]*mempool.Buf, 6)
	for i := range bufs {
		b, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SetBytes(frame); err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	n := pmd.Tx(bufs)
	if n != 4 {
		t.Fatalf("Tx = %d, want 4 (ring size)", n)
	}
	if got := pmd.TxNormalDrops.Load(); got != 2 {
		t.Fatalf("TxNormalDrops = %d, want 2", got)
	}
	for _, b := range bufs[n:] {
		b.Free()
	}
}
