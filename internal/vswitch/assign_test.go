package vswitch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

// TestAssignmentRoundRobinEvenPortIDs pins the residue-clustering fix: under
// the old id%NumPMDs ownership rule, NumPMDs=2 with all-even port ids
// (common when deployments allocate ids in strides) homed EVERY port on
// PMD 0 while PMD 1 spun forever. The explicit assignment table must spread
// the queues regardless of id values.
func TestAssignmentRoundRobinEvenPortIDs(t *testing.T) {
	sw := New(Config{NumPMDs: 2})
	for _, id := range []uint32{2, 4, 6, 8} {
		port, _, err := dpdkr.NewPort(id, "dpdkr", 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.AddPort(port); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Start(); err != nil {
		t.Fatal(err)
	}
	defer sw.Stop()

	counts := make(map[int]int)
	for _, q := range sw.QueueLoads() {
		if q.PMD < 0 || q.PMD >= 2 {
			t.Fatalf("port %d queue %d homed on PMD %d", q.Port, q.Queue, q.PMD)
		}
		counts[q.PMD]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("all-even port ids split %d/%d across 2 PMDs, want 2/2 (old id%%N rule = 4/0)",
			counts[0], counts[1])
	}
	// Each port must be owned by exactly one PMD.
	for _, id := range []uint32{2, 4, 6, 8} {
		owners := 0
		for _, p := range sw.pmdList() {
			if p.owns(id) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("port %d owned by %d PMDs, want 1", id, owners)
		}
	}
}

// seqFrame layout used by the move tests: a UDP frame whose source port is
// the flow id and whose first four payload bytes are a per-flow sequence
// number.
const (
	seqSrcPortOff = pkt.EthernetLen + pkt.IPv4MinLen // UDP source port
	seqCsumOff    = seqSrcPortOff + 6                // UDP checksum (zeroed)
	seqPayloadOff = seqSrcPortOff + 8                // payload = sequence number
)

func buildSeqTemplate(t testing.TB) []byte {
	t.Helper()
	raw := make([]byte, 256)
	spec := pkt.UDPSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.IP4{10, 0, 0, 1}, DstIP: pkt.IP4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: pkt.MinFrame,
	}
	n, err := pkt.BuildUDP(raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	raw[seqCsumOff] = 0 // "no checksum": src port and payload are rewritten per frame
	raw[seqCsumOff+1] = 0
	return raw[:n]
}

// TestMoveQueueOrderingUnderTraffic re-homes queues repeatedly under live
// traffic and asserts the two re-home guarantees: no frame is lost and every
// flow's sequence numbers arrive strictly in order at the single consumer.
// Drops are impossible by construction (the pool is smaller than every ring,
// so no enqueue can ever overflow), which makes the check exact: each flow
// must deliver seq 0,1,2,... with no gap.
func TestMoveQueueOrderingUnderTraffic(t *testing.T) {
	const (
		numQueues = 4
		numFlows  = 8
		numMoves  = 24
	)
	sw := New(Config{NumPMDs: 2})
	// Pool (256) < ring capacity (1024): the datapath can park every buffer
	// in existence without filling any ring.
	pool := mempool.MustNew(mempool.Config{Capacity: 256, BufSize: 2048})
	portGen, pmdGen, err := dpdkr.NewPortMQ(1, "gen", 1024, numQueues)
	if err != nil {
		t.Fatal(err)
	}
	portSink, pmdSink, err := dpdkr.NewPort(2, "sink", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AddPort(portGen); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddPort(portSink); err != nil {
		t.Fatal(err)
	}
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	if err := sw.Start(); err != nil {
		t.Fatal(err)
	}
	defer sw.Stop()

	template := buildSeqTemplate(t)
	var (
		stopGen   atomic.Bool
		stopSink  atomic.Bool
		wg        sync.WaitGroup
		genDone   = make(chan struct{})
		generated atomic.Uint64
	)
	// Generator: round-robin the flows, stamping each frame with its flow's
	// next sequence number. The guest PMD's RSS hash fans the flows over the
	// queues.
	go func() {
		defer close(genDone)
		seqs := make([]uint32, numFlows)
		bufs := make([]*mempool.Buf, 16)
		one := make([]*mempool.Buf, 1)
		fl := 0
		for !stopGen.Load() {
			got := pool.GetBatch(bufs)
			if got == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < got; i++ {
				b := bufs[i]
				b.SetBytes(template)
				fb := b.Bytes()
				fp := uint16(5000 + fl)
				fb[seqSrcPortOff] = byte(fp >> 8)
				fb[seqSrcPortOff+1] = byte(fp)
				seq := seqs[fl]
				seqs[fl]++
				fb[seqPayloadOff] = byte(seq >> 24)
				fb[seqPayloadOff+1] = byte(seq >> 16)
				fb[seqPayloadOff+2] = byte(seq >> 8)
				fb[seqPayloadOff+3] = byte(seq)
				fl = (fl + 1) % numFlows
				one[0] = b
				for pmdGen.Tx(one) == 0 { // cannot fail (pool < ring) but be safe
					runtime.Gosched()
				}
				generated.Add(1)
			}
		}
	}()

	// Single consumer: assert per-flow strict seq order with no gaps.
	var (
		delivered atomic.Uint64
		orderErr  atomic.Pointer[string]
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := make([]uint32, numFlows)
		out := make([]*mempool.Buf, 32)
		for {
			n := pmdSink.Rx(out)
			if n == 0 {
				// Only exit once the drain is complete: a transient empty
				// ring while frames are still crossing the datapath must not
				// end consumption (the conservation check would then count
				// in-flight frames as lost).
				if stopSink.Load() {
					return
				}
				runtime.Gosched()
				continue
			}
			for _, b := range out[:n] {
				fb := b.Bytes()
				fp := int(fb[seqSrcPortOff])<<8 | int(fb[seqSrcPortOff+1])
				fl := fp - 5000
				seq := uint32(fb[seqPayloadOff])<<24 | uint32(fb[seqPayloadOff+1])<<16 |
					uint32(fb[seqPayloadOff+2])<<8 | uint32(fb[seqPayloadOff+3])
				if fl < 0 || fl >= numFlows {
					msg := "frame with unknown flow id"
					orderErr.CompareAndSwap(nil, &msg)
				} else if seq != next[fl] {
					msg := "flow " + itoa(fl) + ": got seq " + itoa(int(seq)) + ", want " + itoa(int(next[fl]))
					orderErr.CompareAndSwap(nil, &msg)
				} else {
					next[fl]++
				}
				b.Free()
			}
			delivered.Add(uint64(n))
		}
	}()

	// Mover: bounce queues between the two PMDs while traffic flows.
	for i := 0; i < numMoves; i++ {
		q := i % numQueues
		dst := (i / numQueues) % 2
		if err := sw.MoveQueue(1, q, dst); err != nil {
			t.Fatalf("move %d (queue %d → pmd %d): %v", i, q, dst, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sw.QueueMoves.Load(); got == 0 {
		t.Fatal("no queue moves recorded")
	}

	// Shut the generator down, then drain: every generated frame must reach
	// the consumer (conservation — the move handoff lost nothing).
	stopGen.Store(true)
	<-genDone // it finishes the burst in its hands first; generated is final after this
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < generated.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stopSink.Store(true)
	wg.Wait()
	if d, g := delivered.Load(), generated.Load(); d != g {
		t.Fatalf("delivered %d of %d generated frames (re-home lost %d)", d, g, g-d)
	}
	if msg := orderErr.Load(); msg != nil {
		t.Fatalf("per-flow ordering violated: %s", *msg)
	}
}

// TestMoveQueueCacheStaleness proves a moved queue cannot be served a stale
// cached action: flow F warms PMD 0's EMC with rule→output:2, the queue
// moves to PMD 1 (also warmed), the rule is modified to output:3, and the
// queue moves BACK to PMD 0 — whose EMC still physically holds the old
// entry. Generation validation must reject it: every post-modify frame of F
// must arrive on port 3 and none on port 2.
func TestMoveQueueCacheStaleness(t *testing.T) {
	sw := New(Config{NumPMDs: 2})
	pool := mempool.MustNew(mempool.Config{Capacity: 256, BufSize: 2048})
	portGen, pmdGen, err := dpdkr.NewPortMQ(1, "gen", 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AddPort(portGen); err != nil {
		t.Fatal(err)
	}
	sinks := make(map[uint32]*dpdkr.PMD, 2)
	for _, id := range []uint32{2, 3} {
		port, pmd, err := dpdkr.NewPort(id, "sink", 1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.AddPort(port); err != nil {
			t.Fatal(err)
		}
		sinks[id] = pmd
	}
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	if err := sw.Start(); err != nil {
		t.Fatal(err)
	}
	defer sw.Stop()

	template := buildSeqTemplate(t)
	send := func(n int) {
		one := make([]*mempool.Buf, 1)
		for i := 0; i < n; i++ {
			b, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			b.SetBytes(template)
			one[0] = b
			if pmdGen.Tx(one) != 1 {
				t.Fatal("guest tx failed")
			}
		}
	}
	recvAll := func(id uint32, want int, d time.Duration) int {
		out := make([]*mempool.Buf, 32)
		got := 0
		deadline := time.Now().Add(d)
		for got < want && time.Now().Before(deadline) {
			n := sinks[id].Rx(out)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			mempool.FreeBatch(out[:n])
			got += n
		}
		return got
	}
	// The template flow rides one specific RSS queue; find it so the moves
	// target the queue the flow actually uses.
	h, ok := flow.RSSHash(template)
	if !ok {
		t.Fatal("template frame did not parse")
	}
	q := int(h % 2)

	// Warm PMD 0, then PMD 1, with the original action.
	if err := sw.MoveQueue(1, q, 0); err != nil {
		t.Fatal(err)
	}
	send(8)
	if got := recvAll(2, 8, 2*time.Second); got != 8 {
		t.Fatalf("warm-up on pmd 0: delivered %d/8", got)
	}
	if err := sw.MoveQueue(1, q, 1); err != nil {
		t.Fatal(err)
	}
	send(8)
	if got := recvAll(2, 8, 2*time.Second); got != 8 {
		t.Fatalf("warm-up on pmd 1: delivered %d/8", got)
	}

	// Modify the rule (same priority+match = replace) and move the queue
	// back onto the PMD whose cache was warmed with the OLD action.
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(3)}, 0)
	if err := sw.MoveQueue(1, q, 0); err != nil {
		t.Fatal(err)
	}
	send(16)
	if got := recvAll(3, 16, 2*time.Second); got != 16 {
		t.Fatalf("post-modify: port 3 delivered %d/16", got)
	}
	if got := recvAll(2, 1, 100*time.Millisecond); got != 0 {
		t.Fatalf("stale EMC entry served: %d frame(s) still reached port 2 after modify", got)
	}
}

// itoa is a minimal int formatter so the hot consumer goroutine can build an
// error message without importing fmt into the datapath loop.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
