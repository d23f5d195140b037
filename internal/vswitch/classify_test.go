package vswitch

import (
	"testing"

	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
)

// drain frees whatever the switch delivered to port id.
func (e *testEnv) drain(id uint32) (n int) {
	out := make([]*mempool.Buf, 64)
	for {
		k := e.pmds[id].Rx(out)
		if k == 0 {
			return n
		}
		for _, b := range out[:k] {
			b.Free()
		}
		n += k
	}
}

// TestPerBatchEMCCountersLoseNothing: the EMC probe touches no counter and
// processBatch lands a burst's hits and misses with one add each, so every
// parsed frame must still show up in exactly one of the two — over bursts
// that mix keys already cached, keys never seen, repeats of a missed key
// inside one burst, and frames the parser rejects.
func TestPerBatchEMCCountersLoseNothing(t *testing.T) {
	env := newSyncEnv(t, Config{}, 2)
	env.sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)

	var sent, malformed, polled int
	spec := defaultSpec
	for round := 0; round < 40; round++ {
		for i := 0; i < 24; i++ {
			switch {
			case i%8 == 7:
				env.sendRaw(t, 1, []byte{0xde, 0xad, 0xbe, 0xef}) // too short for Ethernet
				malformed++
			case i%3 == 0:
				spec.SrcPort = uint16(1000 + i) // cached from round 1 on
				env.sendUDP(t, 1, spec)
			default:
				spec.SrcPort = uint16(20000 + round*8 + i/4) // new each round, repeated within the burst
				env.sendUDP(t, 1, spec)
			}
			sent++
		}
		polled += env.sw.PollOnce()
		env.drain(2)
	}
	if polled != sent {
		t.Fatalf("PollOnce handled %d frames of %d sent", polled, sent)
	}
	st := env.sw.DatapathStats()
	if st.ParseErrors != uint64(malformed) {
		t.Fatalf("ParseErrors = %d, want %d", st.ParseErrors, malformed)
	}
	if got, want := st.EMC.Hits+st.EMC.Misses, uint64(sent-malformed); got != want {
		t.Fatalf("EMC hits %d + misses %d = %d, want one per parsed frame = %d",
			st.EMC.Hits, st.EMC.Misses, got, want)
	}
	if st.EMC.Hits == 0 || st.EMC.Misses == 0 {
		t.Fatalf("EMC hits %d, misses %d: the mix must exercise both", st.EMC.Hits, st.EMC.Misses)
	}
	// Every EMC miss is answered by exactly one later tier.
	if got := st.SMC.Hits + st.DedupHits + st.ClassifierHits + st.ClassifierMisses; got != st.EMC.Misses {
		t.Fatalf("EMC misses %d, resolved further down %d (smc %d, dedup %d, classifier %d+%d)",
			st.EMC.Misses, got, st.SMC.Hits, st.DedupHits, st.ClassifierHits, st.ClassifierMisses)
	}
}

// TestBusyClockAccounting: the loop reads its clock once per iteration and
// once after each non-empty burst, and every busy interval is the gap
// between two consecutive stamps. So a PMD's busy time is exactly the sum of
// its queues', never exceeds the total the same stamps add up to, and does
// not move across iterations that found nothing to do.
func TestBusyClockAccounting(t *testing.T) {
	env := newSyncEnv(t, Config{}, 2)
	env.sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	env.sw.Table().Add(10, flow.MatchInPort(2), flow.Actions{flow.Output(1)}, 0)

	load := func() (pmd PMDLoad, queueBusy uint64) {
		st := env.sw.DatapathStats()
		if len(st.PMDs) != 1 {
			t.Fatalf("%d PMD load samples, want the one PollOnce thread", len(st.PMDs))
		}
		for _, q := range st.Queues {
			queueBusy += q.BusyNanos
		}
		return st.PMDs[0], queueBusy
	}
	emptyPolls := func() {
		for i := 0; i < 50; i++ {
			if n := env.sw.PollOnce(); n != 0 {
				t.Fatalf("empty poll handled %d frames", n)
			}
		}
	}

	emptyPolls()
	idle, idleQ := load()
	if idle.BusyNanos != 0 || idleQ != 0 {
		t.Fatalf("busy %d ns (queues %d ns) after empty polls only", idle.BusyNanos, idleQ)
	}
	if idle.TotalNanos == 0 {
		t.Fatal("total time did not advance across 50 iterations")
	}

	for round := 0; round < 20; round++ {
		for i := 0; i < 16; i++ {
			env.sendUDP(t, 1, defaultSpec)
			env.sendUDP(t, 2, defaultSpec)
		}
		if n := env.sw.PollOnce(); n != 32 {
			t.Fatalf("round %d handled %d frames, want 32", round, n)
		}
		env.drain(1)
		env.drain(2)
	}
	busy, busyQ := load()
	if busy.BusyNanos == 0 {
		t.Fatal("no busy time after 40 bursts")
	}
	if busyQ != busy.BusyNanos {
		t.Fatalf("queues' busy time sums to %d ns, the PMD's is %d ns", busyQ, busy.BusyNanos)
	}
	if busy.BusyNanos > busy.TotalNanos {
		t.Fatalf("busy %d ns > total %d ns", busy.BusyNanos, busy.TotalNanos)
	}

	emptyPolls()
	after, afterQ := load()
	if after.BusyNanos != busy.BusyNanos || afterQ != busyQ {
		t.Fatalf("busy moved %d → %d ns (queues %d → %d) across empty polls",
			busy.BusyNanos, after.BusyNanos, busyQ, afterQ)
	}
	if after.TotalNanos <= busy.TotalNanos {
		t.Fatalf("total %d → %d ns across 50 empty iterations", busy.TotalNanos, after.TotalNanos)
	}
}
