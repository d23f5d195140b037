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

// TestPerBatchEMCCountersLoseNothing: the EMC and SMC probes touch no counter
// and processBatch lands a burst's hits and misses with one add each, so every
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
	// The SMC's counters land once per burst too: it is probed exactly on
	// the EMC's misses, and each of its own misses is answered by the
	// within-burst dedup or by exactly one classifier walk.
	if got := st.SMC.Hits + st.SMC.Misses; got != st.EMC.Misses {
		t.Fatalf("SMC hits %d + misses %d = %d, want one per EMC miss = %d", st.SMC.Hits, st.SMC.Misses, got, st.EMC.Misses)
	}
	if got := st.DedupHits + st.ClassifierHits + st.ClassifierMisses; got != st.SMC.Misses {
		t.Fatalf("SMC misses %d, resolved by dedup %d + classifier walks %d+%d = %d",
			st.SMC.Misses, st.DedupHits, st.ClassifierHits, st.ClassifierMisses, got)
	}
}

// TestBurstOfOneUnmatchedKeyWalksOnce: 32 identical frames no rule matches
// are one classifier walk — a memoized table miss dedups like a hit — and 31
// answers from the burst's own miss list.
func TestBurstOfOneUnmatchedKeyWalksOnce(t *testing.T) {
	env := newSyncEnv(t, Config{}, 2)
	env.sw.Table().Add(10, flow.MatchInPort(2), flow.Actions{flow.Output(1)}, 0) // nothing matches port 1
	for i := 0; i < 32; i++ {
		env.sendUDP(t, 1, defaultSpec)
	}
	if n := env.sw.PollOnce(); n != 32 {
		t.Fatalf("PollOnce handled %d frames, want 32", n)
	}
	st := env.sw.DatapathStats()
	if m, d, tm := env.sw.Misses.Load(), env.sw.DedupHits.Load(), env.sw.TableMisses.Load(); m != 1 || d != 31 || tm != 1 {
		t.Fatalf("Misses = %d, DedupHits = %d, TableMisses = %d; want 1, 31, 1", m, d, tm)
	}
	if st.EMC.Misses != 32 || st.SMC.Misses != 32 || st.EMC.Hits+st.SMC.Hits != 0 {
		t.Fatalf("caches: EMC %+v, SMC %+v; want 32 misses each and no hit", st.EMC, st.SMC)
	}
	if env.drain(2) != 0 {
		t.Fatal("an unmatched frame was forwarded")
	}
	if n := env.sw.PollOnce(); n != 0 { // an idle iteration flushes the thread's buffer cache
		t.Fatalf("empty poll handled %d frames", n)
	}
	if env.pool.Avail() != env.pool.Cap() {
		t.Fatalf("dropped frames leaked: %d of %d buffers free", env.pool.Avail(), env.pool.Cap())
	}
}

// TestEarlierMissComparesTheKeyBehindTheHash: the dedup scan reads the
// 64-bit hash first, but two different keys stored under one hash are still
// two keys — only the same key under the same hash is an earlier miss.
func TestEarlierMissComparesTheKeyBehindTheHash(t *testing.T) {
	ka := flow.Key{InPort: 1, EthType: 0x0800, IPProto: 17, L4Src: 1000, L4Dst: 2000}
	kb := ka
	kb.L4Src = 1001
	const forced = 0x1234_5678_9abc_def0
	p := &pmdThread{metas: make([]pktMeta, 4)}
	p.metas[0].kp, p.metas[0].hash = ka.Pack(), forced
	p.missIdx, p.missHash = []int32{0}, []uint64{forced}

	p.metas[1].kp, p.metas[1].hash = kb.Pack(), forced // another key, the same stored hash
	if j := p.earlierMiss(&p.metas[1]); j != -1 {
		t.Fatalf("a different key under a colliding hash was merged with miss %d", j)
	}
	p.missIdx, p.missHash = append(p.missIdx, 1), append(p.missHash, forced)

	p.metas[2].kp, p.metas[2].hash = kb.Pack(), forced // that key again: the second miss, not the first
	if j := p.earlierMiss(&p.metas[2]); j != 1 {
		t.Fatalf("repeat of the second colliding key resolved to miss %d, want 1", j)
	}
	p.metas[3].kp, p.metas[3].hash = ka.Pack(), forced+1 // the first key under another hash: not a repeat
	if j := p.earlierMiss(&p.metas[3]); j != -1 {
		t.Fatalf("an equal key under a different hash was merged with miss %d: the hash is compared first", j)
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
