package mempool

import (
	"math/rand"
	"sync"
	"testing"
)

// checkQuiescent asserts what every leak and ledger test in the tree relies
// on once a pool's users are idle: the whole population is back on the ring
// and the counters balance.
func checkQuiescent(t *testing.T, p *Pool) {
	t.Helper()
	if p.Avail() != p.Cap() {
		t.Fatalf("avail = %d, want the whole population %d", p.Avail(), p.Cap())
	}
	st := p.Stats()
	if held := int(st.Allocs - st.Frees); held != p.Cap()-p.Avail() {
		t.Fatalf("allocs %d - frees %d = %d, want cap - avail = %d", st.Allocs, st.Frees, held, p.Cap()-p.Avail())
	}
}

func TestCacheGetFreeCycle(t *testing.T) {
	p := MustNew(Config{Capacity: 256, BufSize: 128, Headroom: 16})
	c := p.NewCache()
	out := make([]*Buf, 32)
	if n := c.GetBatch(out); n != 32 {
		t.Fatalf("GetBatch = %d, want 32", n)
	}
	seen := map[*Buf]bool{}
	for _, b := range out {
		if seen[b] {
			t.Fatal("duplicate buffer from GetBatch")
		}
		seen[b] = true
		if b.Refcnt() != 1 || b.Off != 16 || b.Len != 0 {
			t.Fatalf("buffer not fresh: refcnt=%d off=%d len=%d", b.Refcnt(), b.Off, b.Len)
		}
		b.Len, b.TS = 60, 99
	}
	c.FreeBatch(out)
	if p.Avail() != 256-32 {
		t.Fatalf("avail = %d: a free into a cache with room must not touch the ring", p.Avail())
	}
	// The next allocation is served from the stash, and comes back reset.
	if n := c.GetBatch(out); n != 32 {
		t.Fatalf("GetBatch = %d, want 32", n)
	}
	for _, b := range out {
		if !seen[b] {
			t.Fatal("allocation after a free did not come from the stash")
		}
		if b.Refcnt() != 1 || b.Len != 0 || b.TS != 0 {
			t.Fatalf("stashed buffer not reset: refcnt=%d len=%d ts=%d", b.Refcnt(), b.Len, b.TS)
		}
	}
	if p.Avail() != 256-32 {
		t.Fatalf("avail = %d: a stash hit must not touch the ring", p.Avail())
	}
	c.FreeBatch(out)
	c.Flush()
	checkQuiescent(t, p)
}

// TestCacheRefillAndSpillOneBurst pins the stash's trade with the ring to one
// burst per ring operation in both directions.
func TestCacheRefillAndSpillOneBurst(t *testing.T) {
	p := MustNew(Config{Capacity: 512})
	c := p.NewCache()
	small := make([]*Buf, 5)
	if n := c.GetBatch(small); n != 5 {
		t.Fatalf("GetBatch = %d, want 5", n)
	}
	if got := p.Cap() - p.Avail(); got != cacheBurst {
		t.Fatalf("a small allocation on an empty stash took %d off the ring, want one burst (%d)", got, cacheBurst)
	}
	held := append([]*Buf(nil), small...)
	// Fill the stash to the brim, then one more burst: exactly one burst
	// spills.
	room := cacheSize - (cacheBurst - 5)
	big := make([]*Buf, room+cacheBurst)
	if n := p.GetBatch(big); n != len(big) {
		t.Fatalf("GetBatch = %d", n)
	}
	c.FreeBatch(big[:room])
	before := p.Avail()
	c.FreeBatch(big[room:])
	if got := p.Avail() - before; got != cacheBurst {
		t.Fatalf("overfilling the stash returned %d to the ring, want one burst (%d)", got, cacheBurst)
	}
	c.FreeBatch(held)
	c.Flush()
	checkQuiescent(t, p)
}

// TestCacheFailsCountCallerShortfalls: Fails counts requests that came up
// short for the caller. A refill that asks the ring for a whole burst on
// behalf of a caller that wanted fewer, and got them, is not one.
func TestCacheFailsCountCallerShortfalls(t *testing.T) {
	p := MustNew(Config{Capacity: 8})
	c := p.NewCache()
	out := make([]*Buf, 4)
	if n := c.GetBatch(out); n != 4 { // refill asks for 32, the ring has 8
		t.Fatalf("GetBatch = %d, want 4", n)
	}
	if f := p.Stats().Fails; f != 0 {
		t.Fatalf("fails = %d after a satisfied request, want 0", f)
	}
	more := make([]*Buf, 6)
	if n := c.GetBatch(more); n != 4 { // only 4 left anywhere
		t.Fatalf("GetBatch = %d, want 4", n)
	}
	if f := p.Stats().Fails; f != 1 {
		t.Fatalf("fails = %d after one short request, want 1", f)
	}
	if n := c.GetBatch(more[:1]); n != 0 {
		t.Fatalf("GetBatch on an exhausted pool = %d", n)
	}
	if _, err := p.Get(); err == nil {
		t.Fatal("Get on an exhausted pool succeeded")
	}
	if f := p.Stats().Fails; f != 3 {
		t.Fatalf("fails = %d, want 3", f)
	}
	c.FreeBatch(out)
	c.FreeBatch(more[:4])
	c.Flush()
	checkQuiescent(t, p)
}

// TestCloneFreedViaTwoCaches: a shared buffer dropped by two owners through
// their own caches goes back exactly once, into the cache of whoever dropped
// the last reference.
func TestCloneFreedViaTwoCaches(t *testing.T) {
	p := MustNew(Config{Capacity: 4})
	c1, c2 := p.NewCache(), p.NewCache()
	b, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	b.Clone()
	c1.FreeBatch([]*Buf{b})
	c1.Flush()
	if p.Avail() != 3 {
		t.Fatalf("avail = %d: buffer returned while a reference remains", p.Avail())
	}
	c2.FreeBatch([]*Buf{b})
	c1.Flush()
	if p.Avail() != 3 {
		t.Fatalf("avail = %d: the first cache must not hold the buffer", p.Avail())
	}
	c2.Flush()
	checkQuiescent(t, p)
	// And it is one buffer, not two: the whole population can be drawn and
	// holds no duplicate.
	all := make([]*Buf, 5)
	if n := p.GetBatch(all); n != 4 {
		t.Fatalf("GetBatch = %d, want 4", n)
	}
	seen := map[*Buf]bool{}
	for _, x := range all[:4] {
		if seen[x] {
			t.Fatal("buffer on the freelist twice")
		}
		seen[x] = true
	}
	FreeBatch(all[:4])
}

// TestCacheSendsForeignBuffersHome: a buffer of another pool freed into a
// cache lands on its own pool's freelist at once, never in the stash; one
// whose pool pointer does not match its storage still panics.
func TestCacheSendsForeignBuffersHome(t *testing.T) {
	a := MustNew(Config{Capacity: 4})
	b := MustNew(Config{Capacity: 4})
	cb := b.NewCache()
	own, _ := b.Get()
	foreign, _ := a.Get()
	cb.FreeBatch([]*Buf{foreign, own, nil})
	if a.Avail() != 4 {
		t.Fatalf("foreign buffer did not go home: pool a avail = %d", a.Avail())
	}
	if b.Avail() != 3 {
		t.Fatalf("pool b avail = %d, want its own buffer stashed", b.Avail())
	}
	cb.Flush()
	checkQuiescent(t, a)
	checkQuiescent(t, b)

	bad, _ := a.Get()
	bad.pool = b // buggy migration: pointer moved, storage did not
	defer func() {
		if recover() == nil {
			t.Fatal("caching an arena-foreign buffer must panic")
		}
	}()
	cb.FreeBatch([]*Buf{bad})
}

// TestZeroCacheBindsToFirstBuffer covers the free-only owner that is handed
// buffers and never a pool.
func TestZeroCacheBindsToFirstBuffer(t *testing.T) {
	a := MustNew(Config{Capacity: 4})
	b := MustNew(Config{Capacity: 4})
	var c Cache
	c.Flush() // nothing bound, nothing to do
	ba, _ := a.Get()
	bb, _ := b.Get()
	c.FreeBatch([]*Buf{ba, bb})
	if a.Avail() != 3 || b.Avail() != 4 {
		t.Fatalf("avail a=%d b=%d, want the first buffer stashed and the other sent home", a.Avail(), b.Avail())
	}
	c.Flush()
	checkQuiescent(t, a)
	checkQuiescent(t, b)
}

// TestIdleOwnerHoldsNothing is the starvation case the flush-on-idle rule
// exists for: a sink-only cache has swallowed the whole of a small pool, the
// source allocating straight from the ring is starved — and is served again
// the moment the sink's loop finds no work and flushes.
func TestIdleOwnerHoldsNothing(t *testing.T) {
	p := MustNew(Config{Capacity: 64})
	sink := p.NewCache()
	burst := make([]*Buf, 32)
	for i := 0; i < 2; i++ {
		if n := p.GetBatch(burst); n != 32 {
			t.Fatalf("source GetBatch = %d", n)
		}
		sink.FreeBatch(burst)
	}
	if n := p.GetBatch(burst); n != 0 {
		t.Fatalf("source got %d buffers while the sink's stash holds the pool", n)
	}
	sink.Flush() // the sink's loop found nothing to receive
	if p.Avail() != 64 {
		t.Fatalf("idle sink still holds %d buffers", 64-p.Avail())
	}
	if n := p.GetBatch(burst); n != 32 {
		t.Fatalf("source GetBatch after the sink went idle = %d, want 32", n)
	}
	FreeBatch(burst)
	checkQuiescent(t, p)
}

// TestCacheConcurrentChurn mixes every path over one pool from several
// goroutines — cached and uncached allocation, frees through caches, Free and
// FreeBatch, buffers handed to another goroutine's cache, shared (cloned)
// buffers dropped on both sides — then flushes and checks the population and
// the counters. Run under -race it also checks the sole-owner refcount
// stores are ordered by the ring.
func TestCacheConcurrentChurn(t *testing.T) {
	const workers = 4
	p := MustNew(Config{Capacity: 512, BufSize: 128, Headroom: 16})
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	// handoff[i] carries buffers worker i allocated to worker i+1, which
	// frees them: the cross-goroutine traffic of a real chain.
	handoff := make([]chan []*Buf, workers)
	for i := range handoff {
		handoff[i] = make(chan []*Buf, 4) // a few bursts in flight per hop
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			c := p.NewCache()
			defer c.Flush()
			in, out := handoff[w], handoff[(w+1)%workers]
			drain := func() {
				for {
					select {
					case bufs := <-in:
						c.FreeBatch(bufs)
					default:
						return
					}
				}
			}
			for i := 0; i < rounds; i++ {
				bufs := make([]*Buf, 1+rng.Intn(48))
				var n int
				if rng.Intn(4) == 0 {
					n = p.GetBatch(bufs)
				} else {
					n = c.GetBatch(bufs)
				}
				bufs = bufs[:n]
				switch rng.Intn(5) {
				case 0:
					for _, b := range bufs {
						b.Free()
					}
				case 1:
					FreeBatch(bufs)
				case 2:
					// Share every buffer, drop one reference here and hand the
					// other downstream.
					for _, b := range bufs {
						b.Clone()
					}
					shared := append([]*Buf(nil), bufs...)
					c.FreeBatch(bufs)
					select {
					case out <- shared:
					default:
						c.FreeBatch(shared)
					}
				case 3:
					select {
					case out <- bufs:
					default:
						c.FreeBatch(bufs)
					}
				default:
					c.FreeBatch(bufs)
				}
				drain()
				if rng.Intn(64) == 0 {
					c.Flush() // an idle pass
				}
			}
		}(w)
	}
	wg.Wait()
	for _, ch := range handoff {
		close(ch)
		for bufs := range ch {
			FreeBatch(bufs)
		}
	}
	checkQuiescent(t, p)
}
