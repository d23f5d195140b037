package mempool

// cacheBurst is the unit a Cache refills and spills by — one datapath burst —
// and cacheSize the depth of its stash: two of them, the shape of DPDK's
// per-lcore mempool cache. Fixed: nothing varies them.
const (
	cacheBurst = 32
	cacheSize  = 2 * cacheBurst
)

// Cache is a single-owner LIFO stash of free buffers in front of a pool's
// shared freelist ring: the stand-in for DPDK's per-lcore mempool cache. One
// datapath goroutine owns it and allocates and frees through it; while what
// it frees roughly feeds what it allocates, neither touches the ring or any
// other shared cache line — a buffer changes hands with a plain load and
// store, and comes back still warm in the owner's CPU cache.
//
// The stash only ever trades whole bursts with the ring, one bulk ring
// operation each: an allocation it cannot cover refills one burst (or goes
// straight to the ring when it is at least a burst itself), a free into a
// full stash spills one.
//
// The owner must Flush whenever its loop finds no work, and when it exits.
// That bounds what a cache can withhold to cacheSize buffers, and only while
// its owner is busy — an idle sink never parks buffers a source is starving
// for, and a pool whose users are quiescent has Avail() == Cap().
//
// The zero Cache is for an owner that only frees and is handed buffers, never
// a pool (a switch thread, a wire sink): it binds to the pool of the first
// buffer freed into it.
type Cache struct {
	pool *Pool
	n    int // stash[:n] holds free buffers, most recently freed on top
	// allocs and frees made since the cache last touched the ring; folded
	// into the pool's shared counters when it next does (see Stats).
	allocs, frees uint64
	stash         [cacheSize]*Buf
}

// NewCache returns an empty cache in front of p for one goroutine's use.
func (p *Pool) NewCache() *Cache { return &Cache{pool: p} }

// GetBatch fills out with up to len(out) fresh buffers, from the stash when
// it can cover them and with one bulk ring dequeue when it cannot, returning
// the count.
func (c *Cache) GetBatch(out []*Buf) int {
	n := c.pop(out)
	if rest := out[n:]; len(rest) >= cacheBurst {
		c.fold()
		n += c.pool.free.Dequeue(rest)
	} else if len(rest) > 0 {
		c.fold()
		c.n = c.pool.free.Dequeue(c.stash[:cacheBurst])
		n += c.pop(rest)
	}
	c.allocs += uint64(n)
	c.pool.fresh(out, n)
	return n
}

// pop moves up to len(out) buffers off the top of the stash into out.
func (c *Cache) pop(out []*Buf) int {
	k := min(len(out), c.n)
	c.n -= k
	copy(out, c.stash[c.n:c.n+k])
	return k
}

// FreeBatch drops one reference on every non-nil buffer, exactly as the
// package-level FreeBatch does (over-freeing panics), but stashes the ones
// reaching zero instead of returning them to the ring. A buffer of another
// pool goes home through that pool's own freelist. The contents of bufs are
// untouched.
func (c *Cache) FreeBatch(bufs []*Buf) {
	for _, b := range bufs {
		if b == nil || !b.release() {
			continue
		}
		if b.pool != c.pool {
			if c.pool != nil {
				b.pool.putOne(b)
				continue
			}
			c.pool = b.pool
		}
		if c.n == cacheSize {
			c.n -= cacheBurst
			c.fold()
			c.pool.enqueue(c.stash[c.n:])
		}
		c.stash[c.n] = b
		c.n++
		c.frees++
	}
}

// Flush returns every stashed buffer to the ring and brings the pool's
// counters up to date. Cheap when there is nothing to do.
func (c *Cache) Flush() {
	if c.n > 0 {
		c.pool.enqueue(c.stash[:c.n])
		c.n = 0
	}
	c.fold()
}

// fold adds the allocs and frees made since the last fold to the pool's
// shared counters. Called only where the cache touches the ring anyway.
func (c *Cache) fold() {
	if c.allocs > 0 {
		c.pool.allocs.Add(c.allocs)
		c.allocs = 0
	}
	if c.frees > 0 {
		c.pool.frees.Add(c.frees)
		c.frees = 0
	}
}
