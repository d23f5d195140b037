package flow

import "sync/atomic"

// EMC is an exact-match cache: a direct-mapped, 2-way cache from full packet
// keys to classification results, owned by a single PMD thread (no locking).
// It is the first level of the OVS userspace datapath lookup hierarchy; on a
// hit the SMC probe and the masked classifier walk are both skipped.
//
// Invalidation is two-pronged:
//
//   - Entries carry per-entry generation tags. The caller passes the table's
//     add/modify generation (Table.Generation): each entry remembers the
//     generation it was cached at and is served only while that generation
//     is current, so an insertion or modification — which can shadow a
//     cached result with a different winner — invalidates entries cached
//     before it, lazily, with no flush pass over the cache.
//   - Removals (deletes, expiries, replacements) death-mark the removed
//     Flow instead of bumping the generation. A hit candidate whose flow is
//     dead is scrubbed and treated as a miss. Deletes — the dominant churn
//     source in a busy flow table — therefore invalidate exactly the
//     entries pointing at the removed flow; the rest of the cache keeps
//     hitting. (The pre-death-mark behaviour, every mutation stampeding the
//     whole cache onto the classifier, is recoverable by passing
//     Table.Version as the generation — BenchmarkLookupChurn compares the
//     two schemes.)
type EMC struct {
	mask    uint32
	entries []emcEntry

	// Counters are atomics so control-plane code can snapshot them while
	// the owning PMD keeps forwarding (windowed DatapathStats deltas); the
	// PMD thread is still the only writer. Probe touches none of them: the
	// caller counts a burst's hits and misses in locals and lands them with
	// one Count per burst.
	hits      atomic.Uint64
	misses    atomic.Uint64
	conflicts atomic.Uint64
}

// emcEntry is one cache way, 64 bytes: one cache line. sig is the key's
// full Hash64, compared before anything else so a way holding another key
// is rejected on one word without touching its 36 key bytes. gen is the
// add/modify generation the classification was obtained at; 0 means empty
// (generations start at 1 — an empty table classifies nothing, so nothing is
// ever cached at 0).
type emcEntry struct {
	sig  uint64
	gen  uint64
	flow *Flow
	key  Packed
}

const emcWays = 2

// NewEMC builds a cache with the given number of entries (rounded up to a
// power of two, minimum 2*ways).
func NewEMC(entries int) *EMC {
	n := emcWays * 2
	for n < entries {
		n <<= 1
	}
	return &EMC{
		mask:    uint32(n/emcWays - 1),
		entries: make([]emcEntry, n),
	}
}

// Probe returns the cached flow for the packed key, or nil on miss: the
// cache's one lookup. hash must be kp's Hash64 (its low half picks the set,
// all of it is the entry signature) and gen the owning table's current
// add/modify generation. A way is served only when its signature, its
// generation and then its full key all match — the signature only orders
// the checks, the match stays exact — and its flow has not been
// death-marked. The key is read in place and no counter is touched.
func (c *EMC) Probe(kp *Packed, hash, gen uint64) *Flow {
	base := int(uint32(hash)&c.mask) * emcWays
	for w := 0; w < emcWays; w++ {
		e := &c.entries[base+w]
		if e.sig != hash || e.gen != gen || !e.key.Equal(kp) {
			continue
		}
		if f := e.flow; f != nil && !f.Dead() {
			return f
		}
		// The cached flow was removed: scrub the way so it becomes a
		// preferred insertion victim.
		e.gen = 0
		e.flow = nil
	}
	return nil
}

// Count lands a burst's worth of Probe outcomes on the cache counters.
func (c *EMC) Count(hits, misses uint64) {
	if hits > 0 {
		c.hits.Add(hits)
	}
	if misses > 0 {
		c.misses.Add(misses)
	}
}

// Lookup is Probe for bench/layers.go until the next `benchmark` PR
// re-points flow.emc_hit_ns: by-value key, hash recomputed here.
func (c *EMC) Lookup(kp Packed, _ uint32, gen uint64) *Flow { return c.Probe(&kp, kp.Hash64(), gen) }

// Insert is an always-displacing Put for bench/layers.go until the next
// `benchmark` PR re-points flow.emc_hit_ns: by-value key, hash recomputed
// here.
func (c *EMC) Insert(kp Packed, _ uint32, f *Flow, gen uint64) {
	c.Put(&kp, kp.Hash64(), f, gen, new(Admission))
}

// Admission is the one rule both cache tiers admit a classifier-resolved key
// under. A way that holds nothing worth keeping — vacant, cached at an older
// generation, or pointing at a death-marked flow — is always taken: its set
// is already in L1 from the probe that just missed, and warm-up and the
// refill after delete churn must not wait on a lottery. Displacing a LIVE way
// (the EMC's shift-and-evict, the SMC's round-robin victim) happens for one
// resolution in inv, OVS's emc-insert-inv-prob. Replace-on-every-miss is the
// one policy a cyclic scan of W keys over C ways defeats completely — each
// key is evicted before it comes round again, hit rate 0 — while a cache
// that mostly refuses to displace keeps whatever C keys it holds and serves
// C/W of the scan.
//
// One Admission belongs to one PMD thread. Next opens a resolution; the
// first tier that would have to displace draws (xorshift32, then a
// multiply-shift into [0, inv) — no division), and the answer holds for the
// rest of that resolution, so the EMC's demoted victim and the key's own SMC
// entry follow the same verdict. A resolution that finds room in both tiers
// draws nothing. The zero value displaces always.
type Admission struct {
	rng   uint32 // xorshift32 state: never zero when inv > 1
	inv   uint32 // displace for one resolution in inv; ≤ 1 = every one
	drawn bool
	win   bool
}

// NewAdmission returns the rule at inverse probability invProb (≤ 1: every
// resolution may displace), its generator seeded from seed.
func NewAdmission(seed uint32, invProb int) Admission {
	if invProb < 1 {
		invProb = 1
	}
	return Admission{rng: seed | 1, inv: uint32(invProb)}
}

// Next opens the next classifier resolution: its verdict is not drawn yet.
func (a *Admission) Next() { a.drawn = false }

// displace reports whether this resolution may evict a live way.
func (a *Admission) displace() bool {
	if a.inv <= 1 {
		return true
	}
	if !a.drawn {
		x := a.rng
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		a.rng = x
		a.win = uint64(x)*uint64(a.inv)>>32 == 0
		a.drawn = true
	}
	return a.win
}

// EMCVictim is a live entry an insertion displaced: the key, its stored
// Hash64 and the flow it resolved to.
type EMCVictim struct {
	Key  Packed
	Hash uint64
	Flow *Flow
}

// live reports whether the way holds a result worth keeping at gen.
func (e *emcEntry) live(gen uint64) bool {
	return e.gen == gen && e.flow != nil && !e.flow.Dead()
}

// Put caches a classification result obtained at gen under kp's Hash64. A
// nil flow is never cached (misses in the classifier go to the slow path and
// may install new state). A key already in the set is re-validated in place
// and a way that is not live is taken unconditionally; with both ways live
// the insertion happens only if a allows a displacement, and then the set
// behaves as insertion-order LRU: way 0 receives the new entry, its occupant
// shifts to way 1, way 1's is evicted.
//
// That evicted LIVE entry is returned with evicted=true: the caller demotes
// it into the SMC (OVS-style) under the hash the entry already holds, so the
// second tier warms with exactly the flows the first tier can no longer hold
// — without waiting for their next classifier walk and without hashing the
// victim's key again.
func (c *EMC) Put(kp *Packed, hash uint64, f *Flow, gen uint64, a *Admission) (v EMCVictim, evicted bool) {
	if f == nil {
		return v, false
	}
	base := int(uint32(hash)&c.mask) * emcWays
	for w := 0; w < emcWays; w++ {
		e := &c.entries[base+w]
		if e.gen != 0 && e.sig == hash && e.key.Equal(kp) {
			e.gen = gen
			e.flow = f
			return v, false
		}
	}
	e0, e1 := &c.entries[base], &c.entries[base+1]
	if !e0.live(gen) {
		*e0 = emcEntry{sig: hash, gen: gen, flow: f, key: *kp}
		return v, false
	}
	if e1.live(gen) {
		if !a.displace() {
			return v, false
		}
		c.conflicts.Add(1)
		v, evicted = EMCVictim{Key: e1.key, Hash: e1.sig, Flow: e1.flow}, true
	}
	*e1 = *e0
	*e0 = emcEntry{sig: hash, gen: gen, flow: f, key: *kp}
	return v, evicted
}

// EMCStats are cumulative cache counters.
type EMCStats struct {
	Hits, Misses, Conflicts uint64
}

// Delta returns the counter movement since an earlier snapshot.
func (s EMCStats) Delta(prev EMCStats) EMCStats {
	return EMCStats{Hits: s.Hits - prev.Hits, Misses: s.Misses - prev.Misses, Conflicts: s.Conflicts - prev.Conflicts}
}

// Stats returns a snapshot of the cache counters. Safe to call while the
// owning PMD is forwarding.
func (c *EMC) Stats() EMCStats {
	return EMCStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Conflicts: c.conflicts.Load()}
}
