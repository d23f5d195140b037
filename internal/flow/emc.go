package flow

import (
	"encoding/binary"
	"sync/atomic"
)

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

// equal is *p == *o as five word compares with no branch between them. The
// compiler's array compare is a call into the runtime's byte loop, ~6 ns
// dearer per EMC hit (BenchmarkProcessBatch 49 vs 55 ns/pkt).
func (p *Packed) equal(o *Packed) bool {
	return (binary.LittleEndian.Uint64(p[0:8])^binary.LittleEndian.Uint64(o[0:8]))|
		(binary.LittleEndian.Uint64(p[8:16])^binary.LittleEndian.Uint64(o[8:16]))|
		(binary.LittleEndian.Uint64(p[16:24])^binary.LittleEndian.Uint64(o[16:24]))|
		(binary.LittleEndian.Uint64(p[24:32])^binary.LittleEndian.Uint64(o[24:32]))|
		uint64(binary.LittleEndian.Uint32(p[32:36])^binary.LittleEndian.Uint32(o[32:36])) == 0
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
		if e.sig != hash || e.gen != gen || !e.key.equal(kp) {
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

// Insert is Put for bench/layers.go until the next `benchmark` PR re-points
// flow.emc_hit_ns: by-value key, hash recomputed here.
func (c *EMC) Insert(kp Packed, _ uint32, f *Flow, gen uint64) { c.Put(&kp, kp.Hash64(), f, gen) }

// EMCVictim is a live entry an insertion displaced: the key, its stored
// Hash64 and the flow it resolved to.
type EMCVictim struct {
	Key  Packed
	Hash uint64
	Flow *Flow
}

// Put caches a classification result obtained at gen under kp's Hash64. A
// nil flow is never cached (misses in the classifier go to the slow path and
// may install new state). Stale ways (older generations, dead flows) are
// preferred victims; among live ways the set behaves as insertion-order
// LRU.
//
// When the insertion replaces a LIVE entry, that victim is returned with
// evicted=true: the caller demotes it into the SMC (OVS-style) under the
// hash the entry already holds, so the second tier warms with exactly the
// flows the first tier can no longer hold — without waiting for their next
// classifier walk and without hashing the victim's key again.
func (c *EMC) Put(kp *Packed, hash uint64, f *Flow, gen uint64) (v EMCVictim, evicted bool) {
	if f == nil {
		return v, false
	}
	base := int(uint32(hash)&c.mask) * emcWays
	// Re-validation of a key already present in the set updates in place.
	for w := 0; w < emcWays; w++ {
		e := &c.entries[base+w]
		if e.gen != 0 && e.sig == hash && e.key.equal(kp) {
			e.gen = gen
			e.flow = f
			return v, false
		}
	}
	// A stale or dead way 0 can be overwritten without touching a
	// possibly-live way 1.
	e0, e1 := &c.entries[base], &c.entries[base+1]
	if e0.gen != gen || e0.flow == nil || e0.flow.Dead() {
		*e0 = emcEntry{sig: hash, gen: gen, flow: f, key: *kp}
		return v, false
	}
	// Way 0 receives the newest entry; the previous way-0 occupant shifts to
	// way 1, evicting the set's oldest entry (insertion-order LRU).
	if e1.gen == gen && e1.flow != nil && !e1.flow.Dead() {
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
