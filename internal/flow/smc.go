package flow

import "sync/atomic"

// SMC is the signature-match cache: the middle tier of the lookup
// hierarchy, slotted between the exact-match cache and the tuple-space
// classifier, modeled on OVS-DPDK's SMC. Where an EMC entry stores the full
// 36-byte packed key, an SMC entry stores only hash material — a 16-bit
// signature from the low half of the 64-bit key hash plus its whole high
// half — so the same memory holds several times more entries and the cache
// keeps absorbing lookups long after the distinct-flow count has blown past
// the EMC's reach. Per-PMD and single-threaded, like the EMC.
//
// A candidate entry is served only after three checks:
//
//  1. generation — the entry was cached at the table's current add/modify
//     generation (the same shadowing rule the EMC uses: a newly inserted
//     rule could outrank the cached one);
//  2. liveness — the cached flow has not been death-marked by a delete,
//     expiry, or replacement;
//  3. coverage — the cached flow's match covers the looked-up key, verified
//     against the packed mask material cached on the flow (no Pack calls).
//
// Coverage makes a signature collision between keys that resolve to
// different rules detectable in practice: the colliding key fails the
// cached rule's mask check, is counted in FalsePositives, and falls through
// to the classifier. The residual wrong-answer window — another key
// agreeing on ~48 independent hash bits AND covered by the cached rule
// while a higher-priority rule covers only it — is ~2^-48 per colliding
// pair; like OVS's SMC, the tier trades that vanishing probability for
// reach.
type SMC struct {
	mask    uint32
	entries []smcEntry
	victim  uint32 // round-robin victim cursor for full live buckets

	// Counters are atomics so control-plane code can snapshot them while
	// the owning PMD keeps forwarding (windowed DatapathStats deltas); the
	// PMD thread is still the only writer. Probe touches none of them: the
	// caller counts a burst's outcomes in locals and lands them with one
	// Count per burst, as for the EMC.
	hits     atomic.Uint64
	misses   atomic.Uint64
	falsePos atomic.Uint64
}

// smcEntry is one cache way: no key, just hash material and the result.
type smcEntry struct {
	gen  uint64
	flow *Flow
	alt  uint32 // high half of the key hash
	sig  uint16 // signature: bits 16-31 of the low half (never 0)
}

const smcWays = 4

// NewSMC builds a cache with the given number of entries (rounded up to a
// power of two, minimum 2*ways).
func NewSMC(entries int) *SMC {
	n := smcWays * 2
	for n < entries {
		n <<= 1
	}
	return &SMC{
		mask:    uint32(n/smcWays - 1),
		entries: make([]smcEntry, n),
	}
}

// smcSig derives the in-bucket signature from the primary hash. 0 is
// remapped so a zeroed (empty) way can never match.
func smcSig(hash uint32) uint16 {
	s := uint16(hash >> 16)
	if s == 0 {
		s = 0xffff
	}
	return s
}

// Probe returns the cached flow covering the packed key, or nil on miss: the
// cache's one lookup. hash must be kp's Hash64 — its low half picks the
// bucket and signs the entry, its high half is the second check — and gen the
// owning table's current add/modify generation. falsePos is the number of
// ways whose 16-bit signature matched but whose high half or coverage check
// did not: detected collisions, skipped. No counter is touched.
func (c *SMC) Probe(kp *Packed, hash, gen uint64) (f *Flow, falsePos uint64) {
	base := int(uint32(hash)&c.mask) * smcWays
	sig := smcSig(uint32(hash))
	alt := uint32(hash >> 32)
	for w := 0; w < smcWays; w++ {
		e := &c.entries[base+w]
		if e.sig != sig || e.gen != gen || e.flow == nil {
			continue
		}
		if e.alt != alt {
			falsePos++
			continue
		}
		f := e.flow
		if f.Dead() {
			e.flow = nil // scrub: the way becomes a preferred victim
			continue
		}
		if !f.CoversPacked(kp) {
			falsePos++
			continue
		}
		return f, falsePos
	}
	return nil, falsePos
}

// Count lands a burst's worth of Probe outcomes on the cache counters.
func (c *SMC) Count(hits, misses, falsePos uint64) {
	if hits > 0 {
		c.hits.Add(hits)
	}
	if misses > 0 {
		c.misses.Add(misses)
	}
	if falsePos > 0 {
		c.falsePos.Add(falsePos)
	}
}

// Put caches a classification result obtained at gen under the key's Hash64.
// A nil flow is never cached. Victim preference: the way holding the same
// hash material (re-validation updates in place), then an empty/stale/dead
// way; with every way live the insertion happens only if a allows a
// displacement (the rule the EMC admits under — see Admission), round-robin
// among the ways.
func (c *SMC) Put(hash uint64, f *Flow, gen uint64, a *Admission) {
	if f == nil {
		return
	}
	base := int(uint32(hash)&c.mask) * smcWays
	sig := smcSig(uint32(hash))
	alt := uint32(hash >> 32)
	vic := -1
	for w := 0; w < smcWays; w++ {
		e := &c.entries[base+w]
		if e.sig == sig && e.alt == alt && e.flow != nil {
			vic = w // same key material: update in place
			break
		}
		if vic < 0 && (e.flow == nil || e.gen != gen || e.flow.Dead()) {
			vic = w
		}
	}
	if vic < 0 {
		if !a.displace() {
			return
		}
		vic = int(c.victim % smcWays)
		c.victim++
	}
	c.entries[base+vic] = smcEntry{gen: gen, flow: f, alt: alt, sig: sig}
}

// Lookup is Probe for bench/layers.go until the next `benchmark` PR
// re-points flow.smc_hit_ns: hash recomputed here, collisions not reported.
func (c *SMC) Lookup(kp *Packed, _ uint32, gen uint64) *Flow {
	f, _ := c.Probe(kp, kp.Hash64(), gen)
	return f
}

// Insert is an always-displacing Put for bench/layers.go until the next
// `benchmark` PR re-points flow.smc_hit_ns: hash recomputed here.
func (c *SMC) Insert(kp *Packed, _ uint32, f *Flow, gen uint64) {
	c.Put(kp.Hash64(), f, gen, new(Admission))
}

// SMCStats are cumulative cache counters. FalsePositives count signature
// matches whose flow did not cover the key: detected collisions, served as
// misses.
type SMCStats struct {
	Hits, Misses, FalsePositives uint64
}

// Delta returns the counter movement since an earlier snapshot.
func (s SMCStats) Delta(prev SMCStats) SMCStats {
	return SMCStats{
		Hits:           s.Hits - prev.Hits,
		Misses:         s.Misses - prev.Misses,
		FalsePositives: s.FalsePositives - prev.FalsePositives,
	}
}

// Stats returns a snapshot of the cache counters. Safe to call while the
// owning PMD is forwarding.
func (c *SMC) Stats() SMCStats {
	return SMCStats{Hits: c.hits.Load(), Misses: c.misses.Load(), FalsePositives: c.falsePos.Load()}
}
