package flow

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ovshighway/internal/pkt"
)

// randKey draws a key from a small value domain so collisions and matches
// actually happen under quick.Check.
func randKey(rng *rand.Rand) Key {
	return Key{
		InPort:  uint32(rng.Intn(4)),
		EthType: pkt.EtherTypeIPv4,
		IPSrc:   rng.Uint32() % 8,
		IPDst:   rng.Uint32() % 8,
		IPProto: []uint8{pkt.ProtoUDP, pkt.ProtoTCP}[rng.Intn(2)],
		L4Src:   uint16(rng.Intn(4)),
		L4Dst:   uint16(rng.Intn(4)),
	}
}

func randMatch(rng *rand.Rand) Match {
	m := MatchAll()
	if rng.Intn(2) == 0 {
		m = MatchInPort(uint32(rng.Intn(4)))
	}
	if rng.Intn(3) == 0 {
		m = m.WithIPProto([]uint8{pkt.ProtoUDP, pkt.ProtoTCP}[rng.Intn(2)])
	}
	if rng.Intn(3) == 0 {
		m = m.WithL4Dst(uint16(rng.Intn(4)))
	}
	if rng.Intn(4) == 0 {
		m = m.WithIPSrc(pkt.IP4FromUint32(rng.Uint32()%8), 30+rng.Intn(3))
	}
	return m
}

// Property: packed masking is idempotent and commutes with itself.
func TestQuickPackedMaskAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := randKey(rng)
		m := randMatch(rng)
		kp := k.Pack()
		mp := m.Mask.Pack()
		masked := kp.And(mp)
		// idempotent
		if masked.And(mp) != masked {
			return false
		}
		// masking with the zero mask yields zero
		var zero Packed
		if kp.And(zero) != zero {
			return false
		}
		// masking with an all-ones mask is identity on the packed bytes
		var ones Packed
		for i := range ones {
			ones[i] = 0xff
		}
		return kp.And(ones) == kp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Covers(k) is exactly "k agrees with the match key on every
// masked bit" — cross-check against a bit-level reference.
func TestQuickCoversDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := randKey(rng)
		m := randMatch(rng)
		kp := k.Pack()
		mp := m.Mask.Pack()
		want := m.Key.Pack().And(mp) == kp.And(mp)
		return m.Covers(&k) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Match.Equal is reflexive and symmetric, and invariant under
// changes to masked-out key bits.
func TestQuickMatchEqualRelation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMatch(rng)
		b := randMatch(rng)
		if !a.Equal(a) || !b.Equal(b) {
			return false
		}
		if a.Equal(b) != b.Equal(a) {
			return false
		}
		// Mutating a masked-out bit of a's key must not change equality.
		c := a
		if c.Mask.IPDst == 0 {
			c.Key.IPDst = rng.Uint32()
		}
		return a.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a match refined by a builder covers a subset of what the
// original covered (builders only pin additional bits).
func TestQuickBuildersMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randMatch(rng)
		refined := base.WithL4Src(uint16(rng.Intn(4)))
		for trial := 0; trial < 40; trial++ {
			k := randKey(rng)
			if refined.Covers(&k) && !base.Covers(&k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the full tiered lookup (EMC → SMC → classifier, with
// death-mark and generation invalidation) always agrees with a linear-scan
// reference over the live flow list, across random add/delete/expire/rerank
// churn. "Agrees" is OpenFlow-modulo-ties: both sides must find a covering
// flow of the same (maximal) priority or both must miss, and a cache may
// never serve a dead flow. This is the oracle for the whole hierarchy: any
// invalidation bug (a stale cache serving a removed or shadowed flow) or
// ranking bug (rerank breaking the early exit) shows up as a disagreement.
// The caches admit under the datapath's rule at a random inverse
// probability — always displace, every other resolution, the default 100 —
// so full sets both evict and refuse, and the answer must also be the one a
// classifier-only lookup of the same key gives.
func TestQuickTieredLookupOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		emc := NewEMC(64) // tiny, to force evictions
		smc := NewSMC(64)
		adm := NewAdmission(uint32(seed), []int{1, 2, 100}[rng.Intn(3)])
		for trial := 0; trial < 250; trial++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				// Add; sometimes with an idle timeout so expiry has victims.
				var idle uint16
				if rng.Intn(2) == 0 {
					idle = 1
				}
				tb.AddWithTimeouts(uint16(rng.Intn(4)*10), randMatch(rng),
					Actions{Output(uint32(rng.Intn(4)))}, 0, idle, 0, 0)
			case 3:
				// Delete a random live flow.
				if fs := tb.Snapshot(); len(fs) > 0 {
					v := fs[rng.Intn(len(fs))]
					tb.DeleteStrict(v.Priority, v.Match)
				}
			case 4:
				// Expire every idle-timeout flow (2s later than now ≫ 1s).
				tb.Expire(time.Now().Add(2 * time.Second))
			case 5:
				tb.Rerank()
			}

			k := randKey(rng)
			kp := k.Pack()
			h := kp.Hash64()
			g := tb.Generation()

			// Tiered lookup, exactly as the PMD walks it.
			got := emc.Probe(&kp, h, g)
			if got == nil {
				got, _ = smc.Probe(&kp, h, g)
			}
			if got == nil {
				got = tb.LookupPacked(&kp)
				if got != nil {
					adm.Next()
					if v, ev := emc.Put(&kp, h, got, g, &adm); ev {
						smc.Put(v.Hash, v.Flow, g, &adm)
					}
					smc.Put(h, got, g, &adm)
				}
			}
			if cls := tb.LookupPacked(&kp); (cls == nil) != (got == nil) || cls != nil && cls.Priority != got.Priority {
				return false // the tiers and the classifier alone disagree
			}

			// Reference: linear scan over the live flow list.
			want := refLookup(tb.Snapshot(), &k)
			switch {
			case got == nil && want == nil:
			case got == nil || want == nil:
				return false
			case got.Dead():
				return false // a cache served a removed flow
			case !got.Match.Covers(&k):
				return false
			case got.Priority != want.Priority:
				return false // stale/shadowed result (or rerank broke early exit)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: EMC lookups always agree with the classifier they were filled
// from, across random insert orders and table mutations.
func TestQuickEMCCoherence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		emc := NewEMC(64) // tiny, to force evictions
		n := rng.Intn(10) + 1
		for i := 0; i < n; i++ {
			tb.Add(uint16(rng.Intn(4)*10), randMatch(rng), Actions{Output(uint32(rng.Intn(4)))}, uint64(i))
		}
		for trial := 0; trial < 100; trial++ {
			if rng.Intn(20) == 0 { // occasional mutation
				tb.Add(uint16(rng.Intn(4)*10), randMatch(rng), Actions{Output(uint32(rng.Intn(4)))}, 99)
			}
			k := randKey(rng)
			kp := k.Pack()
			h := kp.Hash64()
			v := tb.Version()
			cached := emc.Probe(&kp, h, v)
			truth := tb.Lookup(&k)
			if cached != nil && cached != truth {
				return false // stale or wrong entry served
			}
			if cached == nil && truth != nil {
				emc.Put(&kp, h, truth, v, always)
				// Immediately re-reading must hit unless the version moved.
				if tb.Version() == v && emc.Probe(&kp, h, v) != truth {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
