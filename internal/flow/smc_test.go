package flow

import (
	"testing"
	"time"

	"ovshighway/internal/pkt"
)

// always is the zero Admission: every insertion may displace a live way.
var always = new(Admission)

// probeSMC is the PMD's use of the tier folded into one call: Probe, then
// the outcome landed with Count.
func probeSMC(c *SMC, kp *Packed, hash, gen uint64) *Flow {
	f, fp := c.Probe(kp, hash, gen)
	if f != nil {
		c.Count(1, 0, fp)
	} else {
		c.Count(0, 1, fp)
	}
	return f
}

func TestSMCHitMissAndGeneration(t *testing.T) {
	tb := NewTable()
	fl := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	c := NewSMC(256)

	k := key(1, 11, 22, pkt.ProtoUDP, 1, 2)
	kp := k.Pack()
	h := kp.Hash64()
	g := tb.Generation()

	if got := probeSMC(c, &kp, h, g); got != nil {
		t.Fatal("cold cache hit")
	}
	c.Put(h, fl, g, always)
	if got := probeSMC(c, &kp, h, g); got != fl {
		t.Fatal("warm cache miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// An insertion (which could shadow the cached result) moves the
	// generation and invalidates.
	tb.Add(20, MatchInPort(2), Actions{Output(1)}, 0)
	if got := probeSMC(c, &kp, h, tb.Generation()); got != nil {
		t.Fatal("stale entry served after add-generation bump")
	}
	// Re-validation at the new generation hits again.
	c.Put(h, fl, tb.Generation(), always)
	if got := probeSMC(c, &kp, h, tb.Generation()); got != fl {
		t.Fatal("re-validated entry missed")
	}
}

func TestSMCNeverServesDeadFlow(t *testing.T) {
	tb := NewTable()
	fl := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	other := tb.Add(10, MatchInPort(2), Actions{Output(1)}, 0)
	c := NewSMC(256)

	k1 := key(1, 11, 22, pkt.ProtoUDP, 1, 2)
	k2 := key(2, 11, 22, pkt.ProtoUDP, 3, 4)
	kp1, kp2 := k1.Pack(), k2.Pack()
	g := tb.Generation()
	c.Put(kp1.Hash64(), fl, g, always)
	c.Put(kp2.Hash64(), other, g, always)

	// Deleting fl does NOT move the add/modify generation…
	if !tb.DeleteStrict(10, MatchInPort(1)) {
		t.Fatal("delete failed")
	}
	if tb.Generation() != g {
		t.Fatal("delete moved the add/modify generation")
	}
	// …yet its cached entry must never be served again (death mark)…
	if got := probeSMC(c, &kp1, kp1.Hash64(), tb.Generation()); got != nil {
		t.Fatalf("SMC served removed flow %v", got)
	}
	// …while the unrelated entry keeps hitting: the delete invalidated
	// exactly one entry, not the cache.
	if got := probeSMC(c, &kp2, kp2.Hash64(), tb.Generation()); got != other {
		t.Fatal("unrelated entry lost to an unrelated delete")
	}
}

// TestSMCSignatureCollisionRejected pins the false-positive handling: a
// probe whose primary signature collides with a cached entry but whose key
// differs must be rejected (secondary hash / coverage verification), never
// served, and counted in FalsePositives.
func TestSMCSignatureCollisionRejected(t *testing.T) {
	tb := NewTable()
	// The flow matches in_port=1 only.
	fl := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	c := NewSMC(8) // tiny: adversarial probes share the bucket set
	g := tb.Generation()

	k1 := key(1, 11, 22, pkt.ProtoUDP, 1, 2)
	kp1 := k1.Pack()
	c.Put(kp1.Hash64(), fl, g, always)

	// Probe with a DIFFERENT key forging k1's primary hash (adversarial
	// signature collision): the bucket and the 16-bit signature are k1's, the
	// high half is k2's own, so the second check rejects it.
	k2 := key(9, 11, 22, pkt.ProtoUDP, 1, 2)
	kp2 := k2.Pack()
	forged := uint64(kp1.Hash()) | kp2.Hash64()&^0xffffffff
	if got := probeSMC(c, &kp2, forged, g); got != nil {
		t.Fatalf("SMC served a colliding foreign key: %v", got)
	}
	if st := c.Stats(); st.FalsePositives != 1 {
		t.Fatalf("detected signature collision not counted once: %+v", st)
	}
	// All 64 bits forged: only the coverage check stands between k2 and a
	// rule that matches in_port=1, and in_port=9 is not covered.
	if got := probeSMC(c, &kp2, kp1.Hash64(), g); got != nil {
		t.Fatalf("SMC served a foreign key under a fully colliding hash: %v", got)
	}
	if st := c.Stats(); st.FalsePositives != 2 {
		t.Fatalf("detected coverage failure not counted once: %+v", st)
	}
	// The true key still hits.
	if got := probeSMC(c, &kp1, kp1.Hash64(), g); got != fl {
		t.Fatal("true key rejected")
	}
}

// TestEMCDeathMarkInvalidatesOnlyRemovedFlow is the EMC twin of the SMC
// death-mark test, pinning the delete-churn story end to end: unrelated
// deletes leave the cache hot, and the removed flow's entry dies instantly.
func TestEMCDeathMarkInvalidatesOnlyRemovedFlow(t *testing.T) {
	tb := NewTable()
	fa := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	fb := tb.Add(10, MatchInPort(2), Actions{Output(1)}, 0)
	victim := tb.Add(5, MatchInPort(9), Actions{Output(3)}, 0)
	_ = victim
	c := NewEMC(1024)

	ka := key(1, 11, 22, pkt.ProtoUDP, 1, 2)
	kb := key(2, 11, 22, pkt.ProtoUDP, 3, 4)
	kpa, kpb := ka.Pack(), kb.Pack()
	g := tb.Generation()
	c.Put(&kpa, kpa.Hash64(), fa, g, always)
	c.Put(&kpb, kpb.Hash64(), fb, g, always)

	// Delete an UNRELATED flow: generation must not move, both entries must
	// keep hitting — this is what the old global-version scheme got wrong.
	if !tb.DeleteStrict(5, MatchInPort(9)) {
		t.Fatal("unrelated delete failed")
	}
	if tb.Generation() != g {
		t.Fatal("delete moved the add/modify generation")
	}
	if c.Probe(&kpa, kpa.Hash64(), tb.Generation()) != fa ||
		c.Probe(&kpb, kpb.Hash64(), tb.Generation()) != fb {
		t.Fatal("unrelated delete invalidated live EMC entries")
	}

	// Delete a CACHED flow: its entry dies immediately, the sibling lives.
	if !tb.DeleteStrict(10, MatchInPort(1)) {
		t.Fatal("delete failed")
	}
	if got := c.Probe(&kpa, kpa.Hash64(), tb.Generation()); got != nil {
		t.Fatalf("EMC served removed flow %v", got)
	}
	if c.Probe(&kpb, kpb.Hash64(), tb.Generation()) != fb {
		t.Fatal("sibling entry lost")
	}

	// Expiry death-marks exactly like an explicit delete.
	exp := tb.AddWithTimeouts(10, MatchInPort(3), Actions{Output(1)}, 0, 1, 0, 0)
	kc := key(3, 11, 22, pkt.ProtoUDP, 5, 6)
	kpc := kc.Pack()
	g2 := tb.Generation()
	c.Put(&kpc, kpc.Hash64(), exp, g2, always)
	if c.Probe(&kpc, kpc.Hash64(), g2) != exp {
		t.Fatal("entry not cached")
	}
	if n := len(tb.Expire(time.Now().Add(2 * time.Second))); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	if tb.Generation() != g2 {
		t.Fatal("expiry moved the add/modify generation")
	}
	if got := c.Probe(&kpc, kpc.Hash64(), tb.Generation()); got != nil {
		t.Fatalf("EMC served expired flow %v", got)
	}
}

// TestReplacementDeathMarksOldFlow: modifying a flow (same priority+match)
// must both bump the generation AND death-mark the replaced entry, so
// neither validity path can serve the old actions.
func TestReplacementDeathMarksOldFlow(t *testing.T) {
	tb := NewTable()
	old := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	g := tb.Generation()
	c := NewEMC(64)
	k := key(1, 11, 22, pkt.ProtoUDP, 1, 2)
	kp := k.Pack()
	c.Put(&kp, kp.Hash64(), old, g, always)

	repl := tb.Add(10, MatchInPort(1), Actions{Output(3)}, 0)
	if tb.Generation() == g {
		t.Fatal("replacement did not bump the generation")
	}
	if !old.Dead() {
		t.Fatal("replaced flow not death-marked")
	}
	if repl.Dead() {
		t.Fatal("replacement flow born dead")
	}
	if got := c.Probe(&kp, kp.Hash64(), tb.Generation()); got != nil {
		t.Fatalf("EMC served replaced flow %v", got)
	}
}

// TestClassifierRerankOrdersByHits drives lookups into one of two
// equal-priority subtables, re-ranks, and checks both that the hot subtable
// moved to the front and that lookups stay correct (priority guard).
func TestClassifierRerankOrdersByHits(t *testing.T) {
	tb := NewTable()
	// Two subtables at the same maxPrio (different masks), plus one
	// higher-priority subtable that must stay in front regardless of hits.
	tb.Add(50, MatchInPort(1).WithL4Dst(80), Actions{Output(9)}, 0)
	tb.Add(10, MatchInPort(2), Actions{Output(2)}, 0)                 // mask A
	tb.Add(10, MatchInPort(3).WithIPProto(17), Actions{Output(3)}, 0) // mask B

	// Hammer mask B's flow.
	kb := key(3, 11, 22, pkt.ProtoUDP, 1, 2)
	for i := 0; i < 64; i++ {
		if tb.Lookup(&kb) == nil {
			t.Fatal("lookup lost")
		}
	}
	tb.Rerank()

	snap := tb.snap.Load()
	if len(snap.subtables) != 3 {
		t.Fatalf("subtables = %d, want 3", len(snap.subtables))
	}
	// Priority guard: descending maxPrio must survive ranking.
	for i := 1; i < len(snap.subtables); i++ {
		if snap.subtables[i-1].maxPrio < snap.subtables[i].maxPrio {
			t.Fatal("rerank broke the descending maxPrio invariant")
		}
	}
	if snap.subtables[0].maxPrio != 50 {
		t.Fatal("high-priority subtable displaced from the front")
	}
	// Within the equal-priority run, the hammered mask leads.
	hot := snap.subtables[1]
	if hot.hits.Load() < 64 {
		t.Fatalf("hot subtable not ranked first within its priority run (hits=%d)", hot.hits.Load())
	}

	// Rerank must not move the generation or the version (not a mutation).
	g, v := tb.Generation(), tb.Version()
	tb.Rerank()
	if tb.Generation() != g || tb.Version() != v {
		t.Fatal("rerank counted as a mutation")
	}
	// And lookups still resolve by priority, not rank.
	khi := key(1, 11, 22, pkt.ProtoUDP, 1, 80)
	if f := tb.Lookup(&khi); f == nil || f.Priority != 50 {
		t.Fatalf("priority winner lost after rerank: %v", f)
	}
}

// TestRerankPersistsAcrossRebuild: hit counters are keyed by mask on the
// table, so an unrelated mutation (rebuild) must not reset the ranking.
func TestRerankPersistsAcrossRebuild(t *testing.T) {
	tb := NewTable()
	tb.Add(10, MatchInPort(2), Actions{Output(2)}, 0)
	tb.Add(10, MatchInPort(3).WithIPProto(17), Actions{Output(3)}, 0)
	kb := key(3, 11, 22, pkt.ProtoUDP, 1, 2)
	for i := 0; i < 64; i++ {
		tb.Lookup(&kb)
	}
	// Unrelated mutation rebuilds the snapshot.
	tb.Add(10, MatchInPort(4), Actions{Output(4)}, 0)
	tb.Rerank()
	first := tb.snap.Load().subtables[0]
	if first.hits.Load() < 64 {
		t.Fatalf("hit-ranked subtable lost its counter across a rebuild (hits=%d)", first.hits.Load())
	}
}

// TestEMCEvictionDemotesVictimToSMC: replacing a LIVE EMC entry returns the
// victim, and inserting it into the SMC (as the PMD does) lets the evicted
// flow keep resolving in the second tier without a classifier walk —
// asserted via the SMC hit counter.
func TestEMCEvictionDemotesVictimToSMC(t *testing.T) {
	tb := NewTable()
	fl := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	gen := tb.Generation()

	emc := NewEMC(1) // minimum size: 4 entries, 2 two-way sets
	smc := NewSMC(64)

	// Collect three distinct keys landing in the same EMC set.
	var keys []Packed
	var hashes []uint64
	want := uint64(0)
	for port := uint16(1); len(keys) < 3 && port < 10000; port++ {
		k := Key{InPort: 1, EthType: 0x0800, IPProto: 17, L4Src: port, L4Dst: 9000}
		kp := k.Pack()
		h := kp.Hash64()
		set := h & 1
		if len(keys) == 0 {
			want = set
		}
		if set == want {
			keys = append(keys, kp)
			hashes = append(hashes, h)
		}
	}
	if len(keys) < 3 {
		t.Fatal("could not find three keys sharing an EMC set")
	}

	if _, ev := emc.Put(&keys[0], hashes[0], fl, gen, always); ev {
		t.Fatal("insertion into an empty set reported an eviction")
	}
	if _, ev := emc.Put(&keys[1], hashes[1], fl, gen, always); ev {
		t.Fatal("insertion into a half-empty set reported an eviction")
	}
	v, ev := emc.Put(&keys[2], hashes[2], fl, gen, always)
	if !ev || v.Flow != fl || v.Key != keys[0] || v.Hash != hashes[0] {
		t.Fatalf("third insertion: evicted=%v victim=%v key match=%v hash match=%v, want eviction of the oldest entry with the hash it was stored under",
			ev, v.Flow, v.Key == keys[0], v.Hash == hashes[0])
	}

	// The PMD wiring: the victim demotes into the SMC at the same gen, under
	// the hash its EMC entry held.
	smc.Put(v.Hash, v.Flow, gen, always)

	// The evicted key now misses the EMC but hits the SMC.
	if emc.Probe(&keys[0], hashes[0], gen) != nil {
		t.Fatal("evicted key still hits the EMC")
	}
	if got := probeSMC(smc, &keys[0], hashes[0], gen); got != fl {
		t.Fatalf("demoted victim not served by the SMC (got %v)", got)
	}
	if st := smc.Stats(); st.Hits != 1 {
		t.Fatalf("SMC hits = %d, want 1 (the demoted victim)", st.Hits)
	}
}
