package flow

import (
	"math/rand"
	"testing"
)

// TestEMCProbeSignatureFirst is the table test of the signature-first
// probe: the signature only orders the checks, it never stands in for one.
func TestEMCProbeSignatureFirst(t *testing.T) {
	tb := NewTable()
	fl := tb.Add(10, MatchAll(), Actions{Output(2)}, 0)
	gen := tb.Generation()
	k := Key{InPort: 1, EthSrc: [6]byte{2, 0, 0, 0, 0, 1}, EthDst: [6]byte{2, 0, 0, 0, 0, 2},
		EthType: 0x0800, VlanID: 5, IPSrc: 0x0a000001, IPDst: 0x0a000002,
		IPProto: 17, IPDSCP: 46, L4Src: 5000, L4Dst: 9000}
	kp := k.Pack()
	h := kp.Hash64()

	t.Run("exact match stays exact", func(t *testing.T) {
		c := NewEMC(64)
		c.Put(&kp, h, fl, gen, always)
		if c.Probe(&kp, h, gen) != fl {
			t.Fatal("stored key missed")
		}
		// The entry's own signature and generation, a key one byte off: a
		// probe that trusted the signature would serve it.
		for i := range kp {
			near := kp
			near[i] ^= 0x01
			if got := c.Probe(&near, h, gen); got != nil {
				t.Fatalf("key differing in byte %d served under the entry's signature", i)
			}
		}
		// And the converse: the right key under a wrong signature or
		// generation is not this entry.
		if c.Probe(&kp, h^1<<63, gen) != nil {
			t.Fatal("entry served under a signature it was not stored with")
		}
		if c.Probe(&kp, h, gen+1) != nil {
			t.Fatal("entry served at a generation it was not cached at")
		}
		if c.Probe(&kp, h, gen) != fl {
			t.Fatal("the misses above disturbed the entry")
		}
	})

	t.Run("death-marked hit is scrubbed", func(t *testing.T) {
		tb := NewTable()
		doomed := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
		gen := tb.Generation()
		c := NewEMC(64)
		c.Put(&kp, h, doomed, gen, always)
		if !tb.DeleteStrict(10, MatchInPort(1)) {
			t.Fatal("delete failed")
		}
		if tb.Generation() != gen {
			t.Fatal("a delete moved the add/modify generation: the death mark is not what this test exercises")
		}
		if got := c.Probe(&kp, h, gen); got != nil {
			t.Fatalf("dead flow served: %v", got)
		}
		e := &c.entries[int(uint32(h)&c.mask)*emcWays]
		if e.gen != 0 || e.flow != nil {
			t.Fatalf("dead way not scrubbed: gen=%d flow=%v", e.gen, e.flow)
		}
		// A scrubbed way is the preferred victim: the next insertion into the
		// set takes it without evicting anything.
		if _, ev := c.Put(&kp, h, fl, gen, always); ev {
			t.Fatal("insertion over a scrubbed way reported an eviction")
		}
		if c.Probe(&kp, h, gen) != fl {
			t.Fatal("re-cached key missed")
		}
	})

	t.Run("adapter agrees with the probe", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		flows := []*Flow{fl, tb.Add(20, MatchInPort(2), Actions{Output(1)}, 0)}
		gen := tb.Generation()
		c := NewEMC(1024) // smaller than the key set: hits, misses and evictions
		const n = 10000
		keys := make([]Packed, n)
		for i := range keys {
			rk := Key{InPort: uint32(rng.Intn(4)), EthType: 0x0800, IPSrc: rng.Uint32(), IPDst: rng.Uint32(),
				IPProto: 17, L4Src: uint16(rng.Uint32()), L4Dst: uint16(rng.Uint32())}
			keys[i] = rk.Pack()
			if i%2 == 0 {
				c.Insert(keys[i], 0, flows[i%4/2], gen) // the adapter ignores the hash it is handed
			}
		}
		hits := 0
		for i := range keys {
			h := keys[i].Hash64()
			viaAdapter := c.Lookup(keys[i], uint32(h), gen)
			inPlace := c.Probe(&keys[i], h, gen)
			if viaAdapter != inPlace {
				t.Fatalf("key %d: Lookup = %v, Probe = %v", i, viaAdapter, inPlace)
			}
			if inPlace != nil {
				hits++
			}
		}
		if hits == 0 || hits == n {
			t.Fatalf("%d of %d probes hit: the comparison must cover both outcomes", hits, n)
		}
	})
}
