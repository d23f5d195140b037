package flow_test

import (
	"math/rand"
	"sort"
	"testing"

	"ovshighway/internal/flow"
	"ovshighway/internal/flow/flowtest"
	"ovshighway/internal/pkt"
)

// TestPackedWordOpsMatchByteLoops holds the word-wise And, MaskedEqual and
// Equal to the byte loops they replaced, on random inputs and on inputs one
// bit away from equal in every position.
func TestPackedWordOpsMatchByteLoops(t *testing.T) {
	andBytes := func(p, m flow.Packed) (out flow.Packed) {
		for i := range p {
			out[i] = p[i] & m[i]
		}
		return out
	}
	maskedEqualBytes := func(p, mask, want *flow.Packed) bool {
		for i := range p {
			if p[i]&mask[i] != want[i] {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20000; trial++ {
		var p, m flow.Packed
		rng.Read(p[:])
		rng.Read(m[:])
		if trial%3 == 0 {
			for i := range m { // sparse masks: whole fields on or off
				if rng.Intn(2) == 0 {
					m[i] = 0
				} else {
					m[i] = 0xff
				}
			}
		}
		want := andBytes(p, m)
		if got := p.And(m); got != want {
			t.Fatalf("And(%x, %x) = %x, byte loop gives %x", p, m, got, want)
		}
		if !p.MaskedEqual(&m, &want) || !maskedEqualBytes(&p, &m, &want) {
			t.Fatalf("MaskedEqual(%x, %x) rejects the key's own masked image", p, m)
		}
		if !want.Equal(&want) {
			t.Fatalf("Equal(%x, itself) = false", want)
		}
		for bit := 0; bit < len(p)*8; bit++ {
			near := want
			near[bit/8] ^= 1 << (bit % 8)
			if got, ref := p.MaskedEqual(&m, &near), maskedEqualBytes(&p, &m, &near); got != ref || got {
				t.Fatalf("MaskedEqual against an image off in bit %d = %v, byte loop gives %v, want false", bit, got, ref)
			}
			if want.Equal(&near) || near.Equal(&want) {
				t.Fatalf("Equal ignores bit %d", bit)
			}
		}
	}
}

// refClassifier is the classifier the flat subtables replaced, kept as the
// model they are held to: one Go map per mask from masked key to the flows
// matching exactly it, highest priority first.
type refClassifier map[flow.Packed]map[flow.Packed][]*flow.Flow

func newRefClassifier(flows []*flow.Flow) refClassifier {
	r := make(refClassifier)
	for _, f := range flows {
		mask := f.Match.Mask.Pack()
		if r[mask] == nil {
			r[mask] = make(map[flow.Packed][]*flow.Flow)
		}
		masked := f.Match.Key.Pack().And(mask)
		r[mask][masked] = append(r[mask][masked], f)
	}
	for _, entries := range r {
		for _, dup := range entries {
			sort.SliceStable(dup, func(i, j int) bool { return dup[i].Priority > dup[j].Priority })
		}
	}
	return r
}

// winners returns every flow the model ranks first for kp: the head of each
// subtable's entry, kept when no other head outranks it. More than one means
// two masks tie on priority, and the walk may return either.
func (r refClassifier) winners(kp *flow.Packed) (best []*flow.Flow) {
	for mask, entries := range r {
		dup := entries[kp.And(mask)]
		if len(dup) == 0 {
			continue
		}
		switch {
		case len(best) == 0 || dup[0].Priority > best[0].Priority:
			best = append(best[:0], dup[0])
		case dup[0].Priority == best[0].Priority:
			best = append(best, dup[0])
		}
	}
	return best
}

// TestClassifierFlatSubtablesAgainstMapModel drives a table through
// interleaved adds, deletes, in-place modifies and re-ranks — random masks,
// a few priorities so subtables tie and the early exit has a bound to stop
// at, several flows per masked key — and after every mutation compares
// LookupPacked with the map model on 500 random keys: the same winner (one
// of the tied winners when masks tie), and a miss exactly when the model
// misses. 100 000 lookups per seed.
func TestClassifierFlatSubtablesAgainstMapModel(t *testing.T) {
	randMatch := func(rng *rand.Rand) flow.Match {
		m := flow.MatchAll()
		if rng.Intn(3) > 0 {
			m = flow.MatchInPort(uint32(rng.Intn(4)))
		}
		if rng.Intn(3) == 0 {
			m = m.WithIPProto([]uint8{pkt.ProtoUDP, pkt.ProtoTCP}[rng.Intn(2)])
		}
		if rng.Intn(3) == 0 {
			m = m.WithIPSrc(pkt.IP4FromUint32(0x0a000000+rng.Uint32()%16), 28+rng.Intn(5))
		}
		if rng.Intn(3) == 0 {
			m = m.WithIPDst(pkt.IP4FromUint32(0x0a000000+rng.Uint32()%16), 24+rng.Intn(9))
		}
		if rng.Intn(4) == 0 {
			m = m.WithL4Dst(uint16(80 + rng.Intn(4)))
		}
		if rng.Intn(6) == 0 {
			m = m.WithVlan(uint16(1 + rng.Intn(2)))
		}
		return m
	}
	randKey := func(rng *rand.Rand) flow.Key {
		return flow.Key{
			InPort: uint32(rng.Intn(5)), EthType: pkt.EtherTypeIPv4, VlanID: uint16(rng.Intn(3)),
			IPSrc: 0x0a000000 + rng.Uint32()%16, IPDst: 0x0a000000 + rng.Uint32()%16,
			IPProto: []uint8{pkt.ProtoUDP, pkt.ProtoTCP, pkt.ProtoICMP}[rng.Intn(3)],
			L4Src:   uint16(rng.Intn(4)), L4Dst: uint16(78 + rng.Intn(8)),
		}
	}
	flowtest.ForEachSeed(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		tb := flow.NewTable()
		var misses, ties, hits int
		for round := 0; round < 200; round++ {
			live := tb.Snapshot()
			switch op := rng.Intn(10); {
			case op < 5 || len(live) < 8:
				// Add: a new match, or an existing match at another priority —
				// a second flow behind the same masked key.
				m := randMatch(rng)
				if len(live) > 0 && rng.Intn(3) == 0 {
					m = live[rng.Intn(len(live))].Match
				}
				tb.Add(uint16(10*rng.Intn(5)), m, flow.Actions{flow.Output(uint32(round))}, uint64(round))
			case op < 7:
				v := live[rng.Intn(len(live))]
				tb.DeleteStrict(v.Priority, v.Match)
			case op < 9:
				// Modify: same priority and match, new actions — the old flow
				// is replaced and must never be returned again.
				v := live[rng.Intn(len(live))]
				tb.Add(v.Priority, v.Match, flow.Actions{flow.Output(uint32(1000 + round))}, uint64(round))
			default:
				tb.Rerank()
			}
			ref := newRefClassifier(tb.Snapshot())
			for probe := 0; probe < 500; probe++ {
				k := randKey(rng)
				kp := k.Pack()
				got := tb.LookupPacked(&kp)
				want := ref.winners(&kp)
				if got == nil || len(want) == 0 {
					if got != nil || len(want) != 0 {
						t.Fatalf("round %d, key %+v: flat table returned %v, the map model %v", round, k, got, want)
					}
					misses++
					continue
				}
				ok := false
				for _, w := range want {
					ok = ok || w == got
				}
				if !ok {
					t.Fatalf("round %d, key %+v: flat table returned %v, the map model ranks %v first", round, k, got, want)
				}
				if len(want) > 1 {
					ties++
				}
				hits++
			}
		}
		if misses == 0 || ties == 0 || hits < 10*misses/100 {
			t.Fatalf("%d hits, %d misses, %d cross-mask ties: the keys must exercise all three", hits, misses, ties)
		}
	})
}
