package flow_test

import (
	"math/rand"
	"testing"

	"ovshighway/internal/flow"
	"ovshighway/internal/flow/flowtest"
	"ovshighway/internal/pkt"
)

// scanKeys returns n distinct UDP keys (the source address and port count
// up) and their Hash64s under the current seed.
func scanKeys(n int) ([]flow.Packed, []uint64) {
	keys, hashes := make([]flow.Packed, n), make([]uint64, n)
	for i := range keys {
		k := flow.Key{
			InPort: 1, EthType: pkt.EtherTypeIPv4,
			IPSrc: 0x0a000000 + uint32(i>>16), IPDst: 0x0a630001,
			IPProto: pkt.ProtoUDP, L4Src: uint16(i), L4Dst: 80,
		}
		keys[i] = k.Pack()
		hashes[i] = keys[i].Hash64()
	}
	return keys, hashes
}

// tiers is an EMC and an SMC driven the way the PMD drives them: probe the
// EMC, then the SMC, and on a miss in both admit the key to each under one
// verdict, demoting a displaced EMC entry into the SMC.
type tiers struct {
	emc *flow.EMC
	smc *flow.SMC
	adm flow.Admission
}

// resolve runs one key through the tiers and reports which answered
// (0 = neither: the classifier's result f was admitted).
func (c *tiers) resolve(kp *flow.Packed, h uint64, f *flow.Flow, gen uint64) (tier int) {
	if c.emc.Probe(kp, h, gen) != nil {
		return 1
	}
	if hit, _ := c.smc.Probe(kp, h, gen); hit != nil {
		return 2
	}
	c.adm.Next()
	if v, ev := c.emc.Put(kp, h, f, gen, &c.adm); ev {
		c.smc.Put(v.Hash, v.Flow, gen, &c.adm)
	}
	c.smc.Put(h, f, gen, &c.adm)
	return 0
}

// TestAdmissionCyclicScanKeepsCapacityShare: a cyclic scan of 16× a tier's
// capacity is the pattern replace-on-every-miss never hits on. Under the
// default rule each tier holds on to what it has and serves about C/W of the
// scan from the third pass on; with InvProb=1 it serves nothing.
func TestAdmissionCyclicScanKeepsCapacityShare(t *testing.T) {
	const capacity, scan = 1024, 16 * 1024
	tb := flow.NewTable()
	fl := tb.Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	gen := tb.Generation()
	// pass3 scans three times and returns the third pass's hit share. Each
	// tier is measured alone, so the SMC's share is not reduced by the keys
	// the EMC answers first.
	pass3 := func(probe func(i int) bool, put func(i int)) float64 {
		hits := 0
		for pass := 0; pass < 3; pass++ {
			hits = 0
			for i := 0; i < scan; i++ {
				if probe(i) {
					hits++
				} else {
					put(i)
				}
			}
		}
		return float64(hits) / scan
	}
	flowtest.ForEachSeed(t, func(t *testing.T) {
		keys, hashes := scanKeys(scan)
		for _, inv := range []int{100, 1} {
			adm := flow.NewAdmission(0x9e3779b9, inv)
			emc, smc := flow.NewEMC(capacity), flow.NewSMC(capacity)
			emcShare := pass3(
				func(i int) bool { return emc.Probe(&keys[i], hashes[i], gen) != nil },
				func(i int) { adm.Next(); emc.Put(&keys[i], hashes[i], fl, gen, &adm) })
			smcShare := pass3(
				func(i int) bool { f, _ := smc.Probe(&keys[i], hashes[i], gen); return f != nil },
				func(i int) { adm.Next(); smc.Put(hashes[i], fl, gen, &adm) })
			const ideal = float64(capacity) / scan
			if inv == 1 {
				if emcShare > 0.1*ideal || smcShare > 0.1*ideal {
					t.Errorf("invprob 1: EMC serves %.4f, SMC %.4f of a cyclic scan; always-displace should serve about none", emcShare, smcShare)
				}
				continue
			}
			if emcShare < 0.8*ideal {
				t.Errorf("invprob %d: EMC serves %.4f of the scan, want at least 0.8 × C/W = %.4f", inv, emcShare, 0.8*ideal)
			}
			if smcShare < 0.8*ideal {
				t.Errorf("invprob %d: SMC serves %.4f of the scan, want at least 0.8 × C/W = %.4f", inv, smcShare, 0.8*ideal)
			}
		}
	})
}

// TestAdmissionVacantWaysNeedNoLuck: a working set of half a tier's capacity
// is resident after one pass whatever the lottery would have said, from
// "always" to "practically never": every key whose EMC set (two ways) and
// SMC bucket (four ways) is not over-subscribed by the set itself hits, and
// an over-subscribed one holds exactly as many as it has ways.
func TestAdmissionVacantWaysNeedNoLuck(t *testing.T) {
	const capacity, n = 1024, 512
	tb := flow.NewTable()
	fl := tb.Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	gen := tb.Generation()
	flowtest.ForEachSeed(t, func(t *testing.T) {
		keys, hashes := scanKeys(n)
		emcLoad, smcLoad := make(map[uint32]int), make(map[uint32]int)
		wantEMC, wantSMC := 0, 0
		for _, h := range hashes {
			set, bucket := uint32(h)&(capacity/2-1), uint32(h)&(capacity/4-1)
			if emcLoad[set] < 2 {
				wantEMC++
			}
			if smcLoad[bucket] < 4 {
				wantSMC++
			}
			emcLoad[set]++
			smcLoad[bucket]++
		}
		for _, inv := range []int{1, 2, 100, 1 << 30} {
			c := tiers{emc: flow.NewEMC(capacity), smc: flow.NewSMC(capacity), adm: flow.NewAdmission(7, inv)}
			for i := range keys {
				if tier := c.resolve(&keys[i], hashes[i], fl, gen); tier != 0 {
					t.Fatalf("invprob %d: key %d answered by tier %d on its first appearance", inv, i, tier)
				}
			}
			gotEMC, gotSMC := 0, 0
			for i := range keys {
				inEMC := c.emc.Probe(&keys[i], hashes[i], gen) != nil
				hit, _ := c.smc.Probe(&keys[i], hashes[i], gen)
				if inEMC {
					gotEMC++
				} else if emcLoad[uint32(hashes[i])&(capacity/2-1)] <= 2 {
					t.Fatalf("invprob %d: key %d not in the EMC although its set had room", inv, i)
				}
				if hit != nil {
					gotSMC++
				} else if smcLoad[uint32(hashes[i])&(capacity/4-1)] <= 4 {
					t.Fatalf("invprob %d: key %d not in the SMC although its bucket had room", inv, i)
				}
			}
			if gotEMC != wantEMC || gotSMC != wantSMC {
				t.Errorf("invprob %d: %d keys resident in the EMC and %d in the SMC, want %d and %d (every way that was vacant, no more)",
					inv, gotEMC, gotSMC, wantEMC, wantSMC)
			}
		}
	})
}

// TestAdmissionDeadWaysRefillWithoutADraw: after a delete death-marks half
// of what two full tiers hold, the next misses take exactly the dead ways —
// and a key that found one consumed no draw — while an admission that
// practically never wins keeps every live entry in place.
func TestAdmissionDeadWaysRefillWithoutADraw(t *testing.T) {
	const capacity = 256
	flowtest.ForEachSeed(t, func(t *testing.T) {
		tb := flow.NewTable()
		doomed := tb.Add(10, flow.MatchInPort(1).WithL4Dst(80), flow.Actions{flow.Output(2)}, 0)
		keeper := tb.Add(5, flow.MatchInPort(1), flow.Actions{flow.Output(3)}, 0)
		gen := tb.Generation()
		keys, hashes := scanKeys(64 * capacity)
		old, fresh := keys[:16*capacity], keys[16*capacity:]
		oldH, freshH := hashes[:16*capacity], hashes[16*capacity:]

		// Fill both tiers to the brim, every other key resolving to the flow
		// about to be deleted.
		c := tiers{emc: flow.NewEMC(capacity), smc: flow.NewSMC(capacity), adm: flow.NewAdmission(7, 1<<30)}
		owner := func(i int) *flow.Flow {
			if i%2 == 0 {
				return doomed
			}
			return keeper
		}
		for i := range old {
			c.resolve(&old[i], oldH[i], owner(i), gen)
		}
		deadEMC, deadSMC := 0, 0
		var liveEMC, liveSMC []int
		for i := range old {
			inEMC := c.emc.Probe(&old[i], oldH[i], gen) != nil
			hit, _ := c.smc.Probe(&old[i], oldH[i], gen)
			switch {
			case inEMC && i%2 == 0:
				deadEMC++
			case inEMC:
				liveEMC = append(liveEMC, i)
			}
			switch {
			case hit != nil && i%2 == 0:
				deadSMC++
			case hit != nil:
				liveSMC = append(liveSMC, i)
			}
		}
		if deadEMC+len(liveEMC) != capacity || deadSMC+len(liveSMC) != capacity {
			t.Fatalf("tiers not full before the delete: EMC %d, SMC %d of %d", deadEMC+len(liveEMC), deadSMC+len(liveSMC), capacity)
		}
		if deadEMC == 0 || deadSMC == 0 || len(liveEMC) == 0 || len(liveSMC) == 0 {
			t.Fatalf("fill did not mix the two flows: EMC %d/%d, SMC %d/%d", deadEMC, len(liveEMC), deadSMC, len(liveSMC))
		}

		if !tb.DeleteStrict(10, flow.MatchInPort(1).WithL4Dst(80)) {
			t.Fatal("delete failed")
		}
		if tb.Generation() != gen {
			t.Fatal("a delete moved the add/modify generation: the death mark is not what this test exercises")
		}

		tookEMC, tookSMC := 0, 0
		for i := range fresh {
			if c.emc.Probe(&fresh[i], freshH[i], gen) != nil {
				t.Fatalf("fresh key %d hit the EMC", i)
			}
			c.adm.Next()
			before := c.adm
			if _, ev := c.emc.Put(&fresh[i], freshH[i], keeper, gen, &c.adm); ev {
				t.Fatalf("fresh key %d evicted a live EMC entry under an admission that never wins", i)
			}
			if c.emc.Probe(&fresh[i], freshH[i], gen) != nil {
				tookEMC++
				if c.adm != before {
					t.Fatalf("fresh key %d took a dead EMC way and still consumed a draw", i)
				}
			}
			c.adm.Next()
			before = c.adm
			c.smc.Put(freshH[i], keeper, gen, &c.adm)
			if hit, _ := c.smc.Probe(&fresh[i], freshH[i], gen); hit != nil {
				tookSMC++
				if c.adm != before {
					t.Fatalf("fresh key %d took a dead SMC way and still consumed a draw", i)
				}
			}
		}
		if tookEMC != deadEMC || tookSMC != deadSMC {
			t.Errorf("fresh keys took %d EMC and %d SMC ways, want exactly the %d and %d the delete freed", tookEMC, tookSMC, deadEMC, deadSMC)
		}
		for _, i := range liveEMC {
			if c.emc.Probe(&old[i], oldH[i], gen) == nil {
				t.Fatalf("live key %d lost its EMC entry to the refill", i)
			}
		}
		for _, i := range liveSMC {
			if hit, _ := c.smc.Probe(&old[i], oldH[i], gen); hit == nil {
				t.Fatalf("live key %d lost its SMC entry to the refill", i)
			}
		}
	})
}

// refTiers is the replace-on-every-miss policy the tiers had before the
// admission rule, written as lists: an EMC set is its keys newest first, at
// most two; an SMC bucket is four ways filled lowest-vacant-first and then
// overwritten round-robin by one cursor shared across buckets.
type refTiers struct {
	emcMask, smcMask uint32
	emc              map[uint32][]uint64
	smc              map[uint32]*[4]uint64
	cursor           uint32
}

func (r *refTiers) putEMC(h uint64) (victim uint64, evicted bool) {
	s := uint32(h) & r.emcMask
	for _, x := range r.emc[s] {
		if x == h {
			return 0, false
		}
	}
	set := append([]uint64{h}, r.emc[s]...)
	if len(set) > 2 {
		victim, evicted = set[2], true
		set = set[:2]
	}
	r.emc[s] = set
	return victim, evicted
}

func (r *refTiers) putSMC(h uint64) {
	b := uint32(h) & r.smcMask
	ways := r.smc[b]
	if ways == nil {
		ways = new([4]uint64)
		r.smc[b] = ways
	}
	vacant := -1
	for w, x := range ways {
		if x == h {
			return
		}
		if x == 0 && vacant < 0 {
			vacant = w
		}
	}
	if vacant < 0 {
		vacant = int(r.cursor % 4)
		r.cursor++
	}
	ways[vacant] = h
}

func (r *refTiers) has(h uint64) (emc, smc bool) {
	for _, x := range r.emc[uint32(h)&r.emcMask] {
		emc = emc || x == h
	}
	if ways := r.smc[uint32(h)&r.smcMask]; ways != nil {
		for _, x := range ways {
			smc = smc || x == h
		}
	}
	return emc, smc
}

// TestAdmissionInvProbOneIsAlwaysDisplace: at InvProb=1 the tiers replay the
// old policy exactly — same victims, same residents after every step of a
// random trace — and never draw.
func TestAdmissionInvProbOneIsAlwaysDisplace(t *testing.T) {
	const capacity = 64
	tb := flow.NewTable()
	fl := tb.Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	gen := tb.Generation()
	flowtest.ForEachSeed(t, func(t *testing.T) {
		keys, hashes := scanKeys(8 * capacity)
		byHash := make(map[uint64]int, len(keys))
		for i, h := range hashes {
			byHash[h] = i
		}
		c := tiers{emc: flow.NewEMC(capacity), smc: flow.NewSMC(capacity), adm: flow.NewAdmission(7, 1)}
		ref := refTiers{emcMask: capacity/2 - 1, smcMask: capacity/4 - 1,
			emc: make(map[uint32][]uint64), smc: make(map[uint32]*[4]uint64)}
		start := c.adm
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 20000; step++ {
			i := rng.Intn(len(keys))
			inEMC, inSMC := ref.has(hashes[i])
			want := 0
			switch {
			case inEMC:
				want = 1
			case inSMC:
				want = 2
			}
			if got := c.resolve(&keys[i], hashes[i], fl, gen); got != want {
				t.Fatalf("step %d, key %d: answered by tier %d, the old policy says %d", step, i, got, want)
			}
			if want == 0 {
				if v, ev := ref.putEMC(hashes[i]); ev {
					ref.putSMC(v)
				}
				ref.putSMC(hashes[i])
			}
		}
		if c.adm != start {
			t.Fatal("InvProb=1 consumed a draw")
		}
		if st := c.emc.Stats(); st.Conflicts == 0 {
			t.Fatal("the trace never displaced a live EMC entry")
		}
	})
}

// TestSMCAdaptersAgreeWithProbe: the frozen Lookup/Insert signatures
// bench/layers.go still calls are Probe and an always-displacing Put under
// the key's own hash, whatever hash they are handed.
func TestSMCAdaptersAgreeWithProbe(t *testing.T) {
	tb := flow.NewTable()
	flows := []*flow.Flow{
		tb.Add(10, flow.MatchAll(), flow.Actions{flow.Output(2)}, 0),
		tb.Add(20, flow.MatchInPort(2), flow.Actions{flow.Output(1)}, 0),
	}
	gen := tb.Generation()
	rng := rand.New(rand.NewSource(17))
	viaAdapter, viaPut := flow.NewSMC(1024), flow.NewSMC(1024) // smaller than the key set: hits, misses and evictions
	var always flow.Admission
	const n = 10000
	keys := make([]flow.Packed, n)
	for i := range keys {
		rk := flow.Key{InPort: uint32(rng.Intn(4)), EthType: 0x0800, IPSrc: rng.Uint32(), IPDst: rng.Uint32(),
			IPProto: 17, L4Src: uint16(rng.Uint32()), L4Dst: uint16(rng.Uint32())}
		keys[i] = rk.Pack()
		if i%2 == 0 {
			f := flows[0]
			if rk.InPort == 2 {
				f = flows[1]
			}
			viaAdapter.Insert(&keys[i], 0, f, gen) // the adapter ignores the hash it is handed
			viaPut.Put(keys[i].Hash64(), f, gen, &always)
		}
	}
	hits := 0
	for i := range keys {
		h := keys[i].Hash64()
		got := viaAdapter.Lookup(&keys[i], uint32(h>>7), gen)
		want, _ := viaPut.Probe(&keys[i], h, gen)
		if inPlace, _ := viaAdapter.Probe(&keys[i], h, gen); got != want || got != inPlace {
			t.Fatalf("key %d: Lookup = %v, Probe on the same cache = %v, Probe on the Put-filled cache = %v", i, got, inPlace, want)
		}
		if got != nil {
			hits++
		}
	}
	if hits == 0 || hits == n {
		t.Fatalf("%d of %d probes hit: the comparison must cover both outcomes", hits, n)
	}
	if st := viaAdapter.Stats(); st != (flow.SMCStats{}) {
		t.Fatalf("the adapters touched the counters: %+v", st)
	}
}
