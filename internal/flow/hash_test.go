package flow_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"ovshighway/internal/flow"
	"ovshighway/internal/flow/flowtest"
	"ovshighway/internal/pkt"
)

// The default cache geometry (vswitch.Config): the EMC's 8192 entries are
// 4096 two-way sets, the SMC's 32768 entries 8192 four-way buckets, both
// indexed by the low bits of Hash.
const (
	emcSets    = 8192 / 2
	smcBuckets = 32768 / 4
)

// cacheLoads counts keys per EMC set and per SMC bucket.
func cacheLoads(keys []flow.Packed) (emc, smc []int) {
	emc, smc = make([]int, emcSets), make([]int, smcBuckets)
	for i := range keys {
		h := keys[i].Hash()
		emc[h&(emcSets-1)]++
		smc[h&(smcBuckets-1)]++
	}
	return emc, smc
}

// TestHash64CollisionFlood: 64k keys that the old unkeyed FNV-1a sent to
// one EMC set and one SMC bucket spread like uniform under the seeded hash.
func TestHash64CollisionFlood(t *testing.T) {
	keys := flowtest.FloodKeys(65536)
	want := uint16(flowtest.FNV1a(flowtest.FNVOffset, keys[0][:]))
	for i := range keys {
		if got := uint16(flowtest.FNV1a(flowtest.FNVOffset, keys[i][:])); got != want {
			t.Fatalf("flood key %d: old hash low bits %#04x, want %#04x: the flood does not flood", i, got, want)
		}
	}
	flowtest.ForEachSeed(t, func(t *testing.T) {
		emc, smc := cacheLoads(keys)
		flowtest.CheckSpread(t, "flood keys over EMC sets", emc)
		flowtest.CheckSpread(t, "flood keys over SMC buckets", smc)
	})
}

// TestHash64SequentialPorts is the nic1-flows64k pattern — one 5-tuple with
// the source port counting through all 65536 values: the keys fill the EMC
// sets like uniform, and no two agree on both halves of the hash, the pair
// an SMC entry is recognised by.
func TestHash64SequentialPorts(t *testing.T) {
	keys := make([]flow.Packed, 65536)
	for i := range keys {
		k := flow.Key{
			InPort: 1, EthType: pkt.EtherTypeIPv4,
			EthSrc: pkt.MAC{2, 0, 0, 0, 0, 1}, EthDst: pkt.MAC{2, 0, 0, 0, 0, 2},
			IPSrc: 0x0a000001, IPDst: 0x0a000002,
			IPProto: pkt.ProtoUDP, L4Src: uint16(i), L4Dst: 2000,
		}
		keys[i] = k.Pack()
	}
	flowtest.ForEachSeed(t, func(t *testing.T) {
		emc, smc := cacheLoads(keys)
		flowtest.CheckSpread(t, "sequential ports over EMC sets", emc)
		flowtest.CheckSpread(t, "sequential ports over SMC buckets", smc)
		seen := make(map[uint64]int, len(keys))
		for i := range keys {
			h := keys[i].Hash64()
			if keys[i].Hash() != uint32(h) || keys[i].Hash2() != uint32(h>>32) {
				t.Fatalf("key %d: Hash/Hash2 are not the halves of Hash64 %#x", i, h)
			}
			if j, dup := seen[h]; dup {
				t.Fatalf("source ports %d and %d agree on both hash halves (%#x)", j, i, h)
			}
			seen[h] = i
		}
	})
}

// TestHash64Avalanche: flipping any one key bit flips every output bit
// about half the time, so neither half — nor the EMC index bits, nor the
// SMC signature bits — follows a header field.
func TestHash64Avalanche(t *testing.T) {
	const trials = 4096
	const keyBits = 34 * 8 // the last two packed bytes are padding
	flowtest.ForEachSeed(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		var flips [keyBits][64]int
		for n := 0; n < trials; n++ {
			var kp flow.Packed
			rng.Read(kp[:34])
			h := kp.Hash64()
			for b := 0; b < keyBits; b++ {
				kp[b/8] ^= 1 << (b % 8)
				d := h ^ kp.Hash64()
				kp[b/8] ^= 1 << (b % 8)
				for ; d != 0; d &= d - 1 {
					flips[b][bits.TrailingZeros64(d)]++
				}
			}
		}
		for b := range flips {
			for o, n := range flips[b] {
				if p := float64(n) / trials; p < 0.44 || p > 0.56 {
					t.Fatalf("key bit %d flips hash bit %d in %.1f%% of %d trials, want about half", b, o, 100*p, trials)
				}
			}
		}
	})
}

// TestRSSHashSpreadsQueues: the RSS pick (the hash's high half modulo the
// queue count) spreads 1024 flows over 4 queues like uniform, whatever the
// seed.
func TestRSSHashSpreadsQueues(t *testing.T) {
	const queues = 4
	raw := make([]byte, 128)
	flowtest.ForEachSeed(t, func(t *testing.T) {
		loads := make([]int, queues)
		for fl := 0; fl < 1024; fl++ {
			n, err := pkt.BuildUDP(raw, pkt.UDPSpec{
				SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
				SrcIP: pkt.IP4{10, 0, 0, 1}, DstIP: pkt.IP4{10, 0, 0, 2},
				SrcPort: uint16(5000 + fl), DstPort: 2000, FrameLen: pkt.MinFrame,
			})
			if err != nil {
				t.Fatal(err)
			}
			h, ok := flow.RSSHash(raw[:n])
			if !ok {
				t.Fatalf("flow %d: frame did not parse", fl)
			}
			loads[h%queues]++
		}
		flowtest.CheckSpread(t, "flows over RSS queues", loads)
	})
}
