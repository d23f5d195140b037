package flow_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ovshighway/internal/flow"
	"ovshighway/internal/flow/flowtest"
	"ovshighway/internal/pkt"
)

// checkPackFrame holds the one-pass key path to the control-plane one on a
// single frame: same parse verdict as ever (the parser is untouched, so this
// pins that PackFrame neither needs nor adds a length check), the same 36
// bytes, the returned hash equal to Hash64 of those bytes under the hash seed
// in force (every caller runs it under each of flowtest.Seeds), no
// allocation.
func checkPackFrame(t *testing.T, frame []byte, inPort uint32) {
	t.Helper()
	var p pkt.Parser
	perr := p.Parse(frame)
	if (perr != nil) != (len(frame) < pkt.EthernetLen) {
		t.Fatalf("Parse(%d bytes) = %v: only a frame too short for Ethernet is a parse error", len(frame), perr)
	}
	k := flow.ExtractKey(&p, inPort)
	want := k.Pack()
	var got flow.Packed
	got[35] = 0xff // PackFrame must overwrite, not merge
	hash := flow.PackFrame(&p, frame, inPort, &got)
	if got != want {
		t.Fatalf("PackFrame != ExtractKey().Pack() on %x (in_port %d, decoded %#x)\n got %x\nwant %x",
			frame, inPort, p.Decoded, got, want)
	}
	if hash != want.Hash64() {
		t.Fatalf("PackFrame returned %#x, Hash64 of the key it wrote is %#x, on %x (in_port %d, decoded %#x)",
			hash, want.Hash64(), frame, inPort, p.Decoded)
	}
	if n := testing.AllocsPerRun(5, func() {
		sinkHash += flow.PackFrame(&p, frame, inPort, &got)
	}); n != 0 {
		t.Fatalf("PackFrame allocates %v times per frame", n)
	}
}

var sinkHash uint64

// TestPackFrameSeeds runs every seed frame at every truncation length.
func TestPackFrameSeeds(t *testing.T) {
	for name, frame := range flowtest.SeedFrames(t) {
		flowtest.ForEachSeed(t, func(t *testing.T) {
			for cut := 0; cut <= len(frame); cut++ {
				checkPackFrame(t, frame[:cut], 7)
			}
		})
		var p pkt.Parser
		if err := p.Parse(frame); err != nil || p.Decoded == pkt.LayerEthernet {
			t.Errorf("seed %s decodes no further than Ethernet (%v): not the shape it is named for", name, err)
		}
	}
}

// Property: on a seed frame with a few bytes overwritten at random and a
// random cut, PackFrame still equals ExtractKey().Pack() and returns its
// Hash64.
func TestQuickPackFrameMatchesExtractKey(t *testing.T) {
	flowtest.ForEachSeed(t, quickPackFrame)
}

func quickPackFrame(t *testing.T) {
	var seeds [][]byte
	for _, f := range flowtest.SeedFrames(t) {
		seeds = append(seeds, f)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frame := append([]byte(nil), seeds[rng.Intn(len(seeds))]...)
		for n := rng.Intn(4); n > 0; n-- {
			// The first 40 bytes hold every length and type field.
			frame[rng.Intn(min(40, len(frame)))] = byte(rng.Intn(256))
		}
		if rng.Intn(2) == 0 {
			frame = frame[:rng.Intn(len(frame)+1)]
		}
		checkPackFrame(t, frame, rng.Uint32())
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPackFrame is the native fuzz target of the key path. Its seeds are
// the shapes above plus every truncation length of the 64-byte frames.
func FuzzPackFrame(f *testing.F) {
	for _, frame := range flowtest.SeedFrames(f) {
		f.Add(frame, uint32(1))
		if len(frame) == 64 {
			for cut := 0; cut < len(frame); cut++ {
				f.Add(frame[:cut], uint32(cut))
			}
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte, inPort uint32) {
		for _, seed := range flowtest.Seeds {
			flow.PinHashSeed(t, seed)
			checkPackFrame(t, frame, inPort)
		}
	})
}
