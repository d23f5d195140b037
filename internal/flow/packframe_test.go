package flow_test

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ovshighway/internal/flow"
	"ovshighway/internal/flow/flowtest"
	"ovshighway/internal/pkt"
)

// checkPackFrame holds the datapath's header walk to two oracles on a single
// frame. Where pkt.Tuple locates a 5-tuple, the key carries that tuple.
// Everywhere, the key, the layers and the verdict equal the parser's —
// ExtractKey(Parse).Pack(), Parse's Decoded, an error only for a frame too
// short for Ethernet — except on the two shapes the walk is documented to be
// stricter on, which are asserted as such: an IPv4 header whose TotalLen is
// below its IHL or beyond the frame is keyed on L2 and EtherType alone, and
// a non-first fragment keeps its L3 fields but no ports and no L4 layer.
// The returned hash is Hash64 of the key written under the hash seed in
// force (every caller runs it under each of flowtest.Seeds), the L3 offset
// is the parser's, and nothing allocates.
func checkPackFrame(t *testing.T, frame []byte, inPort uint32) {
	t.Helper()
	var p pkt.Parser
	perr := p.Parse(frame)
	if (perr != nil) != (len(frame) < pkt.EthernetLen) || (perr != nil && !errors.Is(perr, pkt.ErrTruncated)) {
		t.Fatalf("Parse(%d bytes) = %v: only a frame too short for Ethernet is a parse error, ErrTruncated", len(frame), perr)
	}
	want := flow.ExtractKey(&p, inPort)
	wantLayers := p.Decoded
	l3 := pkt.EthernetLen
	if p.Decoded.Has(pkt.LayerVLAN) {
		l3 += pkt.VLANLen
	}
	const l4 = pkt.LayerUDP | pkt.LayerTCP | pkt.LayerICMP
	if p.Decoded.Has(pkt.LayerIPv4) {
		ip := frame[l3:]
		total := int(binary.BigEndian.Uint16(ip[2:4]))
		switch {
		case total < p.IPv4.HeaderLen() || total > len(ip):
			want = flow.Key{InPort: inPort, EthSrc: want.EthSrc, EthDst: want.EthDst, EthType: want.EthType, VlanID: want.VlanID}
			wantLayers &^= pkt.LayerIPv4 | l4
		case binary.BigEndian.Uint16(ip[6:8])&0x1fff != 0:
			want.L4Src, want.L4Dst = 0, 0
			wantLayers &^= l4
		}
	}
	var got flow.Packed
	got[35] = 0xff // PackFrame must overwrite, not merge
	hash, layers, gotL3, ok := flow.PackFrame(frame, inPort, &got)
	if ok != (perr == nil) {
		t.Fatalf("PackFrame ok = %v on a %d-byte frame, Parse err = %v", ok, len(frame), perr)
	}
	if wantKP := want.Pack(); got != wantKP {
		t.Fatalf("PackFrame key != the parser's on %x (in_port %d, decoded %#x)\n got %x\nwant %x",
			frame, inPort, p.Decoded, got, wantKP)
	}
	if layers != wantLayers {
		t.Fatalf("PackFrame decoded %#x, want %#x (parser %#x) on %x", layers, wantLayers, p.Decoded, frame)
	}
	if gotL3 != l3 {
		t.Fatalf("PackFrame put L3 at %d, the parser at %d, on %x", gotL3, l3, frame)
	}
	if hash != got.Hash64() {
		t.Fatalf("PackFrame returned %#x, Hash64 of the key it wrote is %#x, on %x (in_port %d)",
			hash, got.Hash64(), frame, inPort)
	}
	var ft pkt.FiveTuple
	if _, located := pkt.Tuple(frame, &ft); located {
		src, dst := pkt.IP4(got[20:24]), pkt.IP4(got[24:28])
		sport, dport := binary.BigEndian.Uint16(got[30:32]), binary.BigEndian.Uint16(got[32:34])
		if src != ft.Src || dst != ft.Dst || got[28] != ft.Proto || sport != ft.SrcPort || dport != ft.DstPort {
			t.Fatalf("PackFrame keyed %s:%d > %s:%d proto %d, pkt.Tuple located %+v, on %x",
				src, sport, dst, dport, got[28], ft, frame)
		}
	}
	if n := testing.AllocsPerRun(5, func() {
		h, _, _, _ := flow.PackFrame(frame, inPort, &got)
		sinkHash += h
	}); n != 0 {
		t.Fatalf("PackFrame allocates %v times per frame", n)
	}
}

var sinkHash uint64

// TestPackFrameSeeds runs every seed frame and every hostile frame at every
// truncation length.
func TestPackFrameSeeds(t *testing.T) {
	seeds := flowtest.SeedFrames(t)
	frames := flowtest.HostileFrames(t)
	for name, frame := range seeds {
		frames[name] = frame
	}
	for name, frame := range frames {
		flowtest.ForEachSeed(t, func(t *testing.T) {
			for cut := 0; cut <= len(frame); cut++ {
				checkPackFrame(t, frame[:cut], 7)
			}
		})
		var p pkt.Parser
		if _, seed := seeds[name]; seed {
			if err := p.Parse(frame); err != nil || p.Decoded == pkt.LayerEthernet {
				t.Errorf("seed %s decodes no further than Ethernet (%v): not the shape it is named for", name, err)
			}
		}
	}
}

// TestPackFrameFragments: the later fragments of one datagram share a key
// and a hash whatever their payload bytes, and carry no ports and no L4
// layer; the first fragment keys its real ports.
func TestPackFrameFragments(t *testing.T) {
	hostile := flowtest.HostileFrames(t)
	walk := func(frame []byte) (kp flow.Packed, hash uint64, layers pkt.Layers) {
		hash, layers, _, ok := flow.PackFrame(frame, 3, &kp)
		if !ok {
			t.Fatalf("PackFrame rejected %x", frame)
		}
		return kp, hash, layers
	}
	ports := func(kp flow.Packed) (uint16, uint16) {
		return binary.BigEndian.Uint16(kp[30:32]), binary.BigEndian.Uint16(kp[32:34])
	}
	const l4 = pkt.LayerUDP | pkt.LayerTCP | pkt.LayerICMP

	later := hostile["later-fragment"]
	other := append([]byte(nil), later...)
	for i := pkt.EthernetLen + pkt.IPv4MinLen; i < len(other); i++ {
		other[i] ^= 0x5a // a different stretch of the datagram's payload
	}
	k1, h1, layers := walk(later)
	k2, h2, _ := walk(other)
	if k1 != k2 || h1 != h2 {
		t.Errorf("two later fragments of one datagram keyed apart:\n%x %#x\n%x %#x", k1, h1, k2, h2)
	}
	if sp, dp := ports(k1); sp != 0 || dp != 0 || layers&l4 != 0 {
		t.Errorf("later fragment keyed ports %d/%d, layers %#x: its payload is not an L4 header", sp, dp, layers)
	}
	if pkt.IP4(k1[20:24]) != (pkt.IP4{10, 1, 2, 3}) || k1[28] != pkt.ProtoUDP || !layers.Has(pkt.LayerIPv4) {
		t.Errorf("later fragment lost its L3 key: %x, layers %#x", k1, layers)
	}
	if k, _, _ := walk(hostile["last-fragment"]); k != k1 {
		t.Errorf("last fragment keyed %x, later fragment %x", k, k1)
	}

	first, _, layers := walk(hostile["first-fragment"])
	if sp, dp := ports(first); sp != 5001 || dp != 2000 || !layers.Has(pkt.LayerUDP) {
		t.Errorf("first fragment keyed ports %d/%d, layers %#x: want its real 5001/2000", sp, dp, layers)
	}
}

// Property: on a seed or hostile frame with a few bytes overwritten at
// random and a random cut, PackFrame still meets both oracles.
func TestQuickPackFrameMatchesExtractKey(t *testing.T) {
	flowtest.ForEachSeed(t, quickPackFrame)
}

func quickPackFrame(t *testing.T) {
	var seeds [][]byte
	for _, f := range flowtest.SeedFrames(t) {
		seeds = append(seeds, f)
	}
	for _, f := range flowtest.HostileFrames(t) {
		seeds = append(seeds, f)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frame := append([]byte(nil), seeds[rng.Intn(len(seeds))]...)
		for n := rng.Intn(4); n > 0 && len(frame) > 0; n-- {
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
// the seed and hostile shapes above plus every truncation length of the
// 64-byte seed frames.
func FuzzPackFrame(f *testing.F) {
	for _, frame := range flowtest.SeedFrames(f) {
		f.Add(frame, uint32(1))
		if len(frame) == 64 {
			for cut := 0; cut < len(frame); cut++ {
				f.Add(frame[:cut], uint32(cut))
			}
		}
	}
	for _, frame := range flowtest.HostileFrames(f) {
		f.Add(frame, uint32(2))
	}
	f.Fuzz(func(t *testing.T, frame []byte, inPort uint32) {
		for _, seed := range flowtest.Seeds {
			flow.PinHashSeed(t, seed)
			checkPackFrame(t, frame, inPort)
		}
	})
}
