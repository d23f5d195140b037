package pkt_test

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"ovshighway/internal/flow/flowtest"
	"ovshighway/internal/pkt"
)

var be = binary.BigEndian

// checkTuple holds the one-pass walk to the parser on a single frame. Where
// Tuple succeeds, Parse decoded the same layers and FiveTuple returns the
// same tuple, and the two offsets point at those headers. Where FiveTuple
// succeeds and Tuple does not, the frame is one of the two shapes Tuple is
// documented to be stricter on: an IPv4 TotalLen outside [IHL, bytes present]
// or a non-first fragment. No allocation either way.
func checkTuple(t *testing.T, frame []byte) {
	t.Helper()
	var p pkt.Parser
	perr := p.Parse(frame)
	want, wantOK := pkt.FiveTuple{}, false
	if perr == nil {
		want, wantOK = p.FiveTuple()
	}
	var got pkt.FiveTuple
	at, ok := pkt.Tuple(frame, &got)
	l3 := pkt.EthernetLen
	if p.Decoded.Has(pkt.LayerVLAN) {
		l3 += pkt.VLANLen
	}
	switch {
	case ok && !wantOK:
		t.Fatalf("Tuple accepted %x (%+v); Parse err=%v decoded %#x has no 5-tuple", frame, got, perr, p.Decoded)
	case ok:
		if got != want {
			t.Fatalf("Tuple = %+v, Parse+FiveTuple = %+v on %x", got, want, frame)
		}
		if at.L3 != l3 || at.L4 != l3+p.IPv4.HeaderLen() || at.L4 > len(frame) {
			t.Fatalf("Tuple located L3 %d L4 %d, parser has them at %d and %d (%d-byte frame %x)",
				at.L3, at.L4, l3, l3+p.IPv4.HeaderLen(), len(frame), frame)
		}
	case wantOK:
		total, present := int(p.IPv4.TotalLen()), len(frame)-l3
		lying := total < p.IPv4.HeaderLen() || total > present
		fragment := be.Uint16(frame[l3+6:])&0x1fff != 0
		if !lying && !fragment {
			t.Fatalf("Tuple rejected %x; Parse+FiveTuple = %+v, TotalLen %d of %d present, not a fragment", frame, want, total, present)
		}
	}
	if n := testing.AllocsPerRun(5, func() { pkt.Tuple(frame, &got) }); n != 0 {
		t.Fatalf("Tuple allocates %v times per frame", n)
	}
}

// TestTupleSeeds runs every seed frame and every hostile frame at every
// truncation length, and pins which of them carry a tuple at full length.
func TestTupleSeeds(t *testing.T) {
	located := map[string]bool{
		"udp": true, "vlan-udp": true, "tcp": true, "icmp": true, "ihl6-udp": true,
		"first-fragment": true,
	}
	frames := flowtest.SeedFrames(t)
	for name, f := range flowtest.HostileFrames(t) {
		frames[name] = f
	}
	for name, frame := range frames {
		for cut := 0; cut <= len(frame); cut++ {
			checkTuple(t, frame[:cut])
		}
		var ft pkt.FiveTuple
		if _, ok := pkt.Tuple(frame, &ft); ok != located[name] {
			t.Errorf("Tuple(%s) ok = %v, want %v", name, ok, located[name])
		}
	}
	// The offsets are the headers: on the tagged, optioned frame too.
	for _, name := range []string{"vlan-udp", "ihl6-udp", "tcp"} {
		frame := frames[name]
		var ft pkt.FiveTuple
		at, _ := pkt.Tuple(frame, &ft)
		if be.Uint16(frame[at.L4:]) != ft.SrcPort || pkt.IP4(frame[at.L3+16:at.L3+20]) != ft.Dst {
			t.Errorf("%s: offsets L3 %d L4 %d do not address the tuple %+v", name, at.L3, at.L4, ft)
		}
	}
}

// mutateFrame overwrites up to three of the first 40 bytes — every length
// and type field lives there — and cuts the frame at a random length half
// the time.
func mutateFrame(rng *rand.Rand, frame []byte) []byte {
	frame = append([]byte(nil), frame...)
	for n := rng.Intn(4); n > 0; n-- {
		frame[rng.Intn(min(40, len(frame)))] = byte(rng.Intn(256))
	}
	if rng.Intn(2) == 0 {
		frame = frame[:rng.Intn(len(frame)+1)]
	}
	return frame
}

// Property: on a seed or hostile frame with a few bytes overwritten at random
// and a random cut, Tuple still agrees with Parse + FiveTuple.
func TestQuickTupleMatchesParser(t *testing.T) {
	var seeds [][]byte
	for _, f := range flowtest.SeedFrames(t) {
		seeds = append(seeds, f)
	}
	for _, f := range flowtest.HostileFrames(t) {
		seeds = append(seeds, f)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		checkTuple(t, mutateFrame(rng, seeds[rng.Intn(len(seeds))]))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTuple is the native fuzz target of the stateful VNFs' frame walk. Its
// seeds are the seed and hostile shapes (flowtest) plus every truncation
// length of the 64-byte ones.
func FuzzTuple(f *testing.F) {
	frames := flowtest.SeedFrames(f)
	for name, frame := range flowtest.HostileFrames(f) {
		frames[name] = frame
	}
	for _, frame := range frames {
		f.Add(frame)
		if len(frame) == 64 {
			for cut := 0; cut < len(frame); cut++ {
				f.Add(frame[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) { checkTuple(t, frame) })
}

// Property: ChecksumPatch equals a full re-sum. Random data with its checksum
// in word 0 and a last word that is never zero (no packet sums to +0: an IPv4
// header has its version, a pseudo-header its protocol); an aligned word pair
// (an address) or single word (a port) in between is overwritten, and
// patching the stored checksum for old → new gives what summing the new data
// from scratch gives — sparse data and complemented words included, the
// inputs that drive the sum to 0x0000 and 0xffff.
func TestQuickChecksumPatchMatchesResum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2*(5+rng.Intn(30)))
		if rng.Intn(4) != 0 {
			rng.Read(data[2:])
		}
		data[len(data)-1] |= 1
		be.PutUint16(data, pkt.Checksum(data))
		hc := be.Uint16(data)
		off := 2 + 2*rng.Intn(len(data)/2-3) // word-aligned, clear of both ends
		var old, neu uint32
		if rng.Intn(2) == 0 {
			old, neu = be.Uint32(data[off:]), rng.Uint32()
			if rng.Intn(4) == 0 {
				neu = ^old
			}
			be.PutUint32(data[off:], neu)
		} else {
			old, neu = uint32(be.Uint16(data[off:])), uint32(rng.Intn(1<<16))
			be.PutUint16(data[off:], uint16(neu))
		}
		got := pkt.ChecksumPatch(hc, old, neu)
		be.PutUint16(data, 0)
		if want := pkt.Checksum(data); got != want {
			t.Logf("seed %d: patched %#04x, re-sum %#04x (old %#08x new %#08x)", seed, got, want, old, neu)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50000}); err != nil {
		t.Fatal(err)
	}
}

// TestSetEndpointUnpaddedFrames rewrites both endpoints of the shortest UDP
// and TCP frames there are — no payload, no padding, so nothing lies past the
// transport header — and holds the result to a frame built from scratch.
func TestSetEndpointUnpaddedFrames(t *testing.T) {
	macA, macB := pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}
	ipA, ipB, ipC, ipD := pkt.IP4{10, 1, 2, 3}, pkt.IP4{10, 99, 0, 1}, pkt.IP4{192, 0, 2, 1}, pkt.IP4{10, 1, 0, 7}
	build := func(tcp bool, src, dst pkt.IP4, sport, dport uint16) []byte {
		raw := make([]byte, 64)
		var n int
		var err error
		if tcp {
			n, err = pkt.BuildTCP(raw, pkt.TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: src, DstIP: dst, SrcPort: sport, DstPort: dport, Flags: pkt.TCPSyn})
		} else {
			n, err = pkt.BuildUDP(raw, pkt.UDPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: src, DstIP: dst, SrcPort: sport, DstPort: dport})
		}
		if err != nil {
			t.Fatal(err)
		}
		return raw[:n:n]
	}
	for _, tcp := range []bool{false, true} {
		frame := build(tcp, ipA, ipB, 5001, 80)
		var ft pkt.FiveTuple
		at, ok := pkt.Tuple(frame, &ft)
		if !ok {
			t.Fatalf("tcp=%v: no tuple in %x", tcp, frame)
		}
		at.SetSrc(frame, ipC, 40000)
		at.SetDst(frame, ipD, 8080)
		if want := build(tcp, ipC, ipD, 40000, 8080); string(frame) != string(want) {
			t.Errorf("tcp=%v: rewritten frame differs from one built from scratch\n got %x\nwant %x", tcp, frame, want)
		}
	}
}
