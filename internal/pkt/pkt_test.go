package pkt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

var (
	macA = MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = MAC{0x02, 0, 0, 0, 0, 0x0b}
	ipA  = IP4{10, 0, 0, 1}
	ipB  = IP4{10, 0, 0, 2}
)

func buildTestUDP(t testing.TB, payload []byte, frameLen int) []byte {
	t.Helper()
	buf := make([]byte, 2048)
	n, err := BuildUDP(buf, UDPSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: ipA, DstIP: ipB,
		SrcPort: 1234, DstPort: 5678,
		Payload:  payload,
		FrameLen: frameLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

func TestMACString(t *testing.T) {
	if got := macA.String(); got != "02:00:00:00:00:0a" {
		t.Errorf("MAC.String() = %q", got)
	}
	bc := MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if !bc.IsBroadcast() || !bc.IsMulticast() {
		t.Error("broadcast flags wrong")
	}
	if macA.IsBroadcast() || macA.IsMulticast() {
		t.Error("unicast misclassified")
	}
}

func TestIP4Conversions(t *testing.T) {
	a := IP4{192, 168, 1, 20}
	if a.String() != "192.168.1.20" {
		t.Errorf("String = %q", a.String())
	}
	if IP4FromUint32(a.Uint32()) != a {
		t.Error("Uint32 round-trip failed")
	}
}

func TestBuildParseUDPRoundTrip(t *testing.T) {
	payload := []byte("ping-payload")
	frame := buildTestUDP(t, payload, 0)

	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	want := LayerEthernet | LayerIPv4 | LayerUDP
	if !p.Decoded.Has(want) {
		t.Fatalf("Decoded = %b, want at least %b", p.Decoded, want)
	}
	if p.Eth.Src() != macA || p.Eth.Dst() != macB {
		t.Error("MAC mismatch")
	}
	if p.Eth.EtherType() != EtherTypeIPv4 {
		t.Error("ethertype mismatch")
	}
	if p.IPv4.Src() != ipA || p.IPv4.Dst() != ipB {
		t.Error("IP mismatch")
	}
	if p.IPv4.Proto() != ProtoUDP || p.IPv4.TTL() != 64 {
		t.Error("proto/ttl mismatch")
	}
	if !p.IPv4.VerifyChecksum() {
		t.Error("IPv4 checksum invalid")
	}
	if p.UDP.SrcPort() != 1234 || p.UDP.DstPort() != 5678 {
		t.Error("port mismatch")
	}
	if !bytes.Equal(p.L4Payload, payload) {
		t.Errorf("payload = %q, want %q", p.L4Payload, payload)
	}
}

func TestBuildUDPPadsToMinFrame(t *testing.T) {
	frame := buildTestUDP(t, []byte{1, 2}, MinFrame)
	if len(frame) != MinFrame {
		t.Fatalf("frame len = %d, want %d", len(frame), MinFrame)
	}
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	// The UDP length field bounds the payload despite the padding.
	if !bytes.Equal(p.L4Payload, []byte{1, 2}) {
		t.Errorf("payload = %v", p.L4Payload)
	}
}

func TestUDPChecksumValidates(t *testing.T) {
	frame := buildTestUDP(t, []byte("data"), 0)
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	// Verify by recomputing over the segment with the checksum zeroed.
	seg := make([]byte, int(p.UDP.Length()))
	copy(seg, p.IPv4.Payload())
	stored := be.Uint16(seg[6:8])
	seg[6], seg[7] = 0, 0
	if got := L4Checksum(ipA, ipB, ProtoUDP, seg); got != stored {
		t.Errorf("UDP checksum: stored %04x, computed %04x", stored, got)
	}
}

func TestBuildParseTCPRoundTrip(t *testing.T) {
	buf := make([]byte, 256)
	n, err := BuildTCP(buf, TCPSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: ipA, DstIP: ipB,
		SrcPort: 80, DstPort: 4000,
		Seq: 1000, Ack: 2000,
		Flags:   TCPSyn | TCPAck,
		Payload: []byte("abc"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	if err := p.Parse(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if !p.Decoded.Has(LayerTCP) {
		t.Fatal("TCP not decoded")
	}
	if p.TCP.SrcPort() != 80 || p.TCP.DstPort() != 4000 {
		t.Error("ports mismatch")
	}
	if p.TCP.Seq() != 1000 || p.TCP.Ack() != 2000 {
		t.Error("seq/ack mismatch")
	}
	if p.TCP.Flags() != TCPSyn|TCPAck {
		t.Errorf("flags = %b", p.TCP.Flags())
	}
	if string(p.L4Payload) != "abc" {
		t.Errorf("payload = %q", p.L4Payload)
	}
	// Verify the TCP checksum.
	seg := make([]byte, len(p.IPv4.Payload()))
	copy(seg, p.IPv4.Payload())
	stored := be.Uint16(seg[16:18])
	seg[16], seg[17] = 0, 0
	if got := L4Checksum(ipA, ipB, ProtoTCP, seg); got != stored {
		t.Errorf("TCP checksum: stored %04x computed %04x", stored, got)
	}
}

func TestBuildParseARPRoundTrip(t *testing.T) {
	buf := make([]byte, 128)
	n, err := BuildARP(buf, ARPRequest, macA, ipA, MAC{}, ipB)
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	if err := p.Parse(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if !p.Decoded.Has(LayerARP) {
		t.Fatal("ARP not decoded")
	}
	if !p.Eth.Dst().IsBroadcast() {
		t.Error("ARP request not broadcast")
	}
	if p.ARP.Op() != ARPRequest || p.ARP.SenderMAC() != macA || p.ARP.SenderIP() != ipA || p.ARP.TargetIP() != ipB {
		t.Error("ARP fields mismatch")
	}
}

func TestParseVLAN(t *testing.T) {
	inner := buildTestUDP(t, []byte("x"), 0)
	// Splice a VLAN tag after the MACs.
	frame := make([]byte, 0, len(inner)+4)
	frame = append(frame, inner[:12]...)
	frame = append(frame, 0x81, 0x00, 0x00, 0x64) // TPID 8100, VID 100
	frame = append(frame, inner[12:]...)

	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	if !p.Decoded.Has(LayerVLAN | LayerIPv4 | LayerUDP) {
		t.Fatalf("Decoded = %b", p.Decoded)
	}
	if p.VLAN.VID() != 100 {
		t.Errorf("VID = %d, want 100", p.VLAN.VID())
	}
}

func TestBuildUDPWithVlanTag(t *testing.T) {
	buf := make([]byte, 2048)
	n, err := BuildUDP(buf, UDPSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: ipA, DstIP: ipB,
		SrcPort: 1234, DstPort: 5678,
		VlanID:   42,
		FrameLen: MinFrame,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame := buf[:n]
	if n < MinFrame {
		t.Fatalf("frame %d bytes, want >= %d", n, MinFrame)
	}
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	if !p.Decoded.Has(LayerVLAN | LayerIPv4 | LayerUDP) {
		t.Fatalf("Decoded = %b", p.Decoded)
	}
	if p.VLAN.VID() != 42 {
		t.Errorf("VID = %d, want 42", p.VLAN.VID())
	}
	if p.UDP.DstPort() != 5678 {
		t.Errorf("inner UDP dst port = %d", p.UDP.DstPort())
	}
	if vid, ok := FrameVlanID(frame); !ok || vid != 42 {
		t.Errorf("FrameVlanID = %d,%v, want 42,true", vid, ok)
	}
	if _, ok := FrameVlanID(buildTestUDP(t, nil, MinFrame)); ok {
		t.Error("FrameVlanID reported a tag on an untagged frame")
	}
}

func TestPushPopVlanRoundTrip(t *testing.T) {
	orig := buildTestUDP(t, []byte("payload"), 0)

	// Push: grow the head by VLANLen, original frame at offset VLANLen.
	grown := make([]byte, len(orig)+VLANLen)
	copy(grown[VLANLen:], orig)
	if err := PushVlan(grown, 7, 3); err != nil {
		t.Fatal(err)
	}
	var p Parser
	if err := p.Parse(grown); err != nil {
		t.Fatal(err)
	}
	if !p.Decoded.Has(LayerVLAN | LayerUDP) {
		t.Fatalf("tagged frame Decoded = %b", p.Decoded)
	}
	if p.VLAN.VID() != 7 || p.VLAN.PCP() != 3 {
		t.Fatalf("tag = vid %d pcp %d, want 7/3", p.VLAN.VID(), p.VLAN.PCP())
	}
	if p.Eth.Src() != macA || p.Eth.Dst() != macB {
		t.Fatal("push displaced the MAC addresses")
	}

	// Pop: MACs move back; untagged packet starts at VLANLen.
	vid, err := PopVlan(grown)
	if err != nil {
		t.Fatal(err)
	}
	if vid != 7 {
		t.Fatalf("PopVlan vid = %d, want 7", vid)
	}
	if !bytes.Equal(grown[VLANLen:], orig) {
		t.Fatal("pop did not restore the original frame")
	}
}

func TestPopVlanRejectsUntagged(t *testing.T) {
	frame := buildTestUDP(t, nil, MinFrame)
	if _, err := PopVlan(frame); err == nil {
		t.Fatal("PopVlan accepted an untagged frame")
	}
	if err := PushVlan(make([]byte, 10), 1, 0); err == nil {
		t.Fatal("PushVlan accepted a runt frame")
	}
}

func TestParseTruncatedStopsCleanly(t *testing.T) {
	frame := buildTestUDP(t, bytes.Repeat([]byte{9}, 32), 0)
	var p Parser
	for cut := len(frame) - 1; cut >= 0; cut-- {
		err := p.Parse(frame[:cut])
		if cut < EthernetLen {
			if err == nil {
				t.Fatalf("cut %d: want error for sub-ethernet frame", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		if !p.Decoded.Has(LayerEthernet) {
			t.Fatalf("cut %d: ethernet not decoded", cut)
		}
	}
}

func TestDecodeIPv4Validation(t *testing.T) {
	b := make([]byte, 20)
	b[0] = 0x65 // version 6
	if _, err := DecodeIPv4(b); err == nil {
		t.Error("version 6 accepted by DecodeIPv4")
	}
	b[0] = 0x4f // IHL 15*4=60 > len
	if _, err := DecodeIPv4(b); err == nil {
		t.Error("oversized IHL accepted")
	}
	b[0] = 0x42 // IHL 2*4=8 < 20
	if _, err := DecodeIPv4(b); err == nil {
		t.Error("undersized IHL accepted")
	}
}

// TestDecodeErrorsAreSentinels: every decode failure is one of the
// package's error values, so a flood of malformed frames allocates nothing.
func TestDecodeErrorsAreSentinels(t *testing.T) {
	ip := make([]byte, 20)
	var p Parser
	frame, ip6, tcp, untagged := make([]byte, EthernetLen-1), make([]byte, IPv6Len), make([]byte, TCPMinLen), make([]byte, EthernetLen+VLANLen)
	cases := []struct {
		name   string
		decode func() error
		want   error
	}{
		{"short frame", func() error { return p.Parse(frame) }, ErrTruncated},
		{"short vlan", func() error { _, err := DecodeVLAN(ip[:3]); return err }, ErrTruncated},
		{"short ipv4", func() error { _, err := DecodeIPv4(ip[:19]); return err }, ErrTruncated},
		{"ipv4 version", func() error { ip[0] = 0x65; _, err := DecodeIPv4(ip); return err }, ErrVersion},
		{"ipv4 ihl", func() error { ip[0] = 0x44; _, err := DecodeIPv4(ip); return err }, ErrHeaderLen},
		{"ipv6 version", func() error { _, err := DecodeIPv6(ip6); return err }, ErrVersion},
		{"tcp offset", func() error { _, err := DecodeTCP(tcp); return err }, ErrHeaderLen},
		{"short udp", func() error { _, err := DecodeUDP(ip[:7]); return err }, ErrTruncated},
		{"pop untagged", func() error { _, err := PopVlan(untagged); return err }, ErrNotTagged},
	}
	for _, c := range cases {
		if err := c.decode(); !errors.Is(err, c.want) {
			t.Errorf("%s: error %v, want %v", c.name, err, c.want)
		}
		if n := testing.AllocsPerRun(10, func() { _ = c.decode() }); n != 0 {
			t.Errorf("%s: %v allocations per failed decode", c.name, n)
		}
	}
}

func TestIPv4SettersAndChecksum(t *testing.T) {
	frame := buildTestUDP(t, nil, 0)
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	p.IPv4.SetTTL(10)
	if p.IPv4.VerifyChecksum() {
		t.Fatal("checksum still valid after TTL rewrite")
	}
	p.IPv4.UpdateChecksum()
	if !p.IPv4.VerifyChecksum() {
		t.Fatal("checksum invalid after update")
	}
	if p.IPv4.TTL() != 10 {
		t.Fatal("TTL not set")
	}
}

func TestFiveTuple(t *testing.T) {
	frame := buildTestUDP(t, nil, 0)
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	ft, ok := p.FiveTuple()
	if !ok {
		t.Fatal("FiveTuple not extracted")
	}
	want := FiveTuple{Src: ipA, Dst: ipB, SrcPort: 1234, DstPort: 5678, Proto: ProtoUDP}
	if ft != want {
		t.Fatalf("FiveTuple = %+v, want %+v", ft, want)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Classic example from RFC 1071 materials.
	b := []byte{0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06,
		0x00, 0x00, 0xac, 0x10, 0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c}
	if got := Checksum(b); got != 0xb1e6 {
		t.Errorf("Checksum = %04x, want b1e6", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	even := Checksum([]byte{0x12, 0x34, 0x56, 0x78})
	odd := Checksum([]byte{0x12, 0x34, 0x56, 0x78, 0x9a})
	if even == odd {
		t.Error("odd trailing byte ignored")
	}
}

// Property: IPv4 checksum verification holds for built packets of any size,
// and parsing is total (never panics) on arbitrary mutations.
func TestQuickBuildParse(t *testing.T) {
	buf := make([]byte, 4096)
	f := func(payload []byte, sp, dp uint16, src, dst [4]byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		n, err := BuildUDP(buf, UDPSpec{
			SrcMAC: macA, DstMAC: macB,
			SrcIP: IP4(src), DstIP: IP4(dst),
			SrcPort: sp, DstPort: dp,
			Payload: payload,
		})
		if err != nil {
			return false
		}
		var p Parser
		if err := p.Parse(buf[:n]); err != nil {
			return false
		}
		if !p.Decoded.Has(LayerEthernet | LayerIPv4 | LayerUDP) {
			return false
		}
		return p.IPv4.VerifyChecksum() &&
			p.UDP.SrcPort() == sp && p.UDP.DstPort() == dp &&
			bytes.Equal(p.L4Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parse never panics on arbitrary bytes.
func TestQuickParseTotal(t *testing.T) {
	f := func(b []byte) bool {
		var p Parser
		_ = p.Parse(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParse64B(b *testing.B) {
	frame := buildTestUDP(b, nil, MinFrame)
	var p Parser
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Parse(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frame)))
}

func BenchmarkBuildUDP64B(b *testing.B) {
	buf := make([]byte, 128)
	spec := UDPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1, DstPort: 2, FrameLen: MinFrame}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildUDP(buf, spec); err != nil {
			b.Fatal(err)
		}
	}
}
