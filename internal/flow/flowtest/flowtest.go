// Package flowtest holds what the hash tests of flow, conntrack, vswitch and
// dpdkr share: the pinned seeds, the oracle of the unkeyed hash the tree
// used to have, a key set built to defeat that hash, and the measure of
// "spreads like a uniform hash" — and the seed frames the frame-walk tests
// of flow and pkt share. Only tests import it.
package flowtest

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ovshighway/internal/flow"
	"ovshighway/internal/pkt"
)

// Seeds are the process hash seeds every seed-sensitive test runs under
// (flow.PinHashSeed), so that none passes on one seed's luck.
var Seeds = [3]uint64{1, 0x9e3779b97f4a7c15, 0xdeadbeefcafef00d}

// ForEachSeed runs f as a subtest under each of Seeds. The seed is pinned
// before f runs, so whatever f starts (a switch, with its own cleanup) has
// stopped by the time the previous seed is restored.
func ForEachSeed(t *testing.T, f func(t *testing.T)) {
	for _, seed := range Seeds {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			flow.PinHashSeed(t, seed)
			f(t)
		})
	}
}

// FNV1a continues a 32-bit FNV-1a hash from state h over b. Started from
// FNVOffset over all 36 packed bytes it is the flow hash this tree used
// before Hash64: unkeyed, and with low bits that depend only on the low
// bits of its state, which is what FloodKeys exploits.
func FNV1a(h uint32, b []byte) uint32 {
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// FNVOffset is the FNV-1a offset basis.
const FNVOffset uint32 = 2166136261

// FloodKeys returns n distinct well-formed UDP keys that the old FNV-1a
// flow hash sent to one value in its low 16 bits — one EMC set, one SMC
// bucket — the flood an unkeyed hash lets a single sender aim. The source
// address counts up; the low byte of the source port is solved so the hash
// state entering the last varying byte agrees in its low 16 bits, which
// FNV-1a then carries through the fixed tail.
func FloodKeys(n int) []flow.Packed {
	const portLo = 31 // offset of the source port's low byte in a Packed
	keys := make([]flow.Packed, 0, n)
	var want uint16
	for i := uint32(0); len(keys) < n; i++ {
		k := flow.Key{
			InPort: 1, EthType: pkt.EtherTypeIPv4,
			EthSrc: pkt.MAC{2, 0, 0, 0, 0, 1}, EthDst: pkt.MAC{2, 0, 0, 0, 0, 2},
			IPSrc: 0x0a000000 + i, IPDst: 0x0a630001,
			IPProto: pkt.ProtoUDP, L4Src: 0x4000, L4Dst: 80,
		}
		kp := k.Pack()
		s := uint16(FNV1a(FNVOffset, kp[:portLo]))
		if len(keys) == 0 {
			want = s
		}
		if (s^want)>>8 != 0 {
			continue // the one free byte reaches only the low 8 bits
		}
		kp[portLo] = byte(s ^ want)
		keys = append(keys, kp)
	}
	return keys
}

// CheckSpread fails tb unless the keys counted in loads (one counter per
// bucket) spread within 2x of what a uniform hash gives. Two measures, by
// bucket size: the pairs of keys sharing a bucket, against n(n-1)/2m —
// always, because the fullest of thousands of small Poisson buckets strays
// past twice its mean for a perfect hash too; and, once the mean is large
// enough (64: twice the mean is eight standard deviations out) for the
// extremes to mean something, every bucket between half and twice the mean.
func CheckSpread(tb testing.TB, what string, loads []int) {
	tb.Helper()
	n, pairs, lo, hi := 0, 0, loads[0], loads[0]
	for _, l := range loads {
		n += l
		pairs += l * (l - 1) / 2
		lo, hi = min(lo, l), max(hi, l)
	}
	mean := float64(n) / float64(len(loads))
	uniform := mean * float64(n-1) / 2
	if float64(pairs) > 2*uniform {
		tb.Errorf("%s: %d keys over %d buckets share a bucket %d times (fullest holds %d); a uniform hash gives %.0f, the bound is twice that",
			what, n, len(loads), pairs, hi, uniform)
	}
	if mean >= 64 && (float64(hi) > 2*mean || float64(lo) < mean/2) {
		tb.Errorf("%s: %d keys over %d buckets: loads range %d..%d, want within 2x of the mean %.0f",
			what, n, len(loads), lo, hi, mean)
	}
}

// SeedFrames are the shapes every frame walk in the tree must agree with the
// parser on (flow.PackFrame, pkt.Tuple): every layer the parser decodes,
// tagged and untagged, and an IPv4 header with options. HostileFrames are
// the malformed ones.
func SeedFrames(tb testing.TB) map[string][]byte {
	tb.Helper()
	macA, macB := pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}
	ipA, ipB := pkt.IP4{10, 1, 2, 3}, pkt.IP4{10, 99, 0, 1}
	build := func(n int, err error, raw []byte) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return append([]byte(nil), raw[:n]...)
	}
	raw := make([]byte, 256)
	udpSpec := pkt.UDPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 5001, DstPort: 2000, FrameLen: 64}
	n, err := pkt.BuildUDP(raw, udpSpec)
	udp := build(n, err, raw)
	udpSpec.VlanID, udpSpec.VlanPCP = 0x7a5, 5
	n, err = pkt.BuildUDP(raw, udpSpec)
	vlanUDP := build(n, err, raw)
	n, err = pkt.BuildTCP(raw, pkt.TCPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 40000, DstPort: 443, Flags: pkt.TCPSyn})
	tcp := build(n, err, raw)
	n, err = pkt.BuildARP(raw, pkt.ARPRequest, macA, ipA, pkt.MAC{}, ipB)
	arp := build(n, err, raw)

	icmp := append([]byte(nil), udp...)
	icmp[pkt.EthernetLen+1] = 0xb8 // DSCP 46
	icmp[pkt.EthernetLen+9] = pkt.ProtoICMP

	// IHL 6: one word of options pushes the UDP header four bytes out.
	l3 := pkt.EthernetLen
	opts := append([]byte(nil), udp[:l3+pkt.IPv4MinLen]...)
	opts = append(opts, 1, 1, 1, 1)
	opts = append(opts, udp[l3+pkt.IPv4MinLen:]...)
	opts[l3] = 0x46
	binary.BigEndian.PutUint16(opts[l3+2:], binary.BigEndian.Uint16(udp[l3+2:])+4)

	ipv6 := func(next uint8, l4 []byte) []byte {
		f := append([]byte(nil), udp[:12]...)
		f = append(f, 0x86, 0xdd)
		hdr := make([]byte, pkt.IPv6Len)
		hdr[0] = 0x60
		binary.BigEndian.PutUint16(hdr[4:], uint16(len(l4)))
		hdr[6], hdr[7] = next, 64
		hdr[23], hdr[39] = 1, 2
		return append(append(f, hdr...), l4...)
	}
	return map[string][]byte{
		"udp":      udp,
		"vlan-udp": vlanUDP,
		"tcp":      tcp,
		"icmp":     icmp,
		"arp":      arp,
		"ihl6-udp": opts,
		"ipv6-udp": ipv6(pkt.ProtoUDP, udp[l3+pkt.IPv4MinLen:l3+pkt.IPv4MinLen+pkt.UDPLen]),
		"ipv6-tcp": ipv6(pkt.ProtoTCP, tcp[l3+pkt.IPv4MinLen:]),
	}
}

// HostileFrames are the shapes the frame walks (flow.PackFrame, pkt.Tuple)
// are documented to be stricter than the parser on, and the malformed ones
// around them, cut from the UDP seed frame: a first fragment (offset 0, MF
// set — its L4 header is real), a later and a last fragment (payload where
// the ports would be), TotalLen lying in both directions, an IHL below the
// minimum header, an 802.1Q tag cut in half and an IPv6 frame cut inside its
// UDP header.
func HostileFrames(tb testing.TB) map[string][]byte {
	tb.Helper()
	seeds := SeedFrames(tb)
	udp := seeds["udp"]
	mut := func(off int, v uint16) []byte {
		f := append([]byte(nil), udp...)
		binary.BigEndian.PutUint16(f[pkt.EthernetLen+off:], v)
		return f
	}
	return map[string][]byte{
		"first-fragment":  mut(6, 0x2000),
		"later-fragment":  mut(6, 0x2000|185),
		"last-fragment":   mut(6, 185),
		"totlen-too-long": mut(2, uint16(len(udp)-pkt.EthernetLen+1)),
		"totlen-lt-ihl":   mut(2, pkt.IPv4MinLen-1),
		"totlen-cuts-udp": mut(2, pkt.IPv4MinLen+pkt.UDPLen-1),
		"ihl4":            mut(0, 0x4400|uint16(udp[pkt.EthernetLen+1])),
		"vlan-truncated":  seeds["vlan-udp"][:pkt.EthernetLen+pkt.VLANLen/2],
		"ipv6-udp-cut-l4": seeds["ipv6-udp"][:pkt.EthernetLen+pkt.IPv6Len+pkt.UDPLen-1],
	}
}
