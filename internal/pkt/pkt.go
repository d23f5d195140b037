// Package pkt implements zero-copy packet header views, a preallocated
// single-pass parser, and packet builders for Ethernet, VLAN, ARP, IPv4,
// IPv6, UDP, TCP and ICMPv4.
//
// The decoding style follows the gopacket DecodingLayerParser idiom: the
// caller owns a Parser whose header structs are reused across packets, so
// per-packet decoding performs no allocation. All views alias the input
// buffer; they are valid only until the buffer is reused.
package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// be is the network byte order used by every header codec in this package.
var be = binary.BigEndian

// The decode errors are package-level values, not formatted per frame: a
// flood of malformed frames must not allocate one error each.
var (
	// ErrTruncated: the bytes end before the header does.
	ErrTruncated = errors.New("pkt: header truncated")
	// ErrVersion: an IP header whose version field is not its own.
	ErrVersion = errors.New("pkt: wrong IP version")
	// ErrHeaderLen: an IPv4 IHL or a TCP data offset below the minimum
	// header or beyond the bytes at hand.
	ErrHeaderLen = errors.New("pkt: bad header length")
	// ErrNotTagged: a VLAN pop on a frame without an 802.1Q tag.
	ErrNotTagged = errors.New("pkt: frame not 802.1Q tagged")
)

// EtherType values understood by the parser.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeVLAN uint16 = 0x8100
	EtherTypeIPv6 uint16 = 0x86DD
)

// IP protocol numbers understood by the parser.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// Header sizes in bytes.
const (
	EthernetLen = 14
	VLANLen     = 4
	ARPLen      = 28
	IPv4MinLen  = 20
	IPv6Len     = 40
	UDPLen      = 8
	TCPMinLen   = 20
	ICMPLen     = 8

	// MinFrame is the canonical 64-byte minimum Ethernet frame used by the
	// paper's throughput experiments (60 bytes on the wire + 4-byte FCS,
	// which we do not materialize; generators pad to 60).
	MinFrame = 60
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// String renders the address in the usual colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is ff:ff:ff:ff:ff:ff.
func (m MAC) IsBroadcast() bool {
	return m == MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
}

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IP4 is an IPv4 address in network byte order.
type IP4 [4]byte

// String renders dotted-quad form.
func (a IP4) String() string { return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]) }

// Uint32 returns the address as a big-endian integer.
func (a IP4) Uint32() uint32 { return be.Uint32(a[:]) }

// IP4FromUint32 converts a big-endian integer to an address.
func IP4FromUint32(v uint32) IP4 {
	var a IP4
	be.PutUint32(a[:], v)
	return a
}

// IP6 is an IPv6 address.
type IP6 [16]byte

// String renders the full uncompressed hex form (sufficient for logs/tests).
func (a IP6) String() string {
	return fmt.Sprintf("%x:%x:%x:%x:%x:%x:%x:%x",
		be.Uint16(a[0:2]), be.Uint16(a[2:4]), be.Uint16(a[4:6]), be.Uint16(a[6:8]),
		be.Uint16(a[8:10]), be.Uint16(a[10:12]), be.Uint16(a[12:14]), be.Uint16(a[14:16]))
}

// Ethernet is a view over an Ethernet II header.
type Ethernet struct {
	raw []byte
}

// DecodeEthernet wraps b as an Ethernet header view.
func DecodeEthernet(b []byte) (Ethernet, error) {
	if len(b) < EthernetLen {
		return Ethernet{}, ErrTruncated
	}
	return Ethernet{raw: b}, nil
}

// Dst returns the destination MAC.
func (h Ethernet) Dst() MAC { var m MAC; copy(m[:], h.raw[0:6]); return m }

// Src returns the source MAC.
func (h Ethernet) Src() MAC { var m MAC; copy(m[:], h.raw[6:12]); return m }

// EtherType returns the EtherType field.
func (h Ethernet) EtherType() uint16 { return be.Uint16(h.raw[12:14]) }

// SetDst stores the destination MAC.
func (h Ethernet) SetDst(m MAC) { copy(h.raw[0:6], m[:]) }

// SetSrc stores the source MAC.
func (h Ethernet) SetSrc(m MAC) { copy(h.raw[6:12], m[:]) }

// SetEtherType stores the EtherType field.
func (h Ethernet) SetEtherType(t uint16) { be.PutUint16(h.raw[12:14], t) }

// Payload returns the bytes after the header.
func (h Ethernet) Payload() []byte { return h.raw[EthernetLen:] }

// VLAN is a view over an 802.1Q tag (the 4 bytes after the MAC addresses).
type VLAN struct {
	raw []byte
}

// DecodeVLAN wraps b (starting at the TPID) as a VLAN tag view.
func DecodeVLAN(b []byte) (VLAN, error) {
	if len(b) < VLANLen {
		return VLAN{}, ErrTruncated
	}
	return VLAN{raw: b}, nil
}

// VID returns the 12-bit VLAN identifier.
func (h VLAN) VID() uint16 { return be.Uint16(h.raw[0:2]) & 0x0fff }

// PCP returns the 3-bit priority code point.
func (h VLAN) PCP() uint8 { return uint8(h.raw[0] >> 5) }

// EtherType returns the encapsulated EtherType.
func (h VLAN) EtherType() uint16 { return be.Uint16(h.raw[2:4]) }

// SetVID stores the VLAN identifier, preserving PCP/DEI bits.
func (h VLAN) SetVID(vid uint16) {
	v := be.Uint16(h.raw[0:2])&0xf000 | vid&0x0fff
	be.PutUint16(h.raw[0:2], v)
}

// SetPCP stores the 3-bit priority code point, preserving DEI and VID.
func (h VLAN) SetPCP(pcp uint8) {
	h.raw[0] = h.raw[0]&0x1f | (pcp&0x07)<<5
}

// SetEtherType stores the encapsulated EtherType.
func (h VLAN) SetEtherType(t uint16) { be.PutUint16(h.raw[2:4], t) }

// Payload returns the bytes after the tag.
func (h VLAN) Payload() []byte { return h.raw[VLANLen:] }

// ARP is a view over an Ethernet/IPv4 ARP message.
type ARP struct {
	raw []byte
}

// ARP opcodes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// DecodeARP wraps b as an ARP view.
func DecodeARP(b []byte) (ARP, error) {
	if len(b) < ARPLen {
		return ARP{}, ErrTruncated
	}
	return ARP{raw: b}, nil
}

// Op returns the ARP opcode.
func (h ARP) Op() uint16 { return be.Uint16(h.raw[6:8]) }

// SenderMAC returns the sender hardware address.
func (h ARP) SenderMAC() MAC { var m MAC; copy(m[:], h.raw[8:14]); return m }

// SenderIP returns the sender protocol address.
func (h ARP) SenderIP() IP4 { var a IP4; copy(a[:], h.raw[14:18]); return a }

// TargetMAC returns the target hardware address.
func (h ARP) TargetMAC() MAC { var m MAC; copy(m[:], h.raw[18:24]); return m }

// TargetIP returns the target protocol address.
func (h ARP) TargetIP() IP4 { var a IP4; copy(a[:], h.raw[24:28]); return a }

// IPv4 is a view over an IPv4 header.
type IPv4 struct {
	raw []byte
}

// DecodeIPv4 wraps b as an IPv4 view, validating version and IHL.
func DecodeIPv4(b []byte) (IPv4, error) {
	if len(b) < IPv4MinLen {
		return IPv4{}, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return IPv4{}, ErrVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4MinLen || ihl > len(b) {
		return IPv4{}, ErrHeaderLen
	}
	return IPv4{raw: b}, nil
}

// HeaderLen returns the header length in bytes (IHL*4).
func (h IPv4) HeaderLen() int { return int(h.raw[0]&0x0f) * 4 }

// TotalLen returns the total-length field.
func (h IPv4) TotalLen() uint16 { return be.Uint16(h.raw[2:4]) }

// TTL returns the time-to-live field.
func (h IPv4) TTL() uint8 { return h.raw[8] }

// Proto returns the protocol field.
func (h IPv4) Proto() uint8 { return h.raw[9] }

// Checksum returns the header checksum field.
func (h IPv4) Checksum() uint16 { return be.Uint16(h.raw[10:12]) }

// Src returns the source address.
func (h IPv4) Src() IP4 { var a IP4; copy(a[:], h.raw[12:16]); return a }

// Dst returns the destination address.
func (h IPv4) Dst() IP4 { var a IP4; copy(a[:], h.raw[16:20]); return a }

// DSCP returns the 6-bit differentiated services field.
func (h IPv4) DSCP() uint8 { return h.raw[1] >> 2 }

// SetTTL stores the TTL field (checksum must be recomputed by the caller).
func (h IPv4) SetTTL(ttl uint8) { h.raw[8] = ttl }

// SetSrc stores the source address.
func (h IPv4) SetSrc(a IP4) { copy(h.raw[12:16], a[:]) }

// SetDst stores the destination address.
func (h IPv4) SetDst(a IP4) { copy(h.raw[16:20], a[:]) }

// SetChecksum stores the header checksum field.
func (h IPv4) SetChecksum(c uint16) { be.PutUint16(h.raw[10:12], c) }

// UpdateChecksum recomputes and stores the header checksum.
func (h IPv4) UpdateChecksum() {
	h.SetChecksum(0)
	h.SetChecksum(Checksum(h.raw[:h.HeaderLen()]))
}

// VerifyChecksum reports whether the stored header checksum is valid.
func (h IPv4) VerifyChecksum() bool {
	return Checksum(h.raw[:h.HeaderLen()]) == 0
}

// Payload returns the bytes after the header, bounded by TotalLen when sane.
func (h IPv4) Payload() []byte {
	end := int(h.TotalLen())
	if end > len(h.raw) || end < h.HeaderLen() {
		end = len(h.raw)
	}
	return h.raw[h.HeaderLen():end]
}

// IPv6 is a view over an IPv6 fixed header.
type IPv6 struct {
	raw []byte
}

// DecodeIPv6 wraps b as an IPv6 view, validating the version.
func DecodeIPv6(b []byte) (IPv6, error) {
	if len(b) < IPv6Len {
		return IPv6{}, ErrTruncated
	}
	if b[0]>>4 != 6 {
		return IPv6{}, ErrVersion
	}
	return IPv6{raw: b}, nil
}

// NextHeader returns the next-header field.
func (h IPv6) NextHeader() uint8 { return h.raw[6] }

// HopLimit returns the hop-limit field.
func (h IPv6) HopLimit() uint8 { return h.raw[7] }

// PayloadLen returns the payload-length field.
func (h IPv6) PayloadLen() uint16 { return be.Uint16(h.raw[4:6]) }

// Src returns the source address.
func (h IPv6) Src() IP6 { var a IP6; copy(a[:], h.raw[8:24]); return a }

// Dst returns the destination address.
func (h IPv6) Dst() IP6 { var a IP6; copy(a[:], h.raw[24:40]); return a }

// Payload returns the bytes after the fixed header.
func (h IPv6) Payload() []byte { return h.raw[IPv6Len:] }

// UDP is a view over a UDP header.
type UDP struct {
	raw []byte
}

// DecodeUDP wraps b as a UDP view.
func DecodeUDP(b []byte) (UDP, error) {
	if len(b) < UDPLen {
		return UDP{}, ErrTruncated
	}
	return UDP{raw: b}, nil
}

// SrcPort returns the source port.
func (h UDP) SrcPort() uint16 { return be.Uint16(h.raw[0:2]) }

// DstPort returns the destination port.
func (h UDP) DstPort() uint16 { return be.Uint16(h.raw[2:4]) }

// Length returns the UDP length field.
func (h UDP) Length() uint16 { return be.Uint16(h.raw[4:6]) }

// Checksum returns the checksum field.
func (h UDP) Checksum() uint16 { return be.Uint16(h.raw[6:8]) }

// SetSrcPort stores the source port.
func (h UDP) SetSrcPort(p uint16) { be.PutUint16(h.raw[0:2], p) }

// SetDstPort stores the destination port.
func (h UDP) SetDstPort(p uint16) { be.PutUint16(h.raw[2:4], p) }

// SetChecksum stores the checksum field (0 = none, legal for IPv4 UDP).
func (h UDP) SetChecksum(c uint16) { be.PutUint16(h.raw[6:8], c) }

// Datagram returns the full UDP datagram bytes (header plus payload), the
// span L4Checksum covers.
func (h UDP) Datagram() []byte { return h.raw }

// Payload returns the bytes after the header, bounded by the length field.
func (h UDP) Payload() []byte {
	end := int(h.Length())
	if end > len(h.raw) || end < UDPLen {
		end = len(h.raw)
	}
	return h.raw[UDPLen:end]
}

// TCP is a view over a TCP header.
type TCP struct {
	raw []byte
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// DecodeTCP wraps b as a TCP view, validating the data offset.
func DecodeTCP(b []byte) (TCP, error) {
	if len(b) < TCPMinLen {
		return TCP{}, ErrTruncated
	}
	off := int(b[12]>>4) * 4
	if off < TCPMinLen || off > len(b) {
		return TCP{}, ErrHeaderLen
	}
	return TCP{raw: b}, nil
}

// SrcPort returns the source port.
func (h TCP) SrcPort() uint16 { return be.Uint16(h.raw[0:2]) }

// DstPort returns the destination port.
func (h TCP) DstPort() uint16 { return be.Uint16(h.raw[2:4]) }

// Seq returns the sequence number.
func (h TCP) Seq() uint32 { return be.Uint32(h.raw[4:8]) }

// Ack returns the acknowledgment number.
func (h TCP) Ack() uint32 { return be.Uint32(h.raw[8:12]) }

// DataOff returns the header length in bytes.
func (h TCP) DataOff() int { return int(h.raw[12]>>4) * 4 }

// Flags returns the low 6 flag bits.
func (h TCP) Flags() uint8 { return h.raw[13] & 0x3f }

// Payload returns the bytes after the header and options.
func (h TCP) Payload() []byte { return h.raw[h.DataOff():] }

// SetSrcPort rewrites the source port in place (NAT). The caller owns the
// checksum fixup.
func (h TCP) SetSrcPort(p uint16) { be.PutUint16(h.raw[0:2], p) }

// SetDstPort rewrites the destination port in place (NAT). The caller owns
// the checksum fixup.
func (h TCP) SetDstPort(p uint16) { be.PutUint16(h.raw[2:4], p) }

// Checksum returns the TCP checksum field.
func (h TCP) Checksum() uint16 { return be.Uint16(h.raw[16:18]) }

// SetChecksum stores the TCP checksum field.
func (h TCP) SetChecksum(c uint16) { be.PutUint16(h.raw[16:18], c) }

// Segment returns the full TCP segment bytes (header, options and payload),
// the span L4Checksum covers.
func (h TCP) Segment() []byte { return h.raw }

// ICMP is a view over an ICMPv4 header.
type ICMP struct {
	raw []byte
}

// ICMPv4 types used in tests and examples.
const (
	ICMPEchoReply   uint8 = 0
	ICMPEchoRequest uint8 = 8
)

// DecodeICMP wraps b as an ICMP view.
func DecodeICMP(b []byte) (ICMP, error) {
	if len(b) < ICMPLen {
		return ICMP{}, ErrTruncated
	}
	return ICMP{raw: b}, nil
}

// Type returns the ICMP type.
func (h ICMP) Type() uint8 { return h.raw[0] }

// Code returns the ICMP code.
func (h ICMP) Code() uint8 { return h.raw[1] }
