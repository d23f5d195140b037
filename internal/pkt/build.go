package pkt

import "fmt"

// UDPSpec describes a UDP/IPv4 frame to synthesize. It is the workload
// vocabulary of the benchmark harness: the paper's 64-byte bidirectional
// traffic is UDPSpec with FrameLen=MinFrame.
type UDPSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IP4
	SrcPort, DstPort uint16
	// VlanID, when non-zero, inserts an 802.1Q tag carrying this VLAN id
	// between the MAC addresses and the IPv4 EtherType (trunk-lane traffic).
	VlanID uint16
	// VlanPCP is the 3-bit 802.1Q priority code point stamped into the tag
	// (only meaningful with a non-zero VlanID). The trunk's DRR scheduler
	// classes frames by this field.
	VlanPCP  uint8
	TTL      uint8 // default 64
	Payload  []byte
	FrameLen int // pad frame (with zero bytes) up to this length; 0 = no padding
}

// BuildUDP serializes the spec into dst and returns the frame length.
// dst must be large enough; the frame is Ethernet[+802.1Q]+IPv4+UDP+payload,
// padded to FrameLen if set. Checksums (IPv4 header and UDP) are filled in.
func BuildUDP(dst []byte, s UDPSpec) (int, error) {
	ttl := s.TTL
	if ttl == 0 {
		ttl = 64
	}
	l2Len := EthernetLen
	if s.VlanID != 0 {
		l2Len += VLANLen
	}
	ipLen := IPv4MinLen + UDPLen + len(s.Payload)
	frameLen := l2Len + ipLen
	if s.FrameLen > frameLen {
		frameLen = s.FrameLen
	}
	if len(dst) < frameLen {
		return 0, fmt.Errorf("pkt: BuildUDP: dst %d < frame %d", len(dst), frameLen)
	}
	for i := l2Len + ipLen; i < frameLen; i++ {
		dst[i] = 0
	}

	copy(dst[0:6], s.DstMAC[:])
	copy(dst[6:12], s.SrcMAC[:])
	if s.VlanID != 0 {
		be.PutUint16(dst[12:14], EtherTypeVLAN)
		be.PutUint16(dst[14:16], uint16(s.VlanPCP&0x07)<<13|s.VlanID&0x0fff)
		be.PutUint16(dst[16:18], EtherTypeIPv4)
	} else {
		be.PutUint16(dst[12:14], EtherTypeIPv4)
	}

	ip := dst[l2Len:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	be.PutUint16(ip[2:4], uint16(ipLen))
	be.PutUint16(ip[4:6], 0) // identification
	be.PutUint16(ip[6:8], 0x4000)
	ip[8] = ttl
	ip[9] = ProtoUDP
	be.PutUint16(ip[10:12], 0)
	copy(ip[12:16], s.SrcIP[:])
	copy(ip[16:20], s.DstIP[:])
	be.PutUint16(ip[10:12], Checksum(ip[:IPv4MinLen]))

	udp := ip[IPv4MinLen:]
	be.PutUint16(udp[0:2], s.SrcPort)
	be.PutUint16(udp[2:4], s.DstPort)
	be.PutUint16(udp[4:6], uint16(UDPLen+len(s.Payload)))
	be.PutUint16(udp[6:8], 0)
	copy(udp[UDPLen:], s.Payload)
	seg := udp[:UDPLen+len(s.Payload)]
	be.PutUint16(udp[6:8], L4Checksum(s.SrcIP, s.DstIP, ProtoUDP, seg))

	return frameLen, nil
}

// TCPSpec describes a TCP/IPv4 frame (no options) to synthesize.
type TCPSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IP4
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	TTL              uint8
	Payload          []byte
}

// BuildTCP serializes the spec into dst and returns the frame length.
func BuildTCP(dst []byte, s TCPSpec) (int, error) {
	ttl := s.TTL
	if ttl == 0 {
		ttl = 64
	}
	win := s.Window
	if win == 0 {
		win = 65535
	}
	ipLen := IPv4MinLen + TCPMinLen + len(s.Payload)
	frameLen := EthernetLen + ipLen
	if len(dst) < frameLen {
		return 0, fmt.Errorf("pkt: BuildTCP: dst %d < frame %d", len(dst), frameLen)
	}

	copy(dst[0:6], s.DstMAC[:])
	copy(dst[6:12], s.SrcMAC[:])
	be.PutUint16(dst[12:14], EtherTypeIPv4)

	ip := dst[EthernetLen:]
	ip[0] = 0x45
	ip[1] = 0
	be.PutUint16(ip[2:4], uint16(ipLen))
	be.PutUint16(ip[4:6], 0)
	be.PutUint16(ip[6:8], 0x4000)
	ip[8] = ttl
	ip[9] = ProtoTCP
	be.PutUint16(ip[10:12], 0)
	copy(ip[12:16], s.SrcIP[:])
	copy(ip[16:20], s.DstIP[:])
	be.PutUint16(ip[10:12], Checksum(ip[:IPv4MinLen]))

	tcp := ip[IPv4MinLen:]
	be.PutUint16(tcp[0:2], s.SrcPort)
	be.PutUint16(tcp[2:4], s.DstPort)
	be.PutUint32(tcp[4:8], s.Seq)
	be.PutUint32(tcp[8:12], s.Ack)
	tcp[12] = 5 << 4 // data offset 5 words
	tcp[13] = s.Flags & 0x3f
	be.PutUint16(tcp[14:16], win)
	be.PutUint16(tcp[16:18], 0)
	be.PutUint16(tcp[18:20], 0) // urgent pointer
	copy(tcp[TCPMinLen:], s.Payload)
	seg := tcp[:TCPMinLen+len(s.Payload)]
	be.PutUint16(tcp[16:18], L4Checksum(s.SrcIP, s.DstIP, ProtoTCP, seg))

	return frameLen, nil
}

// PushVlan rewrites frame into the 802.1Q-tagged version of the packet that
// starts at frame[VLANLen:] — the caller has already grown the head by
// VLANLen bytes (mempool.Buf.Prepend on the datapath). The MAC addresses
// move to the front and the tag (TPID 0x8100, the given vid and pcp) slots
// in between; the original EtherType is already in place after the tag.
// The rewrite is in place and allocation-free.
func PushVlan(frame []byte, vid uint16, pcp uint8) error {
	if len(frame) < VLANLen+EthernetLen {
		return ErrTruncated
	}
	copy(frame[0:12], frame[VLANLen:VLANLen+12])
	be.PutUint16(frame[12:14], EtherTypeVLAN)
	be.PutUint16(frame[14:16], uint16(pcp&0x07)<<13|vid&0x0fff)
	return nil
}

// PopVlan removes the outermost 802.1Q tag in place: the MAC addresses move
// back by VLANLen bytes so the untagged packet starts at frame[VLANLen:],
// and the stripped vid is returned. The caller must then trim VLANLen bytes
// off the packet head (mempool.Buf.Adj on the datapath). Errors when the
// frame is not tagged. Allocation-free on success.
func PopVlan(frame []byte) (uint16, error) {
	if len(frame) < EthernetLen+VLANLen {
		return 0, ErrTruncated
	}
	if be.Uint16(frame[12:14]) != EtherTypeVLAN {
		return 0, ErrNotTagged
	}
	vid := be.Uint16(frame[14:16]) & 0x0fff
	copy(frame[VLANLen:VLANLen+12], frame[0:12])
	return vid, nil
}

// FrameVlanTCI peeks the 802.1Q tag control word of a frame — PCP in the top
// three bits, vid in the low twelve — without a full parse: the per-frame
// lane and class demultiplex step of the trunk fabric, one load for both. ok
// is false when the frame is too short or not tagged.
func FrameVlanTCI(frame []byte) (tci uint16, ok bool) {
	if len(frame) < EthernetLen+VLANLen || be.Uint16(frame[12:14]) != EtherTypeVLAN {
		return 0, false
	}
	return be.Uint16(frame[14:16]), true
}

// FrameVlanID is the vid of FrameVlanTCI.
func FrameVlanID(frame []byte) (vid uint16, ok bool) {
	tci, ok := FrameVlanTCI(frame)
	return tci & 0x0fff, ok
}

// BuildARP serializes an Ethernet/IPv4 ARP message into dst.
func BuildARP(dst []byte, op uint16, senderMAC MAC, senderIP IP4, targetMAC MAC, targetIP IP4) (int, error) {
	frameLen := EthernetLen + ARPLen
	if len(dst) < frameLen {
		return 0, fmt.Errorf("pkt: BuildARP: dst %d < frame %d", len(dst), frameLen)
	}
	ethDst := targetMAC
	if op == ARPRequest {
		ethDst = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	}
	copy(dst[0:6], ethDst[:])
	copy(dst[6:12], senderMAC[:])
	be.PutUint16(dst[12:14], EtherTypeARP)

	a := dst[EthernetLen:]
	be.PutUint16(a[0:2], 1)             // hardware: ethernet
	be.PutUint16(a[2:4], EtherTypeIPv4) // protocol: ipv4
	a[4] = 6
	a[5] = 4
	be.PutUint16(a[6:8], op)
	copy(a[8:14], senderMAC[:])
	copy(a[14:18], senderIP[:])
	copy(a[18:24], targetMAC[:])
	copy(a[24:28], targetIP[:])
	return frameLen, nil
}
