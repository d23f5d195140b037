package pkt

// Loc is where a frame walked by Tuple keeps its IPv4 and transport headers:
// byte offsets from the start of the frame. The stateful VNFs rewrite through
// it instead of building header views.
type Loc struct {
	L3, L4 int
}

// Tuple walks Ethernet → optional 802.1Q → IPv4 → UDP/TCP/ICMP once, writes
// the 5-tuple into ft and returns the two header offsets: what the stateful
// VNFs need of a packet, without the Parser's views. Every length is checked
// before a header is trusted — version, IHL ≥ 5, the header and TotalLen
// inside the frame, the transport header inside TotalLen, the TCP data
// offset — so wherever Parse followed by FiveTuple succeeds on a frame Tuple
// accepts, both return the same tuple; Tuple is stricter in two places. An
// IPv4 TotalLen that lies (shorter than the header, longer than the frame)
// is rejected, not papered over, and a non-first fragment has no L4 header:
// the bytes at that offset are payload, never ports. ICMP yields zero ports,
// as FiveTuple does.
//
// ft is meaningful only when ok. It is written in place, and conntrack's
// Probe reads it in place, field by field: a FiveTuple copied by value is
// re-read in wider words than it was written in, and each such copy stalls
// on the store buffer for longer than the walk takes.
func Tuple(frame []byte, ft *FiveTuple) (at Loc, ok bool) {
	if len(frame) < EthernetLen+IPv4MinLen {
		return at, false
	}
	l3 := EthernetLen
	etherType := be.Uint16(frame[12:14])
	if etherType == EtherTypeVLAN {
		etherType = be.Uint16(frame[16:18])
		l3 += VLANLen
		if len(frame) < l3+IPv4MinLen {
			return at, false
		}
	}
	if etherType != EtherTypeIPv4 {
		return at, false
	}
	ip := frame[l3:]
	ihl := int(ip[0]&0x0f) * 4
	total := int(be.Uint16(ip[2:4]))
	if ip[0]>>4 != 4 || ihl < IPv4MinLen || total < ihl || total > len(ip) {
		return at, false
	}
	if be.Uint16(ip[6:8])&0x1fff != 0 {
		return at, false // fragment offset ≠ 0: no L4 header here
	}
	seg := ip[ihl:total]
	ft.Proto = ip[9]
	switch ft.Proto {
	case ProtoUDP:
		if len(seg) < UDPLen {
			return at, false
		}
	case ProtoTCP:
		if len(seg) < TCPMinLen {
			return at, false
		}
		if off := int(seg[12]>>4) * 4; off < TCPMinLen || off > len(seg) {
			return at, false
		}
	case ProtoICMP:
		if len(seg) < ICMPLen {
			return at, false
		}
	default:
		return at, false
	}
	if ft.Proto == ProtoICMP {
		ft.SrcPort, ft.DstPort = 0, 0
	} else {
		ft.SrcPort, ft.DstPort = be.Uint16(seg[0:2]), be.Uint16(seg[2:4])
	}
	copy(ft.Src[:], ip[12:16])
	copy(ft.Dst[:], ip[16:20])
	return Loc{L3: l3, L4: l3 + ihl}, true
}

// TCPFlags returns the low 6 flag bits of the TCP header at L4. Only for a
// frame Tuple reported as ProtoTCP.
func (at Loc) TCPFlags(frame []byte) uint8 { return frame[at.L4+13] & 0x3f }

// SetSrc rewrites the source address and port of a UDP or TCP frame located
// by Tuple and patches the IPv4 header and transport checksums (see set).
func (at Loc) SetSrc(frame []byte, ip IP4, port uint16) { at.set(frame, 0, ip, port) }

// SetDst is SetSrc for the destination address and port.
func (at Loc) SetDst(frame []byte, ip IP4, port uint16) { at.set(frame, 1, ip, port) }

// set stores ip:port as the side-th endpoint (0 source, 1 destination) and
// patches both checksums for the three changed words instead of re-summing:
// the header checksum for the address, the UDP/TCP checksum for address
// (pseudo-header) and port. A UDP checksum of 0 means "none" and stays 0; a
// patched UDP result of 0 goes out as 0xffff. A checksum that was wrong on
// arrival stays wrong by the same amount — a middlebox does not launder it.
func (at Loc) set(frame []byte, side int, ip IP4, port uint16) {
	addr := frame[at.L3+12+4*side : at.L3+16+4*side]
	prt := frame[at.L4+2*side : at.L4+2*side+2]
	oldIP, newIP := be.Uint32(addr), ip.Uint32()
	oldPort := uint32(be.Uint16(prt))
	copy(addr, ip[:])
	be.PutUint16(prt, port)

	hc := frame[at.L3+10 : at.L3+12]
	be.PutUint16(hc, ChecksumPatch(be.Uint16(hc), oldIP, newIP))

	udp := frame[at.L3+9] == ProtoUDP
	off := at.L4 + 16
	if udp {
		off = at.L4 + 6
	}
	l4c := frame[off : off+2]
	c := be.Uint16(l4c)
	if udp && c == 0 {
		return
	}
	c = ChecksumPatch(ChecksumPatch(c, oldIP, newIP), oldPort, uint32(port))
	if udp && c == 0 {
		c = 0xffff
	}
	be.PutUint16(l4c, c)
}

// ChecksumPatch returns internet checksum hc updated for covered data in
// which the two 16-bit words of old became those of new (a port is a word
// pair whose high word is zero on both sides): RFC 1624 eqn 3,
// HC' = ~(~HC + ~m + m'), the form that stays correct where eqn 2's
// shortcut turns a zero sum into 0xffff.
func ChecksumPatch(hc uint16, old, new uint32) uint16 {
	old = ^old
	return finish(uint32(^hc) + old>>16 + old&0xffff + new>>16 + new&0xffff)
}
