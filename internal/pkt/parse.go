package pkt

// Layers is a bitset of layers decoded by Parser.Parse.
type Layers uint16

// Layer bits set in Parser.Decoded.
const (
	LayerEthernet Layers = 1 << iota
	LayerVLAN
	LayerARP
	LayerIPv4
	LayerIPv6
	LayerUDP
	LayerTCP
	LayerICMP
)

// Has reports whether all bits in l are present.
func (ls Layers) Has(l Layers) bool { return ls&l == l }

// Parser decodes a frame in a single pass into preallocated views. It is the
// gopacket DecodingLayerParser analogue: reuse one Parser per loop and no
// per-packet allocation occurs. The VNF apps and the control plane decode
// with it; the vSwitch datapath does not — it walks each frame once with
// flow.PackFrame, which is stricter on later fragments and lying TotalLens.
// A Parser must not be shared across goroutines.
type Parser struct {
	Decoded Layers

	Eth  Ethernet
	VLAN VLAN
	ARP  ARP
	IPv4 IPv4
	IPv6 IPv6
	UDP  UDP
	TCP  TCP
	ICMP ICMP

	// L4Payload is the application payload when a transport layer decoded.
	L4Payload []byte
}

// Parse decodes frame starting at the Ethernet layer. It decodes as deep as
// the frame allows and stops silently at truncation or unknown protocols;
// Decoded records how far it got. The error is non-nil — ErrTruncated — only
// when the frame is too short to carry an Ethernet header at all.
func (p *Parser) Parse(frame []byte) error {
	p.Decoded = 0
	p.L4Payload = nil

	eth, err := DecodeEthernet(frame)
	if err != nil {
		return err
	}
	p.Eth = eth
	p.Decoded |= LayerEthernet

	etherType := eth.EtherType()
	next := eth.Payload()

	if etherType == EtherTypeVLAN {
		vl, err := DecodeVLAN(next)
		if err != nil {
			return nil
		}
		p.VLAN = vl
		p.Decoded |= LayerVLAN
		etherType = vl.EtherType()
		next = vl.Payload()
	}

	switch etherType {
	case EtherTypeARP:
		if arp, err := DecodeARP(next); err == nil {
			p.ARP = arp
			p.Decoded |= LayerARP
		}
		return nil
	case EtherTypeIPv4:
		ip, err := DecodeIPv4(next)
		if err != nil {
			return nil
		}
		p.IPv4 = ip
		p.Decoded |= LayerIPv4
		p.parseL4(ip.Proto(), ip.Payload())
	case EtherTypeIPv6:
		ip, err := DecodeIPv6(next)
		if err != nil {
			return nil
		}
		p.IPv6 = ip
		p.Decoded |= LayerIPv6
		p.parseL4(ip.NextHeader(), ip.Payload())
	}
	return nil
}

func (p *Parser) parseL4(proto uint8, b []byte) {
	switch proto {
	case ProtoUDP:
		if u, err := DecodeUDP(b); err == nil {
			p.UDP = u
			p.Decoded |= LayerUDP
			p.L4Payload = u.Payload()
		}
	case ProtoTCP:
		if t, err := DecodeTCP(b); err == nil {
			p.TCP = t
			p.Decoded |= LayerTCP
			p.L4Payload = t.Payload()
		}
	case ProtoICMP:
		if ic, err := DecodeICMP(b); err == nil {
			p.ICMP = ic
			p.Decoded |= LayerICMP
		}
	}
}

// FiveTuple is the canonical flow key for exact-match caches.
type FiveTuple struct {
	Src, Dst         IP4
	SrcPort, DstPort uint16
	Proto            uint8
}

// FiveTuple extracts the IPv4 5-tuple after a successful Parse. ok is false
// when the packet is not IPv4 TCP/UDP (ICMP yields zero ports).
func (p *Parser) FiveTuple() (ft FiveTuple, ok bool) {
	if !p.Decoded.Has(LayerIPv4) {
		return ft, false
	}
	ft.Src = p.IPv4.Src()
	ft.Dst = p.IPv4.Dst()
	ft.Proto = p.IPv4.Proto()
	switch {
	case p.Decoded.Has(LayerUDP):
		ft.SrcPort = p.UDP.SrcPort()
		ft.DstPort = p.UDP.DstPort()
	case p.Decoded.Has(LayerTCP):
		ft.SrcPort = p.TCP.SrcPort()
		ft.DstPort = p.TCP.DstPort()
	case p.Decoded.Has(LayerICMP):
		// ports stay zero
	default:
		return ft, false
	}
	return ft, true
}
