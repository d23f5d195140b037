// Package flow implements the OpenFlow-style flow abstraction used by the
// vSwitch datapath: match keys with masks, actions, priority-ordered flow
// tables, a tuple-space-search classifier, and a per-PMD exact-match cache.
//
// The structure mirrors the OVS userspace datapath lookup hierarchy the paper
// relies on: EMC (exact, per-PMD) in front of a masked classifier (one hash
// subtable per distinct mask), in front of the slow path. Reproducing that
// hierarchy matters because the vanilla baseline's per-hop cost is exactly
// this lookup plus the action execution.
package flow

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"

	"ovshighway/internal/pkt"
)

// Key is the flat packet header key the classifier operates on, the analogue
// of OVS's struct flow (reduced to the fields this system matches on).
type Key struct {
	InPort  uint32
	EthSrc  pkt.MAC
	EthDst  pkt.MAC
	EthType uint16
	VlanID  uint16 // 0 = untagged
	IPSrc   uint32
	IPDst   uint32
	IPProto uint8
	IPDSCP  uint8
	L4Src   uint16
	L4Dst   uint16
}

// packedKeySize is the size of the canonical packed representation.
const packedKeySize = 36

// Packed is the canonical fixed-size serialization of a Key. It is the hash
// and equality unit for classifier subtables and the EMC.
type Packed [packedKeySize]byte

// Pack serializes the key into its canonical packed form.
func (k *Key) Pack() Packed {
	var p Packed
	binary.BigEndian.PutUint32(p[0:4], k.InPort)
	copy(p[4:10], k.EthSrc[:])
	copy(p[10:16], k.EthDst[:])
	binary.BigEndian.PutUint16(p[16:18], k.EthType)
	binary.BigEndian.PutUint16(p[18:20], k.VlanID)
	binary.BigEndian.PutUint32(p[20:24], k.IPSrc)
	binary.BigEndian.PutUint32(p[24:28], k.IPDst)
	p[28] = k.IPProto
	p[29] = k.IPDSCP
	binary.BigEndian.PutUint16(p[30:32], k.L4Src)
	binary.BigEndian.PutUint16(p[32:34], k.L4Dst)
	// p[34:36] reserved padding, always zero.
	return p
}

// Mask selects which Key bits a flow matches on. A zero bit is wildcarded.
// Masks use the same packed layout as keys.
type Mask struct {
	InPort  uint32
	EthSrc  pkt.MAC
	EthDst  pkt.MAC
	EthType uint16
	VlanID  uint16
	IPSrc   uint32
	IPDst   uint32
	IPProto uint8
	IPDSCP  uint8
	L4Src   uint16
	L4Dst   uint16
}

// Pack serializes the mask into packed form.
func (m *Mask) Pack() Packed {
	k := Key{
		InPort: m.InPort, EthSrc: m.EthSrc, EthDst: m.EthDst,
		EthType: m.EthType, VlanID: m.VlanID,
		IPSrc: m.IPSrc, IPDst: m.IPDst,
		IPProto: m.IPProto, IPDSCP: m.IPDSCP,
		L4Src: m.L4Src, L4Dst: m.L4Dst,
	}
	return k.Pack()
}

// words returns the key as its five little-endian words, the last one the
// four-byte tail zero-extended: the unit Hash64, Equal, And, MaskedEqual and
// the classifier subtables all work in. Five results, not an array: the
// compiler keeps scalars in registers and a [5]uint64 on the stack.
func (p *Packed) words() (w0, w1, w2, w3, w4 uint64) {
	return binary.LittleEndian.Uint64(p[0:8]),
		binary.LittleEndian.Uint64(p[8:16]),
		binary.LittleEndian.Uint64(p[16:24]),
		binary.LittleEndian.Uint64(p[24:32]),
		uint64(binary.LittleEndian.Uint32(p[32:36]))
}

// Equal is *p == *o as five word compares with no branch between them. The
// compiler's array compare is a call into the runtime's byte loop, ~6 ns
// dearer per EMC hit (BenchmarkProcessBatch 49 vs 55 ns/pkt). Spelled out
// rather than built on words so it stays inside the inlining budget.
func (p *Packed) Equal(o *Packed) bool {
	return (binary.LittleEndian.Uint64(p[0:8])^binary.LittleEndian.Uint64(o[0:8]))|
		(binary.LittleEndian.Uint64(p[8:16])^binary.LittleEndian.Uint64(o[8:16]))|
		(binary.LittleEndian.Uint64(p[16:24])^binary.LittleEndian.Uint64(o[16:24]))|
		(binary.LittleEndian.Uint64(p[24:32])^binary.LittleEndian.Uint64(o[24:32]))|
		uint64(binary.LittleEndian.Uint32(p[32:36])^binary.LittleEndian.Uint32(o[32:36])) == 0
}

// And returns p masked by m, five words at a time.
func (p Packed) And(m Packed) Packed {
	a0, a1, a2, a3, a4 := p.words()
	b0, b1, b2, b3, b4 := m.words()
	var out Packed
	binary.LittleEndian.PutUint64(out[0:8], a0&b0)
	binary.LittleEndian.PutUint64(out[8:16], a1&b1)
	binary.LittleEndian.PutUint64(out[16:24], a2&b2)
	binary.LittleEndian.PutUint64(out[24:32], a3&b3)
	binary.LittleEndian.PutUint32(out[32:36], uint32(a4&b4))
	return out
}

// MaskedEqual reports whether p&mask == want, without materializing the
// masked copy. It is the SMC's verification primitive: flows cache their
// packed mask and masked key at insertion, so checking whether a flow covers
// a packet key is five mask-and-compare word operations.
func (p *Packed) MaskedEqual(mask, want *Packed) bool {
	a0, a1, a2, a3, a4 := p.words()
	m0, m1, m2, m3, m4 := mask.words()
	w0, w1, w2, w3, w4 := want.words()
	return (a0&m0^w0)|(a1&m1^w1)|(a2&m2^w2)|(a3&m3^w3)|(a4&m4^w4) == 0
}

// mix is the 64×64→128-bit multiply folded back to 64 bits (hi ^ lo): the
// wyhash/mum primitive. One of these replaces eight FNV byte steps.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Hash64 is the tree's one flow hash: the 36 packed bytes read as five
// little-endian words, each XORed with its own secret lane key (hashSeed)
// and folded through 128-bit multiplies — three independent ones over the
// words, one over their results, so every key bit passes through two. The
// lane keys are secret per process, so a sender cannot choose keys that
// collide; both operands of every multiply carry key material, so no public
// input zeroes a lane. Consumers split the result: the low half indexes the
// EMC and SMC and signs SMC entries, the high half is the SMC's second
// check, the RSS queue pick and the ECMP path pin; the EMC keeps all 64 bits
// as its entry signature. The datapath never calls this: PackFrame returns
// the same value from the words it assembled.
func (p *Packed) Hash64() uint64 {
	k := &hashSeed
	a := mix(binary.LittleEndian.Uint64(p[0:8])^k[0], binary.LittleEndian.Uint64(p[8:16])^k[1])
	b := mix(binary.LittleEndian.Uint64(p[16:24])^k[2], binary.LittleEndian.Uint64(p[24:32])^k[3])
	c := mix(uint64(binary.LittleEndian.Uint32(p[32:36]))^k[4], k[5])
	return mix(a^c, b^k[6])
}

// Hash returns the low half of Hash64.
func (p *Packed) Hash() uint32 { return uint32(p.Hash64()) }

// Hash2 returns the high half of Hash64. Callers that already hold the
// 64-bit value shift it instead of calling this.
func (p *Packed) Hash2() uint32 { return uint32(p.Hash64() >> 32) }

// HashWords mixes a key that fits two words with the same function and
// process seed as Hash64 — conntrack's 13-byte 5-tuple uses it, so the
// connection table is keyed like the flow caches without building a Packed
// per probe. Its values are unrelated to any Packed's Hash64.
func HashWords(w0, w1 uint64) uint64 {
	k := &hashSeed
	return mix(mix(w0^k[0], w1^k[1])^k[5], k[6])
}

// ExtractKey builds a classifier key from a parsed packet and its ingress
// port: the control-plane and test constructor, and PackFrame's oracle. The
// datapath walks and packs straight from the frame (PackFrame). It
// allocates nothing.
func ExtractKey(p *pkt.Parser, inPort uint32) Key {
	k := Key{InPort: inPort}
	if !p.Decoded.Has(pkt.LayerEthernet) {
		return k
	}
	k.EthSrc = p.Eth.Src()
	k.EthDst = p.Eth.Dst()
	k.EthType = p.Eth.EtherType()
	if p.Decoded.Has(pkt.LayerVLAN) {
		k.VlanID = p.VLAN.VID()
		k.EthType = p.VLAN.EtherType()
	}
	if p.Decoded.Has(pkt.LayerIPv4) {
		k.IPSrc = p.IPv4.Src().Uint32()
		k.IPDst = p.IPv4.Dst().Uint32()
		k.IPProto = p.IPv4.Proto()
		k.IPDSCP = p.IPv4.DSCP()
	}
	switch {
	case p.Decoded.Has(pkt.LayerUDP):
		k.L4Src = p.UDP.SrcPort()
		k.L4Dst = p.UDP.DstPort()
	case p.Decoded.Has(pkt.LayerTCP):
		k.L4Src = p.TCP.SrcPort()
		k.L4Dst = p.TCP.DstPort()
	}
	return k
}

// PackFrame is the datapath's one header walk: it validates frame as it
// arrived on inPort, writes its packed classifier key into out and returns
// the key's Hash64, the layers it decoded and the offset of the L3 header
// (after the 802.1Q tag when there is one). The walk follows OVS's
// miniflow_extract in the shape of a length-checked parser — no header is
// read before the bytes under it are known to be there:
//
//   - Ethernet, then one 802.1Q tag: VID and the encapsulated EtherType.
//   - IPv4 is keyed (addresses, protocol, DSCP) only when its header holds
//     up: version 4, IHL ≥ 5, and TotalLen at least the header and at most
//     the frame. A header that fails is keyed on L2 and EtherType alone,
//     with no LayerIPv4, so no action writes through it.
//   - A non-first IPv4 fragment (offset ≠ 0, OVS nw_frag=later) has no L4
//     header: it is keyed on L2+L3 with zero ports and no L4 layer bit, so
//     the later fragments of one datagram share one key whatever their
//     payload. A first fragment keys its real ports.
//   - IPv6: the fixed header (nothing of it is keyed), then UDP/TCP ports.
//   - UDP, TCP (data offset inside the segment) and ICMP inside the IPv4
//     TotalLen or the IPv6 payload; ICMP keys zero ports.
//
// Everywhere else the key and layers equal ExtractKey(p, inPort).Pack() and
// p.Decoded after p.Parse(frame); those two shapes are where the walk is
// stricter than the parser, which clamps a lying TotalLen and reads a later
// fragment's payload as ports (FuzzPackFrame holds both contracts). ok is
// false only for a frame too short for an Ethernet header; out then holds
// the in-port-only key ExtractKey gives a frame Parse rejects.
//
// The key is assembled as its five little-endian words in registers, stored
// with five word stores and hashed from those same registers, so nothing
// reloads the bytes just written. Allocates nothing.
func PackFrame(frame []byte, inPort uint32, out *Packed) (hash uint64, layers pkt.Layers, l3 int, ok bool) {
	w0 := uint64(bits.ReverseBytes32(inPort)) // bytes 0-3: in-port, big-endian
	var w1, w2, w3, w4 uint64
	l3 = pkt.EthernetLen
	if len(frame) >= pkt.EthernetLen {
		ok = true
		layers = pkt.LayerEthernet
		etherType := binary.BigEndian.Uint16(frame[12:14])
		if etherType == pkt.EtherTypeVLAN && len(frame) >= pkt.EthernetLen+pkt.VLANLen {
			// bytes 18-19: VID, PCP/DEI masked off
			w2 = uint64(binary.LittleEndian.Uint16(frame[14:16])&0xff0f) << 16
			etherType = binary.BigEndian.Uint16(frame[16:18])
			l3 += pkt.VLANLen
			layers |= pkt.LayerVLAN
		}
		// bytes 16-17: EtherType, the encapsulated one when tagged
		w2 |= uint64(bits.ReverseBytes16(etherType))
		switch ip := frame[l3:]; etherType {
		case pkt.EtherTypeIPv4:
			if len(ip) < pkt.IPv4MinLen {
				break
			}
			ihl := int(ip[0]&0x0f) * 4
			total := int(binary.BigEndian.Uint16(ip[2:4]))
			if ip[0]>>4 != 4 || ihl < pkt.IPv4MinLen || total < ihl || total > len(ip) {
				break
			}
			layers |= pkt.LayerIPv4
			addrs := binary.LittleEndian.Uint64(ip[12:20])
			w2 |= addrs << 32                                         // bytes 20-23: src address
			w3 = addrs>>32 | uint64(ip[9])<<32 | uint64(ip[1]>>2)<<40 // 24-27: dst address; 28: proto; 29: DSCP
			if binary.BigEndian.Uint16(ip[6:8])&0x1fff == 0 {
				l4, ports := transport(ip[9], ip[ihl:total])
				layers |= l4
				w3 |= ports << 48 // bytes 30-31: source port
				w4 = ports >> 16  // bytes 32-33: destination port; 34-35 stay zero
			}
		case pkt.EtherTypeIPv6:
			if len(ip) >= pkt.IPv6Len && ip[0]>>4 == 6 {
				l4, ports := transport(ip[6], ip[pkt.IPv6Len:])
				layers |= pkt.LayerIPv6 | l4
				w3 = ports << 48
				w4 = ports >> 16
			}
		case pkt.EtherTypeARP:
			if len(ip) >= pkt.ARPLen {
				layers |= pkt.LayerARP
			}
		}
		// The MACs last: nothing above waits on them.
		dst := binary.LittleEndian.Uint64(frame[0:8])  // dst MAC, src MAC[0:2]
		src := binary.LittleEndian.Uint64(frame[4:12]) // dst MAC[4:6], src MAC
		w0 |= (src << 16) &^ 0xffffffff                // bytes 4-7: src MAC[0:4]
		w1 = src>>48 | dst<<16                         // bytes 8-9: src MAC[4:6]; 10-15: dst MAC
	}
	binary.LittleEndian.PutUint64(out[0:8], w0)
	binary.LittleEndian.PutUint64(out[8:16], w1)
	binary.LittleEndian.PutUint64(out[16:24], w2)
	binary.LittleEndian.PutUint64(out[24:32], w3)
	binary.LittleEndian.PutUint32(out[32:36], uint32(w4))
	// Hash64 over the words still in registers (a shared helper is past the
	// inlining budget and would cost both callers a call; the fuzz target
	// holds the two to the same bits).
	k := &hashSeed
	a := mix(w0^k[0], w1^k[1])
	b := mix(w2^k[2], w3^k[3])
	c := mix(w4^k[4], k[5])
	return mix(a^c, b^k[6]), layers, l3, ok
}

// transport decodes the UDP, TCP or ICMP header at the start of seg, the
// bytes its L3 header bounds, and returns the layer bit and the two ports as
// they lie in the frame (source port in the low 16 bits, byte-swapped), or
// zero ports when the header carries none or does not fit.
func transport(proto uint8, seg []byte) (pkt.Layers, uint64) {
	// UDP first: an if chain keeps the order; a switch would test ICMP first.
	if proto == pkt.ProtoUDP {
		if len(seg) >= pkt.UDPLen {
			return pkt.LayerUDP, uint64(binary.LittleEndian.Uint32(seg[0:4]))
		}
	} else if proto == pkt.ProtoTCP {
		if len(seg) >= pkt.TCPMinLen {
			if off := int(seg[12]>>4) * 4; off >= pkt.TCPMinLen && off <= len(seg) {
				return pkt.LayerTCP, uint64(binary.LittleEndian.Uint32(seg[0:4]))
			}
		}
	} else if proto == pkt.ProtoICMP && len(seg) >= pkt.ICMPLen {
		return pkt.LayerICMP, 0
	}
	return 0, 0
}

// RSSHash computes a frame's receive-side-scaling hash the way the
// simulated multi-queue ports' "hardware" does: the datapath's header walk
// (PackFrame), and the high half of the key's Hash64 — the half the SMC
// check and the ECMP path pinning use, so the queue pick is independent of
// the EMC/SMC index. The ingress-port contribution is fixed at zero because
// RSS runs before the switch has attributed the frame to a port, and a queue
// choice must not depend on it. ok=false marks frames too short for an
// Ethernet header: they have no flow identity, and callers place them on
// queue 0. Allocates nothing.
func RSSHash(frame []byte) (h uint32, ok bool) {
	var kp Packed
	hash, _, _, ok := PackFrame(frame, 0, &kp)
	return uint32(hash >> 32), ok
}

// Match pairs a key with a mask: the OpenFlow match of a flow entry.
type Match struct {
	Key  Key
	Mask Mask
}

// MatchAll is the fully wildcarded match.
func MatchAll() Match { return Match{} }

// MatchInPort matches only on the ingress port — the catch-all rule shape
// the p-2-p detector looks for.
func MatchInPort(port uint32) Match {
	return Match{
		Key:  Key{InPort: port},
		Mask: Mask{InPort: ^uint32(0)},
	}
}

// WithEthType returns a copy of m additionally matching the EtherType.
func (m Match) WithEthType(t uint16) Match {
	m.Key.EthType = t
	m.Mask.EthType = 0xffff
	return m
}

// WithIPProto returns a copy of m additionally matching the IP protocol.
// It implies matching EtherType IPv4 if not already set.
func (m Match) WithIPProto(proto uint8) Match {
	if m.Mask.EthType == 0 {
		m = m.WithEthType(pkt.EtherTypeIPv4)
	}
	m.Key.IPProto = proto
	m.Mask.IPProto = 0xff
	return m
}

// WithIPDst returns a copy of m additionally matching a destination prefix.
func (m Match) WithIPDst(addr pkt.IP4, prefixLen int) Match {
	if m.Mask.EthType == 0 {
		m = m.WithEthType(pkt.EtherTypeIPv4)
	}
	mask := prefixMask(prefixLen)
	m.Key.IPDst = addr.Uint32() & mask
	m.Mask.IPDst = mask
	return m
}

// WithIPSrc returns a copy of m additionally matching a source prefix.
func (m Match) WithIPSrc(addr pkt.IP4, prefixLen int) Match {
	if m.Mask.EthType == 0 {
		m = m.WithEthType(pkt.EtherTypeIPv4)
	}
	mask := prefixMask(prefixLen)
	m.Key.IPSrc = addr.Uint32() & mask
	m.Mask.IPSrc = mask
	return m
}

// WithL4Dst returns a copy of m additionally matching the destination port.
func (m Match) WithL4Dst(port uint16) Match {
	m.Key.L4Dst = port
	m.Mask.L4Dst = 0xffff
	return m
}

// WithL4Src returns a copy of m additionally matching the source port.
func (m Match) WithL4Src(port uint16) Match {
	m.Key.L4Src = port
	m.Mask.L4Src = 0xffff
	return m
}

// WithEthDst returns a copy of m additionally matching the destination MAC.
func (m Match) WithEthDst(mac pkt.MAC) Match {
	m.Key.EthDst = mac
	m.Mask.EthDst = pkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	return m
}

// WithVlan returns a copy of m additionally matching the VLAN id.
func (m Match) WithVlan(vid uint16) Match {
	m.Key.VlanID = vid
	m.Mask.VlanID = 0x0fff
	return m
}

func prefixMask(prefixLen int) uint32 {
	if prefixLen <= 0 {
		return 0
	}
	if prefixLen >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - prefixLen)
}

// Covers reports whether k satisfies the match.
func (m Match) Covers(k *Key) bool {
	return m.Key.Pack().And(m.Mask.Pack()) == k.Pack().And(m.Mask.Pack())
}

// MatchesOnlyInPort reports whether the match constrains nothing beyond the
// ingress port — i.e. it is a per-port catch-all. Used by the p-2-p detector.
func (m Match) MatchesOnlyInPort() bool {
	var zero Packed
	mp := m.Mask.Pack()
	// Clear the in-port bytes and require everything else wildcarded.
	mp[0], mp[1], mp[2], mp[3] = 0, 0, 0, 0
	return m.Mask.InPort == ^uint32(0) && mp == zero
}

// AdmitsInPort reports whether packets arriving on port could satisfy the
// match's in-port constraint (exactly matching, or in-port wildcarded).
func (m Match) AdmitsInPort(port uint32) bool {
	return m.Key.InPort&m.Mask.InPort == port&m.Mask.InPort
}

// Equal reports whether two matches are identical (same key bits under the
// same mask). OpenFlow flow-mod identity is (table, priority, match): this
// provides the match component.
func (m Match) Equal(o Match) bool {
	return m.Mask.Pack() == o.Mask.Pack() &&
		m.Key.Pack().And(m.Mask.Pack()) == o.Key.Pack().And(o.Mask.Pack())
}

// String renders the match in an ovs-ofctl-like syntax.
func (m Match) String() string {
	var parts []string
	if m.Mask.InPort != 0 {
		parts = append(parts, fmt.Sprintf("in_port=%d", m.Key.InPort))
	}
	if m.Mask.EthSrc != (pkt.MAC{}) {
		parts = append(parts, "dl_src="+m.Key.EthSrc.String())
	}
	if m.Mask.EthDst != (pkt.MAC{}) {
		parts = append(parts, "dl_dst="+m.Key.EthDst.String())
	}
	if m.Mask.EthType != 0 {
		parts = append(parts, fmt.Sprintf("dl_type=0x%04x", m.Key.EthType))
	}
	if m.Mask.VlanID != 0 {
		parts = append(parts, fmt.Sprintf("dl_vlan=%d", m.Key.VlanID))
	}
	if m.Mask.IPSrc != 0 {
		parts = append(parts, fmt.Sprintf("nw_src=%s/%d", pkt.IP4FromUint32(m.Key.IPSrc), popcount(m.Mask.IPSrc)))
	}
	if m.Mask.IPDst != 0 {
		parts = append(parts, fmt.Sprintf("nw_dst=%s/%d", pkt.IP4FromUint32(m.Key.IPDst), popcount(m.Mask.IPDst)))
	}
	if m.Mask.IPProto != 0 {
		parts = append(parts, fmt.Sprintf("nw_proto=%d", m.Key.IPProto))
	}
	if m.Mask.L4Src != 0 {
		parts = append(parts, fmt.Sprintf("tp_src=%d", m.Key.L4Src))
	}
	if m.Mask.L4Dst != 0 {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", m.Key.L4Dst))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

func popcount(v uint32) int {
	n := 0
	for v != 0 {
		n += int(v & 1)
		v >>= 1
	}
	return n
}
