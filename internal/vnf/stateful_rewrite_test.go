package vnf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

// l4Frame is one UDP or TCP frame of the rewrite tests, rebuilt from scratch
// (builder checksums) for every expected output.
type l4Frame struct {
	tcp              bool
	srcIP, dstIP     pkt.IP4
	srcPort, dstPort uint16
	payload          []byte
}

func (f l4Frame) build(t testing.TB) []byte {
	t.Helper()
	raw := make([]byte, 256)
	var n int
	var err error
	if f.tcp {
		n, err = pkt.BuildTCP(raw, pkt.TCPSpec{SrcMAC: spec.SrcMAC, DstMAC: spec.DstMAC,
			SrcIP: f.srcIP, DstIP: f.dstIP, SrcPort: f.srcPort, DstPort: f.dstPort,
			Flags: pkt.TCPAck, Payload: f.payload})
	} else {
		n, err = pkt.BuildUDP(raw, pkt.UDPSpec{SrcMAC: spec.SrcMAC, DstMAC: spec.DstMAC,
			SrcIP: f.srcIP, DstIP: f.dstIP, SrcPort: f.srcPort, DstPort: f.dstPort, Payload: f.payload})
	}
	if err != nil {
		t.Fatal(err)
	}
	return raw[:max(n, pkt.MinFrame)]
}

// l4csumOff returns where the frame's transport checksum sits.
func l4csumOff(t testing.TB, frame []byte) int {
	t.Helper()
	var ft pkt.FiveTuple
	at, ok := pkt.Tuple(frame, &ft)
	if !ok {
		t.Fatalf("no tuple in %x", frame)
	}
	if ft.Proto == pkt.ProtoTCP {
		return at.L4 + 16
	}
	return at.L4 + 6
}

// l4ChecksumValid reports whether the stored UDP/TCP checksum of a parsed
// frame equals a from-scratch pkt.L4Checksum over the headers as they are.
func l4ChecksumValid(p *pkt.Parser) bool {
	seg, off, proto := p.UDP.Datagram(), 6, pkt.ProtoUDP
	if p.Decoded.Has(pkt.LayerTCP) {
		seg, off, proto = p.TCP.Segment(), 16, pkt.ProtoTCP
	}
	seg = append([]byte(nil), seg...)
	stored := binary.BigEndian.Uint16(seg[off:])
	seg[off], seg[off+1] = 0, 0
	return stored == pkt.L4Checksum(p.IPv4.Src(), p.IPv4.Dst(), proto, seg)
}

// hop is a never-started stateful app between two host ports, stepped with
// PollOnce: what goes in one side comes out the other before cross returns.
type hop struct {
	app  *App
	pool *mempool.Pool
	host [2]*dpdkr.Port
}

func newHop(t testing.TB, build func(in, out *dpdkr.PMD, pl *mempool.Pool) (*App, error)) *hop {
	t.Helper()
	h := &hop{pool: pool(t)}
	var pmdIn, pmdOut *dpdkr.PMD
	h.host[0], h.host[1], pmdIn, pmdOut = hostPair(t)
	var err error
	if h.app, err = build(pmdIn, pmdOut, h.pool); err != nil {
		t.Fatal(err)
	}
	return h
}

// cross sends raw into the app's port inPort and returns what it forwarded
// out of the other one, nil if it rejected the frame.
func (h *hop) cross(t testing.TB, inPort int, raw []byte) []byte {
	t.Helper()
	b, err := h.pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	b.SetBytes(raw)
	if h.host[inPort].Send([]*mempool.Buf{b}) != 1 || h.app.PollOnce() != 1 {
		t.Fatal("frame did not reach the handler")
	}
	out := make([]*mempool.Buf, 1)
	if h.host[1-inPort].Recv(out) != 1 {
		return nil
	}
	defer out[0].Free()
	return append([]byte(nil), out[0].Bytes()...)
}

// TestRewriteChecksumOracle drives UDP and TCP frames through all four
// rewrites — NAT44 outbound and inbound, balancer toBackend and toClient —
// and holds each output to the frame a builder makes from scratch for the
// translated tuple: same bytes, so the IPv4 header checksum verifies and the
// patched L4 checksum is the from-scratch pkt.L4Checksum. Payloads are odd
// and even; a UDP checksum of 0 stays 0; and two payloads are solved so that
// the checksum sum is all-ones before, or after, the rewrite — the
// 0x0000/0xffff corner RFC 1624 exists for.
func TestRewriteChecksumOracle(t *testing.T) {
	var (
		inside  = pkt.IP4{10, 0, 0, 1}
		remote  = pkt.IP4{203, 0, 113, 9}
		extIP   = pkt.IP4{192, 0, 2, 1}
		vip     = pkt.IP4{10, 99, 0, 1}
		backend = Backend{IP: pkt.IP4{10, 1, 0, 1}, Port: 8080}
	)
	const extPort = 40000 // the first port the block hands out
	newNAT := func(t testing.TB) *hop {
		return newHop(t, func(in, out *dpdkr.PMD, pl *mempool.Pool) (*App, error) {
			app, _, err := NewNAT44("nat", in, out, pl, NAT44Config{ExtIP: extIP, PortBase: extPort, PortCount: 4, Table: ctTable(t, 1, 64)})
			return app, err
		})
	}
	newLB := func(t testing.TB) *hop {
		return newHop(t, func(in, out *dpdkr.PMD, pl *mempool.Pool) (*App, error) {
			app, _, err := NewBalancer("lb", in, out, pl, BalancerConfig{VIP: vip, VIPPort: 80, Backends: []Backend{backend}, Table: ctTable(t, 1, 64)})
			return app, err
		})
	}
	// Each direction: the hop, the frame under test with its ingress port,
	// what it must come out as, and — for the two return directions — the
	// port-0 frame that opens the connection first.
	outbound := l4Frame{srcIP: inside, dstIP: remote, srcPort: 5000, dstPort: 443}
	toVIP := l4Frame{srcIP: inside, dstIP: vip, srcPort: 5000, dstPort: 80}
	directions := []struct {
		name     string
		hop      func(testing.TB) *hop
		inPort   int
		in, want l4Frame
		open     *l4Frame
	}{
		{"nat44-outbound", newNAT, 0, outbound,
			l4Frame{srcIP: extIP, dstIP: remote, srcPort: extPort, dstPort: 443}, nil},
		{"nat44-inbound", newNAT, 1,
			l4Frame{srcIP: remote, dstIP: extIP, srcPort: 443, dstPort: extPort},
			l4Frame{srcIP: remote, dstIP: inside, srcPort: 443, dstPort: 5000}, &outbound},
		{"balancer-toBackend", newLB, 0, toVIP,
			l4Frame{srcIP: inside, dstIP: backend.IP, srcPort: 5000, dstPort: backend.Port}, nil},
		{"balancer-toClient", newLB, 1,
			l4Frame{srcIP: backend.IP, dstIP: inside, srcPort: backend.Port, dstPort: 5000},
			l4Frame{srcIP: vip, dstIP: inside, srcPort: 80, dstPort: 5000}, &toVIP},
	}
	// solve returns a payload of n bytes whose first word makes f's checksum
	// sum all-ones: the word is the checksum the frame has with it zero.
	solve := func(f l4Frame, n int) []byte {
		f.payload = bytes.Repeat([]byte{0xa5}, n)
		f.payload[0], f.payload[1] = 0, 0
		frame := f.build(t)
		copy(f.payload, frame[l4csumOff(t, frame):][:2])
		return f.payload
	}
	for _, d := range directions {
		for _, tcp := range []bool{false, true} {
			d.in.tcp, d.want.tcp = tcp, tcp
			type variant struct {
				name    string
				payload []byte
				zeroUDP bool
			}
			var variants []variant
			for _, n := range []int{0, 1, 2, 7, 18, 33} {
				variants = append(variants, variant{name: fmt.Sprintf("payload%d", n), payload: bytes.Repeat([]byte{0x5a, 0xc3, 0x0f}, n)[:n]})
			}
			variants = append(variants,
				variant{name: "sum-all-ones-before", payload: solve(d.in, 6)},
				variant{name: "sum-all-ones-after", payload: solve(d.want, 9)})
			if !tcp {
				variants = append(variants, variant{name: "udp-checksum-0", payload: []byte("none"), zeroUDP: true})
			}
			for _, v := range variants {
				proto := map[bool]string{false: "udp", true: "tcp"}[tcp]
				t.Run(d.name+"/"+proto+"/"+v.name, func(t *testing.T) {
					in, want := d.in, d.want
					in.payload, want.payload = v.payload, v.payload
					raw, exp := in.build(t), want.build(t)
					if v.zeroUDP {
						o := l4csumOff(t, raw)
						raw[o], raw[o+1], exp[o], exp[o+1] = 0, 0, 0, 0
					}
					h := d.hop(t)
					if d.open != nil {
						open := *d.open
						open.tcp = tcp
						if h.cross(t, 0, open.build(t)) == nil {
							t.Fatal("opening frame rejected")
						}
					}
					got := h.cross(t, d.inPort, raw)
					if got == nil {
						t.Fatal("frame rejected")
					}
					var p pkt.Parser
					if err := p.Parse(got); err != nil {
						t.Fatal(err)
					}
					if !p.IPv4.VerifyChecksum() {
						t.Errorf("IPv4 header checksum does not verify after the rewrite")
					}
					o := l4csumOff(t, got)
					if stored := binary.BigEndian.Uint16(got[o:]); v.zeroUDP && stored != 0 {
						t.Errorf("UDP checksum 0 (none) became %#04x", stored)
					} else if !v.zeroUDP && !l4ChecksumValid(&p) {
						t.Errorf("stored L4 checksum %#04x is not the from-scratch L4Checksum", stored)
					}
					if !bytes.Equal(got, exp) {
						t.Errorf("rewritten frame differs from one built from scratch\n got %x\nwant %x", got, exp)
					}
					// The solved payloads land on the corner they were solved for.
					corner := map[bool]uint16{false: 0xffff, true: 0}[tcp]
					if v.name == "sum-all-ones-after" && binary.BigEndian.Uint16(got[o:]) != corner {
						t.Errorf("solved payload: checksum after %#04x, want the corner %#04x", binary.BigEndian.Uint16(got[o:]), corner)
					}
					if v.name == "sum-all-ones-before" && binary.BigEndian.Uint16(raw[o:]) != corner {
						t.Errorf("solved payload: checksum before %#04x, want the corner %#04x", binary.BigEndian.Uint16(raw[o:]), corner)
					}
				})
			}
		}
	}
}

// fragmentFrames returns the UDP frame f as a first fragment (offset 0, MF:
// its ports are real), a later fragment (payload where the ports would be)
// and with a TotalLen one byte past the frame's end.
func fragmentFrames(t testing.TB, f l4Frame) (first, later, lying []byte) {
	t.Helper()
	mut := func(off int, v uint16) []byte {
		raw := append([]byte(nil), f.build(t)...)
		binary.BigEndian.PutUint16(raw[pkt.EthernetLen+off:], v)
		binary.BigEndian.PutUint16(raw[pkt.EthernetLen+10:], 0)
		binary.BigEndian.PutUint16(raw[pkt.EthernetLen+10:], pkt.Checksum(raw[pkt.EthernetLen:pkt.EthernetLen+pkt.IPv4MinLen]))
		return raw
	}
	raw := f.build(t)
	return mut(6, 0x2000), mut(6, 0x2000|64), mut(2, uint16(len(raw)-pkt.EthernetLen+1))
}

// TestStatefulFragmentsAndLyingLength pins the hostile-input policy of the
// three handlers: a first fragment is a packet with ports (translated,
// tracked); a later fragment and a frame whose IPv4 TotalLen overruns it
// carry no tuple — NAT44 and the balancer reject and count them, the ACL
// neither looks them up nor tracks them and gives the classifier's verdict.
func TestStatefulFragmentsAndLyingLength(t *testing.T) {
	vip := pkt.IP4{10, 99, 0, 1}
	toVIP := l4Frame{srcIP: pkt.IP4{10, 0, 0, 1}, dstIP: vip, srcPort: 5000, dstPort: 80, payload: []byte("fragment")}
	first, later, lying := fragmentFrames(t, toVIP)
	cases := []struct {
		name    string
		frame   []byte
		tracked bool
	}{{"first-fragment", first, true}, {"later-fragment", later, false}, {"lying-totlen", lying, false}}

	t.Run("nat44", func(t *testing.T) {
		for _, c := range cases {
			var nat *NAT44
			h := newHop(t, func(in, out *dpdkr.PMD, pl *mempool.Pool) (app *App, err error) {
				app, nat, err = NewNAT44("nat", in, out, pl, NAT44Config{ExtIP: pkt.IP4{192, 0, 2, 1}, PortBase: 40000, PortCount: 4, Table: ctTable(t, 1, 64)})
				return app, err
			})
			got := h.cross(t, 0, c.frame)
			if (got != nil) != c.tracked || nat.Bound.Load() != b2u(c.tracked) || nat.Untransl.Load() != b2u(!c.tracked) || h.app.Dropped.Load() != b2u(!c.tracked) {
				t.Errorf("%s: forwarded %v, bound %d, untranslatable %d, dropped %d", c.name, got != nil, nat.Bound.Load(), nat.Untransl.Load(), h.app.Dropped.Load())
			}
			if got != nil && pkt.IP4(got[pkt.EthernetLen+12:pkt.EthernetLen+16]) != (pkt.IP4{192, 0, 2, 1}) {
				t.Errorf("%s: forwarded untranslated", c.name)
			}
		}
	})
	t.Run("balancer", func(t *testing.T) {
		for _, c := range cases {
			var lb *Balancer
			h := newHop(t, func(in, out *dpdkr.PMD, pl *mempool.Pool) (app *App, err error) {
				app, lb, err = NewBalancer("lb", in, out, pl, BalancerConfig{VIP: vip, VIPPort: 80, Backends: []Backend{{IP: pkt.IP4{10, 1, 0, 1}, Port: 8080}}, Table: ctTable(t, 1, 64)})
				return app, err
			})
			got := h.cross(t, 0, c.frame)
			if (got != nil) != c.tracked || lb.NewConns.Load() != b2u(c.tracked) || lb.NotVIP.Load() != b2u(!c.tracked) || h.app.Dropped.Load() != b2u(!c.tracked) {
				t.Errorf("%s: forwarded %v, pinned %d, not-VIP %d, dropped %d", c.name, got != nil, lb.NewConns.Load(), lb.NotVIP.Load(), h.app.Dropped.Load())
			}
		}
	})
	t.Run("acl", func(t *testing.T) {
		// The parser still reads the bytes at the L4 offset as ports, so the
		// classifier's verdict on all three frames is the rule's: allow.
		rules := []ACLRule{{Priority: 100, Match: flow.MatchAll().WithIPProto(pkt.ProtoUDP).WithL4Dst(80), Allow: true}}
		for _, c := range cases {
			var acl *ACL
			var ct *conntrack.Table
			h := newHop(t, func(in, out *dpdkr.PMD, pl *mempool.Pool) (app *App, err error) {
				ct = ctTable(t, 1, 64)
				app, acl, err = NewACL("acl", in, out, pl, ct, rules, false)
				return app, err
			})
			for i := 0; i < 2; i++ {
				if h.cross(t, 0, c.frame) == nil {
					t.Fatalf("%s: packet %d denied, the rule allows it", c.name, i)
				}
			}
			st := ct.Stats()
			wantLive, wantProbes := 2*b2u(c.tracked), 2*b2u(c.tracked)
			if st.Live != wantLive || st.Hits+st.Misses != wantProbes || acl.Established.Load() != b2u(c.tracked) || acl.Walked.Load() != 2-b2u(c.tracked) {
				t.Errorf("%s: live %d probes %d established %d walked %d; want tracked = %v",
					c.name, st.Live, st.Hits+st.Misses, acl.Established.Load(), acl.Walked.Load(), c.tracked)
			}
		}
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
