package vnf

import (
	"testing"
	"time"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

func ctTable(t testing.TB, shards, cap int) *conntrack.Table {
	t.Helper()
	ct, err := conntrack.New(conntrack.Config{Shards: shards, Capacity: cap, IdleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func tcpFrame(t testing.TB, p *mempool.Pool, spec pkt.TCPSpec) *mempool.Buf {
	t.Helper()
	b, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 256)
	n, err := pkt.BuildTCP(raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n < pkt.MinFrame {
		n = pkt.MinFrame
	}
	b.SetBytes(raw[:n])
	return b
}

func parse(t testing.TB, b *mempool.Buf) *pkt.Parser {
	t.Helper()
	var p pkt.Parser
	if err := p.Parse(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	return &p
}

func TestNAT44Translates(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	ct := ctTable(t, 1, 256)
	extIP := pkt.IP4{192, 0, 2, 1}
	app, nat, err := NewNAT44("nat", pmdIn, pmdOut, pl, NAT44Config{
		ExtIP: extIP, PortBase: 40000, PortCount: 16, Table: ct,
	})
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	// Outbound first packet establishes a binding and rewrites the source.
	in.Send([]*mempool.Buf{frame(t, pl, spec)})
	b := recvHost(out, time.Second)
	if b == nil {
		t.Fatal("outbound packet lost")
	}
	p := parse(t, b)
	if p.IPv4.Src() != extIP {
		t.Fatalf("src not translated: %v", p.IPv4.Src())
	}
	extPort := p.UDP.SrcPort()
	if extPort < 40000 || extPort >= 40016 {
		t.Fatalf("translated port %d outside block", extPort)
	}
	if !p.IPv4.VerifyChecksum() {
		t.Fatal("IPv4 checksum invalid after NAT")
	}
	if c := p.UDP.Checksum(); c == 0 || !l4ChecksumValid(p) {
		t.Fatalf("UDP checksum %#04x not patched to the translated header", c)
	}
	b.Free()
	if nat.Bound.Load() != 1 || nat.PortsFree() != 15 {
		t.Fatalf("bound=%d free=%d", nat.Bound.Load(), nat.PortsFree())
	}

	// Return traffic through the binding is translated back.
	ret := pkt.UDPSpec{
		SrcMAC: spec.DstMAC, DstMAC: spec.SrcMAC,
		SrcIP: spec.DstIP, DstIP: extIP,
		SrcPort: spec.DstPort, DstPort: extPort, FrameLen: pkt.MinFrame,
	}
	out.Send([]*mempool.Buf{frame(t, pl, ret)})
	b = recvHost(in, time.Second)
	if b == nil {
		t.Fatal("return packet lost")
	}
	p = parse(t, b)
	if p.IPv4.Dst() != spec.SrcIP || p.UDP.DstPort() != spec.SrcPort {
		t.Fatalf("return not untranslated: %v:%d", p.IPv4.Dst(), p.UDP.DstPort())
	}
	b.Free()

	// Same connection reuses the binding (no new port).
	in.Send([]*mempool.Buf{frame(t, pl, spec)})
	b = recvHost(out, time.Second)
	if b == nil {
		t.Fatal("second outbound lost")
	}
	if got := parse(t, b).UDP.SrcPort(); got != extPort {
		t.Fatalf("binding unstable: port %d then %d", extPort, got)
	}
	b.Free()
	if nat.Bound.Load() != 1 {
		t.Fatalf("second packet re-bound: %d", nat.Bound.Load())
	}

	// Unsolicited outside traffic dies.
	bad := ret
	bad.DstPort = 40015
	out.Send([]*mempool.Buf{frame(t, pl, bad)})
	if b := recvHost(in, 100*time.Millisecond); b != nil {
		b.Free()
		t.Fatal("unsolicited packet forwarded")
	}
	if nat.Unsolicit.Load() == 0 {
		t.Fatal("unsolicited drop not counted")
	}
	if got := app.Dropped.Load(); got != nat.Unsolicit.Load() {
		t.Fatalf("app dropped = %d, want the %d unsolicited", got, nat.Unsolicit.Load())
	}
}

func TestNAT44TCPLifecycle(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	ct := ctTable(t, 1, 256)
	extIP := pkt.IP4{192, 0, 2, 1}
	const linger = 100 * time.Millisecond
	app, nat, err := NewNAT44("nat", pmdIn, pmdOut, pl, NAT44Config{
		ExtIP: extIP, PortBase: 40000, PortCount: 4, Table: ct, Linger: linger,
	})
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	syn := pkt.TCPSpec{
		SrcMAC: spec.SrcMAC, DstMAC: spec.DstMAC,
		SrcIP: spec.SrcIP, DstIP: spec.DstIP,
		SrcPort: 5000, DstPort: 6000, Flags: pkt.TCPSyn,
	}
	in.Send([]*mempool.Buf{tcpFrame(t, pl, syn)})
	b := recvHost(out, time.Second)
	if b == nil {
		t.Fatal("SYN lost")
	}
	p := parse(t, b)
	if p.IPv4.Src() != extIP {
		t.Fatal("SYN not translated")
	}
	// TCP checksum must verify against the translated header.
	seg := p.TCP.Segment()
	if pkt.L4Checksum(p.IPv4.Src(), p.IPv4.Dst(), pkt.ProtoTCP, seg) != 0 {
		t.Fatal("TCP checksum invalid after NAT")
	}
	extPort := p.TCP.SrcPort()
	b.Free()
	if nat.PortsFree() != 3 {
		t.Fatalf("ports free %d after SYN", nat.PortsFree())
	}

	// The inside host's FIN alone must NOT release the port: the peer's
	// FIN/ACK and the final ACK are still in flight.
	fin := syn
	fin.Flags = pkt.TCPFin | pkt.TCPAck
	in.Send([]*mempool.Buf{tcpFrame(t, pl, fin)})
	b = recvHost(out, time.Second)
	if b == nil {
		t.Fatal("FIN lost")
	}
	b.Free()
	if nat.PortsFree() != 3 || nat.Unbound.Load() != 0 {
		t.Fatalf("half-closed binding released: free=%d unbound=%d",
			nat.PortsFree(), nat.Unbound.Load())
	}

	// The peer's FIN/ACK still translates through the binding (the old
	// first-FIN teardown dropped it as unsolicited).
	peerFin := pkt.TCPSpec{
		SrcMAC: spec.DstMAC, DstMAC: spec.SrcMAC,
		SrcIP: spec.DstIP, DstIP: extIP,
		SrcPort: 6000, DstPort: extPort, Flags: pkt.TCPFin | pkt.TCPAck,
	}
	out.Send([]*mempool.Buf{tcpFrame(t, pl, peerFin)})
	b = recvHost(in, time.Second)
	if b == nil {
		t.Fatal("peer FIN/ACK dropped as unsolicited")
	}
	p = parse(t, b)
	if p.IPv4.Dst() != spec.SrcIP || p.TCP.DstPort() != 5000 {
		t.Fatalf("peer FIN not untranslated: %v:%d", p.IPv4.Dst(), p.TCP.DstPort())
	}
	b.Free()

	// So does the final ACK. Both FINs are now seen: the port is lingering,
	// still held.
	ack := syn
	ack.Flags = pkt.TCPAck
	in.Send([]*mempool.Buf{tcpFrame(t, pl, ack)})
	b = recvHost(out, time.Second)
	if b == nil {
		t.Fatal("final ACK dropped")
	}
	b.Free()
	app.Stop()
	if nat.PortsFree() != 3 {
		t.Fatalf("port released before linger: free=%d", nat.PortsFree())
	}
	if freed := nat.ReclaimExpired(ct, time.Now().UnixNano()); freed != 0 {
		t.Fatalf("reclaim released %d lingering ports before the hold-down", freed)
	}
	// Past the hold-down the port comes back.
	if freed := nat.ReclaimExpired(ct, time.Now().Add(2*linger).UnixNano()); freed != 1 {
		t.Fatalf("reclaimed %d ports after linger, want 1", freed)
	}
	if nat.PortsFree() != 4 || nat.Unbound.Load() != 1 {
		t.Fatalf("after linger: free=%d unbound=%d", nat.PortsFree(), nat.Unbound.Load())
	}
}

// TestNAT44RSTLinger pins the abort path: a RST ends the connection both
// ways at once, but the port still rides out the hold-down before reuse.
func TestNAT44RSTLinger(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	ct := ctTable(t, 1, 256)
	const linger = 100 * time.Millisecond
	app, nat, err := NewNAT44("nat", pmdIn, pmdOut, pl, NAT44Config{
		ExtIP: pkt.IP4{192, 0, 2, 1}, PortBase: 41000, PortCount: 2, Table: ct, Linger: linger,
	})
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	syn := pkt.TCPSpec{
		SrcMAC: spec.SrcMAC, DstMAC: spec.DstMAC,
		SrcIP: spec.SrcIP, DstIP: spec.DstIP,
		SrcPort: 5001, DstPort: 6000, Flags: pkt.TCPSyn,
	}
	in.Send([]*mempool.Buf{tcpFrame(t, pl, syn)})
	b := recvHost(out, time.Second)
	if b == nil {
		t.Fatal("SYN lost")
	}
	b.Free()
	rst := syn
	rst.Flags = pkt.TCPRst
	in.Send([]*mempool.Buf{tcpFrame(t, pl, rst)})
	b = recvHost(out, time.Second)
	if b == nil {
		t.Fatal("RST lost")
	}
	b.Free()
	app.Stop()
	if nat.PortsFree() != 1 {
		t.Fatalf("port released on RST with no hold-down: free=%d", nat.PortsFree())
	}
	if freed := nat.ReclaimExpired(ct, time.Now().Add(2*linger).UnixNano()); freed != 1 {
		t.Fatalf("reclaimed %d ports after RST linger, want 1", freed)
	}
	if nat.PortsFree() != 2 {
		t.Fatalf("ports free %d after RST linger", nat.PortsFree())
	}
}

func TestNAT44PortExhaustion(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	ct := ctTable(t, 1, 256)
	app, nat, err := NewNAT44("nat", pmdIn, pmdOut, pl, NAT44Config{
		ExtIP: pkt.IP4{192, 0, 2, 1}, PortBase: 40000, PortCount: 2, Table: ct,
	})
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	for i := 0; i < 3; i++ {
		s := spec
		s.SrcPort = uint16(5000 + i)
		in.Send([]*mempool.Buf{frame(t, pl, s)})
	}
	got := 0
	for recvHost(out, 200*time.Millisecond) != nil {
		got++
	}
	if got != 2 {
		t.Fatalf("forwarded %d, want 2 (block size)", got)
	}
	if nat.Exhausted.Load() != 1 {
		t.Fatalf("exhausted=%d", nat.Exhausted.Load())
	}

	// Expiry-driven reclaim returns the ports once the sweeper idles the
	// bindings out.
	app.Stop()
	ct.Expire(time.Now().Add(2 * time.Minute))
	if freed := nat.ReclaimExpired(ct, time.Now().UnixNano()); freed != 2 {
		t.Fatalf("reclaimed %d ports, want 2", freed)
	}
	if nat.PortsFree() != 2 {
		t.Fatalf("ports free %d after reclaim", nat.PortsFree())
	}
}

func TestACLEstablishedBypass(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	ct := ctTable(t, 1, 256)
	// Allow UDP to :6000, default deny.
	rules := []ACLRule{{
		Priority: 100,
		Match:    flow.MatchAll().WithIPProto(pkt.ProtoUDP).WithL4Dst(6000),
		Allow:    true,
	}}
	app, acl, err := NewACL("acl", pmdIn, pmdOut, pl, ct, rules, false)
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	// First packet walks the classifier and is allowed.
	in.Send([]*mempool.Buf{frame(t, pl, spec)})
	b := recvHost(out, time.Second)
	if b == nil {
		t.Fatal("allowed packet dropped")
	}
	b.Free()
	if acl.Walked.Load() != 1 || acl.Established.Load() != 0 {
		t.Fatalf("walked=%d established=%d", acl.Walked.Load(), acl.Established.Load())
	}

	// Second packet of the connection takes the conntrack bypass.
	in.Send([]*mempool.Buf{frame(t, pl, spec)})
	b = recvHost(out, time.Second)
	if b == nil {
		t.Fatal("established packet dropped")
	}
	b.Free()
	if acl.Established.Load() != 1 {
		t.Fatalf("established=%d", acl.Established.Load())
	}

	// Return traffic bypasses too (reverse entry), even though no rule
	// allows dst-port 5000.
	ret := pkt.UDPSpec{
		SrcMAC: spec.DstMAC, DstMAC: spec.SrcMAC,
		SrcIP: spec.DstIP, DstIP: spec.SrcIP,
		SrcPort: spec.DstPort, DstPort: spec.SrcPort, FrameLen: pkt.MinFrame,
	}
	out.Send([]*mempool.Buf{frame(t, pl, ret)})
	b = recvHost(in, time.Second)
	if b == nil {
		t.Fatal("return traffic denied despite established connection")
	}
	b.Free()
	if acl.Established.Load() != 2 {
		t.Fatalf("established=%d after return", acl.Established.Load())
	}

	// A different connection violating policy is denied.
	deny := spec
	deny.DstPort = 7000
	in.Send([]*mempool.Buf{frame(t, pl, deny)})
	if b := recvHost(out, 100*time.Millisecond); b != nil {
		b.Free()
		t.Fatal("denied packet forwarded")
	}
	if acl.Denied.Load() != 1 {
		t.Fatalf("denied=%d", acl.Denied.Load())
	}
	if got := app.Dropped.Load(); got != 1 {
		t.Fatalf("app dropped = %d, want the 1 denied", got)
	}
}

// TestACLTableFullRollback pins the insert-pair rollback: when the forward
// entry fits but the reverse doesn't (table full), the forward entry must be
// rolled back — a half-tracked connection would serve forward packets from
// the bypass while denying replies, and would never retry tracking.
func TestACLTableFullRollback(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	// Capacity 1: the forward insert fits, the reverse cannot.
	ct := ctTable(t, 1, 1)
	rules := []ACLRule{{
		Priority: 100,
		Match:    flow.MatchAll().WithIPProto(pkt.ProtoUDP).WithL4Dst(6000),
		Allow:    true,
	}}
	app, acl, err := NewACL("acl", pmdIn, pmdOut, pl, ct, rules, false)
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	// The packet is still forwarded (the rule allows it) but the connection
	// must end up untracked, not half-tracked.
	in.Send([]*mempool.Buf{frame(t, pl, spec)})
	b := recvHost(out, time.Second)
	if b == nil {
		t.Fatal("allowed packet dropped under table pressure")
	}
	b.Free()
	if acl.TableFull.Load() != 1 {
		t.Fatalf("tablefull=%d", acl.TableFull.Load())
	}
	if live := ct.Live(); live != 0 {
		t.Fatalf("half-tracked connection left behind: live=%d", live)
	}

	// The next forward packet re-walks the classifier — no stale bypass hit
	// on a connection whose replies would be denied.
	in.Send([]*mempool.Buf{frame(t, pl, spec)})
	b = recvHost(out, time.Second)
	if b == nil {
		t.Fatal("second packet dropped")
	}
	b.Free()
	if acl.Walked.Load() != 2 || acl.Established.Load() != 0 {
		t.Fatalf("walked=%d established=%d", acl.Walked.Load(), acl.Established.Load())
	}
}

func TestBalancerPinsBackend(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	ct := ctTable(t, 1, 256)
	vip := pkt.IP4{10, 99, 0, 1}
	backends := []Backend{
		{IP: pkt.IP4{10, 1, 0, 1}, Port: 8080},
		{IP: pkt.IP4{10, 1, 0, 2}, Port: 8080},
		{IP: pkt.IP4{10, 1, 0, 3}, Port: 8080},
	}
	app, lb, err := NewBalancer("lb", pmdIn, pmdOut, pl, BalancerConfig{
		VIP: vip, VIPPort: 80, Backends: backends, Table: ct,
	})
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	mk := func(srcPort uint16) pkt.UDPSpec {
		s := spec
		s.DstIP = vip
		s.DstPort = 80
		s.SrcPort = srcPort
		return s
	}

	// Two packets of one connection land on the same backend.
	var first pkt.IP4
	for i := 0; i < 2; i++ {
		in.Send([]*mempool.Buf{frame(t, pl, mk(5000))})
		b := recvHost(out, time.Second)
		if b == nil {
			t.Fatalf("packet %d lost", i)
		}
		p := parse(t, b)
		if i == 0 {
			first = p.IPv4.Dst()
		} else if p.IPv4.Dst() != first {
			t.Fatalf("backend flapped: %v then %v", first, p.IPv4.Dst())
		}
		if p.UDP.DstPort() != 8080 {
			t.Fatalf("dst port %d", p.UDP.DstPort())
		}
		b.Free()
	}
	if lb.NewConns.Load() != 1 {
		t.Fatalf("newconns=%d", lb.NewConns.Load())
	}

	// Many connections spread across more than one backend.
	seen := map[pkt.IP4]bool{first: true}
	for i := 0; i < 32; i++ {
		in.Send([]*mempool.Buf{frame(t, pl, mk(uint16(6000+i)))})
		b := recvHost(out, time.Second)
		if b == nil {
			t.Fatalf("conn %d lost", i)
		}
		seen[parse(t, b).IPv4.Dst()] = true
		b.Free()
	}
	if len(seen) < 2 {
		t.Fatalf("32 connections all pinned to one backend")
	}

	// Backend reply is SNATed back to the VIP.
	ret := pkt.UDPSpec{
		SrcMAC: spec.DstMAC, DstMAC: spec.SrcMAC,
		SrcIP: first, DstIP: spec.SrcIP,
		SrcPort: 8080, DstPort: 5000, FrameLen: pkt.MinFrame,
	}
	out.Send([]*mempool.Buf{frame(t, pl, ret)})
	b := recvHost(in, time.Second)
	if b == nil {
		t.Fatal("reply lost")
	}
	p := parse(t, b)
	if p.IPv4.Src() != vip || p.UDP.SrcPort() != 80 {
		t.Fatalf("reply not SNATed to VIP: %v:%d", p.IPv4.Src(), p.UDP.SrcPort())
	}
	b.Free()

	// Traffic to a non-VIP address dies at the balancer.
	stray := spec
	stray.DstIP = pkt.IP4{10, 99, 0, 9}
	in.Send([]*mempool.Buf{frame(t, pl, stray)})
	if b := recvHost(out, 100*time.Millisecond); b != nil {
		b.Free()
		t.Fatal("non-VIP packet forwarded")
	}
	if lb.NotVIP.Load() == 0 {
		t.Fatal("non-VIP drop not counted")
	}
	if got := app.Dropped.Load(); got != lb.NotVIP.Load() {
		t.Fatalf("app dropped = %d, want the %d non-VIP", got, lb.NotVIP.Load())
	}
}
