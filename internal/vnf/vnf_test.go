package vnf

import (
	"runtime"
	"testing"
	"time"

	"ovshighway/internal/dpdkr"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

func pool(t testing.TB) *mempool.Pool {
	t.Helper()
	return mempool.MustNew(mempool.Config{Capacity: 1024, BufSize: 2048, Headroom: 128})
}

// hostPair creates a dpdkr port pair wired so packets sent by the test on
// hostIn appear at the app's port 0, and packets the app emits on port 1 are
// readable by the test from hostOut.
func hostPair(t testing.TB) (in *dpdkr.Port, out *dpdkr.Port, pmdIn, pmdOut *dpdkr.PMD) {
	t.Helper()
	var err error
	in, pmdIn, err = dpdkr.NewPort(1, "in", 256)
	if err != nil {
		t.Fatal(err)
	}
	out, pmdOut, err = dpdkr.NewPort(2, "out", 256)
	if err != nil {
		t.Fatal(err)
	}
	return in, out, pmdIn, pmdOut
}

func frame(t testing.TB, p *mempool.Pool, spec pkt.UDPSpec) *mempool.Buf {
	t.Helper()
	b, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 256)
	n, err := pkt.BuildUDP(raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	b.SetBytes(raw[:n])
	return b
}

var spec = pkt.UDPSpec{
	SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
	SrcIP: pkt.IP4{10, 0, 0, 1}, DstIP: pkt.IP4{10, 0, 0, 2},
	SrcPort: 5000, DstPort: 6000, FrameLen: pkt.MinFrame,
}

// recvHost polls a host port until one packet or timeout.
func recvHost(p *dpdkr.Port, d time.Duration) *mempool.Buf {
	out := make([]*mempool.Buf, 1)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if p.Recv(out) == 1 {
			return out[0]
		}
	}
	return nil
}

func TestForwarderMovesBothDirections(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	app, err := NewForwarder("fwd", pmdIn, pmdOut, pl)
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	// host→port0 ⇒ app ⇒ port1→host
	in.Send([]*mempool.Buf{frame(t, pl, spec)})
	b := recvHost(out, time.Second)
	if b == nil {
		t.Fatal("forward 0→1 failed")
	}
	b.Free()

	// and the reverse
	out.Send([]*mempool.Buf{frame(t, pl, spec)})
	b = recvHost(in, time.Second)
	if b == nil {
		t.Fatal("forward 1→0 failed")
	}
	b.Free()

	// Ctx.Tx bumps TxPackets after the ring write the host just observed:
	// wait on the counter, not on the packet.
	for deadline := time.Now().Add(time.Second); app.TxPackets.Load() < 2 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if app.RxPackets.Load() != 2 || app.TxPackets.Load() != 2 {
		t.Fatalf("app counters rx=%d tx=%d", app.RxPackets.Load(), app.TxPackets.Load())
	}
}

func TestAppValidation(t *testing.T) {
	if _, err := New(Config{Name: "x", Handler: ForwardHandler()}); err == nil {
		t.Fatal("app without ports accepted")
	}
	_, _, pmdIn, _ := hostPair(t)
	if _, err := New(Config{Name: "x", PMDs: []*dpdkr.PMD{pmdIn}}); err == nil {
		t.Fatal("app without handler accepted")
	}
}

func TestFirewallBlocksMatching(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	rules := []FirewallRule{{Proto: pkt.ProtoUDP, DstPort: 6000}}
	app, fw, err := NewFirewall("fw", pmdIn, pmdOut, pl, rules)
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	// Blocked: UDP to :6000.
	in.Send([]*mempool.Buf{frame(t, pl, spec)})
	if b := recvHost(out, 100*time.Millisecond); b != nil {
		b.Free()
		t.Fatal("blocked packet forwarded")
	}
	if fw.Blocked.Load() != 1 {
		t.Fatalf("blocked = %d", fw.Blocked.Load())
	}
	if got := app.Dropped.Load(); got != 1 {
		t.Fatalf("app dropped = %d, want the 1 blocked", got)
	}

	// Passed: different destination port.
	okSpec := spec
	okSpec.DstPort = 7777
	in.Send([]*mempool.Buf{frame(t, pl, okSpec)})
	b := recvHost(out, time.Second)
	if b == nil {
		t.Fatal("allowed packet dropped")
	}
	b.Free()
}

func TestFirewallPrefixRule(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	rules := []FirewallRule{{SrcPrefix: pkt.IP4{10, 0, 0, 0}, SrcPrefixLen: 8}}
	app, fw, err := NewFirewall("fw", pmdIn, pmdOut, pl, rules)
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	in.Send([]*mempool.Buf{frame(t, pl, spec)}) // src 10.0.0.1 → blocked
	otherSpec := spec
	otherSpec.SrcIP = pkt.IP4{192, 168, 0, 1}
	in.Send([]*mempool.Buf{frame(t, pl, otherSpec)}) // passes

	b := recvHost(out, time.Second)
	if b == nil {
		t.Fatal("non-matching packet dropped")
	}
	var p pkt.Parser
	p.Parse(b.Bytes())
	if p.IPv4.Src() != otherSpec.SrcIP {
		t.Fatal("wrong packet passed the firewall")
	}
	b.Free()
	if fw.Blocked.Load() != 1 {
		t.Fatalf("blocked = %d", fw.Blocked.Load())
	}
}

func TestMonitorCountsFlows(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	app, mon, err := NewMonitor("mon", pmdIn, pmdOut, pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	for i := 0; i < 3; i++ {
		in.Send([]*mempool.Buf{frame(t, pl, spec)})
	}
	spec2 := spec
	spec2.SrcPort = 5001
	in.Send([]*mempool.Buf{frame(t, pl, spec2)})

	for i := 0; i < 4; i++ {
		b := recvHost(out, time.Second)
		if b == nil {
			t.Fatalf("packet %d not forwarded", i)
		}
		b.Free()
	}
	if mon.FlowCount() != 2 {
		t.Fatalf("flows = %d, want 2", mon.FlowCount())
	}
	ft := pkt.FiveTuple{Src: spec.SrcIP, Dst: spec.DstIP, SrcPort: 5000, DstPort: 6000, Proto: pkt.ProtoUDP}
	e, ok := mon.Lookup(ft)
	if !ok || e.Packets != 3 {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
}

func TestMonitorOverflowCap(t *testing.T) {
	pl := pool(t)
	in, out, pmdIn, pmdOut := hostPair(t)
	app, mon, err := NewMonitor("mon", pmdIn, pmdOut, pl, 2)
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	defer app.Stop()

	for i := 0; i < 4; i++ {
		s := spec
		s.SrcPort = uint16(5000 + i)
		in.Send([]*mempool.Buf{frame(t, pl, s)})
		if b := recvHost(out, time.Second); b != nil {
			b.Free()
		}
	}
	if mon.FlowCount() != 2 {
		t.Fatalf("flows = %d, want cap 2", mon.FlowCount())
	}
	if mon.Overflow.Load() != 2 {
		t.Fatalf("overflow = %d, want 2", mon.Overflow.Load())
	}
}

func TestSourceSinkPair(t *testing.T) {
	pl := pool(t)
	srcHost, srcPMD, err := dpdkr.NewPort(10, "srcport", 256)
	if err != nil {
		t.Fatal(err)
	}
	sinkHost, sinkPMD, err := dpdkr.NewPort(11, "sinkport", 256)
	if err != nil {
		t.Fatal(err)
	}

	src, err := NewSource("src", srcPMD, pl, spec, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	defer src.Stop()
	sink, err := NewSink("dst", sinkPMD, pl)
	if err != nil {
		t.Fatal(err)
	}
	sink.Start()
	defer sink.Stop()

	// Shuttle what the source emits into the sink's normal channel by hand
	// (standing in for the switch).
	batch := make([]*mempool.Buf, 32)
	moved := 0
	deadline := time.Now().Add(2 * time.Second)
	for moved < 1000 && time.Now().Before(deadline) {
		n := srcHost.Recv(batch)
		if n == 0 {
			continue
		}
		moved += sinkHost.Send(batch[:n])
	}
	if moved < 1000 {
		t.Fatalf("moved only %d packets", moved)
	}
	deadline = time.Now().Add(2 * time.Second)
	for sink.Received.Load() < uint64(moved) && time.Now().Before(deadline) {
	}
	if got := sink.Received.Load(); got < uint64(moved) {
		t.Fatalf("sink received %d of %d", got, moved)
	}
	if src.Sent.Load() == 0 {
		t.Fatal("source sent nothing")
	}
	if sink.RatePps() <= 0 {
		t.Fatal("sink rate not positive")
	}
}
