package trunk

import (
	"bytes"
	"testing"
	"time"

	"ovshighway/internal/mempool"
	"ovshighway/internal/nic"
	"ovshighway/internal/pkt"
)

// env is a two-node micro-testbed: one NIC and one pool per side, joined by
// a trunk. The test plays the role of both vSwitches (nic.Send/Recv).
type env struct {
	nicA, nicB   *nic.NIC
	poolA, poolB *mempool.Pool
	tr           *Trunk
}

func newEnv(t *testing.T, cfg Config, vids ...uint16) *env {
	t.Helper()
	e := &env{
		poolA: mempool.MustNew(mempool.Config{Capacity: 512}),
		poolB: mempool.MustNew(mempool.Config{Capacity: 512}),
	}
	var err error
	if e.nicA, err = nic.New(nic.Config{ID: 1, Name: "ethA", RatePps: -1}); err != nil {
		t.Fatal(err)
	}
	if e.nicB, err = nic.New(nic.Config{ID: 2, Name: "ethB", RatePps: -1}); err != nil {
		t.Fatal(err)
	}
	cfg.Name = "t0"
	cfg.A = Endpoint{NIC: e.nicA, Pool: e.poolA}
	cfg.B = Endpoint{NIC: e.nicB, Pool: e.poolB}
	if e.tr, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	for _, vid := range vids {
		if err := e.tr.AddLane(vid); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(e.tr.Stop)
	return e
}

// taggedFrame synthesizes a minimal UDP frame tagged with vid (PCP 0).
func taggedFrame(t testing.TB, vid uint16) []byte {
	return pcpFrame(t, vid, 0)
}

// pcpFrame synthesizes a minimal UDP frame tagged with vid and the given
// 802.1Q priority code point.
func pcpFrame(t testing.TB, vid uint16, pcp uint8) []byte {
	t.Helper()
	buf := make([]byte, 256)
	n, err := pkt.BuildUDP(buf, pkt.UDPSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.IP4{10, 0, 0, 1}, DstIP: pkt.IP4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000,
		VlanID: vid, VlanPCP: pcp, FrameLen: pkt.MinFrame,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// sendA pushes one payload out of node A's switch toward the trunk.
func (e *env) sendA(t testing.TB, payload []byte) {
	t.Helper()
	b, err := e.poolA.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetBytes(payload); err != nil {
		t.Fatal(err)
	}
	if e.nicA.Send([]*mempool.Buf{b}) != 1 {
		t.Fatal("nic A rejected the frame")
	}
}

// recvB polls node B's switch side until a frame arrives or the deadline
// passes.
func (e *env) recvB(d time.Duration) *mempool.Buf {
	out := make([]*mempool.Buf, 1)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if e.nicB.Recv(out) == 1 {
			return out[0]
		}
		time.Sleep(10 * time.Microsecond)
	}
	return nil
}

func TestTrunkCarriesLaneAndRehomes(t *testing.T) {
	e := newEnv(t, Config{}, 7)
	frame := taggedFrame(t, 7)
	e.sendA(t, frame)

	got := e.recvB(2 * time.Second)
	if got == nil {
		t.Fatal("frame did not cross the trunk")
	}
	if !bytes.Equal(got.Bytes(), frame) {
		t.Fatalf("frame corrupted across the trunk: %x", got.Bytes())
	}
	// The load-bearing property: the delivered buffer belongs to node B's
	// pool, and node A's buffer went home.
	if !e.poolB.Owns(got) {
		t.Fatal("delivered frame not re-homed into the receiving pool")
	}
	if e.poolA.Owns(got) {
		t.Fatal("delivered frame still backed by the sending pool")
	}
	got.Free()
	deadline := time.Now().Add(time.Second)
	for e.poolA.Avail() != e.poolA.Cap() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.poolA.Avail() != e.poolA.Cap() {
		t.Fatalf("sending pool leaked: %d of %d free", e.poolA.Avail(), e.poolA.Cap())
	}
	ab, _, ok := e.tr.LaneStats(7)
	if !ok || ab.Carried != 1 || ab.Dropped != 0 {
		t.Fatalf("lane 7 a->b stats = %+v (ok %v), want 1 carried", ab, ok)
	}
	tab, _ := e.tr.Stats()
	if tab.Carried != 1 {
		t.Fatalf("trunk a->b stats = %+v, want 1 carried", tab)
	}
}

func TestTrunkDropsUnroutedFrames(t *testing.T) {
	e := newEnv(t, Config{}, 7)
	e.sendA(t, taggedFrame(t, 99)) // unregistered vid
	e.sendA(t, func() []byte {     // untagged
		f := taggedFrame(t, 0)
		return f
	}())
	deadline := time.Now().Add(2 * time.Second)
	for e.tr.Unrouted() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := e.tr.Unrouted(); got != 2 {
		t.Fatalf("unrouted = %d, want 2", got)
	}
	if got := e.recvB(50 * time.Millisecond); got != nil {
		t.Fatal("unrouted frame was delivered")
	}
	// Both source buffers must be home again.
	if e.poolA.Avail() != e.poolA.Cap() {
		t.Fatalf("sending pool leaked: %d of %d free", e.poolA.Avail(), e.poolA.Cap())
	}
}

func TestTrunkLaneLifecycle(t *testing.T) {
	e := newEnv(t, Config{}, 10, 20)
	if got := e.tr.LaneCount(); got != 2 {
		t.Fatalf("LaneCount = %d, want 2", got)
	}
	if got := e.tr.Lanes(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("Lanes = %v", got)
	}
	if err := e.tr.AddLane(10); err == nil {
		t.Fatal("duplicate lane accepted")
	}
	if err := e.tr.AddLane(0); err == nil {
		t.Fatal("vid 0 accepted")
	}
	if err := e.tr.AddLane(4095); err == nil {
		t.Fatal("vid 4095 accepted")
	}
	if err := e.tr.RemoveLane(99); err == nil {
		t.Fatal("removing unknown lane accepted")
	}
	if err := e.tr.RemoveLane(10); err != nil {
		t.Fatal(err)
	}
	// Lane 10 is gone: its traffic drops as unrouted, lane 20 still flows.
	e.sendA(t, taggedFrame(t, 10))
	e.sendA(t, taggedFrame(t, 20))
	got := e.recvB(2 * time.Second)
	if got == nil {
		t.Fatal("surviving lane stalled after co-resident lane removal")
	}
	if vid, ok := pkt.FrameVlanID(got.Bytes()); !ok || vid != 20 {
		t.Fatalf("delivered vid = %d,%v, want 20", vid, ok)
	}
	got.Free()
	if e.tr.Unrouted() != 1 {
		t.Fatalf("unrouted = %d, want 1", e.tr.Unrouted())
	}
}

func TestTrunkBidirectional(t *testing.T) {
	e := newEnv(t, Config{}, 5)
	// B → A direction: push from node B's switch, receive on node A's.
	b, err := e.poolB.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetBytes(taggedFrame(t, 5)); err != nil {
		t.Fatal(err)
	}
	if e.nicB.Send([]*mempool.Buf{b}) != 1 {
		t.Fatal("nic B rejected the frame")
	}
	out := make([]*mempool.Buf, 1)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if e.nicA.Recv(out) == 1 {
			if !e.poolA.Owns(out[0]) {
				t.Fatal("b->a frame not re-homed into pool A")
			}
			out[0].Free()
			_, ba, _ := e.tr.LaneStats(5)
			if ba.Carried != 1 {
				t.Fatalf("lane 5 b->a stats = %+v, want 1 carried", ba)
			}
			return
		}
		time.Sleep(10 * time.Microsecond)
	}
	t.Fatal("b->a frame did not arrive")
}

func TestTrunkLatencyShaping(t *testing.T) {
	const lat = 50 * time.Millisecond
	e := newEnv(t, Config{Latency: lat}, 3)
	start := time.Now()
	e.sendA(t, taggedFrame(t, 3))
	got := e.recvB(2 * time.Second)
	if got == nil {
		t.Fatal("frame did not arrive")
	}
	got.Free()
	if el := time.Since(start); el < lat {
		t.Fatalf("frame arrived after %v, before the %v propagation delay", el, lat)
	}
}

// TestTrunkSharedRateContention is the headline shared-uplink property: two
// lanes saturating one shaped trunk each converge to roughly half the
// trunk's budget — the rate is a shared budget, not per-lane.
func TestTrunkSharedRateContention(t *testing.T) {
	if testing.Short() {
		t.Skip("rate measurement needs a real-time window")
	}
	const rate = 4000.0
	e := newEnv(t, Config{RatePps: rate}, 10, 20)
	f10, f20 := taggedFrame(t, 10), taggedFrame(t, 20)
	stop := make(chan struct{})
	go func() {
		// One goroutine feeds both lanes (the NIC wire queue is SPSC),
		// alternating so both offer far more than half the budget.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			frame := f10
			if i%2 == 1 {
				frame = f20
			}
			if b, err := e.poolA.Get(); err == nil {
				b.SetBytes(frame)
				e.nicA.Send([]*mempool.Buf{b})
			} else {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()
	defer close(stop)
	// Drain B continuously for the window.
	out := make([]*mempool.Buf, 32)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		n := e.nicB.Recv(out)
		mempool.FreeBatch(out[:n])
		if n == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	ab10, _, _ := e.tr.LaneStats(10)
	ab20, _, _ := e.tr.LaneStats(20)
	total := ab10.Carried + ab20.Carried
	// 500 ms at 4000 pps ⇒ ~2000 frames across both lanes. Catch an
	// unshaped trunk (tens of thousands) and a starved lane.
	if total > 5000 {
		t.Fatalf("trunk carried %d frames in 500ms, shared shaping to %v pps not applied", total, rate)
	}
	if ab10.Carried == 0 || ab20.Carried == 0 {
		t.Fatalf("a lane starved under contention: %d/%d", ab10.Carried, ab20.Carried)
	}
	// Fair FIFO sharing: neither lane exceeds ~¾ of the carried total.
	for vid, carried := range map[uint16]uint64{10: ab10.Carried, 20: ab20.Carried} {
		if carried*4 > total*3 {
			t.Fatalf("lane %d took %d of %d carried frames, want ~half each", vid, carried, total)
		}
	}
}

// TestTrunkPCPWeightedScheduler is the lane-QoS headline: two lanes
// saturating one shaped trunk from different PCP classes with a 2:1 weight
// configuration converge to a ≈2:1 goodput split — the deficit-round-robin
// scheduler distributes the shared budget by weight, not FIFO arrival.
func TestTrunkPCPWeightedScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("rate measurement needs a real-time window")
	}
	const rate = 4000.0
	var weights [8]float64
	weights[0] = 1 // lane 20 rides PCP 0
	weights[6] = 2 // lane 10 rides PCP 6 at twice the weight
	e := newEnv(t, Config{RatePps: rate, PCPWeights: weights}, 10, 20)
	fHi, fLo := pcpFrame(t, 10, 6), pcpFrame(t, 20, 0)
	stop := make(chan struct{})
	go func() {
		// One goroutine feeds both lanes alternately (the NIC wire queue is
		// SPSC), each offering far more than its weighted share.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			frame := fHi
			if i%2 == 1 {
				frame = fLo
			}
			if b, err := e.poolA.Get(); err == nil {
				b.SetBytes(frame)
				e.nicA.Send([]*mempool.Buf{b})
			} else {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()
	defer close(stop)
	out := make([]*mempool.Buf, 32)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		n := e.nicB.Recv(out)
		mempool.FreeBatch(out[:n])
		if n == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	hi, _, _ := e.tr.LaneStats(10)
	lo, _, _ := e.tr.LaneStats(20)
	total := hi.Carried + lo.Carried
	if total > 5000 {
		t.Fatalf("trunk carried %d frames in 500ms, shared shaping to %v pps not applied", total, rate)
	}
	if hi.Carried == 0 || lo.Carried == 0 {
		t.Fatalf("a class starved under 2:1 weighting: %d/%d", hi.Carried, lo.Carried)
	}
	ratio := float64(hi.Carried) / float64(lo.Carried)
	if ratio < 1.6 || ratio > 2.5 {
		t.Fatalf("2:1 PCP weighting delivered %.2f:1 goodput (%d vs %d carried), want ≈2:1",
			ratio, hi.Carried, lo.Carried)
	}
	// The per-class counters attribute the split to the right PCP queues.
	abPCP, _ := e.tr.PCPStats()
	if abPCP[6].Carried != hi.Carried || abPCP[0].Carried != lo.Carried {
		t.Fatalf("PCP stats %+v/%+v disagree with lane stats %d/%d",
			abPCP[6], abPCP[0], hi.Carried, lo.Carried)
	}
}

func TestTrunkDropsOnExhaustedDestination(t *testing.T) {
	e := &env{
		poolA: mempool.MustNew(mempool.Config{Capacity: 256}),
		// Destination pool too small for the burst in flight.
		poolB: mempool.MustNew(mempool.Config{Capacity: 4}),
	}
	var err error
	if e.nicA, err = nic.New(nic.Config{ID: 1, Name: "ethA", RatePps: -1}); err != nil {
		t.Fatal(err)
	}
	if e.nicB, err = nic.New(nic.Config{ID: 2, Name: "ethB", RatePps: -1}); err != nil {
		t.Fatal(err)
	}
	e.tr, err = New(Config{
		Name: "t0",
		A:    Endpoint{NIC: e.nicA, Pool: e.poolA},
		B:    Endpoint{NIC: e.nicB, Pool: e.poolB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.tr.AddLane(7); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.tr.Stop)

	// Flood without draining B: the 4-buffer destination pool exhausts.
	const burst = 128
	frame := taggedFrame(t, 7)
	for i := 0; i < burst; i++ {
		e.sendA(t, frame)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		ab, _ := e.tr.Stats()
		if ab.Dropped > 0 && ab.Carried+ab.Dropped == burst {
			// Source pool must be whole again: every frame either crossed
			// (re-homed copy) or was dropped, and both paths free the
			// original.
			for e.poolA.Avail() != e.poolA.Cap() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if e.poolA.Avail() != e.poolA.Cap() {
				t.Fatalf("sending pool leaked: %d of %d free", e.poolA.Avail(), e.poolA.Cap())
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	ab, _ := e.tr.Stats()
	t.Fatalf("expected drops on exhausted destination pool, stats %+v", ab)
}

func TestTrunkStopFreesInFlight(t *testing.T) {
	const lat = time.Minute // frames park on the delay line forever
	e := newEnv(t, Config{Latency: lat}, 9)
	frame := taggedFrame(t, 9)
	for i := 0; i < 16; i++ {
		e.sendA(t, frame)
	}
	// Wait until the pump re-homed all 16 into pool B: Stop frees what the
	// trunk holds, but frames still queued in a NIC belong to the NIC's owner.
	deadline := time.Now().Add(2 * time.Second)
	for e.poolB.Avail() != e.poolB.Cap()-16 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	e.tr.Stop()
	if e.poolB.Avail() != e.poolB.Cap() {
		t.Fatalf("in-flight frames leaked from pool B: %d of %d free",
			e.poolB.Avail(), e.poolB.Cap())
	}
	if e.poolA.Avail() != e.poolA.Cap() {
		t.Fatalf("source buffers leaked from pool A: %d of %d free",
			e.poolA.Avail(), e.poolA.Cap())
	}
}

func TestTrunkValidation(t *testing.T) {
	pool := mempool.MustNew(mempool.Config{Capacity: 4})
	dev, err := nic.New(nic.Config{ID: 1, Name: "eth", RatePps: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{A: Endpoint{NIC: dev, Pool: pool}}); err == nil {
		t.Fatal("missing B endpoint accepted")
	}
	if _, err := New(Config{
		A: Endpoint{NIC: dev, Pool: pool},
		B: Endpoint{NIC: dev},
	}); err == nil {
		t.Fatal("missing pool accepted")
	}
}
