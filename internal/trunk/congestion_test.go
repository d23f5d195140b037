package trunk

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ovshighway/internal/mempool"
)

// offerFor pushes frames of payload into the trunk's A side as fast as the
// pool recycles them, for the given wall-clock window, while a drainer keeps
// node B's switch side empty. It returns the number of frames the NIC
// accepted and the peak a->b congestion score observed during the window.
func (e *env) offerFor(t *testing.T, payload []byte, window, gap time.Duration) (sent int, peak uint32) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // node B's vSwitch: drain and free, so the trunk never blocks on B
		defer wg.Done()
		out := make([]*mempool.Buf, 32)
		for {
			n := e.nicB.Recv(out)
			for _, b := range out[:n] {
				b.Free()
			}
			select {
			case <-stop:
				if n == 0 {
					return
				}
			default:
			}
			if n == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		b, err := e.poolA.Get()
		if err != nil { // pool cycling through the trunk: wait for returns
			time.Sleep(50 * time.Microsecond)
		} else {
			if err := b.SetBytes(payload); err != nil {
				t.Fatal(err)
			}
			if e.nicA.Send([]*mempool.Buf{b}) != 1 {
				b.Free()
			} else {
				sent++
			}
		}
		if ab, _ := e.tr.Congestion(); ab > peak {
			peak = ab
		}
		if gap > 0 {
			time.Sleep(gap)
		}
	}
	close(stop)
	wg.Wait()
	return sent, peak
}

// TestTrunkCongestionGaugeTracksLoad: the per-direction congestion score is
// monotone with offered load — near zero when the offered rate sits under
// the trunk budget, above the sender's repick threshold (64) when the
// staging queue saturates — and decays back to zero once the direction goes
// idle. The reverse direction, which carries nothing, must stay at zero
// throughout.
func TestTrunkCongestionGaugeTracksLoad(t *testing.T) {
	e := newEnv(t, Config{RatePps: 20000, StagingCap: 64}, 7)
	frame := taggedFrame(t, 7)

	// Light phase: ~2kpps offered against a 20kpps budget. The staging queue
	// never builds, so the score stays under the congestion threshold.
	_, lightPeak := e.offerFor(t, frame, 200*time.Millisecond, 500*time.Microsecond)
	if lightPeak >= 64 {
		t.Fatalf("light load scored %d, want < 64 (uncongested)", lightPeak)
	}

	// Heavy phase: offer as fast as the pool recycles — far beyond the
	// budget. The staging queue fills, overflow drops saturate the sample,
	// and the EWMA must cross the repick threshold.
	sent, heavyPeak := e.offerFor(t, frame, 400*time.Millisecond, 0)
	if heavyPeak < 64 {
		t.Fatalf("saturating load scored %d (after %d frames), want >= 64", heavyPeak, sent)
	}
	if heavyPeak <= lightPeak {
		t.Fatalf("score not monotone with load: light %d, heavy %d", lightPeak, heavyPeak)
	}
	if _, ba := e.tr.Congestion(); ba != 0 {
		t.Fatalf("idle b->a direction scored %d, want 0", ba)
	}

	// Idle decay: with the sender quiet the pump keeps draining the staged
	// backlog and the EWMA must walk back to zero.
	out := make([]*mempool.Buf, 32)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, b := range out[:e.nicB.Recv(out)] {
			b.Free()
		}
		if ab, _ := e.tr.Congestion(); ab == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	ab, _ := e.tr.Congestion()
	t.Fatalf("congestion score stuck at %d after going idle", ab)
}

// TestTrunkStagingCapBoundsQueue: Config.StagingCap is live — a burst that
// the default 256-frame staging queue absorbs loss-free overflows a
// shallow 8-frame queue into trunk drops, and the overflow saturates the
// congestion score.
func TestTrunkStagingCapBoundsQueue(t *testing.T) {
	burst := func(e *env) {
		frame := taggedFrame(t, 7)
		for i := 0; i < 64; i++ {
			e.sendA(t, frame)
		}
		// Wait until every burst frame is accounted: carried, dropped, or
		// delivered (the rate budget drains 64 frames in well under a second).
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			ab, _ := e.tr.Stats()
			if ab.Carried+ab.Dropped >= 64 {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		t.Fatal("burst frames unaccounted for")
	}

	deep := newEnv(t, Config{RatePps: 500}, 7)
	burst(deep)
	if ab, _ := deep.tr.Stats(); ab.Dropped != 0 {
		t.Fatalf("default staging cap dropped %d of a 64-frame burst", ab.Dropped)
	}

	shallow := newEnv(t, Config{RatePps: 500, StagingCap: 8}, 7)
	burst(shallow)
	if ab, _ := shallow.tr.Stats(); ab.Dropped == 0 {
		t.Fatal("StagingCap=8 absorbed a 64-frame burst without drops")
	}
	// Under sustained overload the shallow queue overflows on every pump
	// step, so the drop-saturated congestion sample must drive the EWMA
	// past the repick threshold (a one-shot burst only saturates a single
	// step — the token bucket's opening allowance drains the 8 staged
	// frames immediately and the score decays from ~63 before it can
	// converge).
	if _, peak := shallow.offerFor(t, taggedFrame(t, 7), 200*time.Millisecond, 0); peak < 64 {
		t.Fatalf("sustained staging overflow scored %d, want >= 64", peak)
	}
}

// TestTrunkPCPStatsSumAcrossBundle: under concurrent multi-priority traffic
// on a two-trunk bundle, every trunk's per-PCP carried/dropped counters sum
// exactly to its direction totals, and the bundle-wide totals account for
// every frame offered — no frame is double-counted or lost between the
// per-class and per-direction views. Stats readers hammer the counters while
// traffic flows; run under -race.
func TestTrunkPCPStatsSumAcrossBundle(t *testing.T) {
	bundle := []*env{
		newEnv(t, Config{RatePps: -1}, 7),
		newEnv(t, Config{RatePps: -1}, 7),
	}
	const perSender = 400
	pcps := []uint8{1, 5}

	var sent atomic.Uint64
	stop := make(chan struct{})
	var senders, aux sync.WaitGroup
	for _, e := range bundle {
		e := e
		aux.Add(1)
		go func() { // node B drainer
			defer aux.Done()
			out := make([]*mempool.Buf, 32)
			for {
				n := e.nicB.Recv(out)
				for _, b := range out[:n] {
					b.Free()
				}
				if n == 0 {
					select {
					case <-stop:
						return
					default:
						time.Sleep(50 * time.Microsecond)
					}
				}
			}
		}()
		// One sender per NIC — nic.Send's TX queue is single-producer —
		// interleaving the two priority classes frame by frame.
		frames := [][]byte{pcpFrame(t, 7, pcps[0]), pcpFrame(t, 7, pcps[1])}
		senders.Add(1)
		go func() {
			defer senders.Done()
			for n := 0; n < perSender*len(frames); {
				b, err := e.poolA.Get()
				if err != nil {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if b.SetBytes(frames[n%len(frames)]) != nil || e.nicA.Send([]*mempool.Buf{b}) != 1 {
					b.Free()
					continue
				}
				sent.Add(1)
				n++
			}
		}()
		aux.Add(1)
		go func() { // concurrent stats observer (the -race subject)
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.tr.PCPStats()
				e.tr.Stats()
				e.tr.Congestion()
				e.tr.Backlog()
			}
		}()
	}

	// Senders finish, then the trunks drain: wait for every offered frame to
	// be accounted as carried or dropped before closing the books.
	done := make(chan struct{})
	go func() { senders.Wait(); close(done) }()
	accounted := func() uint64 {
		var total uint64
		for _, e := range bundle {
			ab, _ := e.tr.Stats()
			total += ab.Carried + ab.Dropped
		}
		return total
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-done:
		default:
			time.Sleep(time.Millisecond)
			continue
		}
		if accounted() >= sent.Load() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	aux.Wait()

	var bundleTotal uint64
	for i, e := range bundle {
		abPCP, baPCP := e.tr.PCPStats()
		ab, ba := e.tr.Stats()
		var sumC, sumD uint64
		for c := 0; c < 8; c++ {
			sumC += abPCP[c].Carried
			sumD += abPCP[c].Dropped
		}
		if sumC != ab.Carried || sumD != ab.Dropped {
			t.Fatalf("trunk %d a->b: per-PCP sums %d/%d != direction totals %d/%d",
				i, sumC, sumD, ab.Carried, ab.Dropped)
		}
		for c := 0; c < 8; c++ {
			isTraffic := false
			for _, pcp := range pcps {
				if c == int(pcp) {
					isTraffic = true
				}
			}
			if !isTraffic && (abPCP[c].Carried != 0 || abPCP[c].Dropped != 0) {
				t.Fatalf("trunk %d: idle class %d shows %+v", i, c, abPCP[c])
			}
		}
		if ba.Carried != 0 || ba.Dropped != 0 || baPCP[1].Carried != 0 {
			t.Fatalf("trunk %d: idle b->a direction shows traffic: %+v", i, ba)
		}
		if e.tr.Unrouted() != 0 {
			t.Fatalf("trunk %d dropped %d unrouted frames", i, e.tr.Unrouted())
		}
		bundleTotal += ab.Carried + ab.Dropped
	}
	if bundleTotal != sent.Load() {
		t.Fatalf("bundle accounted %d frames, offered %d", bundleTotal, sent.Load())
	}
}
