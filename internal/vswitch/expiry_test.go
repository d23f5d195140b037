package vswitch

import (
	"testing"
	"time"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/flow"
	"ovshighway/internal/openflow"
	"ovshighway/internal/pkt"
)

func TestFlowExpiredPredicate(t *testing.T) {
	tb := flow.NewTable()
	f := tb.AddWithTimeouts(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0, 1, 0, 0)
	now := time.Now()
	if dead, _ := f.Expired(now); dead {
		t.Fatal("fresh idle flow expired immediately")
	}
	if dead, reason := f.Expired(now.Add(2 * time.Second)); !dead || reason != flow.ReasonIdleTimeout {
		t.Fatalf("idle expiry = %v/%d", dead, reason)
	}
	// A touch extends the idle deadline.
	f.Touch(now.Add(3 * time.Second).UnixNano())
	if dead, _ := f.Expired(now.Add(3500 * time.Millisecond)); dead {
		t.Fatal("touched flow expired")
	}

	h := tb.AddWithTimeouts(10, flow.MatchInPort(2), flow.Actions{flow.Output(1)}, 0, 0, 2, 0)
	if dead, _ := h.Expired(now.Add(time.Second)); dead {
		t.Fatal("hard flow expired early")
	}
	h.Touch(now.Add(10 * time.Second).UnixNano()) // touches never save a hard timeout
	if dead, reason := h.Expired(now.Add(3 * time.Second)); !dead || reason != flow.ReasonHardTimeout {
		t.Fatalf("hard expiry = %v/%d", dead, reason)
	}

	p := tb.Add(10, flow.MatchInPort(3), flow.Actions{flow.Output(1)}, 0)
	if dead, _ := p.Expired(now.Add(1000 * time.Hour)); dead {
		t.Fatal("permanent flow expired")
	}
}

type expRecListener struct {
	added, removed []*flow.Flow
}

func (r *expRecListener) FlowAdded(f *flow.Flow)   { r.added = append(r.added, f) }
func (r *expRecListener) FlowRemoved(f *flow.Flow) { r.removed = append(r.removed, f) }

func TestTableExpireRemovesAndNotifies(t *testing.T) {
	tb := flow.NewTable()
	rec := &expRecListener{}
	tb.AddListener(rec)
	tb.AddWithTimeouts(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 7, 1, 0, 0)
	tb.Add(10, flow.MatchInPort(2), flow.Actions{flow.Output(1)}, 8)

	if got := tb.Expire(time.Now()); got != nil {
		t.Fatalf("premature expiry: %v", got)
	}
	expired := tb.Expire(time.Now().Add(5 * time.Second))
	if len(expired) != 1 || expired[0].Flow.Cookie != 7 || expired[0].Reason != flow.ReasonIdleTimeout {
		t.Fatalf("expired = %+v", expired)
	}
	if tb.Len() != 1 {
		t.Fatalf("table len = %d", tb.Len())
	}
	if len(rec.removed) != 1 || rec.removed[0].Cookie != 7 {
		t.Fatal("listener not fired on expiry")
	}
	k := flow.Key{InPort: 1}
	if tb.Lookup(&k) != nil {
		t.Fatal("expired flow still matches")
	}
}

func TestSweeperExpiresIdleFlowUnderNoTraffic(t *testing.T) {
	env := newEnv(t, Config{SweepInterval: 20 * time.Millisecond}, 2)
	env.sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowCmdAdd, Priority: 10,
		Match: flow.MatchInPort(1), Actions: flow.Actions{flow.Output(2)},
		IdleTO: 1,
	})
	if env.sw.Table().Len() != 1 {
		t.Fatal("flow not installed")
	}
	deadline := time.Now().Add(3 * time.Second)
	for env.sw.Table().Len() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if env.sw.Table().Len() != 0 {
		t.Fatal("idle flow not swept")
	}
}

// TestCoarseStampExpiresOnSchedule: the datapath touches a flow with the
// loop's coarse stamp — wall-clock base captured once per thread plus
// monotonic time since, read at the top of the iteration or at the end of
// the previous non-empty burst — not with a clock read of its own. Skew
// bound: the stamp is never ahead of the true time and lags it by at most
// one loop iteration (one burst plus a round of empty polls, microseconds),
// plus whatever the wall clock has been stepped by since the thread was
// built; idle timeouts are whole seconds and the sweeper runs every
// SweepInterval, so a flow expires within IdleTO + SweepInterval + one
// iteration of its last packet, as before. The test brackets the stamp
// between two wall-clock reads around the one iteration that carried the
// packet, with no sleep: the flow must not be expired one idle period after
// the earlier read and must be one idle period after the later.
func TestCoarseStampExpiresOnSchedule(t *testing.T) {
	env := newSyncEnv(t, Config{}, 2)
	f := env.sw.Table().AddWithTimeouts(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0, 1, 0, 0)
	const idle = time.Second

	// Back-date the last hit so only a touch through the datapath can make
	// the flow current again.
	f.Touch(time.Now().Add(-10 * idle).UnixNano())
	if dead, _ := f.Expired(time.Now()); !dead {
		t.Fatal("back-dated flow is not idle-expired: the test cannot tell a touch from none")
	}

	before := time.Now()
	env.sendUDP(t, 1, defaultSpec)
	if n := env.sw.PollOnce(); n != 1 {
		t.Fatalf("PollOnce handled %d frames, want 1", n)
	}
	after := time.Now()
	if env.drain(2) != 1 {
		t.Fatal("packet not forwarded")
	}

	if dead, _ := f.Expired(before.Add(idle - time.Nanosecond)); dead {
		t.Fatal("flow expired less than one idle period after its packet: the datapath's stamp is behind the iteration that carried it")
	}
	if dead, reason := f.Expired(after.Add(idle)); !dead || reason != flow.ReasonIdleTimeout {
		t.Fatalf("flow not idle-expired one idle period after its packet (%v/%d): the datapath's stamp is ahead of the clock", dead, reason)
	}
	// And the sweeper's call removes it on that schedule.
	if got := env.sw.Table().Expire(before.Add(idle - time.Nanosecond)); got != nil {
		t.Fatalf("swept early: %+v", got)
	}
	if got := env.sw.Table().Expire(after.Add(idle)); len(got) != 1 || got[0].Flow != f {
		t.Fatalf("sweep at the deadline removed %+v, want the flow", got)
	}
}

func TestTrafficKeepsIdleFlowAlive(t *testing.T) {
	env := newEnv(t, Config{SweepInterval: 20 * time.Millisecond}, 2)
	env.sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowCmdAdd, Priority: 10,
		Match: flow.MatchInPort(1), Actions: flow.Actions{flow.Output(2)},
		IdleTO: 1,
	})
	// Keep packets flowing for >1 idle period.
	stop := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(stop) {
		env.sendUDP(t, 1, defaultSpec)
		if b := env.recvOne(2, 100*time.Millisecond); b != nil {
			b.Free()
		}
		time.Sleep(50 * time.Millisecond)
	}
	if env.sw.Table().Len() != 1 {
		t.Fatal("active flow was idle-expired")
	}
}

func TestFlowRemovedDeliveredToController(t *testing.T) {
	env := newEnv(t, Config{SweepInterval: 20 * time.Millisecond}, 2)
	c := startOFServer(t, env)

	fm := openflow.FlowMod{
		Command: openflow.FlowCmdAdd, Priority: 10, Cookie: 0xabc,
		Match: flow.MatchInPort(1), Actions: flow.Actions{flow.Output(2)},
		IdleTO: 1, Flags: flow.SendFlowRemoved,
	}
	if _, err := c.Send(fm); err != nil {
		t.Fatal(err)
	}
	barrier(t, c)

	deadline := time.After(5 * time.Second)
	for {
		type result struct {
			m   openflow.Msg
			err error
		}
		ch := make(chan result, 1)
		go func() {
			m, _, err := c.Recv()
			ch <- result{m, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatal(r.err)
			}
			fr, ok := r.m.(openflow.FlowRemoved)
			if !ok {
				continue
			}
			if fr.Cookie != 0xabc || fr.Reason != openflow.RemovedIdleTimeout || fr.IdleTO != 1 {
				t.Fatalf("flow-removed = %+v", fr)
			}
			if fr.Match.Key.InPort != 1 {
				t.Fatalf("flow-removed match = %s", fr.Match)
			}
			return
		case <-deadline:
			t.Fatal("no flow-removed received")
		}
	}
}

func TestFlowRemovedNotSentWithoutFlag(t *testing.T) {
	env := newEnv(t, Config{SweepInterval: 20 * time.Millisecond}, 2)
	env.sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowCmdAdd, Priority: 10,
		Match: flow.MatchInPort(1), Actions: flow.Actions{flow.Output(2)},
		IdleTO: 1, // no SendFlowRemoved flag
	})
	deadline := time.Now().Add(3 * time.Second)
	for env.sw.Table().Len() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case ev := <-env.sw.FlowRemovals():
		t.Fatalf("unsolicited flow-removed %+v", ev)
	default:
	}
}

func TestFlowRemovedWireRoundTrip(t *testing.T) {
	m := openflow.FlowRemoved{
		Cookie: 9, Priority: 10, Reason: openflow.RemovedHardTimeout,
		DurationSec: 5, IdleTO: 1, HardTO: 2,
		PacketCount: 100, ByteCount: 6400,
		Match: flow.MatchInPort(3),
	}
	b := openflow.Encode(m, 42)
	got, xid, err := openflow.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if xid != 42 {
		t.Fatalf("xid = %d", xid)
	}
	fr := got.(openflow.FlowRemoved)
	if fr.Cookie != 9 || fr.Reason != openflow.RemovedHardTimeout ||
		fr.PacketCount != 100 || fr.ByteCount != 6400 || !fr.Match.Equal(m.Match) {
		t.Fatalf("round trip = %+v", fr)
	}
}

// TestDatapathStatsConntrackAfterCommit pins what the switch's snapshot sees
// of an attached table: the owner's Probe tallies once it has committed them
// (not before), summed over tables and laid out per shard, and the sweeper's
// expiries.
func TestDatapathStatsConntrackAfterCommit(t *testing.T) {
	sw := New(Config{SweepInterval: time.Hour})
	var tables [2]*conntrack.Table
	key := conntrack.Key{Src: pkt.IP4{10, 0, 0, 1}, Dst: pkt.IP4{10, 0, 0, 2}, SrcPort: 5000, DstPort: 80, Proto: pkt.ProtoUDP}
	for i := range tables {
		ct, err := conntrack.New(conntrack.Config{Shards: 2, Capacity: 64, IdleTimeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		sw.AttachConntrack(ct)
		defer sw.DetachConntrack(ct)
		if ct.Insert(key, 1) == nil {
			t.Fatal("insert failed")
		}
		tables[i] = ct
	}
	miss := key
	miss.SrcPort++
	for _, ct := range tables {
		for i := 0; i < 3; i++ {
			ct.Probe(&key, 2)
		}
		ct.Probe(&miss, 2)
	}
	if st := sw.DatapathStats().Conntrack; st.Hits != 0 || st.Misses != 0 || st.Live != 2 || st.Inserts != 2 {
		t.Fatalf("before the owners commit: %+v", st)
	}
	for _, ct := range tables {
		ct.Commit()
	}
	st := sw.DatapathStats()
	if st.Conntrack.Hits != 6 || st.Conntrack.Misses != 2 {
		t.Fatalf("after the owners commit: %+v, want 6 hits and 2 misses", st.Conntrack)
	}
	var sum conntrack.Stats
	for _, ss := range st.ConntrackShards {
		sum.Add(ss)
	}
	if len(st.ConntrackShards) != 2 || sum != st.Conntrack {
		t.Fatalf("%d shards summing to %+v, total %+v", len(st.ConntrackShards), sum, st.Conntrack)
	}
	tables[0].Expire(time.Unix(0, 2).Add(2 * time.Second))
	if st := sw.DatapathStats().Conntrack; st.Expired != 1 || st.Live != 1 {
		t.Fatalf("after one table's sweep: %+v", st)
	}
}
