package conntrack

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"ovshighway/internal/flow/flowtest"
	"ovshighway/internal/pkt"
)

func mkKey(i int) Key {
	return Key{
		Src:     pkt.IP4FromUint32(0x0a000000 | uint32(i)),
		Dst:     pkt.IP4{10, 1, 0, 1},
		SrcPort: uint16(1000 + i%60000),
		DstPort: 80,
		Proto:   pkt.ProtoTCP,
	}
}

// TestEntrySize holds the arena's stride: three entries to two cache lines,
// 8 bytes under the layout with the key as a 14-byte struct.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 48 {
		t.Fatalf("Entry is %d bytes, want 48", n)
	}
}

func TestConntrackBasic(t *testing.T) {
	ct, err := New(Config{Shards: 4, Capacity: 1024, IdleTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	k := mkKey(1)
	if e := ct.Lookup(k, now); e != nil {
		t.Fatalf("lookup on empty table returned %v", e)
	}
	e := ct.Insert(k, now)
	if e == nil {
		t.Fatal("insert failed on empty table")
	}
	if e.Key() != k {
		t.Fatalf("entry key %v != %v", e.Key(), k)
	}
	if dup := ct.Insert(k, now); dup != nil {
		t.Fatal("duplicate insert succeeded")
	}
	got := ct.Lookup(k, now+1)
	if got != e {
		t.Fatalf("lookup returned %p want %p", got, e)
	}
	// The idle clock is lazy: a hit within IdleTimeout/8 of the stored value
	// leaves it, the first one past that re-stores it.
	if got.LastSeen() != now {
		t.Fatalf("lastSeen re-stored by a hit 1ns later: %d", got.LastSeen())
	}
	stale := now + int64(ct.IdleTimeout()/8) + 1
	if ct.Lookup(k, stale) != e || e.LastSeen() != stale {
		t.Fatalf("lastSeen = %d after a hit past the refresh eighth, want %d", e.LastSeen(), stale)
	}
	if ct.Live() != 1 {
		t.Fatalf("live = %d, want 1", ct.Live())
	}
	if !ct.Remove(k) {
		t.Fatal("remove of live entry failed")
	}
	if ct.Remove(k) {
		t.Fatal("double remove succeeded")
	}
	if e := ct.Lookup(k, now+2); e != nil {
		t.Fatal("removed entry served")
	}
	if ct.Live() != 0 {
		t.Fatalf("live = %d after remove, want 0", ct.Live())
	}
	want := Stats{Hits: 2, Misses: 2, Inserts: 1, Removes: 1, Reclaimed: 1}
	if st := ct.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestConntrackCommit pins the per-burst accounting: Probe tallies in plain
// owner-side words that no reader sees until the owner's Commit, through
// Stats and ShardStats alike; Lookup, the one-shot form, counts at once.
func TestConntrackCommit(t *testing.T) {
	ct, err := New(Config{Shards: 4, Capacity: 1024, IdleTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if ct.Insert(mkKey(i), 1) == nil {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i := 0; i < 2*n; i++ { // n hits, n misses
		k := mkKey(i)
		if (ct.Probe(&k, 2) != nil) != (i < n) {
			t.Fatalf("probe %d: wrong outcome", i)
		}
	}
	if st := ct.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("probe tallies visible before Commit: %+v", st)
	}
	ct.Commit()
	if st := ct.Stats(); st.Hits != n || st.Misses != n || st.Live != n {
		t.Fatalf("after Commit: %+v, want %d hits, %d misses, %d live", st, n, n, n)
	}
	var sum Stats
	for i, ss := range ct.ShardStats() {
		if ss.Hits == 0 || ss.Inserts != ss.Live {
			t.Fatalf("shard %d: %+v", i, ss)
		}
		sum.Add(ss)
	}
	if sum != ct.Stats() {
		t.Fatalf("shards sum to %+v, table reports %+v", sum, ct.Stats())
	}
	ct.Commit() // nothing pending: a no-op
	if ct.Lookup(mkKey(0), 3) == nil || ct.Lookup(mkKey(n), 3) != nil {
		t.Fatal("lookup: wrong outcome")
	}
	if st := ct.Stats(); st.Hits != n+1 || st.Misses != n+1 {
		t.Fatalf("one-shot lookups not counted at once: %+v", st)
	}
}

// TestConntrackOwnerAgainstSweeperAndReaders runs the three parties of the
// concurrency contract at once — the owner probing in bursts and committing,
// the sweeper expiring, a reader taking Stats/ShardStats/Live — for the race
// detector to watch, and then holds the published counters to the owner's own
// tallies: nothing the owner counted in plain words is lost or doubled.
func TestConntrackOwnerAgainstSweeperAndReaders(t *testing.T) {
	ct, err := New(Config{Shards: 2, Capacity: 512, IdleTimeout: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ct.Expire(time.Now())
			if st := ct.Stats(); int(st.Live) > ct.Capacity() || len(ct.ShardStats()) != 2 || ct.Live() > ct.Capacity() {
				t.Errorf("reader saw %+v", st)
				return
			}
			runtime.Gosched()
		}
	}()
	var hits, misses uint64
	for i, deadline := 0, time.Now().Add(40*time.Millisecond); time.Now().Before(deadline); i++ {
		now := time.Now().UnixNano()
		for j := 0; j < 32; j++ {
			k := mkKey((i*32 + j) % 256)
			if ct.Probe(&k, now) != nil {
				hits++
			} else {
				misses++
				ct.Insert(k, now)
			}
		}
		ct.Commit()
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	st := ct.Stats()
	if st.Hits != hits || st.Misses != misses {
		t.Fatalf("published %d hits %d misses, the owner counted %d and %d", st.Hits, st.Misses, hits, misses)
	}
	if st.Live != st.Inserts-st.Removes-st.Expired {
		t.Fatalf("live gauge %d != %d inserts - %d removes - %d expired", st.Live, st.Inserts, st.Removes, st.Expired)
	}
}

func TestConntrackCapacity(t *testing.T) {
	ct, err := New(Config{Shards: 2, Capacity: 64, IdleTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	inserted := 0
	for i := 0; i < 1024; i++ {
		if ct.Insert(mkKey(i), now) != nil {
			inserted++
		}
	}
	if inserted == 0 || inserted > 64 {
		t.Fatalf("inserted %d entries into capacity-64 table", inserted)
	}
	if ct.Live() != inserted {
		t.Fatalf("live %d != inserted %d", ct.Live(), inserted)
	}
	// Freeing makes room again.
	removed := 0
	for i := 0; i < 1024 && removed < 8; i++ {
		if ct.Remove(mkKey(i)) {
			removed++
		}
	}
	readmitted := 0
	for i := 2000; i < 4000 && readmitted < removed; i++ {
		if ct.Insert(mkKey(i), now) != nil {
			readmitted++
		}
	}
	if readmitted != removed {
		t.Fatalf("readmitted %d after removing %d", readmitted, removed)
	}
}

func TestConntrackExpire(t *testing.T) {
	ct, err := New(Config{Shards: 4, Capacity: 256, IdleTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	now := base.UnixNano()
	for i := 0; i < 100; i++ {
		if ct.Insert(mkKey(i), now) == nil {
			t.Fatalf("insert %d failed", i)
		}
	}
	// Keep half fresh.
	fresh := base.Add(90 * time.Millisecond)
	for i := 0; i < 50; i++ {
		if ct.Lookup(mkKey(i), fresh.UnixNano()) == nil {
			t.Fatalf("lookup %d missed", i)
		}
	}
	n := ct.Expire(base.Add(150 * time.Millisecond))
	if n != 50 {
		t.Fatalf("expired %d, want 50", n)
	}
	if ct.Live() != 50 {
		t.Fatalf("live %d after expiry, want 50", ct.Live())
	}
	// Expired entries are never served; fresh ones still are.
	after := base.Add(160 * time.Millisecond).UnixNano()
	for i := 0; i < 100; i++ {
		e := ct.Lookup(mkKey(i), after)
		if i < 50 && e == nil {
			t.Fatalf("fresh entry %d not served", i)
		}
		if i >= 50 && e != nil {
			t.Fatalf("expired entry %d served", i)
		}
	}
	st := ct.Stats()
	if st.Expired != 50 {
		t.Fatalf("stats.Expired = %d, want 50", st.Expired)
	}
}

// TestConntrackLazyIdleClock pins the bound the lazy clock is allowed. A hit
// within IdleTimeout/8 of the stored clock does not re-store it, yet still
// protects the entry for a full IdleTimeout, because Expire's horizon is the
// same eighth wider; IdleTimeout·9/8 after its last hit an entry always goes.
// Peek refreshes nothing.
func TestConntrackLazyIdleClock(t *testing.T) {
	const (
		idle = 80 * time.Millisecond
		eps  = time.Microsecond
	)
	ct, err := New(Config{Capacity: 16, IdleTimeout: idle})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return base.Add(d) }
	lazy, stored, peeked := mkKey(1), mkKey(2), mkKey(3)
	for _, k := range []Key{lazy, stored, peeked} {
		if ct.Insert(k, base.UnixNano()) == nil {
			t.Fatal("insert failed")
		}
	}
	// Both hit at (about) idle/8: one exactly on the eighth, which leaves the
	// clock at 0, one a nanosecond past it, which re-stores it.
	tHit := idle / 8
	if e := ct.Lookup(lazy, at(tHit).UnixNano()); e == nil || e.LastSeen() != base.UnixNano() {
		t.Fatalf("hit on the refresh eighth re-stored the clock (or missed): %v", e)
	}
	if e := ct.Lookup(stored, at(tHit+1).UnixNano()); e == nil || e.LastSeen() != at(tHit+1).UnixNano() {
		t.Fatalf("hit past the refresh eighth did not re-store the clock: %v", e)
	}
	for d := time.Duration(0); d < idle; d += idle / 16 {
		if ct.Peek(peeked) == nil {
			t.Fatal("peek missed a live entry")
		}
	}
	// Inside IdleTimeout of the hits nothing goes, not even the entry whose
	// clock the hit left at 0.
	if n := ct.Expire(at(tHit + idle - eps)); n != 0 {
		t.Fatalf("sweep at hit+IdleTimeout-ε expired %d entries", n)
	}
	// 9/8·IdleTimeout after 0: the peeked entry (never hit, Peek refreshed
	// nothing) and the lazily clocked one (last hit IdleTimeout+ε ago) go.
	if n := ct.Expire(at(idle + idle/8 + eps)); n != 2 || ct.Peek(peeked) != nil || ct.Peek(lazy) != nil || ct.Peek(stored) == nil {
		t.Fatalf("sweep at 9/8·IdleTimeout+ε expired %d, want the peeked and the lazily clocked entry", n)
	}
	if n := ct.Expire(at(tHit + idle + idle/8 + eps)); n != 1 || ct.Peek(stored) != nil {
		t.Fatalf("sweep at hit+9/8·IdleTimeout+ε expired %d, want the last entry", n)
	}
}

// TestConntrackChurn drives enough insert/remove cycles through a small
// shard to force tombstone compaction repeatedly, then verifies every live
// entry is still reachable.
func TestConntrackChurn(t *testing.T) {
	ct, err := New(Config{Shards: 1, Capacity: 128, IdleTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	live := map[Key]bool{}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 20000; step++ {
		i := rng.Intn(512)
		k := mkKey(i)
		if rng.Intn(2) == 0 {
			if ct.Insert(k, now) != nil {
				live[k] = true
			}
		} else {
			if ct.Remove(k) != live[k] {
				t.Fatalf("step %d: remove(%v) disagreed with reference", step, k)
			}
			delete(live, k)
		}
	}
	if ct.Live() != len(live) {
		t.Fatalf("live %d != reference %d", ct.Live(), len(live))
	}
	for k := range live {
		if ct.Lookup(k, now) == nil {
			t.Fatalf("live entry %v unreachable after churn", k)
		}
	}
}

// refConn is the linear-reference model of one tracked connection.
type refConn struct {
	lastSeen int64 // the lazy idle clock: re-stored once staler than idle/8
	lastHit  int64 // the true time of the most recent hit
	dead     bool  // death-marked (removed or expired) but possibly still in carcass
}

// TestQuickConntrackOracle drives random connection open/traffic/close/
// expire churn against a map-based linear reference (mirroring
// TestQuickTieredLookupOracle): a death-marked entry is never served, the
// live gauge tracks the reference exactly, no connection hit within
// IdleTimeout of a sweep is expired by it, and the hit/miss/insert/remove/
// expire counters — traffic probed in bursts with one Commit each — equal the
// reference's tallies.
func TestQuickConntrackOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 + rng.Intn(4)
		cap := 64 << rng.Intn(3)
		idle := time.Duration(50+rng.Intn(200)) * time.Millisecond
		ct, err := New(Config{Shards: shards, Capacity: cap, IdleTimeout: idle})
		if err != nil {
			t.Log(err)
			return false
		}
		ref := map[Key]*refConn{}
		var want Stats
		now := int64(1_000_000_000) // synthetic clock, ns
		keyOf := func() Key { return mkKey(rng.Intn(4 * cap)) }
		liveRef := func() int {
			n := 0
			for _, c := range ref {
				if !c.dead {
					n++
				}
			}
			return n
		}
		for step := 0; step < 250; step++ {
			now += int64(rng.Intn(10)) * int64(time.Millisecond)
			switch rng.Intn(10) {
			case 0, 1, 2: // open
				k := keyOf()
				e := ct.Insert(k, now)
				c := ref[k]
				wasLive := c != nil && !c.dead
				if wasLive && e != nil {
					t.Logf("seed %d step %d: duplicate insert admitted", seed, step)
					return false
				}
				if e != nil {
					ref[k] = &refConn{lastSeen: now, lastHit: now}
					want.Inserts++
				}
			case 3, 4, 5, 6: // traffic: a burst of probes, one commit
				for n := 1 + rng.Intn(4); n > 0; n-- {
					k := keyOf()
					e := ct.Probe(&k, now)
					c := ref[k]
					wantHit := c != nil && !c.dead
					if wantHit != (e != nil) {
						t.Logf("seed %d step %d: probe(%v) = %v, reference live=%v",
							seed, step, k, e != nil, wantHit)
						return false
					}
					if e == nil {
						want.Misses++
						continue
					}
					want.Hits++
					c.lastHit = now
					if now-c.lastSeen > int64(idle/8) {
						c.lastSeen = now
					}
					if e.LastSeen() != c.lastSeen {
						t.Logf("seed %d step %d: idle clock %d, reference %d", seed, step, e.LastSeen(), c.lastSeen)
						return false
					}
				}
				ct.Commit()
			case 7: // close
				k := keyOf()
				got := ct.Remove(k)
				c := ref[k]
				wantLive := c != nil && !c.dead
				if got != wantLive {
					t.Logf("seed %d step %d: remove(%v) = %v, want %v", seed, step, k, got, wantLive)
					return false
				}
				if got {
					want.Removes++
				}
				if c != nil {
					delete(ref, k)
				}
			case 8, 9: // expiry sweep
				horizon := now - int64(idle) - int64(idle/8)
				wantExpired := 0
				for k, c := range ref {
					if !c.dead && c.lastSeen < horizon {
						if now-c.lastHit <= int64(idle) {
							t.Logf("seed %d step %d: %v hit %dns ago would expire inside IdleTimeout", seed, step, k, now-c.lastHit)
							return false
						}
						c.dead = true
						wantExpired++
					}
				}
				want.Expired += uint64(wantExpired)
				if n := ct.Expire(time.Unix(0, now)); n != wantExpired {
					t.Logf("seed %d step %d: expired %d, reference %d", seed, step, n, wantExpired)
					return false
				}
			}
			if ct.Live() != liveRef() {
				t.Logf("seed %d step %d: live %d != reference %d", seed, step, ct.Live(), liveRef())
				return false
			}
		}
		want.Live = uint64(liveRef())
		got := ct.Stats()
		if got.Reclaimed > want.Removes+want.Expired {
			t.Logf("seed %d: reclaimed %d carcasses of %d removed + %d expired", seed, got.Reclaimed, want.Removes, want.Expired)
			return false
		}
		if got.Reclaimed = 0; got != want {
			t.Logf("seed %d: stats %+v, reference %+v", seed, got, want)
			return false
		}
		// Final audit: every reference-live connection is served, every dead
		// one is not.
		for k, c := range ref {
			e := ct.Lookup(k, now)
			if c.dead && e != nil {
				t.Logf("seed %d: death-marked %v served after churn", seed, k)
				return false
			}
			if !c.dead && e == nil {
				t.Logf("seed %d: live %v lost after churn", seed, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestConntrackPeek pins the side-effect-free contract of the control-plane
// probe: no idle-clock refresh, no packet counter, no stats movement — the
// exact properties NAT44's port reclaim depends on (a Lookup-based probe
// would keep every binding eternally fresh).
func TestConntrackPeek(t *testing.T) {
	ct, err := New(Config{Shards: 4, Capacity: 256, IdleTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	k := mkKey(1)
	if ct.Peek(k) != nil {
		t.Fatal("peek on empty table hit")
	}
	e := ct.Insert(k, now)
	if e == nil {
		t.Fatal("insert failed")
	}
	before := ct.Stats()
	for i := 0; i < 10; i++ {
		if ct.Peek(k) != e {
			t.Fatal("peek missed a live entry")
		}
	}
	if e.LastSeen() != now {
		t.Fatalf("peek refreshed the idle clock: %d != %d", e.LastSeen(), now)
	}
	if e.Packets != 0 {
		t.Fatalf("peek counted packets: %d", e.Packets)
	}
	if after := ct.Stats(); after != before {
		t.Fatalf("peek moved stats: %+v -> %+v", before, after)
	}
	// A death-marked entry peeks as nil even before the owner reclaims it.
	if ct.Expire(time.Unix(0, now).Add(2*time.Second)) != 1 {
		t.Fatal("expire missed the idle entry")
	}
	if ct.Peek(k) != nil {
		t.Fatal("peek served a death-marked entry")
	}
}

// TestConntrackHomeSlotSpread guards the shard-vs-bucket bit split: the
// shard pick consumes the hash's low bits (h % shards), so with a
// power-of-two shard count every key in one shard shares them — a home slot
// masked from the raw hash could only reach 1/shards of the bucket array.
// The remixed home slot must reach (nearly) all of it.
func TestConntrackHomeSlotSpread(t *testing.T) {
	const shards = 4
	const mask = 1<<10 - 1
	seen := map[uint32]bool{}
	n := 0
	for i := 0; n < 4096; i++ {
		h := HashKey(mkKey(i))
		if h%shards != 0 {
			continue // keep one shard's key population
		}
		n++
		seen[homeSlot(h, mask)] = true
	}
	// 4096 draws over 1024 slots reach ~1000 distinct ones if uniform; the
	// raw-mask scheme caps at 256.
	if len(seen) <= (mask+1)/shards {
		t.Fatalf("home slots clustered: %d distinct of %d reachable", len(seen), mask+1)
	}
}

// TestConntrackCollisionFlood: 64k connections whose keys the old unkeyed
// FNV-1a hash sent to one value in its low 16 bits spread over the shards,
// and over each shard's home slots, like uniform — under every pinned seed.
func TestConntrackCollisionFlood(t *testing.T) {
	const shards = 4
	packed := flowtest.FloodKeys(65536)
	keys := make([]Key, len(packed))
	for i, kp := range packed {
		// Packed layout: IPSrc 20:24, IPDst 24:28, proto 28, ports 30:34.
		keys[i] = Key{
			Src: pkt.IP4(kp[20:24]), Dst: pkt.IP4(kp[24:28]), Proto: kp[28],
			SrcPort: binary.BigEndian.Uint16(kp[30:32]), DstPort: binary.BigEndian.Uint16(kp[32:34]),
		}
	}
	flowtest.ForEachSeed(t, func(t *testing.T) {
		ct, err := New(Config{Shards: shards, Capacity: 2 * len(keys), IdleTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		perShard := make([]int, shards)
		slots := make([][]int, shards)
		for i := range slots {
			slots[i] = make([]int, ct.shards[i].mask+1)
		}
		for _, k := range keys {
			h := HashKey(k)
			sh := h % shards
			perShard[sh]++
			slots[sh][homeSlot(h, ct.shards[sh].mask)]++
		}
		flowtest.CheckSpread(t, "flood connections over shards", perShard)
		for i := range slots {
			flowtest.CheckSpread(t, fmt.Sprintf("flood connections over shard %d home slots", i), slots[i])
		}
	})
}

// TestConntrackShardAlignment pins the shard pick: shard = HashKey % shards,
// the modulus form the guest-side RSS fan-out uses.
func TestConntrackShardAlignment(t *testing.T) {
	ct, err := New(Config{Shards: 4, Capacity: 4096, IdleTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	perShard := make([]int, 4)
	for i := 0; i < 1000; i++ {
		k := mkKey(i)
		if ct.Insert(k, now) == nil {
			t.Fatalf("insert %d failed", i)
		}
		perShard[HashKey(k)%4]++
	}
	ss := ct.ShardStats()
	for i, want := range perShard {
		if ss[i].Inserts != uint64(want) {
			t.Fatalf("shard %d inserts %d, want %d (HashKey %% shards)", i, ss[i].Inserts, want)
		}
	}
}
