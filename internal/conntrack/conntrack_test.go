package conntrack

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

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
	if got.LastSeen() != now+1 {
		t.Fatalf("lastSeen not bumped: %d", got.LastSeen())
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
	if err := ct.CheckShardSums(); err != nil {
		t.Fatal(err)
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
	if err := ct.CheckShardSums(); err != nil {
		t.Fatal(err)
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
	if err := ct.CheckShardSums(); err != nil {
		t.Fatal(err)
	}
	st := ct.Stats()
	if st.Expired != 50 {
		t.Fatalf("stats.Expired = %d, want 50", st.Expired)
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
	if err := ct.CheckShardSums(); err != nil {
		t.Fatal(err)
	}
}

// refConn is the linear-reference model of one tracked connection.
type refConn struct {
	lastSeen int64
	dead     bool // death-marked (removed or expired) but possibly still in carcass
}

// TestQuickConntrackOracle drives random connection open/traffic/close/
// expire churn against a map-based linear reference (mirroring
// TestQuickTieredLookupOracle): a death-marked entry is never served, the
// live gauge tracks the reference exactly, and the per-shard counters always
// sum to the global set.
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
					ref[k] = &refConn{lastSeen: now}
				} else if !wasLive {
					// Table full — reference drops it too (insert failed).
					if ct.Live() >= ct.Capacity() {
						// expected: arena exhausted
					}
				}
			case 3, 4, 5, 6: // traffic
				k := keyOf()
				e := ct.Lookup(k, now)
				c := ref[k]
				wantHit := c != nil && !c.dead
				if wantHit != (e != nil) {
					t.Logf("seed %d step %d: lookup(%v) = %v, reference live=%v",
						seed, step, k, e != nil, wantHit)
					return false
				}
				if e != nil {
					c.lastSeen = now
				}
			case 7: // close
				k := keyOf()
				got := ct.Remove(k)
				c := ref[k]
				want := c != nil && !c.dead
				if got != want {
					t.Logf("seed %d step %d: remove(%v) = %v, want %v", seed, step, k, got, want)
					return false
				}
				if c != nil {
					delete(ref, k)
				}
			case 8, 9: // expiry sweep
				horizon := now - int64(idle)
				wantExpired := 0
				for _, c := range ref {
					if !c.dead && c.lastSeen < horizon {
						c.dead = true
						wantExpired++
					}
				}
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
		if err := ct.CheckShardSums(); err != nil {
			t.Log(err)
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
		return ct.CheckShardSums() == nil
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
	if err := ct.CheckShardSums(); err != nil {
		t.Fatal(err)
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
