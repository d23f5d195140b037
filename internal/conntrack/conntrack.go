// Package conntrack implements the sharded connection-tracking table the
// stateful VNFs (NAT44, ACL established-bypass, L4 balancer) ride on.
//
// The table is split into power-of-two-bucket, open-addressed shards selected
// by a hash of the connection 5-tuple (HashKey). It is mixed by the function
// and the per-process secret seed that drive RSS queue spreading, the SMC
// check and ECMP path pinning, but it is not the same value: those hash the
// whole packed classifier key, MACs included, so a connection's shard and
// its packets' RX queue are chosen independently. A shard has one writer —
// the owning VNF's goroutine — so the hit path takes no locks and bounces no
// cache lines between cores.
//
// Memory discipline follows the mempool idiom: every entry lives in one
// arena slice preallocated at construction and recycled through an index
// freelist — the steady-state datapath performs zero heap allocations on
// lookup, insert and remove (CI-gated by BenchmarkConntrack, like the EMC).
//
// Concurrency contract: each shard has a single writer — the VNF goroutine
// whose traffic hashes there. The expiry sweeper (the vSwitch's flow-table
// sweeper, via Switch.AttachConntrack) runs on another goroutine but touches
// only per-entry atomics: it death-marks idle entries (state Live→Dead)
// exactly as flow-table removal death-marks cached flows, and the owning
// writer reclaims dead entries lazily — on probe contact and via an
// amortized clock hand on insert. A dead entry is never served: Lookup
// treats anything but Live as a miss, and Peek — the side-effect-free
// control-plane probe that leaves the idle clock and the stats untouched —
// does the same.
package conntrack

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"ovshighway/internal/flow"
	"ovshighway/internal/pkt"
)

// Key is the canonical connection identity: the packet 5-tuple, direction
// significant (a NAT inserts one entry per direction, each under the tuple
// that direction's packets carry).
type Key = pkt.FiveTuple

// HashKey returns the shard/bucket hash of a connection key: the 13 tuple
// bytes as two words through flow.HashWords, high half. What it shares with
// the RSS queue pick, the SMC check and the ECMP path pin is the mixing
// function and the per-process secret seed, not the value: those hash a
// whole packed classifier key, MACs included. Allocation-free.
func HashKey(k Key) uint32 {
	w0 := uint64(k.Src.Uint32())<<32 | uint64(k.Dst.Uint32())
	w1 := uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
	return uint32(flow.HashWords(w0, w1) >> 32)
}

// Entry states. Transitions: Free→Live (owner publish), Live→Dead (owner
// remove or sweeper expiry), Dead→Free (owner reclaim).
const (
	stateFree uint32 = iota
	stateLive
	stateDead
)

// Entry is one tracked connection. The identity fields are written by the
// owning shard writer before publication and must not be mutated while the
// entry is live; the exported VNF payload fields (translation, backend pick,
// TCP lifecycle) belong to the owner goroutine exclusively.
type Entry struct {
	key  Key
	hash uint32

	// state is the entry lifecycle word (Free/Live/Dead). The sweeper CASes
	// Live→Dead cross-thread; every other transition is owner-side.
	state atomic.Uint32
	// lastSeen is the UnixNano of the most recent hit — the idle-expiry
	// clock, updated by the owner on every Lookup hit and read by the
	// sweeper.
	lastSeen atomic.Int64

	// XlateIP/XlatePort carry a NAT44 translation (the external address the
	// connection was mapped to, or the original inside address on a reverse
	// entry).
	XlateIP   pkt.IP4
	XlatePort uint16
	// Backend is an L4 balancer's pinned backend index (-1 = none).
	Backend int32
	// TCPState tracks coarse TCP lifecycle (see TCP* constants); zero for
	// connectionless protocols.
	TCPState uint8
	// Packets counts hits on this entry (owner-side, like flow counters).
	Packets uint64
}

// Coarse TCP lifecycle states tracked per entry.
const (
	TCPNone    uint8 = iota // not TCP, or no flags observed yet
	TCPOpening              // SYN seen
	TCPOpen                 // ACK after SYN
	TCPClosing              // FIN or RST seen
)

// Key returns the entry's connection key.
func (e *Entry) Key() Key { return e.key }

// LastSeen returns the UnixNano of the entry's most recent hit.
func (e *Entry) LastSeen() int64 { return e.lastSeen.Load() }

// Stats is one shard's (or the whole table's) event counters. All fields but
// the Live gauge are monotonic; Delta gives the windowed view the
// experiments report.
type Stats struct {
	Hits      uint64 // lookups that found a live entry
	Misses    uint64 // lookups that found nothing live
	Inserts   uint64 // connections admitted
	Removes   uint64 // owner-side removals (e.g. TCP FIN/RST)
	Expired   uint64 // sweeper death-marks (idle timeout)
	Reclaimed uint64 // dead entries recycled to the freelist
	Live      uint64 // currently live entries (gauge, not monotonic)
}

// Delta returns the counter movement since prev. Live is a gauge and is
// carried over as-is.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Inserts:   s.Inserts - prev.Inserts,
		Removes:   s.Removes - prev.Removes,
		Expired:   s.Expired - prev.Expired,
		Reclaimed: s.Reclaimed - prev.Reclaimed,
		Live:      s.Live,
	}
}

// Add accumulates o into s (shard-sum aggregation; also used by the vSwitch
// to merge several attached tables into one DatapathStats view).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Inserts += o.Inserts
	s.Removes += o.Removes
	s.Expired += o.Expired
	s.Reclaimed += o.Reclaimed
	s.Live += o.Live
}

// counters is the atomic backing of Stats, one set per shard plus one global
// set bumped in tandem (the experiment's shard-sum-vs-global consistency
// check audits exactly this redundancy).
type counters struct {
	hits, misses, inserts, removes, expired, reclaimed atomic.Uint64
	live                                               atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Inserts:   c.inserts.Load(),
		Removes:   c.removes.Load(),
		Expired:   c.expired.Load(),
		Reclaimed: c.reclaimed.Load(),
		Live:      c.live.Load(),
	}
}

// bucketEmpty and bucketDead are the two non-index bucket values of the open
// addressing scheme: Empty terminates a probe chain, Dead (a tombstone left
// by reclamation) keeps chains walkable across holes.
const (
	bucketEmpty int32 = -1
	bucketDead  int32 = -2
)

// shard is one single-writer partition: an open-addressed power-of-two
// bucket array indexing into the table-wide entry arena.
type shard struct {
	buckets []int32 // arena indices, bucketEmpty, or bucketDead
	mask    uint32  // len(buckets)-1
	used    int     // live + tombstoned buckets (probe-length bound)
	tombs   int     // tombstoned buckets
	free    []int32 // freelist of arena indices owned by this shard
	scratch []int32 // compact()'s live-index scratch, preallocated
	hand    uint32  // amortized reclaim clock hand over buckets
	stats   counters
}

// Config parametrizes New. Zero values take defaults.
type Config struct {
	// Shards is the shard count, normally the RSS queue count (default 1).
	Shards int
	// Capacity is the total preallocated entry count across all shards
	// (default 65536). Inserts beyond a shard's share fail rather than
	// allocate.
	Capacity int
	// IdleTimeout is the sweeper's idle-expiry horizon (default 30s).
	IdleTimeout time.Duration
}

// Table is the sharded connection table.
type Table struct {
	arena  []Entry // one preallocated slab, mempool-style; never grows
	shards []*shard
	idleTO time.Duration
	global counters
}

// New builds a table with cfg.Capacity entries preallocated in one arena.
func New(cfg Config) (*Table, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 65536
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	if cfg.Capacity < cfg.Shards {
		cfg.Capacity = cfg.Shards
	}
	t := &Table{
		arena:  make([]Entry, cfg.Capacity),
		shards: make([]*shard, cfg.Shards),
		idleTO: cfg.IdleTimeout,
	}
	perShard := cfg.Capacity / cfg.Shards
	// Buckets sized for a ≤ 2/3 load factor at full shard capacity, so probe
	// chains stay short even when every entry is in use.
	nb := 1 << bits.Len(uint(perShard+perShard/2))
	if nb < 8 {
		nb = 8
	}
	next := int32(0)
	for i := range t.shards {
		n := perShard
		if i == len(t.shards)-1 {
			n = cfg.Capacity - int(next) // remainder to the last shard
		}
		sh := &shard{
			buckets: make([]int32, nb),
			mask:    uint32(nb - 1),
			free:    make([]int32, 0, n),
			scratch: make([]int32, 0, n),
		}
		for j := range sh.buckets {
			sh.buckets[j] = bucketEmpty
		}
		// Freelist in reverse so pops hand out arena order.
		for j := n - 1; j >= 0; j-- {
			sh.free = append(sh.free, next+int32(j))
		}
		next += int32(n)
		t.shards[i] = sh
	}
	if int(next) != cfg.Capacity {
		return nil, fmt.Errorf("conntrack: arena split %d != capacity %d", next, cfg.Capacity)
	}
	return t, nil
}

// NumShards returns the shard count.
func (t *Table) NumShards() int { return len(t.shards) }

// Capacity returns the total preallocated entry count.
func (t *Table) Capacity() int { return len(t.arena) }

// IdleTimeout returns the idle-expiry horizon Expire applies.
func (t *Table) IdleTimeout() time.Duration { return t.idleTO }

// shardOf picks a shard the way the guest-side fan-out picks an RX queue
// (hash % n), over HashKey instead of the packed-key hash.
func (t *Table) shardOf(h uint32) *shard {
	return t.shards[h%uint32(len(t.shards))]
}

// homeSlot derives a bucket home index for hash h. The shard pick consumes
// the hash's low bits (h % shards), so with a
// power-of-two shard count every key in a shard shares those bits — masking
// the raw hash would leave only 1/shards of the bucket array reachable as
// home positions, clustering entries and multiplying probe-chain lengths.
// A multiply-shift remix spreads home slots over the whole array while
// leaving the shard pick untouched.
func homeSlot(h, mask uint32) uint32 {
	x := h * 0x9e3779b1 // odd golden-ratio constant; fold high bits down
	x ^= x >> 16
	return x & mask
}

// Lookup finds the live entry for k, bumping its idle clock to nowNano and
// its hit counter. Zero-alloc, lock-free; must be called from the shard's
// owning goroutine. Returns nil on miss — including death-marked entries: a
// removed or expired connection is never served.
func (t *Table) Lookup(k Key, nowNano int64) *Entry {
	h := HashKey(k)
	sh := t.shardOf(h)
	i := homeSlot(h, sh.mask)
	for {
		bi := sh.buckets[i]
		if bi == bucketEmpty {
			break
		}
		if bi != bucketDead {
			e := &t.arena[bi]
			if e.hash == h && e.key == k {
				if e.state.Load() == stateLive {
					e.lastSeen.Store(nowNano)
					e.Packets++
					sh.stats.hits.Add(1)
					t.global.hits.Add(1)
					return e
				}
				// Death-marked under our feet (sweeper): reclaim in place and
				// report the miss.
				t.reclaimBucket(sh, i)
				break
			}
		}
		i = (i + 1) & sh.mask
	}
	sh.stats.misses.Add(1)
	t.global.misses.Add(1)
	return nil
}

// Peek returns the live entry for k with no side effects: no idle-clock
// refresh, no hit counter, no stats movement, no carcass reclaim. It exists
// for control-plane probes — NAT44's port reclaim must ask "is this binding
// still live?" without resetting the very idle clock the sweeper expires on
// (a Lookup-based probe called with any period shorter than IdleTimeout
// would keep every binding eternally fresh). Keep Lookup for datapath hits.
// Owner goroutine only: it reads the shard's buckets non-atomically.
func (t *Table) Peek(k Key) *Entry {
	h := HashKey(k)
	sh := t.shardOf(h)
	i := homeSlot(h, sh.mask)
	for {
		bi := sh.buckets[i]
		if bi == bucketEmpty {
			return nil
		}
		if bi != bucketDead {
			e := &t.arena[bi]
			if e.hash == h && e.key == k {
				if e.state.Load() == stateLive {
					return e
				}
				return nil // death-marked: never served, but left for reclaim
			}
		}
		i = (i + 1) & sh.mask
	}
}

// Insert admits a new connection for k and returns its entry, or nil if the
// key is already live or the shard's arena share is exhausted. The caller
// fills the VNF payload fields on the returned entry. Zero-alloc; owner
// goroutine only.
func (t *Table) Insert(k Key, nowNano int64) *Entry {
	h := HashKey(k)
	sh := t.shardOf(h)
	// Amortized housekeeping: visit a few buckets per insert so entries
	// death-marked by the expiry sweeper drain back to the freelist even if
	// their probe chains are never walked again.
	t.reclaimStep(sh, 4)
retry:
	firstDead := int32(-1)
	i := homeSlot(h, sh.mask)
	for {
		bi := sh.buckets[i]
		if bi == bucketEmpty {
			break
		}
		if bi == bucketDead {
			if firstDead < 0 {
				firstDead = int32(i)
			}
		} else {
			e := &t.arena[bi]
			if e.hash == h && e.key == k {
				if e.state.Load() == stateLive {
					return nil // already tracked
				}
				// Same key, death-marked: retire the carcass first. Reclaiming
				// can compact the shard, which invalidates probe positions —
				// restart the walk when it does.
				if t.reclaimBucket(sh, i) {
					goto retry
				}
				if firstDead < 0 {
					firstDead = int32(i)
				}
			}
		}
		i = (i + 1) & sh.mask
	}
	if len(sh.free) == 0 {
		return nil // shard arena exhausted
	}
	// Guard the load factor: keep at least one empty bucket so probe chains
	// terminate (used counts tombstones too; compaction retires those).
	if firstDead < 0 && sh.used+1 >= len(sh.buckets) {
		return nil
	}
	slot := uint32(i)
	if firstDead >= 0 {
		slot = uint32(firstDead)
		sh.tombs--
	} else {
		sh.used++
	}
	bi := sh.free[len(sh.free)-1]
	sh.free = sh.free[:len(sh.free)-1]
	e := &t.arena[bi]
	e.key = k
	e.hash = h
	e.XlateIP = pkt.IP4{}
	e.XlatePort = 0
	e.Backend = -1
	e.TCPState = TCPNone
	e.Packets = 0
	e.lastSeen.Store(nowNano)
	e.state.Store(stateLive) // publish: the sweeper may now observe the entry
	sh.buckets[slot] = bi
	sh.stats.inserts.Add(1)
	t.global.inserts.Add(1)
	sh.stats.live.Add(1)
	t.global.live.Add(1)
	return e
}

// Remove death-marks and reclaims the live entry for k (TCP FIN/RST, admin
// clear), reporting whether one existed. Owner goroutine only.
func (t *Table) Remove(k Key) bool {
	h := HashKey(k)
	sh := t.shardOf(h)
	i := homeSlot(h, sh.mask)
	for {
		bi := sh.buckets[i]
		if bi == bucketEmpty {
			return false
		}
		if bi != bucketDead {
			e := &t.arena[bi]
			if e.hash == h && e.key == k {
				if !e.state.CompareAndSwap(stateLive, stateDead) {
					// The sweeper expired it first; still retire the carcass.
					t.reclaimBucket(sh, i)
					return false
				}
				sh.stats.removes.Add(1)
				t.global.removes.Add(1)
				sh.stats.live.Add(^uint64(0))
				t.global.live.Add(^uint64(0))
				t.reclaimBucket(sh, i)
				return true
			}
		}
		i = (i + 1) & sh.mask
	}
}

// reclaimBucket retires the dead entry in bucket i: freelist return plus a
// tombstone keeping the probe chain intact. Owner goroutine only; reports
// whether the shard was compacted (probe positions invalidated).
func (t *Table) reclaimBucket(sh *shard, i uint32) bool {
	bi := sh.buckets[i]
	if bi < 0 {
		return false
	}
	e := &t.arena[bi]
	e.state.Store(stateFree)
	sh.buckets[i] = bucketDead
	sh.tombs++
	sh.free = append(sh.free, bi)
	sh.stats.reclaimed.Add(1)
	t.global.reclaimed.Add(1)
	// A bucket array that is mostly tombstones probes like a full one;
	// compact by rehashing the survivors once holes dominate.
	if sh.tombs > len(sh.buckets)/2 {
		t.compact(sh)
		return true
	}
	return false
}

// reclaimStep advances the shard's clock hand over n buckets, reclaiming any
// entries the sweeper death-marked. Owner goroutine only.
func (t *Table) reclaimStep(sh *shard, n int) {
	for j := 0; j < n; j++ {
		i := sh.hand & sh.mask
		sh.hand++
		bi := sh.buckets[i]
		if bi >= 0 && t.arena[bi].state.Load() == stateDead {
			t.reclaimBucket(sh, i)
		}
	}
}

// compact rehashes a shard's live entries into the same bucket array,
// eliminating tombstones. O(buckets), amortized by the tombstone threshold;
// the entry arena itself does not move, so entry pointers held by VNFs stay
// valid. Uses the shard's preallocated scratch — no allocation.
func (t *Table) compact(sh *shard) {
	live := sh.scratch[:0]
	for i := range sh.buckets {
		bi := sh.buckets[i]
		sh.buckets[i] = bucketEmpty
		if bi < 0 {
			continue
		}
		if t.arena[bi].state.Load() == stateLive {
			live = append(live, bi)
		} else {
			// Dead but not yet reclaimed: recycle it now.
			t.arena[bi].state.Store(stateFree)
			sh.free = append(sh.free, bi)
			sh.stats.reclaimed.Add(1)
			t.global.reclaimed.Add(1)
		}
	}
	sh.used = 0
	sh.tombs = 0
	for _, bi := range live {
		e := &t.arena[bi]
		i := homeSlot(e.hash, sh.mask)
		for sh.buckets[i] != bucketEmpty {
			i = (i + 1) & sh.mask
		}
		sh.buckets[i] = bi
		sh.used++
	}
}

// Expire death-marks every live entry idle since before now-IdleTimeout.
// Safe to call from the sweeper goroutine concurrently with shard owners: it
// reads and writes only per-entry atomics; the owners reclaim the marked
// entries lazily. (The mark is racy by design — a connection refreshed in
// the instant between the staleness check and the CAS can be expired one
// sweep early; it simply re-establishes, exactly as a flow whose cached
// entry was death-marked reclassifies.) Returns the number of entries
// expired.
func (t *Table) Expire(now time.Time) int {
	horizon := now.Add(-t.idleTO).UnixNano()
	n := 0
	for i := range t.arena {
		e := &t.arena[i]
		if e.state.Load() != stateLive {
			continue
		}
		if e.lastSeen.Load() >= horizon {
			continue
		}
		if e.state.CompareAndSwap(stateLive, stateDead) {
			sh := t.shardOf(e.hash)
			sh.stats.expired.Add(1)
			t.global.expired.Add(1)
			sh.stats.live.Add(^uint64(0))
			t.global.live.Add(^uint64(0))
			n++
		}
	}
	return n
}

// Live returns the current live-entry gauge.
func (t *Table) Live() int { return int(t.global.live.Load()) }

// Stats returns the global counters.
func (t *Table) Stats() Stats { return t.global.snapshot() }

// ShardStats returns a per-shard counter snapshot, index-aligned with the
// shard (= PMD) number.
func (t *Table) ShardStats() []Stats {
	out := make([]Stats, len(t.shards))
	for i, sh := range t.shards {
		out[i] = sh.stats.snapshot()
	}
	return out
}

// CheckShardSums verifies the per-shard counters sum to the global set — the
// redundancy audit the conntrack experiment gates on. The table must be
// quiescent (no concurrent ops) for an exact comparison.
func (t *Table) CheckShardSums() error {
	var sum Stats
	for _, sh := range t.shards {
		sum.Add(sh.stats.snapshot())
	}
	if g := t.global.snapshot(); sum != g {
		return fmt.Errorf("conntrack: shard-sum %+v != global %+v", sum, g)
	}
	return nil
}
