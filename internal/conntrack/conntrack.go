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
// amortized clock hand on insert. A dead entry is never served: Probe
// treats anything but Live as a miss, and Peek — the side-effect-free
// control-plane probe that leaves the idle clock and the stats untouched —
// does the same.
//
// The established-connection hit (Probe) executes no atomic read-modify-write:
// the key is two word compares behind a bucket-resident hash signature, the
// idle clock is re-stored only once it has gone stale by an eighth of the
// timeout (Expire's horizon widens by the same eighth), and hit/miss tallies
// are plain owner-side words that the owner publishes with one Commit per
// burst.
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

// words packs the 13 tuple bytes into the two words HashKey mixes and an
// entry stores as its identity.
func words(k *Key) (w0, w1 uint64) {
	return uint64(k.Src.Uint32())<<32 | uint64(k.Dst.Uint32()),
		uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
}

func hashWords(w0, w1 uint64) uint32 { return uint32(flow.HashWords(w0, w1) >> 32) }

// HashKey returns the shard/bucket hash of a connection key: the 13 tuple
// bytes as two words through flow.HashWords, high half. What it shares with
// the RSS queue pick, the SMC check and the ECMP path pin is the mixing
// function and the per-process secret seed, not the value: those hash a
// whole packed classifier key, MACs included. Allocation-free.
func HashKey(k Key) uint32 { return hashWords(words(&k)) }

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
	// Fields run widest first: 48 bytes, no padding between them.
	w0, w1 uint64 // the key, as words(k)

	// lastSeen is the idle-expiry clock the sweeper reads: the UnixNano of a
	// hit no more than IdleTimeout/8 older than the most recent one (the
	// owner re-stores it only once it is staler than that).
	lastSeen atomic.Int64
	// Packets counts hits on this entry (owner-side, like flow counters).
	Packets uint64
	// state is the entry lifecycle word (Free/Live/Dead). The sweeper CASes
	// Live→Dead cross-thread; every other transition is owner-side.
	state atomic.Uint32
	// Backend is an L4 balancer's pinned backend index (-1 = none).
	Backend int32
	// XlateIP/XlatePort carry a NAT44 translation (the external address the
	// connection was mapped to, or the original inside address on a reverse
	// entry).
	XlateIP   pkt.IP4
	XlatePort uint16
	// TCPState tracks coarse TCP lifecycle (see TCP* constants); zero for
	// connectionless protocols.
	TCPState uint8
}

// Coarse TCP lifecycle states tracked per entry.
const (
	TCPNone    uint8 = iota // not TCP, or no flags observed yet
	TCPOpening              // SYN seen
	TCPOpen                 // ACK after SYN
	TCPClosing              // FIN or RST seen
)

// Key returns the entry's connection key.
func (e *Entry) Key() Key {
	return Key{
		Src: pkt.IP4FromUint32(uint32(e.w0 >> 32)), Dst: pkt.IP4FromUint32(uint32(e.w0)),
		SrcPort: uint16(e.w1 >> 24), DstPort: uint16(e.w1 >> 8), Proto: uint8(e.w1),
	}
}

// LastSeen returns the entry's idle clock: the UnixNano of a hit at most
// IdleTimeout/8 before its most recent one.
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

// Add accumulates o into s (Table.Stats sums its shards with it; the vSwitch
// merges several attached tables into one DatapathStats view).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Inserts += o.Inserts
	s.Removes += o.Removes
	s.Expired += o.Expired
	s.Reclaimed += o.Reclaimed
	s.Live += o.Live
}

// counters is the atomic backing of Stats, one set per shard; the table's
// totals are their sum.
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

// bucket is one open-addressing slot: the entry's 32-bit HashKey beside its
// arena index, so a probe touches the arena only on a signature match.
type bucket struct {
	sig uint32
	idx int32 // arena index, bucketEmpty, or bucketDead
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
	buckets []bucket
	mask    uint32   // len(buckets)-1
	used    int      // live + tombstoned buckets (probe-length bound)
	tombs   int      // tombstoned buckets
	free    []int32  // freelist of arena indices owned by this shard
	scratch []bucket // compact()'s live-bucket scratch, preallocated
	hand    uint32   // amortized reclaim clock hand over buckets
	// hits and misses are the owner's Probe tallies since its last Commit:
	// plain words, folded into stats once per burst.
	hits, misses uint64
	stats        counters
	// entries is the shard's share of the arena: what Expire sweeps on the
	// shard's account (an entry's own words are the owner's to rewrite).
	entries []Entry
}

// commit publishes the shard's pending Probe tallies. Owner goroutine only.
func (sh *shard) commit() {
	if sh.hits != 0 {
		sh.stats.hits.Add(sh.hits)
		sh.hits = 0
	}
	if sh.misses != 0 {
		sh.stats.misses.Add(sh.misses)
		sh.misses = 0
	}
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
	// refresh = idleTO/8 is how stale a hit lets lastSeen run before it
	// re-stores it, and by how much Expire widens its horizon in return.
	refresh int64
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
		arena:   make([]Entry, cfg.Capacity),
		shards:  make([]*shard, cfg.Shards),
		idleTO:  cfg.IdleTimeout,
		refresh: int64(cfg.IdleTimeout / 8),
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
			buckets: make([]bucket, nb),
			mask:    uint32(nb - 1),
			free:    make([]int32, 0, n),
			scratch: make([]bucket, 0, n),
			entries: t.arena[next : int(next)+n],
		}
		for j := range sh.buckets {
			sh.buckets[j].idx = bucketEmpty
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
// (hash % n), over HashKey instead of the packed-key hash. A power-of-two
// count — the usual one — takes the same value by mask: the divide is a
// third of a probe that hits in L1.
func (t *Table) shardOf(h uint32) *shard {
	n := uint32(len(t.shards))
	if n&(n-1) == 0 {
		return t.shards[h&(n-1)]
	}
	return t.shards[h%n]
}

// locate returns what every operation on k starts from: its shard, its hash
// and its two key words.
func (t *Table) locate(k *Key) (sh *shard, h uint32, w0, w1 uint64) {
	w0, w1 = words(k)
	h = hashWords(w0, w1)
	return t.shardOf(h), h, w0, w1
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

// find walks k's probe chain in sh and returns the bucket and entry holding
// the key — live or death-marked — or nil. The one probe loop behind Probe,
// Lookup, Peek and Remove. Owner goroutine only.
func (t *Table) find(sh *shard, h uint32, w0, w1 uint64) (uint32, *Entry) {
	for i := homeSlot(h, sh.mask); ; i = (i + 1) & sh.mask {
		b := sh.buckets[i]
		if b.idx == bucketEmpty {
			return 0, nil
		}
		if b.sig == h && b.idx >= 0 {
			if e := &t.arena[b.idx]; e.w0 == w0 && e.w1 == w1 {
				return i, e
			}
		}
	}
}

// Probe finds the live entry for *k and counts a packet on it: the datapath
// form, one per packet of a burst with one Commit after the burst. The key is
// read in place, where pkt.Tuple wrote it. The idle clock is re-stored only
// when nowNano finds it stale by more than IdleTimeout/8, and the hit or miss
// is tallied in a plain shard word until Commit. Zero-alloc, lock-free; must
// be called from the shard's owning goroutine. Returns nil on miss —
// including death-marked entries: a removed or expired connection is never
// served.
func (t *Table) Probe(k *Key, nowNano int64) *Entry {
	sh, h, w0, w1 := t.locate(k)
	if i, e := t.find(sh, h, w0, w1); e != nil {
		if e.state.Load() == stateLive {
			if nowNano-e.lastSeen.Load() > t.refresh {
				e.lastSeen.Store(nowNano)
			}
			e.Packets++
			sh.hits++
			return e
		}
		// Death-marked under our feet (sweeper): reclaim in place and
		// report the miss.
		t.reclaimBucket(sh, i)
	}
	sh.misses++
	return nil
}

// Commit publishes the Probe tallies of every shard to Stats, ShardStats and
// whoever sums them (DatapathStats). Once per burst, from the goroutine that
// owns the table's shards — the VNF that probed.
func (t *Table) Commit() {
	for _, sh := range t.shards {
		sh.commit()
	}
}

// Lookup is the one-shot form of Probe for callers outside a burst loop: the
// probe, counted at once.
func (t *Table) Lookup(k Key, nowNano int64) *Entry {
	e := t.Probe(&k, nowNano)
	t.Commit()
	return e
}

// Peek returns the live entry for k with no side effects: no idle-clock
// refresh, no hit counter, no stats movement, no carcass reclaim. It exists
// for control-plane probes — NAT44's port reclaim must ask "is this binding
// still live?" without resetting the very idle clock the sweeper expires on
// (a Lookup-based probe called with any period shorter than IdleTimeout
// would keep every binding eternally fresh). Keep Probe for datapath hits.
// Owner goroutine only: it reads the shard's buckets non-atomically.
func (t *Table) Peek(k Key) *Entry {
	sh, h, w0, w1 := t.locate(&k)
	if _, e := t.find(sh, h, w0, w1); e != nil && e.state.Load() == stateLive {
		return e
	}
	return nil // absent, or death-marked: never served, but left for reclaim
}

// Insert admits a new connection for k and returns its entry, or nil if the
// key is already live or the shard's arena share is exhausted. The caller
// fills the VNF payload fields on the returned entry. Zero-alloc; owner
// goroutine only.
func (t *Table) Insert(k Key, nowNano int64) *Entry {
	sh, h, w0, w1 := t.locate(&k)
	// Amortized housekeeping: visit a few buckets per insert so entries
	// death-marked by the expiry sweeper drain back to the freelist even if
	// their probe chains are never walked again.
	t.reclaimStep(sh, 4)
retry:
	firstDead := int32(-1)
	i := homeSlot(h, sh.mask)
	for {
		b := sh.buckets[i]
		if b.idx == bucketEmpty {
			break
		}
		if b.idx == bucketDead {
			if firstDead < 0 {
				firstDead = int32(i)
			}
		} else if b.sig == h {
			e := &t.arena[b.idx]
			if e.w0 == w0 && e.w1 == w1 {
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
	e.w0, e.w1 = w0, w1
	e.XlateIP = pkt.IP4{}
	e.XlatePort = 0
	e.Backend = -1
	e.TCPState = TCPNone
	e.Packets = 0
	e.lastSeen.Store(nowNano)
	e.state.Store(stateLive) // publish: the sweeper may now observe the entry
	sh.buckets[slot] = bucket{sig: h, idx: bi}
	sh.stats.inserts.Add(1)
	sh.stats.live.Add(1)
	return e
}

// Remove death-marks and reclaims the live entry for k (TCP FIN/RST, admin
// clear), reporting whether one existed. Owner goroutine only.
func (t *Table) Remove(k Key) bool {
	sh, h, w0, w1 := t.locate(&k)
	i, e := t.find(sh, h, w0, w1)
	if e == nil {
		return false
	}
	// A failed CAS means the sweeper expired it first; the carcass is
	// retired either way.
	removed := e.state.CompareAndSwap(stateLive, stateDead)
	if removed {
		sh.stats.removes.Add(1)
		sh.stats.live.Add(^uint64(0))
	}
	t.reclaimBucket(sh, i)
	return removed
}

// reclaimBucket retires the dead entry in bucket i: freelist return plus a
// tombstone keeping the probe chain intact. Owner goroutine only; reports
// whether the shard was compacted (probe positions invalidated).
func (t *Table) reclaimBucket(sh *shard, i uint32) bool {
	bi := sh.buckets[i].idx
	if bi < 0 {
		return false
	}
	t.arena[bi].state.Store(stateFree)
	sh.buckets[i].idx = bucketDead
	sh.tombs++
	sh.free = append(sh.free, bi)
	sh.stats.reclaimed.Add(1)
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
		bi := sh.buckets[i].idx
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
		b := sh.buckets[i]
		sh.buckets[i].idx = bucketEmpty
		if b.idx < 0 {
			continue
		}
		if t.arena[b.idx].state.Load() == stateLive {
			live = append(live, b)
		} else {
			// Dead but not yet reclaimed: recycle it now.
			t.arena[b.idx].state.Store(stateFree)
			sh.free = append(sh.free, b.idx)
			sh.stats.reclaimed.Add(1)
		}
	}
	sh.used = 0
	sh.tombs = 0
	for _, b := range live {
		i := homeSlot(b.sig, sh.mask)
		for sh.buckets[i].idx != bucketEmpty {
			i = (i + 1) & sh.mask
		}
		sh.buckets[i] = b
		sh.used++
	}
}

// Expire death-marks every live entry whose idle clock is older than
// now-IdleTimeout·9/8. The extra eighth pays for Probe's lazy clock — lastSeen
// trails the last hit by up to IdleTimeout/8 — so an entry hit within
// IdleTimeout of now is never expired, and one idle for IdleTimeout·9/8
// always is. Safe to call from the sweeper goroutine concurrently with shard
// owners: it reads and writes only per-entry atomics and the shard counters
// (an entry's shard is the arena share it lies in, never a word the owner may
// be rewriting); the owners reclaim the marked entries lazily. (The mark is
// racy by design — a connection refreshed in the instant between the
// staleness check and the CAS can be expired one sweep early; it simply
// re-establishes, exactly as a flow whose cached entry was death-marked
// reclassifies.) Returns the number of entries expired.
func (t *Table) Expire(now time.Time) int {
	horizon := now.Add(-t.idleTO).UnixNano() - t.refresh
	n := 0
	for _, sh := range t.shards {
		for i := range sh.entries {
			e := &sh.entries[i]
			if e.state.Load() != stateLive {
				continue
			}
			if e.lastSeen.Load() >= horizon {
				continue
			}
			if e.state.CompareAndSwap(stateLive, stateDead) {
				sh.stats.expired.Add(1)
				sh.stats.live.Add(^uint64(0))
				n++
			}
		}
	}
	return n
}

// Live returns the current live-entry gauge.
func (t *Table) Live() int {
	n := uint64(0)
	for _, sh := range t.shards {
		n += sh.stats.live.Load()
	}
	return int(n)
}

// Stats returns the table's counters: the sum of its shards'.
func (t *Table) Stats() Stats {
	var sum Stats
	for _, sh := range t.shards {
		sum.Add(sh.stats.snapshot())
	}
	return sum
}

// ShardStats returns a per-shard counter snapshot, index-aligned with the
// shard (= PMD) number.
func (t *Table) ShardStats() []Stats {
	out := make([]Stats, len(t.shards))
	for i, sh := range t.shards {
		out[i] = sh.stats.snapshot()
	}
	return out
}
