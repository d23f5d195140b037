package flow

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Expiry reasons, matching OpenFlow's OFPRR_* values.
const (
	ReasonIdleTimeout uint8 = 0
	ReasonHardTimeout uint8 = 1
)

// SendFlowRemoved is the OFPFF_SEND_FLOW_REM flag bit: the controller wants
// an OFPT_FLOW_REMOVED when this flow expires.
const SendFlowRemoved uint16 = 1

// Flow is one flow-table entry. Stats counters are updated lock-free by the
// datapath; everything else is immutable after insertion (modifications
// replace the entry).
type Flow struct {
	Priority uint16
	Match    Match
	Actions  Actions
	Cookie   uint64

	// IdleTO/HardTO are OpenFlow timeouts in seconds (0 = permanent).
	IdleTO uint16
	HardTO uint16
	// Flags carries OpenFlow flow-mod flags (SendFlowRemoved).
	Flags uint16

	// Packets/Bytes are hit counters maintained by the datapath. Bypass
	// traffic is accounted separately (see the stats package) and merged at
	// stats-export time, exactly as the paper's PMD/shared-memory split.
	Packets atomic.Uint64
	Bytes   atomic.Uint64

	created int64        // UnixNano at insertion
	lastHit atomic.Int64 // UnixNano of the most recent datapath hit

	// dead is the death mark: set exactly once, when the flow leaves its
	// table (delete, expiry, or replacement). The EMC/SMC check it on every
	// candidate hit, so a removal invalidates precisely the cached entries
	// pointing at this flow — without bumping the add/modify generation and
	// stampeding the rest of the cache onto the classifier.
	dead atomic.Bool

	// pmask/pkeyMasked cache Match.Mask.Pack() and the masked match key,
	// computed once at insertion, so CoversPacked runs without Pack calls on
	// the SMC verification path.
	pmask      Packed
	pkeyMasked Packed

	// ecmp is the adaptive multipath repick state, mutated by the datapath
	// under a flowlet gate like the stats counters above (the flow itself
	// stays immutable; this is runtime state riding on it, the way lastHit
	// does).
	ecmp ECMPState
}

// ECMPState is a flow's adaptive-ECMP repick state. An ECMP rule matches a
// whole port's traffic (microflows spread by packet hash), so this is
// per-RULE path-steering state: Avoid masks out bundle slots whose egress
// reports congestion, and the two epochs gate how often that mask may
// change — a flowlet-style ordering guarantee (see the datapath's
// ActOutputECMP execution).
type ECMPState struct {
	// Avoid is a bitmask over the ECMP action's bundle slots (bit j = slot
	// j) the flow currently steers around.
	Avoid atomic.Uint32
	// Seen is the UnixNano of the last batch executed through the flow's
	// ECMP action — the idle-gap side of the flowlet gate.
	Seen atomic.Int64
	// Moved is the UnixNano of the last Avoid change — the bounded-rate
	// side of the gate.
	Moved atomic.Int64
}

// ECMP returns the flow's adaptive-ECMP repick state.
func (f *Flow) ECMP() *ECMPState { return &f.ecmp }

// Dead reports whether the flow has been removed from its table. Cached
// lookup tiers must never serve a dead flow.
func (f *Flow) Dead() bool { return f.dead.Load() }

// markDead sets the death mark; called under the table mutation lock by
// every removal path.
func (f *Flow) markDead() { f.dead.Store(true) }

// CoversPacked reports whether the packed key satisfies the flow's match,
// using the mask material cached at insertion (no allocation, no Pack).
func (f *Flow) CoversPacked(kp *Packed) bool {
	return kp.MaskedEqual(&f.pmask, &f.pkeyMasked)
}

// Touch records a datapath hit for idle-timeout accounting. The PMD calls
// it once per batch with an amortized timestamp; flows without an idle
// timeout skip the store.
func (f *Flow) Touch(nowNano int64) {
	if f.IdleTO > 0 {
		f.lastHit.Store(nowNano)
	}
}

// Expired reports whether the flow has timed out at now and why.
func (f *Flow) Expired(now time.Time) (bool, uint8) {
	n := now.UnixNano()
	if f.HardTO > 0 && n-f.created >= int64(f.HardTO)*int64(time.Second) {
		return true, ReasonHardTimeout
	}
	if f.IdleTO > 0 && n-f.lastHit.Load() >= int64(f.IdleTO)*int64(time.Second) {
		return true, ReasonIdleTimeout
	}
	return false, 0
}

// Age returns how long the flow has existed.
func (f *Flow) Age() time.Duration {
	return time.Duration(time.Now().UnixNano() - f.created)
}

// Stats returns a snapshot of the flow counters.
func (f *Flow) Stats() (packets, bytes uint64) {
	return f.Packets.Load(), f.Bytes.Load()
}

func (f *Flow) String() string {
	return fmt.Sprintf("priority=%d,%s actions=%s", f.Priority, f.Match, f.Actions)
}

// subtable groups flows sharing one mask: the unit of tuple space search. It
// is an immutable open-addressed hash table built when its snapshot is: slots
// is a power of two long and at most half full, keyed by the five words of
// the masked key and probed linearly, so a lookup is mask → hash → probe →
// word compare on values that never leave registers (no masked 36-byte
// temporary, no runtime map hash).
type subtable struct {
	mask    [5]uint64
	maxPrio uint16
	slots   []stSlot
	// hits counts lookups this subtable won. The counter outlives snapshot
	// rebuilds (it is owned by the Table, keyed by mask) and feeds the
	// periodic hit ranking. Atomic: several PMDs walk one snapshot.
	hits *atomic.Uint64
}

// stSlot is one subtable slot: a masked key and the highest-priority flow
// matching exactly it — the only one of its duplicates a lookup can return.
// f == nil marks the slot empty.
type stSlot struct {
	w [5]uint64
	f *Flow
}

// newSubtable builds the table of the flows sharing mask.
func newSubtable(mask Packed, flows []*Flow, hits *atomic.Uint64) *subtable {
	n := 2
	for n < 2*len(flows) {
		n <<= 1
	}
	st := &subtable{slots: make([]stSlot, n), hits: hits}
	st.mask[0], st.mask[1], st.mask[2], st.mask[3], st.mask[4] = mask.words()
	for _, f := range flows {
		if f.Priority > st.maxPrio {
			st.maxPrio = f.Priority
		}
		w0, w1, w2, w3, w4 := f.pkeyMasked.words()
		e := st.slot(w0, w1, w2, w3, w4)
		// Two flows of one masked key differ in priority (Add replaces an
		// equal priority and match), so the comparison has no ties to break.
		if e.f == nil || f.Priority > e.f.Priority {
			*e = stSlot{w: [5]uint64{w0, w1, w2, w3, w4}, f: f}
		}
	}
	return st
}

// slot returns the slot holding the masked key w0..w4, or the empty slot its
// probe sequence ends at. The hash is the key's own (mix folds over the
// process-secret lanes of hashSeed), so which rules share a probe run is not
// something a rule's author can choose.
func (st *subtable) slot(w0, w1, w2, w3, w4 uint64) *stSlot {
	k := &hashSeed
	h := mix(mix(w0^k[0], w1^k[1])^w4, mix(w2^k[2], w3^k[3])^k[6])
	slots := st.slots
	for i := h; ; i++ {
		e := &slots[i&uint64(len(slots)-1)]
		if e.f == nil || (e.w[0]^w0)|(e.w[1]^w1)|(e.w[2]^w2)|(e.w[3]^w3)|(e.w[4]^w4) == 0 {
			return e
		}
	}
}

// classifier is an immutable lookup snapshot. Tables rebuild it on every
// mutation and swap it atomically, giving PMD threads wait-free lookups
// (the RCU idiom OVS uses, in Go clothing).
type classifier struct {
	// subtables sorted by descending maxPrio allows early exit as soon as the
	// best candidate outranks every remaining subtable; within an equal
	// maxPrio run they are ranked by observed hits (hottest first), which
	// Rerank refreshes periodically without touching the early-exit bound.
	subtables []*subtable
	version   uint64
}

// Lookup returns the highest-priority flow covering k, or nil.
func (c *classifier) Lookup(k *Key) *Flow {
	kp := k.Pack()
	return c.LookupPacked(&kp)
}

// LookupPacked is Lookup on an already-packed key, saving the serialization
// when the caller (the PMD fast path) has packed the key for EMC hashing.
// The key's five words are loaded once and masked per subtable in registers.
func (c *classifier) LookupPacked(kp *Packed) *Flow {
	var best *Flow
	var bestSt *subtable
	k0, k1, k2, k3, k4 := kp.words()
	for _, st := range c.subtables {
		if best != nil && best.Priority >= st.maxPrio {
			break
		}
		m := &st.mask
		if f := st.slot(k0&m[0], k1&m[1], k2&m[2], k3&m[3], k4&m[4]).f; f != nil &&
			(best == nil || f.Priority > best.Priority) {
			best = f
			bestSt = st
		}
	}
	if best != nil {
		bestSt.hits.Add(1)
	}
	return best
}

// Table is a priority flow table with copy-on-write lookup snapshots.
// Mutations (Add/Delete/Modify) are serialized by a mutex and O(n); lookups
// are wait-free against the latest snapshot. Listeners observe every
// mutation — this is the hook point for the p-2-p link detector, which in
// the paper inspects each flowmod received by the vSwitch.
type Table struct {
	mu        sync.Mutex
	flows     []*Flow
	version   atomic.Uint64
	gen       atomic.Uint64
	snap      atomic.Pointer[classifier]
	listeners []Listener
	// stHits owns the per-mask hit counters the classifier subtables point
	// at, so hit ranking survives snapshot rebuilds. Guarded by mu.
	stHits map[Packed]*atomic.Uint64
}

// Listener observes table mutations. Callbacks run synchronously under the
// table mutation lock: implementations must be fast and must not mutate the
// table reentrantly.
type Listener interface {
	FlowAdded(f *Flow)
	FlowRemoved(f *Flow)
}

// NewTable returns an empty table.
func NewTable() *Table {
	t := &Table{stHits: make(map[Packed]*atomic.Uint64)}
	t.snap.Store(&classifier{})
	return t
}

// AddListener registers a mutation listener.
func (t *Table) AddListener(l Listener) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.listeners = append(t.listeners, l)
}

// Version returns the current table version; it increments on every
// mutation (including deletes and expiries). Diagnostics and the legacy
// whole-cache invalidation scheme key off it.
func (t *Table) Version() uint64 { return t.version.Load() }

// Generation returns the add/modify generation: it increments only on
// insertions and modifications — the mutations that can *shadow* a cached
// classification with a different, possibly higher-priority result. The
// EMC/SMC validate entries against it. Removals (deletes, expiries) do NOT
// bump it; they death-mark the removed flows instead, so a delete
// invalidates exactly the cached entries pointing at the removed flow and
// the rest of the cache keeps hitting. Generations start at 1: nothing can
// be cached from an empty table, so 0 doubles as the caches' empty tag.
func (t *Table) Generation() uint64 { return t.gen.Load() }

// Add inserts a permanent flow. Per OpenFlow semantics, an existing flow
// with the same priority and match is replaced (its counters are lost, as
// with OFPFF_RESET_COUNTS). Returns the inserted flow.
func (t *Table) Add(priority uint16, m Match, actions Actions, cookie uint64) *Flow {
	return t.AddWithTimeouts(priority, m, actions, cookie, 0, 0, 0)
}

// AddWithTimeouts inserts a flow with OpenFlow idle/hard timeouts (seconds,
// 0 = never) and flow-mod flags.
func (t *Table) AddWithTimeouts(priority uint16, m Match, actions Actions, cookie uint64, idleTO, hardTO, flags uint16) *Flow {
	f := newFlow(FlowSpec{
		Priority: priority, Match: m, Actions: actions, Cookie: cookie,
		IdleTO: idleTO, HardTO: hardTO, Flags: flags,
	}, time.Now().UnixNano())
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, old := range t.flows {
		if old.Priority == priority && old.Match.Equal(m) {
			t.flows[i] = f
			old.markDead()
			t.rebuildLocked()
			// Gen bumps AFTER the snapshot swap: a concurrent PMD that sees
			// the new gen is then guaranteed to classify against the new
			// snapshot (the reverse misordering — old gen, new snapshot —
			// only tags fresh results stale, which is merely conservative).
			t.gen.Add(1)
			for _, l := range t.listeners {
				l.FlowRemoved(old)
				l.FlowAdded(f)
			}
			return f
		}
	}
	t.flows = append(t.flows, f)
	t.rebuildLocked()
	t.gen.Add(1)
	for _, l := range t.listeners {
		l.FlowAdded(f)
	}
	return f
}

// newFlow builds a flow entry from a spec, caching the packed match
// material the SMC verification path reads.
func newFlow(sp FlowSpec, now int64) *Flow {
	f := &Flow{
		Priority: sp.Priority,
		Match:    sp.Match,
		Actions:  append(Actions(nil), sp.Actions...),
		Cookie:   sp.Cookie,
		IdleTO:   sp.IdleTO,
		HardTO:   sp.HardTO,
		Flags:    sp.Flags,
		created:  now,
	}
	f.pmask = sp.Match.Mask.Pack()
	f.pkeyMasked = sp.Match.Key.Pack().And(f.pmask)
	f.lastHit.Store(now)
	return f
}

// FlowSpec describes one flow for batched insertion via AddBatch.
type FlowSpec struct {
	Priority uint16
	Match    Match
	Actions  Actions
	Cookie   uint64
	// IdleTO/HardTO are OpenFlow timeouts in seconds (0 = permanent).
	IdleTO uint16
	HardTO uint16
	Flags  uint16
}

// AddBatch inserts all specs under one mutation lock with a single
// classifier rebuild, and returns the inserted flows in spec order.
// Installing n rules through Add rebuilds the snapshot n times (O(n²) work
// across a deploy laying down a whole service graph); AddBatch is the bulk
// path the steering-rule installers use. Replacement semantics match Add,
// including between two specs of the same priority and match within one
// batch (the later spec wins). Listeners observe the same removed/added
// sequence they would under per-flow Add calls.
func (t *Table) AddBatch(specs []FlowSpec) []*Flow {
	if len(specs) == 0 {
		return nil
	}
	now := time.Now().UnixNano()
	out := make([]*Flow, len(specs))
	replaced := make([]*Flow, len(specs)) // nil where the spec was a fresh insert
	t.mu.Lock()
	defer t.mu.Unlock()
	for si, sp := range specs {
		f := newFlow(sp, now)
		out[si] = f
		found := false
		for i, old := range t.flows {
			if old.Priority == sp.Priority && old.Match.Equal(sp.Match) {
				t.flows[i] = f
				old.markDead()
				replaced[si] = old
				found = true
				break
			}
		}
		if !found {
			t.flows = append(t.flows, f)
		}
	}
	t.rebuildLocked()
	t.gen.Add(1) // after the snapshot swap — see AddWithTimeouts
	for si, f := range out {
		for _, l := range t.listeners {
			if replaced[si] != nil {
				l.FlowRemoved(replaced[si])
			}
			l.FlowAdded(f)
		}
	}
	return out
}

// DeleteStrict removes the flow with exactly this priority and match,
// reporting whether one was removed.
func (t *Table) DeleteStrict(priority uint16, m Match) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, f := range t.flows {
		if f.Priority == priority && f.Match.Equal(m) {
			t.flows = append(t.flows[:i], t.flows[i+1:]...)
			f.markDead()
			t.rebuildLocked()
			for _, l := range t.listeners {
				l.FlowRemoved(f)
			}
			return true
		}
	}
	return false
}

// DeleteWhere removes all flows for which pred returns true and reports how
// many were removed. Non-strict OpenFlow deletes map onto this.
func (t *Table) DeleteWhere(pred func(*Flow) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var kept []*Flow
	var removed []*Flow
	for _, f := range t.flows {
		if pred(f) {
			removed = append(removed, f)
		} else {
			kept = append(kept, f)
		}
	}
	if len(removed) == 0 {
		return 0
	}
	t.flows = kept
	for _, f := range removed {
		f.markDead()
	}
	t.rebuildLocked()
	for _, f := range removed {
		for _, l := range t.listeners {
			l.FlowRemoved(f)
		}
	}
	return len(removed)
}

// Snapshot returns a copy of the flow list, sorted by descending priority.
// Callers may read flow fields but must not mutate them.
func (t *Table) Snapshot() []*Flow {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]*Flow(nil), t.flows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}

// Len returns the number of flows.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.flows)
}

// Lookup classifies k against the current snapshot. Wait-free.
func (t *Table) Lookup(k *Key) *Flow {
	return t.snap.Load().Lookup(k)
}

// LookupPacked classifies an already-packed key against the current
// snapshot. Wait-free; the PMD miss path uses it to avoid re-packing the key
// it already serialized for EMC hashing.
func (t *Table) LookupPacked(kp *Packed) *Flow {
	return t.snap.Load().LookupPacked(kp)
}

// Expired is one flow removed by Expire, with its OpenFlow reason code.
type Expired struct {
	Flow   *Flow
	Reason uint8
}

// Expire removes every flow whose idle or hard timeout has elapsed at now,
// firing the usual removal listeners (so the p-2-p detector reacts to
// expiries exactly as to explicit deletes), and returns them with reasons.
func (t *Table) Expire(now time.Time) []Expired {
	t.mu.Lock()
	defer t.mu.Unlock()
	// First pass without allocating: the common sweep finds nothing to do.
	dead := false
	for _, f := range t.flows {
		if d, _ := f.Expired(now); d {
			dead = true
			break
		}
	}
	if !dead {
		return nil
	}
	var expired []Expired
	var kept []*Flow
	for _, f := range t.flows {
		if dead, reason := f.Expired(now); dead {
			expired = append(expired, Expired{Flow: f, Reason: reason})
		} else {
			kept = append(kept, f)
		}
	}
	if len(expired) == 0 {
		return nil
	}
	t.flows = kept
	for _, e := range expired {
		e.Flow.markDead()
	}
	t.rebuildLocked()
	for _, e := range expired {
		for _, l := range t.listeners {
			l.FlowRemoved(e.Flow)
		}
	}
	return expired
}

// Rerank re-sorts the current classifier snapshot's subtables by observed
// hit counts and swaps a fresh snapshot in. The sort is priority-guarded —
// descending maxPrio remains the primary key, hits only order subtables
// *within* an equal-maxPrio run — so the walk's early exit stays correct.
// Rerank is not a mutation: neither the version nor the add/modify
// generation moves, listeners do not fire, and cached EMC/SMC entries stay
// valid. The vSwitch expiry sweeper calls it periodically so the hottest
// mask migrates to the front of the tuple-space walk.
func (t *Table) Rerank() {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.snap.Load()
	if len(cur.subtables) < 2 {
		return
	}
	next := &classifier{version: cur.version}
	next.subtables = append([]*subtable(nil), cur.subtables...)
	sortSubtables(next.subtables)
	t.snap.Store(next)
}

// sortSubtables orders a subtable slice for lookup: descending maxPrio
// (the early-exit invariant), then descending observed hits.
func sortSubtables(sts []*subtable) {
	sort.SliceStable(sts, func(i, j int) bool {
		if sts[i].maxPrio != sts[j].maxPrio {
			return sts[i].maxPrio > sts[j].maxPrio
		}
		return sts[i].hits.Load() > sts[j].hits.Load()
	})
}

// rebuildLocked regenerates the classifier snapshot. Caller holds t.mu.
func (t *Table) rebuildLocked() {
	v := t.version.Add(1)
	bymask := make(map[Packed][]*Flow)
	for _, f := range t.flows {
		bymask[f.pmask] = append(bymask[f.pmask], f)
	}
	// Hit counters of vanished masks die with their subtable: a returning
	// mask starts cold rather than inheriting a stale rank.
	for mp := range t.stHits {
		if _, ok := bymask[mp]; !ok {
			delete(t.stHits, mp)
		}
	}
	c := &classifier{version: v}
	for mp, flows := range bymask {
		hc := t.stHits[mp]
		if hc == nil {
			hc = new(atomic.Uint64)
			t.stHits[mp] = hc
		}
		c.subtables = append(c.subtables, newSubtable(mp, flows, hc))
	}
	sortSubtables(c.subtables)
	t.snap.Store(c)
}
