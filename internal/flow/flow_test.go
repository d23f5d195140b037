package flow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ovshighway/internal/pkt"
)

func key(inPort uint32, src, dst uint32, proto uint8, l4src, l4dst uint16) Key {
	return Key{
		InPort: inPort, EthType: pkt.EtherTypeIPv4,
		IPSrc: src, IPDst: dst, IPProto: proto,
		L4Src: l4src, L4Dst: l4dst,
	}
}

func TestMatchInPortCovers(t *testing.T) {
	m := MatchInPort(3)
	k1 := key(3, 1, 2, pkt.ProtoUDP, 10, 20)
	k2 := key(4, 1, 2, pkt.ProtoUDP, 10, 20)
	if !m.Covers(&k1) {
		t.Error("in_port=3 should cover port-3 packet")
	}
	if m.Covers(&k2) {
		t.Error("in_port=3 should not cover port-4 packet")
	}
	if !m.MatchesOnlyInPort() {
		t.Error("MatchInPort should be in-port-only")
	}
}

func TestMatchAllCoversEverything(t *testing.T) {
	m := MatchAll()
	k := key(9, 123, 456, pkt.ProtoTCP, 1, 2)
	if !m.Covers(&k) {
		t.Error("MatchAll must cover any key")
	}
	if m.MatchesOnlyInPort() {
		t.Error("MatchAll does not pin in-port")
	}
	if !m.AdmitsInPort(77) {
		t.Error("MatchAll admits every port")
	}
}

func TestMatchBuildersRefine(t *testing.T) {
	m := MatchInPort(1).WithIPProto(pkt.ProtoUDP).WithL4Dst(80)
	if m.MatchesOnlyInPort() {
		t.Error("refined match claims in-port-only")
	}
	hit := key(1, 5, 6, pkt.ProtoUDP, 1000, 80)
	missProto := key(1, 5, 6, pkt.ProtoTCP, 1000, 80)
	missPort := key(1, 5, 6, pkt.ProtoUDP, 1000, 81)
	if !m.Covers(&hit) {
		t.Error("should cover UDP to :80")
	}
	if m.Covers(&missProto) || m.Covers(&missPort) {
		t.Error("covers packets it should not")
	}
	// WithIPProto implies EthType IPv4.
	nonIP := Key{InPort: 1, EthType: pkt.EtherTypeARP}
	if m.Covers(&nonIP) {
		t.Error("IP match covers ARP packet")
	}
}

func TestMatchIPPrefix(t *testing.T) {
	m := MatchAll().WithIPDst(pkt.IP4{10, 1, 2, 3}, 16)
	in := key(1, 0, pkt.IP4{10, 1, 200, 9}.Uint32(), 0, 0, 0)
	out := key(1, 0, pkt.IP4{10, 2, 2, 3}.Uint32(), 0, 0, 0)
	if !m.Covers(&in) {
		t.Error("prefix /16 should cover 10.1.200.9")
	}
	if m.Covers(&out) {
		t.Error("prefix /16 should not cover 10.2.2.3")
	}
}

func TestPrefixMaskEdges(t *testing.T) {
	if prefixMask(0) != 0 {
		t.Error("/0 mask")
	}
	if prefixMask(32) != ^uint32(0) {
		t.Error("/32 mask")
	}
	if prefixMask(24) != 0xffffff00 {
		t.Errorf("/24 mask = %08x", prefixMask(24))
	}
	if prefixMask(-3) != 0 || prefixMask(99) != ^uint32(0) {
		t.Error("out-of-range prefix lens not clamped")
	}
}

func TestMatchEqual(t *testing.T) {
	a := MatchInPort(2).WithL4Dst(80)
	b := MatchInPort(2).WithL4Dst(80)
	c := MatchInPort(2).WithL4Dst(81)
	if !a.Equal(b) {
		t.Error("identical matches not equal")
	}
	if a.Equal(c) {
		t.Error("different matches equal")
	}
	// Different irrelevant (masked-out) key bits must not matter.
	d := b
	d.Key.IPSrc = 999 // not covered by mask
	if !a.Equal(d) {
		t.Error("masked-out bits affect equality")
	}
}

func TestMatchString(t *testing.T) {
	m := MatchInPort(7).WithIPProto(pkt.ProtoTCP).WithL4Dst(80)
	s := m.String()
	for _, want := range []string{"in_port=7", "nw_proto=6", "tp_dst=80", "dl_type=0x0800"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if MatchAll().String() != "any" {
		t.Errorf("MatchAll().String() = %q", MatchAll().String())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestActionsHelpers(t *testing.T) {
	as := Actions{Output(5)}
	if !as.IsPureOutputTo(5) {
		t.Error("pure output not recognized")
	}
	if as.IsPureOutputTo(6) {
		t.Error("wrong port accepted")
	}
	if p, ok := as.SoleOutput(); !ok || p != 5 {
		t.Error("SoleOutput failed")
	}
	multi := Actions{SetEthDst(pkt.MAC{1}), Output(5)}
	if multi.IsPureOutputTo(5) {
		t.Error("multi-action treated as pure output")
	}
	if _, ok := multi.SoleOutput(); ok {
		t.Error("SoleOutput on multi-action list")
	}
	if got := multi.OutputPorts(); len(got) != 1 || got[0] != 5 {
		t.Errorf("OutputPorts = %v", got)
	}
	if Actions(nil).String() != "drop" {
		t.Error("empty actions should render as drop")
	}
	if !as.Equal(Actions{Output(5)}) || as.Equal(multi) {
		t.Error("Actions.Equal wrong")
	}
}

func TestVlanActions(t *testing.T) {
	// Constructors mask to the 12-bit vid space.
	if PushVlan(0xffff).Vlan != 0x0fff || SetVlan(0x1005).Vlan != 5 {
		t.Error("vid not masked to 12 bits")
	}
	// The trunk-lane rule shapes must never look like p-2-p candidates.
	push := Actions{PushVlan(7), Output(3)}
	if push.IsPureOutputTo(3) {
		t.Error("push+output treated as pure output — the detector would bypass a trunk hop")
	}
	pop := Actions{PopVlan(), Output(4)}
	if pop.IsPureOutputTo(4) {
		t.Error("pop+output treated as pure output")
	}
	// ovs-ofctl-style rendering.
	if got := push.String(); got != "push_vlan:7,output:3" {
		t.Errorf("push String = %q", got)
	}
	if got := (Actions{PopVlan()}).String(); got != "strip_vlan" {
		t.Errorf("pop String = %q", got)
	}
	if got := (Actions{SetVlan(9)}).String(); got != "mod_vlan_vid:9" {
		t.Errorf("set String = %q", got)
	}
}

func TestTableLookupPriority(t *testing.T) {
	tb := NewTable()
	lo := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	hi := tb.Add(100, MatchInPort(1).WithIPProto(pkt.ProtoTCP), Actions{Output(3)}, 0)

	tcp := key(1, 1, 2, pkt.ProtoTCP, 10, 20)
	udp := key(1, 1, 2, pkt.ProtoUDP, 10, 20)
	if got := tb.Lookup(&tcp); got != hi {
		t.Errorf("TCP lookup = %v, want high-priority flow", got)
	}
	if got := tb.Lookup(&udp); got != lo {
		t.Errorf("UDP lookup = %v, want low-priority flow", got)
	}
	other := key(2, 1, 2, pkt.ProtoTCP, 10, 20)
	if got := tb.Lookup(&other); got != nil {
		t.Errorf("port-2 lookup = %v, want nil", got)
	}
}

func TestTableAddReplacesSameMatch(t *testing.T) {
	tb := NewTable()
	tb.Add(10, MatchInPort(1), Actions{Output(2)}, 1)
	f2 := tb.Add(10, MatchInPort(1), Actions{Output(3)}, 2)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (replacement)", tb.Len())
	}
	k := key(1, 0, 0, 0, 0, 0)
	if got := tb.Lookup(&k); got != f2 {
		t.Error("lookup did not see replacement")
	}
	// Same match at a different priority is a distinct flow.
	tb.Add(20, MatchInPort(1), Actions{Output(4)}, 3)
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
}

func TestTableDeleteStrict(t *testing.T) {
	tb := NewTable()
	tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	if !tb.DeleteStrict(10, MatchInPort(1)) {
		t.Fatal("strict delete missed existing flow")
	}
	if tb.DeleteStrict(10, MatchInPort(1)) {
		t.Fatal("strict delete hit twice")
	}
	k := key(1, 0, 0, 0, 0, 0)
	if tb.Lookup(&k) != nil {
		t.Fatal("deleted flow still matches")
	}
}

func TestTableDeleteWhere(t *testing.T) {
	tb := NewTable()
	tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	tb.Add(10, MatchInPort(2), Actions{Output(1)}, 0)
	tb.Add(10, MatchInPort(3), Actions{Output(4)}, 0)
	n := tb.DeleteWhere(func(f *Flow) bool {
		p, ok := f.Actions.SoleOutput()
		return ok && p <= 2
	})
	if n != 2 {
		t.Fatalf("DeleteWhere = %d, want 2", n)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

type recListener struct {
	added, removed []*Flow
}

func (r *recListener) FlowAdded(f *Flow)   { r.added = append(r.added, f) }
func (r *recListener) FlowRemoved(f *Flow) { r.removed = append(r.removed, f) }

func TestTableListenerEvents(t *testing.T) {
	tb := NewTable()
	rec := &recListener{}
	tb.AddListener(rec)

	f1 := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	if len(rec.added) != 1 || rec.added[0] != f1 {
		t.Fatal("add event missing")
	}
	// Replacement fires removed+added.
	f2 := tb.Add(10, MatchInPort(1), Actions{Output(3)}, 0)
	if len(rec.removed) != 1 || rec.removed[0] != f1 || len(rec.added) != 2 || rec.added[1] != f2 {
		t.Fatalf("replacement events wrong: added=%d removed=%d", len(rec.added), len(rec.removed))
	}
	tb.DeleteStrict(10, MatchInPort(1))
	if len(rec.removed) != 2 || rec.removed[1] != f2 {
		t.Fatal("delete event missing")
	}
}

func TestTableVersionBumps(t *testing.T) {
	tb := NewTable()
	v0 := tb.Version()
	tb.Add(1, MatchAll(), Actions{Output(1)}, 0)
	if tb.Version() == v0 {
		t.Fatal("version did not change on add")
	}
	v1 := tb.Version()
	tb.DeleteStrict(1, MatchAll())
	if tb.Version() == v1 {
		t.Fatal("version did not change on delete")
	}
	if tb.DeleteStrict(1, MatchAll()) {
		t.Fatal("no-op delete returned true")
	}
}

func TestSnapshotSortedByPriority(t *testing.T) {
	tb := NewTable()
	tb.Add(5, MatchInPort(1), Actions{Output(2)}, 0)
	tb.Add(50, MatchInPort(2), Actions{Output(3)}, 0)
	tb.Add(25, MatchInPort(3), Actions{Output(4)}, 0)
	snap := tb.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Priority < snap[i].Priority {
			t.Fatal("snapshot not sorted by descending priority")
		}
	}
}

// refLookup is the obviously-correct reference classifier: linear scan,
// highest priority wins, earlier insert wins ties.
func refLookup(flows []*Flow, k *Key) *Flow {
	var best *Flow
	for _, f := range flows {
		if f.Match.Covers(k) && (best == nil || f.Priority > best.Priority) {
			best = f
		}
	}
	return best
}

// TestQuickClassifierAgainstReference generates random rule sets and random
// packets and cross-checks the TSS classifier with a linear scan.
func TestQuickClassifierAgainstReference(t *testing.T) {
	gen := func(rng *rand.Rand) Match {
		m := MatchAll()
		if rng.Intn(2) == 0 {
			m = MatchInPort(uint32(rng.Intn(4)))
		}
		if rng.Intn(3) == 0 {
			m = m.WithIPProto([]uint8{pkt.ProtoUDP, pkt.ProtoTCP}[rng.Intn(2)])
		}
		if rng.Intn(3) == 0 {
			m = m.WithL4Dst(uint16(rng.Intn(3) + 80))
		}
		if rng.Intn(4) == 0 {
			m = m.WithIPDst(pkt.IP4{10, byte(rng.Intn(3)), 0, 0}, 16)
		}
		return m
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		var flows []*Flow
		n := rng.Intn(24) + 1
		for i := 0; i < n; i++ {
			m := gen(rng)
			prio := uint16(rng.Intn(8) * 10)
			fl := tb.Add(prio, m, Actions{Output(uint32(rng.Intn(8)))}, uint64(i))
			// Mirror replacement semantics in the reference list.
			for j, old := range flows {
				if old.Priority == prio && old.Match.Equal(m) {
					flows = append(flows[:j], flows[j+1:]...)
					break
				}
			}
			flows = append(flows, fl)
		}
		for trial := 0; trial < 50; trial++ {
			k := key(uint32(rng.Intn(4)),
				rng.Uint32(), pkt.IP4{10, byte(rng.Intn(3)), 1, 1}.Uint32(),
				[]uint8{pkt.ProtoUDP, pkt.ProtoTCP}[rng.Intn(2)],
				uint16(rng.Intn(1000)), uint16(rng.Intn(3)+80))
			got := tb.Lookup(&k)
			want := refLookup(flows, &k)
			// Both must agree on the winning priority (ties between equal
			// priorities may legitimately differ in which flow wins).
			switch {
			case got == nil && want == nil:
			case got == nil || want == nil:
				return false
			case got.Priority != want.Priority:
				return false
			case !got.Match.Covers(&k):
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEMCHitMissFlush(t *testing.T) {
	tb := NewTable()
	fl := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	c := NewEMC(1024)

	k := key(1, 11, 22, pkt.ProtoUDP, 1, 2)
	kp := k.Pack()
	h := kp.Hash64()
	v := tb.Version()

	if got := c.Probe(&kp, h, v); got != nil {
		t.Fatal("cold cache hit")
	}
	c.Put(&kp, h, fl, v, always)
	if got := c.Probe(&kp, h, v); got != fl {
		t.Fatal("warm cache miss")
	}
	// Probe counts nothing; the caller lands its per-burst tallies.
	if st := c.Stats(); st != (EMCStats{}) {
		t.Fatalf("Probe touched the counters: %+v", st)
	}
	c.Count(1, 1)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Any table change invalidates.
	tb.Add(20, MatchInPort(2), Actions{Output(1)}, 0)
	if got := c.Probe(&kp, h, tb.Version()); got != nil {
		t.Fatal("stale entry survived version bump")
	}
}

func TestEMCNilNotCached(t *testing.T) {
	c := NewEMC(64)
	k := key(1, 0, 0, 0, 0, 0)
	kp := k.Pack()
	c.Put(&kp, kp.Hash64(), nil, 0, always)
	if got := c.Probe(&kp, kp.Hash64(), 0); got != nil {
		t.Fatal("nil flow was cached")
	}
}

func TestEMCConflictEviction(t *testing.T) {
	c := NewEMC(4) // tiny: 4 entries = 2 sets * 2 ways
	tb := NewTable()
	fl := tb.Add(1, MatchAll(), Actions{Output(1)}, 0)
	v := tb.Version()

	// Fill one set with three entries mapping to the same bucket.
	var keys []Packed
	h := uint64(0) // same hash → same set
	for i := 0; i < 3; i++ {
		k := key(uint32(i), 0, 0, 0, 0, 0)
		kp := k.Pack()
		keys = append(keys, kp)
		c.Put(&kp, h, fl, v, always)
	}
	// Newest two must be present, oldest evicted.
	if c.Probe(&keys[2], h, v) != fl || c.Probe(&keys[1], h, v) != fl {
		t.Fatal("recent entries evicted")
	}
	if c.Probe(&keys[0], h, v) != nil {
		t.Fatal("oldest entry survived 2-way eviction")
	}
	if c.Stats().Conflicts == 0 {
		t.Fatal("conflict not counted")
	}
}

// TestEMCGenerationInvalidatesOnlyStaleEntries pins the per-entry
// generation-tag semantics: a table mutation must stop stale entries from
// hitting, but entries re-validated after the mutation keep hitting — the
// mutation no longer wipes the whole cache.
func TestEMCGenerationInvalidatesOnlyStaleEntries(t *testing.T) {
	tb := NewTable()
	fa := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	fb := tb.Add(10, MatchInPort(2), Actions{Output(1)}, 0)
	c := NewEMC(1024)

	ka := key(1, 11, 22, pkt.ProtoUDP, 1, 2)
	kb := key(2, 11, 22, pkt.ProtoUDP, 3, 4)
	kpa, kpb := ka.Pack(), kb.Pack()
	v1 := tb.Version()
	c.Put(&kpa, kpa.Hash64(), fa, v1, always)
	c.Put(&kpb, kpb.Hash64(), fb, v1, always)

	// Mutate the table: both cached entries are now stale.
	tb.Add(30, MatchInPort(3), Actions{Output(1)}, 0)
	v2 := tb.Version()
	if v2 == v1 {
		t.Fatal("mutation did not bump version")
	}
	if c.Probe(&kpa, kpa.Hash64(), v2) != nil || c.Probe(&kpb, kpb.Hash64(), v2) != nil {
		t.Fatal("stale entry served after mutation")
	}

	// Re-validate only A at v2. B must stay invalid, A must hit — i.e. the
	// re-validation did not depend on a whole-cache flush and did not
	// resurrect B.
	c.Put(&kpa, kpa.Hash64(), fa, v2, always)
	if c.Probe(&kpa, kpa.Hash64(), v2) != fa {
		t.Fatal("re-validated entry missed")
	}
	if c.Probe(&kpb, kpb.Hash64(), v2) != nil {
		t.Fatal("entry from the old generation resurrected")
	}
	// And another mutation invalidates A's v2 entry in turn.
	tb.Add(40, MatchInPort(4), Actions{Output(1)}, 0)
	if c.Probe(&kpa, kpa.Hash64(), tb.Version()) != nil {
		t.Fatal("v2 entry served at v3")
	}
}

// TestEMCNeverServesRemovedFlow pins the safety property the PMD relies on:
// once a flow is deleted (version bump), no lookup at the new version may
// return it, so the datapath never executes actions of a removed flow.
func TestEMCNeverServesRemovedFlow(t *testing.T) {
	tb := NewTable()
	fl := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	c := NewEMC(64)

	k := key(1, 11, 22, pkt.ProtoUDP, 1, 2)
	kp := k.Pack()
	v1 := tb.Version()
	c.Put(&kp, kp.Hash64(), fl, v1, always)
	if c.Probe(&kp, kp.Hash64(), v1) != fl {
		t.Fatal("warm cache missed")
	}

	if !tb.DeleteStrict(10, MatchInPort(1)) {
		t.Fatal("delete failed")
	}
	if got := c.Probe(&kp, kp.Hash64(), tb.Version()); got != nil {
		t.Fatalf("EMC served removed flow %v", got)
	}
	// The PMD pattern after the miss: classifier lookup (nil — flow is gone),
	// so nothing is re-cached and a later lookup still misses.
	if tb.Lookup(&k) != nil {
		t.Fatal("classifier still knows removed flow")
	}
	if c.Probe(&kp, kp.Hash64(), tb.Version()) != nil {
		t.Fatal("removed flow reappeared")
	}
}

// TestEMCInsertPrefersStaleVictim checks that inserting into a set whose
// way 0 is stale overwrites the stale way and leaves a live way 1 intact.
func TestEMCInsertPrefersStaleVictim(t *testing.T) {
	tb := NewTable()
	fl := tb.Add(1, MatchAll(), Actions{Output(1)}, 0)
	c := NewEMC(4) // 2 sets × 2 ways
	v1 := tb.Version()

	h := uint64(0) // same set for all keys
	key0 := key(10, 0, 0, 0, 0, 0)
	key1 := key(11, 0, 0, 0, 0, 0)
	k0, k1 := key0.Pack(), key1.Pack()
	c.Put(&k0, h, fl, v1, always)

	tb.Add(2, MatchInPort(9), Actions{Output(1)}, 0) // version gap v1 → v3
	fl2 := tb.Add(3, MatchInPort(8), Actions{Output(1)}, 0)
	v3 := tb.Version()

	// k1 lands at v3; k0's entry (v1) is stale and must be the victim even
	// though it sits in way 0.
	c.Put(&k1, h, fl2, v3, always)
	if c.Probe(&k1, h, v3) != fl2 {
		t.Fatal("fresh entry missing")
	}
	// A second fresh insert shifts into the empty way — no conflict yet.
	c.Put(&k0, h, fl2, v3, always)
	if c.Probe(&k0, h, v3) != fl2 || c.Probe(&k1, h, v3) != fl2 {
		t.Fatal("live entries lost")
	}
	if got := c.Stats().Conflicts; got != 0 {
		t.Fatalf("conflicts = %d, want 0 (stale/empty ways were available)", got)
	}
	// A third insert finds both ways live at v3: now it must conflict-evict.
	key2 := key(12, 0, 0, 0, 0, 0)
	k2 := key2.Pack()
	c.Put(&k2, h, fl2, v3, always)
	if got := c.Stats().Conflicts; got != 1 {
		t.Fatalf("conflicts = %d, want 1 (both ways were live)", got)
	}
	if c.Probe(&k2, h, v3) != fl2 || c.Probe(&k0, h, v3) != fl2 {
		t.Fatal("newest entries must survive the conflict eviction")
	}
	if c.Probe(&k1, h, v3) != nil {
		t.Fatal("oldest live entry must be the conflict victim")
	}
}

func TestExtractKeyFromParsedPacket(t *testing.T) {
	buf := make([]byte, 256)
	n, err := pkt.BuildUDP(buf, pkt.UDPSpec{
		SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
		SrcIP: pkt.IP4{10, 0, 0, 1}, DstIP: pkt.IP4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var p pkt.Parser
	if err := p.Parse(buf[:n]); err != nil {
		t.Fatal(err)
	}
	k := ExtractKey(&p, 7)
	if k.InPort != 7 || k.EthType != pkt.EtherTypeIPv4 ||
		k.IPSrc != (pkt.IP4{10, 0, 0, 1}).Uint32() ||
		k.IPProto != pkt.ProtoUDP || k.L4Src != 1000 || k.L4Dst != 2000 {
		t.Fatalf("key = %+v", k)
	}
}

func TestFlowStatsCounters(t *testing.T) {
	tb := NewTable()
	f := tb.Add(1, MatchAll(), Actions{Output(1)}, 0)
	f.Packets.Add(10)
	f.Bytes.Add(640)
	p, b := f.Stats()
	if p != 10 || b != 640 {
		t.Fatalf("stats = %d/%d", p, b)
	}
}

func BenchmarkTableLookupEMCMiss(b *testing.B) {
	tb := NewTable()
	for i := 0; i < 32; i++ {
		tb.Add(uint16(i), MatchInPort(uint32(i)).WithL4Dst(uint16(80+i)), Actions{Output(uint32(i + 1))}, 0)
	}
	k := key(5, 1, 2, pkt.ProtoUDP, 99, 85)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tb.Lookup(&k) == nil {
			b.Fatal("no match")
		}
	}
}

func BenchmarkEMCLookupHit(b *testing.B) {
	tb := NewTable()
	fl := tb.Add(1, MatchAll(), Actions{Output(1)}, 0)
	c := NewEMC(8192)
	k := key(1, 11, 22, pkt.ProtoUDP, 1, 2)
	kp := k.Pack()
	h := kp.Hash64()
	v := tb.Version()
	c.Put(&kp, h, fl, v, always)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Probe(&kp, h, v) == nil {
			b.Fatal("miss")
		}
	}
}

func TestAddBatchInsertsWithOneRebuild(t *testing.T) {
	tb := NewTable()
	v0 := tb.Version()
	specs := make([]FlowSpec, 8)
	for i := range specs {
		specs[i] = FlowSpec{Priority: 10, Match: MatchInPort(uint32(i + 1)), Actions: Actions{Output(uint32(i + 2))}}
	}
	flows := tb.AddBatch(specs)
	if len(flows) != len(specs) {
		t.Fatalf("AddBatch returned %d flows, want %d", len(flows), len(specs))
	}
	if got := tb.Version() - v0; got != 1 {
		t.Fatalf("AddBatch bumped the version %d times, want 1 rebuild", got)
	}
	if tb.Len() != len(specs) {
		t.Fatalf("table has %d flows, want %d", tb.Len(), len(specs))
	}
	for i := range specs {
		k := key(uint32(i+1), 1, 2, pkt.ProtoUDP, 10, 20)
		if f := tb.Lookup(&k); f != flows[i] {
			t.Fatalf("lookup in_port=%d returned %v, want batch flow %d", i+1, f, i)
		}
	}
}

func TestAddBatchReplaceSemantics(t *testing.T) {
	tb := NewTable()
	rec := &recListener{}
	old := tb.Add(10, MatchInPort(1), Actions{Output(2)}, 0)
	tb.AddListener(rec)

	// Second spec replaces the pre-existing flow; the third replaces the
	// first spec of this very batch (later spec wins, as sequential Adds).
	flows := tb.AddBatch([]FlowSpec{
		{Priority: 10, Match: MatchInPort(5), Actions: Actions{Output(6)}},
		{Priority: 10, Match: MatchInPort(1), Actions: Actions{Output(3)}},
		{Priority: 10, Match: MatchInPort(5), Actions: Actions{Output(7)}},
	})
	if tb.Len() != 2 {
		t.Fatalf("table has %d flows, want 2", tb.Len())
	}
	k := key(1, 1, 2, pkt.ProtoUDP, 10, 20)
	if f := tb.Lookup(&k); f != flows[1] {
		t.Fatalf("in_port=1 lookup = %v, want replacement flow", f)
	}
	k5 := key(5, 1, 2, pkt.ProtoUDP, 10, 20)
	if f := tb.Lookup(&k5); f != flows[2] {
		t.Fatalf("in_port=5 lookup = %v, want last in-batch flow", f)
	}
	wantAdded := []*Flow{flows[0], flows[1], flows[2]}
	wantRemoved := []*Flow{old, flows[0]}
	if len(rec.added) != len(wantAdded) || len(rec.removed) != len(wantRemoved) {
		t.Fatalf("listener saw %d added / %d removed, want %d / %d",
			len(rec.added), len(rec.removed), len(wantAdded), len(wantRemoved))
	}
	for i := range wantAdded {
		if rec.added[i] != wantAdded[i] {
			t.Fatalf("added[%d] mismatch", i)
		}
	}
	for i := range wantRemoved {
		if rec.removed[i] != wantRemoved[i] {
			t.Fatalf("removed[%d] mismatch", i)
		}
	}
}

func TestAddBatchEmpty(t *testing.T) {
	tb := NewTable()
	v0 := tb.Version()
	if got := tb.AddBatch(nil); got != nil {
		t.Fatalf("AddBatch(nil) = %v, want nil", got)
	}
	if tb.Version() != v0 {
		t.Fatal("AddBatch(nil) must not rebuild")
	}
}
