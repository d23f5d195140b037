// Package vswitch implements the software switch the paper modifies: an
// OVS-DPDK-style userspace datapath with poll-mode forwarding threads, an
// exact-match cache in front of a tuple-space-search classifier, an OpenFlow
// front-end, and hooks for the p-2-p bypass system (flow-table listeners for
// the detector, bypass-aware statistics export).
package vswitch

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/stats"
)

// DataPort is any port the forwarding engine can poll and push. dpdkr ports
// (VM-facing) and simulated NIC ports both implement it.
type DataPort interface {
	PortID() uint32
	PortName() string
	// Recv dequeues guest/wire arrivals; single consumer (the owning PMD).
	Recv(out []*mempool.Buf) int
	// Send enqueues toward the guest/wire, freeing overflow. The datapath
	// serializes calls per port.
	Send(bufs []*mempool.Buf) int
	// PortCounters exposes the host-side counters for stats export.
	PortCounters() *stats.PortCounters
}

// CongestionReporter is implemented by ports whose egress side publishes a
// congestion score (trunk-attached NICs: the pump draining the wire side
// writes its staging backpressure there). The datapath caches the gauge
// pointer at port attach, so the adaptive-ECMP consult is one atomic load
// per path with no interface call on the hot path. Ports that do not
// implement it read as permanently quiet.
type CongestionReporter interface {
	CongestionGauge() *atomic.Uint32
}

// MultiQueuePort is a DataPort whose guest→host direction is fanned into
// several RSS queues. The datapath polls each queue independently and homes
// every queue on exactly one PMD via the assignment table; ports that do not
// implement it are treated as single-queue (queue 0 == Recv).
type MultiQueuePort interface {
	DataPort
	// NumRxQueues reports the fixed queue count (≥1), set at port creation.
	NumRxQueues() int
	// RecvQueue dequeues arrivals from one queue; single consumer per queue.
	RecvQueue(q int, out []*mempool.Buf) int
}

// Config parametrizes a Switch. Zero values take defaults.
type Config struct {
	DatapathID uint64
	// NumPMDs is the number of forwarding threads. The paper's baseline
	// decays with chain length precisely because all vSwitch hops share
	// these threads. Default 1.
	NumPMDs int
	// BatchSize is the per-poll burst size. Default 32.
	BatchSize int
	// EMCEntries sizes each PMD's exact-match cache. Default 8192.
	// EMCDisabled turns the cache off (ablation A1).
	EMCEntries  int
	EMCDisabled bool
	// SMCEntries sizes each PMD's signature-match cache — the second lookup
	// tier, which keeps absorbing lookups after the distinct-flow count
	// outgrows the EMC. Default 32768. SMCDisabled turns it off (ablation
	// A5).
	SMCEntries  int
	SMCDisabled bool
	// EMCInsertInvProb is the inverse probability with which a
	// classifier-resolved flow may DISPLACE a live cache entry (OVS's
	// emc-insert-inv-prob, narrowed to exactly that): a vacant,
	// stale-generation or death-marked way of the EMC or the SMC is always
	// taken, so warm-up and the refill after delete churn are immediate, but
	// evicting a live way — the EMC's shift-and-evict with its SMC demotion,
	// the SMC's round-robin victim — happens for one resolution in N.
	// Default 100, as OVS ships it: a working set the caches cannot hold
	// then keeps a stable capacity/working-set share resident instead of
	// evicting every entry just before its key comes round again, and
	// one-packet mice rarely churn an elephant out. 1 = always displace
	// (replace on every miss; the flowscale sweep's contrast arm).
	EMCInsertInvProb int
	// PacketInQueue bounds the controller punt queue. Default 256.
	PacketInQueue int
	// TableMissToController punts unmatched packets instead of dropping.
	TableMissToController bool
	// ECMPAdaptiveDisabled pins every ECMP flow to its static hash path,
	// ignoring port congestion gauges — the PR 5 behaviour, kept as the
	// baseline arm of the adaptive-routing experiments.
	ECMPAdaptiveDisabled bool
	// SweepInterval is the flow-timeout expiry period. Default 500ms.
	SweepInterval time.Duration
}

func (c *Config) fill() {
	if c.NumPMDs == 0 {
		c.NumPMDs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.EMCEntries == 0 {
		c.EMCEntries = 8192
	}
	if c.SMCEntries == 0 {
		c.SMCEntries = 32768
	}
	if c.PacketInQueue == 0 {
		c.PacketInQueue = 256
	}
	if c.EMCInsertInvProb == 0 {
		c.EMCInsertInvProb = 100
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 500 * time.Millisecond
	}
}

// PacketInEvent is a packet punted to the controller channel.
type PacketInEvent struct {
	InPort uint32
	Reason uint8
	Data   []byte // owned copy
}

// portEntry pairs a port with its TX serialization lock. With several PMD
// threads, two PMDs may route to the same destination port concurrently;
// the lock preserves the single-producer contract of the underlying ring
// (OVS-DPDK takes the same lock when tx queues are shared).
type portEntry struct {
	port DataPort
	txMu sync.Mutex
	// queues are this port's pollable RX queues. They are built once, when
	// the entry is created, and the SAME objects carry over into every later
	// port-set snapshot — their identity is what lets the assignment table
	// preserve ownership (and their load counters survive) across unrelated
	// port add/removes.
	queues []*rxQueue
	// cong is the port's egress congestion gauge (nil for ports that report
	// none), resolved once at attach so ECMP path consults stay a bare load.
	cong *atomic.Uint32
}

// newPortEntry wraps a port and materializes its RX queues: one rxQueue per
// hardware queue for MultiQueuePort implementations, a single queue 0
// falling back to Recv for everything else.
func newPortEntry(p DataPort) *portEntry {
	e := &portEntry{port: p}
	if cr, ok := p.(CongestionReporter); ok {
		e.cong = cr.CongestionGauge()
	}
	nq := 1
	mq, _ := p.(MultiQueuePort)
	if mq != nil {
		if n := mq.NumRxQueues(); n > 1 {
			nq = n
		}
	}
	e.queues = make([]*rxQueue, nq)
	for i := range e.queues {
		e.queues[i] = &rxQueue{e: e, mq: mq, qid: i}
	}
	return e
}

// rxQueue is one pollable RX queue of one port — the unit of PMD ownership
// and of load accounting. The owning PMD is the only reader of the queue and
// the only writer of its load counters; stats readers load the counters
// atomically.
type rxQueue struct {
	e   *portEntry
	mq  MultiQueuePort // nil → single-queue port, recv via e.port.Recv
	qid int

	// busyNanos is time the owning PMD spent processing this queue's
	// batches; batches/frames count what it dequeued.
	busyNanos atomic.Uint64
	batches   atomic.Uint64
	frames    atomic.Uint64
}

func (q *rxQueue) recv(out []*mempool.Buf) int {
	if q.mq != nil {
		return q.mq.RecvQueue(q.qid, out)
	}
	return q.e.port.Recv(out)
}

func (e *portEntry) send(bufs []*mempool.Buf, locked bool) int {
	if locked {
		e.txMu.Lock()
		defer e.txMu.Unlock()
	}
	return e.port.Send(bufs)
}

// portSet is a copy-on-write snapshot of the attached ports. order is the
// dense index domain the PMD TX accumulators use; byID maps a port id to its
// index in order. Indexes are snapshot-local: a PMD resolves and flushes
// within one snapshot, so they never cross snapshots.
type portSet struct {
	byID  map[uint32]int
	order []*portEntry // ascending port id, deterministic polling order
	// queues flattens every entry's RX queues in port-id-then-queue-id order:
	// the index domain of the assignment table's owner slice.
	queues []*rxQueue
}

// buildPortSet sorts entries by port id and indexes them.
func buildPortSet(entries []*portEntry) *portSet {
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].port.PortID() < entries[j].port.PortID()
	})
	ps := &portSet{byID: make(map[uint32]int, len(entries)), order: entries}
	for i, e := range entries {
		ps.byID[e.port.PortID()] = i
		ps.queues = append(ps.queues, e.queues...)
	}
	return ps
}

// entry returns the port entry for id, or nil.
func (ps *portSet) entry(id uint32) *portEntry {
	if i, ok := ps.byID[id]; ok {
		return ps.order[i]
	}
	return nil
}

// qAssign is the queue→PMD assignment table: one immutable snapshot pairing
// a port set with the owner of each of its queues (owner[i] owns
// ports.queues[i]; -1 parks the queue — nobody polls it, used as the quiesce
// step of a move). PMD loops load it once per iteration, so ports and
// ownership are always mutually consistent; control code replaces the whole
// snapshot atomically (copy-on-write under portsMu).
type qAssign struct {
	ports *portSet
	owner []int
}

// queueIndex locates a (port, queue) pair in the flattened queue slice,
// returning -1 when absent.
func (a *qAssign) queueIndex(portID uint32, qid int) int {
	for i, q := range a.ports.queues {
		if q.e.port.PortID() == portID && q.qid == qid {
			return i
		}
	}
	return -1
}

// Switch is the forwarding engine plus its control surfaces.
type Switch struct {
	cfg   Config
	table *flow.Table

	// portsSnap is the copy-on-write port set read by PMD loops.
	portsSnap atomic.Pointer[portSet]
	portsMu   sync.Mutex // serializes port add/remove and queue re-homing

	// asgSnap is the copy-on-write queue→PMD assignment table. It embeds the
	// port set it was built against, so a PMD loading it gets a consistent
	// (ports, owners) pair in one atomic load.
	asgSnap atomic.Pointer[qAssign]

	// QueueMoves counts completed queue re-homings (diagnostic; balancer
	// convergence and experiments read it).
	QueueMoves atomic.Uint64

	packetIns    chan PacketInEvent
	flowRemovals chan FlowRemovedEvent
	sweepStop    chan struct{}

	// bypass registrations for stats transparency.
	bypassMu    sync.Mutex
	bypassLinks map[*dpdkr.Link]*flow.Flow
	// foldedRx/foldedTx accumulate counters of torn-down links per port so
	// exported statistics never move backwards.
	foldedRx map[uint32]stats.Snapshot
	foldedTx map[uint32]stats.Snapshot

	// injectPool backs controller packet-out injection.
	injectMu   sync.Mutex
	injectPool *mempool.Pool

	// puntPool recycles packet-in payload copies: punts borrow a []byte here
	// instead of allocating per packet, and ReleasePacketIn returns it.
	puntPool sync.Pool

	// pmdsSnap is the copy-on-write PMD-thread set: stats/quiescence readers
	// load it wait-free while Restart swaps in a fresh generation of threads.
	// lifeMu serializes the lifecycle transitions (Start/Stop/Restart).
	pmdsSnap atomic.Pointer[[]*pmdThread]
	lifeMu   sync.Mutex
	started  atomic.Bool
	stopped  atomic.Bool
	wg       sync.WaitGroup

	// Restarts counts completed Restart cycles (diagnostic; chaos tests).
	Restarts atomic.Uint64

	// Misses counts slow-path classifications: full tuple-space walks after
	// EMC, SMC, and within-batch dedup all missed (diagnostic).
	Misses atomic.Uint64
	// TableMisses counts packets that matched no flow at all.
	TableMisses atomic.Uint64
	// OutputNowhere counts frames that matched a flow whose actions moved
	// them nowhere and were freed: an output port absent from the PMD's port
	// snapshot, every path of an ECMP bundle down, or an action list with no
	// output at all. Explicit drop actions are not counted.
	OutputNowhere atomic.Uint64
	// DedupHits counts within-batch duplicate misses resolved from an
	// earlier packet of the same batch instead of a second classifier walk.
	DedupHits atomic.Uint64
	// ParseErrors counts frames the header walk rejected — too short for an
	// Ethernet header; they are dropped before classification.
	ParseErrors atomic.Uint64
	// ECMPRepicks counts adaptive-ECMP avoid-set changes: each time a flow's
	// path mask moved off (or back onto) a congested bundle slot through the
	// flowlet gate. Rate-bounded per flow, so this stays cold even under
	// sustained congestion.
	ECMPRepicks atomic.Uint64

	// conntracks is the copy-on-write list of attached connection tables:
	// their idle expiry rides the flow-table sweeper (same death-mark
	// semantics as cached flows), and their counters fold into
	// DatapathStats. A Switch-level field, so attached tables — like the
	// flow table itself — survive Restart, which is exactly the "state is
	// node-local, rules are reconciled" split the stateful VNFs depend on.
	ctMu       sync.Mutex
	conntracks atomic.Pointer[[]*conntrack.Table]
}

// AttachConntrack registers a connection table with the switch: the expiry
// sweeper drives its idle timeout and DatapathStats reports its counters.
// Attaching is idempotent per table.
func (s *Switch) AttachConntrack(t *conntrack.Table) {
	if t == nil {
		return
	}
	s.ctMu.Lock()
	defer s.ctMu.Unlock()
	var cur []*conntrack.Table
	if p := s.conntracks.Load(); p != nil {
		cur = *p
	}
	for _, have := range cur {
		if have == t {
			return
		}
	}
	next := make([]*conntrack.Table, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = t
	s.conntracks.Store(&next)
}

// DetachConntrack undoes AttachConntrack: the sweeper stops visiting the
// table, DatapathStats stops summing it, and the switch drops its reference
// so the table's arena can be collected. Whoever attached a table detaches
// it when the table's VNF stops. Detaching an unattached table is a no-op.
func (s *Switch) DetachConntrack(t *conntrack.Table) {
	s.ctMu.Lock()
	defer s.ctMu.Unlock()
	cur := s.ConntrackTables()
	if i := slices.Index(cur, t); i >= 0 {
		next := slices.Delete(slices.Clone(cur), i, i+1)
		s.conntracks.Store(&next)
	}
}

// ConntrackTables returns the attached connection tables (read-only snapshot).
func (s *Switch) ConntrackTables() []*conntrack.Table {
	if p := s.conntracks.Load(); p != nil {
		return *p
	}
	return nil
}

// New builds a stopped switch; call Start to launch the PMD threads.
func New(cfg Config) *Switch {
	cfg.fill()
	s := &Switch{
		cfg:          cfg,
		table:        flow.NewTable(),
		packetIns:    make(chan PacketInEvent, cfg.PacketInQueue),
		flowRemovals: make(chan FlowRemovedEvent, cfg.PacketInQueue),
		sweepStop:    make(chan struct{}),
		bypassLinks:  make(map[*dpdkr.Link]*flow.Flow),
		foldedRx:     make(map[uint32]stats.Snapshot),
		foldedTx:     make(map[uint32]stats.Snapshot),
	}
	empty := &portSet{byID: map[uint32]int{}}
	s.portsSnap.Store(empty)
	s.asgSnap.Store(&qAssign{ports: empty})
	return s
}

// borrowPuntData copies src into a pooled payload buffer.
func (s *Switch) borrowPuntData(src []byte) []byte {
	var data []byte
	if v := s.puntPool.Get(); v != nil {
		data = (*v.(*[]byte))[:0]
	}
	return append(data, src...)
}

// ReleasePacketIn returns a consumed packet-in's payload to the punt pool.
// Calling it is optional — consumers that retain ev.Data simply never
// release it and the copy is garbage collected — but after a release the
// payload must no longer be read.
func (s *Switch) ReleasePacketIn(ev PacketInEvent) {
	if ev.Data == nil {
		return
	}
	d := ev.Data[:0]
	s.puntPool.Put(&d)
}

// Table exposes the flow table (for the OpenFlow front-end and the
// detector's listener registration).
func (s *Switch) Table() *flow.Table { return s.table }

// DatapathID returns the configured datapath id.
func (s *Switch) DatapathID() uint64 { return s.cfg.DatapathID }

// PacketIns returns the controller punt channel.
func (s *Switch) PacketIns() <-chan PacketInEvent { return s.packetIns }

// AddPort attaches a port to the datapath.
func (s *Switch) AddPort(p DataPort) error {
	s.portsMu.Lock()
	defer s.portsMu.Unlock()
	old := s.portsSnap.Load()
	if _, dup := old.byID[p.PortID()]; dup {
		return fmt.Errorf("vswitch: port id %d in use", p.PortID())
	}
	entries := make([]*portEntry, 0, len(old.order)+1)
	entries = append(entries, old.order...)
	entries = append(entries, newPortEntry(p))
	ps := buildPortSet(entries)
	s.portsSnap.Store(ps)
	s.retargetAssignLocked(ps)
	return nil
}

// RemovePort detaches a port; buffers already handed to the port remain its
// responsibility.
func (s *Switch) RemovePort(id uint32) error {
	s.portsMu.Lock()
	defer s.portsMu.Unlock()
	old := s.portsSnap.Load()
	if _, ok := old.byID[id]; !ok {
		return fmt.Errorf("vswitch: port id %d not found", id)
	}
	entries := make([]*portEntry, 0, len(old.order)-1)
	for _, e := range old.order {
		if e.port.PortID() != id {
			entries = append(entries, e)
		}
	}
	ps := buildPortSet(entries)
	s.portsSnap.Store(ps)
	s.retargetAssignLocked(ps)
	return nil
}

// retargetAssignLocked rebuilds the assignment table for a new port set.
// Queues that survive the change (same *rxQueue object) keep their owner —
// adding port 9 must not re-home port 3's hot queue — and each new queue is
// homed on the PMD currently owning the fewest queues (ties break toward
// the lowest index). Counting owned queues rather than hashing ids is what
// fixes the residue-clustering pathology: all-even port ids with NumPMDs=2
// used to land every port on PMD 0 under the old id%N rule. Caller holds
// portsMu.
func (s *Switch) retargetAssignLocked(ps *portSet) {
	prev := s.asgSnap.Load()
	prevOwner := make(map[*rxQueue]int, len(prev.ports.queues))
	for i, q := range prev.ports.queues {
		prevOwner[q] = prev.owner[i]
	}
	owner := make([]int, len(ps.queues))
	counts := make([]int, s.cfg.NumPMDs)
	const unhomed = -2
	for i, q := range ps.queues {
		if o, ok := prevOwner[q]; ok {
			owner[i] = o
			if o >= 0 && o < len(counts) {
				counts[o]++
			}
			continue
		}
		owner[i] = unhomed
	}
	for i := range owner {
		if owner[i] != unhomed {
			continue
		}
		best := 0
		for p := 1; p < len(counts); p++ {
			if counts[p] < counts[best] {
				best = p
			}
		}
		owner[i] = best
		counts[best]++
	}
	s.asgSnap.Store(&qAssign{ports: ps, owner: owner})
}

// MoveQueue re-homes one RX queue onto the PMD with index dst using the
// quiesce-then-move protocol: the queue is first parked (owner −1) so no
// thread polls it, then the source PMD is waited out for one full loop
// iteration — its current iteration, including the batch it may be flushing
// from this very queue, completes before the wait returns — and only then
// does ownership flip to dst. Frames the source already dequeued are fully
// forwarded before the destination can dequeue newer ones, and the ring
// itself is FIFO, so per-flow ordering is preserved exactly like a trunk
// detach. Safe under live traffic.
func (s *Switch) MoveQueue(portID uint32, qid, dst int) error {
	if dst < 0 || dst >= s.cfg.NumPMDs {
		return fmt.Errorf("vswitch: move queue: no PMD %d (NumPMDs=%d)", dst, s.cfg.NumPMDs)
	}
	s.portsMu.Lock()
	defer s.portsMu.Unlock()
	cur := s.asgSnap.Load()
	qi := cur.queueIndex(portID, qid)
	if qi < 0 {
		return fmt.Errorf("vswitch: move queue: port %d queue %d not found", portID, qid)
	}
	src := cur.owner[qi]
	if src == dst {
		return nil
	}
	parked := make([]int, len(cur.owner))
	copy(parked, cur.owner)
	parked[qi] = -1
	s.asgSnap.Store(&qAssign{ports: cur.ports, owner: parked})
	if src >= 0 {
		s.waitPMDIteration(src)
	}
	final := make([]int, len(parked))
	copy(final, parked)
	final[qi] = dst
	s.asgSnap.Store(&qAssign{ports: cur.ports, owner: final})
	s.QueueMoves.Add(1)
	return nil
}

// waitPMDIteration blocks until PMD idx begins a new loop iteration (and so
// has observed the latest assignment snapshot), or the thread/switch stops.
func (s *Switch) waitPMDIteration(idx int) {
	if !s.started.Load() || s.stopped.Load() {
		return
	}
	pmds := s.pmdList()
	if idx < 0 || idx >= len(pmds) {
		return
	}
	p := pmds[idx]
	before := p.iters.Load()
	for p.iters.Load() == before && !p.stop.Load() {
		runtime.Gosched()
	}
}

// Port returns the port with the given id, or nil.
func (s *Switch) Port(id uint32) DataPort {
	if e := s.portsSnap.Load().entry(id); e != nil {
		return e.port
	}
	return nil
}

// Ports returns the current ports in id order.
func (s *Switch) Ports() []DataPort {
	snap := s.portsSnap.Load()
	out := make([]DataPort, len(snap.order))
	for i, e := range snap.order {
		out[i] = e.port
	}
	return out
}

// pmdList returns the current PMD-thread generation (nil before Start, or
// PollOnce's caller-driven thread on a switch that is never started).
func (s *Switch) pmdList() []*pmdThread {
	if p := s.pmdsSnap.Load(); p != nil {
		return *p
	}
	return nil
}

// launchLocked builds and starts a fresh generation of PMD threads and the
// expiry sweeper. Caller holds lifeMu.
func (s *Switch) launchLocked() {
	pmds := make([]*pmdThread, 0, s.cfg.NumPMDs)
	for i := 0; i < s.cfg.NumPMDs; i++ {
		p := newPMDThread(s, i)
		pmds = append(pmds, p)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			p.run()
		}()
	}
	s.pmdsSnap.Store(&pmds)
	s.wg.Add(1)
	go s.sweeper(s.cfg.SweepInterval, s.sweepStop)
}

// haltLocked stops the current PMD generation and the sweeper, waiting for
// both. Caller holds lifeMu.
func (s *Switch) haltLocked() {
	for _, p := range s.pmdList() {
		p.stop.Store(true)
	}
	close(s.sweepStop)
	s.wg.Wait()
}

// PollOnce runs one forwarding-loop iteration of PMD 0 on the calling
// goroutine and returns the frames it handled: the whole per-hop datapath
// with no goroutine hand-off, for single-goroutine benchmarks and tests. It
// is only for a switch that is never started (NumPMDs 1, so PMD 0 owns
// every queue), and only one goroutine may call it.
func (s *Switch) PollOnce() int {
	if s.started.Load() {
		panic("vswitch: PollOnce on a started switch")
	}
	snap := s.pmdsSnap.Load()
	if snap == nil {
		// Published like a started generation, so DatapathStats reads the
		// thread's cache counters and load clocks.
		snap = &[]*pmdThread{newPMDThread(s, 0)}
		s.pmdsSnap.Store(snap)
	}
	return (*snap)[0].iterate()
}

// Start launches the PMD threads. It is an error to start twice.
func (s *Switch) Start() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("vswitch: already started")
	}
	s.launchLocked()
	return nil
}

// Stop halts the PMD threads and waits for them. Safe to call once.
func (s *Switch) Stop() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if !s.started.Load() || !s.stopped.CompareAndSwap(false, true) {
		return
	}
	s.haltLocked()
}

// Restart simulates a vSwitch crash-and-relaunch for fault injection: the
// forwarding threads and sweeper stop, the ENTIRE flow table is wiped (a
// restarted switch has lost its datapath and ofproto state; listeners fire,
// so the bypass manager drains and dissolves every bypass exactly as it
// would when the rules died one by one), the per-PMD EMC/SMC caches are
// discarded with their threads, and a fresh generation of threads launches.
// Ports, pools and VMs survive — they belong to the host, not the switch
// process. Whatever control plane owns the rules (the reconciler) must
// reinstall them; until then traffic parks in the port rings and overflow
// drops at the ring mouth, which is exactly an OVS restart's behaviour.
func (s *Switch) Restart() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if !s.started.Load() {
		return errors.New("vswitch: not started")
	}
	if s.stopped.Load() {
		return errors.New("vswitch: already stopped")
	}
	s.haltLocked()
	s.table.DeleteWhere(func(*flow.Flow) bool { return true })
	s.sweepStop = make(chan struct{})
	s.launchLocked()
	s.Restarts.Add(1)
	return nil
}

// WaitDatapathQuiescence blocks until every PMD thread has started a new
// loop iteration (and therefore observed the latest port snapshot), or the
// switch has stopped. Callers use it after RemovePort before reclaiming the
// removed port's resources.
func (s *Switch) WaitDatapathQuiescence() {
	if !s.started.Load() || s.stopped.Load() {
		return
	}
	pmds := s.pmdList()
	before := make([]uint64, len(pmds))
	for i, p := range pmds {
		before[i] = p.iters.Load()
	}
	for i, p := range pmds {
		for p.iters.Load() == before[i] && !p.stop.Load() {
			runtime.Gosched()
		}
	}
}

// EMCStats aggregates the per-PMD cache counters (diagnostic, ablations).
func (s *Switch) EMCStats() flow.EMCStats {
	var out flow.EMCStats
	for _, p := range s.pmdList() {
		st := p.emcStats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Conflicts += st.Conflicts
	}
	return out
}

// SMCStats aggregates the per-PMD signature-cache counters (diagnostic,
// ablation A5). All zeros when the tier is disabled (no caches exist).
func (s *Switch) SMCStats() flow.SMCStats {
	var out flow.SMCStats
	for _, p := range s.pmdList() {
		if p.smc == nil {
			continue
		}
		st := p.smc.Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.FalsePositives += st.FalsePositives
	}
	return out
}

// DatapathStats is the per-tier resolution breakdown of every parsed
// packet: which level of the lookup hierarchy answered. ClassifierHits are
// full tuple-space walks that found a flow; ClassifierMisses matched
// nothing (dropped or punted). DedupHits were resolved from an identical
// key earlier in the same batch, whichever tier that key came from.
type DatapathStats struct {
	EMC              flow.EMCStats
	SMC              flow.SMCStats
	ClassifierHits   uint64
	ClassifierMisses uint64
	DedupHits        uint64
	ParseErrors      uint64
	// OutputNowhere counts frames a matched flow's actions left nowhere to
	// go (see Switch.OutputNowhere) — a burst lost to a stale port snapshot
	// shows up here.
	OutputNowhere uint64
	// ECMPRepicks counts adaptive multipath avoid-set changes in the window.
	ECMPRepicks uint64
	// PMDs and Queues carry the per-thread and per-queue load samples
	// (busy-poll time, batches, frames) taken with the tier counters, so one
	// snapshot-and-Delta yields both cache behaviour and load placement.
	PMDs   []PMDLoad
	Queues []QueueLoad
	// Conntrack aggregates the attached connection tables' counters;
	// ConntrackShards carries the per-shard split, so windowed views show
	// where connection state actually lives.
	Conntrack       conntrack.Stats
	ConntrackShards []conntrack.Stats
}

// Delta returns the counter movement since an earlier snapshot — the
// windowed view experiments use to report steady state instead of
// since-boot blur (warm-up included).
func (s DatapathStats) Delta(prev DatapathStats) DatapathStats {
	out := DatapathStats{
		EMC:              s.EMC.Delta(prev.EMC),
		SMC:              s.SMC.Delta(prev.SMC),
		ClassifierHits:   s.ClassifierHits - prev.ClassifierHits,
		ClassifierMisses: s.ClassifierMisses - prev.ClassifierMisses,
		DedupHits:        s.DedupHits - prev.DedupHits,
		ParseErrors:      s.ParseErrors - prev.ParseErrors,
		OutputNowhere:    s.OutputNowhere - prev.OutputNowhere,
		ECMPRepicks:      s.ECMPRepicks - prev.ECMPRepicks,
		Conntrack:        s.Conntrack.Delta(prev.Conntrack),
	}
	if len(s.ConntrackShards) > 0 {
		out.ConntrackShards = make([]conntrack.Stats, len(s.ConntrackShards))
		for i, st := range s.ConntrackShards {
			if i < len(prev.ConntrackShards) {
				st = st.Delta(prev.ConntrackShards[i])
			}
			out.ConntrackShards[i] = st
		}
	}
	if len(s.PMDs) > 0 {
		out.PMDs = make([]PMDLoad, len(s.PMDs))
		for i, l := range s.PMDs {
			if i < len(prev.PMDs) {
				l = l.Delta(prev.PMDs[i])
			}
			out.PMDs[i] = l
		}
	}
	if len(s.Queues) > 0 {
		// Queues are keyed by (port, queue), not by index: port add/removes
		// between the two snapshots shift the flattened order. Saturating
		// subtraction, like PMDLoad.Delta.
		type qkey struct {
			port uint32
			q    int
		}
		prevBy := make(map[qkey]QueueLoad, len(prev.Queues))
		for _, l := range prev.Queues {
			prevBy[qkey{l.Port, l.Queue}] = l
		}
		out.Queues = make([]QueueLoad, len(s.Queues))
		for i, l := range s.Queues {
			if p, ok := prevBy[qkey{l.Port, l.Queue}]; ok {
				if l.BusyNanos >= p.BusyNanos {
					l.BusyNanos -= p.BusyNanos
				}
				if l.Batches >= p.Batches {
					l.Batches -= p.Batches
				}
				if l.Frames >= p.Frames {
					l.Frames -= p.Frames
				}
			}
			out.Queues[i] = l
		}
	}
	return out
}

// DatapathStats returns the aggregated lookup-tier counters. Safe to call
// while the datapath is forwarding (cache counters are per-PMD atomics), so
// callers can snapshot-and-diff a measurement window via Delta.
func (s *Switch) DatapathStats() DatapathStats {
	// TableMisses is loaded BEFORE Misses: each PMD batch adds Misses first,
	// so this order keeps tableMisses ≤ misses on a live datapath and the
	// subtraction can never wrap. The clamp covers torn multi-batch reads.
	tableMisses := s.TableMisses.Load()
	misses := s.Misses.Load()
	if tableMisses > misses {
		tableMisses = misses
	}
	out := DatapathStats{
		EMC:              s.EMCStats(),
		SMC:              s.SMCStats(),
		ClassifierHits:   misses - tableMisses,
		ClassifierMisses: tableMisses,
		DedupHits:        s.DedupHits.Load(),
		ParseErrors:      s.ParseErrors.Load(),
		OutputNowhere:    s.OutputNowhere.Load(),
		ECMPRepicks:      s.ECMPRepicks.Load(),
		PMDs:             s.PMDLoads(),
		Queues:           s.QueueLoads(),
	}
	for _, ct := range s.ConntrackTables() {
		out.Conntrack.Add(ct.Stats())
		for i, ss := range ct.ShardStats() {
			if i == len(out.ConntrackShards) {
				out.ConntrackShards = append(out.ConntrackShards, conntrack.Stats{})
			}
			out.ConntrackShards[i].Add(ss)
		}
	}
	return out
}
