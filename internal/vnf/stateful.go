package vnf

import (
	"fmt"
	"sync/atomic"
	"time"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

// The stateful VNFs below (NAT44, ACL with established bypass, L4 balancer)
// all ride one conntrack.Table: a zero-alloc sharded connection table whose
// shard pick (conntrack.HashKey) uses the datapath's seeded hash function
// over the 5-tuple. Each App is a single
// goroutine, satisfying the table's single-writer-per-shard contract; the
// vSwitch sweeper expires idle entries cross-thread via death-marks.
//
// A handler reads each packet with pkt.Tuple — one validated header walk, no
// Parser views — probes with Table.Probe, rewrites through the walk's offsets
// (pkt.Loc.SetSrc/SetDst patch the checksums), and publishes the burst's
// conntrack tallies and its own counters once, after the loop. Frames the
// walk rejects — not IPv4, a TotalLen that lies, a non-first fragment, a
// truncated transport header — are not translatable and carry no trackable
// tuple.

// --- NAT44 ------------------------------------------------------------------

// NAT44Config parametrizes NewNAT44.
type NAT44Config struct {
	// ExtIP is the external (translated-to) address this node owns.
	ExtIP pkt.IP4
	// PortBase/PortCount delimit this node's port block — the cluster-level
	// placement hands each NAT node a disjoint block of the ExtIP port
	// space, so nodes allocate without coordinating (per-node port-block
	// allocation).
	PortBase  uint16
	PortCount int
	// Table is the conntrack table translations live in. Its IdleTimeout
	// bounds how long an idle binding holds its port.
	Table *conntrack.Table
	// Linger is the TIME_WAIT-style hold-down between observing a full TCP
	// close (a FIN from each direction, or a RST) and releasing the external
	// port. The binding keeps translating through the hold-down — the peer's
	// FIN/ACK, the final ACK and any retransmits still flow — and the port
	// cannot be remapped while the remote endpoint may still legitimately
	// transmit to it. Zero takes the 2s default.
	Linger time.Duration
}

// natDefaultLinger is the default NAT44Config.Linger.
const natDefaultLinger = 2 * time.Second

// Close-handshake progress bits, one set per allocated port (closeFl).
const (
	closeFinIn  uint8 = 1 << iota // FIN seen from the inside host
	closeFinOut                   // FIN seen from the outside peer
	closeQueued                   // close complete; port lingering toward release
)

// portLinger is one closed binding awaiting its hold-down expiry.
type portLinger struct {
	port     uint16
	deadline int64 // UnixNano after which the port may be released
}

// NAT44 is the stateful source-NAT VNF: port 0 faces inside, port 1 faces
// outside. Outbound connections get (ExtIP, block port) bindings; return
// traffic is translated back; unsolicited outside traffic is dropped.
type NAT44 struct {
	cfg      NAT44Config
	portFree []uint16 // free ports of the block (owner goroutine only)
	// binding[i] is the inside→outside tuple holding port PortBase+i, valid
	// when bound[i]; lets ReclaimExpired release ports whose conntrack
	// entries the sweeper idled out (owner goroutine only).
	binding []conntrack.Key
	bound   []bool
	// closeFl[i] tracks the TCP close handshake of the binding on port
	// PortBase+i; lingerQ is a FIFO ring (closeQueued guarantees at most one
	// slot per port, so PortCount slots never overflow) of close-complete
	// ports riding out the Linger hold-down. Owner goroutine only.
	closeFl    []uint8
	lingerQ    []portLinger
	lingerHead int
	lingerLen  int
	Bound      atomic.Uint64
	Unbound    atomic.Uint64
	Exhausted  atomic.Uint64 // drops: port block empty or table full
	Unsolicit  atomic.Uint64 // drops: outside packet with no binding
	Untransl   atomic.Uint64 // drops: not translatable (non-IPv4/TCP/UDP)
}

// PortsFree returns the number of unallocated ports left in the block.
// Owner-goroutine accuracy; racing readers get a snapshot.
func (n *NAT44) PortsFree() int { return len(n.portFree) }

// NewNAT44 builds the NAT app. Port allocation, binding insertion and
// reclamation all run on the app goroutine — the conntrack shard owner — so
// the whole fast path is lock-free and allocation-free.
func NewNAT44(name string, inside, outside *dpdkr.PMD, pool *mempool.Pool, cfg NAT44Config) (*App, *NAT44, error) {
	if cfg.Table == nil {
		return nil, nil, fmt.Errorf("nat44 %s: nil conntrack table", name)
	}
	if cfg.PortCount <= 0 || int(cfg.PortBase)+cfg.PortCount > 0x10000 {
		return nil, nil, fmt.Errorf("nat44 %s: bad port block [%d,+%d)", name, cfg.PortBase, cfg.PortCount)
	}
	if cfg.Linger <= 0 {
		cfg.Linger = natDefaultLinger
	}
	n := &NAT44{
		cfg:      cfg,
		portFree: make([]uint16, 0, cfg.PortCount),
		binding:  make([]conntrack.Key, cfg.PortCount),
		bound:    make([]bool, cfg.PortCount),
		closeFl:  make([]uint8, cfg.PortCount),
		lingerQ:  make([]portLinger, cfg.PortCount),
	}
	for i := cfg.PortCount - 1; i >= 0; i-- {
		n.portFree = append(n.portFree, cfg.PortBase+uint16(i))
	}
	ct := cfg.Table
	handler := func(ctx *Ctx, inPort int, bufs []*mempool.Buf) {
		now := time.Now().UnixNano()
		n.drainLinger(ct, now)
		keep := bufs[:0]
		untransl := uint64(0)
		var ft conntrack.Key
		for _, b := range bufs {
			frame := b.Bytes()
			at, ok := pkt.Tuple(frame, &ft)
			forward := false
			switch {
			case !ok || ft.Proto == pkt.ProtoICMP:
				untransl++
			case inPort == 0:
				forward = n.outbound(ct, frame, &ft, at, now)
			default:
				forward = n.inbound(ct, frame, &ft, at, now)
			}
			if !forward {
				ctx.Reject(b)
				continue
			}
			keep = append(keep, b)
		}
		ct.Commit()
		if untransl > 0 {
			n.Untransl.Add(untransl)
		}
		ctx.Tx(1-inPort, keep)
	}
	app, err := New(Config{Name: name, PMDs: []*dpdkr.PMD{inside, outside}, Pool: pool, Handler: handler})
	if err != nil {
		return nil, nil, err
	}
	return app, n, nil
}

// outbound translates inside→outside traffic, establishing a binding on the
// first packet of a connection.
func (n *NAT44) outbound(ct *conntrack.Table, frame []byte, ft *conntrack.Key, at pkt.Loc, now int64) bool {
	e := ct.Probe(ft, now)
	if e == nil {
		if e = n.bind(ct, *ft, now); e == nil {
			n.Exhausted.Add(1)
			return false
		}
	}
	if ft.Proto == pkt.ProtoTCP {
		if fin, rst := observeTCP(at.TCPFlags(frame), e); fin || rst {
			n.noteClose(e.XlatePort, closeFinIn, rst, now)
		}
	}
	at.SetSrc(frame, e.XlateIP, e.XlatePort)
	return true
}

// bind allocates a block port for the new inside→outside connection ft and
// inserts its two conntrack entries, returning the forward one — nil when the
// block is empty or the table full.
func (n *NAT44) bind(ct *conntrack.Table, ft conntrack.Key, now int64) *conntrack.Entry {
	if len(n.portFree) == 0 {
		return nil
	}
	port := n.portFree[len(n.portFree)-1]
	fwd := ct.Insert(ft, now)
	if fwd == nil {
		return nil
	}
	// Reverse binding keyed by the tuple return packets carry:
	// remoteIP:remotePort → ExtIP:port.
	rk := conntrack.Key{Src: ft.Dst, Dst: n.cfg.ExtIP, SrcPort: ft.DstPort, DstPort: port, Proto: ft.Proto}
	rev := ct.Insert(rk, now)
	if rev == nil {
		ct.Remove(ft)
		return nil
	}
	n.portFree = n.portFree[:len(n.portFree)-1]
	n.binding[port-n.cfg.PortBase] = ft
	n.bound[port-n.cfg.PortBase] = true
	fwd.XlateIP = n.cfg.ExtIP
	fwd.XlatePort = port
	rev.XlateIP = ft.Src
	rev.XlatePort = ft.SrcPort
	if ft.Proto == pkt.ProtoTCP {
		fwd.TCPState = conntrack.TCPOpening
		rev.TCPState = conntrack.TCPOpening
	}
	n.Bound.Add(1)
	return fwd
}

// inbound translates outside→inside return traffic through an existing
// binding; unsolicited traffic dies here (the NAT is also a stateful
// firewall).
func (n *NAT44) inbound(ct *conntrack.Table, frame []byte, ft *conntrack.Key, at pkt.Loc, now int64) bool {
	e := ct.Probe(ft, now)
	if e == nil {
		n.Unsolicit.Add(1)
		return false
	}
	if ft.Proto == pkt.ProtoTCP {
		if fin, rst := observeTCP(at.TCPFlags(frame), e); fin || rst {
			n.noteClose(ft.DstPort, closeFinOut, rst, now)
		}
	}
	at.SetDst(frame, e.XlateIP, e.XlatePort)
	return true
}

// observeTCP advances the coarse TCP lifecycle on e from a segment's flags f
// and reports whether it carries a FIN or RST.
func observeTCP(f uint8, e *conntrack.Entry) (fin, rst bool) {
	switch {
	case f&pkt.TCPRst != 0:
		e.TCPState = conntrack.TCPClosing
		return false, true
	case f&pkt.TCPFin != 0:
		e.TCPState = conntrack.TCPClosing
		return true, false
	case f&pkt.TCPAck != 0 && e.TCPState == conntrack.TCPOpening:
		e.TCPState = conntrack.TCPOpen
	}
	return false, false
}

// noteClose records close-handshake progress on the binding holding port:
// dir is the direction bit the FIN was seen from; a RST counts for both
// directions (the connection is dead both ways). Once both directions have
// closed, the port enters the linger queue — the binding keeps translating
// (FIN/ACKs, the final ACK, retransmits) until drainLinger retires it after
// the hold-down, so the port is never remapped while the remote endpoint
// may still legitimately transmit. Owner goroutine only.
func (n *NAT44) noteClose(port uint16, dir uint8, rst bool, now int64) {
	i := int(port) - int(n.cfg.PortBase)
	if i < 0 || i >= len(n.bound) || !n.bound[i] {
		return
	}
	if rst {
		n.closeFl[i] |= closeFinIn | closeFinOut
	} else {
		n.closeFl[i] |= dir
	}
	const bothFins = closeFinIn | closeFinOut
	if n.closeFl[i]&bothFins != bothFins || n.closeFl[i]&closeQueued != 0 {
		return
	}
	n.closeFl[i] |= closeQueued
	slot := (n.lingerHead + n.lingerLen) % len(n.lingerQ)
	n.lingerQ[slot] = portLinger{port: port, deadline: now + n.cfg.Linger.Nanoseconds()}
	n.lingerLen++
}

// drainLinger unbinds the closed ports whose hold-down elapsed. Deadlines
// are enqueued in arrival order, so the scan stops at the first live one.
// Owner goroutine only.
func (n *NAT44) drainLinger(ct *conntrack.Table, now int64) {
	for n.lingerLen > 0 {
		le := n.lingerQ[n.lingerHead]
		if le.deadline > now {
			return
		}
		n.lingerHead = (n.lingerHead + 1) % len(n.lingerQ)
		n.lingerLen--
		n.unbind(ct, n.binding[le.port-n.cfg.PortBase], le.port)
	}
}

// unbind retires a binding: both conntrack directions plus the block port.
// fwd is the inside→outside tuple; extPort the allocated external port. The
// conntrack entries may already be sweeper-expired carcasses — the bound
// record, not the table, is authoritative for whether the port is held.
func (n *NAT44) unbind(ct *conntrack.Table, fwd conntrack.Key, extPort uint16) {
	rk := conntrack.Key{Src: fwd.Dst, Dst: n.cfg.ExtIP, SrcPort: fwd.DstPort, DstPort: extPort, Proto: fwd.Proto}
	ct.Remove(fwd)
	ct.Remove(rk)
	i := extPort - n.cfg.PortBase
	if n.bound[i] {
		n.bound[i] = false
		n.closeFl[i] = 0
		n.portFree = append(n.portFree, extPort)
		n.Unbound.Add(1)
	}
}

// ReclaimExpired releases block ports whose bindings the expiry sweeper
// death-marked (idle connections that never sent a FIN), and drains any
// close-lingered ports whose hold-down elapsed. The conntrack table cannot
// release NAT ports itself — the block freelist is owner state — so the
// owner calls this periodically (cheap: one probe per outstanding
// allocation). Must run on the app goroutine or with the app stopped.
// Returns the number of ports freed.
func (n *NAT44) ReclaimExpired(ct *conntrack.Table, now int64) int {
	freed := 0
	before := n.lingerLen
	n.drainLinger(ct, now)
	freed += before - n.lingerLen
	for i := range n.bound {
		if !n.bound[i] || n.closeFl[i]&closeQueued != 0 {
			continue // free, or owned by the linger queue
		}
		fwd := n.binding[i]
		// Peek, not Lookup: a counting probe would refresh the entry's idle
		// clock and keep every binding eternally fresh, defeating the very
		// expiry this reclaim rides on.
		if ct.Peek(fwd) != nil {
			continue // still live
		}
		// Retire both carcasses and release the port.
		n.unbind(ct, fwd, n.cfg.PortBase+uint16(i))
		freed++
	}
	return freed
}

// --- ACL with established-connection bypass ---------------------------------

// ACLRule is one compiled firewall rule: a classifier match plus verdict.
type ACLRule struct {
	Priority uint16
	Match    flow.Match
	Allow    bool
}

// ACL is the stateful firewall VNF: first-packet decisions walk a classifier
// compiled from the rules (the same tuple-space machinery the vSwitch
// uses); allowed connections are inserted into conntrack, and every later
// packet — both directions — takes the zero-alloc established-bypass hit
// path without touching the classifier.
type ACL struct {
	rules *flow.Table
	ct    *conntrack.Table

	Established atomic.Uint64 // packets served by the conntrack bypass
	Walked      atomic.Uint64 // packets that took the classifier walk
	Denied      atomic.Uint64
	TableFull   atomic.Uint64 // allowed but not trackable; still forwarded
}

// Rules exposes the compiled classifier (tests/operators).
func (a *ACL) Rules() *flow.Table { return a.rules }

// aclCookie tags compiled ACL rules in the classifier; the verdict itself
// is read from the matched flow's action type.
const aclCookie = 0xAC1 << 16

// NewACL builds the two-port stateful firewall. Rules are compiled into a
// flow.Table (priority order, first match wins — exactly the classifier's
// contract); defaultAllow decides no-match traffic.
func NewACL(name string, in, out *dpdkr.PMD, pool *mempool.Pool, ct *conntrack.Table, rules []ACLRule, defaultAllow bool) (*App, *ACL, error) {
	if ct == nil {
		return nil, nil, fmt.Errorf("acl %s: nil conntrack table", name)
	}
	rt := flow.NewTable()
	for i, r := range rules {
		act := flow.Actions{flow.Drop()}
		if r.Allow {
			act = flow.Actions{flow.Output(1)}
		}
		rt.Add(r.Priority, r.Match, act, uint64(aclCookie|i))
	}
	// Priority-0 default.
	defAct := flow.Actions{flow.Drop()}
	if defaultAllow {
		defAct = flow.Actions{flow.Output(1)}
	}
	rt.Add(0, flow.MatchAll(), defAct, aclCookie|0xffff)
	a := &ACL{rules: rt, ct: ct}
	var parser pkt.Parser
	handler := func(ctx *Ctx, inPort int, bufs []*mempool.Buf) {
		now := time.Now().UnixNano()
		keep := bufs[:0]
		var established, walked uint64
		var ft conntrack.Key
		for _, b := range bufs {
			_, ok := pkt.Tuple(b.Bytes(), &ft)
			if ok && ct.Probe(&ft, now) != nil {
				// Established: no classifier walk, no allocation.
				established++
				keep = append(keep, b)
				continue
			}
			// First packet, or untrackable (the walk found no tuple: not
			// IPv4, malformed, a non-first fragment): classifier walk over
			// the vSwitch parser's key.
			if parser.Parse(b.Bytes()) != nil {
				a.Denied.Add(1)
				ctx.Reject(b)
				continue
			}
			walked++
			k := flow.ExtractKey(&parser, uint32(inPort))
			f := a.rules.Lookup(&k)
			allow := f != nil && len(f.Actions) > 0 && f.Actions[0].Type == flow.ActOutput
			if !allow {
				a.Denied.Add(1)
				ctx.Reject(b)
				continue
			}
			if ok {
				// Track both directions so return traffic bypasses too. If
				// only the forward entry fits, roll it back: a half-tracked
				// connection would serve forward packets from the bypass
				// while replies — matching no forward-direction rule — are
				// denied. Untracked, the connection keeps re-walking the
				// classifier and retries tracking once the table has room.
				if fe := ct.Insert(ft, now); fe != nil {
					rk := conntrack.Key{Src: ft.Dst, Dst: ft.Src, SrcPort: ft.DstPort, DstPort: ft.SrcPort, Proto: ft.Proto}
					if ct.Insert(rk, now) == nil {
						ct.Remove(ft)
						a.TableFull.Add(1)
					}
				} else {
					a.TableFull.Add(1)
				}
			}
			keep = append(keep, b)
		}
		ct.Commit()
		a.Established.Add(established)
		if walked > 0 {
			a.Walked.Add(walked)
		}
		ctx.Tx(1-inPort, keep)
	}
	app, err := New(Config{Name: name, PMDs: []*dpdkr.PMD{in, out}, Pool: pool, Handler: handler})
	if err != nil {
		return nil, nil, err
	}
	return app, a, nil
}

// --- L4 load balancer -------------------------------------------------------

// Backend is one balancer target.
type Backend struct {
	IP   pkt.IP4
	Port uint16
}

// BalancerConfig parametrizes NewBalancer.
type BalancerConfig struct {
	// VIP/VIPPort is the virtual service address clients talk to.
	VIP     pkt.IP4
	VIPPort uint16
	// Backends are the real servers; a connection is pinned to one on its
	// first packet by conntrack.HashKey of its tuple and the pin is stored
	// in the table, so the pick is stable across the connection's lifetime.
	Backends []Backend
	// Table is the conntrack table connection→backend pins live in.
	Table *conntrack.Table
}

// Balancer is the L4 load-balancing VNF: port 0 faces clients, port 1 faces
// the backend fabric. DNAT on the way in, SNAT back to the VIP on the way
// out; the backend pick is per-connection state in conntrack.
type Balancer struct {
	cfg BalancerConfig

	NewConns atomic.Uint64
	NotVIP   atomic.Uint64 // client-side packets not addressed to the VIP
	NoState  atomic.Uint64 // backend-side packets with no pinned connection
	Full     atomic.Uint64 // connection table exhausted
}

// BackendFor reports the pinned backend index for a client tuple, -1 if
// none. Test/operator helper; runs a real (counted) lookup.
func (lb *Balancer) BackendFor(ct *conntrack.Table, k conntrack.Key, now int64) int {
	if e := ct.Lookup(k, now); e != nil {
		return int(e.Backend)
	}
	return -1
}

// NewBalancer builds the two-port L4 balancer app.
func NewBalancer(name string, client, backend *dpdkr.PMD, pool *mempool.Pool, cfg BalancerConfig) (*App, *Balancer, error) {
	if cfg.Table == nil {
		return nil, nil, fmt.Errorf("balancer %s: nil conntrack table", name)
	}
	if len(cfg.Backends) == 0 {
		return nil, nil, fmt.Errorf("balancer %s: no backends", name)
	}
	lb := &Balancer{cfg: cfg}
	ct := cfg.Table
	handler := func(ctx *Ctx, inPort int, bufs []*mempool.Buf) {
		now := time.Now().UnixNano()
		keep := bufs[:0]
		notVIP := uint64(0)
		var ft conntrack.Key
		for _, b := range bufs {
			frame := b.Bytes()
			at, ok := pkt.Tuple(frame, &ft)
			forward := false
			switch {
			case !ok || ft.Proto == pkt.ProtoICMP:
				notVIP++
			case inPort == 0:
				forward = lb.toBackend(ct, frame, &ft, at, now)
			default:
				forward = lb.toClient(ct, frame, &ft, at, now)
			}
			if !forward {
				ctx.Reject(b)
				continue
			}
			keep = append(keep, b)
		}
		ct.Commit()
		if notVIP > 0 {
			lb.NotVIP.Add(notVIP)
		}
		ctx.Tx(1-inPort, keep)
	}
	app, err := New(Config{Name: name, PMDs: []*dpdkr.PMD{client, backend}, Pool: pool, Handler: handler})
	if err != nil {
		return nil, nil, err
	}
	return app, lb, nil
}

// toBackend DNATs a client→VIP packet to its pinned backend, pinning one on
// the first packet.
func (lb *Balancer) toBackend(ct *conntrack.Table, frame []byte, ft *conntrack.Key, at pkt.Loc, now int64) bool {
	e := ct.Probe(ft, now)
	if e == nil {
		if ft.Dst != lb.cfg.VIP || ft.DstPort != lb.cfg.VIPPort {
			lb.NotVIP.Add(1)
			return false
		}
		if e = lb.pin(ct, *ft, now); e == nil {
			lb.Full.Add(1)
			return false
		}
	}
	at.SetDst(frame, e.XlateIP, e.XlatePort)
	return true
}

// pin picks a backend for the new client→VIP connection ft and inserts its
// two conntrack entries, returning the forward one — nil when the table is
// full.
func (lb *Balancer) pin(ct *conntrack.Table, ft conntrack.Key, now int64) *conntrack.Entry {
	// Pin by the connection hash — the same value that spread the
	// connection across RX queues and fabric paths.
	idx := int32(conntrack.HashKey(ft) % uint32(len(lb.cfg.Backends)))
	fwd := ct.Insert(ft, now)
	if fwd == nil {
		return nil
	}
	bk := lb.cfg.Backends[idx]
	// Reverse pin keyed by the tuple backend replies carry.
	rk := conntrack.Key{Src: bk.IP, Dst: ft.Src, SrcPort: bk.Port, DstPort: ft.SrcPort, Proto: ft.Proto}
	rev := ct.Insert(rk, now)
	if rev == nil {
		ct.Remove(ft)
		return nil
	}
	fwd.Backend = idx
	fwd.XlateIP = bk.IP
	fwd.XlatePort = bk.Port
	rev.Backend = idx
	rev.XlateIP = lb.cfg.VIP
	rev.XlatePort = lb.cfg.VIPPort
	lb.NewConns.Add(1)
	return fwd
}

// toClient SNATs a backend reply's source back to the VIP.
func (lb *Balancer) toClient(ct *conntrack.Table, frame []byte, ft *conntrack.Key, at pkt.Loc, now int64) bool {
	e := ct.Probe(ft, now)
	if e == nil {
		lb.NoState.Add(1)
		return false
	}
	at.SetSrc(frame, e.XlateIP, e.XlatePort)
	return true
}
