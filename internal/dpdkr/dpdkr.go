// Package dpdkr implements the paper's modified dpdkr port: a shared-memory
// ring port with a mandatory *normal* channel to the vSwitch forwarding
// engine and an optional *bypass* channel connected directly to another VM's
// PMD.
//
// The guest-side PMD multiplexes both channels behind a single logical port:
// applications call Rx/Tx exactly as they would on a vanilla dpdkr port and
// never learn whether their packets ride the bypass (the paper's
// transparency property). Channel switchover is an atomic pointer swap, so
// it is safe while traffic flows (the dynamicity property). Packets sent
// through the bypass are accounted into a shared stats block that the
// vSwitch merges into its OpenFlow statistics (the stats-transparency
// property).
package dpdkr

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/ring"
	"ovshighway/internal/stats"
)

// Ring is the packet ring type used by all dpdkr channels.
type Ring = ring.SPSC[*mempool.Buf]

// DefaultRingSize is the per-direction ring capacity (DPDK's common default).
const DefaultRingSize = 1024

// Port is the host (vSwitch) side of a dpdkr port. The forwarding engine
// polls Recv for guest transmissions and pushes with Send; both operate on
// the normal channel only — the whole point of the bypass is that the host
// never sees bypass traffic.
type Port struct {
	ID   uint32
	Name string

	toVM *Ring // normal channel: host → guest
	// fromVM is the guest → host direction, split into one ring per RSS
	// queue: the guest side hashes each frame's flow identity (flow.RSSHash)
	// to pick a ring, modeling a NIC fanning its RX across hardware queues.
	// Single-queue ports have exactly one ring and behave as before.
	fromVM []*Ring

	// Counters hold the host-side view of normal-channel traffic.
	Counters stats.PortCounters
}

// PMD is the guest-side poll mode driver for one dpdkr port. A single
// goroutine (the VNF's lcore) must own Rx and Tx; the control plane may
// concurrently reconfigure the bypass pointers.
type PMD struct {
	PortID uint32

	rxNormal *Ring   // host → guest
	txNormal []*Ring // guest → host, one ring per RSS queue

	txBypass atomic.Pointer[BypassHalf]
	rxBypass atomic.Pointer[BypassHalf]

	// rounds counts Rx calls for normal-channel fairness: even with an
	// active bypass the PMD periodically polls the normal channel so
	// controller packet-outs are still delivered.
	rounds uint64

	// rxOps/txOps are seqlock-style epoch counters: odd while the lcore is
	// inside Rx/Tx, even when idle. They let the control plane wait out an
	// in-flight datapath call after swapping a bypass pointer — the grace
	// period that makes teardown safe while traffic flows (without it, the
	// manager draining a detached ring would race the last Rx still using
	// it, i.e. two consumers on an SPSC ring).
	rxOps atomic.Uint64
	txOps atomic.Uint64

	// TxNormalDrops counts normal-channel enqueue failures observed by Tx.
	TxNormalDrops atomic.Uint64
}

// BypassHalf is one direction of a bypass channel as seen by one PMD: the
// shared ring plus the shared stats block for that directed link. Two
// BypassHalf values referencing the same ring exist — the sender's (tx) and
// the receiver's (rx) — mirroring the paper's "pair of dpdkr bypass channels
// mapped on the same piece of memory".
type BypassHalf struct {
	Link *Link
}

// Link is the shared substance of one directed bypass channel, created by
// the vSwitch's bypass manager and placed into a shm segment.
type Link struct {
	Name string
	// From/To are the host port IDs of the producing and consuming ports.
	From, To uint32
	Ring     *Ring
	Stats    *stats.Block
}

// NewLink builds a directed bypass link with its own ring and stats block.
func NewLink(name string, from, to uint32, ringSize int) (*Link, error) {
	r, err := ring.NewSPSC[*mempool.Buf](ringSize)
	if err != nil {
		return nil, fmt.Errorf("dpdkr: bypass link %q: %w", name, err)
	}
	return &Link{Name: name, From: from, To: to, Ring: r, Stats: &stats.Block{}}, nil
}

// Drain empties the link's ring, freeing any in-flight buffers in batched
// ring/pool operations. Used at teardown after both PMDs detached.
func (l *Link) Drain() int {
	var scratch [32]*mempool.Buf
	n := 0
	for {
		k := l.Ring.Dequeue(scratch[:])
		if k == 0 {
			return n
		}
		mempool.FreeBatch(scratch[:k])
		n += k
	}
}

// NewPort creates a single-queue dpdkr port with only the normal channel
// (the state every port starts in when the compute agent creates the VM)
// and returns both endpoints.
func NewPort(id uint32, name string, ringSize int) (*Port, *PMD, error) {
	return NewPortMQ(id, name, ringSize, 1)
}

// NewPortMQ creates a dpdkr port whose guest→host direction fans out into
// nq RSS queues, each its own SPSC ring: the guest PMD hashes every frame's
// flow onto one queue, and each queue is polled by exactly one forwarding
// thread — the substrate the vSwitch's queue→PMD assignment table
// distributes load over. nq <= 1 degenerates to the classic single-queue
// port.
func NewPortMQ(id uint32, name string, ringSize, nq int) (*Port, *PMD, error) {
	if ringSize == 0 {
		ringSize = DefaultRingSize
	}
	if nq < 1 {
		nq = 1
	}
	toVM, err := ring.NewSPSC[*mempool.Buf](ringSize)
	if err != nil {
		return nil, nil, err
	}
	fromVM := make([]*Ring, nq)
	for i := range fromVM {
		if fromVM[i], err = ring.NewSPSC[*mempool.Buf](ringSize); err != nil {
			return nil, nil, err
		}
	}
	p := &Port{ID: id, Name: name, toVM: toVM, fromVM: fromVM}
	d := &PMD{PortID: id, rxNormal: toVM, txNormal: fromVM}
	return p, d, nil
}

// --- host side -------------------------------------------------------------

// Recv dequeues up to len(out) guest transmissions from RSS queue 0 of the
// normal channel. Single-queue callers keep using this; multi-queue ports
// are polled per queue via RecvQueue.
func (p *Port) Recv(out []*mempool.Buf) int { return p.RecvQueue(0, out) }

// NumRxQueues reports how many RSS queues the guest→host direction has.
// The vSwitch uses it to enumerate pollable queues at port-add time.
func (p *Port) NumRxQueues() int { return len(p.fromVM) }

// RecvQueue dequeues up to len(out) guest transmissions from one RSS queue.
// Each queue must have exactly one consumer (the owning PMD thread); the
// assignment table upstream guarantees that.
func (p *Port) RecvQueue(q int, out []*mempool.Buf) int {
	n := p.fromVM[q].Dequeue(out)
	if n > 0 {
		var bytes uint64
		for _, b := range out[:n] {
			bytes += uint64(b.Len)
		}
		p.Counters.RxPackets.Add(uint64(n))
		p.Counters.RxBytes.Add(bytes)
	}
	return n
}

// Send enqueues bufs toward the guest on the normal channel. Packets that do
// not fit are freed and counted as TX drops; the return value is the number
// actually delivered. The forwarding engine is the single producer.
//
// Byte accounting happens BEFORE the enqueue: the moment a buffer enters the
// ring its ownership transfers to the consumer, which may free and recycle
// it concurrently — reading b.Len afterwards would be a use-after-transfer.
func (p *Port) Send(bufs []*mempool.Buf) int {
	var total uint64
	for _, b := range bufs {
		total += uint64(b.Len)
	}
	n := p.toVM.Enqueue(bufs)
	var unsent uint64
	for _, b := range bufs[n:] { // still owned by us
		unsent += uint64(b.Len)
	}
	mempool.FreeBatch(bufs[n:])
	p.Counters.TxPackets.Add(uint64(n))
	p.Counters.TxBytes.Add(total - unsent)
	if dropped := len(bufs) - n; dropped > 0 {
		p.Counters.TxDropped.Add(uint64(dropped))
	}
	return n
}

// NormalBacklog reports the number of packets queued toward the guest
// (diagnostic; used in tests).
func (p *Port) NormalBacklog() int { return p.toVM.Len() }

// ReturnBacklog reports the number of packets the guest has transmitted
// that the forwarding engine has not yet picked up. A migration drain must
// see BOTH directions empty: frames parked here would be freed — lost — by
// Drain when the VM is destroyed.
func (p *Port) ReturnBacklog() int {
	n := 0
	for _, r := range p.fromVM {
		n += r.Len()
	}
	return n
}

// Drain frees every packet parked in the port's normal-channel rings,
// returning the count. Teardown-only: both the forwarding engine and the
// guest PMD must already be detached, since Drain acts as consumer on both
// rings.
func (p *Port) Drain() int {
	var scratch [32]*mempool.Buf
	n := 0
	rings := append([]*Ring{p.toVM}, p.fromVM...)
	for _, r := range rings {
		for {
			k := r.Dequeue(scratch[:])
			if k == 0 {
				break
			}
			mempool.FreeBatch(scratch[:k])
			n += k
		}
	}
	return n
}

// PortID implements the datapath port interface.
func (p *Port) PortID() uint32 { return p.ID }

// PortName implements the datapath port interface.
func (p *Port) PortName() string { return p.Name }

// PortCounters implements the datapath port interface.
func (p *Port) PortCounters() *stats.PortCounters { return &p.Counters }

// --- guest side ------------------------------------------------------------

// normalPollInterval is how often (in Rx rounds) the PMD polls the normal
// channel while a bypass RX is active, keeping packet-out delivery live.
const normalPollInterval = 16

// Rx receives up to len(out) packets for the application, draining the
// bypass channel when one is attached and periodically (or on spare batch
// room) the normal channel.
func (d *PMD) Rx(out []*mempool.Buf) int {
	d.rxOps.Add(1) // enter critical section (odd)
	n := d.rx(out)
	d.rxOps.Add(1) // leave critical section (even)
	return n
}

func (d *PMD) rx(out []*mempool.Buf) int {
	d.rounds++
	bh := d.rxBypass.Load()
	if bh == nil {
		return d.rxNormal.Dequeue(out)
	}
	n := 0
	// On fairness rounds the normal channel goes first; otherwise a bypass
	// that fills every batch would starve controller packet-outs forever.
	if d.rounds%normalPollInterval == 0 {
		n = d.rxNormal.Dequeue(out)
	}
	if n < len(out) {
		m := bh.Link.Ring.Dequeue(out[n:])
		if m > 0 {
			var bytes uint64
			for _, b := range out[n : n+m] {
				bytes += uint64(b.Len)
			}
			bh.Link.Stats.AccountRx(uint64(m), bytes)
			n += m
		}
	}
	if n < len(out) {
		n += d.rxNormal.Dequeue(out[n:])
	}
	return n
}

// Tx transmits bufs, using the bypass channel when attached and the normal
// channel otherwise. It returns how many packets were accepted; the caller
// retains ownership of (and must free) the rest. Bypass traffic is accounted
// into the link's shared stats block — the vSwitch never sees it.
func (d *PMD) Tx(bufs []*mempool.Buf) int {
	d.txOps.Add(1) // enter critical section (odd)
	n := d.tx(bufs)
	d.txOps.Add(1) // leave critical section (even)
	return n
}

func (d *PMD) tx(bufs []*mempool.Buf) int {
	if bh := d.txBypass.Load(); bh != nil {
		// Sum before enqueueing: ownership transfers with the enqueue (see
		// Port.Send), and the unsent tail remains readable afterwards.
		var total uint64
		for _, b := range bufs {
			total += uint64(b.Len)
		}
		n := bh.Link.Ring.Enqueue(bufs)
		var unsent uint64
		for _, b := range bufs[n:] {
			unsent += uint64(b.Len)
		}
		bh.Link.Stats.AccountTx(uint64(n), total-unsent)
		if dropped := len(bufs) - n; dropped > 0 {
			bh.Link.Stats.TxDrops.Add(uint64(dropped))
		}
		return n
	}
	if len(d.txNormal) == 1 {
		n := d.txNormal[0].Enqueue(bufs)
		if dropped := len(bufs) - n; dropped > 0 {
			d.TxNormalDrops.Add(uint64(dropped))
		}
		return n
	}
	// Multi-queue RSS: hash each frame's flow onto a queue so one flow always
	// lands in one ring (ordering per flow is the ring's FIFO). The accepted
	// set must stay a prefix of bufs — the caller frees bufs[n:] — so the
	// first frame that doesn't fit ends the call even if other queues still
	// have room.
	n := 0
	for _, b := range bufs {
		q := 0
		if h, ok := flow.RSSHash(b.Bytes()); ok {
			q = int(h % uint32(len(d.txNormal)))
		}
		if d.txNormal[q].Enqueue(bufs[n:n+1]) == 0 {
			break
		}
		n++
	}
	if dropped := len(bufs) - n; dropped > 0 {
		d.TxNormalDrops.Add(uint64(dropped))
	}
	return n
}

// TxQueue enqueues bufs directly onto one normal-channel RSS queue,
// bypassing both the bypass pointer and the RSS hash. It models traffic a
// real NIC would have already hashed — benchmarks and tests use it to place
// load on a specific queue deterministically. Returns the number accepted
// (a prefix of bufs; the caller frees the rest).
func (d *PMD) TxQueue(q int, bufs []*mempool.Buf) int {
	d.txOps.Add(1) // enter critical section (odd)
	n := d.txNormal[q].Enqueue(bufs)
	d.txOps.Add(1) // leave critical section (even)
	if dropped := len(bufs) - n; dropped > 0 {
		d.TxNormalDrops.Add(uint64(dropped))
	}
	return n
}

// NumTxQueues reports how many RSS queues the guest side fans out over.
func (d *PMD) NumTxQueues() int { return len(d.txNormal) }

// --- control plane (driven via the agent's virtio-serial commands) ---------

// AttachTxBypass atomically redirects transmissions to the link's ring.
func (d *PMD) AttachTxBypass(l *Link) {
	d.txBypass.Store(&BypassHalf{Link: l})
}

// AttachRxBypass atomically adds the link's ring to the receive poll set.
func (d *PMD) AttachRxBypass(l *Link) {
	d.rxBypass.Store(&BypassHalf{Link: l})
}

// DetachTxBypass reverts transmissions to the normal channel, returning the
// previously attached link (nil if none).
func (d *PMD) DetachTxBypass() *Link {
	old := d.txBypass.Swap(nil)
	if old == nil {
		return nil
	}
	return old.Link
}

// DetachRxBypass removes the bypass ring from the poll set, returning the
// previously attached link (nil if none).
func (d *PMD) DetachRxBypass() *Link {
	old := d.rxBypass.Swap(nil)
	if old == nil {
		return nil
	}
	return old.Link
}

// TxBypassLink returns the currently attached TX link (nil if none).
func (d *PMD) TxBypassLink() *Link {
	if bh := d.txBypass.Load(); bh != nil {
		return bh.Link
	}
	return nil
}

// RxBypassLink returns the currently attached RX link (nil if none).
func (d *PMD) RxBypassLink() *Link {
	if bh := d.rxBypass.Load(); bh != nil {
		return bh.Link
	}
	return nil
}

// QuiesceRx blocks until any Rx call that began before QuiesceRx was invoked
// has finished. After a Detach*+Quiesce* pair, no datapath code can still
// hold the old bypass pointer.
func (d *PMD) QuiesceRx() { quiesce(&d.rxOps) }

// QuiesceTx is the transmit-side analogue of QuiesceRx.
func (d *PMD) QuiesceTx() { quiesce(&d.txOps) }

func quiesce(ops *atomic.Uint64) {
	start := ops.Load()
	if start%2 == 0 {
		return // idle: no critical section in flight
	}
	for {
		runtime.Gosched()
		// Either the lcore left the critical section (even) or it already
		// entered a new one (changed) — a new section observes the swapped
		// pointers, so both cases mean the grace period has elapsed.
		if v := ops.Load(); v%2 == 0 || v != start {
			return
		}
	}
}
