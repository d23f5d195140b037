// Package mempool provides preallocated packet-buffer pools, the stand-in for
// DPDK's hugepage-backed mbuf mempools. All buffers are carved out of one
// arena at construction time; allocation and free never touch the Go
// allocator. The shared freelist is a bulk-reserve ring (one CAS per burst);
// datapath goroutines put a single-owner Cache in front of it so their
// steady state is plain loads and stores.
package mempool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"ovshighway/internal/ring"
)

// Default buffer geometry, mirroring typical DPDK mbuf configuration: room
// for a full 1500-byte frame plus headroom for header prepends.
const (
	DefaultBufSize  = 2048
	DefaultHeadroom = 128
)

// Buf is a packet buffer (mbuf equivalent). Data occupies Data[Off:Off+Len]
// within the fixed backing slice; Off leaves headroom so encapsulation
// headers can be prepended without copying the payload.
type Buf struct {
	Data []byte // fixed backing storage, len == pool buffer size
	Off  int    // start of packet data
	Len  int    // length of packet data

	// Port is the ingress port id stamped by the receiving PMD; it feeds
	// the in_port match field of the flow pipeline.
	Port uint32
	// TS is an optional nanosecond timestamp used by latency probes.
	TS int64

	pool *Pool
	// refcnt supports multicast actions (one buffer output to N ports). It is
	// a plain int32, not an atomic.Int32, because the sole owner of a buffer
	// (count 1: fresh off the freelist, or the last reference) writes it with
	// plain stores — no other goroutine can hold the buffer to observe them —
	// and only a shared buffer pays atomic.AddInt32 (rte_pktmbuf_prefree_seg's
	// rule). Every read is atomic.LoadInt32, which costs a plain load.
	refcnt int32
}

// Bytes returns the packet contents as a sub-slice of the backing storage.
func (b *Buf) Bytes() []byte { return b.Data[b.Off : b.Off+b.Len] }

// SetBytes copies p into the buffer at the default headroom offset.
// It fails if p exceeds the buffer capacity beyond the headroom.
func (b *Buf) SetBytes(p []byte) error {
	if len(p) > len(b.Data)-b.pool.headroom {
		return fmt.Errorf("mempool: payload %d exceeds buffer room %d", len(p), len(b.Data)-b.pool.headroom)
	}
	b.Off = b.pool.headroom
	b.Len = copy(b.Data[b.Off:], p)
	return nil
}

// Prepend grows the packet head by n bytes into the headroom and returns the
// new head slice, or an error if insufficient headroom remains.
func (b *Buf) Prepend(n int) ([]byte, error) {
	if n > b.Off {
		return nil, fmt.Errorf("mempool: prepend %d exceeds headroom %d", n, b.Off)
	}
	b.Off -= n
	b.Len += n
	return b.Data[b.Off : b.Off+n], nil
}

// Adj trims n bytes from the packet head (e.g. decapsulation).
func (b *Buf) Adj(n int) error {
	if n > b.Len {
		return fmt.Errorf("mempool: adj %d exceeds length %d", n, b.Len)
	}
	b.Off += n
	b.Len -= n
	return nil
}

// Clone increments the reference count and returns b, so the same payload
// can be enqueued to multiple destinations. Each destination must Free it.
func (b *Buf) Clone() *Buf {
	atomic.AddInt32(&b.refcnt, 1)
	return b
}

// Refcnt returns the current reference count (1 for a freshly allocated buf).
func (b *Buf) Refcnt() int { return int(atomic.LoadInt32(&b.refcnt)) }

// release drops one reference and reports whether it was the last, in which
// case the caller must hand b back to b.pool (release has already checked
// that pool really allocated it). Every free path — Free, FreeBatch,
// Cache.FreeBatch — goes through here, so over-freeing panics everywhere: a
// freed buffer's count is 0, and one more release takes it to -1. That is a
// use-after-free style bug we want loud.
func (b *Buf) release() bool {
	if atomic.LoadInt32(&b.refcnt) == 1 {
		b.refcnt = 0 // sole owner
	} else if n := atomic.AddInt32(&b.refcnt, -1); n > 0 {
		return false
	} else if n < 0 {
		panic("mempool: double free")
	}
	b.pool.guardOwnership(b)
	return true
}

// Free returns the buffer to its pool once all references are dropped.
// Freeing a buffer more times than it was referenced panics.
func (b *Buf) Free() {
	if b.release() {
		b.pool.putOne(b)
	}
}

// Pool is a fixed-population buffer pool.
type Pool struct {
	free     *ring.MPMC[*Buf]
	bufSize  int
	headroom int
	capacity int

	// arenaLo/arenaHi bound the pool's backing arena. Every buffer this pool
	// allocated has its storage inside these bounds; the freelist uses them
	// to reject foreign buffers (see Owns).
	arenaLo uintptr
	arenaHi uintptr

	// The counters sit on their own cache line: every allocation and free
	// reads the fields above, and a counter add on another core must not
	// keep invalidating them.
	_      [64]byte
	allocs atomic.Uint64
	frees  atomic.Uint64
	fails  atomic.Uint64
}

// ErrExhausted is returned by Get when no buffers are available.
var ErrExhausted = errors.New("mempool: exhausted")

// Config parametrizes New. Zero fields take defaults.
type Config struct {
	Capacity int // number of buffers; rounded up to a power of two
	BufSize  int // backing size of each buffer
	Headroom int // initial data offset
}

// New builds a pool with cfg.Capacity preallocated buffers.
func New(cfg Config) (*Pool, error) {
	if cfg.Capacity <= 0 {
		return nil, errors.New("mempool: capacity must be positive")
	}
	if cfg.BufSize == 0 {
		cfg.BufSize = DefaultBufSize
	}
	if cfg.Headroom == 0 {
		cfg.Headroom = DefaultHeadroom
	}
	if cfg.Headroom >= cfg.BufSize {
		return nil, fmt.Errorf("mempool: headroom %d >= buffer size %d", cfg.Headroom, cfg.BufSize)
	}
	ringCap := 2
	for ringCap < cfg.Capacity+1 {
		ringCap <<= 1
	}
	p := &Pool{
		free:     ring.MustMPMC[*Buf](ringCap),
		bufSize:  cfg.BufSize,
		headroom: cfg.Headroom,
		capacity: cfg.Capacity,
	}
	// One arena allocation for all payload storage: this is the hugepage
	// region equivalent, and it keeps buffers dense in memory.
	arena := make([]byte, cfg.Capacity*cfg.BufSize)
	p.arenaLo = uintptr(unsafe.Pointer(&arena[0]))
	p.arenaHi = p.arenaLo + uintptr(len(arena))
	bufs := make([]Buf, cfg.Capacity)
	ptrs := make([]*Buf, cfg.Capacity)
	for i := range bufs {
		bufs[i].Data = arena[i*cfg.BufSize : (i+1)*cfg.BufSize]
		bufs[i].pool = p
		ptrs[i] = &bufs[i]
	}
	p.free.Enqueue(ptrs)
	return p, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Pool {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Cap returns the total buffer population.
func (p *Pool) Cap() int { return p.capacity }

// Avail returns the instantaneous number of buffers on the shared freelist.
// Buffers stashed in a Cache are not on it until the cache flushes.
func (p *Pool) Avail() int { return p.free.Len() }

// Headroom returns the configured data offset for fresh buffers.
func (p *Pool) Headroom() int { return p.headroom }

// reset returns the buffer to its freshly-allocated state (refcount 1, no
// metadata, data offset at the pool headroom). The caller is the buffer's
// sole owner, so the count is a plain store.
func (b *Buf) reset(headroom int) {
	b.Off = headroom
	b.Len = 0
	b.Port = 0
	b.TS = 0
	b.refcnt = 1
}

// Get allocates one buffer with refcount 1, or ErrExhausted.
func (p *Pool) Get() (*Buf, error) {
	var one [1]*Buf
	if p.GetBatch(one[:]) == 0 {
		return nil, ErrExhausted
	}
	return one[0], nil
}

// GetBatch fills out with up to len(out) fresh buffers in one bulk ring
// dequeue, returning the count.
func (p *Pool) GetBatch(out []*Buf) int {
	n := p.free.Dequeue(out)
	p.allocs.Add(uint64(n))
	p.fresh(out, n)
	return n
}

// fresh finishes an allocation of out[:n] for a caller that asked for
// len(out): the buffers are reset, and coming up short is one fail. Counting
// fails here, against what the caller asked for, keeps a Cache refill that
// asks the ring for more than its caller needs from inflating them.
func (p *Pool) fresh(out []*Buf, n int) {
	for _, b := range out[:n] {
		b.reset(p.headroom)
	}
	if n < len(out) {
		p.fails.Add(1)
	}
}

// Owns reports whether b was allocated by this pool, by checking that its
// backing storage lies inside the pool arena. With per-node pools connected
// by wires, a buffer migrated across nodes without re-homing would otherwise
// land on a foreign freelist and silently corrupt both populations.
func (p *Pool) Owns(b *Buf) bool {
	if b == nil || len(b.Data) == 0 {
		return false
	}
	addr := uintptr(unsafe.Pointer(&b.Data[0]))
	return addr >= p.arenaLo && addr < p.arenaHi
}

// guardOwnership panics when a buffer reaches a freelist that did not
// allocate it — a use-after-migrate bug we want loud, exactly like double
// frees.
func (p *Pool) guardOwnership(b *Buf) {
	if !p.Owns(b) {
		panic("mempool: buffer returned to a pool that did not allocate it")
	}
}

// put counts released buffers as freed and returns them to the freelist.
func (p *Pool) put(bufs []*Buf) {
	p.frees.Add(uint64(len(bufs)))
	p.enqueue(bufs)
}

// putOne is put for a single buffer.
func (p *Pool) putOne(b *Buf) {
	one := [1]*Buf{b}
	p.put(one[:])
}

// enqueue returns released (count 0, ownership checked) buffers to the
// freelist in one bulk ring enqueue. The ring is sized above the buffer
// population and every slot between its consumer tail and producer head
// stands for a distinct buffer no caller holds, so the enqueue can never come
// up short — not even transiently. What it can do is wait: a producer
// descheduled between reserving its slots and publishing them stalls the
// publish of every later enqueue (ring.MPMC yields until the predecessor
// runs), and until then Avail and GetBatch under-report by the unpublished
// runs.
func (p *Pool) enqueue(bufs []*Buf) {
	if p.free.Enqueue(bufs) != len(bufs) {
		panic("mempool: freelist overflow")
	}
}

// FreeBatch drops one reference on every non-nil buffer and returns those
// reaching zero to their pools in bulk ring operations — the batch analogue
// of calling Free in a loop on an RX burst. It compacts in place: the
// contents of bufs are unspecified afterwards. Over-freeing panics exactly
// as Free does.
func FreeBatch(bufs []*Buf) {
	var pool *Pool
	k := 0
	for _, b := range bufs {
		if b == nil || !b.release() {
			continue
		}
		// Runs of same-pool buffers flush together; a pool change flushes the
		// pending run first (multi-pool batches are rare but legal).
		if b.pool != pool {
			if k > 0 {
				pool.put(bufs[:k])
				k = 0
			}
			pool = b.pool
		}
		bufs[k] = b // k never exceeds the read index, so this is safe
		k++
	}
	if k > 0 {
		pool.put(bufs[:k])
	}
}

// Stats reports cumulative allocation counters: buffers handed to callers,
// buffers callers gave back, and requests that came up short. Allocs and
// Frees made through a Cache are added when that cache next touches the
// shared ring (refill, spill, Flush), so Allocs-Frees == Cap-Avail holds
// whenever every cache is flushed.
type Stats struct {
	Allocs, Frees, Fails uint64
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{Allocs: p.allocs.Load(), Frees: p.frees.Load(), Fails: p.fails.Load()}
}
