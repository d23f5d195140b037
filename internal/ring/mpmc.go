package ring

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// MPMC is a bounded multi-producer multi-consumer lock-free ring in the
// shape of DPDK's rte_ring. Each side has a head and a tail index: one CAS on
// the head reserves a run of slots for a whole burst, the elements move with
// plain copies, and one store of the tail publishes the run to the other
// side — so a burst of n costs two atomic writes, not 2n. Any number of
// goroutines may enqueue and dequeue concurrently. Construct with NewMPMC.
//
// Runs publish in reservation order: a goroutine that reserved after another
// waits (yielding) until that predecessor has stored its tail. A goroutine
// descheduled between its reservation and its publish therefore stalls later
// publishers on its side, and hides its run from the other side, until it
// runs again; nothing is lost or reordered.
type MPMC[T any] struct {
	mask uint64
	buf  []T

	_        pad
	prodHead atomic.Uint64 // next slot a producer may reserve
	prodTail atomic.Uint64 // slots below this are published to consumers
	_        pad
	consHead atomic.Uint64 // next slot a consumer may reserve
	consTail atomic.Uint64 // slots below this are released to producers
	_        pad
}

// NewMPMC returns an MPMC ring with the given capacity, which must be a
// power of two and at least 2.
func NewMPMC[T any](capacity int) (*MPMC[T], error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("ring: capacity %d is not a power of two >= 2", capacity)
	}
	return &MPMC[T]{
		mask: uint64(capacity - 1),
		buf:  make([]T, capacity),
	}, nil
}

// MustMPMC is NewMPMC that panics on an invalid capacity.
func MustMPMC[T any](capacity int) *MPMC[T] {
	m, err := NewMPMC[T](capacity)
	if err != nil {
		panic(err)
	}
	return m
}

// Cap returns the ring capacity.
func (m *MPMC[T]) Cap() int { return len(m.buf) }

// Len returns an instantaneous count of published, unreserved elements; only
// exact at quiescence.
func (m *MPMC[T]) Len() int {
	// consHead first: it never passes prodTail, and prodTail only grows, so
	// the difference cannot go negative.
	head := m.consHead.Load()
	return int(m.prodTail.Load() - head)
}

// Enqueue appends up to len(vs) elements and returns how many were queued.
// It queues a prefix of vs; a partial enqueue happens only when the ring
// fills.
func (m *MPMC[T]) Enqueue(vs []T) int {
	var head, n uint64
	for {
		head = m.prodHead.Load()
		// A head gone stale since the load makes free meaningless (it may
		// even wrap), but then the CAS below fails and the loop re-reads.
		free := uint64(len(m.buf)) - (head - m.consTail.Load())
		if n = uint64(len(vs)); n > free {
			n = free
		}
		if n == 0 {
			return 0
		}
		if m.prodHead.CompareAndSwap(head, head+n) {
			break
		}
	}
	// The run may wrap the end of the slot array: at most two copies.
	k := copy(m.buf[head&m.mask:], vs[:n])
	if uint64(k) < n {
		copy(m.buf, vs[k:n])
	}
	publish(&m.prodTail, head, n)
	return int(n)
}

// Dequeue removes up to len(out) elements into out and returns the count.
func (m *MPMC[T]) Dequeue(out []T) int {
	var head, n uint64
	for {
		head = m.consHead.Load()
		avail := m.prodTail.Load() - head // see Enqueue on a stale head
		if n = uint64(len(out)); n > avail {
			n = avail
		}
		if n == 0 {
			return 0
		}
		if m.consHead.CompareAndSwap(head, head+n) {
			break
		}
	}
	// Move the run out (it may wrap, as in Enqueue) and drop the references
	// so a drained ring pins nothing for the GC.
	run := m.buf[head&m.mask:]
	k := copy(out[:n], run)
	clear(run[:k])
	if uint64(k) < n {
		k = copy(out[k:n], m.buf)
		clear(m.buf[:k])
	}
	publish(&m.consTail, head, n)
	return int(n)
}

// publish moves tail from head to head+n once every earlier reservation on
// the same side has published (see the type comment).
func publish(tail *atomic.Uint64, head, n uint64) {
	for tail.Load() != head {
		runtime.Gosched()
	}
	tail.Store(head + n)
}

// TryEnqueue appends one element, returning false if the ring is full.
func (m *MPMC[T]) TryEnqueue(v T) bool {
	one := [1]T{v}
	return m.Enqueue(one[:]) == 1
}

// TryDequeue removes one element, reporting whether one was available.
func (m *MPMC[T]) TryDequeue() (T, bool) {
	var one [1]T
	ok := m.Dequeue(one[:]) == 1
	return one[0], ok
}
