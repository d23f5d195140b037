package ring

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewMPMCRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{-4, 0, 1, 5, 12} {
		if _, err := NewMPMC[int](c); err == nil {
			t.Errorf("capacity %d: want error, got nil", c)
		}
	}
	m, err := NewMPMC[int](8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cap() != 8 {
		t.Errorf("Cap() = %d, want 8", m.Cap())
	}
}

func TestMustMPMCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustMPMC(0) did not panic")
		}
	}()
	MustMPMC[int](0)
}

func TestMPMCFIFOSingleThreaded(t *testing.T) {
	m := MustMPMC[int](8)
	for i := 0; i < 8; i++ {
		if !m.TryEnqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if m.TryEnqueue(8) {
		t.Fatal("enqueue succeeded on full ring")
	}
	for i := 0; i < 8; i++ {
		v, ok := m.TryDequeue()
		if !ok || v != i {
			t.Fatalf("dequeue = %d,%v; want %d,true", v, ok, i)
		}
	}
	if _, ok := m.TryDequeue(); ok {
		t.Fatal("dequeue succeeded on empty ring")
	}
}

func TestMPMCWraparound(t *testing.T) {
	m := MustMPMC[int](4)
	for i := 0; i < 1000; i++ {
		if !m.TryEnqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
		v, ok := m.TryDequeue()
		if !ok || v != i {
			t.Fatalf("dequeue = %d,%v; want %d", v, ok, i)
		}
	}
}

func TestMPMCBatchOps(t *testing.T) {
	m := MustMPMC[int](8)
	n := m.Enqueue([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if n != 8 {
		t.Fatalf("Enqueue = %d, want 8", n)
	}
	out := make([]int, 16)
	n = m.Dequeue(out)
	if n != 8 {
		t.Fatalf("Dequeue = %d, want 8", n)
	}
	for i := 0; i < 8; i++ {
		if out[i] != i+1 {
			t.Errorf("out[%d] = %d, want %d", i, out[i], i+1)
		}
	}
}

// TestMPMCConcurrentNoLossNoDup pushes a known multiset through the ring from
// several producers to several consumers and verifies every element arrives
// exactly once.
func TestMPMCConcurrentNoLossNoDup(t *testing.T) {
	const (
		producers = 4
		consumers = 4
	)
	perProd := soakN(50000)
	m := MustMPMC[int](256)
	var wg sync.WaitGroup
	results := make(chan []int, consumers)
	var remaining sync.WaitGroup

	remaining.Add(producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer remaining.Done()
			for i := 0; i < perProd; i++ {
				v := p*perProd + i
				for !m.TryEnqueue(v) {
					runtime.Gosched()
				}
			}
		}(p)
	}

	done := make(chan struct{})
	go func() {
		remaining.Wait()
		close(done)
	}()

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []int
			for {
				v, ok := m.TryDequeue()
				if ok {
					got = append(got, v)
					continue
				}
				select {
				case <-done:
					// Producers finished; drain whatever is left.
					if v, ok := m.TryDequeue(); ok {
						got = append(got, v)
						continue
					}
					results <- got
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	close(results)

	var all []int
	for g := range results {
		all = append(all, g...)
	}
	if len(all) != producers*perProd {
		t.Fatalf("received %d elements, want %d", len(all), producers*perProd)
	}
	sort.Ints(all)
	for i, v := range all {
		if v != i {
			t.Fatalf("all[%d] = %d (lost or duplicated element)", i, v)
		}
	}
}

// TestMPMCPerProducerOrder checks that elements from a single producer are
// consumed in that producer's order (FIFO per producer) when one consumer
// drains the ring.
func TestMPMCPerProducerOrder(t *testing.T) {
	perProd := soakN(20000)
	m := MustMPMC[[2]int](128)
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for !m.TryEnqueue([2]int{p, i}) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	go func() { wg.Wait() }()

	lastSeen := map[int]int{0: -1, 1: -1, 2: -1}
	for count := 0; count < 3*perProd; {
		v, ok := m.TryDequeue()
		if !ok {
			runtime.Gosched()
			continue
		}
		p, i := v[0], v[1]
		if i != lastSeen[p]+1 {
			t.Fatalf("producer %d: saw %d after %d", p, i, lastSeen[p])
		}
		lastSeen[p] = i
		count++
	}
	wg.Wait()
}

// TestMPMCBulkConcurrent drives the bulk paths from several producers and
// consumers at once with random burst sizes 1..64 (some larger than what the
// ring has room for, so partial reservations happen): every element must
// arrive exactly once, and each consumer must see any one producer's elements
// in that producer's order — a consumer's successive reservations only move
// forward in the ring, as do a producer's.
func TestMPMCBulkConcurrent(t *testing.T) {
	const (
		producers = 3
		consumers = 3
	)
	perProd := soakN(60000)
	m := MustMPMC[[2]int](128)
	var produced sync.WaitGroup
	var left atomic.Int64 // elements not yet dequeued
	left.Store(int64(producers * perProd))
	for p := 0; p < producers; p++ {
		produced.Add(1)
		go func(p int) {
			defer produced.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			burst := make([][2]int, 64)
			for next := 0; next < perProd; {
				k := min(1+rng.Intn(64), perProd-next)
				for i := 0; i < k; i++ {
					burst[i] = [2]int{p, next + i}
				}
				n := m.Enqueue(burst[:k])
				if n == 0 {
					runtime.Gosched()
				}
				next += n
			}
		}(p)
	}
	got := make([][][2]int, consumers)
	var consumed sync.WaitGroup
	for c := 0; c < consumers; c++ {
		consumed.Add(1)
		go func(c int) {
			defer consumed.Done()
			rng := rand.New(rand.NewSource(int64(c) + 100))
			out := make([][2]int, 64)
			for left.Load() > 0 {
				n := m.Dequeue(out[:1+rng.Intn(64)])
				if n == 0 {
					runtime.Gosched()
					continue
				}
				left.Add(-int64(n))
				got[c] = append(got[c], out[:n]...)
			}
		}(c)
	}
	produced.Wait()
	consumed.Wait()

	seen := make([][]bool, producers)
	for p := range seen {
		seen[p] = make([]bool, perProd)
	}
	total := 0
	for c, vs := range got {
		last := [producers]int{}
		for p := range last {
			last[p] = -1
		}
		for _, v := range vs {
			p, i := v[0], v[1]
			if i <= last[p] {
				t.Fatalf("consumer %d: producer %d element %d after %d", c, p, i, last[p])
			}
			last[p] = i
			if seen[p][i] {
				t.Fatalf("producer %d element %d delivered twice", p, i)
			}
			seen[p][i] = true
		}
		total += len(vs)
	}
	if total != producers*perProd {
		t.Fatalf("received %d elements, want %d", total, producers*perProd)
	}
	if m.Len() != 0 {
		t.Fatalf("Len() = %d after draining", m.Len())
	}
}

// TestMPMCWraparoundCap2 pushes bulk operations across the index wrap of the
// smallest legal ring, where every second operation straddles the end of the
// slot array.
func TestMPMCWraparoundCap2(t *testing.T) {
	m := MustMPMC[int](2)
	out := make([]int, 2)
	if !m.TryEnqueue(-1) { // misalign: bursts of 2 now wrap
		t.Fatal("enqueue on empty ring failed")
	}
	if v, ok := m.TryDequeue(); !ok || v != -1 {
		t.Fatalf("dequeue = %d,%v; want -1,true", v, ok)
	}
	for i := 0; i < 1000; i += 2 {
		if n := m.Enqueue([]int{i, i + 1}); n != 2 {
			t.Fatalf("Enqueue at %d = %d, want 2", i, n)
		}
		if m.TryEnqueue(0) {
			t.Fatalf("enqueue at %d succeeded on a full ring", i)
		}
		if n := m.Dequeue(out); n != 2 || out[0] != i || out[1] != i+1 {
			t.Fatalf("Dequeue at %d = %d %v, want 2 [%d %d]", i, n, out, i, i+1)
		}
		if _, ok := m.TryDequeue(); ok {
			t.Fatalf("dequeue at %d succeeded on an empty ring", i)
		}
	}
}

// TestMPMCPartialBulkBoundaries checks the bulk operations at the full and
// empty boundaries: a burst larger than the free room queues exactly the
// prefix that fits, one larger than the content dequeues exactly what is
// there, and neither disturbs order or the count.
func TestMPMCPartialBulkBoundaries(t *testing.T) {
	m := MustMPMC[int](8)
	if n := m.Dequeue(make([]int, 4)); n != 0 {
		t.Fatalf("Dequeue on empty = %d, want 0", n)
	}
	if n := m.Enqueue(nil); n != 0 {
		t.Fatalf("Enqueue(nil) = %d, want 0", n)
	}
	if n := m.Enqueue([]int{0, 1, 2, 3, 4}); n != 5 {
		t.Fatalf("Enqueue = %d, want 5", n)
	}
	if n := m.Enqueue([]int{5, 6, 7, 8, 9}); n != 3 { // room for 3 of 5
		t.Fatalf("Enqueue into 3 free slots = %d, want 3", n)
	}
	if m.Len() != 8 {
		t.Fatalf("Len() = %d, want 8", m.Len())
	}
	if n := m.Enqueue([]int{99}); n != 0 {
		t.Fatalf("Enqueue on full = %d, want 0", n)
	}
	out := make([]int, 6)
	if n := m.Dequeue(out); n != 6 {
		t.Fatalf("Dequeue = %d, want 6", n)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	// Two left; ask for six. The refill that follows wraps the slot array.
	if n := m.Dequeue(out); n != 2 || out[0] != 6 || out[1] != 7 {
		t.Fatalf("Dequeue of the last 2 = %d %v", n, out[:2])
	}
	if n := m.Enqueue([]int{10, 11, 12, 13, 14, 15, 16, 17, 18}); n != 8 {
		t.Fatalf("Enqueue of 9 into an empty ring of 8 = %d, want 8", n)
	}
	big := make([]int, 16)
	if n := m.Dequeue(big); n != 8 {
		t.Fatalf("Dequeue = %d, want 8", n)
	}
	for i, v := range big[:8] {
		if v != 10+i {
			t.Fatalf("big[%d] = %d, want %d", i, v, 10+i)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", m.Len())
	}
}

func TestMPMCQuickModel(t *testing.T) {
	f := func(ops []uint8) bool {
		m := MustMPMC[int](8)
		var model []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				ok := m.TryEnqueue(next)
				if ok != (len(model) < 8) {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := m.TryDequeue()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if m.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickN(500)}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMPMCSingle(b *testing.B) {
	m := MustMPMC[int](1024)
	for i := 0; i < b.N; i++ {
		m.TryEnqueue(i)
		m.TryDequeue()
	}
}

func BenchmarkMPMCContended(b *testing.B) {
	m := MustMPMC[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !m.TryEnqueue(1) {
				m.TryDequeue()
			} else {
				m.TryDequeue()
			}
		}
	})
}
