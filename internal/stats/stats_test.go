package stats

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBlockAccounting(t *testing.T) {
	var b Block
	b.AccountTx(10, 640)
	b.AccountRx(8, 512)
	b.TxDrops.Add(2)
	s := b.Read()
	if s.TxPackets != 10 || s.TxBytes != 640 || s.RxPackets != 8 || s.RxBytes != 512 || s.TxDrops != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestBlockConcurrentWriters(t *testing.T) {
	var b Block
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				b.AccountTx(1, 64)
			}
		}()
	}
	wg.Wait()
	if s := b.Read(); s.TxPackets != 80000 || s.TxBytes != 80000*64 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h LatencyHist
	// 90 samples at ~1µs, 10 at ~1ms.
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < time.Microsecond || p50 > 4*time.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < time.Millisecond || p99 > 4*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	mean := h.Mean()
	// mean ≈ (90*1µs + 10*1ms)/100 ≈ 100.9µs
	if mean < 50*time.Microsecond || mean > 200*time.Microsecond {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistEmptyAndReset(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistBucketEdges(t *testing.T) {
	var h LatencyHist
	h.Observe(0)            // clamps to bucket 0
	h.Observe(-time.Second) // negative: clamps to bucket 0, not counted in sum
	h.Observe(time.Duration(1) << 62)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	// Quantile of the huge sample must not overflow into nonsense.
	if q := h.Quantile(1.0); q <= 0 {
		t.Fatalf("q100 = %v", q)
	}
}

// TestBucketForBoundaries pins the log₂ bucket index at every edge: bucket
// k holds [2ᵏ, 2ᵏ⁺¹) ns, non-positive durations clamp to bucket 0, and the
// largest Duration lands in bucket 62, inside the array.
func TestBucketForBoundaries(t *testing.T) {
	cases := map[time.Duration]int{
		-time.Second: 0, 0: 0, 1: 0, 2: 1, 3: 1, 4: 2,
		math.MaxInt64: histBuckets - 2,
	}
	for k := 3; k < 63; k++ {
		cases[time.Duration(1)<<k-1] = k - 1
		cases[time.Duration(1)<<k] = k
	}
	for d, want := range cases {
		if got := bucketFor(d); got != want {
			t.Errorf("bucketFor(%d ns) = %d, want %d", d.Nanoseconds(), got, want)
		}
	}
}

func TestHistConcurrent(t *testing.T) {
	var h LatencyHist
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 40000 {
		t.Fatalf("count = %d", h.Count())
	}
}
