package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of LatencyHist: power-of-two nanosecond
// buckets from 1ns (bucket 0) to ~9.2s (bucket 62), plus an overflow bucket.
const histBuckets = 64

// LatencyHist is a lock-free log₂ latency histogram. Writers call Observe
// concurrently from datapath goroutines; readers take quantiles at any time.
type LatencyHist struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// bucketFor maps a duration to its log₂ bucket index.
func bucketFor(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns <= 0 {
		return 0
	}
	// Len64 ≤ 63 for a positive int64, so the index stays inside histBuckets.
	return bits.Len64(uint64(ns)) - 1
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d time.Duration) {
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	if ns := d.Nanoseconds(); ns > 0 {
		h.sum.Add(uint64(ns))
	}
}

// Count returns the number of samples.
func (h *LatencyHist) Count() uint64 { return h.count.Load() }

// Mean returns the arithmetic mean of the samples.
func (h *LatencyHist) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / c)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the top edge of the bucket containing it. Resolution is a factor of two,
// which is ample for the order-of-magnitude comparisons of experiment E3.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	if want == 0 {
		want = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= want {
			if i >= 62 {
				return time.Duration(math.MaxInt64)
			}
			return time.Duration(int64(1) << uint(i+1))
		}
	}
	return time.Duration(math.MaxInt64)
}

// Reset zeroes the histogram.
func (h *LatencyHist) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}
