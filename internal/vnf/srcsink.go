package vnf

import (
	"runtime"
	"sync/atomic"
	"time"

	"ovshighway/internal/dpdkr"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
	"ovshighway/internal/stats"
)

// SrcSink is a combined traffic endpoint: it generates frames on its single
// port and terminates whatever arrives, which is exactly the role of the
// first and last VM in the paper's bidirectional chain experiments. With
// Timestamp enabled it stamps each generated frame's buffer and feeds the
// one-way latency of received stamped frames into a histogram (experiment
// E3).
type SrcSink struct {
	Name string

	pmd  *dpdkr.PMD
	pool *mempool.Pool

	Sent     atomic.Uint64
	Received atomic.Uint64
	RxBytes  atomic.Uint64
	Lat      stats.LatencyHist

	timestamp bool
	rate      float64      // generation cap in pps (0 = unpaced)
	start     atomic.Int64 // window start, UnixNano

	// paused gates generation only: a paused endpoint keeps terminating
	// arrivals, so callers can drain the pipeline to a known-empty state and
	// take exact Sent/Received accounting snapshots (the migration
	// experiment's zero-loss bookkeeping).
	paused atomic.Bool

	templates [][]byte
	batch     int

	lcore
}

// SrcSinkConfig parametrizes NewSrcSink.
type SrcSinkConfig struct {
	Name      string
	PMD       *dpdkr.PMD
	Pool      *mempool.Pool
	Spec      pkt.UDPSpec
	Flows     int  // distinct UDP source ports to cycle (default 1)
	Timestamp bool // stamp generated frames and record one-way latency
	Batch     int  // default 32
	// RatePps caps the generation rate (0 = generate as fast as the pool and
	// ring allow). A paced endpoint below the chain's capacity reaches a
	// lossless steady state, which is what exact end-to-end packet accounting
	// (the migration experiment) needs.
	RatePps float64
}

// NewSrcSink builds a stopped bidirectional endpoint.
func NewSrcSink(cfg SrcSinkConfig) (*SrcSink, error) {
	if cfg.Batch == 0 {
		cfg.Batch = 32
	}
	templates, err := frameTemplates(cfg.Spec, cfg.Flows)
	if err != nil {
		return nil, err
	}
	s := &SrcSink{
		Name:      cfg.Name,
		pmd:       cfg.PMD,
		pool:      cfg.Pool,
		timestamp: cfg.Timestamp,
		rate:      cfg.RatePps,
		templates: templates,
		batch:     cfg.Batch,
	}
	s.start.Store(time.Now().UnixNano())
	return s, nil
}

// Start launches the endpoint: generation and termination begin together.
func (s *SrcSink) Start() { s.lcore.start(s.run) }

func (s *SrcSink) run() {
	templates, batchSize := s.templates, s.batch
	txBatch := make([]*mempool.Buf, batchSize)
	rxBatch := make([]*mempool.Buf, batchSize)
	// In a bidirectional chain what this end terminates feeds what it
	// generates, so the cache keeps both off the shared freelist.
	cache := s.pool.NewCache()
	defer cache.Flush()
	next := 0
	// credit is the paced-mode generation budget, topped up by wall time.
	// The burst cap (two batches) bounds how hard a starved endpoint slams
	// the ring when credit accumulates during a stall.
	var credit float64
	lastTick := time.Now()
	for !s.stop.Load() {
		// work tracks whether this pass moved any packet; an endpoint that is
		// pool-starved or ring-blocked must yield instead of burning its
		// scheduling quantum generating frames that tail-drop immediately
		// (essential on few-core hosts, where a spinning source starves the
		// very consumers that would relieve it).
		work := false
		// Generate.
		want := batchSize
		if s.paused.Load() {
			want = 0
		} else if s.rate > 0 {
			now := time.Now()
			credit += now.Sub(lastTick).Seconds() * s.rate
			lastTick = now
			if max := float64(2 * batchSize); credit > max {
				credit = max
			}
			if want = int(credit); want > batchSize {
				want = batchSize
			}
		}
		n := 0
		if want > 0 {
			n = cache.GetBatch(txBatch[:want])
		}
		if n > 0 {
			var now int64
			if s.timestamp {
				now = time.Now().UnixNano()
			}
			for i := 0; i < n; i++ {
				txBatch[i].SetBytes(templates[next])
				txBatch[i].TS = now
				next++
				if next == len(templates) {
					next = 0
				}
			}
			sent := s.pmd.Tx(txBatch[:n])
			if sent < n {
				cache.FreeBatch(txBatch[sent:n])
			}
			if s.rate > 0 {
				credit -= float64(n)
			}
			s.Sent.Add(uint64(sent))
			if sent > 0 {
				work = true
			}
		}
		// Terminate: account first, then free the burst in one batch.
		k := s.pmd.Rx(rxBatch)
		if k > 0 {
			var now int64
			if s.timestamp {
				now = time.Now().UnixNano()
			}
			var bytes uint64
			for i := 0; i < k; i++ {
				b := rxBatch[i]
				bytes += uint64(b.Len)
				if s.timestamp && b.TS != 0 {
					s.Lat.Observe(time.Duration(now - b.TS))
				}
			}
			cache.FreeBatch(rxBatch[:k])
			s.Received.Add(uint64(k))
			s.RxBytes.Add(bytes)
			work = true
		}
		if !work {
			cache.Flush()
			runtime.Gosched()
		}
	}
}

// SetPaused gates generation: a paused endpoint stops injecting but keeps
// terminating arrivals, so the chain drains to empty and Sent/Received
// become an exact conservation ledger. Safe to toggle while running.
func (s *SrcSink) SetPaused(p bool) { s.paused.Store(p) }

// InFlight returns Sent - Received: with every peer endpoint paused and the
// pipeline drained, a nonzero residue is packets lost in the fabric.
func (s *SrcSink) InFlight() int64 {
	return int64(s.Sent.Load()) - int64(s.Received.Load())
}

// ResetWindow zeroes the receive counters, latency histogram and rate clock.
func (s *SrcSink) ResetWindow() {
	s.Received.Store(0)
	s.RxBytes.Store(0)
	s.Lat.Reset()
	s.start.Store(time.Now().UnixNano())
}

// RatePps returns the receive rate since the window start.
func (s *SrcSink) RatePps() float64 {
	el := time.Since(time.Unix(0, s.start.Load())).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(s.Received.Load()) / el
}
