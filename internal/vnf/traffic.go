package vnf

import (
	"runtime"
	"sync/atomic"
	"time"

	"ovshighway/internal/dpdkr"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

// Source is a traffic-generating VNF: the first VM of a memory-only chain
// (experiment E1), synthesizing minimum-size frames as fast as the chain
// absorbs them.
type Source struct {
	app    *App
	Sent   atomic.Uint64
	paused atomic.Bool

	port      *dpdkr.PMD
	templates [][]byte
	rate      float64
}

// SetPaused gates generation (stray-receive draining continues). A paused
// source lets a conservation ledger settle: once every in-flight frame has
// landed, Sent equals the downstream sink's Received exactly.
func (s *Source) SetPaused(p bool) { s.paused.Store(p) }

// frameTemplates pre-builds one frame per flow (distinct UDP source ports,
// exercising the EMC with a small flow set as the paper's pktgen does); the
// generators' hot loops only copy.
func frameTemplates(spec pkt.UDPSpec, flows int) ([][]byte, error) {
	if spec.FrameLen == 0 {
		spec.FrameLen = pkt.MinFrame
	}
	templates := make([][]byte, max(flows, 1))
	for i := range templates {
		sp := spec
		sp.SrcPort = spec.SrcPort + uint16(i)
		buf := make([]byte, 2048)
		n, err := pkt.BuildUDP(buf, sp)
		if err != nil {
			return nil, err
		}
		templates[i] = buf[:n]
	}
	return templates, nil
}

// NewSource builds a stopped one-port generator app cycling through flows
// distinct UDP source ports (≥1). ratePps is a packets-per-second budget
// (0 = as fast as the chain absorbs). Pacing is credit-based like the
// SrcSink's: credits accrue with wall time and are capped at a small burst,
// so a stall does not bank an unbounded backlog.
func NewSource(name string, port *dpdkr.PMD, pool *mempool.Pool, spec pkt.UDPSpec, flows int, ratePps float64) (*Source, error) {
	templates, err := frameTemplates(spec, flows)
	if err != nil {
		return nil, err
	}
	handler := func(ctx *Ctx, inPort int, bufs []*mempool.Buf) {
		// A source has no input; it only drains stray receives.
		ctx.Drop(bufs)
	}
	app, err := New(Config{Name: name, PMDs: []*dpdkr.PMD{port}, Pool: pool, Handler: handler})
	if err != nil {
		return nil, err
	}
	return &Source{app: app, port: port, templates: templates, rate: ratePps}, nil
}

// Start launches the generator. It replaces the app's run loop: generators
// push rather than poll.
func (s *Source) Start() { s.app.start(s.run) }

func (s *Source) run() {
	app, port := s.app, s.port
	batch := make([]*mempool.Buf, app.batch)
	cache := app.pool.NewCache()
	defer cache.Flush()
	// idle is every branch below that found nothing to do: hand back what
	// the cache holds before yielding.
	idle := func() {
		if drain(port, cache) == 0 {
			cache.Flush()
			runtime.Gosched()
		}
	}
	next := 0
	credits := 0.0
	last := time.Now()
	for !app.stop.Load() {
		if s.paused.Load() {
			last = time.Now()
			credits = 0
			idle()
			continue
		}
		want := app.batch
		if s.rate > 0 {
			now := time.Now()
			credits += now.Sub(last).Seconds() * s.rate
			last = now
			if cap := float64(2 * app.batch); credits > cap {
				credits = cap
			}
			if credits < 1 {
				idle()
				continue
			}
			if want > int(credits) {
				want = int(credits)
			}
		}
		n := cache.GetBatch(batch[:want])
		if n == 0 {
			// Pool exhausted: the chain is saturated. Yield instead of
			// spinning — on few-core hosts a spinning source starves the
			// consumers whose frees would refill the pool.
			idle()
			continue
		}
		for i := 0; i < n; i++ {
			batch[i].SetBytes(s.templates[next])
			next++
			if next == len(s.templates) {
				next = 0
			}
		}
		sent := port.Tx(batch[:n])
		if sent < n {
			cache.FreeBatch(batch[sent:n])
		}
		s.Sent.Add(uint64(sent))
		if s.rate > 0 {
			credits -= float64(sent)
		}
		if sent == 0 {
			// Ring full: back off until the downstream consumer runs.
			idle()
		}
	}
}

// drain consumes and discards anything arriving at a generator port (e.g.
// reverse-direction traffic in a misconfigured graph) so rings cannot jam.
func drain(pmd *dpdkr.PMD, cache *mempool.Cache) int {
	var scratch [8]*mempool.Buf
	n := pmd.Rx(scratch[:])
	cache.FreeBatch(scratch[:n])
	return n
}

// Stop halts the generator.
func (s *Source) Stop() { s.app.Stop() }

// Sink is a traffic-terminating VNF: the last VM of a memory-only chain.
// It counts and frees everything it receives, and computes receive rate.
type Sink struct {
	app      *App
	Received atomic.Uint64
	Bytes    atomic.Uint64
	start    time.Time
}

// NewSink builds a stopped one-port sink app.
func NewSink(name string, port *dpdkr.PMD, pool *mempool.Pool) (*Sink, error) {
	s := &Sink{start: time.Now()}
	handler := func(ctx *Ctx, inPort int, bufs []*mempool.Buf) {
		var bytes uint64
		for _, b := range bufs {
			bytes += uint64(b.Len)
		}
		s.Received.Add(uint64(len(bufs)))
		s.Bytes.Add(bytes)
		ctx.Drop(bufs)
	}
	app, err := New(Config{Name: name, PMDs: []*dpdkr.PMD{port}, Pool: pool, Handler: handler})
	if err != nil {
		return nil, err
	}
	s.app = app
	return s, nil
}

// Start launches the sink.
func (s *Sink) Start() { s.app.Start() }

// Stop halts the sink.
func (s *Sink) Stop() { s.app.Stop() }

// ResetWindow zeroes the counters and restarts the measurement clock.
func (s *Sink) ResetWindow() {
	s.Received.Store(0)
	s.Bytes.Store(0)
	s.start = time.Now()
}

// RatePps returns packets per second since the window start.
func (s *Sink) RatePps() float64 {
	el := time.Since(s.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(s.Received.Load()) / el
}
