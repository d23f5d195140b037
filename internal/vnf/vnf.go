// Package vnf provides the DPDK-application framework the guest network
// functions are built on, plus the stock VNFs used in the paper's
// experiments and examples: a port-to-port forwarder, a firewall, a traffic
// monitor, and source/sink generators.
//
// An App is the equivalent of a single-core DPDK app: one goroutine polling
// its ports in a run-to-completion loop. Thanks to the PMD's transparency,
// exactly the same App binary-logic runs whether its traffic crosses the
// vSwitch or a direct bypass channel — the paper's headline property.
package vnf

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"ovshighway/internal/dpdkr"
	"ovshighway/internal/mempool"
)

// Handler processes one received burst. bufs are owned by the handler: every
// buffer must be either transmitted via ctx.Tx or freed.
type Handler func(ctx *Ctx, inPort int, bufs []*mempool.Buf)

// Ctx is the per-App view handlers operate through. Everything it frees goes
// into the lcore goroutine's buffer cache, which the run loop flushes when
// idle and on exit.
type Ctx struct {
	app   *App
	cache *mempool.Cache
	batch []*mempool.Buf // the receive burst
	// rejects collects the buffers the running handler call has Rejected.
	rejects []*mempool.Buf
	// blocked records that a Tx since the run loop last looked found its ring
	// full: the loop yields so the consumer that would drain it can run.
	blocked bool
}

// Tx transmits bufs on the app's out-th port, freeing whatever the ring
// rejects and counting it as a drop.
func (c *Ctx) Tx(out int, bufs []*mempool.Buf) {
	pmd := c.app.pmds[out]
	n := pmd.Tx(bufs)
	if n < len(bufs) {
		c.cache.FreeBatch(bufs[n:])
		c.blocked = true
	}
	c.app.TxPackets.Add(uint64(n))
	c.app.TxDrops.Add(uint64(len(bufs) - n))
}

// Drop frees all bufs in one batched free, counting them as intentional
// drops.
func (c *Ctx) Drop(bufs []*mempool.Buf) {
	c.cache.FreeBatch(bufs)
	c.app.Dropped.Add(uint64(len(bufs)))
}

// Reject is Drop for a handler that filters its burst packet by packet: b is
// set aside, and when the handler returns the run loop Drops everything it
// rejected in one batch.
func (c *Ctx) Reject(b *mempool.Buf) { c.rejects = append(c.rejects, b) }

// Pool returns the app's buffer pool (for handlers that synthesize packets).
func (c *Ctx) Pool() *mempool.Pool { return c.app.pool }

// lcore is the goroutine lifecycle every VNF shares: built stopped, started
// once by whoever deploys it (traffic endpoints only after the last steering
// rule is in), stopped once.
type lcore struct {
	stop, started atomic.Bool
	done          chan struct{}
}

// start launches loop as the lcore goroutine.
func (l *lcore) start(loop func()) {
	l.done = make(chan struct{})
	l.started.Store(true)
	go func() {
		defer close(l.done)
		loop()
	}()
}

// Stop halts the loop and waits for it to exit (a never-started one has
// nothing to wait for).
func (l *lcore) Stop() {
	if l.stop.CompareAndSwap(false, true) && l.started.Load() {
		<-l.done
	}
}

// App is one VNF instance: a set of dpdkr ports driven by a single lcore
// goroutine.
type App struct {
	Name string

	pmds    []*dpdkr.PMD
	pool    *mempool.Pool
	batch   int
	handler Handler
	polled  *Ctx // PollOnce's loop state

	RxPackets atomic.Uint64
	TxPackets atomic.Uint64
	TxDrops   atomic.Uint64
	Dropped   atomic.Uint64

	lcore
}

// Config parametrizes an App.
type Config struct {
	Name    string
	PMDs    []*dpdkr.PMD // the app's ports, in app-local order
	Pool    *mempool.Pool
	Batch   int // default 32
	Handler Handler
}

// New builds a stopped App.
func New(cfg Config) (*App, error) {
	if len(cfg.PMDs) == 0 {
		return nil, fmt.Errorf("vnf %s: no ports", cfg.Name)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("vnf %s: no handler", cfg.Name)
	}
	if cfg.Batch == 0 {
		cfg.Batch = 32
	}
	return &App{
		Name:    cfg.Name,
		pmds:    cfg.PMDs,
		pool:    cfg.Pool,
		batch:   cfg.Batch,
		handler: cfg.Handler,
	}, nil
}

// Start launches the lcore goroutine.
func (a *App) Start() { a.start(a.run) }

func (a *App) newCtx() *Ctx {
	return &Ctx{app: a, cache: a.pool.NewCache(), batch: make([]*mempool.Buf, a.batch)}
}

func (a *App) run() {
	ctx := a.newCtx()
	defer ctx.cache.Flush()
	for !a.stop.Load() {
		if ctx.poll() == 0 {
			ctx.cache.Flush()
			runtime.Gosched()
		} else if ctx.blocked {
			ctx.blocked = false
			runtime.Gosched()
		}
	}
}

// poll is one iteration of the lcore loop: a burst off each port, through the
// handler. It returns the packets received.
func (c *Ctx) poll() int {
	a, total := c.app, 0
	for i, pmd := range a.pmds {
		n := pmd.Rx(c.batch)
		if n == 0 {
			continue
		}
		total += n
		a.RxPackets.Add(uint64(n))
		a.handler(c, i, c.batch[:n])
		if len(c.rejects) > 0 {
			c.Drop(c.rejects)
			c.rejects = c.rejects[:0]
		}
	}
	return total
}

// PollOnce runs one iteration of the lcore loop on the calling goroutine and
// returns the packets it received: the handler with no goroutine hand-off,
// for single-goroutine benchmarks and tests (Switch.PollOnce's counterpart).
// It is only for an App that is never started, and only one goroutine may
// call it; an idle iteration flushes the loop's buffer cache.
func (a *App) PollOnce() int {
	if a.started.Load() {
		panic("vnf: PollOnce on a started app")
	}
	if a.polled == nil {
		a.polled = a.newCtx()
	}
	n := a.polled.poll()
	if n == 0 {
		a.polled.cache.Flush()
	}
	return n
}

// --- stock VNFs -------------------------------------------------------------

// ForwardHandler returns the paper's benchmark VNF behaviour: packets
// received on port i are transmitted on the "other" port (0↔1). Apps built
// with it must have exactly two ports.
func ForwardHandler() Handler {
	return func(ctx *Ctx, inPort int, bufs []*mempool.Buf) {
		ctx.Tx(1-inPort, bufs)
	}
}

// NewForwarder builds the chain-element VNF used throughout the evaluation:
// a single-core app that moves packets between its two ports.
func NewForwarder(name string, in, out *dpdkr.PMD, pool *mempool.Pool) (*App, error) {
	return New(Config{
		Name:    name,
		PMDs:    []*dpdkr.PMD{in, out},
		Pool:    pool,
		Handler: ForwardHandler(),
	})
}
