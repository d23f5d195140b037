package orchestrator

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ovshighway/internal/graph"
)

// This file closes the placement loop. DeployPlaced picks a layout once,
// against the loads of that moment; nothing revisits the decision as load
// drifts, so the cluster stays stuck on its day-one layout. The rebalance
// controller is the revisit: sample loads, re-run the optimizer, diff the
// proposal against reality into a move plan, and execute it as rolling
// zero-loss migrations — one VNF in flight, damped against oscillation,
// deferred while the fabric carries unrepaired faults. The same rolling
// machinery powers Drain, the operator's graceful node decommission.

// RebalanceConfig tunes the placement controller. Zero values take the
// documented defaults.
type RebalanceConfig struct {
	// Interval is the load-sampling/planning period (default 100ms).
	Interval time.Duration
	// MinCrossingGain is the crossing-count reduction a plan must deliver
	// to execute on its own merit (default 1 — any strict improvement).
	MinCrossingGain int
	// MinSpreadGain admits crossing-neutral plans that improve balance: the
	// max-minus-min per-node load spread (VNF-equivalents) must shrink by at
	// least this much (default 1).
	MinSpreadGain float64
	// Cooldown is the per-VNF minimum time between moves. A VNF moved more
	// recently stays pinned to its current node during planning, so
	// oscillating load cannot ping-pong it (default 20×Interval).
	Cooldown time.Duration
}

func (cfg *RebalanceConfig) fill() {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.MinCrossingGain <= 0 {
		cfg.MinCrossingGain = 1
	}
	if cfg.MinSpreadGain <= 0 {
		cfg.MinSpreadGain = 1
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 20 * cfg.Interval
	}
}

// RebalanceMove is one executed (or attempted) rolling move of a plan.
type RebalanceMove struct {
	VNF  string
	From string
	To   string
	// Report is the underlying migration's outcome (zero on error).
	Report MigrateReport
	// Err is the migration failure, if any; the rest of the move's plan was
	// abandoned and the deployment reconciled back to a consistent layout.
	Err error
}

// RebalancerStats is a point-in-time read of the controller's counters.
type RebalancerStats struct {
	Passes   uint64 // planning passes completed
	Deferred uint64 // passes skipped while the fabric carried unrepaired faults
	Damped   uint64 // plans discarded by the hysteresis thresholds
	Moves    uint64 // migrations executed successfully
	Errors   uint64 // migrations that failed (plan abandoned, layout reconciled)
	// MaxInFlight is the highest number of concurrently executing
	// migrations the controller observed on itself; the rolling executor is
	// serial, so anything above 1 is a bug.
	MaxInFlight int32
}

// Rebalancer is the background placement controller. Start it with
// Cluster.StartRebalancer; stop it before stopping the cluster.
type Rebalancer struct {
	c    *Cluster
	cfg  RebalanceConfig
	stop chan struct{}
	done chan struct{}

	passes   atomic.Uint64
	deferred atomic.Uint64
	damped   atomic.Uint64
	movesN   atomic.Uint64
	errsN    atomic.Uint64
	inFlight atomic.Int32
	maxInFl  atomic.Int32

	mu sync.Mutex
	// lastMove is the per-VNF cooldown clock, keyed by deployment cookie +
	// VNF name (names are only unique within a deployment).
	lastMove map[string]time.Time
	// moves logs every executed or attempted move, oldest first.
	moves []RebalanceMove

	// testAfterMove, when set, runs after each executed move with cd.mu and
	// r.mu free; tests use it to trigger mid-plan aborts.
	testAfterMove func(RebalanceMove)
}

// newRebalancer builds a controller without starting its loop; tests drive
// runOnce directly.
func (c *Cluster) newRebalancer(cfg RebalanceConfig) *Rebalancer {
	cfg.fill()
	return &Rebalancer{
		c:        c,
		cfg:      cfg,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		lastMove: make(map[string]time.Time),
	}
}

// StartRebalancer launches the background placement controller. Stop it
// before stopping the cluster or its deployments, or a mid-teardown plan
// may migrate VNFs the teardown is about to destroy.
func (c *Cluster) StartRebalancer(cfg RebalanceConfig) *Rebalancer {
	r := c.newRebalancer(cfg)
	go r.run()
	return r
}

func (r *Rebalancer) run() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.runOnce()
		}
	}
}

// Stop aborts the controller: no new moves start, the move in flight (if
// any) completes, and the call returns once the loop has exited. A plan
// abandoned mid-way is safe — every executed move left a fully converged
// layout, and the reconciler keeps converging whatever remains.
func (r *Rebalancer) Stop() {
	r.requestStop()
	<-r.done
}

// requestStop flips the stop signal without waiting (idempotent).
func (r *Rebalancer) requestStop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
}

// Stats reads the controller's counters.
func (r *Rebalancer) Stats() RebalancerStats {
	return RebalancerStats{
		Passes:      r.passes.Load(),
		Deferred:    r.deferred.Load(),
		Damped:      r.damped.Load(),
		Moves:       r.movesN.Load(),
		Errors:      r.errsN.Load(),
		MaxInFlight: r.maxInFl.Load(),
	}
}

// Moves returns a copy of the controller's move log, oldest first.
func (r *Rebalancer) Moves() []RebalanceMove {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RebalanceMove(nil), r.moves...)
}

// runOnce is one controller pass: sample loads, plan per deployment,
// execute accepted plans as rolling migrations. Returns the number of
// moves executed.
func (r *Rebalancer) runOnce() int {
	defer r.passes.Add(1)
	return r.pass(r.c.NodeLoads())
}

// pass plans and executes against the given load sample (split out so tests
// can inject synthetic loads).
func (r *Rebalancer) pass(loads []float64) int {
	c := r.c
	excluded, anyFailed := c.placementExclusions(true)
	if anyFailed {
		// The fabric carries unrepaired faults: measured loads are skewed
		// by the outage and a migration's fresh lanes could land on the
		// degraded adjacency. Let the reconciler repair first; rebalancing
		// resumes on a clean pass.
		r.deferred.Add(1)
		return 0
	}
	executed := 0
	for _, cd := range c.deploymentsSorted() {
		plan := r.planDeployment(cd, loads, excluded)
		for _, mv := range plan {
			select {
			case <-r.stop:
				return executed
			default:
			}
			// Re-validate against faults that appeared while earlier moves
			// of the plan ran: the remaining proposal was computed against
			// a world that no longer exists, so abandon it — the next pass
			// replans against reality.
			if exclNow, failedNow := c.placementExclusions(true); failedNow || exclNow[c.nodeIndex(mv.to)] {
				return executed
			}
			if !r.executeMove(cd, mv) {
				break
			}
			executed++
		}
	}
	return executed
}

// plannedMove is one entry of a deployment's accepted plan.
type plannedMove struct {
	vnf, from, to string
}

// planDeployment re-runs placement for one deployment against current
// loads and diffs the proposal into a move plan. Returns nil when the
// deployment is busy, the proposal is a no-op, or the improvement does not
// clear the damping thresholds.
func (r *Rebalancer) planDeployment(cd *ClusterDeployment, loads []float64, excluded []bool) []plannedMove {
	c := r.c
	cd.mu.Lock()
	if cd.stopped || cd.migrating != "" {
		cd.mu.Unlock()
		return nil
	}
	// Plan on a scratch copy: PlaceWith writes node assignments, and the
	// live graph must not change unless a migration commits it.
	scratch := &graph.Graph{
		VNFs:  append([]graph.VNF(nil), cd.graph.VNFs...),
		Edges: cd.graph.Edges,
	}
	spines := cd.spines
	instantiated := make(map[string]bool)
	for _, d := range cd.deps {
		for _, in := range d.insts {
			instantiated[in.name] = true
		}
	}
	cd.mu.Unlock()

	nicNodes := c.nicNodes()
	curCross := scratch.Crossings(c.DefaultNode(), nicNodes)

	// Unpin the movable VNFs: running two-port middles not under cooldown.
	// Everything else (endpoints, cooling-down VNFs) stays pinned where it
	// is, so the optimizer plans around it.
	now := time.Now()
	movable := make(map[string]string)
	r.mu.Lock()
	for i := range scratch.VNFs {
		v := &scratch.VNFs[i]
		if v.Kind.PortCount() != 2 || v.Node == "" || !instantiated[v.Name] {
			continue
		}
		if last, ok := r.lastMove[moveKey(cd, v.Name)]; ok && now.Sub(last) < r.cfg.Cooldown {
			continue
		}
		movable[v.Name] = v.Node
		v.Node = ""
	}
	r.mu.Unlock()
	if len(movable) == 0 {
		return nil
	}

	propCross, err := scratch.PlaceWith(c.order, nicNodes, c.placeOptions(loads, spines, excluded))
	if err != nil {
		r.errsN.Add(1)
		return nil
	}
	var plan []plannedMove
	proj := append([]float64(nil), loads...)
	for _, v := range scratch.VNFs {
		from, ok := movable[v.Name]
		if !ok || v.Node == from {
			continue
		}
		plan = append(plan, plannedMove{vnf: v.Name, from: from, to: v.Node})
		proj[c.nodeIndex(from)]--
		proj[c.nodeIndex(v.Node)]++
	}
	if len(plan) == 0 {
		return nil
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].vnf < plan[j].vnf })

	// Hysteresis: a plan executes only for a real crossing reduction, or
	// for a crossing-neutral balance improvement above the spread
	// threshold. Everything weaker is damped — each move costs a drain
	// window of double-steering, and acting on noise ping-pongs VNFs.
	gain := curCross - propCross
	if gain < r.cfg.MinCrossingGain {
		if gain < 0 || loadSpread(loads, excluded)-loadSpread(proj, excluded) < r.cfg.MinSpreadGain {
			r.damped.Add(1)
			return nil
		}
	}
	return plan
}

// executeMove runs one rolling migration and logs the outcome. Returns
// false when the move failed and the rest of its plan must be abandoned.
func (r *Rebalancer) executeMove(cd *ClusterDeployment, mv plannedMove) bool {
	n := r.inFlight.Add(1)
	for {
		peak := r.maxInFl.Load()
		if n <= peak || r.maxInFl.CompareAndSwap(peak, n) {
			break
		}
	}
	rep, err := cd.Migrate(mv.vnf, mv.to)
	r.inFlight.Add(-1)
	move := RebalanceMove{VNF: mv.vnf, From: mv.from, To: mv.to, Report: rep, Err: err}
	r.mu.Lock()
	r.moves = append(r.moves, move)
	if err == nil {
		r.lastMove[moveKey(cd, mv.vnf)] = time.Now()
	}
	r.mu.Unlock()
	if err != nil {
		// Migrate failed pre-flip and reverted its own pin, or raced a
		// teardown/another controller. The installed state is a coherent
		// layout either way; one reconcile pass converges any partial rule
		// installs, and the next controller pass replans from scratch.
		r.errsN.Add(1)
		_, _ = cd.Reconcile()
		return false
	}
	r.movesN.Add(1)
	if r.testAfterMove != nil {
		r.testAfterMove(move)
	}
	return true
}

// moveKey scopes a VNF's cooldown clock to its deployment.
func moveKey(cd *ClusterDeployment, vnf string) string {
	return fmt.Sprintf("%d/%s", cd.steerCookie, vnf)
}

// nodeIndex maps a node name to its position in cluster order.
func (c *Cluster) nodeIndex(name string) int { return max(slices.Index(c.order, name), 0) }

// loadSpread is the balance metric the damper compares: max minus min
// per-node load across the eligible nodes.
func loadSpread(loads []float64, excluded []bool) float64 {
	first := true
	var lo, hi float64
	for i, l := range loads {
		if i < len(excluded) && excluded[i] {
			continue
		}
		if first || l < lo {
			lo = l
		}
		if first || l > hi {
			hi = l
		}
		first = false
	}
	return hi - lo
}

// Drain gracefully decommissions a node under live traffic: the node is
// cordoned (no new placement), then every middle VNF it hosts is evacuated
// with the same rolling zero-loss machinery the rebalance controller uses —
// one migration at a time, targets chosen by re-running placement with the
// node excluded. Single-port endpoint VNFs cannot migrate and stay put.
// Returns the number of VNFs moved; a node hosting none is a no-op (the
// cordon still applies). On error the evacuation stops with the completed
// moves committed and the layout reconcilable.
func (c *Cluster) Drain(node string) (int, error) {
	if err := c.Cordon(node); err != nil {
		return 0, fmt.Errorf("orchestrator: drain: %w", err)
	}
	moved := 0
	for _, cd := range c.deploymentsSorted() {
		n, err := cd.drainFrom(node)
		moved += n
		if err != nil {
			return moved, fmt.Errorf("orchestrator: drain %s: %w", node, err)
		}
	}
	return moved, nil
}

// drainFrom evacuates this deployment's middle VNFs off the given node.
func (cd *ClusterDeployment) drainFrom(node string) (int, error) {
	c := cd.cluster
	cd.mu.Lock()
	if cd.stopped {
		cd.mu.Unlock()
		return 0, nil
	}
	scratch := &graph.Graph{
		VNFs:  append([]graph.VNF(nil), cd.graph.VNFs...),
		Edges: cd.graph.Edges,
	}
	spines := cd.spines
	var evacuate []string
	if d := cd.deps[node]; d != nil {
		for i := range scratch.VNFs {
			v := &scratch.VNFs[i]
			if v.Kind.PortCount() != 2 {
				continue
			}
			if d.inst(v.Name) == nil {
				continue
			}
			evacuate = append(evacuate, v.Name)
			v.Node = ""
		}
	}
	cd.mu.Unlock()
	if len(evacuate) == 0 {
		return 0, nil
	}
	sort.Strings(evacuate)

	// Choose targets by placement with the drained node excluded (the
	// cordon covers it), against current loads; resident VNFs elsewhere
	// stay pinned, so only the evacuees move.
	excluded, _ := c.placementExclusions(false)
	if _, err := scratch.PlaceWith(c.order, c.nicNodes(), c.placeOptions(c.NodeLoads(), spines, excluded)); err != nil {
		return 0, err
	}
	target := make(map[string]string, len(evacuate))
	for _, v := range scratch.VNFs {
		target[v.Name] = v.Node
	}
	moved := 0
	for _, name := range evacuate {
		if _, err := cd.Migrate(name, target[name]); err != nil {
			return moved, err
		}
		moved++
	}
	return moved, nil
}
