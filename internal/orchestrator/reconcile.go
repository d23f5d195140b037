package orchestrator

import (
	"sort"
	"sync/atomic"
	"time"

	"ovshighway/internal/flow"
)

// This file is the cluster's converging control plane. Deploy installs the
// fabric once; everything here is about noticing that reality has drifted
// from the deployment's declared intent — a vSwitch restart wiped a flow
// table, a trunk died, an operator fat-fingered a rule delete — and putting
// it back. The shape follows production NFV controllers (a desired-state
// spec plus a reconcile loop), scaled down to this reproduction: the
// ClusterDeployment IS the spec (graph, fabric config, lane assignments),
// and a pass re-derives what every node should hold and repairs the
// difference. Bypasses are deliberately NOT reconciled directly: the p2p
// detector re-establishes them on its own once the steering rules are back,
// which is the transparency argument surviving faults.

// flowKey identifies a rule slot in a table: the (priority, match) pair
// that Add-replacement semantics key on.
type flowKey struct {
	prio uint16
	m    flow.Match
}

// desiredSpecs derives the deployment's complete intended rule set per
// node: each local deployment's edge rules plus every crossing's steering
// rules against the fabric's CURRENT trunk ports. Caller holds cd.mu.
func (cd *ClusterDeployment) desiredSpecs() (map[string][]flow.FlowSpec, error) {
	specs := make(map[string][]flow.FlowSpec)
	for node, d := range cd.deps {
		specs[node] = append(specs[node], d.specs...)
	}
	for _, st := range cd.steers {
		if err := cd.steerSpecsInto(st, specs); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// ruleTarget is one node's share of a rule transaction: its table, the
// cookies that mark the deployment's own rules there (the local deployment's
// and, on cluster nodes, the relay steer cookie; 0 = unused), and the rules
// the deployment wants on it.
type ruleTarget struct {
	node    *Node
	cookies [2]uint64
	want    []flow.FlowSpec
}

// owns reports whether a rule carrying cookie belongs to the deployment —
// co-resident deployments' and controller flows are invisible to it.
func (t ruleTarget) owns(cookie uint64) bool {
	return cookie != 0 && (cookie == t.cookies[0] || cookie == t.cookies[1])
}

// target is the single-node rule target of a local deployment.
func (d *Deployment) target(want []flow.FlowSpec) ruleTarget {
	return ruleTarget{node: d.node, cookies: [2]uint64{d.cookie}, want: want}
}

// targets spreads desired over every cluster node, in node order.
func (cd *ClusterDeployment) targets(desired map[string][]flow.FlowSpec) []ruleTarget {
	ts := make([]ruleTarget, 0, len(cd.cluster.order))
	for _, name := range cd.cluster.order {
		t := ruleTarget{node: cd.cluster.nodes[name], cookies: [2]uint64{cd.steerCookie}, want: desired[name]}
		if d := cd.deps[name]; d != nil {
			t.cookies[1] = d.cookie
		}
		ts = append(ts, t)
	}
	return ts
}

// installedOn snapshots the deployment's rules currently installed on the
// target's node, keyed by rule slot.
func installedOn(t ruleTarget) map[flowKey]*flow.Flow {
	installed := make(map[flowKey]*flow.Flow)
	for _, f := range t.node.Switch.Table().Snapshot() {
		if t.owns(f.Cookie) {
			installed[flowKey{f.Priority, f.Match}] = f
		}
	}
	return installed
}

// installRules is the additive half of a rule transaction and the only
// place steering rules enter a table: every wanted rule that is missing or
// diverged is (re)installed, one batch — one classifier rebuild — per node.
// Rules occupying fresh slots go in on ALL nodes before any rule replacing
// an installed slot: a replacement is an atomic per-slot flip (the old rule
// is death-marked), so whatever the flips start steering already finds its
// whole new path — make-before-break. Nothing is deleted; that is
// pruneRules.
//
// live says the deployment's generators are running. The ports and trunk
// NICs the rules name were added earlier in the same transaction, but a PMD
// iteration that began before that still forwards against its older port
// snapshot, and a rule naming a port it cannot see outputs to nowhere — the
// burst in its hands would be dropped (DatapathStats.OutputNowhere). So a
// live install first lets the forwarding threads of exactly the nodes about
// to receive a rule start a new iteration. A first Deploy starts its
// generators after this returns and never pays that wait.
//
// Returns the number of rules installed.
func installRules(ts []ruleTarget, live bool) int {
	fresh := make([][]flow.FlowSpec, len(ts))
	flips := make([][]flow.FlowSpec, len(ts))
	n := 0
	for i, t := range ts {
		if len(t.want) == 0 {
			continue
		}
		installed := installedOn(t)
		for _, sp := range t.want {
			f, ok := installed[flowKey{sp.Priority, sp.Match}]
			switch {
			case !ok:
				fresh[i] = append(fresh[i], sp)
			case f.Cookie != sp.Cookie || !f.Actions.Equal(sp.Actions):
				flips[i] = append(flips[i], sp)
			}
		}
		if k := len(fresh[i]) + len(flips[i]); k > 0 {
			n += k
			if live {
				t.node.Switch.WaitDatapathQuiescence()
			}
		}
	}
	for _, batch := range [][][]flow.FlowSpec{fresh, flips} {
		for i, t := range ts {
			t.node.Switch.Table().AddBatch(batch[i])
		}
	}
	return n
}

// pruneRules is the subtractive half: every rule of the deployment that is
// installed but no longer wanted is deleted. Returns the number deleted.
func pruneRules(ts []ruleTarget) int {
	n := 0
	for _, t := range ts {
		want := make(map[flowKey]bool, len(t.want))
		for _, sp := range t.want {
			want[flowKey{sp.Priority, sp.Match}] = true
		}
		n += t.node.Switch.Table().DeleteWhere(func(f *flow.Flow) bool {
			return t.owns(f.Cookie) && !want[flowKey{f.Priority, f.Match}]
		})
	}
	return n
}

// install and prune run the rule transaction over every cluster node.
// Caller holds cd.mu.
func (cd *ClusterDeployment) install(desired map[string][]flow.FlowSpec) int {
	return installRules(cd.targets(desired), cd.live)
}

func (cd *ClusterDeployment) prune(desired map[string][]flow.FlowSpec) int {
	return pruneRules(cd.targets(desired))
}

// Reconcile runs one convergence pass over this deployment: realize every
// lane again (recreate vanished adjacencies, rebuild failed bundle slots in
// place, re-register missing lanes), then re-derive the desired rule set
// against the repaired ports, install what is missing or diverged and prune
// what is no longer wanted. Returns the number of repairs made — zero means
// the pass found reality matching intent. Safe to call concurrently with
// traffic; it never touches the PMD hot path, only the tables the datapath
// snapshots.
func (cd *ClusterDeployment) Reconcile() (int, error) {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	if cd.stopped {
		return 0, nil
	}
	if cd.migrating != "" {
		// A live migration's drain window is in progress: desired state
		// already reflects the new layout, but the stale old-path rules
		// must survive until the drain completes. Converging now would
		// delete them mid-drain and drop the packets they are carrying,
		// so the pass defers; the migration itself prunes the tables when
		// its drain ends.
		return 0, nil
	}
	repairs := 0
	c := cd.cluster
	c.mu.Lock()
	for i := range cd.steers {
		n, err := c.realizeLane(&cd.steers[i], cd.spines, cd.tcfg)
		repairs += n
		if err != nil {
			c.mu.Unlock()
			return repairs, err
		}
	}
	c.mu.Unlock()
	desired, err := cd.desiredSpecs()
	if err != nil {
		return repairs, err
	}
	return repairs + cd.install(desired) + cd.prune(desired), nil
}

// deploymentsSorted snapshots the live deployments in creation order (the
// steer cookie is allocation-ordered), the walk order every cluster-wide
// control loop uses.
func (c *Cluster) deploymentsSorted() []*ClusterDeployment {
	c.mu.Lock()
	cds := make([]*ClusterDeployment, 0, len(c.deployments))
	for cd := range c.deployments {
		cds = append(cds, cd)
	}
	c.mu.Unlock()
	sort.Slice(cds, func(i, j int) bool { return cds[i].steerCookie < cds[j].steerCookie })
	return cds
}

// ReconcileOnce runs one convergence pass over every live deployment, in
// deployment-creation order, and returns the total repairs made.
func (c *Cluster) ReconcileOnce() (int, error) {
	cds := c.deploymentsSorted()
	total := 0
	for _, cd := range cds {
		n, err := cd.Reconcile()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReconcilerStats is a point-in-time read of a reconciler's counters.
type ReconcilerStats struct {
	Passes  uint64 // convergence passes completed
	Repairs uint64 // total drift repairs across all passes
	Errors  uint64 // passes that hit an unrepairable error
}

// Reconciler is the background convergence loop: every interval it runs
// ReconcileOnce over the cluster's deployments. It is the component that
// turns the fault-injection surface (FailTrunk, FailNode, RestartVSwitch,
// rule wipes) into transient blips instead of permanent outages.
type Reconciler struct {
	c        *Cluster
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}

	passes  atomic.Uint64
	repairs atomic.Uint64
	errs    atomic.Uint64
}

// StartReconciler launches the background loop (interval <= 0 defaults to
// 10ms — fast convergence at simulation time scales). Stop the reconciler
// before stopping the cluster, or a mid-teardown pass may rebuild trunks
// the teardown just removed.
func (c *Cluster) StartReconciler(interval time.Duration) *Reconciler {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	r := &Reconciler{
		c:        c,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go r.run()
	return r
}

func (r *Reconciler) run() {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			n, err := r.c.ReconcileOnce()
			r.passes.Add(1)
			r.repairs.Add(uint64(n))
			if err != nil {
				r.errs.Add(1)
			}
		}
	}
}

// Stop halts the loop and waits for an in-flight pass to finish.
func (r *Reconciler) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// Stats reads the loop's counters.
func (r *Reconciler) Stats() ReconcilerStats {
	return ReconcilerStats{
		Passes:  r.passes.Load(),
		Repairs: r.repairs.Load(),
		Errors:  r.errs.Load(),
	}
}
