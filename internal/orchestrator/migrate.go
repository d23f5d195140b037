package orchestrator

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ovshighway/internal/flow"
	"ovshighway/internal/vnf"
)

// Live VNF migration. The protocol is make-before-break double-steering:
//
//  1. Instantiate a replica of the VNF on the target node (new VM, new
//     ports, app started) while the original keeps forwarding.
//  2. Re-partition the graph with the VNF re-pinned. Crossings that now
//     touch the moved VNF get FRESH lanes (new vids); crossings untouched
//     by the move keep theirs. The old lanes stay registered.
//  3. Install every rule of the new layout that occupies a fresh table
//     slot — receiver/relay rules for the new vids, the replica's outbound
//     steering, new local edges. Traffic still flows the old path; the new
//     path is fully plumbed but dark.
//  4. Flip the feed rules: the slots steering traffic INTO the VNF are
//     replaced in place — flow.Table Add semantics swap a slot atomically
//     (the old rule is death-marked, so EMC/SMC cannot serve it again).
//     From this instant new packets ride the new path end to end.
//  5. Drain the old path: packets already committed to it — parked in
//     bypass rings, the old VM's port backlog, in flight on retired trunk
//     lanes — are carried to delivery by the STALE rules, which are kept
//     installed for exactly this long. The drain watches conservation
//     (old app in == out, backlogs empty, retired-lane counters quiet).
//  6. Tear down: stale rules deleted (the bypass manager dissolves the old
//     links with its usual zero-loss drain), old app stopped, old VM
//     destroyed, retired lanes released.
//
// Loss target is zero: at no point does a packet face a table with no
// matching rule, and nothing holding packets is destroyed before it drains.

// migrateDrainTimeout bounds step 5. A paced chain settles in a few
// milliseconds; the bound only matters when the chain is saturated (where
// steady-state loss exists anyway and "drained" is ill-defined).
const migrateDrainTimeout = 3 * time.Second

// ErrMigrationInFlight is returned by control-plane entry points that find
// another live migration holding the deployment during its drain window.
// Migrate releases cd.mu for the (up to migrateDrainTimeout-long) drain so
// co-resident control actions are not blocked; the in-flight mark is what
// keeps a second migration from interleaving with the first's stale rules.
var ErrMigrationInFlight = errors.New("orchestrator: migration in flight")

// MigrateReport describes a completed live migration.
type MigrateReport struct {
	VNF  string
	From string
	To   string
	// Cutover is the make-before-break window: from the atomic feed-rule
	// flip until the old path read drained (or the drain deadline fired)
	// and the datapath quiesced.
	Cutover time.Duration
	// Drained reports whether the old path was observed structurally quiet
	// (a sustained run of identical quiet samples) before teardown. False
	// means migrateDrainTimeout expired first and teardown proceeded on the
	// deadline — possible residual loss on a saturated chain, worth
	// surfacing instead of tearing down silently.
	Drained bool
}

// drainSample is one observation of everything still committed to the old
// path. Comparable: two equal consecutive quiet samples mean drained.
type drainSample struct {
	appRx, appTx, appTxD, appDrop uint64
	backlog                       int
	bypassBacklog                 int
	trunkBacklog                  int
	laneCarried                   uint64
	laneDropped                   uint64
}

func (s drainSample) quiet() bool {
	return s.bypassBacklog == 0 && s.backlog == 0 && s.trunkBacklog == 0 &&
		s.appRx == s.appTx+s.appTxD+s.appDrop
}

// beginMigration marks the deployment as owned by a live migration, so the
// drain window can release cd.mu without letting other control actions
// interleave with its stale rules. Caller holds cd.mu.
func (cd *ClusterDeployment) beginMigration(vnf string) {
	if cd.migDone == nil {
		cd.migDone = sync.NewCond(&cd.mu)
	}
	cd.migrating = vnf
}

// endMigration clears the in-flight mark and wakes waiters (Stop). Caller
// holds cd.mu.
func (cd *ClusterDeployment) endMigration() {
	cd.migrating = ""
	cd.migDone.Broadcast()
}

// waitMigrationDone blocks until no migration is in flight. Caller holds
// cd.mu; the lock is released while waiting and held again on return.
func (cd *ClusterDeployment) waitMigrationDone() {
	for cd.migrating != "" {
		cd.migDone.Wait()
	}
}

// Migrate moves a running middle VNF to another node with make-before-break
// double-steering, draining the old path before tearing it down. The graph
// the deployment was created from is updated in place (the VNF's Node pin
// changes), so subsequent reconcile passes converge on the new layout.
//
// cd.mu is NOT held across the step-5 drain (up to migrateDrainTimeout):
// the deployment is marked migration-in-flight instead, so a concurrent
// Migrate fails with ErrMigrationInFlight, Reconcile defers its pass, and
// Stop waits for the migration to finish.
func (cd *ClusterDeployment) Migrate(vnfName, target string) (rep MigrateReport, err error) {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	if cd.stopped {
		return rep, fmt.Errorf("orchestrator: migrate %s: deployment is stopped", vnfName)
	}
	if cd.migrating != "" {
		return rep, fmt.Errorf("orchestrator: migrate %s: %w (%s is draining)", vnfName, ErrMigrationInFlight, cd.migrating)
	}
	c := cd.cluster
	if c.nodes[target] == nil {
		return rep, fmt.Errorf("orchestrator: migrate %s: unknown node %q", vnfName, target)
	}
	vi := -1
	for i, v := range cd.graph.VNFs {
		if v.Name == vnfName {
			vi = i
			break
		}
	}
	if vi < 0 {
		return rep, fmt.Errorf("orchestrator: migrate: unknown VNF %q", vnfName)
	}
	v := cd.graph.VNFs[vi]
	if v.Kind.PortCount() != 2 {
		return rep, fmt.Errorf("orchestrator: migrate %s: only two-port middle VNFs migrate (kind %s)", vnfName, v.Kind)
	}
	src := ""
	for node, d := range cd.deps {
		if d.inst(vnfName) != nil {
			src = node
			break
		}
	}
	if src == "" {
		return rep, fmt.Errorf("orchestrator: migrate: VNF %q not instantiated", vnfName)
	}
	rep = MigrateReport{VNF: vnfName, From: src, To: target}
	if src == target {
		rep.Drained = true
		return rep, nil
	}
	srcDep := cd.deps[src]
	old := srcDep.inst(vnfName)
	oldApp, _ := old.run.(*vnf.App)

	// Until the rules flip, any failure is undone here and nowhere else:
	// desired state restored, the lanes the move added released (hops before
	// vids), the replica retired, the pin reverted. Every step is a no-op
	// when its forward half never ran.
	prevNode, prevSteers := v.Node, cd.steers
	prevSpecs := make(map[*Deployment][]flow.FlowSpec, len(cd.deps))
	for _, d := range cd.deps {
		prevSpecs[d] = d.specs
	}
	var tdep *Deployment
	var added []laneSteer
	flipped := false
	defer func() {
		if flipped {
			return
		}
		for _, d := range cd.deps {
			d.specs = prevSpecs[d]
		}
		cd.steers = prevSteers
		c.releaseSteers(added)
		if tdep != nil {
			tdep.removeVNF(vnfName)
		}
		cd.graph.VNFs[vi].Node = prevNode
		rep, err = MigrateReport{}, fmt.Errorf("orchestrator: migrate %s: %w", vnfName, err)
	}()

	// Re-pin and re-partition: the new desired layout.
	cd.graph.VNFs[vi].Node = target
	part, err := cd.graph.Partition(c.DefaultNode(), c.nicNodes())
	if err != nil {
		return rep, err
	}

	// Step 1: replica on the target node.
	if tdep = cd.deps[target]; tdep == nil {
		tdep = newDeployment(c.nodes[target])
		cd.deps[target] = tdep
	}
	v.Node = target
	if err := tdep.instantiate(v); err != nil {
		return rep, err
	}

	// Step 2: lane diff by crossing identity (position in Graph.Edges);
	// the crossings the move adds are realized, the old lanes stay.
	oldByIdx := make(map[int]laneSteer, len(cd.steers))
	for _, st := range cd.steers {
		oldByIdx[st.ce.Index] = st
	}
	var kept []laneSteer
	for _, ce := range part.Cross {
		if st, ok := oldByIdx[ce.Index]; ok && st.ce.NodeA == ce.NodeA && st.ce.NodeB == ce.NodeB {
			st.ce = ce
			kept = append(kept, st)
			delete(oldByIdx, ce.Index)
			continue
		}
		added = append(added, laneSteer{ce: ce})
	}
	var retired []laneSteer
	for _, st := range oldByIdx {
		retired = append(retired, st)
	}
	c.mu.Lock()
	for i := range added {
		if _, err = c.realizeLane(&added[i], cd.spines, cd.tcfg); err != nil {
			break
		}
	}
	c.mu.Unlock()
	if err != nil {
		return rep, err
	}

	// Recompute every node's desired local rules against the new partition
	// (the old VNF's ports drop out, the replica's come in).
	for node, d := range cd.deps {
		d.specs = nil
		if lg, ok := part.Local[node]; ok {
			if d.specs, err = d.edgeSpecs(lg); err != nil {
				return rep, err
			}
		}
	}
	cd.steers = append(kept, added...)
	desired, err := cd.desiredSpecs()
	if err != nil {
		return rep, err
	}

	// Steps 3+4: make before break, in install's one order — the complete
	// dark path first, then the in-place feed flips.
	cd.install(desired)
	flipped = true
	flipTime := time.Now()

	// Step 5: drain everything still committed to the old path. Stale rules
	// are still installed, so these packets are carried to delivery.
	oldSet := make(map[uint32]bool, len(old.ports))
	for _, id := range old.ports {
		oldSet[id] = true
	}
	// Pairs still carrying live lanes share their NIC rings and pump queues
	// with active traffic, so a structural emptiness probe there would never
	// read zero; it applies only to pairs the retirement leaves idle.
	pairLive := make(map[pairKey]bool)
	for _, st := range cd.steers {
		st.eachPair(func(pair pairKey) {
			pairLive[pair] = true
		})
	}
	sample := func() drainSample {
		var s drainSample
		if oldApp != nil {
			s.appRx = oldApp.RxPackets.Load()
			s.appTx = oldApp.TxPackets.Load()
			s.appTxD = oldApp.TxDrops.Load()
			s.appDrop = oldApp.Dropped.Load()
		}
		for _, id := range old.ports {
			s.backlog += srcDep.node.portBacklog(id)
		}
		// The links themselves persist until the stale rules go (step 6);
		// what must empty here is the packets parked in their rings.
		for _, l := range srcDep.node.Switch.BypassLinks() {
			if oldSet[l.From] || oldSet[l.To] {
				s.bypassBacklog += l.Ring.Len()
			}
		}
		// Retired-lane hops: the structural backlog (frames parked in the
		// trunk's staging/delay queues and the NIC descriptor rings) must be
		// zero, AND the lane counters must not have moved between samples —
		// counters alone cannot see parked frames, backlogs alone could be
		// sampled in the instant a frame is between rings.
		c.mu.Lock()
		for _, st := range retired {
			st.eachPair(func(pair pairKey) {
				ct, ok := c.trunks[pair]
				if !ok {
					return
				}
				for _, tl := range ct.links {
					if tl.failed {
						continue
					}
					if !pairLive[pair] {
						s.trunkBacklog += tl.tr.Backlog() +
							tl.nicLo.QueueBacklog() + tl.nicHi.QueueBacklog()
					}
					ab, ba, ok := tl.tr.LaneStats(st.vid)
					if ok {
						s.laneCarried += ab.Carried + ba.Carried
						s.laneDropped += ab.Dropped + ba.Dropped
					}
				}
			})
		}
		c.mu.Unlock()
		return s
	}
	// Drained = a sustained run of identical quiet samples. One quiet pair
	// is not enough: a frame in a descheduled thread's hands is in no ring
	// and moves no counter, so the window must outlast scheduling hiccups.
	//
	// The drain holds no control-plane state beyond the stale rules it
	// reads counters through, so cd.mu is released for its duration — a
	// multi-second drain must not block Stop, reconcile passes or control
	// actions on co-resident deployments. The in-flight mark set here is
	// what concurrent entrants key off.
	cd.beginMigration(vnfName)
	cd.mu.Unlock()
	if cd.testDrainHold != nil {
		cd.testDrainHold()
	}
	deadline := time.Now().Add(migrateDrainTimeout)
	prev := sample()
	stable := 0
	for time.Now().Before(deadline) && stable < 3 {
		time.Sleep(time.Millisecond)
		cur := sample()
		if cur == prev && cur.quiet() {
			stable++
		} else {
			stable = 0
			prev = cur
		}
	}
	rep.Drained = stable >= 3
	srcDep.node.Switch.WaitDatapathQuiescence()
	rep.Cutover = time.Since(flipTime)
	cd.mu.Lock()
	cd.endMigration()

	// Step 6: break. Prune the stale old-path rules (the bypass manager
	// dissolves their links with its own zero-loss drain), then retire the
	// old VM and lanes.
	cd.prune(desired)
	waitCond(func() bool { return srcDep.bypassesOn(oldSet) == 0 })
	srcDep.removeVNF(vnfName)
	c.releaseSteers(retired)
	return rep, nil
}
