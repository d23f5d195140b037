package vswitch_test

// Regression tests for the two control-plane/datapath ordering bugs PR 15
// found by soak. Both need a forwarding thread held on a stale port snapshot
// at a chosen moment, which only the park hook can do; they drive the
// orchestrator through its exported API from here because the hook is
// reachable from this package's tests alone.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	highway "ovshighway"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/vswitch"
)

// pacedChain boots a vanilla cluster and deploys an n-middle bidirectional
// chain over nodes with paced endpoints, traffic flowing both ways.
func pacedChain(t *testing.T, cfg highway.ClusterConfig, n int, nodes []string, flows int) (*highway.Cluster, *highway.Chain) {
	t.Helper()
	cfg.TrunkRate = -1
	c, err := highway.StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	chain, err := c.DeploySplitChain(n, nodes, highway.ChainOptions{Flows: flows, RatePps: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(chain.Stop)
	waitReceived(t, chain, 1000)
	return c, chain
}

// waitReceived blocks until the chain has delivered more further packets.
func waitReceived(t *testing.T, chain *highway.Chain, more uint64) {
	t.Helper()
	want := chain.Received() + more
	waitFor(t, "traffic", func() bool { return chain.Received() >= want })
}

// park holds forwarding thread 0 of sw at its next loop iteration for which
// when() is true — snapshot loaded, nothing polled yet — and returns once it
// is held, with the function that lets it go. when runs on the forwarding
// thread and is not called again once it has said yes.
func park(t *testing.T, sw *vswitch.Switch, when func() bool) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	sw.SetParkHook(0, func() {
		if armed.Load() && when() {
			armed.Store(false)
			close(entered)
			<-gate
		}
	})
	t.Cleanup(func() { sw.SetParkHook(0, nil) })
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("forwarding thread never reached the park point")
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// TestMigrateParkedPMDSeesNoEarlyRule: a forwarding thread of the source
// node is held mid-iteration — port snapshot loaded, a burst waiting on the
// very port whose rule the move flips — while Migrate runs. The rules naming
// the ports the move adds must not become visible before that iteration
// ends: install's quiescence wait is what holds them back, and without it
// the burst matches the flipped rule, finds its output port missing from the
// stale snapshot and is dropped (OutputNowhere).
func TestMigrateParkedPMDSeesNoEarlyRule(t *testing.T) {
	cluster, chain := pacedChain(t, highway.ClusterConfig{Nodes: []string{"a", "b", "c"}}, 3, []string{"a", "b"}, 4)
	c := cluster.Internal()

	// vnf1's second port feeds vnf2: moving vnf2 off node a turns its
	// in_port rule into "tag and output to the new a–c trunk" in place.
	a := c.Node("a")
	ports := a.Agent.VM("vnf1").Ports()
	slices.Sort(ports)
	feed := a.Switch.Port(ports[1]).(*dpdkr.Port)
	known := make(map[uint32]bool)
	for _, ps := range a.Switch.AllPortStats() {
		known[ps.PortNo] = true
	}
	// namesNewPort reports a rule on node a outputting to a port the held
	// iteration's snapshot cannot contain.
	namesNewPort := func() bool {
		for _, f := range a.Switch.Table().Snapshot() {
			for _, act := range f.Actions {
				switch act.Type {
				case flow.ActOutput:
					if !known[act.Port] {
						return true
					}
				case flow.ActOutputECMP:
					for _, p := range act.Ports[:act.NPorts] {
						if !known[p] {
							return true
						}
					}
				}
			}
		}
		return false
	}

	lost, err := chain.LostAcross(func() error {
		// Nothing drains node a's rings while its thread is held, so
		// generation stops the instant it is: a backlog built up meanwhile
		// would overflow the rings behind it on release, drops that have
		// nothing to do with rules.
		release := park(t, a.Switch, func() bool {
			if feed.ReturnBacklog() == 0 {
				return false
			}
			chain.Pause(true)
			return true
		})
		done := make(chan error, 1)
		go func() {
			rep, err := chain.Deployment().Migrate("vnf2", "c")
			if err == nil && !rep.Drained {
				err = fmt.Errorf("old path did not drain: %+v", rep)
			}
			done <- err
		}()
		// An absence has no event to wait on: give Migrate far longer than
		// the sub-millisecond it needs to reach its flip.
		for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if namesNewPort() {
				t.Fatal("a rule naming a port added by the migration became visible while a forwarding thread still held the older port snapshot")
			}
			select {
			case err := <-done:
				t.Fatalf("Migrate returned while node a's forwarding thread was held (err %v)", err)
			default:
			}
		}
		release()
		if err := <-done; err != nil {
			return err
		}
		chain.Pause(false)
		waitReceived(t, chain, 1000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range c.NodeNames() {
		n := c.Node(name)
		dp := n.Switch.DatapathStats()
		var portDrops uint64
		for _, ps := range n.Switch.AllPortStats() {
			portDrops += ps.TxDropped + ps.RxDropped
		}
		if lost != 0 || dp.OutputNowhere != 0 || dp.ClassifierMisses != 0 {
			t.Errorf("migration lost %d packets; %s: %d frames output to nowhere, %d table misses, %d parse errors, %d dropped at ports",
				lost, name, dp.OutputNowhere, dp.ClassifierMisses, dp.ParseErrors, portDrops)
		}
	}
	for _, tr := range c.Trunks() {
		if ab, ba := tr.Stats(); lost != 0 || ab.Dropped+ba.Dropped != 0 {
			t.Errorf("%s dropped %d frames (%d unrouted)", tr.Name(), ab.Dropped+ba.Dropped, tr.Unrouted())
		}
	}
}

// TestFailTrunkRacingReleaseLaneFreesOnce: FailTrunk kills bundle slot 0 of
// a leaf–spine adjacency and waits for the spine's datapath before draining
// the dead link's NIC queues; the deployment's Stop releases the last lane
// of the same adjacency meanwhile. With the spine's forwarding thread held,
// both reach that wait together and are let go together: the failed link
// must still be drained by its failer alone — the queues are
// single-consumer, a second drain racing the first frees buffers twice
// (mempool: double free), so drainDeadLink panics on one — and every pool
// must be whole afterwards.
func TestFailTrunkRacingReleaseLaneFreesOnce(t *testing.T) {
	cluster, chain := pacedChain(t, highway.ClusterConfig{
		Nodes:  []string{"s", "a", "b"},
		Fabric: highway.FabricConfig{Mode: highway.FabricSpine, Spines: []string{"s"}, ECMPWidth: 2},
	}, 1, []string{"a", "b"}, 64)
	c := cluster.Internal()
	link0 := c.PairTrunks("a", "s")[0]
	toSpine := func() uint64 { ab, _ := link0.Stats(); return ab.Carried }

	release := park(t, c.Node("s").Switch, func() bool { return true })
	// Frames crossing a–s#0 now pile up in the spine-side NIC queue, which
	// only the held thread polls: wait for a few bursts of them.
	for base, deadline := toSpine(), time.Now().Add(5*time.Second); toSpine() < base+256; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d frames queued toward the held spine", toSpine()-base)
		}
		time.Sleep(time.Millisecond)
	}
	chain.Pause(true)

	failed := make(chan error, 1)
	go func() { failed <- c.FailTrunk("a", "s", 0) }()
	waitFor(t, "FailTrunk to mark the slot", func() bool { return len(c.PairTrunks("a", "s")) == 1 })
	stopped := make(chan struct{})
	go func() { chain.Stop(); close(stopped) }()
	waitFor(t, "Stop to dismantle the adjacency", func() bool { return c.PairTrunks("a", "s") == nil })
	release()

	if err := <-failed; err != nil {
		t.Fatal(err)
	}
	<-stopped
	for _, name := range c.NodeNames() {
		if p := c.Node(name).Pool; p.Avail() != p.Cap() {
			t.Errorf("%s: %d of %d buffers home after teardown", name, p.Avail(), p.Cap())
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
