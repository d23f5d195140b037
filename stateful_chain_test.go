package highway

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestStatefulChainSplitLedger deploys the NAT44→ACL→balancer chain via the
// placement optimizer across a 2-node cluster and closes the zero-loss
// conservation ledger: every packet the paced client sent must land in the
// server sink once generation pauses and the chain drains.
func TestStatefulChainSplitLedger(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Config: Config{Mode: ModeHighway},
		Nodes:  []string{"node0", "node1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sc, crossings, err := c.DeployStatefulChain(StatefulChainOptions{
		Flows: 32, RatePps: 20_000, Backends: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	// The source starts after the last steering rule: no packet of the
	// deployment ever faces a table without its rule.
	for _, name := range c.NodeNames() {
		if dp := c.Internal().Node(name).Switch.DatapathStats(); dp.ClassifierMisses != 0 || dp.OutputNowhere != 0 {
			t.Fatalf("%s: deploy left %d table misses, %d frames output to nowhere", name, dp.ClassifierMisses, dp.OutputNowhere)
		}
	}

	// The balanced placement must split the 5 VNFs across both nodes.
	hosts := 0
	for _, name := range c.NodeNames() {
		if c.Internal().Node(name) != nil && sc.Deployment().Internal().Deployment(name) != nil {
			hosts++
		}
	}
	if hosts < 2 {
		t.Fatalf("chain deployed on %d node(s), want ≥2 (crossings=%d)", hosts, crossings)
	}
	if crossings < 1 {
		t.Fatalf("split chain reports %d crossings", crossings)
	}

	// Let the chain run: connections establish through NAT (bindings), ACL
	// (classifier walk then bypass) and balancer (backend pins).
	deadline := time.Now().Add(10 * time.Second)
	for sc.Received() < 5000 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sc.Received() < 5000 {
		t.Fatalf("sink received only %d packets", sc.Received())
	}

	// Stateful behaviour actually engaged.
	if got := sc.NAT().Bound.Load(); got != 32 {
		t.Fatalf("NAT bindings = %d, want 32 (one per flow)", got)
	}
	if sc.ACL().Established.Load() == 0 {
		t.Fatal("ACL conntrack bypass never hit")
	}
	if sc.ACL().Denied.Load() != 0 {
		t.Fatalf("ACL denied %d packets of an allowed workload", sc.ACL().Denied.Load())
	}
	if got := sc.Balancer().NewConns.Load(); got != 32 {
		t.Fatalf("balancer pinned %d connections, want 32", got)
	}

	// Conservation ledger: pause, drain, compare. A paced chain whose source
	// started after its last rule loses nothing; if it does, the report
	// names the layer.
	sc.Pause(true)
	if inFlight := sc.Settle(5 * time.Second); inFlight != 0 {
		named, report := namedDrops(c, sc)
		t.Fatalf("ledger did not close: %d packets lost, drop counters name %d (sent=%d received=%d)\n%s",
			inFlight, named, sc.Sent(), sc.Received(), report)
	}
}

// namedDrops sums every drop counter along the stateful chain's path and
// lists them one layer per line, so an open ledger names where its packets
// died.
func namedDrops(c *Cluster, sc *StatefulChain) (total uint64, report string) {
	var b strings.Builder
	for _, name := range c.NodeNames() {
		node := c.Internal().Node(name)
		dp := node.Switch.DatapathStats()
		var txDropped, rxDropped uint64
		for _, ps := range node.Switch.AllPortStats() {
			txDropped += ps.TxDropped
			rxDropped += ps.RxDropped
		}
		total += dp.ParseErrors + dp.ClassifierMisses + dp.OutputNowhere + txDropped + rxDropped
		fmt.Fprintf(&b, "  %s vswitch: parse errors %d, table misses %d, output to nowhere %d, port tx-dropped %d rx-dropped %d (pool alloc fails %d)\n",
			name, dp.ParseErrors, dp.ClassifierMisses, dp.OutputNowhere, txDropped, rxDropped, node.Pool.Stats().Fails)
	}
	for _, tr := range sc.Deployment().Internal().Trunks() {
		ab, ba := tr.Stats()
		total += ab.Dropped + ba.Dropped // unrouted frames are counted in dropped too
		fmt.Fprintf(&b, "  %s: dropped %d (unrouted %d)\n", tr.Name(), ab.Dropped+ba.Dropped, tr.Unrouted())
	}
	exhausted, denied := sc.NAT().Exhausted.Load(), sc.ACL().Denied.Load()
	total += exhausted + denied
	fmt.Fprintf(&b, "  nat exhausted %d, acl denied %d", exhausted, denied)
	return total, b.String()
}

// TestStatefulChainStopDetachesConntrack: a stateful deployment's Stop gives
// back the connection tables its VNFs attached to the node switches. After N
// deploy/stop cycles the attached-table count and the conntrack Live gauge
// in DatapathStats are what they were before the first deploy — stopped
// chains are no longer swept and summed forever.
func TestStatefulChainStopDetachesConntrack(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Config: Config{Mode: ModeHighway},
		Nodes:  []string{"node0", "node1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	attached := func() (tables int, live uint64) {
		for _, name := range c.NodeNames() {
			sw := c.Internal().Node(name).Switch
			tables += len(sw.ConntrackTables())
			live += sw.DatapathStats().Conntrack.Live
		}
		return tables, live
	}
	tables0, live0 := attached()

	for cycle := 0; cycle < 3; cycle++ {
		sc, _, err := c.DeployStatefulChain(StatefulChainOptions{Flows: 8, RatePps: 20_000, Backends: 2})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for sc.Received() < 100 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		// NAT44, ACL and balancer each attach one table and hold live
		// connections by now.
		if tables, live := attached(); tables != tables0+3 || live == live0 {
			sc.Stop()
			t.Fatalf("cycle %d, running: %d tables attached with %d live connections, want %d tables and some connections",
				cycle, tables, live, tables0+3)
		}
		sc.Stop()
		if tables, live := attached(); tables != tables0 || live != live0 {
			t.Fatalf("cycle %d, stopped: %d tables attached with %d live connections, want the pre-deploy %d and %d",
				cycle, tables, live, tables0, live0)
		}
	}
}
