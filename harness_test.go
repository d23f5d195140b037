package highway

import (
	"slices"
	"testing"
	"time"

	"ovshighway/internal/vswitch"
)

// TestChainExpectedBypasses pins the one ExpectedBypasses against all three
// deployers: every intra-node VM↔VM hop counts twice (one bypass per
// direction); NIC↔VM hops and trunk hops do not count.
func TestChainExpectedBypasses(t *testing.T) {
	check := func(name string, c *Chain, err error, want int, segments ...int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer c.Stop()
		if got := c.ExpectedBypasses(); got != want {
			t.Errorf("%s: ExpectedBypasses = %d, want %d", name, got, want)
		}
		if got := c.Segments(); !slices.Equal(got, segments) {
			t.Errorf("%s: segments %v, want %v", name, got, segments)
		}
	}
	node, err := Start(Config{Mode: ModeVanilla})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	for _, tc := range []struct{ n, want int }{{0, 2}, {1, 4}, {6, 14}} {
		c, err := node.DeployBidirChain(tc.n, ChainOptions{})
		check("memory chain", c, err, tc.want, tc.n+2)
	}
	for _, tc := range []struct{ n, want int }{{1, 0}, {2, 2}, {8, 14}} {
		c, err := node.DeployNICChain(tc.n, ChainOptions{})
		if err == nil {
			// External generators cannot pause: no vacuous "0 lost".
			if _, lerr := c.LostAcross(func() error { return nil }); lerr == nil {
				t.Error("NIC chain: LostAcross succeeded on a ledger with nothing to pause")
			}
		}
		check("NIC chain", c, err, tc.want, tc.n)
	}
	cluster, err := StartCluster(ClusterConfig{Nodes: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	c, err := cluster.DeploySplitChain(3, []string{"a", "b"}, ChainOptions{})
	check("split 3+2", c, err, 6, 3, 2)
	c, err = cluster.DeploySplitChain(4, nil, ChainOptions{})
	check("split 2+2+2", c, err, 6, 2, 2, 2)
}

// TestLedgerSettle drives the one settle loop over fake counters: a ledger
// that moves and then goes quiet returns after exactly the quiet run, and
// one that never goes quiet returns at the timeout with the live in-flight.
func TestLedgerSettle(t *testing.T) {
	reads := 0 // observations so far; every observation reads sent first
	quiet := Ledger{
		sent:     func() uint64 { reads++; return 10 * uint64(min(reads, 5)) },
		received: func() uint64 { return 10*uint64(min(reads, 5)) - 3 },
	}
	if got := quiet.Settle(time.Minute); got != 3 {
		t.Fatalf("quiet ledger settled with %d in flight, want 3", got)
	}
	// Reads 1..5 move, reads 6..13 are the 8 identical observations, read 14
	// is the returned InFlight.
	if reads != 14 {
		t.Fatalf("quiet ledger settled after %d reads, want 14", reads)
	}

	reads = 100
	busy := Ledger{
		sent:     func() uint64 { reads++; return uint64(reads) },
		received: func() uint64 { return uint64(reads) - 7 },
	}
	t0 := time.Now()
	if got := busy.Settle(60 * time.Millisecond); got != 7 {
		t.Fatalf("busy ledger settled with %d in flight, want 7", got)
	}
	if el := time.Since(t0); el < 60*time.Millisecond || el > 5*time.Second {
		t.Fatalf("busy ledger settled after %v, want the 60ms timeout", el)
	}
}

// TestMeasureCountsOwnBypasses: Measure waits on the bypass links touching
// the chain's own ports, so two highway chains sharing one node both measure
// — each sees its own 6 links while 12 are live on the node.
func TestMeasureCountsOwnBypasses(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{Config: Config{Mode: ModeHighway}, Nodes: []string{"n0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	var chains []*Chain
	for _, prefix := range []string{"x-", "y-"} {
		c, err := cluster.deploySplitChain(prefix, 2, nil, ChainOptions{RatePps: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		chains = append(chains, c)
	}
	for i, c := range chains {
		w, err := c.Measure(0, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("chain %d: %v (node carries %d bypasses)", i, err, cluster.BypassCount())
		}
		if w.Bypasses != 6 || w.Mpps <= 0 {
			t.Fatalf("chain %d measured %d own bypasses at %.3f Mpps, want 6 and traffic", i, w.Bypasses, w.Mpps)
		}
	}
	if got := cluster.BypassCount(); got != 12 {
		t.Fatalf("node carries %d bypasses, want both chains' 12", got)
	}
}

// TestDeployOrderNoStartupLoss: the deploy transaction starts generators
// after the last steering rule, so on a paced chain — vanilla or highway,
// one node or split over two — not one packet faces a table without its
// rule or a rule without its port, and the ledger closes at exactly zero.
func TestDeployOrderNoStartupLoss(t *testing.T) {
	opts := ChainOptions{Flows: 4, RatePps: 5_000}
	for _, mode := range []Mode{ModeVanilla, ModeHighway} {
		node, err := Start(Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Stop()
		cluster, err := StartCluster(ClusterConfig{Config: Config{Mode: mode}, TrunkRate: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Stop()
		switches := map[string][]*vswitch.Switch{"one node": {node.Internal().Switch}}
		for _, name := range cluster.NodeNames() {
			switches["split"] = append(switches["split"], cluster.Internal().Node(name).Switch)
		}
		for layout, deploy := range map[string]func() (*Chain, error){
			"one node": func() (*Chain, error) { return node.DeployBidirChain(3, opts) },
			"split":    func() (*Chain, error) { return cluster.DeploySplitChain(3, nil, opts) },
		} {
			c, err := deploy()
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); c.Received() < 1000 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			c.Pause(true)
			lost := c.Settle(settleTimeout)
			var misses, nowhere uint64
			for _, sw := range switches[layout] {
				dp := sw.DatapathStats()
				misses += dp.ClassifierMisses
				nowhere += dp.OutputNowhere
			}
			if lost != 0 || misses != 0 || nowhere != 0 || c.Received() < 1000 {
				t.Errorf("%v, %s: %d lost of %d sent (%d received), %d table misses, %d output to nowhere",
					mode, layout, lost, c.Sent(), c.Received(), misses, nowhere)
			}
			c.Stop()
		}
	}
}
