package highway

import (
	"slices"
	"testing"
	"time"
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
