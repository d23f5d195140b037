package highway

import (
	"testing"
	"time"
)

func startCluster(t *testing.T, mode Mode) *Cluster {
	t.Helper()
	c, err := StartCluster(ClusterConfig{
		Config:    Config{Mode: mode},
		Nodes:     []string{"node-a", "node-b"},
		TrunkRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestSplitChainPublicAPIBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeHighway} {
		t.Run(mode.String(), func(t *testing.T) {
			c := startCluster(t, mode)
			chain, err := c.DeploySplitChain(3, nil, ChainOptions{Flows: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer chain.Stop()

			// 5 chain VMs over 2 nodes ⇒ segments 3+2 ⇒ 3 intra-node hops.
			if got := chain.ExpectedBypasses(); got != 6 {
				t.Fatalf("ExpectedBypasses = %d, want 6", got)
			}
			if mode == ModeHighway {
				if !c.WaitBypasses(chain.ExpectedBypasses()) {
					t.Fatalf("bypasses = %d, want %d", c.BypassCount(), chain.ExpectedBypasses())
				}
				if c.NodeBypassCount("node-a") != 4 || c.NodeBypassCount("node-b") != 2 {
					t.Fatalf("per-node bypasses = %d/%d, want 4/2",
						c.NodeBypassCount("node-a"), c.NodeBypassCount("node-b"))
				}
			} else if c.BypassCount() != 0 {
				t.Fatal("vanilla cluster created bypasses")
			}
			// Poll for delivery instead of asserting on a timed window: under
			// race-detector slowdown a fixed window can measure zero.
			chain.ResetWindow()
			deadline := time.Now().Add(5 * time.Second)
			delivered := func() bool {
				return chain.ends[0].Received.Load() >= 1000 && chain.ends[1].Received.Load() >= 1000
			}
			for !delivered() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if !delivered() {
				t.Fatalf("split chain moved no traffic (end0=%d end1=%d received)",
					chain.ends[0].Received.Load(), chain.ends[1].Received.Load())
			}
		})
	}
}

func TestSplitChainHighwayNotSlowerThanVanilla(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative throughput needs a real measurement window")
	}
	// Best of three alternating windows per mode: the host is shared with
	// every other package's busy-poll loops, and interference only subtracts
	// from a window (bench/README.md's upper-envelope argument).
	measure := func(mode Mode) float64 {
		c := startCluster(t, mode)
		defer c.Stop()
		chain, err := c.DeploySplitChain(3, nil, ChainOptions{Flows: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer chain.Stop()
		w, err := chain.Measure(200*time.Millisecond, 500*time.Millisecond)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return w.Mpps
	}
	best := map[Mode]float64{}
	for round := 0; round < 3; round++ {
		for _, mode := range []Mode{ModeVanilla, ModeHighway} {
			best[mode] = max(best[mode], measure(mode))
		}
	}
	vanilla, hw := best[ModeVanilla], best[ModeHighway]
	t.Logf("split chain: vanilla %.3f Mpps, highway %.3f Mpps", vanilla, hw)
	if hw < vanilla {
		t.Fatalf("highway (%.3f Mpps) slower than vanilla (%.3f Mpps) on the split chain", hw, vanilla)
	}
}

func TestClusterNoBufferLeakAcrossDeployments(t *testing.T) {
	c := startCluster(t, ModeHighway)
	for i := 0; i < 3; i++ {
		chain, err := c.DeploySplitChain(2, nil, ChainOptions{})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		c.WaitBypasses(chain.ExpectedBypasses())
		time.Sleep(20 * time.Millisecond)
		chain.Stop()
		for _, name := range c.NodeNames() {
			pool := c.Internal().Node(name).Pool
			if pool.Avail() != pool.Cap() {
				t.Fatalf("cycle %d: node %s pool leaked %d buffers",
					i, name, pool.Cap()-pool.Avail())
			}
		}
	}
}
