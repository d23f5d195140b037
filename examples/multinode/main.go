// Multinode: boot a 2-node cluster joined by a shared VLAN-steered 10G
// trunk, split a 3-forwarder bidirectional chain across the nodes, and
// compare highway against vanilla. The chain's intra-node hops still become
// direct VM-to-VM channels in highway mode; only the single trunk hop stays
// on the NIC path — the paper's mechanism composed with a real scale-out
// topology.
package main

import (
	"fmt"
	"log"
	"time"

	"ovshighway"
)

func measure(mode highway.Mode) float64 {
	cluster, err := highway.StartCluster(highway.ClusterConfig{
		Config: highway.Config{Mode: mode},
		Nodes:  []string{"node-a", "node-b"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	chain, err := cluster.DeploySplitChain(3, nil, highway.ChainOptions{Flows: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer chain.Stop()

	seg := chain.Segments()
	fmt.Printf("  placement: %d VMs on node-a, %d on node-b (1 trunk lane)\n", seg[0], seg[1])
	// Measure waits for the highway to come up, warms up, then reads one
	// measurement window.
	w, err := chain.Measure(200*time.Millisecond, 500*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	if mode == highway.ModeHighway {
		fmt.Printf("  %d direct VM-to-VM channels up (node-a: %d, node-b: %d)\n",
			w.Bypasses, cluster.NodeBypassCount("node-a"), cluster.NodeBypassCount("node-b"))
	}
	return w.Mpps
}

func main() {
	fmt.Println("cluster: node-a ═(10G VLAN trunk)═ node-b")
	fmt.Println("chain:   end0 ⇄ vnf1 ⇄ vnf2 │ vnf3 ⇄ end1 (bidirectional 64B, │ = trunk lane)")

	fmt.Println("\nvanilla cluster (every hop through its node's vSwitch):")
	vanilla := measure(highway.ModeVanilla)
	fmt.Printf("  %.3f Mpps\n", vanilla)

	fmt.Println("\nhighway cluster (intra-node hops bypassed):")
	hw := measure(highway.ModeHighway)
	fmt.Printf("  %.3f Mpps\n", hw)

	fmt.Printf("\nspeedup across the split chain: %.2fx\n", hw/vanilla)
}
