// Quickstart: boot a highway node, deploy a 3-VM forwarder chain with
// bidirectional 64B traffic, watch the bypasses come up, and compare the
// throughput against the vanilla baseline — the paper's headline result in
// thirty lines of API.
package main

import (
	"fmt"
	"log"
	"time"

	"ovshighway"
)

func measure(mode highway.Mode) float64 {
	node, err := highway.Start(highway.Config{Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Stop()

	chain, err := node.DeployBidirChain(3, highway.ChainOptions{Flows: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer chain.Stop()

	// Measure waits for the highway to come up, warms up, then reads one
	// measurement window.
	w, err := chain.Measure(200*time.Millisecond, 500*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	if mode == highway.ModeHighway {
		fmt.Printf("  %d direct VM-to-VM channels established\n", w.Bypasses)
	}
	return w.Mpps
}

func main() {
	fmt.Println("chain: end0 ⇄ vnf1 ⇄ vnf2 ⇄ vnf3 ⇄ end1 (bidirectional 64B)")

	fmt.Println("vanilla OvS-DPDK (every hop through the vSwitch):")
	vanilla := measure(highway.ModeVanilla)
	fmt.Printf("  throughput: %.3f Mpps\n", vanilla)

	fmt.Println("transparent highway (hops bypass the vSwitch):")
	fast := measure(highway.ModeHighway)
	fmt.Printf("  throughput: %.3f Mpps\n", fast)

	fmt.Printf("speedup: %.2fx — same VMs, same rules, zero VNF changes\n", fast/vanilla)
}
