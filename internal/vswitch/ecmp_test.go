package vswitch

import (
	"testing"
	"time"

	"ovshighway/internal/flow"
	"ovshighway/internal/flow/flowtest"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
)

// drainTo pulls everything waiting on a guest PMD and returns the UDP
// source ports of the drained frames (the flow axis of these tests).
func (e *testEnv) drainTo(id uint32, seen map[uint16]int) int {
	out := make([]*mempool.Buf, 32)
	total := 0
	for {
		n := e.pmds[id].Rx(out)
		if n == 0 {
			return total
		}
		for _, b := range out[:n] {
			var p pkt.Parser
			if err := p.Parse(b.Bytes()); err == nil && p.Decoded.Has(pkt.LayerUDP) {
				seen[p.UDP.SrcPort()]++
			}
			b.Free()
		}
		total += n
	}
}

// TestECMPOutputPinsFlows: an output_ecmp action spreads distinct flows
// over its parallel ports, but every packet of one flow always leaves by
// the same port — per-flow path pinning, the property that keeps TCP-like
// flows in order across a multi-trunk uplink. It holds under every pinned
// hash seed.
func TestECMPOutputPinsFlows(t *testing.T) {
	flowtest.ForEachSeed(t, testECMPOutputPinsFlows)
}

func testECMPOutputPinsFlows(t *testing.T) {
	env := newEnv(t, Config{}, 3)
	env.sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.OutputECMP(2, 3)}, 0)

	const flows = 32
	const rounds = 8
	spec := defaultSpec
	for r := 0; r < rounds; r++ {
		for f := 0; f < flows; f++ {
			spec.SrcPort = uint16(5000 + f)
			env.sendUDP(t, 1, spec)
		}
	}
	seen2 := map[uint16]int{}
	seen3 := map[uint16]int{}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < flows*rounds && time.Now().Before(deadline) {
		got += env.drainTo(2, seen2)
		got += env.drainTo(3, seen3)
		time.Sleep(time.Millisecond)
	}
	if got != flows*rounds {
		t.Fatalf("delivered %d of %d packets", got, flows*rounds)
	}
	// Pinning: no flow appears on both ports, and every flow delivered all
	// its rounds on its one port.
	for fp, n := range seen2 {
		if seen3[fp] != 0 {
			t.Fatalf("flow %d straddles ports: %d on port 2, %d on port 3", fp, n, seen3[fp])
		}
		if n != rounds {
			t.Fatalf("flow %d delivered %d of %d packets on port 2", fp, n, rounds)
		}
	}
	for fp, n := range seen3 {
		if n != rounds {
			t.Fatalf("flow %d delivered %d of %d packets on port 3", fp, n, rounds)
		}
	}
	// Spreading: with 32 flows over 2 paths, both paths carry some.
	if len(seen2) == 0 || len(seen3) == 0 {
		t.Fatalf("flows did not spread: %d on port 2, %d on port 3", len(seen2), len(seen3))
	}
}

// TestECMPOutputFallsForwardOnDeadPort: when a selected ECMP port leaves
// the switch (a torn-down trunk), its flows re-pin onto the surviving
// ports on the very next batch — no rule rewrite, no packet loss beyond
// what was in flight.
func TestECMPOutputFallsForwardOnDeadPort(t *testing.T) {
	env := newEnv(t, Config{}, 3)
	env.sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.OutputECMP(2, 3)}, 0)

	const flows = 16
	send := func() {
		spec := defaultSpec
		for f := 0; f < flows; f++ {
			spec.SrcPort = uint16(5000 + f)
			env.sendUDP(t, 1, spec)
		}
	}
	recvAll := func(want int, ports ...uint32) map[uint32]map[uint16]int {
		seen := map[uint32]map[uint16]int{}
		for _, id := range ports {
			seen[id] = map[uint16]int{}
		}
		got := 0
		deadline := time.Now().Add(5 * time.Second)
		for got < want && time.Now().Before(deadline) {
			for _, id := range ports {
				got += env.drainTo(id, seen[id])
			}
			time.Sleep(time.Millisecond)
		}
		if got != want {
			t.Fatalf("delivered %d of %d packets", got, want)
		}
		return seen
	}

	send()
	before := recvAll(flows, 2, 3)
	if len(before[3]) == 0 {
		t.Skip("hash pinned no flows to port 3; nothing to fail over")
	}

	// Port 3 dies (its trunk was torn down). The rule still lists it.
	if err := env.sw.RemovePort(3); err != nil {
		t.Fatal(err)
	}
	env.sw.WaitDatapathQuiescence()
	send()
	after := recvAll(flows, 2)
	if len(after[2]) != flows {
		t.Fatalf("only %d of %d flows reached the surviving port", len(after[2]), flows)
	}
	// Flows that were pinned to port 2 must still be there (their pin never
	// moved), and port 3's flows re-pinned onto 2.
	for fp := range before[2] {
		if after[2][fp] == 0 {
			t.Fatalf("flow %d lost its surviving pin after unrelated port death", fp)
		}
	}
	for fp := range before[3] {
		if after[2][fp] == 0 {
			t.Fatalf("flow %d did not re-pin onto the surviving port", fp)
		}
	}
}
