package highway

// Benchmark harness: one benchmark per paper artifact (Figures 3(a), 3(b),
// the latency claim, the ~100 ms setup-time claim) plus the ablations from
// DESIGN.md (A1 EMC, A2 batch size, A3 detector overhead).
//
// Throughput points are reported as the custom metric "Mpps"; the paper's
// absolute numbers will not match (simulated substrate), but the relative
// shape — highway ≫ vanilla, the gap widening with chain length, the NIC
// cap flattening Figure 3(b) — reproduces. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or get the formatted paper-style tables from `go run ./cmd/repro`.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/flow/flowtest"
	"ovshighway/internal/mempool"
	"ovshighway/internal/nic"
	"ovshighway/internal/openflow"
	"ovshighway/internal/pkt"
	"ovshighway/internal/vnf"
	"ovshighway/internal/vswitch"
)

// benchCfg keeps per-iteration measurement windows short so `go test
// -bench=.` completes in minutes; cmd/repro uses longer windows.
var benchCfg = ExperimentConfig{
	Warmup: 100 * time.Millisecond,
	Window: 300 * time.Millisecond,
	Flows:  4,
}

// BenchmarkFig3a regenerates Figure 3(a): memory-only chains, the first and
// last VM acting as bidirectional 64B source/sink, for 2..8 total VMs.
func BenchmarkFig3a(b *testing.B) {
	for _, vms := range []int{2, 3, 4, 5, 6, 7, 8} {
		for _, mode := range []Mode{ModeVanilla, ModeHighway} {
			b.Run(fmt.Sprintf("vms=%d/mode=%s", vms, mode), func(b *testing.B) {
				var total float64
				for i := 0; i < b.N; i++ {
					row, err := RunFig3aPoint(vms, mode, benchCfg)
					if err != nil {
						b.Fatal(err)
					}
					total += row.Mpps
				}
				b.ReportMetric(total/float64(b.N), "Mpps")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkFig3b regenerates Figure 3(b): chains of 1..8 VMs fed and drained
// through two line-rate-limited 10G NICs.
func BenchmarkFig3b(b *testing.B) {
	for _, vms := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		for _, mode := range []Mode{ModeVanilla, ModeHighway} {
			b.Run(fmt.Sprintf("vms=%d/mode=%s", vms, mode), func(b *testing.B) {
				var total float64
				for i := 0; i < b.N; i++ {
					row, err := RunFig3bPoint(vms, mode, benchCfg)
					if err != nil {
						b.Fatal(err)
					}
					total += row.Mpps
				}
				b.ReportMetric(total/float64(b.N), "Mpps")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkLatency regenerates the latency claim (E3): one-way latency
// through memory-only chains; the paper reports ~80% improvement at 8 VMs.
func BenchmarkLatency(b *testing.B) {
	for _, vms := range []int{2, 4, 8} {
		for _, mode := range []Mode{ModeVanilla, ModeHighway} {
			b.Run(fmt.Sprintf("vms=%d/mode=%s", vms, mode), func(b *testing.B) {
				var p50 float64
				for i := 0; i < b.N; i++ {
					row, err := RunLatencyPoint(vms, mode, benchCfg)
					if err != nil {
						b.Fatal(err)
					}
					p50 += float64(row.P50.Nanoseconds())
				}
				b.ReportMetric(p50/float64(b.N), "p50-ns")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkSetupTime regenerates the setup-time claim (E4): flow-mod
// analysis to PMD-switched, with QEMU-realistic emulated control latencies
// (~30 ms per ivshmem hot-plug, ~5 ms per virtio-serial exchange — the
// regime that puts the paper at ~100 ms) and with zero emulation (the pure
// software cost of this implementation).
func BenchmarkSetupTime(b *testing.B) {
	cases := []struct {
		name            string
		hotplug, config time.Duration
	}{
		{"qemu-realistic", 30 * time.Millisecond, 5 * time.Millisecond},
		{"no-emulation", 0, 0},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				row, err := RunSetupTime(4, c.hotplug, c.config)
				if err != nil {
					b.Fatal(err)
				}
				mean += float64(row.Mean.Nanoseconds())
			}
			b.ReportMetric(mean/float64(b.N)/1e6, "setup-ms")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkAblationEMC (A1): single-hop vanilla forwarding with the
// exact-match cache on vs off, isolating the EMC's contribution to the
// per-hop vSwitch cost the bypass removes. The SMC tier is off in BOTH
// arms, so emc=off measures the full classifier walk rather than the
// second cache tier (its own axis is A5, BenchmarkAblationSMC).
func BenchmarkAblationEMC(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "emc=on"
		if disabled {
			name = "emc=off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchCfg
			cfg.EMCDisabled = disabled
			cfg.SMCDisabled = true
			var total float64
			for i := 0; i < b.N; i++ {
				row, err := RunFig3aPoint(2, ModeVanilla, cfg)
				if err != nil {
					b.Fatal(err)
				}
				total += row.Mpps
			}
			b.ReportMetric(total/float64(b.N), "Mpps")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkAblationBatch (A2): raw bypass-hop cost at different burst sizes,
// showing why the datapath works in batches of 32.
func BenchmarkAblationBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			pool := mempool.MustNew(mempool.Config{Capacity: 2048, BufSize: 256, Headroom: 32})
			_, pmdA, _ := dpdkr.NewPort(1, "a", 1024)
			_, pmdB, _ := dpdkr.NewPort(2, "b", 1024)
			link, _ := dpdkr.NewLink("l", 1, 2, 1024)
			pmdA.AttachTxBypass(link)
			pmdB.AttachRxBypass(link)
			bufs := make([]*mempool.Buf, batch)
			out := make([]*mempool.Buf, batch)
			pool.GetBatch(bufs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pmdA.Tx(bufs)
				pmdB.Rx(out)
			}
			b.SetBytes(int64(batch))
		})
	}
}

// BenchmarkAblationDetector (A3): flow-mod ingestion cost with and without
// the p-2-p detector listening, bounding the control-plane overhead the
// paper's modification adds to every flowmod.
func BenchmarkAblationDetector(b *testing.B) {
	for _, mode := range []Mode{ModeVanilla, ModeHighway} {
		b.Run(fmt.Sprintf("mode=%s", mode), func(b *testing.B) {
			node, err := Start(Config{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Stop()
			sw := node.Internal().Switch
			// Churn non-p2p rules (refined matches) so highway mode pays the
			// analysis without any plumbing.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fm := openflow.FlowMod{
					Command:  openflow.FlowCmdAdd,
					Priority: uint16(i % 100),
					Match:    flow.MatchInPort(uint32(i % 16)).WithL4Dst(uint16(i)),
					Actions:  flow.Actions{flow.Output(uint32(i%16 + 1))},
				}
				if err := sw.ApplyFlowMod(fm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPMDs (A4): vanilla chain throughput versus the number of
// vSwitch forwarding threads. The paper's baseline decay assumes the usual
// deployment of few shared PMD cores; more PMDs flatten the vanilla curve
// at the cost of burning cores the VNFs could have used — the bypass gets
// the flat curve for free.
func BenchmarkAblationPMDs(b *testing.B) {
	for _, pmds := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pmds=%d", pmds), func(b *testing.B) {
			cfg := benchCfg
			cfg.NumPMDs = pmds
			var total float64
			for i := 0; i < b.N; i++ {
				row, err := RunFig3aPoint(6, ModeVanilla, cfg)
				if err != nil {
					b.Fatal(err)
				}
				total += row.Mpps
			}
			b.ReportMetric(total/float64(b.N), "Mpps")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkAblationSMC (A5): flow-scale throughput with the signature-match
// cache on vs off, at a distinct-flow count past the EMC's reach (where the
// SMC tier is the one doing the work) — the second-tier twin of A1.
func BenchmarkAblationSMC(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "smc=on"
		if disabled {
			name = "smc=off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchCfg
			cfg.SMCDisabled = disabled
			var total float64
			for i := 0; i < b.N; i++ {
				row, err := RunFlowScalePoint(16384, 0, cfg)
				if err != nil {
					b.Fatal(err)
				}
				total += row.Mpps
			}
			b.ReportMetric(total/float64(b.N), "Mpps")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkClassifierSubtables measures TSS lookup cost against the number
// of distinct masks (subtables), the scaling dimension tuple-space search
// trades for update speed.
func BenchmarkClassifierSubtables(b *testing.B) {
	for _, masks := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("masks=%d", masks), func(b *testing.B) {
			tb := flow.NewTable()
			for i := 0; i < masks; i++ {
				// Each variant pins a different field combination → its own
				// mask → its own subtable.
				m := flow.MatchInPort(uint32(i))
				switch i % 4 {
				case 1:
					m = m.WithIPProto(17)
				case 2:
					m = m.WithL4Dst(uint16(1000 + i))
				case 3:
					m = m.WithIPProto(6).WithL4Src(uint16(2000 + i))
				}
				tb.Add(uint16(i), m, flow.Actions{flow.Output(1)}, 0)
			}
			k := flow.Key{InPort: 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Lookup(&k)
			}
		})
	}
}

// alwaysDisplace is the zero flow.Admission: the benchmarks that fill a cache
// by hand let every insertion evict.
var alwaysDisplace flow.Admission

// BenchmarkEMCLookup pins the cost of the cache-tier lookups the PMD pays
// on every steady-state packet: a hit in the exact-match cache (first
// tier) and in the signature-match cache (second tier, probed on EMC
// miss), both validated against the table's add/modify generation. Zero
// allocations — CI gates every line.
func BenchmarkEMCLookup(b *testing.B) {
	tb := flow.NewTable()
	f := tb.Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	key := flow.Key{InPort: 1, EthType: 0x0800, IPProto: 17, L4Src: 5000, L4Dst: 9000}
	kp := key.Pack()
	hash64 := kp.Hash64()
	gen := tb.Generation()
	b.Run("emc", func(b *testing.B) {
		emc := flow.NewEMC(8192)
		emc.Put(&kp, hash64, f, gen, &alwaysDisplace)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if emc.Probe(&kp, hash64, gen) == nil {
				b.Fatal("unexpected EMC miss")
			}
		}
	})
	b.Run("smc", func(b *testing.B) {
		smc := flow.NewSMC(32768)
		smc.Put(hash64, f, gen, &alwaysDisplace)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if hit, _ := smc.Probe(&kp, hash64, gen); hit == nil {
				b.Fatal("unexpected SMC miss")
			}
		}
	})
}

// BenchmarkLookupChurn is the death-mark invalidation headline: steady
// traffic over a fixed key set while UNRELATED flows are deleted from the
// table (idle-expiry / co-resident-teardown churn). Under the legacy
// global-version scheme (every mutation bumps the generation the cache
// validates against) each delete stampedes the whole EMC onto the
// classifier and the hit rate collapses toward 0%. Under the death-mark
// scheme (Table.Generation moves only on add/modify; deletes mark their
// flow dead) the EMC keeps hitting through the churn. The emc-hit-%
// metric is the comparison; acceptance wants >90% for death-mark.
func BenchmarkLookupChurn(b *testing.B) {
	const (
		trafficKeys = 256
		victims     = 4096
		churnEvery  = 16 // one unrelated delete per 16 lookups
	)
	for _, scheme := range []string{"global-version", "death-mark"} {
		b.Run(scheme, func(b *testing.B) {
			tb := flow.NewTable()
			tb.Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
			specs, matches := churnVictims(victims)
			tb.AddBatch(specs)
			gen := func() uint64 {
				if scheme == "global-version" {
					return tb.Version()
				}
				return tb.Generation()
			}
			kps := make([]flow.Packed, trafficKeys)
			hashes := make([]uint64, trafficKeys)
			for i := range kps {
				k := flow.Key{InPort: 1, EthType: 0x0800, IPProto: 17, L4Src: uint16(i), L4Dst: 9000}
				kps[i] = k.Pack()
				hashes[i] = kps[i].Hash64()
			}
			emc := flow.NewEMC(8192)
			nextVictim := 0
			var hits, lookups uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%churnEvery == churnEvery-1 {
					if nextVictim == victims {
						// Victims exhausted on a long run: restock outside
						// the measured churn pattern (one add-generation
						// bump per 4096 deletes — negligible either way).
						b.StopTimer()
						tb.AddBatch(specs)
						nextVictim = 0
						b.StartTimer()
					}
					tb.DeleteStrict(5, matches[nextVictim])
					nextVictim++
				}
				j := i % trafficKeys
				g := gen()
				f := emc.Probe(&kps[j], hashes[j], g)
				if f != nil {
					hits++
				} else if f = tb.LookupPacked(&kps[j]); f != nil {
					emc.Put(&kps[j], hashes[j], f, g, &alwaysDisplace)
				}
				lookups++
			}
			b.ReportMetric(100*float64(hits)/float64(lookups), "emc-hit-%")
		})
	}
}

// BenchmarkConntrack pins the stateful-VNF fast path: the sharded
// connection table every NAT44/ACL/balancer consults per packet. hit is the
// established-connection case (the overwhelming majority at steady state),
// miss the first-packet probe, and churn the worst case — connections
// opening and closing every iteration, cycling entries through the arena
// freelist and forcing tombstone reclaim and bucket compaction. All three
// must report 0 allocs/op: like the PMD forwarding path, connection
// tracking never touches the heap — CI gates every line.
func BenchmarkConntrack(b *testing.B) {
	const conns = 65536
	keys := make([]conntrack.Key, conns)
	for i := range keys {
		keys[i] = conntrack.Key{
			Src:     pkt.IP4{10, byte(i >> 16), byte(i >> 8), byte(i)},
			Dst:     pkt.IP4{10, 99, 0, 1},
			SrcPort: uint16(1024 + i%60000),
			DstPort: 80,
			Proto:   pkt.ProtoUDP,
		}
	}
	newTable := func(b *testing.B) *conntrack.Table {
		// Headroom over the connection count: the arena is split evenly
		// across shards but Hash2 spreads keys only statistically evenly.
		t, err := conntrack.New(conntrack.Config{Shards: 4, Capacity: conns + conns/8, IdleTimeout: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	b.Run("hit", func(b *testing.B) {
		t := newTable(b)
		for _, k := range keys {
			if t.Insert(k, 1) == nil {
				b.Fatal("insert failed during setup")
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if t.Lookup(keys[i%conns], int64(i)+2) == nil {
				b.Fatal("unexpected conntrack miss")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		t := newTable(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if t.Lookup(keys[i%conns], int64(i)) != nil {
				b.Fatal("unexpected conntrack hit")
			}
		}
	})
	b.Run("churn", func(b *testing.B) {
		// Quarter-full table, every iteration closes the oldest connection
		// and opens a new one: constant tombstone creation, freelist reuse,
		// and periodic compaction — the expiry-churn steady state.
		t := newTable(b)
		const live = conns / 4
		for i := 0; i < live; i++ {
			if t.Insert(keys[i], 1) == nil {
				b.Fatal("insert failed during setup")
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Remove(keys[i%conns])
			if t.Insert(keys[(i+live)%conns], int64(i)+2) == nil {
				b.Fatal("churn insert failed")
			}
		}
	})
}

// BenchmarkClassifierLookup pins the EMC-miss cost: a full tuple-space-search
// walk on the already-packed key (the PMD never re-packs on the miss path).
func BenchmarkClassifierLookup(b *testing.B) {
	tb := flow.NewTable()
	for i := 0; i < 16; i++ {
		m := flow.MatchInPort(uint32(i))
		switch i % 4 {
		case 1:
			m = m.WithIPProto(17)
		case 2:
			m = m.WithL4Dst(uint16(1000 + i))
		case 3:
			m = m.WithIPProto(6).WithL4Src(uint16(2000 + i))
		}
		tb.Add(uint16(i), m, flow.Actions{flow.Output(1)}, 0)
	}
	key := flow.Key{InPort: 3, EthType: 0x0800, IPProto: 6, L4Src: 2003}
	kp := key.Pack()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.LookupPacked(&kp)
	}
}

// BenchmarkPMDBatch drives full 32-packet bursts through a running vSwitch
// PMD — parse, EMC, flow grouping, action execution, accumulator flush — and
// must report 0 allocs/op: the steady-state forwarding path performs no heap
// allocation. The vlan variant exercises the trunk-lane receive path (tag
// parse + vlan-match + PCP rewrite + pop) and the ecmp variant the
// hash-pinned multi-path output; all must stay zero-alloc — CI gates every
// line.
func BenchmarkPMDBatch(b *testing.B) {
	b.Run("untagged", func(b *testing.B) { benchPMDBatch(b, 0) })
	b.Run("vlan", func(b *testing.B) { benchPMDBatch(b, 7) })
	b.Run("ecmp", benchPMDBatchECMP)
	b.Run("ecmp-adaptive", benchPMDBatchECMPAdaptive)
}

func benchPMDBatch(b *testing.B, vid uint16) {
	sw := vswitch.New(vswitch.Config{SweepInterval: time.Hour})
	pool := mempool.MustNew(mempool.Config{Capacity: 2048})
	sw.SetInjectionPool(pool)
	portA, pmdA, _ := dpdkr.NewPort(1, "a", 1024)
	portB, pmdB, _ := dpdkr.NewPort(2, "b", 1024)
	sw.AddPort(portA)
	sw.AddPort(portB)
	spec := DefaultTrafficSpec()
	if vid == 0 {
		sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	} else {
		// The receive path of a QoS-scheduled trunk lane: match the tag,
		// restamp its priority (the PCP set path), strip it, deliver.
		spec.VlanID = vid
		sw.Table().Add(10, flow.MatchInPort(1).WithVlan(vid),
			flow.Actions{flow.SetVlanPcp(5), flow.PopVlan(), flow.Output(2)}, 0)
	}
	if err := sw.Start(); err != nil {
		b.Fatal(err)
	}
	defer sw.Stop()

	raw := make([]byte, 256)
	n, _ := pkt.BuildUDP(raw, spec)
	bufs := make([]*mempool.Buf, 32)
	out := make([]*mempool.Buf, 32)
	refill := func() {
		// The pop action strips the tag in flight, so the vlan variant
		// re-stamps the frames before re-transmitting (SetBytes is a copy
		// into the existing buffer — no allocation).
		if vid != 0 {
			for _, buf := range bufs {
				buf.SetBytes(raw[:n])
			}
		}
	}
	for i := range bufs {
		bufs[i], _ = pool.Get()
		bufs[i].SetBytes(raw[:n])
	}
	// Warm the path (EMC entry, accumulator capacities) before counting.
	pmdA.Tx(bufs)
	for got := 0; got < 32; {
		got += rxYield(pmdB, out)
	}
	refill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent := pmdA.Tx(bufs)
		got := 0
		for got < sent {
			got += rxYield(pmdB, out)
		}
		refill()
	}
	b.SetBytes(32)
}

// benchPMDBatchECMP drives bursts through an output_ecmp rule spreading
// over two destinations: per-packet Hash2 path pinning plus the live-port
// probe, all of which must stay inside the zero-alloc budget.
func benchPMDBatchECMP(b *testing.B) {
	sw := vswitch.New(vswitch.Config{SweepInterval: time.Hour})
	pool := mempool.MustNew(mempool.Config{Capacity: 2048})
	sw.SetInjectionPool(pool)
	portA, pmdA, _ := dpdkr.NewPort(1, "a", 1024)
	portB, pmdB, _ := dpdkr.NewPort(2, "b", 1024)
	portC, pmdC, _ := dpdkr.NewPort(3, "c", 1024)
	sw.AddPort(portA)
	sw.AddPort(portB)
	sw.AddPort(portC)
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.OutputECMP(2, 3)}, 0)
	if err := sw.Start(); err != nil {
		b.Fatal(err)
	}
	defer sw.Stop()

	raw := make([]byte, 256)
	spec := DefaultTrafficSpec()
	bufs := make([]*mempool.Buf, 32)
	out := make([]*mempool.Buf, 32)
	for i := range bufs {
		// 32 distinct flows so the burst genuinely spreads across both
		// destinations (one flow per buffer → stable per-buffer pin).
		spec.SrcPort = uint16(5000 + i)
		n, _ := pkt.BuildUDP(raw, spec)
		bufs[i], _ = pool.Get()
		bufs[i].SetBytes(raw[:n])
	}
	rxBoth := func() int {
		k := pmdB.Rx(out)
		k += pmdC.Rx(out[k:])
		if k == 0 {
			runtime.Gosched()
		}
		return k
	}
	// Warm the path (EMC entries, accumulator capacities) before counting.
	pmdA.Tx(bufs)
	for got := 0; got < 32; {
		got += rxBoth()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent := pmdA.Tx(bufs)
		got := 0
		for got < sent {
			got += rxBoth()
		}
	}
	b.SetBytes(32)
}

// benchPMDBatchECMPAdaptive drives the same ECMP spread with the
// congestion-aware repick path ACTIVE: the destinations are NIC ports —
// which export congestion gauges, so portEntry.cong is non-nil — and one
// gauge is pinned at saturation. Every action execution therefore reads the
// per-path gauges and every packet's pick scans past the avoided slot; the
// CI allocation gate holds this at 0 allocs/op like every PMDBatch variant.
func benchPMDBatchECMPAdaptive(b *testing.B) {
	sw := vswitch.New(vswitch.Config{SweepInterval: time.Hour})
	pool := mempool.MustNew(mempool.Config{Capacity: 2048})
	sw.SetInjectionPool(pool)
	portA, pmdA, _ := dpdkr.NewPort(1, "a", 1024)
	nicB, _ := nic.New(nic.Config{ID: 2, Name: "b", QueueSize: 1024, RatePps: -1})
	nicC, _ := nic.New(nic.Config{ID: 3, Name: "c", QueueSize: 1024, RatePps: -1})
	sw.AddPort(portA)
	sw.AddPort(nicB)
	sw.AddPort(nicC)
	// Path B congested: the first batch repicks the avoid mask onto it and
	// every later batch re-reads the gauges, confirms, and steers around.
	nicB.CongestionGauge().Store(255)
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.OutputECMP(2, 3)}, 0)
	if err := sw.Start(); err != nil {
		b.Fatal(err)
	}
	defer sw.Stop()

	raw := make([]byte, 256)
	spec := DefaultTrafficSpec()
	bufs := make([]*mempool.Buf, 32)
	drain := make([]*mempool.Buf, 64)
	for i := range bufs {
		spec.SrcPort = uint16(5000 + i)
		n, _ := pkt.BuildUDP(raw, spec)
		bufs[i], _ = pool.Get()
		bufs[i].SetBytes(raw[:n])
	}
	// The datapath is zero-copy end to end: the drained buffers ARE the
	// injected ones, re-sent next iteration — drain only, never free.
	rxBoth := func() int {
		k := nicB.DrainToWire(drain)
		k += nicC.DrainToWire(drain[k:])
		if k == 0 {
			runtime.Gosched()
		}
		return k
	}
	pmdA.Tx(bufs)
	for got := 0; got < 32; {
		got += rxBoth()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent := pmdA.Tx(bufs)
		got := 0
		for got < sent {
			got += rxBoth()
		}
	}
	b.SetBytes(32)
}

// rxYield polls the PMD once and yields the core when nothing arrived, so a
// single-core host hands the processor to the switch thread instead of
// spinning out its scheduling quantum.
func rxYield(pmd *dpdkr.PMD, out []*mempool.Buf) int {
	k := pmd.Rx(out)
	if k == 0 {
		runtime.Gosched()
	}
	return k
}

// stageFlows is the working set of the stage benchmarks: 256 flows differing
// in source port, resident in the EMC like a chain's, and enough distinct
// keys that neither the hash nor the cache probe sees one hot input.
const stageFlows = 256

var stageSink uint64

// BenchmarkStage times the per-packet stages of one vSwitch hop, each alone
// on the calling goroutine (no switch thread, no hand-off), one packet per
// op: the datapath's one header walk, which validates the frame, packs its
// key and hashes it in the same pass (packframe), hash a stored key (hash64
// — what the control plane and the adapters call), probe the EMC in place;
// and the Parser the VNF apps decode with (parse), which the datapath no
// longer runs. They are the deterministic lines CI holds to the committed
// baseline (BENCH_base.txt), and they must not allocate. The hash seed is
// pinned so every run probes the same EMC sets.
func BenchmarkStage(b *testing.B) {
	flow.PinHashSeed(b, flowtest.Seeds[0])
	tb := flow.NewTable()
	f := tb.Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	gen := tb.Generation()
	emc := flow.NewEMC(8192)
	spec := DefaultTrafficSpec()
	frames := make([][]byte, stageFlows)
	kps := make([]flow.Packed, stageFlows)
	hashes := make([]uint64, stageFlows)
	for i := range frames {
		spec.SrcPort = uint16(1000 + i)
		raw := make([]byte, 64)
		n, err := pkt.BuildUDP(raw, spec)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = raw[:n]
		hashes[i], _, _, _ = flow.PackFrame(frames[i], 1, &kps[i])
		if _, evicted := emc.Put(&kps[i], hashes[i], f, gen, &alwaysDisplace); evicted {
			b.Fatalf("flow %d evicted another from its EMC set: the working set must stay resident", i)
		}
	}
	b.Run("parse", func(b *testing.B) {
		var p pkt.Parser
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p.Parse(frames[i%stageFlows]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packframe", func(b *testing.B) {
		var kp flow.Packed
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, _, _, ok := flow.PackFrame(frames[i%stageFlows], 1, &kp)
			if !ok {
				b.Fatal("frame rejected")
			}
			stageSink += h
		}
		stageSink += uint64(kp[31])
	})
	b.Run("hash64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stageSink += kps[i%stageFlows].Hash64()
		}
	})
	b.Run("emc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % stageFlows
			if emc.Probe(&kps[j], hashes[j], gen) == nil {
				b.Fatal("unexpected EMC miss")
			}
		}
	})
}

// processBatchRig is the fixture of the synchronous whole-hop benchmarks: a
// switch that is never started, two ports forwarding to each other, and one
// 32-frame burst of the default UDP frame from the returned pool.
func processBatchRig() (sw *vswitch.Switch, pmdA, pmdB *dpdkr.PMD, pool *mempool.Pool, bufs []*mempool.Buf) {
	sw = vswitch.New(vswitch.Config{SweepInterval: time.Hour})
	pool = mempool.MustNew(mempool.Config{Capacity: 2048})
	portA, pmdA, _ := dpdkr.NewPort(1, "a", 1024)
	portB, pmdB, _ := dpdkr.NewPort(2, "b", 1024)
	sw.AddPort(portA)
	sw.AddPort(portB)
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	sw.Table().Add(10, flow.MatchInPort(2), flow.Actions{flow.Output(1)}, 0)

	raw := make([]byte, 256)
	n, _ := pkt.BuildUDP(raw, DefaultTrafficSpec())
	bufs = make([]*mempool.Buf, 32)
	for i := range bufs {
		bufs[i], _ = pool.Get()
		bufs[i].SetBytes(raw[:n])
	}
	return sw, pmdA, pmdB, pool, bufs
}

// BenchmarkProcessBatch is BenchmarkPMDBatch/untagged without the two
// goroutine hand-offs per burst: the switch is never started, and each op
// pushes one 32-packet burst into the ingress ring, runs one forwarding-loop
// iteration on the calling goroutine (Switch.PollOnce: receive, header walk
// — validate, key, hash — EMC, group, output, flush) and takes the burst off
// the egress ring. ns/pkt is what one hop costs a packet; 0 allocs/op,
// CI-gated. udp is the default UDP frame. malformed mixes every hostile
// shape the walk keys stricter than the parser (lying TotalLen, IHL < 5,
// fragments, a half VLAN tag, a cut IPv6/UDP header), forwarded like any
// frame, with four frames too short for Ethernet that the switch drops as
// parse errors: the benchmark replaces those from the pool each op.
func BenchmarkProcessBatch(b *testing.B) {
	b.Run("udp", func(b *testing.B) {
		sw, pmdA, pmdB, _, bufs := processBatchRig()
		benchProcessBatch(b, func() {
			if pmdA.Tx(bufs) != len(bufs) || sw.PollOnce() != len(bufs) || pmdB.Rx(bufs) != len(bufs) {
				b.Fatal("burst did not cross the switch whole")
			}
		}, len(bufs))
	})
	b.Run("malformed", func(b *testing.B) {
		sw, pmdA, pmdB, pool, bufs := processBatchRig()
		var shapes [][]byte
		for _, f := range flowtest.HostileFrames(b) {
			shapes = append(shapes, f)
		}
		const runts = 4 // frames too short for Ethernet, at the burst's tail
		kept := len(bufs) - runts
		runt := shapes[0][:pkt.EthernetLen-1]
		for i, buf := range bufs {
			f := runt
			if i < kept {
				f = shapes[i%len(shapes)]
			}
			buf.SetBytes(f)
		}
		benchProcessBatch(b, func() {
			if pmdA.Tx(bufs) != len(bufs) || sw.PollOnce() != len(bufs) || pmdB.Rx(bufs[:kept]) != kept {
				b.Fatal("burst did not cross the switch as shaped")
			}
			if pool.GetBatch(bufs[kept:]) != runts {
				b.Fatal("pool exhausted")
			}
			for _, buf := range bufs[kept:] {
				buf.SetBytes(runt)
			}
		}, len(bufs))
		if d := sw.DatapathStats(); d.ParseErrors == 0 {
			b.Fatal("no frame was dropped as a parse error")
		}
	})
}

// benchProcessBatch times burst, which moves pkts frames across the switch,
// after one warm-up call that fills the EMC and the accumulator capacities.
func benchProcessBatch(b *testing.B, burst func(), pkts int) {
	burst()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pkts), "ns/pkt")
}

// BenchmarkProcessBatchMiss is BenchmarkProcessBatch on a working set no
// cache can hold: 65 536 UDP source ports cycled in order, each crossing the
// switch twice (in on port 1, then in on port 2), so 131 072 distinct keys
// come round against an 8192-entry EMC and a 32 768-entry SMC — the
// nic1-flows64k shape without the NICs. One op is one 32-frame burst in each
// direction; ns/pkt is what a hop costs when most lookups end in the
// classifier, and the three percentages are where the window's lookups
// resolved (they sum to 100 with dedup-%, which this traffic keeps at 0).
// 0 allocs/op, CI-gated.
func BenchmarkProcessBatchMiss(b *testing.B) {
	const flows = 1 << 16
	sw, pmdA, pmdB, _, bufs := processBatchRig()
	next := 0
	burst := func() {
		for _, buf := range bufs {
			fb := buf.Bytes()
			fb[rigSrcPortOff], fb[rigSrcPortOff+1] = byte(next>>8), byte(next)
			fb[rigSrcPortOff+6], fb[rigSrcPortOff+7] = 0, 0 // UDP checksum: not computed
			next = (next + 1) & (flows - 1)
		}
		if pmdA.Tx(bufs) != len(bufs) || sw.PollOnce() != len(bufs) || pmdB.Rx(bufs) != len(bufs) ||
			pmdB.Tx(bufs) != len(bufs) || sw.PollOnce() != len(bufs) || pmdA.Rx(bufs) != len(bufs) {
			b.Fatal("burst did not cross the switch whole")
		}
	}
	for i := 0; i < 2*flows/len(bufs); i++ {
		burst() // two passes over the working set: the caches hold what they will keep
	}
	before := sw.DatapathStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(bufs)), "ns/pkt")
	d := sw.DatapathStats().Delta(before)
	walks := d.ClassifierHits + d.ClassifierMisses
	if total := float64(d.EMC.Hits + d.SMC.Hits + d.DedupHits + walks); total > 0 {
		b.ReportMetric(100*float64(d.EMC.Hits)/total, "emc-%")
		b.ReportMetric(100*float64(d.SMC.Hits)/total, "smc-%")
		b.ReportMetric(100*float64(walks)/total, "cls-%")
	}
}

// BenchmarkStatefulHop is BenchmarkProcessBatch for the stateful VNFs: each
// handler — NAT44 outbound, the ACL's established bypass, the balancer's
// toBackend — driven synchronously (App.PollOnce on a never-started app) over
// one 32-frame burst of 32 established connections: in on port 0, the header
// walk, the conntrack probe, the rewrite, out on port 1. The frames are
// written afresh before each burst because NAT44 and the balancer rewrite
// them in place (the ACL pays the same copy, so the three lines compare).
// ns/op over 32 is what one stateful hop costs a packet without the goroutine
// hand-offs; 0 allocs/op, CI-gated.
func BenchmarkStatefulHop(b *testing.B) {
	vip := pkt.IP4{10, 99, 0, 1}
	newCT := func(b *testing.B) *conntrack.Table {
		ct, err := conntrack.New(conntrack.Config{Capacity: 4096})
		if err != nil {
			b.Fatal(err)
		}
		return ct
	}
	for _, c := range []struct {
		name  string
		build func(b *testing.B, in, out *dpdkr.PMD, pool *mempool.Pool) (*vnf.App, error)
	}{
		{"nat44", func(b *testing.B, in, out *dpdkr.PMD, pool *mempool.Pool) (*vnf.App, error) {
			app, _, err := vnf.NewNAT44("nat", in, out, pool, vnf.NAT44Config{ExtIP: pkt.IP4{192, 0, 2, 1}, PortBase: 40000, PortCount: 64, Table: newCT(b)})
			return app, err
		}},
		{"acl", func(b *testing.B, in, out *dpdkr.PMD, pool *mempool.Pool) (*vnf.App, error) {
			app, _, err := vnf.NewACL("acl", in, out, pool, newCT(b), []vnf.ACLRule{{
				Priority: 100, Match: flow.MatchAll().WithIPProto(pkt.ProtoUDP).WithIPDst(vip, 32).WithL4Dst(80), Allow: true,
			}}, false)
			return app, err
		}},
		{"balancer", func(b *testing.B, in, out *dpdkr.PMD, pool *mempool.Pool) (*vnf.App, error) {
			app, _, err := vnf.NewBalancer("lb", in, out, pool, vnf.BalancerConfig{VIP: vip, VIPPort: 80, Table: newCT(b),
				Backends: []vnf.Backend{{IP: pkt.IP4{10, 1, 0, 1}, Port: 8080}, {IP: pkt.IP4{10, 1, 0, 2}, Port: 8080}}})
			return app, err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			pool := mempool.MustNew(mempool.Config{Capacity: 1024})
			hostIn, pmdIn, _ := dpdkr.NewPort(1, "in", 1024)
			hostOut, pmdOut, _ := dpdkr.NewPort(2, "out", 1024)
			app, err := c.build(b, pmdIn, pmdOut, pool)
			if err != nil {
				b.Fatal(err)
			}
			spec := DefaultTrafficSpec()
			spec.DstIP, spec.DstPort = vip, 80
			bufs := make([]*mempool.Buf, 32)
			frames := make([][]byte, len(bufs))
			for i := range bufs {
				spec.SrcPort = uint16(5000 + i)
				frames[i] = make([]byte, pkt.MinFrame)
				if _, err := pkt.BuildUDP(frames[i], spec); err != nil {
					b.Fatal(err)
				}
				bufs[i], _ = pool.Get()
			}
			burst := func() {
				for i, buf := range bufs {
					buf.SetBytes(frames[i])
				}
				if hostIn.Send(bufs) != len(bufs) || app.PollOnce() != len(bufs) || hostOut.Recv(bufs) != len(bufs) {
					b.Fatal("burst did not cross the app whole")
				}
			}
			burst() // the first packets establish the 32 connections
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				burst()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(bufs)), "ns/pkt")
		})
	}
}

// BenchmarkMempool times what the two ends of a chain pay the buffer pool per
// burst — allocate 32 buffers, free them — on the calling goroutine: straight
// against the shared freelist ring (uncached: one bulk dequeue, one bulk
// enqueue, a locked counter add each) and through a mempool.Cache (cached:
// the free feeds the next allocation, so the steady state never reaches the
// ring). ns/op over 32 is the per-packet cost; 0 allocs/op, CI-gated.
func BenchmarkMempool(b *testing.B) {
	pool := mempool.MustNew(mempool.Config{Capacity: 2048})
	cache := pool.NewCache()
	bufs := make([]*mempool.Buf, 32)
	run := func(b *testing.B, get func([]*mempool.Buf) int, free func([]*mempool.Buf)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if get(bufs) != len(bufs) {
				b.Fatal("pool ran dry")
			}
			free(bufs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(bufs)), "ns/pkt")
	}
	b.Run("uncached", func(b *testing.B) { run(b, pool.GetBatch, mempool.FreeBatch) })
	b.Run("cached", func(b *testing.B) { run(b, cache.GetBatch, cache.FreeBatch) })
	cache.Flush()
	if pool.Avail() != pool.Cap() {
		b.Fatalf("pool leaked: %d of %d free", pool.Avail(), pool.Cap())
	}
}

// BenchmarkVSwitchSingleHop is the vanilla per-hop reference point: one
// packet crossing the full EMC→classifier→action datapath.
func BenchmarkVSwitchSingleHop(b *testing.B) {
	sw := vswitch.New(vswitch.Config{})
	pool := mempool.MustNew(mempool.Config{Capacity: 2048})
	sw.SetInjectionPool(pool)
	portA, pmdA, _ := dpdkr.NewPort(1, "a", 1024)
	portB, pmdB, _ := dpdkr.NewPort(2, "b", 1024)
	sw.AddPort(portA)
	sw.AddPort(portB)
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	if err := sw.Start(); err != nil {
		b.Fatal(err)
	}
	defer sw.Stop()

	spec := DefaultTrafficSpec()
	raw := make([]byte, 256)
	n, _ := pkt.BuildUDP(raw, spec)
	bufs := make([]*mempool.Buf, 32)
	out := make([]*mempool.Buf, 32)
	for i := range bufs {
		bufs[i], _ = pool.Get()
		bufs[i].SetBytes(raw[:n])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent := pmdA.Tx(bufs)
		got := 0
		for got < sent {
			got += rxYield(pmdB, out)
		}
	}
	b.SetBytes(32)
}

// BenchmarkPMDScale measures forwarding-thread scaling on a single hot
// multi-queue port: 32 flows RSS-fanned over 4 RX queues, each queue homed
// on its own PMD (round-robin), a closed-loop shuttle keeping every queue
// fed. On a ≥4-core host 4 PMDs must deliver at least 3× the Mpps of 1 PMD;
// hosts without the cores (or race-instrumented builds, or windows too short
// to trust) skip the scaling assertion but still report the per-point Mpps.
func BenchmarkPMDScale(b *testing.B) {
	type point struct {
		mpps    float64
		elapsed time.Duration
	}
	results := make(map[int]point)
	for _, pmds := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pmds=%d", pmds), func(b *testing.B) {
			mpps := benchPMDScale(b, pmds, 4)
			results[pmds] = point{mpps: mpps, elapsed: b.Elapsed()}
		})
	}
	r1, ok1 := results[1]
	r4, ok4 := results[4]
	if !ok1 || !ok4 {
		return // sub-benchmark filter excluded an endpoint
	}
	if runtime.NumCPU() < 4 || raceEnabled ||
		r1.elapsed < 100*time.Millisecond || r4.elapsed < 100*time.Millisecond {
		return
	}
	if r4.mpps < 3*r1.mpps {
		b.Fatalf("4 PMDs reached %.2f Mpps, want >= 3x the 1-PMD %.2f Mpps", r4.mpps, r1.mpps)
	}
}

func benchPMDScale(b *testing.B, pmds, queues int) float64 {
	sw := vswitch.New(vswitch.Config{NumPMDs: pmds, SweepInterval: time.Hour})
	pool := mempool.MustNew(mempool.Config{Capacity: 2048})
	sw.SetInjectionPool(pool)
	portGen, pmdGen, _ := dpdkr.NewPortMQ(1, "gen", 1024, queues)
	portSink, pmdSink, _ := dpdkr.NewPort(2, "sink", 1024)
	sw.AddPort(portGen)
	sw.AddPort(portSink)
	sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
	if err := sw.Start(); err != nil {
		b.Fatal(err)
	}
	defer sw.Stop()

	spec := DefaultTrafficSpec()
	raw := make([]byte, 256)
	bufs := make([]*mempool.Buf, 32)
	out := make([]*mempool.Buf, 32)
	for i := range bufs {
		// 32 distinct flows so the guest RSS genuinely spreads the burst
		// over all queues (and so every PMD sees work each iteration).
		spec.SrcPort = uint16(5000 + i)
		n, _ := pkt.BuildUDP(raw, spec)
		bufs[i], _ = pool.Get()
		bufs[i].SetBytes(raw[:n])
	}
	// Warm the path: EMC entries for all 32 flows, accumulator capacities.
	pmdGen.Tx(bufs)
	for got := 0; got < 32; {
		got += rxYield(pmdSink, out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent := pmdGen.Tx(bufs)
		got := 0
		for got < sent {
			got += rxYield(pmdSink, out)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	mpps := 0.0
	if elapsed > 0 {
		mpps = float64(b.N) * 32 / elapsed.Seconds() / 1e6
	}
	b.ReportMetric(mpps, "Mpps")
	b.SetBytes(32)
	return mpps
}
