// Command bench is the repository's benchmark: four named workloads run on
// one core, three gated end-to-end metrics, and — in a traced run — a
// per-layer cost ledger. See README.md for the method and BENCHMARK.json at
// the repository root for the contract.
//
//	bash bench/run.sh -workload chain8-highway -seed 1            # one run
//	bash bench/run.sh -workload chain8-highway -seed 1 -trace 1   # per-layer run
//	bash bench/run.sh -all                                        # every workload
//	bash bench/run.sh -aa 5 > bench/AA.json                       # A/A self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// refSeconds is the length of the run shape (run.go) and BENCHMARK.json's
// run_seconds; hardCap is the wall-clock limit of one run, set-up, paced
// phase and teardown included.
const (
	refSeconds = 22
	hardCap    = 30 * time.Second
	traceDir   = "bench/out"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: chain8-highway, chain8-vanilla, nic1-flows64k or stateful2n")
		seed    = flag.Int64("seed", 1, "seed of every generated input (tuple base, flow order)")
		seconds = flag.Float64("seconds", refSeconds, "seconds the run measures, as the benchmark pipeline passes them; below 22 every phase shrinks in proportion, above 22 is read as 22")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/<workload>.trace.json")
		all     = flag.Bool("all", false, "run every workload, each in a process of its own")
		aa      = flag.Int("aa", 0, "A/A self-check: every workload in two interleaved sets of this many runs")
		quick   = flag.Bool("quick", false, "smoke pass: 1 window x 200 ms, 2 set-up cycles")
	)
	flag.Parse()
	m, err := loadManifest(manifestFile)
	if err == nil {
		switch secs := min(*seconds, refSeconds); {
		case secs < 1:
			err = fmt.Errorf("-seconds %v: want at least 1", *seconds)
		case *aa > 0:
			err = selfCheck(m, *aa, secs)
		case *all:
			err = runAll(*seed, secs, *trace != 0, *quick)
		default:
			err = runOne(m, *name, *seed, secs, *trace != 0, *quick)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that reported but failed a correctness check.
var errIncorrect = fmt.Errorf("correctness checks failed")

func runOne(m *manifest, name string, seed int64, seconds float64, trace, quick bool) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have chain8-highway, chain8-vanilla, nic1-flows64k, stateful2n)", name)
	}
	// A run that overshoots its budget is a broken run, not a slow one.
	watchdog := time.AfterFunc(hardCap, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded %v, aborting without a report\n", name, hardCap)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := runWorkload(w, seed, seconds, trace, quick, traceDir)
	if err != nil {
		return err
	}
	report(m, res)
	if len(res.Problems) > 0 {
		return errIncorrect
	}
	return nil
}

// encode builds the one-line result: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one. The pipeline wants every listed
// metric on the line, so one the workload has no source for (absent from
// res.Values; report prints it as n/a) is carried as 0. A metric that is not
// a finite number fails the run.
func encode(m *manifest, res *result) childReport {
	defs := m.EndToEnd
	if res.Trace {
		defs = m.PerLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := res.Values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Problems = append(res.Problems, fmt.Sprintf("metric %s is not finite", d.Name))
			v = 0
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return childReport{Correct: len(res.Problems) == 0, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: metrics}
}

// series formats samples, scaled, for a comment line of the report.
func series(v []float64, scale float64) string {
	var b strings.Builder
	for _, x := range v {
		fmt.Fprintf(&b, " %.4g", x*scale)
	}
	return b.String()
}

// report prints every metric that applies to the workload by name with its
// unit, then — as the last line of standard output — the one-line JSON result.
func report(m *manifest, res *result) {
	rep := encode(m, res)
	h := res.Host
	fmt.Printf("# %s seed=%d trace=%v elapsed=%.1fs GOMAXPROCS=%d nproc=%d go=%s loadavg=%.2f noisy_host=%v cpu=%q\n",
		res.Workload, res.Seed, res.Trace, res.Elapsed.Seconds(), runtime.GOMAXPROCS(0), h.NProc, h.Go, h.LoadAvg1, h.NoisyHost, h.CPU)
	defs := m.EndToEnd
	if res.Trace {
		for _, d := range m.EndToEnd {
			fmt.Printf("# reference %-28s %14.6g %s\n", d.Name, res.Values[d.Name], d.Unit)
		}
		defs = m.PerLayer
	}
	for _, d := range defs {
		if _, ok := res.Values[d.Name]; !ok {
			fmt.Printf("# %-28s %14s (%s has no source for it)\n", d.Name, "n/a", res.Workload)
			continue
		}
		fmt.Printf("%-30s %14.6g %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	if res.Trace {
		perPkt, sum := 1000/res.Values["mpps"], stackSum(res.Stack)
		fmt.Printf("# per-packet cost stack, %s (1000/mpps = %.1f ns):\n", res.Workload, perPkt)
		for _, row := range res.Stack {
			fmt.Printf("#   %8.1f ns x %4.1f = %8.1f ns  %s\n", row.Ns, row.Calls, row.Ns*row.Calls, row.Stage)
		}
		fmt.Printf("#   sum %.1f ns, residual %.1f ns (%.1f %%)\n", sum, perPkt-sum, res.Values["highway.budget_residual_pct"])
		fmt.Printf("# spans written to %s\n", res.TraceFile)
	}
	mid := median(res.Windows)
	fmt.Printf("# saturation windows: median %.6g Mpps, %.1f %% below mpps (their 90th percentile)\n", mid, 100*(1-mid/res.Values["mpps"]))
	fmt.Printf("# windows Mpps:%s\n", series(res.Windows, 1))
	fmt.Printf("# set-up cycles us:%s\n", series(res.Cycles, 1e6))
	fmt.Printf("# paced phase: attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Printf("# FAILED CHECK: %s\n", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Println(string(line))
}
