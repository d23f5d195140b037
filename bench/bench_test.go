package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	v := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.99: 49.6, 1: 50} {
		if got := quantile(v, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if v[0] != 10 || v[4] != 50 {
		t.Errorf("quantile reordered its input: %v", v)
	}
}

// The expected values are statistics.quantiles(v, n=4) of Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{9.1, 8.7, 9.4, 9.0, 8.9}, 8.8, 9.25},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
	if got := rangeShare([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("rangeShare = %v, want 0.2", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "cycle", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "deploy", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "stop", Start: 40, End: 55},
		{ID: 4, Parent: 0, Name: "window", Start: 60, End: 90},
	}
	fillSelfTimes(spans)
	for i, want := range []int64{20, 15, 20, 15, 30} {
		if spans[i].Self != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer("t")
	tr.in("run", func() {
		tr.in("a", func() { tr.in("b", func() {}) })
		tr.in("c", func() {})
	})
	for i, want := range []struct {
		name   string
		parent int
	}{{"run", -1}, {"a", 0}, {"b", 1}, {"c", 0}} {
		if s := tr.spans[i]; s.Name != want.name || s.Parent != want.parent || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s under %d", i, s, want.name, want.parent)
		}
	}
	if got := len(tr.millis("a", "run")); got != 1 {
		t.Errorf("millis(a under run) has %d entries, want 1", got)
	}
	if got := len(tr.millis("b", "run")); got != 0 {
		t.Errorf("millis(b under run) has %d entries, want 0", got)
	}
}

func readManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := loadManifest(filepath.Join("..", manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json is the only table of names, units and bounds; this holds it
// to what the program has and to the pipeline's rules for bounds.
func TestManifest(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name)
		}
	}
	// The pipeline takes bounds up to a quarter and wants setup_s to have the
	// largest.
	var setup, widest float64
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
		widest = max(widest, d.Bound)
	}
	if setup != widest {
		t.Errorf("setup_s is bounded at %v, another metric at %v: setup_s must have the largest bound", setup, widest)
	}
}

// TestQuickPass runs every workload's -quick pass, untraced and traced, and
// holds what it reports to BENCHMARK.json: the one-line result carries
// exactly the listed names, every end-to-end value is a positive number, every
// per-layer value finite, every correctness check passes, and each per-layer
// metric has a source on at least one workload.
func TestQuickPass(t *testing.T) {
	m := readManifest(t)
	out := t.TempDir()
	sourced := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, 7, refSeconds, trace, true, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			rep := encode(m, res)
			if !raceEnabled && (!rep.Correct || rep.Failed != 0) {
				t.Errorf("%s trace=%v: attempted %d failed %d, failed checks: %v", w.name, trace, rep.Attempted, rep.Failed, res.Problems)
			}
			defs := m.EndToEnd
			if trace {
				defs = m.PerLayer
			}
			listed := map[string]bool{}
			for _, d := range m.EndToEnd {
				listed[d.Name] = true
			}
			for _, d := range m.PerLayer {
				listed[d.Name] = true
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: reports %d metrics, BENCHMARK.json lists %d", w.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rep.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %+v (reported: %v), want a finite number of %s", w.name, trace, d.Name, v, ok, d.Unit)
				}
			}
			for name := range res.Values {
				if !listed[name] {
					t.Errorf("%s trace=%v: measures %s, which BENCHMARK.json does not list", w.name, trace, name)
				}
				sourced[name] = true
			}
			for _, d := range m.EndToEnd {
				if v := res.Values[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v, want a positive number", w.name, trace, d.Name, v)
				}
			}
			if trace {
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
	for _, d := range m.PerLayer {
		if !sourced[d.Name] {
			t.Errorf("no workload has a source for %s", d.Name)
		}
	}
}
