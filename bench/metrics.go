package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the benchmark reports.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64 `json:"bound"`
}

// manifestFile is the benchmark's contract, at the root of the repository,
// from where run.sh starts the program.
const manifestFile = "BENCHMARK.json"

// manifest is the part of BENCHMARK.json the program reports by: the names,
// units and bounds live there and nowhere in the Go source, so the two cannot
// drift. Later issues refer to these names verbatim.
type manifest struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	// EndToEnd are the gated metrics, the same on every workload, always taken
	// from an untraced run.
	EndToEnd []metricDef `json:"end_to_end"`
	// PerLayer are the ungated metrics of a traced run, layer = package name.
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("the benchmark runs from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics listed", path)
	}
	return &m, nil
}
