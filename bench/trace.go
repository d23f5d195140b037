package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed interval of a run. Times are nanoseconds since the run
// started; Parent is the ID of the enclosing span, -1 for the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer records the spans of one run in memory. All spans come from the
// harness's main goroutine, around its calls into the program, so the open
// span stack gives each new span its parent.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(runID string) *tracer {
	return &tracer{
		runID: runID,
		t0:    time.Now(),
		spans: make([]span, 0, 1024),
		open:  make([]int, 0, 8),
	}
}

// in runs fn inside a new span named name.
func (t *tracer) in(name string, fn func()) {
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// millis returns the durations, in ms, of every finished span called name
// whose parent's name starts with under.
func (t *tracer) millis(name, under string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 && s.Parent >= 0 && strings.HasPrefix(t.spans[s.Parent].Name, under) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// fillSelfTimes sets each span's self time: its duration minus the part of
// that interval its direct children cover. Children of one parent never
// overlap here (one goroutine opens and closes them in order), so coverage is
// the sum of their durations.
func fillSelfTimes(spans []span) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// write stores the spans, with self times, as <dir>/<workload>.trace.json.
func (t *tracer) write(dir, workload string) (string, error) {
	fillSelfTimes(t.spans)
	doc := struct {
		RunID    string `json:"run_id"`
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.runID, workload, t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
