// Command benchjson converts `go test -bench` text output into JSON so
// bench baselines can be consumed by dashboards and scripts without
// re-parsing the textual format. It reads bench text from stdin (or the
// files named as arguments) and writes one JSON object per benchmark line:
//
//	go test -bench . -benchmem -count 5 . | tee BENCH_head.txt | benchjson > BENCH_head.json
//	benchjson BENCH_base.txt > BENCH_base.json
//
// Context lines (goos/goarch/pkg/cpu) are folded into every record; metric
// suffixes (ns/op, MB/s, B/op, allocs/op, and any custom unit) become
// fields of a metrics map, so repeated -count runs stay separate records
// for variance-aware consumers like benchstat.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// record is one benchmark result line.
type record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	Pkg        string             `json:"pkg,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
}

func main() {
	if len(os.Args) > 1 {
		for _, path := range os.Args[1:] {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			err = convert(f, os.Stdout)
			f.Close()
			if err != nil {
				fatal(err)
			}
		}
		return
	}
	if err := convert(os.Stdin, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// convert streams bench text from r to JSON lines on w.
func convert(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	enc := json.NewEncoder(w)
	var ctx record
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			ctx.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			ctx.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			ctx.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			ctx.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			rec, ok := parseBench(line, ctx)
			if !ok {
				continue // PASS/FAIL markers, truncated lines
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// parseBench decodes one "BenchmarkName  N  v1 unit1  v2 unit2 ..." line.
func parseBench(line string, ctx record) (record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	rec := ctx
	rec.Name = fields[0]
	rec.Iterations = iters
	rec.Metrics = make(map[string]float64, (len(fields)-2)/2)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return record{}, false
		}
		rec.Metrics[fields[i+1]] = v
	}
	return rec, true
}
