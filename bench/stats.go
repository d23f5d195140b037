package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values for an
// even count), 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the q-quantile (0..1) of v by linear interpolation between
// closest ranks, 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method) — the rule the
// benchmark pipeline uses for its spread check, so the A/A self-check and the
// pipeline agree to the digit. Needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// iqrShare is the inter-quartile distance of v as a share of its median.
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// rangeShare is (max-min)/median of v.
func rangeShare(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return (s[len(s)-1] - s[0]) / median(v)
}

// hostFacts describes the machine a report was taken on.
type hostFacts struct {
	NProc    int     `json:"nproc"`
	CPU      string  `json:"cpu"`
	Go       string  `json:"go"`
	LoadAvg1 float64 `json:"loadavg_1min"`
	// NoisyHost is set when the 1-minute load average exceeds nproc/2:
	// something else was competing for the cores while the run measured.
	NoisyHost bool `json:"noisy_host"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NProc: runtime.NumCPU(),
		Go:    runtime.Version(),
		CPU:   procField("/proc/cpuinfo", "model name"),
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	h.NoisyHost = h.LoadAvg1 > float64(h.NProc)/2
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// file, "" if the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseFloat(f[0], 64)
	return kb / 1024
}
