#!/usr/bin/env python3
"""Run-to-run spreads behind the benchmark's run shape and bounds.

python3 bench/evidence/shapes.py

samples.json: every window and set-up cycle of ten runs per workload. For each
workload, the ten runs' value of each candidate estimator, summarised as the
median, the quartile distance over the median (the spread the benchmark
pipeline holds to a metric's bound) and (max-min)/median. All estimators are
computed from the same samples, so the comparison is of method, not of luck.

passes.json and ../AA.json: the end-to-end metrics of five more passes of ten
runs per workload, summarised the same way.
"""
import json
import os
import statistics as st


def quantile(v, q):
    s = sorted(v)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def passes(v, n=9):
    return [v[i:i + n] for i in range(0, len(v), n)]


MPPS = {
    # what a few long windows would have read: one 2.25 s window per pass
    "median of 8 x 2.25 s": lambda v: st.median(st.mean(p) for p in passes(v)),
    "median of 72 x 0.25 s": lambda v: quantile(v, 0.5),
    "p90 of 72 x 0.25 s (mpps)": lambda v: quantile(v, 0.9),
}
SETUP = {
    "median of the cycles (setup_s)": lambda v: quantile(v, 0.5),
    "p25 of the cycles": lambda v: quantile(v, 0.25),
    "fastest cycle": min,
}


def summary(x):
    q1, _, q3 = st.quantiles(x, n=4)
    m = st.median(x)
    return f"median {m:9.4g}  quartile spread {100 * (q3 - q1) / m:5.1f} %  range {100 * (max(x) - min(x)) / m:5.1f} %"


def main():
    here = os.path.dirname(__file__)
    runs = json.load(open(os.path.join(here, "samples.json")))["runs"]
    for w in sorted({r["workload"] for r in runs}):
        mine = sorted((r for r in runs if r["workload"] == w), key=lambda r: r["order"])
        print(f"{w}: {len(mine)} runs")
        for key, unit, ests in (("windows_mpps", "Mpps", MPPS), ("setup_us", "us", SETUP)):
            for name, f in ests.items():
                print(f"  {name:32s} {unit:4s} {summary([f(r[key]) for r in mine])}")
    passes = json.load(open(os.path.join(here, "passes.json")))["passes"]
    aa = json.load(open(os.path.join(here, "..", "AA.json")))["workloads"]
    passes.append({"label": "the committed AA.json", "workloads": {
        w: {name: v["sets"][0] + v["sets"][1] for name, v in metrics.items()} for w, metrics in aa.items()}})
    for p in passes:
        print(p["label"])
        for w, metrics in p["workloads"].items():
            for name, x in metrics.items():
                print(f"  {w:15s} {name:8s} {summary(x)}")


if __name__ == "__main__":
    main()
