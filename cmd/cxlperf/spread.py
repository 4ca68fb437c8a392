#!/usr/bin/env python3
"""Runs cxlperf several times per workload, each with another seed, and
prints each metric's median, quartiles and spread (IQR over median).

Run from the repository root:

    python3 cmd/cxlperf/spread.py --runs 10 > spread.json

Workloads and run length default to BENCHMARK.json's. The quartiles are
statistics.quantiles(values, n=4). The output is the stability baseline
format recorded in cmd/cxlperf/BASELINE.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

with open("BENCHMARK.json") as f:
    BENCHMARK = json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    args = ap.parse_args()
    out = {}
    for w in args.workloads.split(","):
        per_metric = {}
        units = {}
        for i in range(args.runs):
            res = run_once(w, args.first_seed + i, args.seconds, args.trace)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{w} seed {args.first_seed + i}: incorrect output")
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            sys.stderr.write(f"{w} run {i + 1}/{args.runs} done\n")
        out[w] = {name: dict(summarize(vs), unit=units[name]) for name, vs in sorted(per_metric.items())}
    json.dump(out, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
