#!/usr/bin/env python3
"""Measures a baseline of the g80 benchmark and writes perfbench/baseline.json.

    python3 perfbench/baseline.py [--runs 10] [--workloads a,b] [--out FILE]

For each workload in BENCHMARK.json: `--runs` untraced runs, each on its own
seed (DEFAULT_SEED, DEFAULT_SEED + 1, ...), then one traced run on the
default seed and one on the held-out seed. Records per end-to-end metric the
median, quartiles (Python's statistics.quantiles, n=4) and the spread
(quartile distance over the median, the figure each bound is checked
against), the traced runs' per-layer values and the stamp of every run.
Every run must reproduce its workload's digest in perfbench/digests.txt
(the benchmark itself fails a run that does not). Run from the repository
root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The seed every claim is tuned and shown on, and a second seed that no
# change is tuned against; a claimed gain must also hold on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20081


def run(workload, seed, seconds, trace):
    p = subprocess.run(
        ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("%s seed %d trace %d failed (%d):\n%s" % (workload, seed, trace, p.returncode, p.stderr))
    result = json.loads(lines[-1])
    stamp = next(json.loads(l[len("stamp "):]) for l in lines if l.startswith("stamp "))
    return result, stamp


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "samples": len(values),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default=os.path.join(ROOT, "perfbench", "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    out = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    if os.path.exists(args.out):
        with open(args.out) as f:
            out["workloads"] = json.load(f).get("workloads", {})
    for w in names:
        why = next(x["why"] for x in bench["workloads"] if x["name"] == w)
        values, stamps = {}, []
        for i in range(args.runs):
            seed = DEFAULT_SEED + i
            r, stamp = run(w, seed, bench["run_seconds"], 0)
            if not r["correct"]:
                sys.exit("%s seed %d: incorrect" % (w, seed))
            stamps.append(stamp)
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(w, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            r, stamp = run(w, seed, bench["run_seconds"], 1)
            stamps.append(stamp)
            traced[str(seed)] = {k: v["value"] for k, v in r["metrics"].items()}
        out["workloads"][w] = {
            "why": why,
            "end_to_end": {k: summary(v) for k, v in values.items()},
            "per_layer": traced,
            "stamps": stamps,
        }
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
