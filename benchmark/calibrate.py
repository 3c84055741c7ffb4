#!/usr/bin/env python3
"""Repeats the benchmark the way the driver does and prints, per workload and
end-to-end metric, the median, the quartiles and the spread (interquartile
distance as a share of the median) of each set of runs, and how far the second
set's median is worse than the first's. Run from the repo root:

    python3 benchmark/calibrate.py [--runs 10] [--sets 2] [--workload NAME]

A metric is steady enough when every spread is below a third of its bound."""
import argparse
import json
import statistics
import subprocess
import sys

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--sets", type=int, default=2)
ap.add_argument("--workload", action="append")
ap.add_argument("--raw", help="also write every run's values to this JSON file")
args = ap.parse_args()

spec = json.load(open("BENCHMARK.json"))
seed = 0
raw = {}
for w in spec["workloads"]:
    if args.workload and w["name"] not in args.workload:
        continue
    sets = []
    for _ in range(args.sets):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for _ in range(args.runs):
            seed += 1
            cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w['name']} seed {seed}: incorrect: {res}")
            for name, v in res["metrics"].items():
                values[name].append(v["value"])
        sets.append(values)
    raw[w["name"]] = sets
    print(f"\n### {w['name']}\n")
    print("| metric | set | median | q1 | q3 | spread | bound | 2nd median worse by |")
    print("|---|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        first = statistics.median(sets[0][m["name"]])
        for i, values in enumerate(sets):
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            worse = ""
            if i > 0:
                d = (med - first) / first
                worse = f"{(d if m['better'] == 'lower' else -d):+.2%}"
            print(f"| {m['name']} | {i + 1} | {med:.5g} | {q1:.5g} | {q3:.5g} | {(q3 - q1) / med:.2%} | {m['bound']:.0%} | {worse} |")
    sys.stdout.flush()
if args.raw:
    json.dump(raw, open(args.raw, "w"), indent=1)
