#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/spread.py [--workload W ...] [--runs 10] [--first-seed 1]

Runs run.py once per seed (first-seed, first-seed+1, ...) for each workload,
then prints for every end_to_end metric its median over the runs, the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of that median, and the bound from BENCHMARK.json. Spreads at or
above a third of the bound are marked: the benchmark aims to stay below
that, since the acceptance check allows the whole bound. The raw results go
to .bench_build/perfbench/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=workloads)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    worst = 0.0
    for w in args.workload or workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        log = os.path.join(ROOT, ".bench_build", "perfbench", "spread-%s.jsonl" % w)
        with open(log, "w") as out:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", "0"],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                if proc.returncode != 0:
                    sys.exit("%s seed %d failed:\n%s" % (w, seed, proc.stdout[-2000:]))
                result = json.loads(proc.stdout.strip().split("\n")[-1])
                out.write(json.dumps({"seed": seed, **result}) + "\n")
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            share = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            flag = "" if share < m["bound"] / 3 else "  <-- above bound/3"
            print("%-12s %-12s median %-12.6g spread %.4f  bound %.2f%s"
                  % (w, m["name"], med, share, m["bound"], flag))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
