#!/usr/bin/env python3
"""Same-runner A/B of the repo benchmark: is a change slower than its parent?

    python3 .github/perf_ab.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. For every
workload in BENCHMARK.json, perfbench/run.py runs PAIRS times in each
checkout, parent and change alternating and the side that goes first
alternating too, so a host that drifts over the session loads both sides
alike. Each run uses its own checkout's run.py, build and goldens, so both
sides are also checked for correctness.

For each workload and end-to-end metric the script prints both medians, the
parent's interquartile range (IQR) and how many pairs the change lost (ties
count for neither side). It exits 1 when any run fails or is incorrect, or
when, on any workload, for wall_s or cpu_s, the change loses at least
LOSS_PAIRS of the pairs and its median is worse than the parent's by more
than the parent's IQR. Every run's result goes to
CHANGE_DIR/.bench_build/perf_ab.jsonl, one JSON object a line.
"""

import json
import os
import statistics
import subprocess
import sys
import time

PAIRS = 10
LOSS_PAIRS = 9
SECONDS = 5
GATED = ("wall_s", "cpu_s")


def run(checkout, workload, seed):
    """One run.py invocation; returns the parsed result line or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return result


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sides = {"parent": os.path.abspath(sys.argv[1]),
             "change": os.path.abspath(sys.argv[2])}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    log_path = os.path.join(sides["change"], ".bench_build", "perf_ab.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)

    start = time.monotonic()
    failed = False
    with open(log_path, "w") as log:
        for w in (w["name"] for w in spec["workloads"]):
            values = {side: {m["name"]: [] for m in spec["end_to_end"]}
                      for side in sides}
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run(sides[side], w, pair + 1)
                    log.write(json.dumps({"workload": w, "pair": pair, "side": side,
                                          "seed": pair + 1, "result": result}) + "\n")
                    log.flush()
                    if result is None:
                        print("FAIL %s pair %d: the %s run failed or was incorrect"
                              % (w, pair, side))
                        sys.exit(1)
                    for name, v in values[side].items():
                        v.append(result["metrics"][name]["value"])
                    print("%s pair %d %s: wall_s %.4g" % (
                        w, pair, side, values[side]["wall_s"][-1]), flush=True)
            print("%-12s %-12s %12s %12s %12s %5s" % (
                "workload", "metric", "parent_med", "change_med", "parent_iqr", "lost"))
            for m in spec["end_to_end"]:
                p, c = values["parent"][m["name"]], values["change"][m["name"]]
                sign = 1 if m["better"] == "lower" else -1
                lost = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
                q1, _, q3 = statistics.quantiles(p, n=4)
                worse_by = sign * (statistics.median(c) - statistics.median(p))
                slower = lost >= LOSS_PAIRS and worse_by > q3 - q1
                verdict = ""
                if m["name"] in GATED:
                    verdict = "SLOWER" if slower else "ok"
                    failed |= slower
                print("%-12s %-12s %12.6g %12.6g %12.6g %2d/%-2d %s" % (
                    w, m["name"], statistics.median(p), statistics.median(c),
                    q3 - q1, lost, PAIRS, verdict))
    print("runs: %s; total wall time %.0f s" % (log_path, time.monotonic() - start))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
