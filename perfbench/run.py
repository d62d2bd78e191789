#!/usr/bin/env python3
"""The repo benchmark: build perfbench from source, run one workload, check it.

    python3 perfbench/run.py --workload table1|grade_suite|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is configured and built into
.bench_build/perfbench on first use (RelWithDebInfo, the repository default);
later runs rebuild incrementally. The program's stdout is passed through and
its last line, one JSON object with `correct`, `attempted`, `failed` and the
metrics, is checked against BENCHMARK.json before it is printed again as the
last line: with --trace 0 the metrics must be exactly the end_to_end ones,
with --trace 1 exactly the per_layer ones, each with its declared unit.

The exit code is 0 only for a correct run whose metrics match. A failed
build, a missing source tree, a wrong output or a moved golden exits 1
without a result line.

--size tiny (shrunken workloads) and --goldens FILE (another pin file) exist
for selftest.py.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("table1", "grade_suite", "serve_mix")
# Hard cap on one measuring process; the run itself is bounded by --seconds
# plus one pass.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources beside perfbench/ (src/CMakeLists.txt missing)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # Concurrent runs build once.
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Return the parsed result, or None with the reason printed."""
    try:
        result = json.loads(line)
    except ValueError:
        print("perfbench: last line is not JSON: " + line[:200], file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: unexpected result keys %s" % sorted(result), file=sys.stderr)
        return None
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s, "
              "wrong unit %s" % (missing, extra, units), file=sys.stderr)
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--goldens", default=os.path.join(HERE, "goldens.txt"))
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--goldens", args.goldens, "--out-dir", BUILD]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("measuring process exceeded %d s and was killed" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    result = check_result(lines[-1], args.trace == 1)
    if result is None:
        sys.exit(1)
    if proc.returncode != 0 or not result["correct"]:
        print(lines[-1])
        fail("run not correct (exit %d): see the messages above" % proc.returncode)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
