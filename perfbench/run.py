#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the pbench program (and the program's libraries) from source under
.bench_build/, runs one workload, checks that the result carries exactly
the metrics BENCHMARK.json declares, and prints pbench's output with
the JSON result as the last line.

    python3 perfbench/run.py --workload sim-badnet --seed 1 --seconds 30 --trace 0

Extra flags for the benchmark's own self-test: --smoke (tiny sizes) and
--plant-mismatch (corrupt one ledger copy; the run must then fail).
Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments or
missing sources, 3 a build or output-format failure, 4 timeout.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "run")
# tcp-fallback is kept for runs by hand but is not in BENCHMARK.json: the
# program stalls on it now and then (README.md, "Workloads").
WORKLOADS = ("sim-badnet", "tcp-steady", "tcp-fallback")
RUN_TIMEOUT_S = 170


def die(code, msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die(3, "cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "pbench", "-j", "3"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die(3, "build failed")
    return os.path.join(BUILD, "pbench")


def check_result(line, spec, trace):
    """Returns the parsed result, or exits if it breaks the format."""
    try:
        res = json.loads(line)
    except ValueError:
        die(3, "last output line is not JSON: %r" % line[:200])
    if not isinstance(res, dict) or sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        die(3, "result keys must be correct, attempted, failed, metrics")
    if not isinstance(res["correct"], bool):
        die(3, "correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or res[k] < 0:
            die(3, "%s must be a whole number" % k)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if sorted(got) != sorted(want):
        die(3, "metric names differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if sorted(m) != ["unit", "value"] or m["unit"] != want[name]:
            die(3, "metric %s must carry value and unit %s" % (name, want[name]))
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            die(3, "metric %s has a non-numeric value" % name)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--plant-mismatch", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die(2, "--seed must be >= 0 and --seconds > 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(2, "program sources not found next to perfbench/ (need src/)")
    if not os.path.exists(spec_path):
        die(2, "BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)

    binary = build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--workdir", WORK]
    if args.smoke:
        cmd.append("--smoke")
    if args.plant_mismatch:
        cmd.append("--plant-mismatch")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(4, "pbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        die(3, "pbench exited with %d and no result" % proc.returncode)
    res = check_result(lines[-1], spec, args.trace == "1")
    for line in lines[:-1]:
        print(line)
    print("diag %-40s %18.6f s" % ("run.wall_s", time.monotonic() - start))
    print(lines[-1])
    sys.stdout.flush()
    if not res["correct"] or proc.returncode != 0:
        sys.exit(1)


if __name__ == "__main__":
    main()
