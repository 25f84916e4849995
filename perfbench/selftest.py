#!/usr/bin/env python3
"""Self-test of the repo benchmark, at tiny sizes (--smoke).

Checks that every workload emits every metric of BENCHMARK.json with its
unit in both modes, that the output parses, that a planted ledger
mismatch makes the correctness check fail, and that the benchmark fails
without printing a result when the program sources are missing.

    python3 perfbench/selftest.py
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("sim-badnet", "tcp-steady", "tcp-fallback")


def run(args, cwd=ROOT):
    p = subprocess.run([sys.executable] + args, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().split("\n") if p.stdout.strip() else []
    return p.returncode, lines, p.stderr


def result(lines):
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for wl in WORKLOADS:
        for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines, err = run([RUN, "--workload", wl, "--seed", "3", "--seconds", "60",
                                    "--trace", trace, "--smoke"])
            res = result(lines)
            expect(code == 0 and res is not None,
                   "%s trace=%s exits 0 with a result" % (wl, trace))
            if res is None:
                print(err[-2000:])
                continue
            want = {m["name"]: m["unit"] for m in spec[table]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == want,
                   "%s trace=%s emits every %s metric with its unit" % (wl, trace, table))
            expect(res["correct"] is True and res["attempted"] >= 1,
                   "%s trace=%s is correct with attempted >= 1" % (wl, trace))

        code, lines, _ = run([RUN, "--workload", wl, "--seed", "3", "--seconds", "60",
                              "--trace", "0", "--smoke", "--plant-mismatch"])
        res = result(lines)
        expect(code == 1 and res is not None and res["correct"] is False,
               "%s with a planted ledger mismatch fails its correctness check" % wl)

    # Only BENCHMARK.json and perfbench/: no program sources to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(["perfbench/run.py", "--workload", "sim-badnet", "--seed", "1",
                          "--seconds", "10", "--trace", "0"], cwd=bare)
    expect(code != 0 and result(lines) is None, "without program sources: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
