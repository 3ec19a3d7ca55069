#!/usr/bin/env python3
"""Oracle self-test: a planted wrong expected value must be caught.

Runs every workload of the benchmark binary with --plant-wrong (one
expected value corrupted) and checks that the run reports failed
operations, error_rate > 0, success_rate < 1, correct == false, and
exits non-zero.

Usage: test_planted.py <path to the perfbench binary>
"""

import json
import subprocess
import sys

WORKLOADS = ["paper_grid", "kv_durable", "crash_sweep", "ir_native"]


def check(exe, workload):
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", "0", "--plant-wrong"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.decode().strip().splitlines()
    problems = []
    if proc.returncode == 0:
        problems.append("exit status 0")
    if len(lines) < 2:
        return problems + ["no result printed"]
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    if result["correct"] is not False:
        problems.append("correct is not false")
    if result["failed"] < 1:
        problems.append("failed = %d" % result["failed"])
    if detail["error_rate"]["value"] <= 0:
        problems.append("error_rate = %r" % detail["error_rate"]["value"])
    if result["metrics"]["success_rate"]["value"] >= 1:
        problems.append("success_rate = 1")
    return problems


def main():
    exe = sys.argv[1]
    ok = True
    for w in WORKLOADS:
        problems = check(exe, w)
        print("%-12s %s" % (w, "ok" if not problems else
                            "FAIL: " + "; ".join(problems)))
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
