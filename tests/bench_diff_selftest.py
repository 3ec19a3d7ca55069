#!/usr/bin/env python3
"""Self-test of scripts/bench_diff.py's gate: plant one change at a
time into copies of the checked-in BENCH_*.json goldens and require
the exit code the gate promises for it.

Usage: bench_diff_selftest.py <repo-root>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

GOLDENS = ("fig11", "micro", "static", "fault", "txn", "exec",
           "concurrent")


def main():
    root = sys.argv[1]
    diff = os.path.join(root, "scripts", "bench_diff.py")
    failures = []

    def golden(name):
        with open(os.path.join(root, f"BENCH_{name}.json"),
                  encoding="utf-8") as f:
            return json.load(f)

    def expect(what, want, old, new):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for side, doc in (("old", old), ("new", new)):
                paths.append(os.path.join(tmp, f"{side}.json"))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    json.dump(doc, f)
            r = subprocess.run(
                [sys.executable, diff, "--wall-threshold", "100000"] +
                paths, capture_output=True, text=True)
        status = "ok" if r.returncode == want else "FAIL"
        print(f"{status}: {what}: exit {r.returncode} (want {want})")
        if r.returncode != want:
            print(r.stdout + r.stderr)
            failures.append(what)

    # Every golden agrees with itself.
    for name in GOLDENS:
        doc = golden(name)
        expect(f"BENCH_{name}.json vs itself", 0, doc, doc)

    # A cell key no gate has ever listed by name still drifts.
    old = golden("fault")
    new = copy.deepcopy(old)
    old["cells"][0]["plantedCounter"] = 1
    new["cells"][0]["plantedCounter"] = 2
    expect("drift in an unlisted cell key", 2, old, new)

    # A key on one side only is drift.
    new = copy.deepcopy(golden("fault"))
    new["cells"][0]["plantedCounter"] = 1
    expect("key present in the new file only", 2, golden("fault"), new)

    # Host time may move arbitrarily far under the out-of-reach wall
    # threshold: wallMs and the host-ns commit histogram.
    old = golden("txn")
    new = copy.deepcopy(old)
    for cell in new["cells"]:
        cell["wallMs"] = cell["wallMs"] * 50 + 1
        if "commitNs" in cell:
            cell["commitNs"]["p99"] += 12345
            cell["commitNs"]["max"] += 12345
    expect("drift in wallMs/commitNs only", 0, old, new)

    # A cell missing from the new file.
    old = golden("static")
    new = copy.deepcopy(old)
    del new["cells"][-1]
    expect("cell missing from the new file", 2, old, new)

    # Model and Native disagree inside both files: the cross-tier
    # contract fails even though the two files agree with each other.
    doc = golden("exec")
    for cell in doc["cells"]:
        if cell["version"] == "native" and cell["workload"] == "fig9":
            cell["checksum"] += 1
    expect("model/native tier mismatch", 2, doc, doc)

    if failures:
        print(f"bench_diff self-test: {len(failures)} case(s) failed")
        return 1
    print("bench_diff self-test: every planted change gated as "
          "promised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
