#!/usr/bin/env python3
"""Compare two bench_harness JSON outputs (any BENCH_*.json).

Two different contracts are enforced:

* Every cell key except the host-time ones (HOST_KEYS) is part of the
  model's behaviour: simulated counters, checksums, fault-sweep
  outcome tallies, fence/flush counts, plan statistics, and the
  simulated-cycle histograms under "metrics". Any drift between the
  two files -- a changed value, or a key present on one side only --
  is a HARD ERROR (exit 2): either the model changed on purpose (then
  the goldens must be recaptured and the change called out) or a
  "host-side-only" optimization leaked into the model. A cell missing
  from the new file is drift too.

* Wall-clock times are host-side and noisy. A cell or harness total
  regressing by more than the threshold (default 10%) is FLAGGED
  (exit 1) but is not proof of a bug -- re-measure interleaved before
  acting on it (see docs/PERFORMANCE.md).

Exit codes: 0 ok, 1 wall regression flagged, 2 counter drift or usage
error.

Usage: bench_diff.py [--wall-threshold PCT] old.json new.json
"""

import argparse
import json
import sys

# The only cell keys measured on the host (real time, noisy): wallMs,
# and the txn/concurrent cells' commit-latency histogram in host ns.
# Every other key must match exactly.
HOST_KEYS = ("wallMs", "commitNs")

# Cross-tier contract inside one BENCH_exec.json: for each workload,
# the model and native cells must agree on these exactly — a Native
# tier that computes a different checksum or runs a different number
# of guards is broken, not fast.
EXEC_TIER_KEYS = ("checksum", "dynamicChecks", "irInstructions")

# Native-vs-Model speedup below this is a flag (exit 1), not a hard
# error: the Native tier exists to beat the model by an order of
# magnitude on at least one workload — the conflict workload measures
# 10.7-14.0x (docs/PERFORMANCE.md) — and this CI floor sits below the
# worst observed run so a noisy host cannot flake the build.
EXEC_SPEEDUP_TARGET = 8.0
# Cells faster than this are too short to measure a ratio on.
EXEC_SPEEDUP_MIN_WALL_MS = 5.0


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    if "cells" not in doc:
        sys.exit(f"bench_diff: {path}: not a bench_harness file "
                 "(no 'cells')")
    return doc


def cell_key(cell):
    return (cell.get("workload", "?"), cell.get("version", "?"))


def index_cells(doc, path):
    cells = {}
    for cell in doc["cells"]:
        key = cell_key(cell)
        if key in cells:
            sys.exit(f"bench_diff: {path}: duplicate cell "
                     f"{key[0]} x {key[1]}")
        cells[key] = cell
    return cells


def fmt_cell(key):
    return f"{key[0]} x {key[1]}"


def check_exec_tiers(cells, label, drift, regressions):
    """Cross-tier checks within one file's exec cells.

    Model/native disagreement on EXEC_TIER_KEYS is a hard error;
    best speedup below EXEC_SPEEDUP_TARGET is a flag.
    """
    workloads = sorted({w for (w, v) in cells if v == "model"
                        and (w, "native") in cells})
    best = None
    for w in workloads:
        model, native = cells[(w, "model")], cells[(w, "native")]
        if "error" in model or "error" in native:
            continue
        for k in EXEC_TIER_KEYS:
            if model.get(k) != native.get(k):
                drift.append(
                    f"{w} ({label}): tier mismatch on {k}: "
                    f"model {model.get(k)} vs native {native.get(k)}")
        mw, nw = model.get("wallMs"), native.get("wallMs")
        if mw and nw and mw >= EXEC_SPEEDUP_MIN_WALL_MS and nw > 0:
            speedup = mw / nw
            if best is None or speedup > best[1]:
                best = (w, speedup)
    if workloads and best is not None and best[1] < EXEC_SPEEDUP_TARGET:
        regressions.append(
            f"exec ({label}): best native speedup {best[1]:.1f}x on "
            f"{best[0]}, below the {EXEC_SPEEDUP_TARGET:.0f}x target")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--wall-threshold", type=float, default=10.0,
                    metavar="PCT",
                    help="flag wall-time regressions beyond this "
                         "percentage (default: %(default)s)")
    ap.add_argument("old", help="baseline BENCH_*.json")
    ap.add_argument("new", help="candidate BENCH_*.json")
    args = ap.parse_args()

    old_doc = load(args.old)
    new_doc = load(args.new)

    if old_doc.get("benchScale") != new_doc.get("benchScale"):
        sys.exit(f"bench_diff: benchScale differs "
                 f"({old_doc.get('benchScale')} vs "
                 f"{new_doc.get('benchScale')}): runs not comparable")

    old_cells = index_cells(old_doc, args.old)
    new_cells = index_cells(new_doc, args.new)

    drift = []        # model-counter mismatches: hard error
    regressions = []  # wall-time flags
    notes = []

    for key in sorted(set(old_cells) | set(new_cells)):
        if key not in new_cells:
            drift.append(f"{fmt_cell(key)}: missing from {args.new}")
            continue
        if key not in old_cells:
            notes.append(f"{fmt_cell(key)}: new cell (no baseline)")
            continue
        old, new = old_cells[key], new_cells[key]

        for side, cell, path in (("old", old, args.old),
                                 ("new", new, args.new)):
            if "error" in cell:
                drift.append(f"{fmt_cell(key)}: {side} run failed "
                             f"({path}): {cell['error']}")
        if "error" in old or "error" in new:
            continue

        for k in sorted((set(old) | set(new)) - set(HOST_KEYS)):
            if k not in new or k not in old:
                drift.append(f"{fmt_cell(key)}: {k} only in "
                             f"{'old' if k in old else 'new'} file")
            elif old[k] != new[k]:
                drift.append(f"{fmt_cell(key)}: {k} {old[k]} -> "
                             f"{new[k]}")

        ow, nw = old.get("wallMs"), new.get("wallMs")
        if ow and nw and ow > 0:
            pct = 100.0 * (nw - ow) / ow
            if pct > args.wall_threshold:
                regressions.append(
                    f"{fmt_cell(key)}: wall {ow:.1f} ms -> "
                    f"{nw:.1f} ms (+{pct:.1f}%)")

    check_exec_tiers(old_cells, "old", drift, regressions)
    check_exec_tiers(new_cells, "new", drift, regressions)

    oh, nh = old_doc.get("harnessWallMs"), new_doc.get("harnessWallMs")
    if oh and nh and oh > 0:
        pct = 100.0 * (nh - oh) / oh
        if pct > args.wall_threshold:
            regressions.append(
                f"harness total: {oh:.1f} ms -> {nh:.1f} ms "
                f"(+{pct:.1f}%)")

    for n in notes:
        print(f"note: {n}")
    if drift:
        print(f"MODEL DRIFT ({len(drift)} mismatches) -- simulated "
              "counters must be bit-identical between runs:")
        for d in drift:
            print(f"  {d}")
    if regressions:
        print(f"wall-time regressions beyond "
              f"{args.wall_threshold:.0f}% ({len(regressions)}):")
        for r in regressions:
            print(f"  {r}")
    if not drift and not regressions:
        n = len(set(old_cells) & set(new_cells))
        print(f"ok: {n} cells compared, counters identical, "
              f"wall within {args.wall_threshold:.0f}%"
              f" (rev {old_doc.get('gitRev')} -> "
              f"{new_doc.get('gitRev')})")

    if drift:
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
