#!/bin/sh
# Smoke-run every bench_harness suite at --quick, then check that the
# paper suite prints byte-identical tables whether it runs alone, after
# the serial static and fault suites, or with every suite: its cells
# must never inherit another suite's branch-salt state.
#
#   bench_smoke.sh <path-to-bench_harness> <out-dir>
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 <bench_harness> <out-dir>" >&2
    exit 2
fi
HARNESS=$1
OUT=$2
mkdir -p "$OUT" || exit 2

run() {
    log=$1
    shift
    if ! "$HARNESS" --quick --out "$OUT" "$@" > "$OUT/$log"; then
        echo "FAIL: bench_harness --quick $*" >&2
        cat "$OUT/$log" >&2
        exit 1
    fi
}

run smoke_all.txt fig11 micro paper concurrent static fault txn exec
run smoke_paper.txt paper
run smoke_after.txt static fault paper

# The paper section, minus its closing host-time line.
paper_tables() {
    sed -n '/^== paper ==$/,/^paper suite: /p' "$OUT/$1" |
        grep -v '^paper suite: '
}
paper_tables smoke_paper.txt > "$OUT/paper_alone.txt"
if ! grep -q '^Figure 14' "$OUT/paper_alone.txt"; then
    echo "FAIL: no paper tables in the paper suite's output" >&2
    exit 1
fi
for log in smoke_after.txt smoke_all.txt; do
    paper_tables "$log" > "$OUT/paper_with.txt"
    if ! cmp -s "$OUT/paper_alone.txt" "$OUT/paper_with.txt"; then
        echo "FAIL: paper tables differ when run alone vs in $log:" >&2
        diff "$OUT/paper_alone.txt" "$OUT/paper_with.txt" >&2
        exit 1
    fi
done
echo "bench smoke: every suite ran; paper tables independent of" \
     "suite selection"
