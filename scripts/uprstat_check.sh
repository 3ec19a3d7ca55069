#!/bin/sh
# uprstat contract checks: canonical-JSON round-trip stability and
# strict validity, pretty printing of both accepted document shapes,
# rejection of a malformed number, and diff semantics (identical ->
# exit 0, any changed entry -> exit 1 and a delta row).
#
#   uprstat_check.sh <path-to-uprstat> <path-to-bench_harness>
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 <uprstat> <bench_harness>" >&2
    exit 2
fi

UPRSTAT=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
HARNESS=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
WORK=$(mktemp -d) || exit 2
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 2
fail=0

# A real bench document (micro suite only: milliseconds of work).
if ! "$HARNESS" --quick --jobs 2 --out . micro > /dev/null; then
    echo "FAIL: bench_harness --quick micro" >&2
    exit 1
fi

# A snapshot-shaped document, as MetricsSnapshot::toJson() emits.
cat > snap.json <<'EOF'
{
  "counters": {
    "core.loads": 18446744073709551615,
    "upr.dynamicChecks": 42
  },
  "histograms": {
    "upr.checkCycles": {"count": 42, "sum": 126, "min": 3, "max": 3,
                        "p50": 3, "p90": 3, "p99": 3}
  }
}
EOF

# A control byte in a name must come back escaped, not raw.
cat > ctl.json <<'EOF'
{"counters": {"a\u0001b": 1}, "histograms": {}}
EOF

# Strict parse (the stdlib parser rejects raw control characters).
strict_json() {
    python3 -c 'import json,sys; json.load(sys.stdin)' < "$1"
}

for doc in BENCH_micro.json snap.json ctl.json; do
    # Round trip: dump(parse(x)) is stable under a second pass.
    "$UPRSTAT" --json "$doc" > rt1.json || fail=1
    "$UPRSTAT" --json rt1.json > rt2.json || fail=1
    if ! cmp -s rt1.json rt2.json; then
        echo "FAIL: $doc: canonical form not byte-stable" >&2
        fail=1
    fi
    if ! strict_json rt1.json; then
        echo "FAIL: $doc: canonical form is not valid JSON" >&2
        fail=1
    fi
    # Pretty print succeeds and is non-empty.
    if ! "$UPRSTAT" "$doc" | grep -q .; then
        echo "FAIL: $doc: empty pretty output" >&2
        fail=1
    fi
    # Self-diff: identical, exit 0.
    if ! "$UPRSTAT" --diff "$doc" "$doc" > /dev/null; then
        echo "FAIL: $doc: self-diff not clean" >&2
        fail=1
    fi
done

# The escaped control byte decodes back to the same name.
"$UPRSTAT" --json ctl.json > rt1.json || fail=1
if ! python3 -c 'import json,sys
sys.exit(json.load(sys.stdin)["counters"] != {"a\x01b": 1})' < rt1.json
then
    echo "FAIL: control byte in a counter name not preserved" >&2
    fail=1
fi

# Exact 64-bit round trip: 2^64-1 must survive parse -> dump.
"$UPRSTAT" --json snap.json > rt1.json || fail=1
if ! grep -q 18446744073709551615 rt1.json; then
    echo "FAIL: uint64 max corrupted by round trip" >&2
    fail=1
fi

# A malformed number token is a parse error (exit 2), never echoed
# back: RFC 8259 has no "1-2".
echo '{"counters": {"a": 1-2}, "histograms": {}}' > badnum.json
"$UPRSTAT" --json badnum.json > rt1.json 2> /dev/null
if [ $? -ne 2 ]; then
    echo "FAIL: malformed number 1-2 should be rejected with exit 2" >&2
    fail=1
fi

# A changed value must be reported and flip the exit code.
sed 's/"p50": 3/"p50": 7/' snap.json > snap2.json
"$UPRSTAT" --diff snap.json snap2.json > diff.out
if [ $? -ne 1 ]; then
    echo "FAIL: diff of differing docs should exit 1" >&2
    fail=1
fi
if ! grep -q "upr.checkCycles.p50" diff.out; then
    echo "FAIL: diff did not name the changed entry" >&2
    cat diff.out >&2
    fail=1
fi

[ "$fail" -eq 0 ] && echo "uprstat: OK"
exit "$fail"
