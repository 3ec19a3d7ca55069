#!/bin/sh
# Golden-diff the uprlint output over every fixture in the IR corpus.
#
#   lint_corpus_check.sh <path-to-uprlint> <corpus-dir>
#
# Each <name>.ir has a committed <name>.expect holding the exact
# `uprlint --report-elision <name>.ir` output plus a final "exit=N"
# line, and a <name>.json.expect holding the `--json` document — the
# machine-readable per-site elision contract (siteRecords) that the
# fast-path lowering consumes; that document must also pass a strict
# parse (python3 json) before the diff. Regenerate goldens after an
# intentional output change with:
#   cd tests/ir_corpus && for f in *.ir; do
#     { uprlint --report-elision "$f"; echo "exit=$?"; } > "${f%.ir}.expect"
#     { uprlint --json --report-elision "$f"; echo "exit=$?"; } \
#         > "${f%.ir}.json.expect"
#   done
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 <uprlint> <corpus-dir>" >&2
    exit 2
fi

UPRLINT=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
CORPUS=$2
fail=0
count=0

cd "$CORPUS" || exit 2
for f in *.ir; do
    base="${f%.ir}"
    if [ ! -f "$base.expect" ]; then
        echo "MISSING GOLDEN: $base.expect" >&2
        fail=1
        continue
    fi
    actual=$("$UPRLINT" --report-elision "$f" 2>&1; echo "exit=$?")
    expected=$(cat "$base.expect")
    if [ "$actual" != "$expected" ]; then
        echo "GOLDEN MISMATCH: $f" >&2
        printf '%s\n' "$actual" | diff -u "$base.expect" - >&2
        fail=1
    fi
    if [ ! -f "$base.json.expect" ]; then
        echo "MISSING GOLDEN: $base.json.expect" >&2
        fail=1
        count=$((count + 1))
        continue
    fi
    actual=$("$UPRLINT" --json --report-elision "$f" 2>&1
             echo "exit=$?")
    # The body is everything before the final exit= line.
    if ! printf '%s\n' "$actual" | sed '$d' |
         python3 -c 'import json,sys; json.load(sys.stdin)'; then
        echo "MALFORMED JSON: $f (--json)" >&2
        fail=1
    fi
    expected=$(cat "$base.json.expect")
    if [ "$actual" != "$expected" ]; then
        echo "GOLDEN MISMATCH: $f (--json)" >&2
        printf '%s\n' "$actual" | diff -u "$base.json.expect" - >&2
        fail=1
    fi
    count=$((count + 1))
done

if [ "$count" -eq 0 ]; then
    echo "no fixtures found in $CORPUS" >&2
    exit 2
fi
[ "$fail" -eq 0 ] && echo "lint corpus: $count fixture(s) OK"
exit "$fail"
