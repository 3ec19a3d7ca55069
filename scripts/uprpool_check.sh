#!/bin/sh
# uprpool check/repair CLI contract: exit statuses and --json output
# over images damaged with dd, the workflow CRASH_CONSISTENCY.md
# documents. Usage: uprpool_check.sh <uprpool-binary>
set -u

UPRPOOL=$1
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
IMG="$TMP/pool.img"

fail() { echo "uprpool_check: $1" >&2; exit 1; }

# Strict parse (python3 json) of a --json report, failing by name.
strict_json() { # file
    python3 -c 'import json,sys; json.load(sys.stdin)' < "$1" \
        || fail "--json output is not valid JSON: $(basename "$1")"
}

# dd one 0xFF byte of damage at a fixed header offset.
smash() { # offset
    printf '\377' | dd of="$IMG" bs=1 seek="$1" count=1 conv=notrunc \
                       status=none
}

# --- clean image: create + check exit 0 --------------------------------
"$UPRPOOL" create "$IMG" 1 || fail "create failed"
"$UPRPOOL" check "$IMG" > /dev/null || fail "clean image: check must exit 0"
"$UPRPOOL" info "$IMG" > /dev/null || fail "info failed"
"$UPRPOOL" dump "$IMG" > /dev/null || fail "dump failed"

# --- repairable damage: identity CRC byte (offset 72) -> exit 1 --------
smash 72
"$UPRPOOL" check "$IMG" > /dev/null
status=$?
[ $status -eq 1 ] || fail "identCrc damage: expected exit 1, got $status"
"$UPRPOOL" check --json "$IMG" > "$TMP/rep.json"
strict_json "$TMP/rep.json"
grep -q '"status": "repairable"' "$TMP/rep.json" \
    || fail "--json must report repairable"

# --- repair -> clean again ---------------------------------------------
"$UPRPOOL" check -r "$IMG" > /dev/null
status=$?
[ $status -eq 1 ] || fail "repair run: expected exit 1, got $status"
"$UPRPOOL" check "$IMG" > /dev/null || fail "repaired image: check must exit 0"

# --- unrepairable damage: arenaStart (offset 48) -> exit 2 -------------
# (Not the size field: that one is proven-repairable from the image
# length.)
smash 48
"$UPRPOOL" check "$IMG" > /dev/null
status=$?
[ $status -eq 2 ] || fail "arenaStart damage: expected 2, got $status"
"$UPRPOOL" check -r "$IMG" > /dev/null
status=$?
[ $status -eq 2 ] || fail "arenaStart repair: expected 2, got $status"
"$UPRPOOL" check --json "$IMG" > "$TMP/corrupt.json"
strict_json "$TMP/corrupt.json"
grep -q '"status": "corrupt"' "$TMP/corrupt.json" \
    || fail "--json must report corrupt"

# --- engine branding: create redo + info/check name the engine ---------
RIMG="$TMP/redo.img"
"$UPRPOOL" create "$RIMG" 1 redo || fail "create redo failed"
"$UPRPOOL" info "$RIMG" | grep -q "redo" \
    || fail "info must name the redo engine"
"$UPRPOOL" check --json "$RIMG" > "$TMP/redo.json"
strict_json "$TMP/redo.json"
grep -q '"engine": "redo"' "$TMP/redo.json" \
    || fail "--json must name the redo engine"
"$UPRPOOL" check "$RIMG" > /dev/null \
    || fail "fresh redo image: check must exit 0"
"$UPRPOOL" create "$TMP/u2.img" 1 undo || fail "create undo failed"
"$UPRPOOL" check --json "$TMP/u2.img" > "$TMP/u2.json"
strict_json "$TMP/u2.json"
grep -q '"engine": "undo"' "$TMP/u2.json" \
    || fail "--json must name the undo engine"
"$UPRPOOL" create "$TMP/bad.img" 1 frob 2> /dev/null
status=$?
[ $status -eq 3 ] || fail "bad engine name: expected 3, got $status"

# --- usage errors -> exit 3 --------------------------------------------
"$UPRPOOL" frobnicate "$IMG" 2> /dev/null
status=$?
[ $status -eq 3 ] || fail "unknown command: expected 3, got $status"
"$UPRPOOL" check "$TMP/missing.img" 2> /dev/null
status=$?
[ $status -eq 3 ] || fail "missing file: expected 3, got $status"

echo "uprpool_check: OK"
