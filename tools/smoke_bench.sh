#!/bin/sh
# Smoke-runs one bench binary twice and checks the telemetry contract:
#   1. both runs exit 0;
#   2. the two BENCH_*.json files are byte-identical (deterministic sim)
#      after dropping "wall" blocks — wall-clock timing is the one
#      sanctioned non-deterministic section (see bench/bench_util.h);
#   3. the JSON passes the checked-in schema (keys present, values
#      finite, non-empty rows);
#   4. the SHA-256 of the wall-stripped JSON equals the bench's line in
#      the hashes file (bench/smoke_hashes.txt), which pins simulated
#      output across commits, not only between two runs of one binary.
#
# Usage: smoke_bench.sh <bench-binary> <validator-binary> <schema.json> <workdir> <hashes-file>
set -eu

BENCH="$1"
VALIDATOR="$2"
SCHEMA="$3"
WORK="$4"
HASHES="$5"

rm -rf "$WORK"
mkdir -p "$WORK/run1" "$WORK/run2"

"$BENCH" --smoke --out="$WORK/run1" > "$WORK/run1.out"
"$BENCH" --smoke --out="$WORK/run2" > "$WORK/run2.out"

J1=$(ls "$WORK"/run1/BENCH_*.json)
J2=$(ls "$WORK"/run2/BENCH_*.json)

# Strip every "wall" object (recursively) before comparing; all other
# bytes must match between same-seed runs.
strip_wall() {
    python3 -c '
import json, sys

def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if k != "wall"}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v

with open(sys.argv[1]) as f:
    doc = json.load(f)
print(json.dumps(strip(doc), sort_keys=True))
' "$1" > "$2"
}

strip_wall "$J1" "$WORK/run1.nowall.json"
strip_wall "$J2" "$WORK/run2.nowall.json"

if ! cmp "$WORK/run1.nowall.json" "$WORK/run2.nowall.json"; then
    echo "FAIL: $J1 and $J2 differ between two same-seed runs" >&2
    exit 1
fi

"$VALIDATOR" "$SCHEMA" "$J1"

NAME=$(basename "$J1" .json)
NAME=${NAME#BENCH_}
WANT=$(awk -v b="$NAME" '$1 !~ /^#/ && $2 == b { print $1 }' "$HASHES")
GOT=$(sha256sum < "$WORK/run1.nowall.json" | cut -d' ' -f1)
if [ "$GOT" != "$WANT" ]; then
    echo "FAIL: $NAME simulated output moved (wall-stripped JSON hash)" >&2
    echo "  expected: ${WANT:-<no line for $NAME in $HASHES>}" >&2
    echo "  actual:   $GOT" >&2
    exit 1
fi
