#!/bin/sh
# Full-run identity check between two build trees: runs each simulated
# bench at full size (no --smoke) from both trees and diffs the two
# BENCH_<name>.json files with tools/bench_diff.py --summary, "wall"
# blocks stripped. Prints one line per bench, "identical" or "moved"
# followed by how many values moved per key, plus both runs' wall time.
# A bench whose exit status differs between the trees counts as moved.
#
# Usage: full_check.sh <old-build> <new-build> [bench...]
#   Each build tree holds the bench binaries under bench/. Without bench
#   names, every simulated bench runs (micro_ops and perf_core time the
#   host, so they have nothing to compare).
#   FULL_CHECK_DIR=<dir> keeps the JSON and stdout of every run there
#   (default: a fresh temporary directory, printed at the end).
#
# Exit status: 0 when every bench is identical, 1 when any moved or a run
# wrote no JSON, 2 on a usage error.
set -u

if [ $# -lt 2 ]; then
    echo "usage: $0 <old-build> <new-build> [bench...]" >&2
    exit 2
fi
OLD=$1
NEW=$2
shift 2
if [ $# -eq 0 ]; then
    set -- fig4_nfs_allmiss fig5_nfs_allhit fig6_khttpd fig7_nfs_specsfs \
        ablation_ncache table1_modifications table2_copy_counts \
        chaos_recovery chaos_overload chaos_partition scaleout \
        scaleout_parallel
fi
DIFF="$(dirname "$0")/bench_diff.py"
WORK=${FULL_CHECK_DIR:-$(mktemp -d)}

wall_s() {
    python3 -c 'import json, sys
print("%.2f" % (json.load(open(sys.argv[1]))["wall"]["wall_ms"] / 1e3))' "$1"
}

status=0
for b in "$@"; do
    for side in old new; do
        if [ "$side" = old ]; then tree=$OLD; else tree=$NEW; fi
        rm -rf "${WORK:?}/$side/$b"
        mkdir -p "$WORK/$side/$b"
        "$tree/bench/$b" --out="$WORK/$side/$b" > "$WORK/$side/$b/stdout" 2>&1
        echo $? > "$WORK/$side/$b/exit"
    done
    old_json="$WORK/old/$b/BENCH_$b.json"
    new_json="$WORK/new/$b/BENCH_$b.json"
    if [ ! -f "$old_json" ] || [ ! -f "$new_json" ]; then
        echo "$b: no JSON (see $WORK/old/$b, $WORK/new/$b)"
        status=1
        continue
    fi
    wall="wall $(wall_s "$old_json") s -> $(wall_s "$new_json") s"
    old_exit=$(cat "$WORK/old/$b/exit")
    new_exit=$(cat "$WORK/new/$b/exit")
    if python3 "$DIFF" --summary "$old_json" "$new_json" \
            > "$WORK/$b.summary" && [ "$old_exit" = "$new_exit" ]; then
        echo "$b: identical ($wall)"
    else
        echo "$b: moved ($wall, exit $old_exit -> $new_exit)"
        sed 's/^/    /' "$WORK/$b.summary"
        status=1
    fi
done
echo "JSON in $WORK"
exit $status
