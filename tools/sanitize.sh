#!/bin/sh
# One sanitizer script for every suite. Builds the repo with ASan/UBSan
# into a dedicated tree (so the default build's perf baselines and
# byte-exact BENCH files are untouched) and runs the suite's ctest
# selection under it.
#
#   sanitize.sh faults    [build-dir]  ctest label `faults`
#   sanitize.sh cluster   [build-dir]  label `cluster` (incl. the
#                                      partition/coherence tests)
#   sanitize.sh topology  [build-dir]  label `topology`
#   sanitize.sh overload  [build-dir]  label `overload`
#   sanitize.sh all       [build-dir]  every labeled suite (incl.
#                                      `storage`: the block store's
#                                      extents and the fs image builder)
#
# Default build dir: build-sanitize.
set -eu

SRC=$(cd "$(dirname "$0")/.." && pwd)
SUITE="${1:-}"

usage() {
  echo "usage: sanitize.sh {faults|cluster|topology|overload|all} [build-dir]" >&2
  exit 2
}
case "$SUITE" in
  faults|cluster|topology|overload|all) ;;
  *) usage ;;
esac
BUILD="${2:-$SRC/build-sanitize}"

cmake -B "$BUILD" -S "$SRC" -DNCACHE_SANITIZE=address,undefined
cmake --build "$BUILD" -j

# GCC's sanitizer instrumentation suppresses the tail calls that coroutine
# symmetric transfer relies on, so a long chain of synchronously completing
# awaits (SimpleFs writes through a small buffer cache) nests one native
# frame per hop: FsTest.LargeFileThroughIndirects needs more than the
# default 8 MB stack under ASan, while the uninstrumented build runs it
# in 256 KB.
ulimit -s 65536 2>/dev/null || true

case "$SUITE" in
  faults)   ctest --test-dir "$BUILD" -L faults --output-on-failure -j 4 ;;
  cluster)  ctest --test-dir "$BUILD" -L cluster --output-on-failure -j 4 ;;
  topology) ctest --test-dir "$BUILD" -L topology --output-on-failure -j 4 ;;
  overload) ctest --test-dir "$BUILD" -L overload --output-on-failure -j 4 ;;
  all)      ctest --test-dir "$BUILD" -L 'faults|cluster|topology|overload|storage' \
              --output-on-failure -j 4 ;;
esac
