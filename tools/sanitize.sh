#!/bin/sh
# One sanitizer driver for every suite. Builds the repo with the suite's
# sanitizer flavour into a dedicated tree (so the default build's perf
# baselines and byte-exact BENCH files are untouched) and runs the suite's
# ctest selection under it.
#
#   sanitize.sh faults    [build-dir]  ASan/UBSan, ctest label `faults`
#   sanitize.sh cluster   [build-dir]  ASan/UBSan, label `cluster` (incl.
#                                      the partition/coherence tests)
#   sanitize.sh topology  [build-dir]  ASan/UBSan, label `topology`
#   sanitize.sh overload  [build-dir]  ASan/UBSan, label `overload`
#   sanitize.sh parallel  [build-dir]  TSan, labels `topology|cluster|
#                                      overload` (partition tests under
#                                      the engine's worker pool and the
#                                      flash-crowd T>1 byte-identity test
#                                      included) + the scaleout_parallel,
#                                      chaos_partition and chaos_overload
#                                      bench smokes
#   sanitize.sh all       [build-dir]  ASan/UBSan, every labeled suite
#                                      (incl. `storage`: the block store's
#                                      extents and the fs image builder)
#
# Default build dirs: build-sanitize (ASan/UBSan), build-tsan (TSan).
#
# TSan notes (parallel suite): the engine's only sanctioned cross-thread
# traffic is the round handshake (mutex + condvars), the next_domain_
# ticket counter, per-domain outboxes (owned by their staging domain
# within a round, merged single-threaded at the barrier), and the atomic
# dispatch/alloc counters. Partition fault windows keep that invariant by
# scheduling every admin toggle on the owning domain's loop at arm time —
# anything else TSan flags here is a real race.
set -eu

SRC=$(cd "$(dirname "$0")/.." && pwd)
SUITE="${1:-}"

usage() {
  echo "usage: sanitize.sh {faults|cluster|topology|overload|parallel|all} [build-dir]" >&2
  exit 2
}
[ -n "$SUITE" ] || usage

case "$SUITE" in
  faults|cluster|topology|overload|all)
    BUILD="${2:-$SRC/build-sanitize}"
    SANITIZE="address,undefined"
    ;;
  parallel)
    BUILD="${2:-$SRC/build-tsan}"
    SANITIZE="thread"
    ;;
  *) usage ;;
esac

cmake -B "$BUILD" -S "$SRC" -DNCACHE_SANITIZE="$SANITIZE"
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
  parallel)
    ctest --test-dir "$BUILD" -L 'topology|cluster|overload' \
      --output-on-failure -j 4
    ctest --test-dir "$BUILD" \
      -R 'bench_smoke_scaleout_parallel|bench_smoke_chaos_partition|bench_smoke_chaos_overload' \
      --output-on-failure
    ;;
esac
