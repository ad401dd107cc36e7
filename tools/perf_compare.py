#!/usr/bin/env python3
"""Compare the wall-clock blocks of two BENCH_*.json files.

Every BENCH_*.json carries "wall" objects (a top-level one stamped by
BenchReport, plus per-row ones in perf_core): the only sanctioned
non-deterministic section of the telemetry. This script extracts every
rate inside those blocks (keys ending in "_per_sec") from a baseline and
a candidate file and fails if any regressed by more than the tolerance
(default 20%, matching run-to-run noise on a loaded CI box).

It also gates heap allocations: a "heap_allocs" count may exceed its
baseline's by at most 10%. Allocation counts repeat exactly from run to
run of one build, so this gate carries none of the rates' wall-clock
noise; the margin only absorbs standard-library and toolchain drift.

Usage:
    perf_compare.py [--tolerance 0.20] <baseline.json> <candidate.json>

Exit status: 0 when no rate regressed beyond tolerance and no allocation
count grew beyond 10%, 1 otherwise. Values present in only one file are
reported but never fail the check, so adding a new bench row (or a
baseline recorded before the counter existed) does not break the gate.
"""

import argparse
import json
import sys


# A heap_allocs count may grow by at most this fraction of its baseline.
ALLOC_TOLERANCE = 0.10


def wall_values(doc, wanted, path=""):
    """Yields (dotted_path, value) for every key inside a "wall" block for
    which wanted(key) holds."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            sub = f"{path}.{key}" if path else key
            if key == "wall" and isinstance(value, dict):
                for name, v in value.items():
                    if wanted(name) and isinstance(v, (int, float)):
                        yield f"{sub}.{name}", float(v)
            else:
                yield from wall_values(value, wanted, sub)
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            label = path
            # Label bench rows by their "case" name, not their index, so
            # reordering rows keeps baselines comparable.
            if isinstance(item, dict) and "case" in item:
                label = f"{path}[{item['case']}]"
            else:
                label = f"{path}[{i}]"
            yield from wall_values(item, wanted, label)


def wall_rates(doc):
    """Every *_per_sec inside a "wall" block."""
    return wall_values(doc, lambda k: k.endswith("_per_sec"))


def wall_allocs(doc):
    """Every heap_allocs count inside a "wall" block."""
    return wall_values(doc, lambda k: k == "heap_allocs")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"perf_compare: cannot read {path}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="max fractional slowdown before failing "
                         "(default 0.20 = 20%%)")
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    args = ap.parse_args()

    base = dict(wall_rates(load(args.baseline)))
    cand = dict(wall_rates(load(args.candidate)))
    if not base:
        sys.exit(f"perf_compare: no wall rates in {args.baseline}")

    failures = []
    for name in sorted(base.keys() | cand.keys()):
        b, c = base.get(name), cand.get(name)
        if b is None or c is None:
            side = args.candidate if b is None else args.baseline
            print(f"{name:55s} only in {side}, ignored")
            continue
        ratio = c / b if b > 0 else float("inf")
        verdict = "ok"
        if ratio < 1.0 - args.tolerance:
            verdict = "REGRESSED"
            failures.append(name)
        print(f"{name:55s} {b:14.0f} -> {c:14.0f}  ({ratio:6.2f}x) {verdict}")

    base_allocs = dict(wall_allocs(load(args.baseline)))
    cand_allocs = dict(wall_allocs(load(args.candidate)))
    grew = []
    for name in sorted(base_allocs.keys() & cand_allocs.keys()):
        b, c = base_allocs[name], cand_allocs[name]
        verdict = "ok"
        if c > b * (1.0 + ALLOC_TOLERANCE):
            verdict = "GREW"
            grew.append(name)
        print(f"{name:55s} {b:14.0f} -> {c:14.0f}  "
              f"({c / b if b > 0 else float('inf'):6.2f}x) {verdict}")

    if failures:
        print(f"perf_compare: {len(failures)} rate(s) slowed by more than "
              f"{args.tolerance:.0%}: {', '.join(failures)}", file=sys.stderr)
    if grew:
        print(f"perf_compare: {len(grew)} allocation count(s) grew by more "
              f"than {ALLOC_TOLERANCE:.0%}: {', '.join(grew)}",
              file=sys.stderr)
    if failures or grew:
        return 1
    print(f"perf_compare: all {len(base)} rate(s) within "
          f"{args.tolerance:.0%} of baseline, "
          f"{len(base_allocs.keys() & cand_allocs.keys())} allocation "
          f"count(s) within {ALLOC_TOLERANCE:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
