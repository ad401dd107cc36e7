#!/usr/bin/env python3
"""Compare the wall-clock blocks of two BENCH_*.json files.

Every BENCH_*.json carries "wall" objects (a top-level one stamped by
BenchReport, plus per-row ones in perf_core): the only sanctioned
non-deterministic section of the telemetry. This script extracts every
rate inside those blocks (keys ending in "_per_sec") from a baseline and
a candidate file and fails if any regressed by more than the tolerance
(default 20%, matching run-to-run noise on a loaded CI box).

Usage:
    perf_compare.py [--tolerance 0.20] <baseline.json> <candidate.json>

Exit status: 0 when no rate regressed beyond tolerance, 1 otherwise.
Rates present in only one file are reported but never fail the check, so
adding a new bench row does not break an old baseline.
"""

import argparse
import json
import sys


def wall_rates(doc, path=""):
    """Yields (dotted_path, value) for every *_per_sec inside a "wall"."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            sub = f"{path}.{key}" if path else key
            if key == "wall" and isinstance(value, dict):
                for rate, rv in value.items():
                    if rate.endswith("_per_sec") and isinstance(
                        rv, (int, float)
                    ):
                        yield f"{sub}.{rate}", float(rv)
            else:
                yield from wall_rates(value, sub)
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            label = path
            # Label bench rows by their "case" name, not their index, so
            # reordering rows keeps baselines comparable.
            if isinstance(item, dict) and "case" in item:
                label = f"{path}[{item['case']}]"
            else:
                label = f"{path}[{i}]"
            yield from wall_rates(item, label)


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

    if failures:
        print(f"perf_compare: {len(failures)} rate(s) slowed by more than "
              f"{args.tolerance:.0%}: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"perf_compare: all {len(base)} rate(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
