#!/usr/bin/env python3
"""Print every simulated value that differs between two BENCH_*.json files.

Both files are loaded, every "wall" block (host-side timing, the one
sanctioned non-deterministic section) is stripped at any depth, and the
two trees are walked side by side. Each key path whose value differs is
printed with both values; a key present on one side only prints "<absent>"
for the other. Paths join keys with "/" because metric names contain dots,
and list items by index: rows/3/registry/server0/udp.datagrams_sent.

With --summary, prints instead how many paths moved per leaf key name
(e.g. "12 udp.datagrams_sent"), which is the quick answer to "which
counters moved between these two commits".

Usage:
    bench_diff.py [--summary] <old.json> <new.json>

Exit status: 0 when the wall-stripped files are identical, 1 when they
differ, 2 on a usage or parse error.
"""

import argparse
import collections
import json
import signal
import sys

ABSENT = object()


def strip_wall(doc):
    if isinstance(doc, dict):
        return {k: strip_wall(v) for k, v in doc.items() if k != "wall"}
    if isinstance(doc, list):
        return [strip_wall(v) for v in doc]
    return doc


def diff(old, new, path=()):
    """Yields (path_tuple, old_value, new_value) for every differing leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from diff(old.get(key, ABSENT), new.get(key, ABSENT),
                            path + (key,))
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from diff(old[i] if i < len(old) else ABSENT,
                            new[i] if i < len(new) else ABSENT,
                            path + (str(i),))
    elif old != new or type(old) is not type(new):
        yield path, old, new


def show(value):
    return "<absent>" if value is ABSENT else json.dumps(value)


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json files with wall blocks stripped.")
    parser.add_argument("--summary", action="store_true",
                        help="count differing paths per leaf key name")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args()
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`

    try:
        docs = []
        for name in (args.old, args.new):
            with open(name) as f:
                docs.append(strip_wall(json.load(f)))
    except (OSError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2

    moved = list(diff(docs[0], docs[1]))
    if args.summary:
        counts = collections.Counter(p[-1] if p else "<root>"
                                     for p, _, _ in moved)
        for key, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"{n:6d} {key}")
    else:
        for path, old, new in moved:
            print(f"{'/'.join(path) or '<root>'}: {show(old)} -> {show(new)}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
