#!/usr/bin/env python3
"""Host self time per simulator module, from gprof.

    python3 perfbench/gprof_layers.py

Builds a -pg copy of the benchmark driver in its own build directory
($CARGO_TARGET_DIR/perfbench-pg, flags given on the cmake command line),
runs each workload, and folds the flat profile's self time by the
`ncache::<module>::` namespace of each function into host.<module>.self_frac
(self seconds of the module / self seconds of the whole profile). Functions
outside any ncache module fold into host.other.self_frac (libstdc++
containers, the allocator's callers, the benchmark driver itself); names
directly in `ncache::` (crc32, ByteReader, MetricRegistry, json, ...) are
the common module's. Each workload runs RUNS times (seeds 1, 2, ...) and
the self times add up, since gprof samples only every 10 ms.

gprof samples only the main thread: for racks_zipf, whose second engine
thread runs half the rack windows, the fractions cover the main thread only.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build and launch helpers)

FLAT_ROW = re.compile(
    r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
MODULE = re.compile(r"ncache::(\w+)(::)?")
RUNS = 3
SRC_MODULES = {d for d in os.listdir(os.path.join(run.ROOT, "src"))
               if os.path.isdir(os.path.join(run.ROOT, "src", d))}


def module_of(symbol):
    m = MODULE.search(symbol)
    if not m:
        return "other"
    if m.group(2) and m.group(1) in SRC_MODULES:
        return m.group(1)
    return "common"


def self_seconds(binary, workload, seed, workdir):
    """Flat-profile self seconds of one run, summed per module."""
    os.makedirs(workdir, exist_ok=True)
    gmon = os.path.join(workdir, "gmon.out")
    if os.path.exists(gmon):
        os.remove(gmon)
    r = subprocess.run([binary, "--workload", workload, "--seed", str(seed)],
                       cwd=workdir, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True,
                       timeout=run.REP_TIMEOUT_S)
    if r.returncode != 0 or not os.path.exists(gmon):
        raise RuntimeError("%s: profiled run failed: %s" % (workload, r.stderr))
    flat = subprocess.run(["gprof", "-b", "-p", binary, gmon],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=True).stdout
    by_module = {}
    for line in flat.splitlines():
        m = FLAT_ROW.match(line)
        if not m:
            continue
        mod = module_of(m.group(4))
        by_module[mod] = by_module.get(mod, 0.0) + float(m.group(3))
    return by_module


def profile(binary, workload, workdir):
    by_module = {}
    for seed in range(1, RUNS + 1):
        for mod, s in self_seconds(binary, workload, seed, workdir).items():
            by_module[mod] = by_module.get(mod, 0.0) + s
    total = sum(by_module.values())
    ranked = sorted(by_module.items(), key=lambda kv: -kv[1])
    return total, {("host.%s.self_frac" % k): v / total
                   for k, v in ranked if v > 0}


def main():
    try:
        binary = run.build(subdir="perfbench-pg",
                           extra_flags=("-DCMAKE_CXX_FLAGS=-pg",
                                        "-DCMAKE_EXE_LINKER_FLAGS=-pg"))
        out = {}
        for w in run.WORKLOADS:
            workdir = os.path.join(run.build_root(), "gprof", w)
            total, fracs = profile(binary, w, workdir)
            out[w] = {"sampled_self_s": total, **fracs}
            print("%s (%.2f s sampled self time)" % (w, total))
            for name, frac in fracs.items():
                print("  %-32s %7.3f frac" % (name, frac))
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        print("gprof_layers: %s" % e, file=sys.stderr)
        return 2
    path = os.path.join(run.build_root(), "gprof", "host_self_frac.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=2)
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
