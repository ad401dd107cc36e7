#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and runs named workloads.

One measured run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench_driver (first run only) into $CARGO_TARGET_DIR (default
.bench_build), then launches the driver once per repetition, one process per
repetition, until S seconds are used (at least three repetitions). It
prints every metric by name with its unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: setup_s and run_s are the
fastest repetition's, the others are medians over the repetitions. --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones plus the tracing overhead. Every repetition of
one seed must produce the same model digest.

Other modes:

    python3 perfbench/run.py --all [--seed N] [--seconds S]
        every workload in turn, one table; exit 1 on any failure
    python3 perfbench/run.py --selfcheck
        tiny sizes: metric names and units, a flipped byte must fail, an
        injected disk fault must be retried and not fail, determinism
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["nfs_seq_miss", "web_hot_hit", "nfs_sfs_mix", "racks_zipf"]

# name -> unit. The driver's result fields they come from are in end_to_end().
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "model_ops_per_s": "1/s",
    "model_goodput_mb_s": "MB/s",
    "model_p50_us": "us",
    "model_p99_us": "us",
}

MIN_REPS = 3
ADDR_NO_RANDOMIZE = 0x0040000
REP_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(subdir="perfbench", extra_flags=()):
    """Configures (once) and builds the driver; returns its path."""
    bdir = os.path.join(build_root(), subdir)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release", *extra_flags]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                        "--target", "perfbench_driver"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode:
        raise RuntimeError("build failed")
    return os.path.join(bdir, "perfbench_driver")


def fixed_layout():
    """Runs in the child before exec: turns address-space randomization off
    so every repetition gets the same memory layout. Layout changes alone
    move this pointer-heavy simulator's host time by several percent."""
    try:
        ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_driver(binary, workload, seed, trace_path=None, extra=()):
    """One repetition in its own process; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), *extra]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=REP_TIMEOUT_S,
                       preexec_fn=fixed_layout)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        raise RuntimeError("%s exited %d: %s" % (workload, r.returncode,
                                                 r.stderr.strip()[-2000:]))
    return r.returncode, json.loads(lines[-1])


def digest_of(res):
    """The deterministic identity of a repetition: digest plus model."""
    return json.dumps({"digest": res["digest"], "model": res["model"],
                       "attempted": res["attempted"]}, sort_keys=True)


def end_to_end(res):
    m = res["model"]
    return {
        "setup_s": res["setup_s"],
        "run_s": res["run_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "model_ops_per_s": m["ops_per_s"],
        "model_goodput_mb_s": m["goodput_mb_s"],
        "model_p50_us": m["p50_us"],
        "model_p99_us": m["p99_us"],
    }


def source_stamp():
    commit = "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return commit, h.hexdigest()


def measure(binary, workload, seed, seconds, trace):
    """Repetitions until `seconds` are used; returns the run summary."""
    reps, traced_reps, codes = [], [], []
    trace_dir = os.path.join(build_root(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    start = time.monotonic()
    walls = []
    while True:
        t0 = time.monotonic()
        k = len(reps) + len(traced_reps)
        path = None
        if trace and k % 2 == 1:
            path = os.path.join(trace_dir, "%s-seed%d-rep%d.json" %
                                (workload, seed, k))
        code, res = run_driver(binary, workload, seed, path)
        codes.append(code)
        (traced_reps if path else reps).append(res)
        walls.append(time.monotonic() - t0)
        done = len(reps) + len(traced_reps)
        need = MIN_REPS + 1 if trace else MIN_REPS
        if done >= need and (time.monotonic() - start +
                             statistics.median(walls) > seconds):
            break
    every = reps + traced_reps
    digests = {digest_of(r) for r in every}
    failed = sum(r["failed"] for r in every)
    attempted = sum(r["attempted"] for r in every)
    correct = (all(c == 0 for c in codes) and failed == 0 and
               all(r["verify_failures"] == 0 for r in every) and
               len(digests) == 1)
    if len(digests) != 1:
        log("DIGEST MISMATCH across repetitions of seed %d:" % seed)
        for d in sorted(digests):
            log("  " + d)
    med = statistics.median
    e2e = {k: med([end_to_end(r)[k] for r in reps]) for k in END_TO_END}
    # Host times take the best of the repetitions: on a shared host,
    # interference from other tenants only ever adds time, and its slow
    # periods outlast a run, so the median of one run moves with them far
    # more than the minimum.
    run_times = [r["run_s"] for r in reps]
    e2e["run_s"] = min(run_times)
    e2e["setup_s"] = min(r["setup_s"] for r in reps)
    layers = {}
    if traced_reps:
        for name, v in traced_reps[0]["layers"].items():
            layers[name] = (med([r["layers"][name]["value"] for r in traced_reps]),
                            v["unit"])
        layers["trace.overhead_s"] = (
            med([r["run_s"] for r in traced_reps]) - med(run_times), "s")
    first = every[0]
    return {
        "workload": workload, "seed": seed, "correct": correct,
        "attempted": attempted, "failed": failed,
        "reps": len(reps), "traced_reps": len(traced_reps),
        "run_times": run_times,
        "fail_frac": failed / attempted if attempted else 1.0,
        "end_to_end": e2e, "layers": layers,
        "digest": first["digest"],
        "latency_samples": first["model"]["latency_samples"],
        "p99_tail_samples": first["model"]["p99_tail_samples"],
        "stamps": first["stamps"],
    }


def print_summary(s, commit, src_sha1):
    st = s["stamps"]
    print("workload %s  seed %d  reps %d (+%d traced)  nproc %d  build %s  "
          "compiler %s  commit %s  src %s" %
          (s["workload"], s["seed"], s["reps"], s["traced_reps"], st["nproc"],
           st["build_type"], st["compiler"], commit, src_sha1[:12]))
    if not st["optimized"]:
        print("WARNING: non-optimized build; host times are not comparable")
    for name, unit in END_TO_END.items():
        print("  %-34s %16.6f %s" % (name, s["end_to_end"][name], unit))
    print("  run_s of each repetition: " +
          " ".join("%.3f" % t for t in s["run_times"]))
    print("  %-34s %16.6f frac  (%d failed of %d attempted)" %
          ("fail_frac", s["fail_frac"], s["failed"], s["attempted"]))
    print("  latency samples %d, %d beyond p99" %
          (s["latency_samples"], s["p99_tail_samples"]))
    for name, (value, unit) in s["layers"].items():
        print("  %-34s %16.6f %s" % (name, value, unit))
    d = s["digest"]
    print("  model digest: streams %s registry %s ops %d end_ns %d" %
          (d["stream_hash"], d["registry_hash"], d["ops"], d["end_ns"]))


def cmd_measure(args):
    binary = build()
    commit, src_sha1 = source_stamp()
    s = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    print_summary(s, commit, src_sha1)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in s["layers"].items()}
    else:
        metrics = {k: {"value": s["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0 if s["correct"] else 1


def cmd_all(args):
    binary = build()
    commit, src_sha1 = source_stamp()
    ok = True
    rows = []
    for w in WORKLOADS:
        s = measure(binary, w, args.seed, args.seconds, 0)
        print_summary(s, commit, src_sha1)
        ok &= s["correct"]
        rows.append(s)
    names = list(END_TO_END) + ["fail_frac"]
    print("\n%-14s" % "workload" + "".join("%20s" % n for n in names))
    print("%-14s" % "" + "".join("%20s" % (END_TO_END.get(n, "frac"))
                                 for n in names))
    for s in rows:
        vals = [s["end_to_end"][n] for n in END_TO_END] + [s["fail_frac"]]
        print("%-14s" % s["workload"] + "".join("%20.6g" % v for v in vals))
    print("all workloads correct" if ok else "VERIFICATION FAILED")
    return 0 if ok else 1


def cmd_selfcheck(args):
    binary = build()
    problems = []

    def check(cond, what):
        print(("PASS  " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    spec = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
    per_layer = {m["name"]: m["unit"] for m in spec.get("per_layer", [])}
    declared_e2e = {m["name"]: m["unit"] for m in spec.get("end_to_end", [])}
    check(declared_e2e == END_TO_END,
          "BENCHMARK.json end_to_end matches the metrics run.py prints")

    tmp = os.path.join(build_root(), "selfcheck")
    os.makedirs(tmp, exist_ok=True)
    for w in WORKLOADS:
        path = os.path.join(tmp, w + ".trace.json")
        code, res = run_driver(binary, w, 1, path, ["--tiny"])
        check(code == 0 and res["failed"] == 0, "%s tiny run verifies" % w)
        printed = {n: v["unit"] for n, v in res["layers"].items()}
        printed["trace.overhead_s"] = "s"
        missing = [n for n, u in per_layer.items() if printed.get(n) != u]
        check(not missing, "%s prints every per-layer metric with its unit%s"
              % (w, "" if not missing else ": missing " + ",".join(missing)))
        check(all(isinstance(v, (int, float)) for v in end_to_end(res).values()),
              "%s prints every end-to-end metric" % w)
        with open(path) as f:
            trace = json.load(f)
        names = {s["name"] for s in trace["spans"]}
        check({"topo.build", "fs.image", "fs.add_file", "fs.finish",
               "topo.start", "sim.run"} <= names and trace["ops"],
              "%s trace holds layer spans and per-op spans" % w)

    code, res = run_driver(binary, "web_hot_hit", 1, None,
                           ["--tiny", "--flip-read", "3"])
    check(code == 1 and res["failed"] == 1 and res["verify_failures"] == 1
          and res["fail_frac"] > 0,
          "a flipped byte fails verification and counts toward fail_frac "
          "(failed %d of %d)" % (res["failed"], res["attempted"]))

    code, res = run_driver(binary, "nfs_seq_miss", 1, None,
                           ["--tiny", "--inject-read-fault"])
    retries = res["layers"]["iscsi.io_retries"]["value"]
    check(code == 0 and res["failed"] == 0 and retries > 0,
          "an injected disk read fault shows in iscsi.io_retries (%g), "
          "not in fail_frac (%g)" % (retries, res["fail_frac"]))

    _, a = run_driver(binary, "racks_zipf", 7, None, ["--tiny"])
    _, b = run_driver(binary, "racks_zipf", 7, None, ["--tiny"])
    _, c = run_driver(binary, "racks_zipf", 8, None, ["--tiny"])
    check(digest_of(a) == digest_of(b),
          "racks_zipf with 2 engine threads repeats its model digest")
    check(digest_of(a) != digest_of(c), "another seed gives other inputs")

    print("selfcheck " + ("passed" if not problems else
                          "FAILED (%d)" % len(problems)))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    try:
        if args.selfcheck:
            return cmd_selfcheck(args)
        if args.all:
            return cmd_all(args)
        if not args.workload:
            p.error("--workload, --all or --selfcheck is required")
        return cmd_measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
