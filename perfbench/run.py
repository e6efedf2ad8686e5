"""Benchmark of heckepairs: one workload in one fresh process, one result line.

    python3 perfbench/run.py --workload convolve-exact --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35   # every workload, one report each

The load is a closed loop with one caller: the workload's iteration runs
again and again until --seconds have passed, each time on freshly built
pairs, so the pair caches start cold as they do in every CLI call. Before
the loop, set-up time (import heckepairs plus build_pair) is measured in
fresh interpreters. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 the iterations alternate untraced and
traced, and it carries the per-layer metrics of tracer.py plus the tracing
overhead. Records and spans go to .perfbench-out/ at the repository root.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("convolve-exact", "scan-semidirect", "spectral-semidirect")
DEFAULT_SEED = 1
SETUP_REPEATS = 7
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_CODE = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import heckepairs
for name, params in json.loads(sys.argv[2]):
    heckepairs.build_pair(name, params)
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description="heckepairs benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="inputs seed (default 1); seed 2 is held out to confirm claims")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke test")
    return ap.parse_args(argv)


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(blas_cap):
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_cap,
        "commit": git_commit(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def measure_setup(pairs):
    """Median seconds of import + build_pair in fresh interpreters (first discarded)."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        res = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, json.dumps(pairs)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if res.returncode != 0:
            raise RuntimeError("set-up interpreter failed:\n" + res.stderr)
        if i:
            times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list; 0.0 when it is empty."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def one_iteration(wl, it, tracer_mod, run_id, traced, probe):
    """Build, generate, run (timed) and check one iteration on input set `it`."""
    tr = None
    if traced:
        tr = tracer_mod.Tracer(run_id)
        tr.install()
        tr.active = True
    try:
        built = wl.build(it)
        if tr:
            tr.active = False
        state = wl.inputs(built, it)
        gc.collect()
        if probe:
            del probe.samples[:]
        if tr:
            tr.active = True
        t0 = time.perf_counter()
        out = wl.run(state)
        wall = time.perf_counter() - t0
        if tr:
            tr.active = False
    finally:
        if tr:
            tr.uninstall()
    layers = tr.layer_metrics() if tr else None  # before check() touches the caches
    attempted, failed, notes = wl.check(state, out)
    return {
        "traced": traced, "wall_s": wall, "attempted": attempted, "failed": failed,
        "notes": notes, "layers": layers,
        "spans": tr.spans if tr else [],
        "convolve_s": list(probe.samples) if probe else [],
    }


def run_one(args):
    blas_cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(blas_cap)
    sys.path.insert(0, SRC)
    import heckepairs
    if not os.path.abspath(heckepairs.__file__).startswith(SRC + os.sep):
        print("perfbench: imported heckepairs from %s, not %s" % (heckepairs.__file__, SRC),
              file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    os.makedirs(OUT, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    # a traced run reports pairs.build_pair.s in place of setup_s
    setup_s, setup_samples = (None, []) if args.trace else measure_setup(cls.setup_pairs)
    wl = cls(args.seed, args.size, OUT)
    probe = None
    if args.trace:
        # convolve latency comes from the untraced iterations of a traced run
        probe = tracer_mod.LatencyProbe()
        probe.install(heckepairs.algebra, "convolve")
    iters = []
    spent = []
    start = time.perf_counter()
    try:
        while True:
            if len(iters) >= (2 if args.trace else 3):
                if time.perf_counter() - start + 0.5 * statistics.median(spent) > args.seconds:
                    break
            t0 = time.perf_counter()
            traced = bool(args.trace) and len(iters) % 2 == 1
            run_id = "%s/%d/%d" % (args.workload, args.seed, len(iters))
            # a traced iteration repeats the inputs of the untraced one before
            # it, so their difference is the tracing overhead alone
            it = len(iters) // (1 + args.trace)
            iters.append(one_iteration(wl, it, tracer_mod, run_id, traced,
                                       None if traced else probe))
            spent.append(time.perf_counter() - t0)
    finally:
        if probe:
            probe.uninstall()

    plain = [r for r in iters if not r["traced"]]
    traced = [r for r in iters if r["traced"]]
    attempted = sum(r["attempted"] for r in iters)
    failed = sum(r["failed"] for r in iters)
    spectral = sum(r["notes"].get("spectral_results", 0) for r in iters)
    unconverged = sum(r["notes"].get("unconverged", 0) for r in iters)
    walls = [r["wall_s"] for r in plain]

    if args.trace:
        layers = [dict(r["layers"], **{
            "cli.artifact.bytes": r["notes"].get("cli.artifact.bytes", 0)}) for r in traced]
        metrics = {
            name: {"value": statistics.median_low(lay[name] for lay in layers),
                   "unit": unit_of(name)}
            for name in layers[0]
        }
        conv = sorted(c for r in plain for c in r["convolve_s"])
        metrics["algebra.convolve.p50_ms"] = {"value": 1e3 * percentile(conv, 50), "unit": "ms"}
        metrics["algebra.convolve.p95_ms"] = {"value": 1e3 * percentile(conv, 95), "unit": "ms"}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(walls))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        samples = "convolve percentiles over %d untraced calls" % len(conv)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
        samples = "wall_s median of %d iterations, setup_s median of %d interpreters" % (
            len(walls), SETUP_REPEATS)

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(blas_cap),
        "iterations": {"plain": len(plain), "traced": len(traced)},
        "samples": samples,
        "wall_s_samples": walls,
        "setup_s_samples": setup_samples,
        "failed_frac": [failed, attempted],
        "unconverged_frac": [unconverged, spectral] if spectral else None,
        "metrics": metrics,
    }
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        spans = [s for r in traced for s in r["spans"]]
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": spans}, fh)

    print_report(record)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".hit_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def print_report(record):
    env = record["environment"]
    print("perfbench %s seed=%d size=%s trace=%d: %d plain + %d traced iterations" % (
        record["workload"], record["seed"], record["size"], record["trace"],
        record["iterations"]["plain"], record["iterations"]["traced"]))
    print("  env: python %s, numpy %s, nproc %d, blas threads %d, commit %s, loadavg %s" % (
        env["python"], env["numpy"], env["nproc"], env["blas_threads"],
        env["commit"], env["loadavg"]))
    print("  " + record["samples"])
    for name, m in record["metrics"].items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    bad, total = record["failed_frac"]
    print("  %-36s %14.6g (%d of %d results)" % ("failed_frac", bad / total if total else 0.0,
                                                  bad, total))
    if record["unconverged_frac"]:
        bad, total = record["unconverged_frac"]
        print("  %-36s %14.6g (%d of %d spectral results)" % (
            "unconverged_frac", bad / total, bad, total))


def run_all(args):
    """Each workload in its own fresh process; prints every workload's report."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if res.returncode == 0 else res.stderr)
        if res.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heckepairs", "__init__.py")):
        print("perfbench: no heckepairs sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
