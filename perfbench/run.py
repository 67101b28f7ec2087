"""Outside-in benchmark of the crnet engine.

Run from the repository root:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1

A single run measures one workload in this process and prints, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. ``--all`` runs
every workload untraced and then traced, each in a fresh process so
that peak RSS is the workload's own, and prints one table.

Results (with the environment) go to perfbench/out/, and a traced run
also writes its spans there. The engine is imported from src/ of the
checkout; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)

# Layers that run only during set-up; their per-layer values are per set-up.
SETUP_LAYERS = ("synth.generate_sample", "synth.read_dataset", "storage.read_archive")
# The traced run fails unless the top-level spans match the untraced unit
# time within the tracing overhead plus this share, which covers the
# loop's own glue between spans.
COVERAGE_SLACK = 0.05


def set_blas_threads() -> None:
    """Pin BLAS to at most two threads; must run before numpy is imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)


def load_engine() -> None:
    """Put src/ on the path and import crnet from it, or exit with status 2."""
    if not (SRC / "crnet" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {SRC / 'crnet'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import crnet

    if Path(crnet.__file__).resolve().parent != SRC / "crnet":
        print(f"perfbench: crnet imported from {crnet.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    mem_total = None
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_total = int(line.split()[1]) // 1024
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": NPROC,
        "mem_total_mb": mem_total,
    }


def tail(values):
    """Highest percentile with at least 10 samples beyond it, and that percentile.

    Below 20 samples no percentile above the median qualifies, so the
    median is reported and labelled p50.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(res) -> dict:
    """name -> (value, note) for the end-to-end metrics of an untraced run."""
    units_ms = [1e3 * u for u in res.units]
    n = len(units_ms)
    tail_ms, tail_pct = tail(units_ms) if units_ms else (math.nan, math.nan)
    return {
        "setup_s": (statistics.median(res.setup_s), f"median of {len(res.setup_s)} set-ups"),
        "step_ms_p50": (statistics.median(units_ms) if units_ms else math.nan, f"n={n}"),
        "step_ms_tail": (tail_ms, f"p{tail_pct:.0f}, n={n}"),
        "samples_per_s": (res.samples / res.busy_s, f"{res.samples} samples in {res.busy_s:.2f} s"),
        "quality_loss": (res.quality_loss, "mean loss of the first train() call, or mean 1 - SSIM_mu"),
        "peak_rss_mb": (res.peak_rss_mb, "this process, before the float64 check"),
    }


def per_layer(res, names) -> dict:
    """name -> (value, note) for the per-layer metrics of a traced run.

    Times, calls and bytes are per traced unit (step or sample), except
    SETUP_LAYERS, which are per set-up. A ``.ms``/``.fwd_ms`` value is
    the span's inclusive time and ``.bwd_ms`` the backward time of graph
    nodes created inside it; self times are in the results file.
    ``tensor.other`` sums every tensor op not listed by name.
    """
    units = len(res.traced_units)
    timed = res.layers_timed["totals"]
    setup = res.layers_setup["totals"]
    listed = {n.rsplit(".", 1)[0] for n in names if n.startswith("tensor.")}
    other = [k for k in timed if k.startswith("tensor.") and k not in listed and k != "tensor.backward"]

    def row(layer):
        if layer == "tensor.other":
            rows = [timed[k] for k in other]
            return [sum(r[i] for r in rows) for i in range(5)], units
        if layer in SETUP_LAYERS:
            return setup.get(layer, [0, 0.0, 0.0, 0, 0.0]), 1
        return timed.get(layer, [0, 0.0, 0.0, 0, 0.0]), units

    untraced = statistics.median(res.units)
    traced = statistics.median(res.traced_units)
    # Only training units have forward, loss, backward and optimizer spans.
    loop_s = statistics.fmean(u - c for u, c in zip(res.traced_units, res.core)) if any(res.core) else 0.0
    special = {
        "tensor.backward.walk_ms": 1e3 * (row("tensor.backward")[0][1] - res.layers_timed["backward_s"]) / units,
        "tensor.nodes": res.layers_timed["nodes"] / units,
        "tensor.retained_mb": res.layers_timed["retained_bytes"] / units / 2**20,
        "train.loop_ms": 1e3 * loop_s,
        "trace.step_ms_p50": 1e3 * traced,
        "trace.untraced_step_ms_p50": 1e3 * untraced,
        "trace.overhead_ms": 1e3 * (traced - untraced),
        "trace.coverage": statistics.median(res.top_level) / untraced,
        "trace.units": float(units),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        layer, field = name.rsplit(".", 1)
        (calls, incl, _, nbytes, bwd), per = row(layer)
        out[name] = {
            "ms": 1e3 * incl / per,
            "fwd_ms": 1e3 * incl / per,
            "bwd_ms": 1e3 * bwd / per,
            "calls": calls / per,
            "mb": nbytes / per / 2**20,
        }[field]
    return {k: (v, "per set-up" if k.rsplit(".", 1)[0] in SETUP_LAYERS else "per unit") for k, v in out.items()}


def coverage_failures(res) -> list:
    untraced = statistics.median(res.units)
    overhead = abs(statistics.median(res.traced_units) - untraced)
    covered = statistics.median(res.top_level)
    if abs(covered - untraced) <= overhead + COVERAGE_SLACK * untraced:
        return []
    return [
        f"top-level spans cover {1e3 * covered:.2f} ms of an untraced {1e3 * untraced:.2f} ms unit, "
        f"outside the tracing overhead {1e3 * overhead:.2f} ms + {COVERAGE_SLACK:.0%}"
    ]


def run_one(args, spec) -> int:
    set_blas_threads()
    load_engine()
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        res = workloads.make(args.workload, args.seed, tmp).run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        res.failures += coverage_failures(res)
        listed = spec["per_layer"]
        values = per_layer(res, [m["name"] for m in listed])
    else:
        listed = spec["end_to_end"]
        values = end_to_end(res)
    metrics = {}
    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    for m in listed:
        value, note = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{label}  {m['name']} = {value:.6g} {m['unit']}  ({note})")
    correct = not res.failures and all(math.isfinite(v["value"]) for v in metrics.values())
    failed_frac = res.failed / res.attempted
    print(f"{label}  failed_frac = {failed_frac:.6g}  ({res.failed} of {res.attempted} units)")
    for failure in res.failures:
        print(f"{label}  FAILED: {failure}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "failed_frac": failed_frac,
        "failures": res.failures,
        "metrics": {k: {**v, "note": values[k][1]} for k, v in metrics.items()},
        "setup_s": res.setup_s,
        "units_ms": [1e3 * u for u in res.units],
        "traced_units_ms": [1e3 * u for u in res.traced_units],
        "environment": environment(),
    }
    if args.trace:
        record["layers_timed"] = res.layers_timed
        record["layers_setup"] = res.layers_setup
        res.tracer.write(OUT / f"{stem}.trace.json")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    result = {"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows, results = [], {}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            ok &= result["correct"]
            rows += lines[:-1]
            results[f"{workload}-trace{trace}"] = result
    print("\n".join(rows))
    (OUT / f"all-seed{args.seed}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"all workloads correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args, spec)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
