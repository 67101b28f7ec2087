"""Summarise the runs in perfbench/out/ into the baseline of predictions.json.

    python3 perfbench/baseline.py

For each workload: every end-to-end metric's median, quartiles and
spread (interquartile range over median) across the untraced runs, and
the layer shares of the unit time across the traced runs.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent
OUT = ROOT / "out"
# Shares of the traced unit time that justify the workload choice.
SHARES = {
    "tensor.gelu": ("tensor.gelu.fwd_ms", "tensor.gelu.bwd_ms"),
    "tensor.conv2d": ("tensor.conv2d.fwd_ms", "tensor.conv2d.bwd_ms"),
    "model.estimate_flow": ("model.estimate_flow.ms",),
    "model.warp_by_flow": ("model.warp_by_flow.fwd_ms", "model.warp_by_flow.bwd_ms"),
    "metrics.ssim": ("metrics.ssim.ms",),
    "blocks.conv_enhancement_block": (
        "blocks.conv_enhancement_block.ms",
        "blocks.conv_enhancement_block.bwd_ms",
    ),
}


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def load(pattern: str) -> list:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(OUT.glob(pattern))]


def main() -> None:
    bench = json.loads((ROOT.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    baseline = {}
    environment = None
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = {t: load(f"{workload}-seed*-trace{t}.json") for t in (0, 1)}
        if not runs[0]:
            continue
        environment = runs[0][0]["environment"]
        entry = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs[0]]) for m in bench["end_to_end"]}
        entry["seeds"] = sorted(r["seed"] for r in runs[0])
        entry["failed_frac_max"] = max(r["failed_frac"] for r in runs[0] + runs[1])
        if runs[1]:
            shares = {}
            for layer, names in SHARES.items():
                shares[layer] = statistics.median(
                    sum(r["metrics"][n]["value"] for n in names) / statistics.fmean(r["traced_units_ms"])
                    for r in runs[1]
                )
            entry["layer_share_of_traced_unit"] = shares
            entry["trace_overhead_ms"] = statistics.median(
                r["metrics"]["trace.overhead_ms"]["value"] for r in runs[1]
            )
        baseline[workload] = entry
    path = ROOT / "predictions.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["baseline"] = {"environment": environment, "run_seconds": bench["run_seconds"], "workloads": baseline}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(doc["baseline"], indent=2))


if __name__ == "__main__":
    main()
