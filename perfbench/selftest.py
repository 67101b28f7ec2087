"""Shows that every correctness check passes on real outputs and trips when
one output is perturbed.

    python3 perfbench/selftest.py

The outputs come from one warm-up step of the train_desk and the
train_full32 workloads (seed 1). Exits 0 when every case behaves as
expected, 1 otherwise.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run


def agreement_cases(wl, scale: float):
    """The float64 checks on one training workload's warm-up step.

    scale sizes the perturbations to the workload's tolerance.
    """
    import numpy as np

    import checks
    from tracer import Rebinder
    from workloads import clone, tensor, vjp

    cap, spec = wl.capture, wl.spec
    pred64, loss64, grads32, grads64 = wl.reference()
    pred32, loss32 = cap.prediction, cap.loss

    def agree(pred=pred32, loss=loss32):
        return checks.fp32_agreement(pred, pred64, loss, loss64, tol=spec.fp32_tol)

    def grads_agree(grads, reference=grads64):
        return checks.grad_agreement(grads, reference, tol=spec.grad_tol)

    def backward_scaled(op, factor):
        """Float32 gradients with the backward of every node that op returns scaled by factor."""

        def scaled(*args, **kwargs):
            out = op(*args, **kwargs)
            backward = out._backward_fn
            if backward is not None:
                out._backward_fn = lambda g: backward(g * factor)
            return out

        with Rebinder() as rb:
            rb.replace(op, scaled)
            params = clone(wl.init)
            return vjp(wl.forward(params), params, checks.clamp_free_cotangent(pred32, pred64))

    spot = pred32.copy()
    spot[0, :, :8, :8] *= 1 + 10 * (scale - 1)
    nan_pred = pred32.copy()
    nan_pred.flat[0] = np.nan
    first = next(iter(grads32))
    nan_grads = {**grads32, first: grads32[first] * np.nan}

    yield "fp32 agreement, as computed", agree(), False
    yield f"fp32 agreement, prediction scaled by {scale}", agree(pred=pred32 * scale), True
    yield f"fp32 agreement, one 8x8 block {10 * (scale - 1):.0%} brighter", agree(pred=spot), True
    yield "fp32 agreement, one NaN pixel", agree(pred=nan_pred), True
    yield "fp32 agreement, loss off by 10x the tolerance", agree(loss=loss32 * (1 + 10 * spec.fp32_tol)), True
    yield "fp32 agreement, NaN loss", agree(loss=math.nan), True
    yield "gradients, as computed", grads_agree(grads32), False
    underflow = (
        {**grads32, first: np.zeros_like(grads32[first])},
        {**grads64, first: np.full_like(grads64[first], 1e-184)},
    )
    yield "gradients, float32 0 where float64 underflows to 1e-184", grads_agree(*underflow), False
    yield "gradients, all scaled by 1.1", grads_agree({k: g * 1.1 for k, g in grads32.items()}), True
    yield "gradients, all zero", grads_agree({k: g * 0 for k, g in grads32.items()}), True
    yield f"gradients, NaN in {first}", grads_agree(nan_grads), True
    yield "gradients, gelu backward 10% off", grads_agree(backward_scaled(tensor.gelu, 1.1)), True
    yield "gradients, conv2d backward 10% off", grads_agree(backward_scaled(tensor.conv2d, 1.1)), True


def output_cases(wl, coverage_failures):
    """The per-round checks, on outputs of the train_desk warm-up step."""
    import checks
    from workloads import Result, metrics

    cap = wl.capture
    loss32 = cap.loss
    report = metrics.compute_report(cap.prediction[0], cap.target[0], wl.cfg.mu)

    def coverage(top_ms):
        res = Result(units=[0.100] * 9, traced_units=[0.104] * 9, top_level=[top_ms / 1e3] * 9)
        return coverage_failures(res)

    yield "training round, as computed", checks.training_round([loss32] * 16, 16, 16), False
    yield "training round, one NaN loss", checks.training_round([loss32] * 15 + [math.nan], 16, 16), True
    yield "training round, one tick missing", checks.training_round([loss32] * 16, 15, 16), True
    yield "training round, one step missing", checks.training_round([loss32] * 15, 15, 16), True
    yield "eval report, as computed", checks.eval_report(report), False
    yield "eval report, infinite PSNR", checks.eval_report(replace(report, psnr_mu=math.inf)), True
    yield "eval report, NaN PSNR", checks.eval_report(replace(report, psnr_linear=math.nan)), True
    yield "eval report, SSIM above 1", checks.eval_report(replace(report, ssim_mu=1.0 + 1e-9)), True
    yield "eval report, SSIM NaN", checks.eval_report(replace(report, ssim_linear=math.nan)), True
    yield "same report, as computed", checks.same_report(report, report), False
    shifted = replace(report, psnr_mu=report.psnr_mu + 1e-4)
    yield "same report, PSNR off by 1e-4 dB", checks.same_report(shifted, report), True
    yield "trace coverage, spans cover the step", coverage(101.0), False
    yield "trace coverage, 10% of the step uncovered", coverage(90.0), True


def main() -> int:
    run.set_blas_threads()
    run.load_engine()
    import workloads

    run.OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    ok = True
    try:
        # Perturbations sized to each workload's tolerance.
        for name, scale in (("train_desk", 1.001), ("train_full32", 1.1)):
            wl = workloads.make(name, 1, tmp)
            wl.setup(0, capture=True)
            cases = list(agreement_cases(wl, scale))
            if name == "train_desk":
                cases += output_cases(wl, run.coverage_failures)
            del wl
            for case, failures, should_trip in cases:
                tripped = bool(failures)
                good = tripped == should_trip
                ok &= good
                outcome = "tripped" if tripped else "passed"
                detail = f" ({failures[0]})" if failures else ""
                print(f"[{'PASS' if good else 'FAIL'}] {name}: {case}: {outcome}{detail}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
