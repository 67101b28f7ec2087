"""Correctness checks applied to every workload's outputs.

Each check returns a list of failure messages; an empty list means the
output passed. They are pure functions of the outputs, so
``selftest.py`` can show that each one trips when an output is
perturbed.
"""

from __future__ import annotations

import math

import numpy as np

# Two evaluations of one sample run identical float32 arithmetic.
REPORT_ATOL = 1e-6


def rel_error(got, want) -> float:
    """||got - want|| / ||want|| in float64; NaN or inf when either is not finite.

    Both are divided by max |want| first, so that the squares inside the
    norms cannot underflow: the full model's float64 gradients of a few
    parameters are around 1e-184 where float32 gives exactly 0, and
    unscaled that reads 0/0.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.max(np.abs(want), initial=0.0)
        if 0 < scale < np.inf:
            got, want = got / scale, want / scale
        return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def fp32_agreement(pred32, pred64, loss32=None, loss64=None, *, tol: float) -> list:
    """A float32 forward (and loss) against a float64 re-run of the same step.

    Both the raw prediction and the loss must agree within tol in
    relative terms. Relative L2 on the raw prediction scales with the
    error, so it stays strict where the outputs are large.
    """
    if np.shape(pred32) != np.shape(pred64):
        return [f"prediction shape {np.shape(pred32)} != float64 reference {np.shape(pred64)}"]
    failures = []
    err = rel_error(pred32, pred64)
    if not err <= tol:
        failures.append(f"prediction is {err:.3g} from float64 in relative L2 (tolerance {tol:g})")
    if loss32 is not None:
        err = rel_error(loss32, loss64)
        if not err <= tol:
            failures.append(f"loss {loss32!r} is {err:.3g} from float64 {loss64!r} (tolerance {tol:g})")
    return failures


def clamp_free_cotangent(pred32, pred64) -> np.ndarray:
    """The cotangent of the mean prediction, left out where either precision clamps.

    It is 1/N on every output above 0 in both precisions and 0
    elsewhere. The network ends in a clamp at 0, which passes no
    gradient, so a single output rounded across it in one precision
    would otherwise decide the comparison.
    """
    pred32 = np.asarray(pred32)
    pred64 = np.asarray(pred64)
    return ((pred32 > 0) & (pred64 > 0)) / pred64.size


def grad_agreement(grads32: dict, grads64: dict, *, tol: float) -> list:
    """Float32 parameter gradients against float64 ones.

    Every float32 gradient must be finite, and the median over
    parameters of each one's relative L2 error must be within tol. The
    median rather than the worst: at initialisation the full model's
    float32 gradients of a few parameters are tens of percent off, and
    those whose float64 gradient is nearly 0 are off by orders of
    magnitude, while an error in one op's backward moves the gradients
    of most parameters, because every block runs every op.
    """
    if set(grads32) != set(grads64):
        return [f"gradients for {sorted(set(grads32) ^ set(grads64))} missing on one side"]
    shapes = sorted(k for k in grads64 if np.shape(grads32[k]) != np.shape(grads64[k]))
    if shapes:
        return [f"gradient shapes differ from float64 for {shapes}"]
    bad = sorted(k for k, g in grads32.items() if not np.all(np.isfinite(g)))
    if bad:
        return [f"non-finite float32 gradients for {bad}"]
    # A gradient that is exactly zero in both precisions agrees.
    errors = [rel_error(grads32[k], grads64[k]) if np.any(grads64[k]) or np.any(grads32[k]) else 0.0 for k in grads64]
    err = float(np.median(errors))
    if err <= tol:
        return []
    return [f"median parameter gradient is {err:.3g} from float64 in relative L2 (tolerance {tol:g})"]


def training_round(losses, ticks: int, expected: int) -> list:
    """One train() call: every step returned a finite loss and ticked once."""
    failures = []
    if len(losses) != expected:
        failures.append(f"train() returned {len(losses)} losses, expected {expected}")
    if ticks != expected:
        failures.append(f"adamw_step returned {ticks} times, expected {expected}")
    bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
    if bad:
        failures.append(f"non-finite loss at steps {bad}")
    return failures


def eval_report(report) -> list:
    failures = []
    for name in ("psnr_linear", "psnr_mu"):
        if not math.isfinite(getattr(report, name)):
            failures.append(f"{name} = {getattr(report, name)} is not finite")
    for name in ("ssim_linear", "ssim_mu"):
        value = getattr(report, name)
        if not -1.0 <= value <= 1.0:
            failures.append(f"{name} = {value} outside [-1, 1]")
    return failures


def same_report(report, reference) -> list:
    """An evaluate() report matches the one computed from the checked prediction."""
    failures = []
    for name in ("psnr_linear", "psnr_mu", "ssim_linear", "ssim_mu"):
        got, want = getattr(report, name), getattr(reference, name)
        if not abs(got - want) <= REPORT_ATOL:
            failures.append(f"{name} = {got!r}, checked prediction gives {want!r}")
    return failures
