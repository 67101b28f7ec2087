"""Finite-difference verification of reverse-mode gradients.

Meant to run on float64 tensors: float32 central differences lose too
many digits to say anything useful about a correct implementation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from crnet.tensor import Tensor


def _gradients(f: Callable[[Tensor], Tensor], x: Tensor, eps: float):
    """Analytic and central-difference gradients of the scalar f at x."""
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.size != 1:
        raise ValueError(f"finite_difference_check: f must return a scalar, got {out.shape}")
    out.backward()
    analytic = probe.grad.copy() if probe.grad is not None else np.zeros_like(probe.data)

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        hi = f(Tensor(x.data)).item()
        flat[i] = saved - eps
        lo = f(Tensor(x.data)).item()
        flat[i] = saved
        num_flat[i] = (hi - lo) / (2.0 * eps)
    return analytic, numeric


def finite_difference_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and numeric gradients of f at x.

    f must map a tensor to a scalar tensor and be a pure function of its
    argument. Central differences are taken per element; relative error
    uses the denominator max(|analytic|, |numeric|, 1e-8).
    """
    analytic, numeric = _gradients(f, x, eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def finite_difference_norm_error(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
) -> float:
    """Max error between analytic and numeric gradients of f at x, over the analytic gradient's max norm.

    Unlike finite_difference_check, an entry near a zero of the gradient is
    not scored against itself: the difference quotient's own error there,
    which that check must forgive with a loose bound, counts at the
    gradient's scale, so a tight bound still catches a wrong entry.
    """
    analytic, numeric = _gradients(f, x, eps)
    return float(np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(analytic)), np.finfo(analytic.dtype).tiny))
