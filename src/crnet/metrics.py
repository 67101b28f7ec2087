"""Tone mapping, the training objective, and evaluation metrics.

The compressor T(x) = log(1 + mu*x) / log(1 + mu) maps linear radiance
into [0, 1] (for x in [0, 1]); natural log is used, though any base
would cancel in the ratio. The loss is the mean absolute difference of
tone-mapped prediction and target. PSNR/SSIM come in a linear flavor
and a tone-mapped flavor, both with peak value 1. The SSIM window is
separable, so SSIM filters with two 1-d Gaussian passes (Wang et al. 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _node, sub, tabs, tmean

DEFAULT_MU = 5000.0


def mu_law(x: Tensor, mu: float = DEFAULT_MU) -> Tensor:
    """Logarithmic range compression, differentiable; input must be >= 0.

    Division by log1p(mu) (not multiplication by its reciprocal) keeps
    the endpoints exact: T(0) == 0 and T(1) == 1 bit-for-bit.
    """
    if mu <= 0:
        raise ValueError(f"mu_law: mu must be positive, got {mu}")
    if np.any(x.data < 0):
        raise ValueError("mu_law: negative input; clamp before tone mapping")
    xn, xd = x.node, x.data
    denom = xd.dtype.type(math.log1p(mu))
    data = np.log1p(mu * xd) / denom

    def backward(g):
        xn._accumulate(g * mu / ((1.0 + mu * xd) * denom))

    return _node(data, (x,), backward)


def mu_law_np(x: np.ndarray, mu: float = DEFAULT_MU) -> np.ndarray:
    """Graph-free tone mapping for metric computation."""
    return np.log1p(mu * np.asarray(x, dtype=np.float64)) / math.log1p(mu)


def l1_tonemapped_loss(prediction: Tensor, target: Tensor, mu: float = DEFAULT_MU) -> Tensor:
    """Mean |T(target) - T(prediction)| over all elements.

    Mean rather than sum, so the learning rate does not depend on patch
    size.
    """
    if prediction.shape != target.shape:
        raise ValueError(
            f"l1_tonemapped_loss: shape mismatch {prediction.shape} vs {target.shape}"
        )
    return tmean(tabs(sub(mu_law(target, mu), mu_law(prediction, mu))))


def psnr(a: np.ndarray, b: np.ndarray, max_val: float = 1.0) -> float:
    """10*log10(max_val^2 / MSE); identical inputs give +inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(max_val * max_val / mse)


def psnr_mu(a: np.ndarray, b: np.ndarray, mu: float = DEFAULT_MU) -> float:
    """PSNR in the tone-mapped domain, peak value 1."""
    return psnr(mu_law_np(a, mu), mu_law_np(b, mu), max_val=1.0)


_SSIM_WINDOW = 11
_SSIM_TAPS = np.exp(-((np.arange(_SSIM_WINDOW) - (_SSIM_WINDOW - 1) / 2.0) ** 2) / (2.0 * 1.5**2))
_SSIM_TAPS /= _SSIM_TAPS.sum()


def ssim(a: np.ndarray, b: np.ndarray, max_val: float = 1.0) -> float:
    """Single-scale SSIM, 11x11 Gaussian window sigma=1.5, K1=0.01, K2=0.03.

    Computed over valid window positions only (no padding). Multichannel
    inputs [C, H, W] are scored per channel and averaged.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    if a.ndim != 3:
        raise ValueError(f"ssim: expected [H,W] or [C,H,W], got {a.shape}")
    channels, height, width = a.shape
    size = _SSIM_WINDOW
    if height < size or width < size:
        raise ValueError(f"ssim: image {height}x{width} smaller than the {size}x{size} window")
    moments = np.concatenate([a, b, a * a, b * b, a * b])  # [5*C, H, W]
    for _ in range(2):
        # Filter along the strided axis 1 (fast matmul), then swap the spatial axes.
        filtered = np.lib.stride_tricks.sliding_window_view(moments, size, axis=1) @ _SSIM_TAPS
        moments = np.ascontiguousarray(filtered.transpose(0, 2, 1))
    mu_a, mu_b, e_aa, e_bb, e_ab = moments.reshape((5, channels) + moments.shape[1:])
    var_a, var_b, cov = e_aa - mu_a**2, e_bb - mu_b**2, e_ab - mu_a * mu_b
    c1, c2 = (0.01 * max_val) ** 2, (0.03 * max_val) ** 2
    ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(np.mean(ssim_map.mean(axis=(1, 2))))


def ssim_mu(a: np.ndarray, b: np.ndarray, mu: float = DEFAULT_MU) -> float:
    return ssim(mu_law_np(a, mu), mu_law_np(b, mu), max_val=1.0)


@dataclass
class MetricReport:
    """Evaluation scores for one sample (or an aggregate)."""

    psnr_linear: float
    psnr_mu: float
    ssim_linear: float
    ssim_mu: float

    CSV_HEADER = "sample_id,psnr_l,psnr_mu,ssim_l,ssim_mu"

    def to_csv_row(self, sample_id: str) -> str:
        return (
            f"{sample_id},{self.psnr_linear:.6f},{self.psnr_mu:.6f},"
            f"{self.ssim_linear:.6f},{self.ssim_mu:.6f}"
        )


def compute_report(prediction: np.ndarray, target: np.ndarray, mu: float = DEFAULT_MU) -> MetricReport:
    return MetricReport(
        psnr_linear=psnr(prediction, target, 1.0),
        psnr_mu=psnr_mu(prediction, target, mu),
        ssim_linear=ssim(prediction, target, 1.0),
        ssim_mu=ssim_mu(prediction, target, mu),
    )
