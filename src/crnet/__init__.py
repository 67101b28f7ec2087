"""CRNet: unified restoration and enhancement of multi-exposure raw bursts.

Self-contained engine: a small reverse-mode tensor library, the network
blocks, preprocessing and alignment, loss/metrics, a synthetic dataset
generator, a training loop, and a command-line front end.
"""

from .metrics import MetricReport, l1_tonemapped_loss, mu_law, psnr, psnr_mu, ssim, ssim_mu
from .model import (
    ABLATION_VARIANTS,
    CRNetConfig,
    ExposureStack,
    build_ablation_variant,
    build_params,
    count_params,
    estimate_flow,
    forward,
    preprocess,
    warp_by_flow,
)
from .synth import DegradeSpec, SampleRecord, SceneSpec, generate_sample, read_dataset, write_dataset
from .tensor import Tensor
# `crnet.train` is this function, not the submodule: use `from .train import name`, never `from . import train`.
from .train import TrainConfig, adamw_step, augment, evaluate, lr_at, train

__all__ = [
    "ABLATION_VARIANTS",
    "CRNetConfig",
    "DegradeSpec",
    "ExposureStack",
    "MetricReport",
    "SampleRecord",
    "SceneSpec",
    "Tensor",
    "TrainConfig",
    "adamw_step",
    "augment",
    "build_ablation_variant",
    "build_params",
    "count_params",
    "estimate_flow",
    "evaluate",
    "forward",
    "generate_sample",
    "l1_tonemapped_loss",
    "lr_at",
    "mu_law",
    "preprocess",
    "psnr",
    "psnr_mu",
    "read_dataset",
    "ssim",
    "ssim_mu",
    "train",
    "warp_by_flow",
]
__version__ = "0.1.0"
