"""Optimizer, schedule, augmentation, training and evaluation loops.

Training is bit-reproducible for a fixed seed: sample order, crops and
flips are all drawn from generators re-derived per (seed, purpose,
step), so resuming from a checkpoint replays the exact remainder of an
unbroken run. A non-finite loss, gradient or updated parameter aborts
the run and leaves the last good checkpoint in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import MetricReport, compute_report, l1_tonemapped_loss
from .model import (
    CRNetConfig,
    ExposureStack,
    forward,
    forward_batch,
    param_spec,
    validate_params,
)
from .blocks import Params
from .storage import FormatError, read_archive, write_archive
from .synth import SampleRecord
from .tensor import Tensor


class NumericError(RuntimeError):
    """Training hit a non-finite loss, gradient or updated parameter."""


# Purpose tags for per-step generator derivation.
_SEED_INIT, _SEED_SHUFFLE, _SEED_AUGMENT = 0xA0, 0xA1, 0xA2


def _rng(seed: int, purpose: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), purpose, int(index)]))


@dataclass
class TrainConfig:
    initial_lr: float = 1e-4
    lr_gamma: float = 0.5
    lr_step_epochs: int = 80
    crop: int = 128
    epochs: int = 1
    batch: int = 4
    seed: int = 0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    augment: bool = True
    ckpt_every: int = 10

    def validate(self) -> None:
        if self.crop % 2 != 0 or self.crop < 2:
            raise ValueError(f"train: crop must be even and >= 2, got {self.crop}")
        if self.epochs < 1 or self.batch < 1 or self.ckpt_every < 1:
            raise ValueError("train: epochs, batch and ckpt_every must be >= 1")
        if self.seed < 0:
            raise ValueError(f"train: seed must be >= 0, got {self.seed}")
        if not (0 < self.initial_lr < math.inf and 0 < self.lr_gamma <= 1) or self.lr_step_epochs < 1:
            raise ValueError("train: bad learning-rate schedule settings")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and 0 < self.eps < math.inf and 0 <= self.weight_decay < math.inf):
            raise ValueError("train: need 0 <= beta1, beta2 < 1, 0 < eps < inf and 0 <= weight_decay < inf")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step decay: initial_lr * lr_gamma ** (epoch // lr_step_epochs)."""
    if epoch < 0:
        raise ValueError(f"lr_at: epoch must be >= 0, got {epoch}")
    return cfg.initial_lr * cfg.lr_gamma ** (epoch // cfg.lr_step_epochs)


# -- optimizer ---------------------------------------------------------------


@dataclass
class OptimState:
    """Decoupled-weight-decay Adam state: one moment pair per parameter and
    the step count. The settings (lr, betas, decay, eps) live in TrainConfig."""

    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    step: int = 0


def init_optim_state(params: Params, cfg: TrainConfig) -> OptimState:
    """Zero moments at step 0. ``cfg`` is not read; the settings come from
    the TrainConfig that each adamw_step call is given."""
    return OptimState(
        m={k: np.zeros_like(p.data) for k, p in params.items()},
        v={k: np.zeros_like(p.data) for k, p in params.items()},
    )


def adamw_step(params: Params, state: OptimState, lr: float, cfg: TrainConfig) -> None:
    """One update from each parameter's ``.grad``: multiplicative decoupled
    decay, then the adaptive step. Releases every ``.grad`` afterwards.

    Biases (1-d parameters) are excluded from weight decay. A missing
    gradient (ValueError) or a non-finite one (NumericError) is rejected
    by parameter path before anything changes; a parameter that the
    update makes non-finite raises NumericError at once.
    """
    step = state.step
    for path, p in params.items():
        if p.grad is None:
            raise ValueError(f"adamw_step: no gradient for parameter {path!r}")
        if not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite gradient for {path!r} at step {step}; last checkpoint retained")
    beta1, beta2 = cfg.beta1, cfg.beta2
    state.step += 1
    t = state.step
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    # An lr beyond the parameter dtype's range overflows here; the check
    # below reports it instead of a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        for path, p in params.items():
            g = p.grad
            if cfg.weight_decay and p.data.ndim > 1:
                p.data *= 1.0 - lr * cfg.weight_decay
            m = state.m[path]
            v = state.v[path]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.eps)
            if not np.isfinite(p.data).all():
                raise NumericError(
                    f"non-finite parameter {path!r} after the update at step {step}; last checkpoint retained"
                )
            p.grad = None


# -- checkpointing -------------------------------------------------------------

_OPT_STEP = "optim.step"


def save_checkpoint(path, params: Params, state: OptimState) -> None:
    entries: Dict[str, np.ndarray] = {k: p.data for k, p in params.items()}
    entries[_OPT_STEP] = np.array(state.step, dtype=np.float64)
    for k in params:
        entries[f"optim.m.{k}"] = state.m[k]
        entries[f"optim.v.{k}"] = state.v[k]
    write_archive(path, entries)


def load_checkpoint(path, cfg: CRNetConfig) -> Tuple[Params, OptimState]:
    """Load params + optimizer state, validating against cfg's layout.

    A parameter layout mismatch raises ValueError listing every missing,
    unexpected and wrongly shaped path. A missing or malformed step, Adam
    moments whose layout or dtype differs from their parameters', or a
    non-finite parameter or moment raise FormatError naming the entries.
    """
    entries = read_archive(path)
    stored = {k: v for k, v in entries.items() if not k.startswith("optim.")}
    try:
        validate_params(stored, cfg)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    if _OPT_STEP not in entries:
        raise FormatError(f"checkpoint {path}: no {_OPT_STEP!r} entry (checkpoints from before it are not read)")
    step = entries[_OPT_STEP]
    if step.shape != () or not (step >= 0 and float(step).is_integer()):
        raise FormatError(f"checkpoint {path}: {_OPT_STEP} must be one finite integer >= 0, got {step!r}")
    moments = {}
    for name in ("m", "v"):
        prefix = f"optim.{name}."
        moments[name] = {k[len(prefix) :]: a for k, a in entries.items() if k.startswith(prefix)}
        try:
            validate_params(moments[name], cfg)
        except ValueError as exc:
            raise FormatError(f"checkpoint {path}: {prefix}*: {exc}") from None
        unlike = [prefix + k for k, a in moments[name].items() if a.dtype != stored[k].dtype]
        if unlike:
            raise FormatError(f"checkpoint {path}: {unlike} differ in dtype from their parameters")
    non_finite = [k for k, a in entries.items() if not np.isfinite(a).all()]
    if non_finite:
        raise FormatError(f"checkpoint {path}: {non_finite} hold non-finite values")
    params: Params = {k: Tensor(stored[k], requires_grad=True) for k in param_spec(cfg)}
    return params, OptimState(m=moments["m"], v=moments["v"], step=int(step))


# -- augmentation ----------------------------------------------------------------


def augment(sample: SampleRecord, rng: np.random.Generator, crop: int) -> SampleRecord:
    """Shared random crop plus dihedral flip/rotation.

    One draw applies identically to all five frames and the ground
    truth; exposure times pass through untouched.
    """
    _, h, w = sample.ground_truth.shape
    if crop > h or crop > w:
        raise ValueError(f"augment: crop {crop} exceeds sample extents {h}x{w}")
    oy = int(rng.integers(0, h - crop + 1))
    ox = int(rng.integers(0, w - crop + 1))
    flip = bool(rng.integers(0, 2))
    quarter_turns = int(rng.integers(0, 4))

    def apply(arr: np.ndarray) -> np.ndarray:
        out = arr[:, oy : oy + crop, ox : ox + crop]
        if flip:
            out = out[:, :, ::-1]
        if quarter_turns:
            out = np.rot90(out, quarter_turns, axes=(1, 2))
        return np.ascontiguousarray(out)

    stack = ExposureStack(
        frames=[apply(f) for f in sample.stack.frames],
        exposure_times=np.asarray(sample.stack.exposure_times).copy(),
    )
    return SampleRecord(stack=stack, ground_truth=apply(sample.ground_truth))


# -- training loop ------------------------------------------------------------------


@dataclass
class HistoryRow:
    step: int
    epoch: int
    lr: float
    loss: float


def history_to_csv(history: Sequence[HistoryRow]) -> str:
    lines = ["step,epoch,lr,loss"]
    lines += [f"{r.step},{r.epoch},{r.lr:.10g},{r.loss:.10g}" for r in history]
    return "\n".join(lines) + "\n"


def train(
    dataset: Sequence[SampleRecord],
    model_cfg: CRNetConfig,
    train_cfg: TrainConfig,
    params: Params,
    state: Optional[OptimState] = None,
    out_dir=None,
) -> Tuple[Params, List[HistoryRow]]:
    """Optimize params on the dataset; returns (params, loss history).

    Deterministic given train_cfg.seed. Checkpoints go to
    out_dir/checkpoint.crt1a every ckpt_every epochs and at the end; a
    non-finite loss, parameter gradient or updated parameter raises
    NumericError without overwriting the previous checkpoint. Passing a
    restored optimizer state resumes exactly where the stored step count
    left off; the optimizer settings always come from train_cfg.
    """
    if not dataset:
        raise ValueError("train: dataset is empty")
    train_cfg.validate()
    if state is None:
        state = init_optim_state(params, train_cfg)
    for p in params.values():
        p.zero_grad()
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    steps_per_epoch = max(1, len(dataset) // train_cfg.batch)
    total_steps = train_cfg.epochs * steps_per_epoch
    ckpt_interval = train_cfg.ckpt_every * steps_per_epoch
    history: List[HistoryRow] = []
    ckpt_path = out_dir / "checkpoint.crt1a" if out_dir is not None else None

    step = state.step  # resumes mid-run when state was restored
    while step < total_steps:
        epoch = step // steps_per_epoch
        slot = step % steps_per_epoch
        order = _rng(train_cfg.seed, _SEED_SHUFFLE, epoch).permutation(len(dataset))
        picked = order[slot * train_cfg.batch : slot * train_cfg.batch + train_cfg.batch]
        aug_rng = _rng(train_cfg.seed, _SEED_AUGMENT, step)
        batch: List[SampleRecord] = []
        for idx in picked:
            sample = dataset[int(idx)]
            if train_cfg.augment:
                _, h, w = sample.ground_truth.shape
                sample = augment(sample, aug_rng, min(train_cfg.crop, h, w))
            batch.append(sample)

        lr = lr_at(epoch, train_cfg)
        prediction = forward_batch([s.stack for s in batch], params, model_cfg)
        target = Tensor(np.stack([s.ground_truth for s in batch]), dtype=prediction.dtype)
        loss = l1_tonemapped_loss(prediction, target, model_cfg.mu)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise NumericError(
                f"non-finite loss {loss_value} at step {step}; last checkpoint retained"
            )
        loss.backward()
        adamw_step(params, state, lr, train_cfg)

        history.append(HistoryRow(step=step, epoch=epoch, lr=lr, loss=loss_value))
        step = state.step
        # Every ckpt_every epochs; the final checkpoint is written after the loop.
        if ckpt_path is not None and step < total_steps and step % ckpt_interval == 0:
            save_checkpoint(ckpt_path, params, state)

    if ckpt_path is not None:
        save_checkpoint(ckpt_path, params, state)
    if out_dir is not None:
        (out_dir / "loss.csv").write_text(history_to_csv(history), encoding="utf-8")
    return params, history


def evaluate(
    dataset: Sequence[Tuple[str, SampleRecord]],
    params: Params,
    model_cfg: CRNetConfig,
) -> Tuple[List[Tuple[str, MetricReport]], MetricReport]:
    """Per-sample metric reports plus their mean."""
    if not dataset:
        raise ValueError("evaluate: dataset is empty")
    # Views that do not require grad, so the forward pass keeps no graph.
    frozen = {path: Tensor(p.data) for path, p in params.items()}
    reports: List[Tuple[str, MetricReport]] = []
    for sample_id, sample in dataset:
        prediction = forward(sample.stack, frozen, model_cfg)
        reports.append((sample_id, compute_report(prediction.data, sample.ground_truth, model_cfg.mu)))
    mean = MetricReport(
        psnr_linear=float(np.mean([r.psnr_linear for _, r in reports])),
        psnr_mu=float(np.mean([r.psnr_mu for _, r in reports])),
        ssim_linear=float(np.mean([r.ssim_linear for _, r in reports])),
        ssim_mu=float(np.mean([r.ssim_mu for _, r in reports])),
    )
    return reports, mean
