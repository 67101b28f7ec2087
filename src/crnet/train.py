"""Optimizer, schedule, augmentation, training and evaluation loops.

Training is bit-reproducible for a fixed seed: sample order, crops and
flips are all drawn from generators re-derived per (seed, purpose,
step), so resuming from a checkpoint replays the exact remainder of an
unbroken run. A non-finite loss or gradient aborts the run before the
update and leaves the last good checkpoint in place.
"""

from __future__ import annotations

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
    """Training hit a non-finite loss or gradient."""


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
        if self.initial_lr <= 0 or not (0 < self.lr_gamma <= 1) or self.lr_step_epochs < 1:
            raise ValueError("train: bad learning-rate schedule settings")


# Desk-scale preset: small enough that the full acceptance run fits a
# laptop CPU budget.
DESK_MODEL_OVERRIDES = {"base_channels": 8, "n_ceb": 2, "n_hfem": 1, "attn_heads": 2}
DESK_TRAIN_OVERRIDES = {"crop": 32, "epochs": 10, "batch": 2}


def desk_model_config(**extra) -> CRNetConfig:
    return CRNetConfig(**{**DESK_MODEL_OVERRIDES, **extra})


def desk_train_config(**extra) -> TrainConfig:
    return TrainConfig(**{**DESK_TRAIN_OVERRIDES, **extra})


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step decay: initial_lr * lr_gamma ** (epoch // lr_step_epochs)."""
    if epoch < 0:
        raise ValueError(f"lr_at: epoch must be >= 0, got {epoch}")
    return cfg.initial_lr * cfg.lr_gamma ** (epoch // cfg.lr_step_epochs)


# -- optimizer ---------------------------------------------------------------


@dataclass
class OptimState:
    """Decoupled-weight-decay Adam state, one moment pair per parameter."""

    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    step: int = 0
    lr: float = 1e-4
    betas: Tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.01
    eps: float = 1e-8


def init_optim_state(params: Params, cfg: TrainConfig) -> OptimState:
    return OptimState(
        m={k: np.zeros_like(p.data) for k, p in params.items()},
        v={k: np.zeros_like(p.data) for k, p in params.items()},
        step=0,
        lr=cfg.initial_lr,
        betas=(cfg.beta1, cfg.beta2),
        weight_decay=cfg.weight_decay,
        eps=cfg.eps,
    )


def adamw_step(params: Params, grads: Dict[str, np.ndarray], state: OptimState) -> None:
    """One update: multiplicative decoupled decay, then the adaptive step.

    Biases (1-d parameters) are excluded from weight decay. Missing
    gradients are rejected by parameter path.
    """
    for path in params:
        if path not in grads or grads[path] is None:
            raise ValueError(f"adamw_step: no gradient for parameter {path!r}")
    beta1, beta2 = state.betas
    state.step += 1
    t = state.step
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for path, p in params.items():
        g = grads[path]
        if state.weight_decay and p.data.ndim > 1:
            p.data *= 1.0 - state.lr * state.weight_decay
        m = state.m[path]
        v = state.v[path]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)


# -- checkpointing -------------------------------------------------------------

_OPT_META = "optim.meta"


def save_checkpoint(path, params: Params, state: OptimState) -> None:
    entries: Dict[str, np.ndarray] = {k: p.data for k, p in params.items()}
    entries[_OPT_META] = np.array(
        [state.step, state.lr, state.betas[0], state.betas[1], state.weight_decay, state.eps],
        dtype=np.float64,
    )
    for k in params:
        entries[f"optim.m.{k}"] = state.m[k]
        entries[f"optim.v.{k}"] = state.v[k]
    write_archive(path, entries)


def load_checkpoint(path, cfg: CRNetConfig) -> Tuple[Params, OptimState]:
    """Load params + optimizer state, validating against cfg's layout.

    A layout mismatch raises ValueError listing every missing,
    unexpected and wrongly shaped parameter path; absent optimizer
    entries raise FormatError.
    """
    entries = read_archive(path)
    stored = {k: v for k, v in entries.items() if not k.startswith("optim.")}
    try:
        validate_params(stored, cfg)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    spec = param_spec(cfg)
    needed = [_OPT_META] + [f"optim.{moment}.{k}" for k in spec for moment in ("m", "v")]
    absent = [k for k in needed if k not in entries]
    if absent:
        raise FormatError(f"checkpoint {path}: {len(absent)} optimizer entries missing, first {absent[0]!r}")
    meta = entries[_OPT_META]
    if meta.shape != (6,):
        raise FormatError(f"checkpoint {path}: {_OPT_META} must hold 6 values, got shape {meta.shape}")
    params: Params = {k: Tensor(stored[k], requires_grad=True) for k in spec}
    state = OptimState(
        m={k: entries[f"optim.m.{k}"] for k in spec},
        v={k: entries[f"optim.v.{k}"] for k in spec},
        step=int(meta[0]),
        lr=float(meta[1]),
        betas=(float(meta[2]), float(meta[3])),
        weight_decay=float(meta[4]),
        eps=float(meta[5]),
    )
    return params, state


# -- augmentation ----------------------------------------------------------------


def augment(sample: SampleRecord, rng: np.random.Generator, crop: Optional[int] = None) -> SampleRecord:
    """Shared random crop plus dihedral flip/rotation.

    One draw applies identically to all five frames and the ground
    truth; exposure times pass through untouched.
    """
    _, h, w = sample.ground_truth.shape
    if crop is None:
        crop = min(h, w)
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
    non-finite loss or parameter gradient raises NumericError before the
    update, without overwriting the previous checkpoint. Passing a
    restored optimizer state resumes exactly where the stored step count
    left off.
    """
    if not dataset:
        raise ValueError("train: dataset is empty")
    train_cfg.validate()
    if state is None:
        state = init_optim_state(params, train_cfg)
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

        state.lr = lr_at(epoch, train_cfg)
        prediction = forward_batch([s.stack for s in batch], params, model_cfg)
        target = Tensor(np.stack([s.ground_truth for s in batch]))
        loss = l1_tonemapped_loss(prediction, target, model_cfg.mu)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise NumericError(
                f"non-finite loss {loss_value} at step {step}; last checkpoint retained"
            )
        for p in params.values():
            p.zero_grad()
        loss.backward()
        for path, p in params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericError(
                    f"non-finite gradient for {path!r} at step {step}; last checkpoint retained"
                )
        adamw_step(params, {k: p.grad for k, p in params.items()}, state)
        for p in params.values():
            p.zero_grad()

        history.append(HistoryRow(step=step, epoch=epoch, lr=state.lr, loss=loss_value))
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
    reports: List[Tuple[str, MetricReport]] = []
    for sample_id, sample in dataset:
        prediction = forward(sample.stack, params, model_cfg)
        reports.append((sample_id, compute_report(prediction.data, sample.ground_truth, model_cfg.mu)))
    mean = MetricReport(
        psnr_linear=float(np.mean([r.psnr_linear for _, r in reports])),
        psnr_mu=float(np.mean([r.psnr_mu for _, r in reports])),
        ssim_linear=float(np.mean([r.ssim_linear for _, r in reports])),
        ssim_mu=float(np.mean([r.ssim_mu for _, r in reports])),
    )
    return reports, mean
