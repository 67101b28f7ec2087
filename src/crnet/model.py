"""Preprocessing, alignment, and assembly of the full restoration network.

A five-frame exposure bracket enters as packed-Bayer raw planes; each
frame is exposure-normalized and paired with its gamma-mapped copy,
lifted to shallow features, aligned to the first (shortest-exposure,
reference) frame by backward warping, and fused through a stack of
high-frequency enhancement stages into a non-negative HDR prediction at
the reference geometry.

Parameters live in one flat ordered mapping from dotted path strings to
tensors; ``param_spec`` is the authoritative layout for a config and is
what checkpoint validation compares against.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import blocks
from .blocks import (
    Params,
    ParamSpec,
    conv_enhancement_block,
    freq_fuse,
    frequency_separate,
    materialize,
    multi_branch_block,
    pool2x2,
    prefixed,
    scoped,
    window_self_attention,
)
from .tensor import Tensor, _node, clamp_min, concat, conv2d, gelu

RAW_CHANNELS = 4  # packed RGGB planes at half sensor resolution
NUM_FRAMES = 5


@dataclass
class CRNetConfig:
    """Architecture hyperparameters; defaults give the full-size network."""

    base_channels: int = 64
    n_ceb: int = 10
    n_hfem: int = 3
    mbb_split: Tuple[int, int] = (3, 1)
    pool_kind: str = "avg"
    attn_window: int = 8
    attn_heads: int = 4
    ffn_mode: str = "inverted"
    ffn_expansion: int = 4
    ceb_kernel_mode: str = "dw7"
    fusion_mode: str = "joint"
    freq_separation: bool = True
    ca_reduction: int = 4
    gamma: float = 1.0 / 2.2
    mu: float = 5000.0

    def validate(self) -> None:
        if self.base_channels < 1 or self.n_ceb < 1 or self.n_hfem < 1:
            raise ValueError("config: channel and block counts must be >= 1")
        if sum(self.mbb_split) != blocks.MBB_TOTAL_CONVS:
            raise ValueError(f"config: mbb_split {self.mbb_split} must sum to {blocks.MBB_TOTAL_CONVS}")
        if self.base_channels % self.attn_heads != 0:
            raise ValueError(
                f"config: base_channels {self.base_channels} not divisible by attn_heads {self.attn_heads}"
            )
        if self.base_channels % self.ca_reduction != 0:
            raise ValueError(
                f"config: base_channels {self.base_channels} not divisible by ca_reduction {self.ca_reduction}"
            )
        if self.pool_kind not in blocks.POOL_KINDS:
            raise ValueError(f"config: pool_kind must be avg or max, got {self.pool_kind!r}")
        if self.fusion_mode not in ("joint", "recurrent"):
            raise ValueError(f"config: fusion_mode must be joint or recurrent, got {self.fusion_mode!r}")
        if self.ffn_mode not in blocks.FFN_MODES:
            raise ValueError(f"config: unknown ffn_mode {self.ffn_mode!r}")
        if self.ceb_kernel_mode not in blocks.CEB_KERNEL_MODES:
            raise ValueError(f"config: unknown ceb_kernel_mode {self.ceb_kernel_mode!r}")
        if self.ffn_mode == "normal_bottleneck" and self.base_channels % self.ffn_expansion != 0:
            raise ValueError(
                f"config: base_channels {self.base_channels} not divisible by ffn_expansion {self.ffn_expansion}"
            )
        if self.mu <= 0 or self.gamma <= 0:
            raise ValueError("config: mu and gamma must be positive")


# Read noise can swing a raw value slightly below the black point; frames
# tolerate that much undershoot and preprocessing clips it away.
BLACK_POINT_TOLERANCE = 0.25


@dataclass
class ExposureStack:
    """Five raw frames ordered shortest to longest exposure.

    frames are [RAW_CHANNELS, H, W] arrays with values in [0, 1] (small
    sub-black noise excursions allowed); the first frame is the
    reference whose geometry the output follows.
    """

    frames: List[np.ndarray]
    exposure_times: np.ndarray

    def validate(self) -> None:
        if len(self.frames) != NUM_FRAMES:
            raise ValueError(f"stack: expected {NUM_FRAMES} frames, got {len(self.frames)}")
        times = np.asarray(self.exposure_times, dtype=np.float64)
        if times.shape != (NUM_FRAMES,):
            raise ValueError(f"stack: expected {NUM_FRAMES} exposure times, got shape {times.shape}")
        if np.any(times <= 0):
            raise ValueError("stack: exposure times must be positive")
        if np.any(np.diff(times) <= 0):
            raise ValueError(f"stack: exposure times must be strictly increasing, got {times.tolist()}")
        shape = np.asarray(self.frames[0]).shape
        for i, frame in enumerate(self.frames):
            arr = np.asarray(frame)
            if arr.shape != shape:
                raise ValueError(f"stack: frame {i} shape {arr.shape} != frame 0 shape {shape}")
            if arr.ndim != 3 or arr.shape[0] != RAW_CHANNELS:
                raise ValueError(f"stack: frame {i} must be [{RAW_CHANNELS}, H, W], got {arr.shape}")
            if np.any(arr < -BLACK_POINT_TOLERANCE) or np.any(arr > 1):
                raise ValueError(f"stack: frame {i} has values outside [0, 1]")


def preprocess(stack: ExposureStack, gamma: float = 1.0 / 2.2, dtype=np.float32) -> np.ndarray:
    """Exposure-normalize each frame and append its gamma-mapped copy.

    Returns [NUM_FRAMES, 2*RAW_CHANNELS, H, W]: frame i becomes
    concat(R_i / (dt_i/dt_1), (R_i / (dt_i/dt_1))^gamma) on the channel
    axis, so ratios (not absolute times) are what matter. The reference
    frame passes through unchanged in its first channels.
    """
    stack.validate()
    dtype = np.dtype(dtype).type
    times = np.asarray(stack.exposure_times, dtype=np.float64)
    _, height, width = np.shape(stack.frames[0])
    out = np.empty((NUM_FRAMES, 2 * RAW_CHANNELS, height, width), dtype=dtype)
    for i in range(NUM_FRAMES):
        ratio = float(times[i] / times[0])
        raw = np.asarray(stack.frames[i], dtype=dtype)
        normalized = np.maximum(raw / dtype(ratio), 0.0)
        out[i, :RAW_CHANNELS] = normalized
        out[i, RAW_CHANNELS:] = normalized ** dtype(gamma)
    return out


# -- optical-flow style alignment ---------------------------------------------
#
# Flow fields are [2, H, W] float arrays holding per-pixel (dx, dy)
# displacements in pixels. The convention is backward warping: the
# output at (y, x) samples the source frame at (y + dy, x + dx), so a
# frame whose content sits 2 px right of the reference gets dx = +2.


def warp_by_flow(feature: Tensor, flow: np.ndarray) -> Tensor:
    """Backward-warp [B, C, H, W] features by a flow field.

    Bilinear sampling with edge clamping; a zero flow returns the input
    bit-exactly. flow is [2, H, W] (shared over the batch) or
    [B, 2, H, W]. Differentiable in the features, not the flow.
    """
    if feature.ndim != 4:
        raise ValueError(f"warp_by_flow: feature must be 4-d, got {feature.shape}")
    batch, channels, height, width = feature.shape
    flow = np.asarray(flow)
    if flow.ndim == 3:
        flow = np.broadcast_to(flow, (batch,) + flow.shape)
    if flow.shape != (batch, 2, height, width):
        raise ValueError(
            f"warp_by_flow: flow shape {flow.shape} does not match features {feature.shape}"
        )
    if not np.all(np.isfinite(flow)):
        raise ValueError("warp_by_flow: flow contains non-finite values")
    dtype = feature.data.dtype
    xs = np.arange(width, dtype=np.float64)[None, None, :]
    ys = np.arange(height, dtype=np.float64)[None, :, None]
    sx = np.clip(xs + flow[:, 0], 0.0, width - 1.0)
    sy = np.clip(ys + flow[:, 1], 0.0, height - 1.0)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    wx = (sx - x0).astype(dtype)[:, None]
    wy = (sy - y0).astype(dtype)[:, None]
    # Flat pixel index of the four neighbours, [B, H*W] each: 00, 01, 10, 11.
    corners = [(y * width + x).reshape(batch, -1) for y in (y0, y1) for x in (x0, x1)]
    planes = feature.data.reshape(batch, channels, height * width)

    def gather(corner: np.ndarray) -> np.ndarray:
        out = np.empty_like(planes)
        for b in range(batch):
            np.take(planes[b], corner[b], axis=1, out=out[b], mode="clip")
        return out.reshape(feature.shape)

    v00, v01, v10, v11 = (gather(corner) for corner in corners)
    top = v00 + wx * (v01 - v00)
    bottom = v10 + wx * (v11 - v10)
    out = top + wy * (bottom - top)

    def backward(g):
        # One scatter-add per neighbour over the flattened features.
        offsets = np.arange(batch * channels, dtype=np.intp).reshape(batch, channels, 1) * (height * width)
        parts = (g * (1 - wy) * (1 - wx), g * (1 - wy) * wx, g * wy * (1 - wx), g * wy * wx)
        grad = np.zeros(feature.data.size, dtype=dtype)
        for corner, part in zip(corners, parts):
            np.add.at(grad, (offsets + corner[:, None]).ravel(), part.ravel())
        feature._accumulate(grad.reshape(feature.shape))

    return _node(out, (feature,), backward)


def _search_order(radius: int) -> List[Tuple[int, int]]:
    cands = [(dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)]
    return sorted(cands, key=lambda d: d[0] * d[0] + d[1] * d[1])


def estimate_flow(
    ref,
    frame,
    block: int = 8,
    radius: int = 4,
) -> np.ndarray:
    """Integer block-matching flow from reference to frame.

    Minimizes per-block sum of absolute differences over displacements
    within [-radius, radius]^2; ties break toward zero displacement and
    then row-major search order, so identical inputs give a zero field.
    The result is piecewise constant per block, [2, H, W] (dx, dy).
    """
    ref = ref.data if isinstance(ref, Tensor) else np.asarray(ref)
    frame = frame.data if isinstance(frame, Tensor) else np.asarray(frame)
    if ref.shape != frame.shape:
        raise ValueError(f"estimate_flow: shape mismatch {ref.shape} vs {frame.shape}")
    if ref.ndim != 3:
        raise ValueError(f"estimate_flow: expected [C, H, W], got {ref.shape}")
    _, height, width = ref.shape
    row_starts = np.arange(0, height, block)
    col_starts = np.arange(0, width, block)
    padded = np.pad(frame, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    best_sad = np.full((len(row_starts), len(col_starts)), np.inf)
    best_dx = np.zeros_like(best_sad)
    best_dy = np.zeros_like(best_sad)
    for dy, dx in _search_order(radius):
        shifted = padded[:, radius + dy : radius + dy + height, radius + dx : radius + dx + width]
        diff = np.abs(ref - shifted).sum(axis=0)
        sad = np.add.reduceat(np.add.reduceat(diff, row_starts, axis=0), col_starts, axis=1)
        better = sad < best_sad
        best_sad = np.where(better, sad, best_sad)
        best_dx = np.where(better, dx, best_dx)
        best_dy = np.where(better, dy, best_dy)
    row_counts = np.diff(np.append(row_starts, height))
    col_counts = np.diff(np.append(col_starts, width))
    flow = np.empty((2, height, width), dtype=np.float32)
    flow[0] = np.repeat(np.repeat(best_dx, row_counts, axis=0), col_counts, axis=1)
    flow[1] = np.repeat(np.repeat(best_dy, row_counts, axis=0), col_counts, axis=1)
    return flow


# -- parameter layout -----------------------------------------------------------


def _hfem_spec(cfg: CRNetConfig) -> ParamSpec:
    c = cfg.base_channels
    spec: ParamSpec = {}
    spec.update(prefixed(blocks.attention_spec(c), "attn."))
    spec.update(prefixed(blocks.multi_branch_spec(c, cfg.mbb_split), "mbb_high0."))
    for j in range(3):
        spec.update(prefixed(blocks.multi_branch_spec(c, cfg.mbb_split), f"mbb_low{j}."))
    spec.update(prefixed(blocks.freq_fuse_spec(c, cfg.ca_reduction), "fuse."))
    for j in range(cfg.n_ceb):
        spec.update(
            prefixed(
                blocks.ceb_spec(c, cfg.ceb_kernel_mode, cfg.ffn_mode, cfg.ffn_expansion),
                f"ceb{j}.",
            )
        )
    return spec


def param_spec(cfg: CRNetConfig) -> ParamSpec:
    """Ordered path -> shape layout of every learnable tensor for cfg."""
    cfg.validate()
    c = cfg.base_channels
    spec: ParamSpec = {}
    spec["shallow.weight"] = (c, 2 * RAW_CHANNELS, 3, 3)
    spec["shallow.bias"] = (c,)
    spec["reduce.weight"] = (c, NUM_FRAMES * c, 1, 1)
    spec["reduce.bias"] = (c,)
    for i in range(cfg.n_hfem):
        spec.update(prefixed(_hfem_spec(cfg), f"hfem{i}."))
    spec["ref_proc.weight"] = (c, c, 3, 3)
    spec["ref_proc.bias"] = (c,)
    spec["fusion.conv0.weight"] = (c, (cfg.n_hfem + 1) * c, 3, 3)
    spec["fusion.conv0.bias"] = (c,)
    spec["fusion.conv1.weight"] = (c, c, 3, 3)
    spec["fusion.conv1.bias"] = (c,)
    spec["head.weight"] = (RAW_CHANNELS, c, 3, 3)
    spec["head.bias"] = (RAW_CHANNELS,)
    return spec


def build_params(cfg: CRNetConfig, seed: int = 0, dtype=np.float32) -> Params:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1217]))
    return materialize(param_spec(cfg), rng, dtype)


def count_params(cfg: CRNetConfig) -> int:
    """Total learnable scalars for cfg; deterministic, no allocation."""
    return blocks.count_spec(param_spec(cfg))


def validate_params(params: Params, cfg: CRNetConfig) -> None:
    """Reject a params/config mismatch, listing every missing, unexpected
    and wrongly shaped path in one error."""
    spec = param_spec(cfg)
    missing = [path for path in spec if path not in params]
    unexpected = [path for path in params if path not in spec]
    wrong_shape = [
        f"{path!r} is {tuple(params[path].shape)}, expected {shape}"
        for path, shape in spec.items()
        if path in params and tuple(params[path].shape) != shape
    ]
    if missing or unexpected or wrong_shape:
        raise ValueError(
            f"params do not match the config: missing={missing} unexpected={unexpected} "
            f"wrong shape=[{', '.join(wrong_shape)}]"
        )


# -- forward pass -----------------------------------------------------------------


def _hfem_forward(x: Tensor, params: Params, cfg: CRNetConfig) -> Tensor:
    if cfg.freq_separation:
        pair = frequency_separate(x, cfg.pool_kind)
        high_in, low_in = pair.high, pair.low
    else:
        # Ablation: attend over the unseparated map and keep a plain
        # downsampled copy as the half-resolution stream.
        high_in, low_in = x, pool2x2(x, cfg.pool_kind)
    attended = window_self_attention(high_in, scoped(params, "attn."), cfg.attn_heads, cfg.attn_window)
    high = multi_branch_block(attended, scoped(params, "mbb_high0."), cfg.mbb_split)
    low = low_in
    for j in range(3):
        low = multi_branch_block(low, scoped(params, f"mbb_low{j}."), cfg.mbb_split)
    fused = freq_fuse(high, low, scoped(params, "fuse."), cfg.ca_reduction)
    for j in range(cfg.n_ceb):
        fused = conv_enhancement_block(
            fused, scoped(params, f"ceb{j}."), cfg.ceb_kernel_mode, cfg.ffn_mode, cfg.ffn_expansion
        )
    return fused


def _run_hfem_chain(x: Tensor, params: Params, cfg: CRNetConfig) -> List[Tensor]:
    outs: List[Tensor] = []
    for i in range(cfg.n_hfem):
        x = _hfem_forward(x, scoped(params, f"hfem{i}."), cfg)
        outs.append(x)
    return outs


def forward_batch(
    stacks: Sequence[ExposureStack],
    params: Params,
    cfg: CRNetConfig,
    flows: Optional[Sequence[Optional[Sequence[np.ndarray]]]] = None,
) -> Tensor:
    """Run the network over a batch of stacks; returns [B, RAW, H, W].

    flows, when given, is one list per sample with a [2, H, W] field for
    every frame (entry 0, the reference, is ignored). Missing flows are
    estimated by block matching on the shallow features.
    """
    validate_params(params, cfg)
    if not stacks:
        raise ValueError("forward: need at least one stack")
    # The graph's precision follows the parameters (float64 during
    # gradient verification, float32 otherwise).
    dtype = params["shallow.weight"].data.dtype
    pres = [preprocess(stack, cfg.gamma, dtype) for stack in stacks]
    shape = pres[0].shape
    for p in pres:
        if p.shape != shape:
            raise ValueError(f"forward: inconsistent frame shapes {p.shape[1:]} vs {shape[1:]}")
    _, _, height, width = shape
    if height % 2 or width % 2:
        raise ValueError(f"forward: spatial extents {height}x{width} must be even")
    if height % cfg.attn_window or width % cfg.attn_window:
        raise ValueError(
            f"forward: extents {height}x{width} not divisible by attention window {cfg.attn_window}"
        )

    frames = [Tensor(np.stack([p[i] for p in pres])) for i in range(NUM_FRAMES)]  # [B, 2*RAW, H, W]
    feats = [
        conv2d(f, params["shallow.weight"], params["shallow.bias"], padding=1) for f in frames
    ]

    aligned = [feats[0]]
    for i in range(1, NUM_FRAMES):
        per_sample = []
        for b in range(len(stacks)):
            if flows is not None and flows[b] is not None:
                per_sample.append(np.asarray(flows[b][i], dtype=np.float32))
            else:
                per_sample.append(
                    estimate_flow(feats[0].data[b], feats[i].data[b])
                )
        aligned.append(warp_by_flow(feats[i], np.stack(per_sample)))

    ref_features = gelu(
        conv2d(feats[0], params["ref_proc.weight"], params["ref_proc.bias"], padding=1)
    )

    if cfg.fusion_mode == "joint":
        merged = concat(aligned, axis=1)
        x = conv2d(merged, params["reduce.weight"], params["reduce.bias"])
        outs = _run_hfem_chain(x, params, cfg)
    else:
        # Recurrent arrangement: frames enter the enhancement chain one
        # at a time; the carried state fills the remaining input slots,
        # so every weight keeps its joint-mode shape.
        state = feats[0]
        outs = []
        for i in range(NUM_FRAMES):
            buffer = concat([state] * (NUM_FRAMES - 1) + [aligned[i]], axis=1)
            x = conv2d(buffer, params["reduce.weight"], params["reduce.bias"])
            outs = _run_hfem_chain(x, params, cfg)
            state = outs[-1]

    fused = concat(outs + [ref_features], axis=1)
    y = gelu(conv2d(fused, params["fusion.conv0.weight"], params["fusion.conv0.bias"], padding=1))
    y = gelu(conv2d(y, params["fusion.conv1.weight"], params["fusion.conv1.bias"], padding=1))
    y = conv2d(y, params["head.weight"], params["head.bias"], padding=1)
    return clamp_min(y, 0.0)


def forward(
    stack: ExposureStack,
    params: Params,
    cfg: CRNetConfig,
    flows: Optional[Sequence[np.ndarray]] = None,
) -> Tensor:
    """Single-stack forward; returns the [RAW, H, W] HDR prediction."""
    out = forward_batch([stack], params, cfg, [flows] if flows is not None else None)
    return out.reshape(out.shape[1:])


# -- ablation variants ------------------------------------------------------------

ABLATION_VARIANTS = (
    "full",
    "no_freq_sep",
    "mbb_2_2",
    "mbb_4_0",
    "ceb_3x3x3",
    "ceb_5x5_3x3",
    "ffn_normal_bottleneck",
    "ffn_flat",
    "recurrent",
)


def build_ablation_variant(
    name: str, cfg: CRNetConfig, seed: int = 0
) -> Tuple[CRNetConfig, Params]:
    """Config/params pair for a named architecture variant of cfg."""
    overrides = {
        "full": {},
        "no_freq_sep": {"freq_separation": False},
        "mbb_2_2": {"mbb_split": (2, 2)},
        "mbb_4_0": {"mbb_split": (4, 0)},
        "ceb_3x3x3": {"ceb_kernel_mode": "three_dw3"},
        "ceb_5x5_3x3": {"ceb_kernel_mode": "dw5_dw3"},
        "ffn_normal_bottleneck": {"ffn_mode": "normal_bottleneck"},
        "ffn_flat": {"ffn_mode": "flat"},
        "recurrent": {"fusion_mode": "recurrent"},
    }
    if name not in overrides:
        raise ValueError(f"unknown ablation variant {name!r}; choose from {ABLATION_VARIANTS}")
    variant_cfg = dataclasses.replace(cfg, **overrides[name])
    return variant_cfg, build_params(variant_cfg, seed=seed)
