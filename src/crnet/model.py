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
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import blocks
from .blocks import (
    Params,
    ParamSpec,
    conv,
    conv_enhancement_block,
    conv_spec,
    freq_fuse,
    frequency_separate,
    materialize,
    multi_branch_block,
    pool2x2,
    prefixed,
    scoped,
    window_self_attention,
)
from .metrics import DEFAULT_MU
from .tensor import Tensor, _neighbours, _node, clamp_min, concat, gelu

RAW_CHANNELS = 4  # packed RGGB planes at half sensor resolution
NUM_FRAMES = 5


@dataclass(frozen=True)
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
    mu: float = DEFAULT_MU

    def __post_init__(self) -> None:
        """Raise ValueError on a setting the network cannot be built from."""
        counts = ("base_channels", "n_ceb", "n_hfem", "attn_window", "attn_heads", "ffn_expansion", "ca_reduction")
        too_small = [name for name in counts if getattr(self, name) < 1]
        if too_small:
            raise ValueError(f"config: {', '.join(too_small)} must be >= 1")
        if self.base_channels % self.attn_heads != 0:
            raise ValueError(
                f"config: base_channels {self.base_channels} not divisible by attn_heads {self.attn_heads}"
            )
        if self.pool_kind not in blocks.POOL_KINDS:
            raise ValueError(f"config: pool_kind must be avg or max, got {self.pool_kind!r}")
        if self.fusion_mode not in ("joint", "recurrent"):
            raise ValueError(f"config: fusion_mode must be joint or recurrent, got {self.fusion_mode!r}")
        if not (0 < self.mu < math.inf and 0 < self.gamma < math.inf):
            raise ValueError("config: mu and gamma must be positive and finite")
        _hfem_spec(self)  # the block specs check the branch split, FFN and kernel modes and widths


# Read noise can swing a raw value slightly below the black point; frames
# tolerate that much undershoot and preprocessing clips it away.
BLACK_POINT_TOLERANCE = 0.25


def validate_exposure_times(times, where: str) -> None:
    """NUM_FRAMES finite, positive, strictly increasing exposure times."""
    arr = np.asarray(times, dtype=np.float64)
    # Written so that NaN and inf fail it: every comparison with NaN is
    # false, and an inf before the last time leaves an inf or NaN step.
    if arr.shape != (NUM_FRAMES,) or not (arr[0] > 0 and np.all(np.diff(arr) > 0) and arr[-1] < math.inf):
        raise ValueError(
            f"{where}: need {NUM_FRAMES} finite, positive, strictly increasing exposure times, got {arr.tolist()}"
        )


@dataclass(frozen=True, eq=False)
class ExposureStack:
    """Five raw frames ordered shortest to longest exposure, checked when built.

    frames is one read-only [NUM_FRAMES, RAW_CHANNELS, H, W] copy of what
    the caller passed, with values in [0, 1] (small sub-black noise
    excursions allowed); frame 0 is the reference whose geometry the
    output follows. exposure_times is a read-only float64 copy.
    """

    frames: np.ndarray
    exposure_times: np.ndarray

    def __post_init__(self) -> None:
        validate_exposure_times(self.exposure_times, "stack")
        try:
            frames = np.array(self.frames, order="C")
        except ValueError:
            raise ValueError("stack: frames must share one shape") from None
        if frames.ndim != 4 or frames.shape[:2] != (NUM_FRAMES, RAW_CHANNELS):
            raise ValueError(f"stack: frames must be [{NUM_FRAMES}, {RAW_CHANNELS}, H, W], got {frames.shape}")
        # NaN fails it, as every comparison with NaN is false; initial=0 lets empty frames pass.
        low, high = frames.min(axis=(1, 2, 3), initial=0), frames.max(axis=(1, 2, 3), initial=0)
        in_range = (low >= -BLACK_POINT_TOLERANCE) & (high <= 1)
        if not in_range.all():
            raise ValueError(f"stack: frame {np.argmin(in_range)} has values outside [0, 1] or not finite")
        for name, arr in (("frames", frames), ("exposure_times", np.array(self.exposure_times, dtype=np.float64))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def preprocess(stack: ExposureStack, gamma: float, dtype=np.float32) -> np.ndarray:
    """Exposure-normalize each frame and append its gamma-mapped copy.

    Returns [NUM_FRAMES, 2*RAW_CHANNELS, H, W]: frame i becomes
    concat(R_i / (dt_i/dt_1), (R_i / (dt_i/dt_1))^gamma) on the channel
    axis, so ratios (not absolute times) are what matter. The reference
    frame passes through unchanged in its first channels.
    """
    dtype = np.dtype(dtype).type
    ratios = (stack.exposure_times / stack.exposure_times[0]).astype(dtype)
    normalized = np.maximum(np.asarray(stack.frames, dtype=dtype) / ratios[:, None, None, None], 0.0)
    return np.concatenate([normalized, normalized ** dtype(gamma)], axis=1)


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
    x0, x1, wx = _neighbours(np.arange(width, dtype=np.float64)[None, None, :] + flow[:, 0], width)
    y0, y1, wy = _neighbours(np.arange(height, dtype=np.float64)[None, :, None] + flow[:, 1], height)
    wx, wy = wx.astype(dtype)[:, None], wy.astype(dtype)[:, None]
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
    node, shape = feature.node, feature.shape

    def backward(g):
        # One scatter-add per neighbour over the flattened features.
        offsets = np.arange(batch * channels, dtype=np.intp).reshape(batch, channels, 1) * (height * width)
        parts = (g * (1 - wy) * (1 - wx), g * (1 - wy) * wx, g * wy * (1 - wx), g * wy * wx)
        grad = np.zeros(batch * channels * height * width, dtype=dtype)
        for corner, part in zip(corners, parts):
            np.add.at(grad, (offsets + corner[:, None]).ravel(), part.ravel())
        node._accumulate(grad.reshape(shape))

    return _node(out, (feature,), backward)


FLOW_BLOCK = 8  # block matching: side of a square block, px
FLOW_RADIUS = 4  # block matching: largest displacement along each axis, px
# (dx, dy) search offsets, nearest first; the stable sort keeps row-major order among ties.
_FLOW_OFFSETS = np.array(
    sorted(
        ((dx, dy) for dy in range(-FLOW_RADIUS, FLOW_RADIUS + 1) for dx in range(-FLOW_RADIUS, FLOW_RADIUS + 1)),
        key=lambda d: d[0] * d[0] + d[1] * d[1],
    )
)


def estimate_flow(ref, frame) -> np.ndarray:
    """Integer block-matching flow from reference to frame.

    Each FLOW_BLOCK (8 px) square block, partial at the edges, takes the
    displacement within [-FLOW_RADIUS, FLOW_RADIUS]^2 (4 px) that minimizes its
    sum of absolute differences; a tie goes to the nearest displacement, then
    row-major, so identical inputs give a zero field. Inputs are [..., C, H, W]
    with broadcasting leading axes (a [B, C, H, W] reference against
    [N, B, C, H, W] frames matches every pair at once); the result is
    piecewise constant per block, [..., 2, H, W] (dx, dy).
    """
    ref, frame = np.asarray(ref), np.asarray(frame)
    if ref.ndim < 3 or ref.shape[-3:] != frame.shape[-3:]:
        raise ValueError(f"estimate_flow: expected matching [..., C, H, W], got {ref.shape} vs {frame.shape}")
    lead = np.broadcast_shapes(ref.shape[:-3], frame.shape[:-3])
    height, width = ref.shape[-2:]
    row_starts = np.arange(0, height, FLOW_BLOCK)
    col_starts = np.arange(0, width, FLOW_BLOCK)
    r = FLOW_RADIUS
    padded = np.pad(frame, [(0, 0)] * (frame.ndim - 2) + [(r, r), (r, r)], mode="edge")
    diff = np.empty(lead + ref.shape[-3:], dtype=np.result_type(ref, frame))
    sad = np.empty((len(_FLOW_OFFSETS),) + lead + (len(row_starts), len(col_starts)), dtype=diff.dtype)
    for k, (dx, dy) in enumerate(_FLOW_OFFSETS):
        np.subtract(ref, padded[..., r + dy : r + dy + height, r + dx : r + dx + width], out=diff)
        np.abs(diff, out=diff)
        sad[k] = np.add.reduceat(np.add.reduceat(diff.sum(axis=-3), row_starts, axis=-2), col_starts, axis=-1)
    # argmin takes the first minimum in search order: the nearest offset.
    best = np.moveaxis(_FLOW_OFFSETS[sad.argmin(axis=0)], -1, -3).astype(np.float32)
    return np.repeat(np.repeat(best, FLOW_BLOCK, axis=-2), FLOW_BLOCK, axis=-1)[..., :height, :width]


# -- parameter layout -----------------------------------------------------------


def _hfem_spec(cfg: CRNetConfig) -> ParamSpec:
    c = cfg.base_channels
    mbb = blocks.multi_branch_spec(c, cfg.mbb_split)
    spec = prefixed(blocks.attention_spec(c), "attn.") | prefixed(mbb, "mbb_high0.")
    for j in range(3):
        spec |= prefixed(mbb, f"mbb_low{j}.")
    spec |= prefixed(blocks.freq_fuse_spec(c, cfg.ca_reduction), "fuse.")
    ceb = blocks.ceb_spec(c, cfg.ceb_kernel_mode, cfg.ffn_mode, cfg.ffn_expansion)
    for j in range(cfg.n_ceb):
        spec |= prefixed(ceb, f"ceb{j}.")
    return spec


def param_spec(cfg: CRNetConfig) -> ParamSpec:
    """Ordered path -> shape layout of every learnable tensor for cfg."""
    hfem = _hfem_spec(cfg)
    c = cfg.base_channels
    spec = prefixed(conv_spec(c, 2 * RAW_CHANNELS, 3), "shallow.")
    spec |= prefixed(conv_spec(c, NUM_FRAMES * c, 1), "reduce.")
    for i in range(cfg.n_hfem):
        spec |= prefixed(hfem, f"hfem{i}.")
    for key, cout, cin in (
        ("ref_proc", c, c),
        ("fusion.conv0", c, (cfg.n_hfem + 1) * c),
        ("fusion.conv1", c, c),
        ("head", RAW_CHANNELS, c),
    ):
        spec |= prefixed(conv_spec(cout, cin, 3), f"{key}.")
    return spec


def build_params(cfg: CRNetConfig, seed: int = 0, dtype=np.float32) -> Params:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1217]))
    return materialize(param_spec(cfg), rng, dtype)


def count_params(cfg: CRNetConfig) -> int:
    """Total learnable scalars for cfg; deterministic, no allocation."""
    return blocks.count_spec(param_spec(cfg))


def validate_params(entries, spec: ParamSpec) -> None:
    """Reject entries (path -> array or Tensor) whose layout is not spec,
    listing every missing, unexpected and wrongly shaped path in one error."""
    missing = [path for path in spec if path not in entries]
    unexpected = [path for path in entries if path not in spec]
    wrong_shape = [
        f"{path!r} is {tuple(entries[path].shape)}, expected {shape}"
        for path, shape in spec.items()
        if path in entries and tuple(entries[path].shape) != shape
    ]
    if missing or unexpected or wrong_shape:
        raise ValueError(
            f"entries do not match the layout: missing={missing} unexpected={unexpected} "
            f"wrong shape=[{', '.join(wrong_shape)}]"
        )


# -- forward pass -----------------------------------------------------------------


def _hfem_forward(x: Tensor, params: Params, cfg: CRNetConfig) -> Tensor:
    if cfg.freq_separation:
        low_in, high_in = frequency_separate(x, cfg.pool_kind)
    else:
        # Ablation: attend over the unseparated map and keep a plain
        # downsampled copy as the half-resolution stream.
        high_in, low_in = x, pool2x2(x, cfg.pool_kind)
    attended = window_self_attention(high_in, scoped(params, "attn."), cfg.attn_heads, cfg.attn_window)
    high = multi_branch_block(attended, scoped(params, "mbb_high0."), cfg.mbb_split)
    low = low_in
    for j in range(3):
        low = multi_branch_block(low, scoped(params, f"mbb_low{j}."), cfg.mbb_split)
    fused = freq_fuse(high, low, scoped(params, "fuse."))
    for j in range(cfg.n_ceb):
        fused = conv_enhancement_block(fused, scoped(params, f"ceb{j}."), cfg.ceb_kernel_mode)
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
    flows: Optional[Sequence[Sequence[Optional[np.ndarray]]]] = None,
) -> Tensor:
    """Run the network over a batch of stacks; returns [B, RAW, H, W].

    flows is None, and then estimated by block matching on the shallow
    features, or one list per sample with a [2, H, W] field for every
    frame (entry 0, the reference, is ignored).
    """
    validate_params(params, param_spec(cfg))
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
    feats = [conv(f, params, "shallow") for f in frames]

    if flows is None:
        # One block-matching call for every (sample, frame) pair: the
        # reference against the stacked moving frames [4, B, C, H, W].
        frame_flows = list(estimate_flow(feats[0].data, np.stack([f.data for f in feats[1:]])))
    else:
        if len(flows) != len(stacks):
            raise ValueError(f"forward: {len(flows)} flow lists for {len(stacks)} stacks")
        for b, sample in enumerate(flows):
            if len(sample) != NUM_FRAMES:
                raise ValueError(f"forward: flow list of sample {b} has {len(sample)} entries, need {NUM_FRAMES}")
        frame_flows = [
            np.stack([np.asarray(sample[i], dtype=np.float32) for sample in flows]) for i in range(1, NUM_FRAMES)
        ]
    aligned = [feats[0]] + [warp_by_flow(f, flow) for f, flow in zip(feats[1:], frame_flows)]

    ref_features = gelu(conv(feats[0], params, "ref_proc"))

    if cfg.fusion_mode == "joint":
        merged = concat(aligned, axis=1)
        x = conv(merged, params, "reduce")
        outs = _run_hfem_chain(x, params, cfg)
    else:
        # Recurrent arrangement: frames enter the enhancement chain one
        # at a time; the carried state fills the remaining input slots,
        # so every weight keeps its joint-mode shape.
        state = feats[0]
        outs = []
        for i in range(NUM_FRAMES):
            buffer = concat([state] * (NUM_FRAMES - 1) + [aligned[i]], axis=1)
            x = conv(buffer, params, "reduce")
            outs = _run_hfem_chain(x, params, cfg)
            state = outs[-1]

    fused = concat(outs + [ref_features], axis=1)
    y = conv(fused, params, "fusion.conv0")
    y = conv(y, params, "fusion.conv1", gelu_input=True)
    y = conv(y, params, "head", gelu_input=True)
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

# Config overrides of each named architecture variant, in reporting order.
_ABLATION_OVERRIDES = {
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
ABLATION_VARIANTS = tuple(_ABLATION_OVERRIDES)


def build_ablation_variant(
    name: str, cfg: CRNetConfig, seed: int = 0
) -> Tuple[CRNetConfig, Params]:
    """Config/params pair for a named architecture variant of cfg."""
    if name not in _ABLATION_OVERRIDES:
        raise ValueError(f"unknown ablation variant {name!r}; choose from {ABLATION_VARIANTS}")
    variant_cfg = dataclasses.replace(cfg, **_ABLATION_OVERRIDES[name])
    return variant_cfg, build_params(variant_cfg, seed=seed)
