"""Differentiable building blocks of the restoration network.

Each block is a pure function of (input, params); params is a flat
mapping from stable local path strings (e.g. "branchA.conv0.weight") to
tensors. The companion ``*_spec`` functions return the expected key ->
shape layout, which doubles as the initializer schema and the
checkpoint-validation contract.

Blocks with a skip path (attention, multi-branch, channel-wise FFN,
enhancement block) reduce to the identity when their weights are zero;
tests rely on that to pin the residual wiring.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .tensor import (
    Tensor,
    avg_pool2d,
    bilinear_upsample,
    concat,
    conv2d,
    gelu,
    global_avg_pool,
    matmul,
    max_pool2d,
    mul,
    permute,
    reshape,
    sigmoid,
    softmax,
    sub,
)

ParamSpec = Dict[str, Tuple[int, ...]]
Params = Dict[str, Tensor]


def scoped(params: Params, prefix: str) -> Params:
    """View of params under a dotted prefix, keys relativized."""
    plen = len(prefix)
    return {k[plen:]: v for k, v in params.items() if k.startswith(prefix)}


def prefixed(spec: ParamSpec, prefix: str) -> ParamSpec:
    return {prefix + k: shape for k, shape in spec.items()}


def materialize(spec: ParamSpec, rng: np.random.Generator, dtype=np.float32) -> Params:
    """He-normal weights (fan-in of the kernel), zero biases."""
    params: Params = {}
    for name, shape in spec.items():
        if len(shape) == 1:
            data = np.zeros(shape, dtype=dtype)
        else:
            fan_in = int(np.prod(shape[1:]))
            std = math.sqrt(2.0 / fan_in)
            data = rng.normal(0.0, std, shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _conv_spec(cout: int, cin: int, k: int) -> ParamSpec:
    return {"weight": (cout, cin, k, k), "bias": (cout,)}


def _conv(x: Tensor, params: Params, key: str, k: int, groups: int = 1) -> Tensor:
    return conv2d(
        x,
        params[f"{key}.weight"],
        params[f"{key}.bias"],
        padding=(k - 1) // 2,
        groups=groups,
    )


# -- frequency separation ----------------------------------------------------

POOL_KINDS = ("avg", "max")


def pool2x2(x: Tensor, kind: str) -> Tensor:
    """Halve both spatial extents by 2x2 mean or max pooling."""
    if kind == "avg":
        return avg_pool2d(x)
    if kind == "max":
        return max_pool2d(x)
    raise ValueError(f"pool: unknown pool kind {kind!r}")


def frequency_separate(x: Tensor, pool_kind: str = "avg") -> Tuple[Tensor, Tensor]:
    """Split [B, C, H, W] features into pooled low and residual high parts.

    Returns (low, high); high + upsample(low) reproduces x up to float rounding.
    """
    if x.ndim != 4:
        raise ValueError(f"frequency_separate: input must be 4-d, got {x.shape}")
    _, _, height, width = x.shape
    if height % 2 != 0 or width % 2 != 0:
        raise ValueError(
            f"frequency_separate: spatial extents {height}x{width} must be even (caller pads)"
        )
    low = pool2x2(x, pool_kind)
    high = sub(x, bilinear_upsample(low, height, width))
    return low, high


# -- windowed multi-head self-attention --------------------------------------


def attention_spec(c: int) -> ParamSpec:
    spec: ParamSpec = {}
    for name in ("q", "k", "v", "proj"):
        spec.update(prefixed(_conv_spec(c, c, 1), f"{name}."))
    return spec


def _window_partition(x: Tensor, heads: int, window: int) -> Tensor:
    """[B, C, H, W] -> [B, nh, nw, heads, window*window, C/heads]."""
    b, c, h, w = x.shape
    dh = c // heads
    nh, nw = h // window, w // window
    t = reshape(x, (b, heads, dh, nh, window, nw, window))
    t = permute(t, (0, 3, 5, 1, 4, 6, 2))
    return reshape(t, (b, nh, nw, heads, window * window, dh))


def _window_merge(x: Tensor, heads: int, window: int, c: int, h: int, w: int) -> Tensor:
    b = x.shape[0]
    dh = c // heads
    nh, nw = h // window, w // window
    t = reshape(x, (b, nh, nw, heads, window, window, dh))
    t = permute(t, (0, 3, 6, 1, 4, 2, 5))
    return reshape(t, (b, c, h, w))


def window_self_attention(x: Tensor, params: Params, heads: int = 4, window: int = 8) -> Tensor:
    """Multi-head scaled dot-product attention inside non-overlapping windows.

    Tokens are a window's pixels; q/k/v come from learned 1x1
    projections, scores scale by 1/sqrt(C/heads), and the projected
    result adds back onto the input.
    """
    _, c, h, w = x.shape
    if h % window != 0 or w % window != 0:
        raise ValueError(
            f"window_self_attention: extents {h}x{w} not divisible by window {window}"
        )
    if c % heads != 0:
        raise ValueError(f"window_self_attention: {c} channels not divisible by {heads} heads")
    q = _window_partition(_conv(x, params, "q", 1), heads, window)
    k = _window_partition(_conv(x, params, "k", 1), heads, window)
    v = _window_partition(_conv(x, params, "v", 1), heads, window)
    scale = 1.0 / math.sqrt(c // heads)
    scores = mul(matmul(q, permute(k, (0, 1, 2, 3, 5, 4))), scale)
    attn = softmax(scores, axis=-1)
    gathered = _window_merge(matmul(attn, v), heads, window, c, h, w)
    return _conv(gathered, params, "proj", 1) + x


# -- multi-branch block -------------------------------------------------------

MBB_TOTAL_CONVS = 4


def multi_branch_spec(c: int, split: Tuple[int, int] = (3, 1)) -> ParamSpec:
    n_a, n_b = split
    if n_a + n_b != MBB_TOTAL_CONVS:
        raise ValueError(f"multi_branch_spec: split {split} must sum to {MBB_TOTAL_CONVS}")
    spec: ParamSpec = {}
    for j in range(n_a):
        spec.update(prefixed(_conv_spec(c, c, 3), f"branchA.conv{j}."))
    for j in range(n_b):
        spec.update(prefixed(_conv_spec(c, c, 3), f"branchB.conv{j}."))
    return spec


def multi_branch_block(x: Tensor, params: Params, split: Tuple[int, int] = (3, 1)) -> Tensor:
    """Two parallel conv chains of unequal depth, summed, plus a skip path.

    The deep chain biases toward fine detail, the shallow one toward
    smooth structure. An empty second branch degenerates into the skip
    path itself, so the output stays a three-term sum at most.
    """
    n_a, n_b = split
    if n_a + n_b != MBB_TOTAL_CONVS:
        raise ValueError(f"multi_branch_block: split {split} must sum to {MBB_TOTAL_CONVS}")

    def chain(start: Tensor, branch: str, count: int) -> Tensor:
        h = start
        for j in range(count):
            h = gelu(_conv(h, params, f"{branch}.conv{j}", 3))
        return h

    out = chain(x, "branchA", n_a)
    if n_b > 0:
        out = out + chain(x, "branchB", n_b)
    return out + x


# -- channel attention --------------------------------------------------------


def channel_attention_spec(c: int, reduction: int = 4) -> ParamSpec:
    if c % reduction != 0:
        raise ValueError(f"channel_attention_spec: {c} channels not divisible by reduction {reduction}")
    spec = prefixed(_conv_spec(c // reduction, c, 1), "fc1.")
    spec.update(prefixed(_conv_spec(c, c // reduction, 1), "fc2."))
    return spec


def channel_attention(x: Tensor, params: Params, reduction: int = 4) -> Tensor:
    """Gate each channel by a squeeze-excite function of its global mean."""
    c = x.shape[1]
    if c % reduction != 0:
        raise ValueError(f"channel_attention: {c} channels not divisible by reduction {reduction}")
    gate = sigmoid(_conv(gelu(_conv(global_avg_pool(x), params, "fc1", 1)), params, "fc2", 1))
    return mul(x, gate)


# -- frequency fusion ----------------------------------------------------------


def freq_fuse_spec(c: int, reduction: int = 4) -> ParamSpec:
    spec = prefixed(_conv_spec(c, 2 * c, 3), "conv3.")
    spec.update(prefixed(channel_attention_spec(c, reduction), "ca."))
    spec.update(prefixed(_conv_spec(c, c, 1), "conv1."))
    return spec


def freq_fuse(high: Tensor, low: Tensor, params: Params, reduction: int = 4) -> Tensor:
    """Merge a half-resolution stream back into the full-resolution one.

    Upsample low, concatenate onto high, then 3x3 conv -> channel
    attention -> 1x1 conv.
    """
    _, _, h, w = high.shape
    if low.shape[2] * 2 != h or low.shape[3] * 2 != w:
        raise ValueError(
            f"freq_fuse: low extents {low.shape[2:]} must be exactly half of high {high.shape[2:]}"
        )
    merged = concat([bilinear_upsample(low, h, w), high], axis=1)
    fused = channel_attention(_conv(merged, params, "conv3", 3), scoped(params, "ca."), reduction)
    return _conv(fused, params, "conv1", 1)


# -- convolutional feed-forward -------------------------------------------------

FFN_MODES = ("inverted", "normal_bottleneck", "flat")


def _ffn_mid_channels(c: int, mode: str, expansion: int) -> int:
    if expansion < 1:
        raise ValueError(f"conv_ffn: expansion must be >= 1, got {expansion}")
    if mode == "inverted":
        return c * expansion
    if mode == "normal_bottleneck":
        if c % expansion != 0:
            raise ValueError(f"conv_ffn: {c} channels not divisible by expansion {expansion}")
        return c // expansion
    if mode == "flat":
        return c
    raise ValueError(f"conv_ffn: unknown mode {mode!r}")


def conv_ffn_spec(c: int, mode: str = "inverted", expansion: int = 4) -> ParamSpec:
    mid = _ffn_mid_channels(c, mode, expansion)
    spec = prefixed(_conv_spec(mid, c, 1), "fc1.")
    spec.update(prefixed(_conv_spec(c, mid, 1), "fc2."))
    return spec


def conv_ffn(x: Tensor, params: Params, mode: str = "inverted", expansion: int = 4) -> Tensor:
    """Pointwise expand -> GELU -> pointwise contract, with skip path.

    mode selects the middle width: widened (default), narrowed, or
    unchanged.
    """
    _ffn_mid_channels(x.shape[1], mode, expansion)
    return _conv(gelu(_conv(x, params, "fc1", 1)), params, "fc2", 1) + x


# -- convolutional enhancement block --------------------------------------------

CEB_KERNEL_MODES = ("dw7", "three_dw3", "dw5_dw3")


def _ceb_dw_layout(kernel_mode: str) -> Tuple[int, ...]:
    if kernel_mode == "dw7":
        return (7,)
    if kernel_mode == "three_dw3":
        return (3, 3, 3)
    if kernel_mode == "dw5_dw3":
        return (5, 3)
    raise ValueError(f"conv_enhancement_block: unknown kernel mode {kernel_mode!r}")


def ceb_spec(
    c: int,
    kernel_mode: str = "dw7",
    ffn_mode: str = "inverted",
    expansion: int = 4,
) -> ParamSpec:
    spec = prefixed(_conv_spec(c, c, 1), "pw_in.")
    for j, k in enumerate(_ceb_dw_layout(kernel_mode)):
        spec.update(prefixed({"weight": (c, 1, k, k), "bias": (c,)}, f"dw{j}."))
    spec.update(prefixed(_conv_spec(c, c, 1), "pw_out."))
    spec.update(prefixed(conv_ffn_spec(c, ffn_mode, expansion), "ffn."))
    return spec


def conv_enhancement_block(
    x: Tensor,
    params: Params,
    kernel_mode: str = "dw7",
    ffn_mode: str = "inverted",
    expansion: int = 4,
) -> Tensor:
    """Pointwise -> large-kernel depthwise -> pointwise -> conv FFN, with skip.

    The depthwise stage is one 7x7 kernel by default; ablation modes
    swap in three 3x3 kernels or a 5x5 followed by a 3x3. Every
    convolution is followed by GELU; a skip path wraps the whole block.
    """
    c = x.shape[1]
    h = gelu(_conv(x, params, "pw_in", 1))
    for j, k in enumerate(_ceb_dw_layout(kernel_mode)):
        h = gelu(
            conv2d(
                h,
                params[f"dw{j}.weight"],
                params[f"dw{j}.bias"],
                padding=(k - 1) // 2,
                groups=c,
            )
        )
    h = gelu(_conv(h, params, "pw_out", 1))
    h = conv_ffn(h, scoped(params, "ffn."), ffn_mode, expansion)
    return h + x


def count_spec(spec: ParamSpec) -> int:
    return int(sum(np.prod(shape, dtype=np.int64) for shape in spec.values()))
