"""Differentiable building blocks of the restoration network.

Each block is a pure function of (input, params); params is a flat
mapping from stable local path strings (e.g. "branchA.conv0.weight") to
tensors. The companion ``*_spec`` functions return the expected key ->
shape layout, which doubles as the initializer schema and the
checkpoint-validation contract. The spec is the only place a layout is
stated: forwards read kernel sizes, channel widths and each conv's kind
(dense or depthwise, the two ``conv2d`` takes) from the weights and take
only the choices the weights cannot show (heads, window, pool kind,
branch split, depthwise kernel mode).

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


def conv_spec(cout: int, cin: int, k: int) -> ParamSpec:
    """Layout of one dense k x k conv layer: weight [cout, cin, k, k], bias [cout]."""
    return {"weight": (cout, cin, k, k), "bias": (cout,)}


def conv(x: Tensor, params: Params, key: str, gelu_input: bool = False) -> Tensor:
    """Apply conv layer ``key`` of params, to gelu(x) with gelu_input; its weight,
    dense or depthwise, sets the kernel, and the output keeps x's extents."""
    return conv2d(x, params[f"{key}.weight"], params[f"{key}.bias"], gelu_input)


# -- frequency separation ----------------------------------------------------

POOL_KINDS = ("avg", "max")


def pool2x2(x: Tensor, kind: str) -> Tensor:
    """Halve both spatial extents by 2x2 mean or max pooling."""
    if kind == "avg":
        return avg_pool2d(x)
    if kind == "max":
        return max_pool2d(x)
    raise ValueError(f"pool: unknown pool kind {kind!r}")


def frequency_separate(x: Tensor, pool_kind: str) -> Tuple[Tensor, Tensor]:
    """Split [B, C, H, W] features into pooled low and residual high parts.

    Returns (low, high); high + upsample(low) reproduces x up to float rounding.
    """
    low = pool2x2(x, pool_kind)
    high = sub(x, bilinear_upsample(low))
    return low, high


# -- windowed multi-head self-attention --------------------------------------


def attention_spec(c: int) -> ParamSpec:
    spec: ParamSpec = {}
    for name in ("q", "k", "v", "proj"):
        spec.update(prefixed(conv_spec(c, c, 1), f"{name}."))
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


def window_self_attention(x: Tensor, params: Params, heads: int, window: int) -> Tensor:
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
    q = _window_partition(conv(x, params, "q"), heads, window)
    k = _window_partition(conv(x, params, "k"), heads, window)
    v = _window_partition(conv(x, params, "v"), heads, window)
    scale = 1.0 / math.sqrt(c // heads)
    scores = mul(matmul(q, permute(k, (0, 1, 2, 3, 5, 4))), scale)
    attn = softmax(scores, axis=-1)
    gathered = _window_merge(matmul(attn, v), heads, window, c, h, w)
    return conv(gathered, params, "proj") + x


# -- multi-branch block -------------------------------------------------------

MBB_TOTAL_CONVS = 4


def multi_branch_spec(c: int, split: Tuple[int, int]) -> ParamSpec:
    if len(split) != 2 or min(split) < 0 or sum(split) != MBB_TOTAL_CONVS:
        raise ValueError(f"multi_branch_spec: split {split} must be two counts >= 0 that sum to {MBB_TOTAL_CONVS}")
    n_a, n_b = split
    spec: ParamSpec = {}
    for j in range(n_a):
        spec.update(prefixed(conv_spec(c, c, 3), f"branchA.conv{j}."))
    for j in range(n_b):
        spec.update(prefixed(conv_spec(c, c, 3), f"branchB.conv{j}."))
    return spec


def multi_branch_block(x: Tensor, params: Params, split: Tuple[int, int]) -> Tensor:
    """Two parallel conv chains of unequal depth, summed, plus a skip path.

    The deep chain biases toward fine detail, the shallow one toward
    smooth structure. An empty second branch degenerates into the skip
    path itself, so the output stays a three-term sum at most. GELU follows
    each conv: the next conv in the chain applies it, a gelu node at the end.
    """
    n_a, n_b = split

    def chain(h: Tensor, branch: str, count: int) -> Tensor:
        for j in range(count):
            h = conv(h, params, f"{branch}.conv{j}", gelu_input=j > 0)
        return gelu(h) if count else h

    out = chain(x, "branchA", n_a)
    if n_b > 0:
        out = out + chain(x, "branchB", n_b)
    return out + x


# -- channel attention --------------------------------------------------------


def channel_attention_spec(c: int, reduction: int) -> ParamSpec:
    if c % reduction != 0:
        raise ValueError(f"channel_attention_spec: {c} channels not divisible by reduction {reduction}")
    spec = prefixed(conv_spec(c // reduction, c, 1), "fc1.")
    spec.update(prefixed(conv_spec(c, c // reduction, 1), "fc2."))
    return spec


def channel_attention(x: Tensor, params: Params) -> Tensor:
    """Gate each channel by a squeeze-excite function of its global mean."""
    gate = sigmoid(conv(conv(global_avg_pool(x), params, "fc1"), params, "fc2", gelu_input=True))
    return mul(x, gate)


# -- frequency fusion ----------------------------------------------------------


def freq_fuse_spec(c: int, reduction: int) -> ParamSpec:
    spec = prefixed(conv_spec(c, 2 * c, 3), "conv3.")
    spec.update(prefixed(channel_attention_spec(c, reduction), "ca."))
    spec.update(prefixed(conv_spec(c, c, 1), "conv1."))
    return spec


def freq_fuse(high: Tensor, low: Tensor, params: Params) -> Tensor:
    """Merge a half-resolution stream back into the full-resolution one.

    Upsample low, concatenate onto high, then 3x3 conv -> channel
    attention -> 1x1 conv.
    """
    if low.shape[2] * 2 != high.shape[2] or low.shape[3] * 2 != high.shape[3]:
        raise ValueError(
            f"freq_fuse: low extents {low.shape[2:]} must be exactly half of high {high.shape[2:]}"
        )
    merged = concat([bilinear_upsample(low), high], axis=1)
    fused = channel_attention(conv(merged, params, "conv3"), scoped(params, "ca."))
    return conv(fused, params, "conv1")


# -- convolutional feed-forward -------------------------------------------------

def conv_ffn_spec(c: int, mode: str, expansion: int) -> ParamSpec:
    if expansion < 1:
        raise ValueError(f"conv_ffn_spec: expansion must be >= 1, got {expansion}")
    if mode == "inverted":
        mid = c * expansion
    elif mode == "normal_bottleneck":
        if c % expansion != 0:
            raise ValueError(f"conv_ffn_spec: {c} channels not divisible by expansion {expansion}")
        mid = c // expansion
    elif mode == "flat":
        mid = c
    else:
        raise ValueError(f"conv_ffn_spec: unknown mode {mode!r}")
    spec = prefixed(conv_spec(mid, c, 1), "fc1.")
    spec.update(prefixed(conv_spec(c, mid, 1), "fc2."))
    return spec


def conv_ffn(x: Tensor, params: Params) -> Tensor:
    """Pointwise expand -> GELU -> pointwise contract, with skip path.

    The middle width is fc1's output axis: widened, narrowed, or
    unchanged by the spec's mode.
    """
    return conv(conv(x, params, "fc1"), params, "fc2", gelu_input=True) + x


# -- convolutional enhancement block --------------------------------------------

# Kernel sizes of the depthwise stage, in order, per kernel mode.
CEB_DW_KERNELS = {"dw7": (7,), "three_dw3": (3, 3, 3), "dw5_dw3": (5, 3)}


def ceb_spec(c: int, kernel_mode: str, ffn_mode: str, expansion: int) -> ParamSpec:
    if kernel_mode not in CEB_DW_KERNELS:
        raise ValueError(f"ceb_spec: unknown kernel mode {kernel_mode!r}")
    spec = prefixed(conv_spec(c, c, 1), "pw_in.")
    for j, k in enumerate(CEB_DW_KERNELS[kernel_mode]):
        spec.update(prefixed({"weight": (c, 1, k, k), "bias": (c,)}, f"dw{j}."))
    spec.update(prefixed(conv_spec(c, c, 1), "pw_out."))
    spec.update(prefixed(conv_ffn_spec(c, ffn_mode, expansion), "ffn."))
    return spec


def conv_enhancement_block(x: Tensor, params: Params, kernel_mode: str) -> Tensor:
    """Pointwise -> large-kernel depthwise -> pointwise -> conv FFN, with skip.

    kernel_mode names the depthwise stage's kernels in CEB_DW_KERNELS:
    one 7x7, or for the ablations three 3x3 or a 5x5 then a 3x3. Every
    convolution is followed by GELU; a skip path wraps the whole block.
    The GELUs of pw_in and the depthwise convs are applied by the next conv
    to its input; pw_out's is a gelu node, as the FFN's skip path reads it.
    """
    h = conv(x, params, "pw_in")
    for j in range(len(CEB_DW_KERNELS[kernel_mode])):
        h = conv(h, params, f"dw{j}", gelu_input=True)
    h = gelu(conv(h, params, "pw_out", gelu_input=True))
    h = conv_ffn(h, scoped(params, "ffn."))
    return h + x


def count_spec(spec: ParamSpec) -> int:
    return int(sum(np.prod(shape, dtype=np.int64) for shape in spec.values()))
