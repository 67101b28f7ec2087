"""Dense N-d tensors with reverse-mode automatic differentiation.

Every differentiable primitive the network is built from lives here:
convolution, pooling, bilinear 2x upsampling, elementwise math, softmax,
matmul, and concatenation. Tensors record their provenance when any
input requires a gradient. The graph is made of nodes, which hold
gradients and backward links but no data; each op's backward closure
keeps only the arrays its formula reads, so an output that no backward
reads is freed once its Tensor is dropped. ``backward()`` on a scalar
result walks the nodes in reverse topological order, adds gradients
into every reachable tensor that asked for them and frees each node
behind it.

Two float precisions are supported: float32 for ordinary training and
inference, float64 for gradient verification. All tensors participating
in one graph must share a single dtype; mixing is rejected.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

class _Node:
    """A tensor's place in the graph: gradient slot and backward link, no data.

    Parents and backward closures hold nodes, so an op's output array lives
    only as long as its Tensor or a closure whose formula reads it.
    Gradients are handed over, not copied: the first one is stored as given
    and later ones are added out of place, so no backward closure may write
    into the gradient it received, or into an array it has handed on.
    """

    __slots__ = ("requires_grad", "grad", "_parents", "_backward_fn", "__weakref__")

    def __init__(self, requires_grad: bool):
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.requires_grad:
            self.grad = g if self.grad is None else self.grad + g


def _delegate(name: str) -> property:
    return property(lambda t: getattr(t.node, name), lambda t, v: setattr(t.node, name, v))


class Tensor:
    """Dense array plus its graph node.

    data is contiguous row-major; image tensors use [B, C, H, W] with
    width innermost. ``grad`` stays ``None`` until a backward pass
    deposits something, and a tensor created with requires_grad=False
    never accumulates gradient. ``grad`` may be a read-only view or an
    array another tensor's ``grad`` shares: copy it before writing into
    it. Gradient state lives on ``node``; an op keeps only the arrays its
    backward reads, so an intermediate output is freed as soon as the
    forward code drops its Tensor.
    """

    requires_grad = _delegate("requires_grad")
    grad = _delegate("grad")
    _backward_fn = _delegate("_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.node = _Node(bool(requires_grad))

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, "
            f"requires_grad={self.requires_grad})"
        )

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    # -- graph mechanics ---------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root.

        Gradients accumulate additively across fan-out, so a tensor used
        twice receives twice the gradient of a single use. Non-leaf nodes are
        freed as their closures run, so a second backward() through them raises.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar root, got shape {self.shape}")
        order = _toposort(self.node)  # root last
        self.node._accumulate(np.ones_like(self.data))
        if not self.requires_grad:
            self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            backward_fn, g = node._backward_fn, node.grad
            if backward_fn is not None:
                node._backward_fn, node._parents, node.grad = _released, (), None
                if g is not None:
                    backward_fn(g)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def reshape(self, shape):
        return reshape(self, shape)


def _toposort(root: _Node) -> list:
    """Topological order (root last), iterative to survive deep graphs."""
    order: list = []
    visited: set = set()
    emitted: set = set()
    stack = [root]
    while stack:
        node = stack[-1]
        nid = id(node)
        if nid in visited:
            stack.pop()
            if nid not in emitted:
                emitted.add(nid)
                order.append(node)
            continue
        visited.add(nid)
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append(parent)
    return order


def _released(g: np.ndarray) -> None:
    raise RuntimeError("graph already released; backward() runs once per graph")


def _wrap(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _check_same_dtype(*tensors: Tensor) -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ValueError(
            f"tensors in one graph must share one dtype, got {sorted(str(d) for d in dtypes)}"
        )


def _node(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    nodes = tuple(p.node for p in parents)
    requires = any(n.requires_grad for n in nodes)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out.node._parents = nodes
        out.node._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise arithmetic ----------------------------------------------


def _binary_operands(name: str, op, a, b):
    """Wrap scalar operands, check dtypes, and apply op with a clear broadcast error."""
    a = a if isinstance(a, Tensor) else _wrap(a, b)
    b = _wrap(b, a)
    _check_same_dtype(a, b)
    try:
        return a, b, op(a.data, b.data)
    except ValueError:
        raise ValueError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b, data = _binary_operands("add", np.add, a, b)
    an, bn, a_shape, b_shape = a.node, b.node, a.shape, b.shape

    def backward(g):
        an._accumulate(_unbroadcast(g, a_shape))
        bn._accumulate(_unbroadcast(g, b_shape))

    return _node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b, data = _binary_operands("sub", np.subtract, a, b)
    an, bn, a_shape, b_shape = a.node, b.node, a.shape, b.shape

    def backward(g):
        an._accumulate(_unbroadcast(g, a_shape))
        bn._accumulate(_unbroadcast(-g, b_shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b, data = _binary_operands("mul", np.multiply, a, b)
    an, bn, ad, bd = a.node, b.node, a.data, b.data

    def backward(g):
        an._accumulate(_unbroadcast(g * bd, ad.shape))
        bn._accumulate(_unbroadcast(g * ad, bd.shape))

    return _node(data, (a, b), backward)


def tabs(x: Tensor) -> Tensor:
    """Elementwise absolute value; subgradient 0 at exactly zero."""
    xn, xd = x.node, x.data
    data = np.abs(xd)

    def backward(g):
        xn._accumulate(g * np.sign(xd))

    return _node(data, (x,), backward)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor) elementwise; gradient flows only where x > floor."""
    xn, xd = x.node, x.data
    data = np.maximum(xd, xd.dtype.type(floor))

    def backward(g):
        xn._accumulate(g * (xd > floor))

    return _node(data, (x,), backward)


def tsum(x: Tensor) -> Tensor:
    xn, shape = x.node, x.shape
    data = x.data.sum()

    def backward(g):
        xn._accumulate(np.broadcast_to(g, shape))

    return _node(np.asarray(data), (x,), backward)


def tmean(x: Tensor) -> Tensor:
    xn, shape, n = x.node, x.shape, x.data.size
    data = x.data.mean()

    def backward(g):
        xn._accumulate(np.broadcast_to(g / n, shape))

    return _node(np.asarray(data), (x,), backward)


# -- activations -----------------------------------------------------------

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_tanh(d: np.ndarray) -> np.ndarray:
    """tanh(C * (d + A * d^3)) in one new array.

    gelu and conv2d's gelu_input call this in forward and backward, so the
    tanh that backward recomputes is the forward's, bit for bit. The cube is
    a product: float32 ``**3`` goes through ``powf``, over 100x slower.
    """
    # Beyond |x| ~ 7e12 the float32 cube overflows to inf; the tanh then
    # saturates to exactly +-1, which is the correct value.
    with np.errstate(over="ignore"):
        t = np.multiply(d, d, out=np.empty_like(d))
        t *= d
        t *= _GELU_A
        t += d
        t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu_forward(d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """gelu(d) = 0.5 * d * (1 + t) in one new array, t = _gelu_tanh(d); t becomes 1 + t."""
    t += 1.0
    out = 0.5 * d
    out *= t
    return out


def _gelu_vjp(d: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * gelu'(d) in one new array, t = _gelu_tanh(d), which is left unchanged."""
    scratch = np.multiply(t, t, out=np.empty_like(d))
    np.subtract(1.0, scratch, out=scratch)
    local = 0.5 * d
    local *= scratch
    # 1 - t**2 is exactly 0 beyond |x| = 1e3 (float32 and float64); the bound
    # keeps x*x finite there, so the product is 0, not 0 * inf = NaN.
    np.abs(d, out=scratch)
    np.minimum(scratch, 1e3, out=scratch)
    scratch *= scratch
    scratch *= 3.0 * _GELU_A
    scratch += 1.0
    scratch *= _GELU_C
    local *= scratch
    np.add(t, 1.0, out=scratch)
    scratch *= 0.5
    local += scratch
    local *= g
    return local


def gelu(x: Tensor) -> Tensor:
    """GELU via the tanh approximation.

    gelu(x) = 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))).
    The constants are fixed so outputs are bit-stable across platforms.
    Backward keeps only ``x`` (the producing op's output, alive anyway)
    and recomputes the tanh: storing it would keep a second array of the
    input's size per call until backward runs. A GELU that feeds only a
    conv belongs in ``conv2d(..., gelu_input=True)``, which keeps no output.
    """
    xn, xd = x.node, x.data
    data = _gelu_forward(xd, _gelu_tanh(xd))

    def backward(g):
        xn._accumulate(_gelu_vjp(xd, _gelu_tanh(xd), g))

    return _node(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    s = s.astype(d.dtype)
    xn = x.node

    def backward(g):
        xn._accumulate(g * s * (1.0 - s))

    return _node(s, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    s = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    xn = x.node

    def backward(g):
        local = g * s
        dot = local.sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=local)
        local *= s
        xn._accumulate(local)

    return _node(s, (x,), backward)


# -- shape manipulation ----------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    xn, x_shape = x.node, x.shape
    data = x.data.reshape(shape)

    def backward(g):
        xn._accumulate(g.reshape(x_shape))

    return _node(data, (x,), backward)


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = np.ascontiguousarray(x.data.transpose(axes))
    xn = x.node

    def backward(g):
        xn._accumulate(g.transpose(inverse))

    return _node(data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    _check_same_dtype(*tensors)
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != len(ref):
            raise ValueError(f"concat: rank mismatch {t.shape} vs {ref}")
        for ax in range(t.ndim):
            if ax != axis % t.ndim and t.shape[ax] != ref[ax]:
                raise ValueError(
                    f"concat: axis {ax} mismatch, {t.shape[ax]} vs {ref[ax]}"
                )
    data = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)
    nodes = [t.node for t in tensors]

    def backward(g):
        for node, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            node._accumulate(g[tuple(index)])

    return _node(data, tensors, backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product [..., M, K] @ [..., K, N]; leading dims must match."""
    _check_same_dtype(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul: need at least 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul: leading dims differ, {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner axis mismatch, {a.shape} vs {b.shape}")
    an, bn, ad, bd = a.node, b.node, a.data, b.data
    data = np.matmul(ad, bd)

    def backward(g):
        an._accumulate(np.matmul(g, np.swapaxes(bd, -1, -2)))
        bn._accumulate(np.matmul(np.swapaxes(ad, -1, -2), g))

    return _node(data, (a, b), backward)


# -- convolution -----------------------------------------------------------


def _taps(a: np.ndarray, groups: int, kh: int, kw: int):
    """Yield (i, j, view) per kernel tap of a [B, Cin, H, W] zero-padded by (kh // 2, kw // 2) per side.

    Output pixel (y, x) sits at y*Wp + x of the flat padded input and tap (i, j) reads
    from i*Wp + j on, so view is [B, groups, Cin/groups, H*Wp] with Wp - W junk columns
    per row. One more zero row keeps the last tap in range.
    """
    batch, cin, height, width = a.shape
    ph, pw = kh // 2, kw // 2
    wp = width + 2 * pw
    flat = np.ascontiguousarray(a)
    if (kh, kw) != (1, 1):
        flat = np.zeros((batch, cin, height + 2 * ph + 1, wp), a.dtype)
        flat[:, :, ph : ph + height, pw : pw + width] = a
    flat = flat.reshape(batch, groups, cin // groups, -1)
    size = height * wp
    for i in range(kh):
        for j in range(kw):
            yield i, j, flat[..., i * wp + j : i * wp + j + size]


def _correlate(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1, same-padded grouped correlation of a [B, Cin, H, W] with w [Cout, Cin/groups, kh, kw].

    Each tap adds its weights times its view from _taps (kn2row): a matmul, or a broadcast
    multiply when Cin/groups == 1.
    """
    batch, cin, height, width = a.shape
    cout, cg, kh, kw = w.shape
    groups, wp = cin // cg, width + kw - 1
    # [kh, kw, groups, Cout/groups, Cg], contiguous per tap so matmul stays on BLAS
    wt = np.ascontiguousarray(w.reshape(groups, cout // groups, cg, kh, kw).transpose(3, 4, 0, 1, 2))
    out = np.empty((batch, groups, cout // groups, height * wp), a.dtype)
    part = np.empty_like(out)
    product = np.multiply if cg == 1 else np.matmul
    taps = _taps(a, groups, kh, kw)
    product(wt[0, 0], next(taps)[2], out=out)
    for i, j, view in taps:
        product(wt[i, j], view, out=part)
        out += part
    return np.ascontiguousarray(out.reshape(batch, cout, height, wp)[..., :width])


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, gelu_input: bool = False) -> Tensor:
    """Stride-1 2-d cross-correlation over [B, Cin, H, W] that keeps H and W.

    The weight decides the geometry: it is [Cout, Cin/groups, kh, kw] with
    odd kh and kw, the input is zero-padded by (kh // 2, kw // 2) per side,
    and groups = Cin / weight.shape[1] (Cin gives the depthwise case). Each
    kernel tap is one product over a shifted view of the flat zero-padded
    input (kn2row), so no kh*kw-fold im2col columns are made or kept:
    backward re-pads x and sums, per tap, the output gradient against the
    same views. The input gradient is the output gradient correlated with
    the kernel flipped in space and transposed within each group.

    With gelu_input the node convolves gelu(x) and still keeps only x:
    backward rebuilds gelu(x) bit for bit from one recomputed tanh for the
    weight gradient and scales the input gradient by gelu'(x).
    """
    parents = [x, weight] + ([bias] if bias is not None else [])
    _check_same_dtype(*parents)
    if x.ndim != 4:
        raise ValueError(f"conv2d: input must be 4-d [B,C,H,W], got {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d: weight must be 4-d, got {weight.shape}")
    batch, cin, height, width = x.shape
    cout, cg, kh, kw = weight.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
    groups = cin // cg if cg else 0
    if groups == 0 or groups * cg != cin or cout % groups != 0:
        raise ValueError(
            f"conv2d: weight channel axis {cg} must split Cin={cin} into groups that divide Cout={cout}"
        )
    if bias is not None and bias.shape != (cout,):
        raise ValueError(f"conv2d: bias axis must be ({cout},), got {bias.shape}")

    xn, wn, xd, wd = x.node, weight.node, x.data, weight.data
    bn = bias.node if bias is not None else None
    a = _gelu_forward(xd, _gelu_tanh(xd)) if gelu_input else xd
    out = _correlate(a, wd)
    if bias is not None:
        out = out + bias.data[None, :, None, None]

    def backward(g):
        a = xd
        t = _gelu_tanh(a) if gelu_input else None
        if xn.requires_grad:
            # [Cin, Cout/groups, kh, kw]: swap the channel axes within each group, flip in space
            wt = wd.reshape(groups, cout // groups, cg, kh, kw).transpose(0, 2, 1, 3, 4)
            wt = wt.reshape(cin, cout // groups, kh, kw)[:, :, ::-1, ::-1]
            gx = _correlate(g, wt)
            xn._accumulate(_gelu_vjp(a, t, gx) if gelu_input else gx)
            del gx
        if gelu_input:
            a = _gelu_forward(a, t)  # the forward's gelu(x); after _gelu_vjp, which needs the bare tanh
        # g in the taps' row layout, zeros in the junk columns
        gp = np.zeros((batch, cout, height, width + kw - 1), g.dtype)
        gp[..., :width] = g
        gp = gp.reshape(batch, groups, cout // groups, -1)
        dw = np.empty((kh, kw, groups, cout // groups, cg), g.dtype)
        for i, j, view in _taps(a, groups, kh, kw):
            dw[i, j] = np.matmul(gp, view.swapaxes(-1, -2)).sum(axis=0)
        wn._accumulate(dw.transpose(2, 3, 4, 0, 1).reshape(wd.shape))
        if bn is not None:
            bn._accumulate(g.sum(axis=(0, 2, 3)))

    return _node(out, parents, backward)


# -- pooling ---------------------------------------------------------------


def _check_pool_args(x: Tensor) -> None:
    if x.ndim != 4:
        raise ValueError(f"pool: input must be 4-d [B,C,H,W], got {x.shape}")
    _, _, height, width = x.shape
    if height % 2 != 0 or width % 2 != 0:
        raise ValueError(f"pool: spatial extents {height}x{width} must be even (divisible by 2)")


def avg_pool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 mean pooling; differentiable everywhere."""
    _check_pool_args(x)
    batch, channels, height, width = x.shape
    oh, ow = height // 2, width // 2
    xr = x.data.reshape(batch, channels, oh, 2, ow, 2)
    out = xr.mean(axis=(3, 5))
    xn = x.node

    def backward(g):
        spread = np.broadcast_to(g[:, :, :, None, :, None] / 4, (batch, channels, oh, 2, ow, 2))
        xn._accumulate(spread.reshape(batch, channels, height, width))

    return _node(out, (x,), backward)


def max_pool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 max pooling.

    The gradient routes to the window's argmax; ties break to the first
    element in row-major window order, so gradients are deterministic.
    Backward keeps only the argmax indices.
    """
    _check_pool_args(x)
    batch, channels, height, width = x.shape
    oh, ow = height // 2, width // 2
    # [B, C, oh, ow, 4] with the window flattened row-major
    flat = x.data.reshape(batch, channels, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = flat.reshape(batch, channels, oh, ow, 4)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    xn, dtype = x.node, x.data.dtype

    def backward(g):
        dflat = np.zeros((batch, channels, oh, ow, 4), dtype)
        np.put_along_axis(dflat, idx[..., None], g[..., None], axis=-1)
        dx = dflat.reshape(batch, channels, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        xn._accumulate(dx.reshape(batch, channels, height, width))

    return _node(out, (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """[B, C, H, W] -> [B, C, 1, 1] spatial mean."""
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool: input must be 4-d, got {x.shape}")
    _, _, height, width = x.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)
    xn, shape = x.node, x.shape

    def backward(g):
        xn._accumulate(np.broadcast_to(g / (height * width), shape))

    return _node(out, (x,), backward)


# -- bilinear upsampling ----------------------------------------------------


def _neighbours(src: np.ndarray, n: int):
    """(floor, next index clamped to n - 1, fraction) of float64 positions on an
    axis of n samples; positions are clipped to [0, n - 1], so edges replicate."""
    src = np.clip(src, 0.0, n - 1.0)
    lo = np.floor(src).astype(np.intp)
    return lo, np.minimum(lo + 1, n - 1), src - lo


def _interp_axis(n_out: int, n_in: int):
    """Neighbour indices and fractions for align-corners=false sampling.

    Sample centers sit at (i + 0.5) * n_in / n_out - 0.5.
    """
    return _neighbours((np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5, n_in)


def _interp_matrix(n_out: int, n_in: int, dtype) -> np.ndarray:
    mat = np.zeros((n_out, n_in), dtype=dtype)
    lo, hi, frac = _interp_axis(n_out, n_in)
    rows = np.arange(n_out)
    np.add.at(mat, (rows, lo), (1.0 - frac).astype(dtype))
    np.add.at(mat, (rows, hi), frac.astype(dtype))
    return mat


def bilinear_upsample(x: Tensor) -> Tensor:
    """Bilinear 2x upsampling of [B, C, H, W] to [B, C, 2H, 2W].

    Uses the align-corners=false convention with edge clamping. The
    forward pass is lerp-form (lo + frac * (hi - lo)) so constant inputs
    come back bit-exact; the backward pass is the transposed linear map
    applied as two small matmuls.
    """
    if x.ndim != 4:
        raise ValueError(f"bilinear_upsample: input must be 4-d, got {x.shape}")
    _, _, height, width = x.shape
    out_h, out_w = 2 * height, 2 * width
    dtype = x.data.dtype
    lo_r, hi_r, frac_r = _interp_axis(out_h, height)
    lo_c, hi_c, frac_c = _interp_axis(out_w, width)
    wr = frac_r.astype(dtype)[None, None, :, None]
    wc = frac_c.astype(dtype)[None, None, None, :]
    low = x.data[:, :, lo_r, :]
    rows = low + wr * (x.data[:, :, hi_r, :] - low)
    left = rows[:, :, :, lo_c]
    out = left + wc * (rows[:, :, :, hi_c] - left)
    xn = x.node

    def backward(g):
        row_mat = _interp_matrix(out_h, height, dtype)
        col_mat = _interp_matrix(out_w, width, dtype)
        xn._accumulate(np.matmul(np.matmul(row_mat.T, g), col_mat))

    return _node(out, (x,), backward)
