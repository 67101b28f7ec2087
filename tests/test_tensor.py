"""Tests for the tensor primitives: forward oracles, gradients, invariants."""

import tracemalloc
import weakref

import numpy as np
import pytest

from crnet.model import warp_by_flow
from crnet.tensor import (
    Tensor,
    _interp_axis,
    _lerp,
    _neighbours,
    _node,
    add,
    avg_pool2d,
    bilinear_upsample,
    clamp_min,
    concat,
    conv2d,
    gelu,
    global_avg_pool,
    matmul,
    max_pool2d,
    mul,
    sigmoid,
    softmax,
    sub,
    tabs,
    tmean,
    tsum,
)
from tests.gradcheck import finite_difference_check, finite_difference_norm_error

F64 = np.float64


def _closure_array_ids(out: Tensor) -> list:
    """ids of the arrays that out's backward closure keeps, itself or in a tuple, sorted."""
    cells = [cell.cell_contents for cell in out._backward_fn.__closure__]
    cells += [c for cell in cells if isinstance(cell, tuple) for c in cell]
    return sorted(id(c) for c in cells if isinstance(c, np.ndarray))


_MAGS = np.logspace(-3, 12, 61)
# |x| >= 7e12 overflows the float32 cube to inf, and |x| >= 2e19 the square;
# the tanh saturates to +-1 there.
_OVERFLOW = np.array([7e12, 1e13, 1e15, 1e18, 2e19, 1e24, 1e30, 3e38])
GELU_GRID = np.concatenate([-_OVERFLOW[::-1], -_MAGS[::-1], [0.0], _MAGS, _OVERFLOW])


def rand(shape, seed=0, dtype=F64):
    return Tensor(np.random.default_rng(seed).normal(size=shape), dtype=dtype)


def conv2d_loops(x, w, b, padding, groups):
    """Direct-summation stride-1 convolution oracle (independent of im2col); padding is (ph, pw)."""
    bs, cin, h, width = x.shape
    cout, cg, kh, kw = w.shape
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = h + 2 * ph - kh + 1
    ow = width + 2 * pw - kw + 1
    out = np.zeros((bs, cout, oh, ow), dtype=x.dtype)
    cpg_out = cout // groups
    for n in range(bs):
        for co in range(cout):
            g = co // cpg_out
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cg):
                        for i in range(kh):
                            for j in range(kw):
                                acc += (
                                    xp[n, g * cg + ci, oy + i, ox + j]
                                    * w[co, ci, i, j]
                                )
                    out[n, co, oy, ox] = acc + (b[co] if b is not None else 0.0)
    return out


class TestConv2d:
    def test_all_ones_hand_oracle(self):
        x = Tensor(np.ones((1, 1, 3, 3)), dtype=F64)
        w = Tensor(np.ones((1, 1, 3, 3)), dtype=F64)
        out = conv2d(x, w).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == 4.0 and out[0, 2] == 4.0 and out[2, 0] == 4.0 and out[2, 2] == 4.0
        assert out[0, 1] == 6.0

    def test_identity_1x1_kernel(self):
        x = rand((2, 3, 5, 7), seed=1)
        eye = np.zeros((3, 3, 1, 1))
        for c in range(3):
            eye[c, c, 0, 0] = 1.0
        out = conv2d(x, Tensor(eye, dtype=F64))
        assert np.array_equal(out.data, x.data)

    def test_depthwise_delta_identity(self):
        x = rand((1, 4, 6, 6), seed=2)
        delta = np.zeros((4, 1, 3, 3))
        delta[:, 0, 1, 1] = 1.0
        out = conv2d(x, Tensor(delta, dtype=F64))
        assert np.allclose(out.data, x.data)

    @pytest.mark.parametrize(
        "groups,cout,kernel",
        [
            pytest.param(1, 4, (3, 3), id="1-1"),
            pytest.param(1, 4, (3, 5), id="3x5"),
        ],
    )
    def test_matches_loop_oracle(self, groups, cout, kernel):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, 6, 8))
        w = rng.normal(size=(cout, 4 // groups) + kernel)
        b = rng.normal(size=(cout,))
        got = conv2d(Tensor(x), Tensor(w), Tensor(b))
        want = conv2d_loops(x, w, b, (kernel[0] // 2, kernel[1] // 2), groups)
        assert got.shape == want.shape == x.shape[:1] + (cout,) + x.shape[2:]
        assert np.allclose(got.data, want, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_same_padding_preserves_shape(self, k):
        x = rand((1, 2, 8, 8), seed=4)
        w = rand((2, 2, k, k), seed=5)
        out = conv2d(x, w)
        assert out.shape == x.shape

    def test_linearity(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 3, 6, 6)))
        y = Tensor(rng.normal(size=(1, 3, 6, 6)))
        w = Tensor(rng.normal(size=(2, 3, 3, 3)))
        a, b = 2.5, -1.25
        lhs = conv2d(add(mul(x, a), mul(y, b)), w)
        rhs = add(mul(conv2d(x, w), a), mul(conv2d(y, w), b))
        assert np.allclose(lhs.data, rhs.data, atol=1e-5)

    def test_shape_errors_name_the_axis(self):
        x = rand((1, 3, 4, 4))
        # 2 does not split Cin=3, 0 and 4 give no groups, 1 gives 3 groups that do not divide Cout=4.
        for cg in (2, 0, 4, 1):
            with pytest.raises(ValueError, match="channel axis"):
                conv2d(x, rand((4, cg, 3, 3)))
        with pytest.raises(ValueError, match="bias"):
            conv2d(x, rand((4, 3, 3, 3)), bias=rand((3,)))
        with pytest.raises(ValueError, match="odd"):
            conv2d(x, rand((4, 3, 2, 2)))

    @pytest.mark.parametrize("kh,kw,groups", [(3, 3, 1), (1, 1, 1), (7, 7, 4), (3, 5, 1)])
    def test_gradcheck_input_weight_bias(self, kh, kw, groups):
        rng = np.random.default_rng(7)
        cin = cout = 4
        w = Tensor(rng.normal(size=(cout, cin // groups, kh, kw)), dtype=F64)
        b = Tensor(rng.normal(size=(cout,)), dtype=F64)
        x = Tensor(rng.normal(size=(2, cin, 6, 6)), dtype=F64)
        # A random cotangent, so a kernel flipped or transposed the wrong way shows.
        c = Tensor(rng.normal(size=(2, cout, 6, 6)), dtype=F64)

        def loss(x, w, b):
            return tsum(mul(conv2d(x, w, b), c))

        assert finite_difference_check(lambda t: loss(t, w, b), x) < 1e-6
        assert finite_difference_check(lambda t: loss(x, t, b), w) < 1e-6
        assert finite_difference_check(lambda t: loss(x, w, t), b) < 1e-6

    def test_rejects_grouped_and_depth_multiplier_weights(self):
        # Only dense [Cout, Cin, kh, kw] and depthwise [Cin, 1, kh, kw] weights
        # are taken: a depth multiplier and a 2-group weight on 4 channels are not.
        x = rand((1, 4, 5, 5))
        for shape in ((8, 1, 3, 3), (4, 2, 3, 3)):
            with pytest.raises(ValueError, match="channel axis") as error:
                conv2d(x, rand(shape))
            assert "dense [Cout, Cin, kh, kw]" in str(error.value)
            assert "depthwise [Cin, 1, kh, kw]" in str(error.value)

    # Widths below, at, just past and past two band tiles (16 columns each).
    @pytest.mark.parametrize("width", [3, 16, 17, 33])
    @pytest.mark.parametrize("kernel", [(3, 3), (5, 5), (7, 7), (3, 5)], ids=["3x3", "5x5", "7x7", "3x5"])
    def test_depthwise_matches_loop_oracle_across_tile_seams(self, width, kernel):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 3, 5, width))
        w = rng.normal(size=(3, 1) + kernel)
        b = rng.normal(size=(3,))
        got = conv2d(Tensor(x), Tensor(w), Tensor(b))
        want = conv2d_loops(x, w, b, (kernel[0] // 2, kernel[1] // 2), 3)
        assert np.allclose(got.data, want, atol=1e-10)

    @pytest.mark.parametrize("gelu_input", [False, True])
    def test_depthwise_gradcheck_across_tile_seams(self, gelu_input):
        # 21 columns: a full band tile and a partial one. gelu'(x) is 0
        # near x = -0.75, so with gelu_input some of the 1,008 input-gradient
        # entries are tiny, and the central differences' rounding and
        # truncation error reaches 1e-5 of them (kn2row reads the same).
        # Against the gradient's max norm every error reads 0.6-2e-10.
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 4, 6, 21)), dtype=F64)
        w = Tensor(rng.normal(size=(4, 1, 7, 7)), dtype=F64)
        b = Tensor(rng.normal(size=(4,)), dtype=F64)
        c = Tensor(rng.normal(size=(2, 4, 6, 21)), dtype=F64)

        def loss(x, w, b):
            return tsum(mul(conv2d(x, w, b, gelu_input=gelu_input), c))

        assert finite_difference_check(lambda t: loss(t, w, b), x) < 1e-4
        assert finite_difference_check(lambda t: loss(x, t, b), w) < 1e-6
        assert finite_difference_check(lambda t: loss(x, w, t), b) < 1e-6
        for f, arg in ((lambda t: loss(t, w, b), x), (lambda t: loss(x, t, b), w), (lambda t: loss(x, w, t), b)):
            assert finite_difference_norm_error(f, arg) < 1e-9

    @pytest.mark.parametrize("shape", [(1, 64, 32, 32), (1, 8, 128, 128)])
    def test_depthwise_transient_memory_is_bounded(self, shape):
        # The banded path copies the padded input into column tiles once per
        # call and builds one kernel row's bands at a time: about 5x forward
        # and 7x backward here, kn2row 6x. Stacking the 7 rows' tiles into
        # one matmul peaked at 14x forward and 18x backward at 1x64x32x32.
        rng = np.random.default_rng(23)
        x, w, b = (
            Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
            for s in (shape, (shape[1], 1, 7, 7), (shape[1],))
        )
        g = rng.normal(size=shape).astype(np.float32)
        peaks = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, b, gelu_input=True)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out._backward_fn(g)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert x.grad is not None and w.grad is not None
        assert max(peaks) <= 10 * x.data.nbytes

    def test_depthwise_forward_keeps_no_columns(self):
        # An im2col conv keeps a kh*kw-fold copy of its input for backward
        # (about 50x here); the per-tap conv keeps only its output.
        x = rand((1, 16, 32, 32), seed=11)
        x.requires_grad = True
        w = rand((16, 1, 7, 7), seed=12)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = conv2d(x, w)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._backward_fn is not None
        assert kept < 3 * x.data.nbytes

    def test_depthwise_7x7_float32_matches_float64(self):
        # Every output, input-gradient and weight-gradient entry is a sum of K
        # products: K = 49 taps for the first two, and for the weight gradient
        # at most one per position of the flat padded row layout, H'*Wp (the
        # junk columns add exact zeros). Summed in any order, a sum of K
        # rounded products is within gamma_K = K*u/(1-K*u) of the exact one,
        # relative to the sum of the products' magnitudes (u the unit
        # roundoff). The inputs are float32 values, so float64 sees them
        # exactly; its own gamma_K is added.
        rng = np.random.default_rng(13)
        x0, w0, c0 = (
            rng.normal(size=shape).astype(np.float32)
            for shape in ((1, 64, 32, 32), (64, 1, 7, 7), (1, 64, 32, 32))
        )

        def run(dtype, x_data, w_data, c_data):
            x = Tensor(x_data.astype(dtype), requires_grad=True)
            w = Tensor(w_data.astype(dtype), requires_grad=True)
            out = conv2d(x, w)
            tsum(mul(out, Tensor(c_data.astype(dtype)))).backward()
            return [a.astype(F64) for a in (out.data, x.grad, w.grad)]

        got = run(np.float32, x0, w0, c0)
        want = run(F64, x0, w0, c0)
        magnitude = run(F64, np.abs(x0), np.abs(w0), np.abs(c0))

        def gamma(k, dtype):
            u = np.finfo(dtype).eps / 2
            return k * u / (1 - k * u)

        for a, b, m, k in zip(got, want, magnitude, (49, 49, 32 * 38)):
            tol = (gamma(k, np.float32) + gamma(k, F64)) * m
            assert np.all(np.abs(a - b) <= tol)

    def test_deterministic(self):
        x = rand((2, 3, 8, 8), seed=8, dtype=np.float32)
        w = rand((4, 3, 3, 3), seed=9, dtype=np.float32)
        a = conv2d(x, w).data
        b = conv2d(x, w).data
        assert np.array_equal(a, b)


class TestGeluInputConv:
    """conv2d(x, ..., gelu_input=True) is conv2d(gelu(x), ...) as one node that keeps only x."""

    # dense 3x3, depthwise 7x7, 1x1 without bias
    @pytest.mark.parametrize(
        "k,groups,has_bias",
        [(3, 1, True), (7, 4, True), (1, 1, False)],
        ids=["dense3x3", "depthwise7x7", "1x1_no_bias"],
    )
    def test_gradcheck_input_weight_bias(self, k, groups, has_bias):
        rng = np.random.default_rng(17)
        cin = cout = 4
        x = Tensor(rng.normal(size=(2, cin, 6, 6)), dtype=F64)
        w = Tensor(rng.normal(size=(cout, cin // groups, k, k)), dtype=F64)
        b = Tensor(rng.normal(size=(cout,)), dtype=F64) if has_bias else None
        c = Tensor(rng.normal(size=(2, cout, 6, 6)), dtype=F64)

        def loss(x, w, b):
            return tsum(mul(conv2d(x, w, b, gelu_input=True), c))

        assert finite_difference_check(lambda t: loss(t, w, b), x) < 1e-6
        assert finite_difference_check(lambda t: loss(x, t, b), w) < 1e-6
        if has_bias:
            assert finite_difference_check(lambda t: loss(x, w, t), b) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "wshape,has_bias",
        [((3, 2, 1, 3), True), ((2, 1, 3, 3), True), ((3, 2, 1, 1), False)],
        ids=["dense1x3", "depthwise3x3", "1x1_no_bias"],
    )
    def test_matches_conv_of_gelu_bytewise(self, wshape, has_bias, dtype):
        # The grid's saturated and cube-overflow values overflow the products; both sides must agree anyway.
        rng = np.random.default_rng(18)
        x_data = np.stack([GELU_GRID, GELU_GRID[::-1]]).reshape(1, 2, 1, -1).astype(np.float32).astype(dtype)
        w_data = rng.normal(size=wshape).astype(dtype)
        b_data = rng.normal(size=wshape[:1]).astype(dtype)

        def run(fused):
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True) if has_bias else None
            with np.errstate(over="ignore", invalid="ignore"):
                if fused:
                    out = conv2d(x, w, b, gelu_input=True)
                else:
                    out = conv2d(gelu(x), w, b)
                cot = np.random.default_rng(19).uniform(0.5, 1.5, out.shape).astype(dtype)
                tsum(mul(out, Tensor(cot))).backward()
            return [out.data, x.grad, w.grad] + ([b.grad] if has_bias else [])

        for a, b in zip(run(True), run(False)):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    def test_keeps_only_its_output(self):
        # gelu(x) is rebuilt in backward from x, the producing op's output, so
        # the node adds only its own output to the graph and keeps x and w.
        rng = np.random.default_rng(20)
        x, w, b = (
            Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
            for shape in ((1, 64, 32, 32), (64, 1, 7, 7), (64,))
        )
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = conv2d(x, w, b, gelu_input=True)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._backward_fn is not None
        assert kept < 1.5 * out.data.nbytes
        assert _closure_array_ids(out) == sorted([id(x.data), id(w.data)])


class TestConvInputOf:
    """conv2d(x, ..., input_of=(x0, w0, b0)) keeps x0, w0 and b0 instead of x = conv2d(x0, w0, b0)
    and re-derives x in backward, with the bytes of the conv that keeps x."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("gelu_input", [True, False])
    @pytest.mark.parametrize(
        "w0shape,has_bias",
        [((6, 4, 3, 3), True), ((4, 1, 3, 3), True), ((6, 4, 1, 1), False)],
        ids=["dense3x3", "depthwise3x3", "1x1_no_bias"],
    )
    def test_matches_kept_input_bytewise(self, w0shape, has_bias, gelu_input, dtype):
        rng = np.random.default_rng(21)
        shapes = ((2, 4, 6, 6), w0shape, w0shape[:1], (3, w0shape[0], 1, 1), (3,))
        arrays = [rng.normal(size=shape).astype(dtype) for shape in shapes]

        def run(rederive):
            x0, w0, b0, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            b0 = b0 if has_bias else None
            x = conv2d(x0, w0, b0)
            out = conv2d(x, w, b, gelu_input, input_of=(x0, w0, b0) if rederive else None)
            if rederive:
                assert _closure_array_ids(out) == sorted(id(t.data) for t in (x0, w0, b0, w) if t is not None)
            cot = np.random.default_rng(22).uniform(0.5, 1.5, out.shape).astype(dtype)
            tsum(mul(out, Tensor(cot))).backward()
            return [out.data] + [t.grad for t in (x0, w0, b0, w, b) if t is not None]

        for a, b in zip(run(True), run(False)):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    def test_input_that_cannot_be_the_conv_is_rejected(self):
        x0, w0 = rand((1, 4, 6, 6)), rand((6, 4, 1, 1))
        with pytest.raises(ValueError, match="cannot be the conv of"):
            conv2d(rand((1, 6, 4, 6)), rand((2, 6, 1, 1)), input_of=(x0, w0, None))
        with pytest.raises(ValueError, match="one dtype"):
            conv2d(conv2d(x0, w0), rand((2, 6, 1, 1)), input_of=(x0, rand((6, 4, 1, 1), dtype=np.float32), None))


class TestPooling:
    def test_avg_window_oracle(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), dtype=F64)
        assert avg_pool2d(x).data[0, 0, 0, 0] == 2.5

    def test_max_window_oracle(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), dtype=F64)
        assert max_pool2d(x).data[0, 0, 0, 0] == 4.0

    def test_constant_passthrough(self):
        c = Tensor(np.full((1, 2, 4, 4), 0.7), dtype=F64)
        assert np.array_equal(avg_pool2d(c).data, np.full((1, 2, 2, 2), 0.7))
        assert np.array_equal(max_pool2d(c).data, np.full((1, 2, 2, 2), 0.7))

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            avg_pool2d(rand((1, 1, 5, 4)))

    def test_max_tie_break_first_in_row_major(self):
        x = Tensor(np.array([[[[2.0, 2.0], [2.0, 2.0]]]]), requires_grad=True, dtype=F64)
        tsum(max_pool2d(x)).backward()
        assert np.array_equal(x.grad[0, 0], np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_max_keeps_no_copy_of_its_input(self):
        # Backward routes by the argmax indices alone; the window-major copy
        # of x that the forward reads is freed when the forward returns.
        x = rand((1, 4, 8, 8), seed=9)
        x.requires_grad = True
        out = max_pool2d(x)
        cells = [cell.cell_contents for cell in out._backward_fn.__closure__]
        assert not any(isinstance(c, np.ndarray) and c.size >= x.size for c in cells)

    def test_gradchecks(self):
        x = rand((2, 3, 4, 6), seed=10)
        assert finite_difference_check(lambda t: tsum(avg_pool2d(t)), x) < 1e-6
        assert finite_difference_check(lambda t: tsum(max_pool2d(t)), x) < 1e-6
        assert finite_difference_check(lambda t: tsum(global_avg_pool(t)), x) < 1e-6

    def test_global_avg_pool_shape_and_value(self):
        x = rand((2, 3, 4, 4), seed=11)
        out = global_avg_pool(x)
        assert out.shape == (2, 3, 1, 1)
        assert np.allclose(out.data[0, 0, 0, 0], x.data[0, 0].mean())


class TestBilinearUpsample:
    def test_constant_exact(self):
        c = Tensor(np.full((1, 3, 2, 2), 0.1, dtype=np.float32))
        out = bilinear_upsample(c)
        assert np.array_equal(out.data, np.full((1, 3, 4, 4), np.float32(0.1)))

    def test_single_pixel_replicates(self):
        v = Tensor(np.array([[[[3.25]]]]), dtype=F64)
        out = bilinear_upsample(v)
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 3.25))

    def test_2x_against_sampling_formula(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = bilinear_upsample(Tensor(x[None, None], dtype=F64)).data[0, 0]

        def sample(oy, ox):
            sy = np.clip((oy + 0.5) * 0.5 - 0.5, 0, 1)
            sx = np.clip((ox + 0.5) * 0.5 - 0.5, 0, 1)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, 1), min(x0 + 1, 1)
            wy, wx = sy - y0, sx - x0
            return (
                x[y0, x0] * (1 - wy) * (1 - wx)
                + x[y0, x1] * (1 - wy) * wx
                + x[y1, x0] * wy * (1 - wx)
                + x[y1, x1] * wy * wx
            )

        for oy in range(4):
            for ox in range(4):
                assert out[oy, ox] == pytest.approx(sample(oy, ox), abs=1e-12)

    def test_pool_then_upsample_constant_identity(self):
        c = Tensor(np.full((1, 2, 6, 6), 1.0 / 3.0, dtype=np.float32))
        back = bilinear_upsample(avg_pool2d(c))
        assert np.array_equal(back.data, c.data)

    def test_gradcheck(self):
        x = rand((1, 2, 3, 4), seed=12)
        assert finite_difference_check(lambda t: tsum(bilinear_upsample(t)), x) < 1e-6


def interp_matrix_scatter(n_out, n_in, dtype):
    """Oracle: the upsampling matrix built by scattering each row's two weights."""
    mat = np.zeros((n_out, n_in), dtype=dtype)
    lo, hi, frac = _interp_axis(n_out, n_in)
    rows = np.arange(n_out)
    np.add.at(mat, (rows, lo), (1.0 - frac).astype(dtype))
    np.add.at(mat, (rows, hi), frac.astype(dtype))
    return mat


class TestLerp:
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_identity_lerp_is_scattered_interp_matrix(self, dtype):
        # The upsampling backward's matrices: 2x fractions 0, 1/4 and 3/4 are exact, so 1 - w is too.
        for n in range(1, 65):
            mat = _lerp(np.eye(n, dtype=dtype), -2, *_interp_axis(2 * n, n))
            oracle = interp_matrix_scatter(2 * n, n, dtype)
            assert mat.dtype == oracle.dtype and mat.tobytes() == oracle.tobytes(), n

    def test_columns_then_rows_is_constant_flow_warp(self):
        # The bracket renderer's shift must keep the bytes of warp_by_flow with the flow (-dx, -dy).
        rng = np.random.default_rng(25)
        for case in range(240):
            h, w = (int(v) for v in rng.integers(1, 7 if case % 8 == 0 else 81, 2))
            a = rng.uniform(0.0, 16.0, (4, h, w))
            dx, dy = rng.uniform(-6.0, 6.0, 2)
            if case % 4 == 1:
                dx, dy = (float(v) for v in rng.integers(-6, 7, 2))
            elif case % 4 == 2:
                dx, dy = (0.0, dy) if case % 8 == 2 else (dx, 0.0)
            elif case % 40 == 3:
                dx = dy = 0.0
            cols = _lerp(a, -1, *_neighbours(np.arange(w, dtype=F64) - dx, w))
            shifted = _lerp(cols, -2, *_neighbours(np.arange(h, dtype=F64) - dy, h))
            flow = np.empty((2, h, w))
            flow[0], flow[1] = -dx, -dy
            oracle = warp_by_flow(Tensor(a[None]), flow).data[0]
            assert shifted.tobytes() == oracle.tobytes(), (case, h, w, dx, dy)


class TestElementwise:
    def test_gelu_zero_fixed_point(self):
        assert gelu(Tensor(np.zeros(4), dtype=F64)).data.tolist() == [0.0] * 4

    def test_gelu_reference_value(self):
        # 0.5 * 1 * (1 + tanh(sqrt(2/pi) * (1 + 0.044715))), high-precision
        out = gelu(Tensor(np.array([1.0]), dtype=F64)).data[0]
        assert out == pytest.approx(0.8411919906082767, abs=1e-14)

    def test_gelu_float32_matches_float64(self):
        # Each float32 result is a few roundings of O(1) factors away from the
        # float64 one: the output is 0.5*x*(1+t), so its error scales with |x|,
        # and the local derivative is O(1). 16 eps leaves margin over both.
        tol = 16 * np.finfo(np.float32).eps
        grid = GELU_GRID
        cot = np.random.default_rng(12).uniform(0.5, 1.5, grid.size)
        results = {}
        for dtype in (np.float32, np.float64):
            x = Tensor(grid.astype(np.float32).astype(dtype), requires_grad=True)
            out = gelu(x)  # the cube's overflow warns nowhere: RuntimeWarnings fail the suite
            tsum(mul(out, Tensor(cot.astype(dtype)))).backward()
            results[dtype] = (out.data.astype(np.float64), x.grad.astype(np.float64))
        (y32, g32), (y64, g64) = results[np.float32], results[np.float64]
        assert np.all(np.isfinite(y32)) and np.all(np.isfinite(g32))
        x64 = grid.astype(np.float32).astype(np.float64)
        assert np.all(np.abs(y32 - y64) <= tol * np.abs(x64))
        assert np.all(np.abs(g32 - g64) <= tol * cot)

    def test_gelu_keeps_only_its_input(self):
        # Backward recomputes the tanh from x, which the producing op's
        # output already holds: gelu adds only its own output to the graph
        # and its closure keeps x alone.
        x = Tensor(np.random.default_rng(14).normal(size=(1, 64, 32, 32)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = gelu(x)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._backward_fn is not None
        assert kept < 1.5 * x.data.nbytes
        assert _closure_array_ids(out) == [id(x.data)]

    def test_softmax_uniform(self):
        out = softmax(Tensor(np.full((5,), 3.7), dtype=F64), axis=-1)
        assert np.allclose(out.data, 0.2)

    def test_softmax_rows_sum_to_one(self):
        x = rand((3, 4, 6), seed=13)
        out = softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_concat_shape(self):
        a = rand((1, 2, 4, 4), seed=14)
        b = rand((1, 3, 4, 4), seed=15)
        assert concat([a, b], axis=1).shape == (1, 5, 4, 4)

    def test_concat_mismatch_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            concat([rand((1, 2, 4, 4)), rand((1, 2, 5, 4))], axis=1)

    def test_broadcast_mul_and_unbroadcast_grad(self):
        x = Tensor(np.random.default_rng(16).normal(size=(2, 3, 4, 4)), requires_grad=True, dtype=F64)
        g = Tensor(np.random.default_rng(17).normal(size=(2, 3, 1, 1)), requires_grad=True, dtype=F64)
        tsum(mul(x, g)).backward()
        assert g.grad.shape == (2, 3, 1, 1)
        assert np.allclose(g.grad, x.data.sum(axis=(2, 3), keepdims=True))

    def test_broadcast_incompatible_rejected(self):
        with pytest.raises(ValueError, match="broadcast"):
            add(rand((2, 3)), rand((4, 5)))

    def test_mixed_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            add(rand((2, 2), dtype=np.float32), rand((2, 2), dtype=F64))

    @pytest.mark.parametrize("op,name,ufunc", [(add, "add", np.add), (sub, "sub", np.subtract), (mul, "mul", np.multiply)])
    def test_binary_op_operand_handling(self, op, name, ufunc):
        with pytest.raises(ValueError, match=rf"^{name}: shapes \(2, 3\) and \(4, 5\) do not broadcast$"):
            op(rand((2, 3)), rand((4, 5)))
        with pytest.raises(ValueError, match="share one dtype"):
            op(rand((2, 2), dtype=np.float32), rand((2, 2), dtype=F64))
        # A scalar operand on either side takes the tensor's dtype.
        x = rand((2, 2), seed=19, dtype=np.float32)
        assert op(x, 2.5).data.tobytes() == ufunc(x.data, np.float32(2.5)).tobytes()
        assert op(2.5, x).data.tobytes() == ufunc(np.float32(2.5), x.data).tobytes()

    def test_clamp_min(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True, dtype=F64)
        out = clamp_min(x, 0.0)
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])
        tsum(out).backward()
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "fn",
        [
            lambda t: tsum(gelu(t)),
            lambda t: tsum(sigmoid(t)),
            lambda t: tsum(mul(softmax(t, -1), softmax(t, -1))),
            lambda t: tsum(tabs(t)),
            lambda t: tmean(mul(t, t)),
        ],
        ids=["gelu", "sigmoid", "softmax_sq", "abs", "mean_sq"],
    )
    def test_elementwise_gradchecks(self, fn):
        x = rand((2, 3, 4), seed=18)
        assert finite_difference_check(fn, x) < 1e-6


class TestMatmul:
    def test_batched_shapes(self):
        a = rand((2, 3, 4, 5), seed=20)
        b = rand((2, 3, 5, 6), seed=21)
        assert matmul(a, b).shape == (2, 3, 4, 6)

    def test_inner_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inner"):
            matmul(rand((2, 3)), rand((4, 5)))

    def test_gradcheck_both_sides(self):
        a = rand((2, 3, 4), seed=22)
        b = rand((2, 4, 5), seed=23)
        assert finite_difference_check(lambda t: tsum(matmul(t, b)), a) < 1e-6
        assert finite_difference_check(lambda t: tsum(matmul(a, t)), b) < 1e-6


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(np.array(3.0), requires_grad=True, dtype=F64)
        mul(x, x).backward()
        assert x.grad == 6.0

    def test_fanout_doubles_gradient(self):
        x1 = Tensor(np.array([2.0]), requires_grad=True, dtype=F64)
        tsum(add(mul(x1, 3.0), mul(x1, 3.0))).backward()
        once = Tensor(np.array([2.0]), requires_grad=True, dtype=F64)
        tsum(mul(once, 3.0)).backward()
        assert np.array_equal(x1.grad, 2.0 * once.grad)

    def test_handed_over_gradient_is_not_written_in_place(self):
        # Both adds hand the same array to a and b; adding a's second
        # gradient into it in place would also double b's.
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True, dtype=F64)
        b = Tensor(np.array([0.5, 3.0]), requires_grad=True, dtype=F64)
        w = Tensor(np.array([2.0, 5.0]), dtype=F64)
        tsum(mul(add(add(a, b), a), w)).backward()
        assert np.array_equal(a.grad, 2.0 * w.data)
        assert np.array_equal(b.grad, w.data)

    def test_detached_tensor_gets_no_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=False)
        y = tsum(mul(x, x))
        y.backward()
        assert x.grad is None

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            mul(x, x).backward()

    def test_deep_chain_survives(self):
        x = Tensor(np.array([1.0]), requires_grad=True, dtype=F64)
        y = x
        for _ in range(3000):
            y = add(y, 1.0)
        tsum(y).backward()
        assert x.grad[0] == 1.0

    def test_grad_shape_matches_data(self):
        x = Tensor(np.random.default_rng(24).normal(size=(2, 3, 4, 4)), requires_grad=True, dtype=F64)
        tsum(conv2d(x, rand((2, 3, 3, 3), seed=25))).backward()
        assert x.grad.shape == x.data.shape

    def test_backward_frees_intermediate_nodes(self):
        x = Tensor(np.array([-1.5, 0.25, 2.0]), requires_grad=True, dtype=F64)
        square = mul(x, x)
        square_ref = weakref.ref(square)
        root = tsum(gelu(square))
        del square
        root.backward()
        assert square_ref() is None
        assert root.node._parents == ()
        # d/dx gelu(x*x) = gelu'(x*x) * 2x, with the tanh-form gelu'
        u = x.data * x.data
        t = np.tanh(0.7978845608028654 * (u + 0.044715 * u**3))
        slope = 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * 0.7978845608028654 * (1.0 + 3 * 0.044715 * u * u)
        assert np.allclose(x.grad, slope * 2.0 * x.data, rtol=1e-12, atol=0.0)

    def test_output_no_backward_reads_is_freed_in_the_forward(self):
        # add's backward reads only g, so mul's output dies with its Tensor
        # while the graph that produced it stays usable.
        x = Tensor(np.array([-1.5, 0.25, 2.0]), requires_grad=True, dtype=F64)
        square = mul(x, x)
        square_ref = weakref.ref(square.data)
        out = add(square, x)
        del square
        assert square_ref() is None
        tsum(out).backward()
        assert np.array_equal(x.grad, 2.0 * x.data + 1.0)

    def test_second_backward_through_released_graph_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=F64)
        root = tsum(gelu(mul(x, x)))
        root.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            root.backward()
        assert np.array_equal(x.grad, first)

    def test_scalar_leaf_backward_repeats(self):
        x = Tensor(np.array(2.0), requires_grad=True, dtype=F64)
        x.backward()
        x.backward()
        assert x.grad == 2.0


class TestFiniteDifferenceHarness:
    def test_linear_function_is_exact(self):
        x = rand((3, 3), seed=26)
        assert finite_difference_check(tsum, x) <= 1e-10

    def test_gelu_sum(self):
        x = rand((2, 4), seed=27)
        assert finite_difference_check(lambda t: tsum(gelu(t)), x) <= 1e-6

    def test_l1_away_from_zero(self):
        target = Tensor(np.full((3, 3), 5.0), dtype=F64)
        x = Tensor(np.random.default_rng(28).uniform(1.0, 2.0, (3, 3)), dtype=F64)
        assert finite_difference_check(lambda t: tmean(tabs(sub(t, target))), x) <= 1e-6


# -- bitwise parity with the stored-tanh gelu and the out-of-place softmax --

_GELU_C = 0.7978845608028654
_GELU_A = 0.044715


def gelu_stored_tanh(x: Tensor) -> Tensor:
    """gelu as written when backward kept its tanh: the bitwise reference."""
    u = _GELU_C * (x.data + _GELU_A * (x.data * x.data * x.data))
    t = np.tanh(u)
    data = 0.5 * x.data * (1.0 + t)

    def backward(g):
        square = np.minimum(np.abs(x.data), 1e3)
        square *= square
        local = 0.5 * x.data * (1.0 - t * t) * (_GELU_C * (1.0 + 3.0 * _GELU_A * square))
        local += 0.5 * (1.0 + t)
        local *= g
        x.node._accumulate(local)

    return _node(data, (x,), backward)


def softmax_out_of_place(x: Tensor, axis: int = -1) -> Tensor:
    """softmax with a new array per step: the bitwise reference."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        x.node._accumulate(s * (g - dot))

    return _node(s, (x,), backward)


def _value_and_grad(op, data, cot, **kwargs):
    x = Tensor(data, requires_grad=True)
    with np.errstate(over="ignore"):  # the grid's outputs times cot overflow in the loss
        out = op(x, **kwargs)
        tsum(mul(out, Tensor(cot))).backward()
    return out.data, x.grad


class TestInPlaceParity:
    """gelu, softmax, the GELU-input conv and the FFN's re-derived hidden
    layer must give the reference's bytes: the in-place rewrite and the
    recomputes keep every operation and its order, so not one rounding may
    move."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "op, reference, kwargs",
        [
            (gelu, gelu_stored_tanh, {}),
            (softmax, softmax_out_of_place, {"axis": -1}),
            (softmax, softmax_out_of_place, {"axis": 1}),
        ],
        ids=["gelu", "softmax_last", "softmax_axis1"],
    )
    def test_matches_reference(self, op, reference, kwargs, dtype):
        rng = np.random.default_rng(15)
        inputs = [
            GELU_GRID.reshape(1, 1, -1),
            rng.normal(size=(2, 8, 32)),
            rng.normal(scale=30.0, size=(2, 8, 32)),
        ]
        for data in inputs:
            data = data.astype(np.float32).astype(dtype)
            cot = rng.uniform(0.5, 1.5, data.shape).astype(dtype)
            got = _value_and_grad(op, data, cot, **kwargs)
            want = _value_and_grad(reference, data, cot, **kwargs)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ablation_variants_match_reference(self, monkeypatch, dtype):
        from crnet import blocks, model
        from crnet.metrics import l1_tonemapped_loss
        from crnet.runconfig import resolve
        from crnet.synth import DegradeSpec, SceneSpec, generate_sample

        samples = [generate_sample(SceneSpec(seed=40 + i, size=(32, 32)), DegradeSpec()) for i in range(2)]
        target = Tensor(np.stack([s.ground_truth for s in samples]).astype(dtype))
        calls = []

        def run(name):
            cfg, params = model.build_ablation_variant(name, resolve(preset="desk").model, seed=0)
            params = {k: Tensor(p.data.astype(dtype), requires_grad=True) for k, p in params.items()}
            prediction = model.forward_batch([s.stack for s in samples], params, cfg)
            l1_tonemapped_loss(prediction, target).backward()
            return [prediction.data] + [params[k].grad for k in sorted(params)]

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        def conv2d_of_stored_gelu(x, weight, bias=None, gelu_input=False, input_of=None):
            # input_of is ignored: the reference keeps x, so the FFN's re-derived
            # hidden layer is compared with the stored one.
            if gelu_input:
                calls.append("conv2d_of_stored_gelu")
                x = gelu_stored_tanh(x)
            return conv2d(x, weight, bias)

        for name in model.ABLATION_VARIANTS:
            got = run(name)
            with monkeypatch.context() as patch:
                for module in (blocks, model):
                    patch.setattr(module, "gelu", counted(gelu_stored_tanh))
                patch.setattr(blocks, "softmax", counted(softmax_out_of_place))
                patch.setattr(blocks, "conv2d", conv2d_of_stored_gelu)
                want = run(name)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype, name
                assert a.tobytes() == b.tobytes(), name
        assert {"gelu_stored_tanh", "softmax_out_of_place", "conv2d_of_stored_gelu"} <= set(calls)
