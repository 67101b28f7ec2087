"""Block-level tests: oracles by primitive composition, residual wiring,
parameter parity, and gradient checks at toy sizes."""

import math
import tracemalloc

import numpy as np
import pytest

from crnet import blocks
from crnet.blocks import (
    attention_spec,
    ceb_spec,
    channel_attention,
    channel_attention_spec,
    conv_enhancement_block,
    conv_ffn,
    conv_ffn_spec,
    count_spec,
    freq_fuse,
    freq_fuse_spec,
    frequency_separate,
    materialize,
    multi_branch_block,
    multi_branch_spec,
    scoped,
    window_self_attention,
)
from crnet.tensor import (
    Tensor,
    avg_pool2d,
    bilinear_upsample,
    concat,
    conv2d,
    gelu,
    global_avg_pool,
    sigmoid,
    tmean,
    tsum,
)
from tests.gradcheck import finite_difference_check

F64 = np.float64


def rand(shape, seed=0, dtype=F64):
    return Tensor(np.random.default_rng(seed).normal(size=shape), dtype=dtype)


def make_params(spec, seed=0, dtype=F64):
    return materialize(spec, np.random.default_rng(seed), dtype)


def zero_params(spec, dtype=F64):
    return {k: Tensor(np.zeros(shape, dtype=dtype), requires_grad=True) for k, shape in spec.items()}


class TestFrequencySeparate:
    def test_constant_is_pure_low(self):
        c = Tensor(np.full((1, 2, 4, 4), 3.5), dtype=F64)
        low, high = frequency_separate(c, "avg")
        assert np.array_equal(low.data, np.full((1, 2, 2, 2), 3.5))
        assert np.array_equal(high.data, np.zeros((1, 2, 4, 4)))

    @pytest.mark.parametrize("pool_kind", ["avg", "max"])
    def test_reconstruction_identity(self, pool_kind):
        x = rand((2, 3, 8, 8), seed=1)
        low, high = frequency_separate(x, pool_kind)
        recon = high + bilinear_upsample(low)
        assert np.abs(recon.data - x.data).max() <= 1e-6

    def test_impulse_matches_primitive_composition(self):
        x = np.zeros((1, 1, 8, 8))
        x[0, 0, 3, 4] = 1.0
        xt = Tensor(x, dtype=F64)
        low, high = frequency_separate(xt, "avg")
        want_low = avg_pool2d(xt)
        want_high = xt.data - bilinear_upsample(want_low).data
        assert np.array_equal(low.data, want_low.data)
        assert np.array_equal(high.data, want_high)

    def test_odd_extents_rejected(self):
        with pytest.raises(ValueError, match="even"):
            frequency_separate(rand((1, 1, 5, 4)), "avg")

    def test_reconstruction_over_50_random_tensors(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            x = Tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float32))
            low, high = frequency_separate(x, "avg")
            recon = high + bilinear_upsample(low)
            assert np.abs(recon.data - x.data).max() <= 1e-6, f"trial {trial}"


class TestWindowAttention:
    def test_zero_everything_gives_zero(self):
        spec = attention_spec(4)
        out = window_self_attention(
            Tensor(np.zeros((1, 4, 4, 4)), dtype=F64), zero_params(spec), heads=2, window=2
        )
        assert np.array_equal(out.data, np.zeros((1, 4, 4, 4)))

    def test_zero_projections_identity_residual(self):
        spec = attention_spec(4)
        x = rand((1, 4, 8, 8), seed=3)
        out = window_self_attention(x, zero_params(spec), heads=2, window=4)
        assert np.array_equal(out.data, x.data)

    def test_identical_tokens_average_uniformly(self):
        # Every pixel in a window identical: the attention-weighted value
        # equals the plain token average no matter what the scores are.
        spec = attention_spec(2)
        params = make_params(spec, seed=4)
        base = np.array([1.5, -0.25])
        x = Tensor(np.tile(base[None, :, None, None], (1, 1, 4, 4)), dtype=F64)
        out = window_self_attention(x, params, heads=1, window=2)
        wv = params["v.weight"].data[:, :, 0, 0]
        bv = params["v.bias"].data
        wp = params["proj.weight"].data[:, :, 0, 0]
        bp = params["proj.bias"].data
        token = wp @ (wv @ base + bv) + bp + base
        assert np.allclose(out.data[0, :, 0, 0], token)
        assert np.allclose(out.data, np.tile(token[None, :, None, None], (1, 1, 4, 4)))

    def test_against_scalar_oracle_2x2_window_one_head(self):
        c, h, w, window = 3, 2, 2, 2
        spec = attention_spec(c)
        params = make_params(spec, seed=5)
        x = rand((1, c, h, w), seed=6)
        out = window_self_attention(x, params, heads=1, window=window)

        def project(name, tokens):
            wmat = params[f"{name}.weight"].data[:, :, 0, 0]
            bias = params[f"{name}.bias"].data
            return tokens @ wmat.T + bias

        tokens = x.data[0].reshape(c, h * w).T  # [T, C], row-major pixels
        q, k, v = project("q", tokens), project("k", tokens), project("v", tokens)
        scores = q @ k.T / math.sqrt(c)
        scores = scores - scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        gathered = weights @ v
        want = project("proj", gathered) + tokens
        assert np.allclose(out.data[0].reshape(c, h * w).T, want, atol=1e-10)

    def test_rows_sum_to_one_property(self):
        # Scores are arbitrary; verify via the internal softmax op on the
        # same score layout the block builds.
        from crnet.tensor import softmax

        x = rand((2, 4, 9, 5), seed=7)
        s = softmax(x, axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_divisibility_rejected(self):
        spec = attention_spec(4)
        params = make_params(spec, seed=8)
        with pytest.raises(ValueError, match="window"):
            window_self_attention(rand((1, 4, 6, 6)), params, heads=2, window=4)
        with pytest.raises(ValueError, match="heads"):
            window_self_attention(rand((1, 4, 4, 4)), params, heads=3, window=2)

    def test_gradcheck(self):
        spec = attention_spec(4)
        params = make_params(spec, seed=9)
        x = rand((1, 4, 4, 4), seed=10)
        err = finite_difference_check(
            lambda t: tsum(window_self_attention(t, params, heads=2, window=2)), x
        )
        assert err < 1e-3
        err_w = finite_difference_check(
            lambda t: tsum(
                window_self_attention(x, {**params, "q.weight": t}, heads=2, window=2)
            ),
            params["q.weight"],
        )
        assert err_w < 1e-3


class TestMultiBranchBlock:
    def test_zero_weights_identity(self):
        spec = multi_branch_spec(3, (3, 1))
        x = rand((1, 3, 6, 6), seed=11)
        out = multi_branch_block(x, zero_params(spec), (3, 1))
        assert np.array_equal(out.data, x.data)

    def test_split_4_0_is_branch_plus_single_residual(self):
        spec = multi_branch_spec(2, (4, 0))
        params = make_params(spec, seed=12)
        x = rand((1, 2, 4, 4), seed=13)
        out = multi_branch_block(x, params, (4, 0))
        h = x
        for j in range(4):
            h = gelu(conv2d(h, params[f"branchA.conv{j}.weight"], params[f"branchA.conv{j}.bias"]))
        assert np.array_equal(out.data, (h + x).data)

    def test_3_1_matches_primitive_composition(self):
        spec = multi_branch_spec(2, (3, 1))
        params = make_params(spec, seed=14)
        x = rand((1, 2, 4, 4), seed=15)
        out = multi_branch_block(x, params, (3, 1))
        a = x
        for j in range(3):
            a = gelu(conv2d(a, params[f"branchA.conv{j}.weight"], params[f"branchA.conv{j}.bias"]))
        b = gelu(conv2d(x, params["branchB.conv0.weight"], params["branchB.conv0.bias"]))
        assert np.array_equal(out.data, (a + b + x).data)

    def test_delta_kernel_composition(self):
        # Center-delta kernels make each conv an identity map; the chain is
        # then pure GELU iteration, still checked by explicit composition.
        c = 2
        spec = multi_branch_spec(c, (3, 1))
        params = zero_params(spec)
        for key in spec:
            if key.endswith("weight"):
                w = np.zeros(spec[key])
                for ch in range(c):
                    w[ch, ch, 1, 1] = 1.0
                params[key] = Tensor(w, requires_grad=True)
        x = rand((1, c, 4, 4), seed=16)
        out = multi_branch_block(x, params, (3, 1))
        want = gelu(gelu(gelu(x))) .data + gelu(x).data + x.data
        assert np.allclose(out.data, want, atol=1e-12)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            multi_branch_spec(2, (3, 2))

    def test_param_count_parity_across_splits(self):
        counts = {split: count_spec(multi_branch_spec(8, split)) for split in [(3, 1), (2, 2), (4, 0)]}
        assert len(set(counts.values())) == 1

    def test_gradcheck(self):
        spec = multi_branch_spec(4, (3, 1))
        params = make_params(spec, seed=17)
        x = rand((1, 4, 8, 8), seed=18)
        assert finite_difference_check(lambda t: tsum(multi_branch_block(t, params, (3, 1))), x) < 1e-3


class TestChannelAttention:
    def test_zero_weights_halve_input(self):
        spec = channel_attention_spec(4, 2)
        x = rand((1, 4, 4, 4), seed=19)
        out = channel_attention(x, zero_params(spec))
        assert np.allclose(out.data, x.data / 2.0)

    def test_large_bias_saturates_to_identity(self):
        spec = channel_attention_spec(4, 2)
        params = zero_params(spec)
        params["fc2.bias"] = Tensor(np.full((4,), 50.0), requires_grad=True)
        x = rand((1, 4, 4, 4), seed=20)
        out = channel_attention(x, params)
        assert np.allclose(out.data, x.data, atol=1e-9)

    def test_matches_primitive_composition(self):
        spec = channel_attention_spec(4, 2)
        params = make_params(spec, seed=21)
        x = rand((2, 4, 4, 4), seed=22)
        out = channel_attention(x, params)
        gate = sigmoid(
            conv2d(
                gelu(conv2d(global_avg_pool(x), params["fc1.weight"], params["fc1.bias"])),
                params["fc2.weight"],
                params["fc2.bias"],
            )
        )
        assert np.array_equal(out.data, x.data * gate.data)

    def test_reduction_divisibility(self):
        with pytest.raises(ValueError, match="reduction"):
            channel_attention_spec(6, 4)

    def test_gradcheck(self):
        spec = channel_attention_spec(4, 2)
        params = make_params(spec, seed=23)
        x = rand((1, 4, 8, 8), seed=24)
        assert finite_difference_check(lambda t: tsum(channel_attention(t, params)), x) < 1e-3


class TestFreqFuse:
    def test_zero_inputs_and_biases_give_zero(self):
        spec = freq_fuse_spec(4, 2)
        out = freq_fuse(
            Tensor(np.zeros((1, 4, 8, 8)), dtype=F64),
            Tensor(np.zeros((1, 4, 4, 4)), dtype=F64),
            make_params(spec, seed=25),
        )
        assert np.allclose(out.data, 0.0)

    def test_output_shape_matches_high(self):
        spec = freq_fuse_spec(4, 2)
        params = make_params(spec, seed=26)
        out = freq_fuse(rand((2, 4, 8, 6), seed=27), rand((2, 4, 4, 3), seed=28), params)
        assert out.shape == (2, 4, 8, 6)

    def test_extent_mismatch_rejected(self):
        spec = freq_fuse_spec(4, 2)
        params = make_params(spec, seed=29)
        with pytest.raises(ValueError, match="half"):
            freq_fuse(rand((1, 4, 8, 8)), rand((1, 4, 3, 4)), params)

    def test_matches_primitive_composition(self):
        spec = freq_fuse_spec(4, 2)
        params = make_params(spec, seed=30)
        high = rand((1, 4, 8, 8), seed=31)
        low = rand((1, 4, 4, 4), seed=32)
        out = freq_fuse(high, low, params)
        merged = concat([bilinear_upsample(low), high], axis=1)
        y = conv2d(merged, params["conv3.weight"], params["conv3.bias"])
        y = channel_attention(y, scoped(params, "ca."))
        y = conv2d(y, params["conv1.weight"], params["conv1.bias"])
        assert np.array_equal(out.data, y.data)

    def test_gradcheck(self):
        spec = freq_fuse_spec(4, 2)
        params = make_params(spec, seed=33)
        low = rand((1, 4, 4, 4), seed=34)
        x = rand((1, 4, 8, 8), seed=35)
        assert finite_difference_check(lambda t: tsum(freq_fuse(t, low, params)), x) < 1e-3
        assert finite_difference_check(lambda t: tsum(freq_fuse(x, t, params)), low) < 1e-3


class TestConvFFN:
    def test_zero_weights_identity(self):
        spec = conv_ffn_spec(4, "inverted", 4)
        x = rand((1, 4, 4, 4), seed=36)
        out = conv_ffn(x, zero_params(spec))
        assert np.array_equal(out.data, x.data)

    def test_expansion_one_matches_flat_param_count(self):
        assert count_spec(conv_ffn_spec(8, "inverted", 1)) == count_spec(conv_ffn_spec(8, "flat", 4))

    @pytest.mark.parametrize("mode,expansion", [("inverted", 4), ("normal_bottleneck", 2), ("flat", 4)])
    def test_matches_primitive_composition(self, mode, expansion):
        spec = conv_ffn_spec(4, mode, expansion)
        params = make_params(spec, seed=37)
        x = rand((1, 4, 4, 4), seed=38)
        out = conv_ffn(x, params)
        y = conv2d(gelu(conv2d(x, params["fc1.weight"], params["fc1.bias"])), params["fc2.weight"], params["fc2.bias"])
        assert np.array_equal(out.data, (y + x).data)

    def test_gradcheck(self):
        spec = conv_ffn_spec(4, "inverted", 2)
        params = make_params(spec, seed=39)
        x = rand((1, 4, 8, 8), seed=40)
        assert finite_difference_check(lambda t: tsum(conv_ffn(t, params)), x) < 1e-3


class TestConvEnhancementBlock:
    def test_zero_weights_identity(self):
        spec = ceb_spec(4, "dw7", "inverted", 4)
        x = rand((1, 4, 8, 8), seed=41)
        out = conv_enhancement_block(x, zero_params(spec), "dw7")
        assert np.array_equal(out.data, x.data)

    @pytest.mark.parametrize("kernel_mode", ["dw7", "three_dw3", "dw5_dw3"])
    def test_output_shape_all_modes(self, kernel_mode):
        spec = ceb_spec(4, kernel_mode, "inverted", 4)
        params = make_params(spec, seed=42)
        x = rand((2, 4, 8, 8), seed=43)
        out = conv_enhancement_block(x, params, kernel_mode)
        assert out.shape == x.shape

    def test_unknown_kernel_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel mode 'dw9'"):
            ceb_spec(4, "dw9", "inverted", 4)

    def test_dw7_matches_primitive_composition(self):
        spec = ceb_spec(4, "dw7", "inverted", 2)
        params = make_params(spec, seed=44)
        x = rand((1, 4, 8, 8), seed=45)
        out = conv_enhancement_block(x, params, "dw7")
        h = gelu(conv2d(x, params["pw_in.weight"], params["pw_in.bias"]))
        h = gelu(conv2d(h, params["dw0.weight"], params["dw0.bias"]))
        h = gelu(conv2d(h, params["pw_out.weight"], params["pw_out.bias"]))
        h = conv_ffn(h, scoped(params, "ffn."))
        assert np.array_equal(out.data, (h + x).data)

    def test_forward_keeps_at_most_10x_its_input(self):
        # Closures keep the arrays their backward reads: the outputs of pw_in,
        # dw0, pw_out, its GELU and fc1 (8x the input at expansion 4, where
        # fc1's output is 4x), plus the block's output: 9x. fc2's output and
        # the FFN's residual sum feed only adds, so they are freed during the
        # forward; keeping them would add 2x. Storing the GELU outputs that
        # feed dw0, pw_out and fc2 would add 6x more.
        x = Tensor(np.random.default_rng(48).normal(size=(1, 64, 32, 32)).astype(np.float32), requires_grad=True)
        params = make_params(ceb_spec(64, "dw7", "inverted", 4), seed=49, dtype=np.float32)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = conv_enhancement_block(x, params, "dw7")
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._backward_fn is not None
        assert kept <= 10 * x.data.nbytes

    def test_gradcheck(self):
        spec = ceb_spec(4, "dw7", "inverted", 2)
        params = make_params(spec, seed=46)
        x = rand((1, 4, 8, 8), seed=47)
        assert finite_difference_check(
            lambda t: tsum(conv_enhancement_block(t, params, "dw7")), x
        ) < 1e-3


class TestBlockParamGradients:
    """Composite gradients through every block's parameters."""

    @pytest.mark.parametrize(
        "name",
        ["attention", "mbb", "channel_attention", "freq_fuse", "conv_ffn", "ceb"],
    )
    def test_param_gradchecks(self, name):
        x = rand((1, 4, 8, 8), seed=48)
        low = rand((1, 4, 4, 4), seed=49)
        builders = {
            "attention": (attention_spec(4), lambda p: window_self_attention(x, p, 2, 4)),
            "mbb": (multi_branch_spec(4, (2, 2)), lambda p: multi_branch_block(x, p, (2, 2))),
            "channel_attention": (channel_attention_spec(4, 2), lambda p: channel_attention(x, p)),
            "freq_fuse": (freq_fuse_spec(4, 2), lambda p: freq_fuse(x, low, p)),
            "conv_ffn": (conv_ffn_spec(4, "inverted", 2), lambda p: conv_ffn(x, p)),
            "ceb": (ceb_spec(4, "dw7", "inverted", 2), lambda p: conv_enhancement_block(x, p, "dw7")),
        }
        spec, apply = builders[name]
        params = make_params(spec, seed=50)
        for key in spec:
            # Mean reduction keeps the probe's magnitude O(1); structurally
            # zero gradients (e.g. the key bias, which softmax ignores)
            # would otherwise drown in finite-difference noise.
            err = finite_difference_check(
                lambda t, key=key: tmean(apply({**params, key: t})), params[key]
            )
            assert err < 1e-3, f"{name}.{key}: {err}"
