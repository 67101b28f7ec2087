"""Model-level tests: preprocessing, warping, flow estimation, the full
forward contract, ablation construction, and parameter accounting."""

import numpy as np
import pytest

from crnet import model as model_mod
from crnet.metrics import l1_tonemapped_loss
from crnet.model import (
    ABLATION_VARIANTS,
    CRNetConfig,
    ExposureStack,
    RAW_CHANNELS,
    build_ablation_variant,
    build_params,
    count_params,
    estimate_flow,
    forward,
    forward_batch,
    param_spec,
    preprocess,
    validate_params,
    warp_by_flow,
)
from crnet.tensor import Tensor, conv2d, tsum

GAMMA = 1.0 / 2.2


def tiny_config(**extra):
    base = dict(base_channels=8, n_ceb=1, n_hfem=1, attn_window=8, attn_heads=2)
    base.update(extra)
    return CRNetConfig(**base)


def make_frames(seed=0, size=32):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0, 1, (RAW_CHANNELS, size, size)).astype(np.float32) for _ in range(5)]


def make_stack(seed=0, size=32, times=(1.0, 4.0, 16.0, 64.0, 256.0), frames=None):
    frames = make_frames(seed, size) if frames is None else frames
    return ExposureStack(frames=frames, exposure_times=np.asarray(times, dtype=np.float64))


class TestPreprocess:
    def test_reference_frame_passthrough(self):
        stack = make_stack(seed=1)
        pre = preprocess(stack, GAMMA)
        assert np.array_equal(pre[0][:RAW_CHANNELS], stack.frames[0])

    def test_zero_maps_to_zero(self):
        frames = make_frames(seed=2)
        frames[2] = np.zeros_like(frames[2])
        pre = preprocess(make_stack(frames=frames), GAMMA)
        assert np.array_equal(pre[2], np.zeros_like(pre[2]))

    def test_frozen_scalar_oracle(self):
        # 0.25 at exposure ratio 4 -> 0.0625; 0.0625^(1/2.2) evaluated to
        # 40 digits ahead of time.
        frames = make_frames(seed=3)
        frames[1] = np.full_like(frames[1], 0.25)
        pre = preprocess(make_stack(times=(1.0, 4.0, 8.0, 16.0, 32.0), frames=frames), GAMMA)
        assert pre[1][:RAW_CHANNELS] == pytest.approx(0.0625, abs=1e-7)
        assert pre[1][RAW_CHANNELS:] == pytest.approx(0.2835781305488656, abs=1e-6)

    def test_channel_count_doubles(self):
        pre = preprocess(make_stack(seed=4), GAMMA)
        for t in pre:
            assert t.shape[0] == 2 * RAW_CHANNELS

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            make_stack(times=(1.0, 4.0, 4.0, 64.0, 256.0))

    @pytest.mark.parametrize("times", [(1, 2, np.nan, 4, 5), (1, 2, 3, 4, np.inf)], ids=["nan", "inf"])
    def test_non_finite_times_rejected(self, times):
        # Both used to pass the stack check, and preprocess then returned non-finite values.
        with pytest.raises(ValueError, match="increasing"):
            preprocess(make_stack(seed=6, times=times), GAMMA)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, -0.5])
    def test_non_finite_or_out_of_range_frame_rejected(self, bad):
        frames = make_frames(seed=7)
        frames[3][1, 5, 9] = bad
        with pytest.raises(ValueError, match="frame 3"):
            make_stack(frames=frames)

    def test_arrays_are_read_only(self):
        stack = make_stack(seed=8)
        with pytest.raises(ValueError, match="read-only"):
            stack.frames[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            stack.exposure_times[0] = 2.0
        assert stack.frames.shape == (5, RAW_CHANNELS, 32, 32)
        assert stack.exposure_times.dtype == np.float64

    def test_caller_frames_changed_after_construction_leave_stack_unchanged(self):
        frames = make_frames(seed=9)
        stack = make_stack(frames=frames)
        before = stack.frames.copy()
        frames[0][:] = np.nan
        frames[1] = np.zeros_like(frames[1])
        assert np.array_equal(stack.frames, before)

    @pytest.mark.parametrize("count", [4, 6])
    def test_wrong_frame_count_rejected(self, count):
        with pytest.raises(ValueError, match=r"frames must be \[5, 4, H, W\]"):
            make_stack(frames=(make_frames(seed=10) * 2)[:count])

    def test_ragged_frames_rejected(self):
        frames = make_frames(seed=11)
        frames[2] = frames[2][:, :16]
        with pytest.raises(ValueError, match="one shape"):
            make_stack(frames=frames)

    def test_exposure_scale_invariance(self):
        stack_a = make_stack(seed=5)
        stack_b = make_stack(seed=5, times=tuple(2.0 * t for t in stack_a.exposure_times))
        pre_a = preprocess(stack_a, GAMMA)
        pre_b = preprocess(stack_b, GAMMA)
        for a, b in zip(pre_a, pre_b):
            assert np.array_equal(a, b)  # power-of-two scale: exact

    def test_exposure_scale_invariance_arbitrary_factor(self):
        stack_a = make_stack(seed=6)
        stack_b = make_stack(seed=6, times=tuple(3.7 * t for t in stack_a.exposure_times))
        pre_a = preprocess(stack_a, GAMMA)
        pre_b = preprocess(stack_b, GAMMA)
        for a, b in zip(pre_a, pre_b):
            assert np.allclose(a, b, atol=1e-6)


class TestWarpByFlow:
    def test_zero_flow_is_bit_exact_identity(self):
        x = Tensor(np.random.default_rng(7).normal(size=(2, 3, 8, 8)).astype(np.float32))
        out = warp_by_flow(x, np.zeros((2, 8, 8), np.float32))
        assert np.array_equal(out.data, x.data)

    def test_unit_flow_shifts_a_ramp(self):
        # Ramp along x; sampling at x+1 yields value x+1 except at the
        # clamped right border.
        ramp = np.tile(np.arange(8, dtype=np.float64)[None, None, None, :], (1, 1, 4, 1))
        flow = np.zeros((2, 4, 8))
        flow[0] = 1.0
        out = warp_by_flow(Tensor(ramp), flow).data[0, 0]
        assert np.array_equal(out[:, :7], ramp[0, 0, :, 1:])
        assert np.array_equal(out[:, 7], ramp[0, 0, :, 7])

    def test_constant_image_any_flow(self):
        const = Tensor(np.full((1, 2, 6, 6), 2.5))
        flow = np.random.default_rng(8).uniform(-3, 3, (2, 6, 6))
        out = warp_by_flow(const, flow)
        assert np.array_equal(out.data, const.data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="flow shape"):
            warp_by_flow(Tensor(np.zeros((1, 1, 4, 4))), np.zeros((2, 5, 4)))

    def test_non_finite_flow_rejected(self):
        flow = np.zeros((2, 4, 4))
        flow[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            warp_by_flow(Tensor(np.zeros((1, 1, 4, 4))), flow)

    def test_gradient_flows_to_features(self):
        x = Tensor(np.random.default_rng(9).normal(size=(1, 2, 6, 6)), requires_grad=True)
        flow = np.random.default_rng(10).uniform(-1, 1, (2, 6, 6)).astype(np.float32)
        tsum(warp_by_flow(x, flow)).backward()
        assert x.grad is not None and x.grad.shape == x.data.shape


def running_best_flow(ref, frame):
    """Reference block matcher: one strict-< sweep over the offsets, nearest first."""
    block, radius = 8, 4
    lead = np.broadcast_shapes(ref.shape[:-3], frame.shape[:-3])
    height, width = ref.shape[-2:]
    row_starts, col_starts = np.arange(0, height, block), np.arange(0, width, block)
    padded = np.pad(frame, [(0, 0)] * (frame.ndim - 2) + [(radius, radius)] * 2, mode="edge")
    offsets = [(dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)]
    best_sad = np.full(lead + (len(row_starts), len(col_starts)), np.inf)
    best_dx, best_dy = np.zeros_like(best_sad), np.zeros_like(best_sad)
    for dy, dx in sorted(offsets, key=lambda d: d[0] * d[0] + d[1] * d[1]):
        shifted = padded[..., radius + dy : radius + dy + height, radius + dx : radius + dx + width]
        diff = np.abs(ref - shifted).sum(axis=-3)
        sad = np.add.reduceat(np.add.reduceat(diff, row_starts, axis=-2), col_starts, axis=-1)
        better = sad < best_sad
        best_sad[better] = sad[better]
        best_dx[better] = dx
        best_dy[better] = dy
    best = np.stack([best_dx, best_dy], axis=-3).astype(np.float32)
    return np.repeat(np.repeat(best, block, axis=-2), block, axis=-1)[..., :height, :width]


class TestEstimateFlow:
    def test_identical_frames_zero_flow(self):
        ref = np.random.default_rng(11).uniform(0, 1, (2, 16, 16))
        flow = estimate_flow(ref, ref)
        assert np.array_equal(flow, np.zeros((2, 16, 16), np.float32))

    def test_constant_frames_tie_break_to_zero(self):
        const = np.full((2, 16, 16), 0.5)
        assert np.array_equal(estimate_flow(const, const + 0.0), np.zeros((2, 16, 16), np.float32))

    def test_known_shift_reports_positive_dx(self):
        # frame content sits 2 px right of ref => sample frame at x+2.
        rng = np.random.default_rng(12)
        ref = rng.uniform(0, 1, (1, 24, 24))
        frame = np.zeros_like(ref)
        frame[:, :, 2:] = ref[:, :, :-2]
        flow = estimate_flow(ref, frame)
        interior = flow[:, 4:20, 4:20]
        assert np.median(interior[0]) == 2.0
        assert np.median(interior[1]) == 0.0

    def test_estimate_then_warp_aligns(self):
        rng = np.random.default_rng(13)
        ref = rng.uniform(0, 1, (1, 24, 24))
        frame = np.roll(ref, shift=(1, -2), axis=(1, 2))
        flow = estimate_flow(ref, frame)
        back = warp_by_flow(Tensor(frame[None]), flow).data[0]
        inner = (slice(None), slice(4, 20), slice(4, 20))
        assert np.allclose(back[inner], ref[inner], atol=1e-6)

    def test_piecewise_constant_per_block(self):
        rng = np.random.default_rng(14)
        ref = rng.uniform(0, 1, (1, 16, 16))
        frame = rng.uniform(0, 1, (1, 16, 16))
        flow = estimate_flow(ref, frame)
        for by in range(2):
            for bx in range(2):
                tile = flow[:, by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8]
                assert np.unique(tile[0]).size == 1
                assert np.unique(tile[1]).size == 1

    def test_leading_axes_match_per_pair_calls(self):
        # [N, B, C, H, W] frames against a [B, C, H, W] reference: one call
        # equals the per-pair [C, H, W] calls bit for bit, including the
        # partial edge blocks of a 20x28 frame and the all-tie constant case.
        rng = np.random.default_rng(15)
        noise = rng.normal(size=(2, 3, 20, 28)).astype(np.float32)
        cases = [
            (noise, rng.normal(size=(4, 2, 3, 20, 28)).astype(np.float32)),
            (np.full((2, 3, 20, 28), 0.5), np.full((4, 2, 3, 20, 28), 0.5)),
        ]
        for ref, frames in cases:
            batched = estimate_flow(ref, frames)
            assert batched.shape == (4, 2, 2, 20, 28) and batched.dtype == np.float32
            for n in range(4):
                for b in range(2):
                    single = estimate_flow(ref[b], frames[n, b])
                    assert np.array_equal(batched[n, b], single), (n, b)

    def test_matches_running_best_search(self):
        # The SAD table and argmin must pick what a strict-< sweep over the
        # offsets, nearest first, picks: ties go to the nearest offset.
        rng = np.random.default_rng(16)
        quantized = np.round(rng.uniform(0, 2, (2, 3, 24, 24)) * 2) / 2  # many near-ties
        cases = [
            (rng.normal(size=(3, 24, 24)), rng.normal(size=(3, 24, 24))),
            (np.full((3, 16, 16), 0.25), np.full((3, 16, 16), 0.25)),  # every offset ties
            (quantized[0], quantized[1]),
            (rng.normal(size=(2, 20, 28)), rng.normal(size=(2, 20, 28))),  # partial edge blocks
            (
                rng.normal(size=(2, 3, 16, 24)).astype(np.float32),
                rng.normal(size=(4, 2, 3, 16, 24)).astype(np.float32),
            ),
        ]
        for ref, frame in cases:
            want = running_best_flow(ref, frame)
            assert estimate_flow(ref, frame).tobytes() == want.tobytes(), ref.shape


class TestForward:
    def test_output_shape_contract(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=0)
        out = forward(make_stack(seed=15), params, cfg)
        assert out.shape == (RAW_CHANNELS, 32, 32)
        assert np.all(out.data >= 0.0)

    def test_batched_shape(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=0)
        out = forward_batch([make_stack(seed=16), make_stack(seed=17)], params, cfg)
        assert out.shape == (2, RAW_CHANNELS, 32, 32)

    def test_recurrent_mode_shape(self):
        cfg = tiny_config(fusion_mode="recurrent")
        params = build_params(cfg, seed=0)
        out = forward(make_stack(seed=18), params, cfg)
        assert out.shape == (RAW_CHANNELS, 32, 32)

    def test_deterministic_across_runs(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=0)
        stack = make_stack(seed=19)
        a = forward(stack, params, cfg).data
        b = forward(stack, params, cfg).data
        assert np.array_equal(a, b)

    def test_explicit_flows_accepted(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=0)
        stack = make_stack(seed=20)
        flows = [np.zeros((2, 32, 32), np.float32) for _ in range(5)]
        out = forward(stack, params, cfg, flows=flows)
        assert out.shape == (RAW_CHANNELS, 32, 32)

    def test_batched_estimate_matches_per_pair_flows(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=0)
        stacks = [make_stack(seed=22), make_stack(seed=23)]
        feats = []
        for stack in stacks:
            frames = Tensor(preprocess(stack, cfg.gamma))
            feats.append(conv2d(frames, params["shallow.weight"], params["shallow.bias"]).data)
        flows = [[None] + [estimate_flow(f[0], f[i]) for i in range(1, 5)] for f in feats]
        assert any(np.any(flow != 0) for sample in flows for flow in sample[1:])
        estimated = forward_batch(stacks, params, cfg).data
        given = forward_batch(stacks, params, cfg, flows=flows).data
        assert np.array_equal(estimated, given)
        with pytest.raises(ValueError, match="1 flow lists for 2 stacks"):
            forward_batch(stacks, params, cfg, flows=flows[:1])

    def test_short_flow_list_names_its_sample(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=0)
        field = np.zeros((2, 32, 32), np.float32)
        flows = [[None] + [field] * 4, [None, field]]
        with pytest.raises(ValueError, match="sample 1 has 2 entries, need 5"):
            forward_batch([make_stack(seed=22), make_stack(seed=23)], params, cfg, flows=flows)

    def test_exposure_scaling_with_fixed_flows_identical(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=0)
        stack_a = make_stack(seed=21)
        stack_b = make_stack(seed=21, times=tuple(4.0 * t for t in stack_a.exposure_times))
        flows = [np.zeros((2, 32, 32), np.float32) for _ in range(5)]
        out_a = forward(stack_a, params, cfg, flows=flows)
        out_b = forward(stack_b, params, cfg, flows=flows)
        assert np.array_equal(out_a.data, out_b.data)

    def test_param_mismatch_names_every_offender(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=0)
        broken = dict(params)
        del broken["head.bias"]
        with pytest.raises(ValueError, match="head.bias"):
            forward(make_stack(seed=22), broken, cfg)
        broken["bogus.weight"] = Tensor(np.zeros((1, 1, 1, 1)), requires_grad=True)
        broken["shallow.bias"] = Tensor(np.zeros(3, np.float32), requires_grad=True)
        with pytest.raises(ValueError) as err:
            validate_params(broken, param_spec(cfg))
        message = str(err.value)
        assert "missing=['head.bias']" in message
        assert "unexpected=['bogus.weight']" in message
        assert "'shallow.bias' is (3,), expected (8,)" in message

    def test_validate_params_builds_the_hfem_spec_once(self, monkeypatch):
        cfg = tiny_config()
        params = build_params(cfg, seed=0)
        calls = []
        build = model_mod._hfem_spec
        monkeypatch.setattr(model_mod, "_hfem_spec", lambda c: calls.append(c) or build(c))
        forward(make_stack(seed=22), params, cfg)
        assert len(calls) == 1

    def test_window_divisibility_enforced(self):
        cfg = tiny_config(attn_window=8)
        params = build_params(cfg, seed=0)
        with pytest.raises(ValueError, match="window"):
            forward(make_stack(seed=23, size=36), params, cfg)

    def test_every_parameter_receives_gradient(self):
        cfg = tiny_config(n_ceb=2)
        params = build_params(cfg, seed=1)
        stack = make_stack(seed=24)
        target = Tensor(np.random.default_rng(25).uniform(0, 1, (RAW_CHANNELS, 32, 32)).astype(np.float32))
        loss = l1_tonemapped_loss(forward(stack, params, cfg), target, cfg.mu)
        loss.backward()
        dead = [k for k, v in params.items() if v.grad is None or not np.any(v.grad != 0)]
        # The head bias always moves; every tensor must at least have a
        # populated gradient buffer.
        assert all(p.grad is not None for p in params.values())
        assert "head.weight" not in dead and "shallow.weight" not in dead


class TestParamAccounting:
    def test_single_conv_counting_formula(self):
        cfg = tiny_config()
        spec = param_spec(cfg)
        c = cfg.base_channels
        assert int(np.prod(spec["reduce.weight"])) + int(np.prod(spec["reduce.bias"])) == 5 * c * c + c

    def test_counts_equal_across_mbb_splits(self):
        counts = {
            split: count_params(tiny_config(mbb_split=split))
            for split in [(3, 1), (2, 2), (4, 0)]
        }
        assert len(set(counts.values())) == 1

    def test_joint_and_recurrent_share_key_sets(self):
        joint = param_spec(tiny_config(fusion_mode="joint"))
        recurrent = param_spec(tiny_config(fusion_mode="recurrent"))
        assert joint == recurrent

    def test_default_config_golden_count(self):
        # Frozen after the first computation; a change here means the
        # architecture layout changed.
        assert count_params(CRNetConfig()) == 3_649_844

    def test_count_matches_materialized_params(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=0)
        assert count_params(cfg) == sum(p.data.size for p in params.values())


class TestAblationVariants:
    def test_full_is_default(self):
        cfg = CRNetConfig()
        variant_cfg, _ = build_ablation_variant("full", tiny_config())
        assert variant_cfg == tiny_config()

    def test_all_variants_construct_and_run(self):
        stack = make_stack(seed=26)
        for name in ABLATION_VARIANTS:
            variant_cfg, params = build_ablation_variant(name, tiny_config(), seed=0)
            out = forward(stack, params, variant_cfg)
            assert out.shape == (RAW_CHANNELS, 32, 32), name

    def test_mbb_4_0_budget_parity(self):
        full_cfg, _ = build_ablation_variant("full", tiny_config())
        var_cfg, _ = build_ablation_variant("mbb_4_0", tiny_config())
        assert count_params(var_cfg) == count_params(full_cfg)

    def test_ceb_3x3x3_swaps_kernel_layout(self):
        var_cfg, params = build_ablation_variant("ceb_3x3x3", tiny_config())
        assert var_cfg.ceb_kernel_mode == "three_dw3"
        keys = [k for k in params if "ceb0.dw" in k and k.endswith("weight")]
        assert sorted(keys) == ["hfem0.ceb0.dw0.weight", "hfem0.ceb0.dw1.weight", "hfem0.ceb0.dw2.weight"]
        assert params["hfem0.ceb0.dw0.weight"].shape[2:] == (3, 3)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation"):
            build_ablation_variant("bogus", tiny_config())
