"""Optimizer, schedule, augmentation, loop, and checkpoint tests."""

import math
import sys

import numpy as np
import pytest

from crnet.model import build_params, forward
from crnet.storage import read_archive, write_archive
from crnet.synth import DegradeSpec, SceneSpec, generate_sample
from crnet import tensor as tensor_mod
from crnet.tensor import Tensor
from crnet.train import (
    NumericError,
    OptimState,
    TrainConfig,
    adamw_step,
    augment,
    desk_model_config,
    desk_train_config,
    evaluate,
    history_to_csv,
    init_optim_state,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)


def scalar_state(lr=0.01, wd=0.0):
    return OptimState(
        m={"w": np.zeros((1, 1))},
        v={"w": np.zeros((1, 1))},
        step=0,
        lr=lr,
        betas=(0.9, 0.999),
        weight_decay=wd,
        eps=1e-8,
    )


class TestAdamW:
    def test_zero_grad_zero_decay_is_fixed_point(self):
        params = {"w": Tensor(np.full((1, 1), 2.0), requires_grad=True)}
        state = scalar_state(wd=0.0)
        adamw_step(params, {"w": np.zeros((1, 1))}, state)
        assert params["w"].data[0, 0] == 2.0
        assert np.all(state.m["w"] == 0.0) and np.all(state.v["w"] == 0.0)
        assert state.step == 1

    def test_single_step_matches_hand_evaluated_update(self):
        lr, b1, b2, eps, g0, w0 = 0.01, 0.9, 0.999, 1e-8, 0.5, 2.0
        params = {"w": Tensor(np.full((1, 1), w0), requires_grad=True)}
        state = scalar_state(lr=lr)
        adamw_step(params, {"w": np.full((1, 1), g0)}, state)
        m = (1 - b1) * g0
        v = (1 - b2) * g0 * g0
        m_hat = m / (1 - b1)
        v_hat = v / (1 - b2)
        want = w0 - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert params["w"].data[0, 0] == pytest.approx(want, abs=1e-12)

    def test_decoupled_decay_shrinks_weights_exactly(self):
        # 2-d parameters decay; with zero gradient the adaptive term is 0.
        value, lr, wd = 3.0, 0.01, 0.1
        params = {"w": Tensor(np.full((2, 2), value), requires_grad=True)}
        state = OptimState(
            m={"w": np.zeros((2, 2))}, v={"w": np.zeros((2, 2))}, lr=lr, weight_decay=wd
        )
        adamw_step(params, {"w": np.zeros((2, 2))}, state)
        assert np.allclose(params["w"].data, value - lr * wd * value)

    def test_biases_excluded_from_decay(self):
        params = {"b": Tensor(np.full((3,), 1.0), requires_grad=True)}
        state = OptimState(m={"b": np.zeros(3)}, v={"b": np.zeros(3)}, lr=0.01, weight_decay=0.5)
        adamw_step(params, {"b": np.zeros(3)}, state)
        assert np.all(params["b"].data == 1.0)

    def test_missing_gradient_names_parameter(self):
        params = {"layer.weight": Tensor(np.zeros((2, 2)), requires_grad=True)}
        with pytest.raises(ValueError, match="layer.weight"):
            adamw_step(params, {}, scalar_state())

    def test_bit_deterministic(self):
        def run():
            params = {"w": Tensor(np.full((4, 4), 0.5), requires_grad=True)}
            state = OptimState(m={"w": np.zeros((4, 4))}, v={"w": np.zeros((4, 4))}, lr=1e-3)
            g = np.linspace(-1, 1, 16).reshape(4, 4)
            for _ in range(5):
                adamw_step(params, {"w": g}, state)
            return params["w"].data
        assert np.array_equal(run(), run())


class TestLRSchedule:
    def test_training_recipe_values(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == 1e-4
        assert lr_at(79, cfg) == 1e-4
        assert lr_at(80, cfg) == 5e-5
        assert lr_at(160, cfg) == 2.5e-5

    def test_non_increasing(self):
        cfg = TrainConfig()
        values = [lr_at(e, cfg) for e in range(0, 400, 7)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, TrainConfig())


class FixedRng:
    """Deterministic stand-in yielding scripted integers draws."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high):
        return self.values.pop(0)


class TestAugment:
    def make_sample(self, seed=0, size=16):
        return generate_sample(SceneSpec(seed=seed, size=(size, size)), DegradeSpec())

    def test_identity_draw_is_identity(self):
        sample = self.make_sample()
        out = augment(sample, FixedRng([0, 0, 0, 0]), crop=16)
        assert np.array_equal(out.ground_truth, sample.ground_truth)
        for a, b in zip(out.stack.frames, sample.stack.frames):
            assert np.array_equal(a, b)

    def test_180_rotation_twice_is_original(self):
        sample = self.make_sample(seed=1)
        once = augment(sample, FixedRng([0, 0, 0, 2]), crop=16)
        twice = augment(once, FixedRng([0, 0, 0, 2]), crop=16)
        assert np.array_equal(twice.ground_truth, sample.ground_truth)

    def test_marker_pixel_tracks_identically_everywhere(self):
        # Zero sample with one sentinel pixel: after any crop/flip/rot the
        # sentinel must land at the same place in all frames and the target.
        from crnet.model import ExposureStack
        from crnet.synth import SampleRecord

        marker = 0.75  # any in-range value works on a zero background
        my, mx = 5, 9
        frames = []
        for _ in range(5):
            f = np.zeros((4, 16, 16), np.float32)
            f[:, my, mx] = marker
            frames.append(f)
        gt = np.zeros((4, 16, 16), np.float32)
        gt[:, my, mx] = marker
        sample = SampleRecord(
            stack=ExposureStack(frames=frames, exposure_times=np.array([1.0, 2, 4, 8, 16.0])),
            ground_truth=gt,
        )
        hits = 0
        for seed in range(12):
            out = augment(sample, np.random.default_rng(seed), crop=8)
            where = np.argwhere(out.ground_truth[0] == marker)
            if where.size:
                hits += 1
            for i in range(5):
                assert np.array_equal(np.argwhere(out.stack.frames[i][0] == marker), where)
        assert hits > 0, "marker never survived a crop; test is vacuous"

    def test_exposure_times_untouched(self):
        sample = self.make_sample(seed=4)
        out = augment(sample, np.random.default_rng(0), crop=8)
        assert np.array_equal(out.stack.exposure_times, sample.stack.exposure_times)
        assert np.all(np.diff(out.stack.exposure_times) > 0)

    def test_crop_too_large_rejected(self):
        with pytest.raises(ValueError, match="crop"):
            augment(self.make_sample(), np.random.default_rng(0), crop=64)

    def test_augmented_sample_keeps_invariants(self):
        sample = self.make_sample(seed=5)
        out = augment(sample, np.random.default_rng(1), crop=8)
        out.stack.validate()


def tiny_setup(n_samples=2, size=32):
    cfg = desk_model_config()
    dataset = [generate_sample(SceneSpec(seed=100 + i, size=(size, size)), DegradeSpec()) for i in range(n_samples)]
    return cfg, dataset


class TestTrainLoop:
    def test_loss_decreases_on_tiny_run(self):
        cfg, dataset = tiny_setup(1)
        tcfg = desk_train_config(epochs=30, batch=1, seed=0, initial_lr=1e-3, augment=False)
        params = build_params(cfg, seed=0)
        params, history = train(dataset, cfg, tcfg, params)
        assert history[-1].loss < history[0].loss

    def test_fixed_seed_bit_reproducible(self):
        cfg, dataset = tiny_setup(2)
        tcfg = desk_train_config(epochs=3, batch=1, seed=7)

        def run():
            params = build_params(cfg, seed=1)
            return train(dataset, cfg, tcfg, params)

        params_a, hist_a = run()
        params_b, hist_b = run()
        assert [h.loss for h in hist_a] == [h.loss for h in hist_b]
        assert all(np.array_equal(params_a[k].data, params_b[k].data) for k in params_a)

    def test_resume_matches_unbroken_run(self, tmp_path):
        cfg, dataset = tiny_setup(2)
        params = build_params(cfg, seed=2)
        full_cfg = desk_train_config(epochs=4, batch=1, seed=9, ckpt_every=100)
        _, full_hist = train(dataset, cfg, full_cfg, params)

        params = build_params(cfg, seed=2)
        half_cfg = desk_train_config(epochs=2, batch=1, seed=9, ckpt_every=100)
        train(dataset, cfg, half_cfg, params, out_dir=tmp_path)
        resumed_params, state = load_checkpoint(tmp_path / "checkpoint.crt1a", cfg)
        _, tail_hist = train(dataset, cfg, full_cfg, resumed_params, state)

        full_by_step = {h.step: h.loss for h in full_hist}
        assert tail_hist, "resumed run should continue"
        for h in tail_hist:
            assert full_by_step[h.step] == h.loss

    def test_nan_loss_aborts_and_keeps_checkpoint(self, tmp_path):
        cfg, dataset = tiny_setup(1)
        tcfg = desk_train_config(epochs=2, batch=1, seed=0, ckpt_every=1)
        params = build_params(cfg, seed=3)
        train(dataset, cfg, tcfg, params, out_dir=tmp_path)
        good = (tmp_path / "checkpoint.crt1a").read_bytes()

        resumed, state = load_checkpoint(tmp_path / "checkpoint.crt1a", cfg)
        resumed["head.weight"].data[:] = np.nan
        longer = desk_train_config(epochs=4, batch=1, seed=0, ckpt_every=100)
        with pytest.raises(NumericError, match="non-finite"):
            train(dataset, cfg, longer, resumed, state, out_dir=tmp_path)
        assert (tmp_path / "checkpoint.crt1a").read_bytes() == good

    def test_non_finite_gradient_aborts_before_update(self, tmp_path, monkeypatch):
        cfg, dataset = tiny_setup(1)
        params = build_params(cfg, seed=3)
        train(dataset, cfg, desk_train_config(epochs=1, batch=1, seed=0), params, out_dir=tmp_path)
        good = (tmp_path / "checkpoint.crt1a").read_bytes()
        resumed, state = load_checkpoint(tmp_path / "checkpoint.crt1a", cfg)
        before = {k: p.data.copy() for k, p in resumed.items()}

        # Adds 0 to the loss, but its backward deposits inf into one parameter.
        bad = resumed["fusion.conv1.bias"]
        spike = tensor_mod._node(
            np.zeros((), np.float32), (bad,), lambda g: bad._accumulate(np.full_like(bad.data, np.inf))
        )
        train_module = sys.modules["crnet.train"]
        original_loss = train_module.l1_tonemapped_loss
        monkeypatch.setattr(train_module, "l1_tonemapped_loss", lambda *a: original_loss(*a) + spike)

        longer = desk_train_config(epochs=3, batch=1, seed=0, ckpt_every=1)
        with pytest.raises(NumericError, match=r"non-finite gradient for 'fusion.conv1.bias' at step 1"):
            train(dataset, cfg, longer, resumed, state, out_dir=tmp_path)
        assert state.step == 1
        assert all(np.array_equal(resumed[k].data, before[k]) for k in before)
        assert (tmp_path / "checkpoint.crt1a").read_bytes() == good

    @pytest.mark.parametrize("epochs,ckpt_every,writes", [(1, 10, 1), (4, 2, 2)])
    def test_final_checkpoint_written_once(self, tmp_path, monkeypatch, epochs, ckpt_every, writes):
        # `crnet.train` is the function; the loop looks the writer up in its module.
        train_module = sys.modules["crnet.train"]
        steps = []

        def counting(path, params, state):
            steps.append(state.step)
            save_checkpoint(path, params, state)

        monkeypatch.setattr(train_module, "save_checkpoint", counting)
        cfg, dataset = tiny_setup(1)
        tcfg = desk_train_config(epochs=epochs, batch=1, seed=0, ckpt_every=ckpt_every)
        train(dataset, cfg, tcfg, build_params(cfg, seed=0), out_dir=tmp_path)
        assert len(steps) == writes
        assert steps[-1] == epochs
        assert load_checkpoint(tmp_path / "checkpoint.crt1a", cfg)[1].step == epochs

    def test_empty_dataset_rejected(self):
        cfg, _ = tiny_setup(1)
        with pytest.raises(ValueError, match="empty"):
            train([], cfg, desk_train_config(), build_params(cfg, seed=0))

    def test_history_csv_format(self):
        cfg, dataset = tiny_setup(1)
        tcfg = desk_train_config(epochs=2, batch=1, seed=0)
        params = build_params(cfg, seed=0)
        _, history = train(dataset, cfg, tcfg, params)
        csv = history_to_csv(history)
        lines = csv.strip().splitlines()
        assert lines[0] == "step,epoch,lr,loss"
        assert len(lines) == len(history) + 1


class TestCheckpoint:
    def test_roundtrip_bit_identical_forward(self, tmp_path):
        cfg, dataset = tiny_setup(1)
        params = build_params(cfg, seed=4)
        state = init_optim_state(params, desk_train_config())
        path = tmp_path / "ckpt.crt1a"
        save_checkpoint(path, params, state)
        loaded, loaded_state = load_checkpoint(path, cfg)
        stack = dataset[0].stack
        assert np.array_equal(forward(stack, params, cfg).data, forward(stack, loaded, cfg).data)
        assert loaded_state.step == state.step
        assert loaded_state.betas == state.betas
        for k in params:
            assert np.array_equal(loaded_state.m[k], state.m[k])

    def test_config_mismatch_lists_paths(self, tmp_path):
        cfg, _ = tiny_setup(1)
        params = build_params(cfg, seed=5)
        state = init_optim_state(params, desk_train_config())
        path = tmp_path / "ckpt.crt1a"
        save_checkpoint(path, params, state)
        other = desk_model_config(n_ceb=3)
        with pytest.raises(ValueError, match="missing.*hfem0.ceb2"):
            load_checkpoint(path, other)
        entries = read_archive(path)
        entries["head.bias"] = np.zeros(5, np.float32)
        write_archive(path, entries)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path, other)
        message = str(err.value)
        assert str(path) in message
        assert "missing=['hfem0.ceb2." in message
        assert "'head.bias' is (5,), expected (4,)" in message


class TestEvaluate:
    def test_reports_and_mean(self):
        cfg, dataset = tiny_setup(2, size=32)
        params = build_params(cfg, seed=6)
        pairs = [(f"s{i}", sample) for i, sample in enumerate(dataset)]
        reports, mean = evaluate(pairs, params, cfg)
        assert len(reports) == 2
        assert mean.psnr_mu == pytest.approx(np.mean([r.psnr_mu for _, r in reports]))
        for _, r in reports:
            assert -1.0 <= r.ssim_mu <= 1.0
