"""Optimizer, schedule, augmentation, loop, and checkpoint tests."""

import dataclasses
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from crnet.model import build_params, forward
from crnet.runconfig import resolve
from crnet.storage import FormatError, read_archive, write_archive
from crnet.synth import DegradeSpec, SceneSpec, generate_sample
from crnet import tensor as tensor_mod
from crnet.tensor import Tensor
from crnet.train import (
    NumericError,
    TrainConfig,
    adamw_step,
    augment,
    evaluate,
    history_to_csv,
    init_optim_state,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)

DESK = resolve(preset="desk")


def desk_model_config(**extra):
    return dataclasses.replace(DESK.model, **extra)


def desk_train_config(**extra):
    return dataclasses.replace(DESK.train, **extra)


def zero_state(params):
    return init_optim_state(params, TrainConfig())


def step_with(params, grads, state, lr=0.01, wd=0.0):
    """Set each named parameter's .grad, then take one AdamW step."""
    for path, g in grads.items():
        params[path].grad = g
    adamw_step(params, state, lr, TrainConfig(weight_decay=wd))


class TestAdamW:
    @pytest.mark.parametrize("setting", [{"beta1": 1.5}, {"eps": -1.0}])
    def test_bad_settings_rejected_when_built(self, setting):
        # adamw_step reads its settings unchecked: the config must refuse them.
        with pytest.raises(ValueError, match="beta1"):
            TrainConfig(**setting)

    def test_zero_grad_zero_decay_is_fixed_point(self):
        params = {"w": Tensor(np.full((1, 1), 2.0), requires_grad=True)}
        state = zero_state(params)
        step_with(params, {"w": np.zeros((1, 1))}, state)
        assert params["w"].data[0, 0] == 2.0
        assert np.all(state.m["w"] == 0.0) and np.all(state.v["w"] == 0.0)
        assert state.step == 1

    def test_single_step_matches_hand_evaluated_update(self):
        lr, b1, b2, eps, g0, w0 = 0.01, 0.9, 0.999, 1e-8, 0.5, 2.0
        params = {"w": Tensor(np.full((1, 1), w0), requires_grad=True)}
        step_with(params, {"w": np.full((1, 1), g0)}, zero_state(params), lr=lr)
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
        step_with(params, {"w": np.zeros((2, 2))}, zero_state(params), lr=lr, wd=wd)
        assert np.allclose(params["w"].data, value - lr * wd * value)

    def test_biases_excluded_from_decay(self):
        params = {"b": Tensor(np.full((3,), 1.0), requires_grad=True)}
        step_with(params, {"b": np.zeros(3)}, zero_state(params), lr=0.01, wd=0.5)
        assert np.all(params["b"].data == 1.0)

    def test_missing_gradient_names_parameter(self):
        params = {"layer.weight": Tensor(np.zeros((2, 2)), requires_grad=True)}
        with pytest.raises(ValueError, match="layer.weight"):
            step_with(params, {}, zero_state(params))

    def test_bit_deterministic(self):
        def run():
            params = {"w": Tensor(np.full((4, 4), 0.5), requires_grad=True)}
            state = zero_state(params)
            g = np.linspace(-1, 1, 16).reshape(4, 4)
            for _ in range(5):
                step_with(params, {"w": g}, state, lr=1e-3, wd=0.01)
            return params["w"].data
        assert np.array_equal(run(), run())

    def test_releases_every_gradient(self):
        params = {"w": Tensor(np.ones((2, 2)), requires_grad=True), "b": Tensor(np.ones(2), requires_grad=True)}
        step_with(params, {"w": np.full((2, 2), 0.5), "b": np.full(2, -0.5)}, zero_state(params))
        assert all(p.grad is None for p in params.values())

    def test_non_finite_gradient_changes_nothing(self):
        # "w" comes first, so an update interleaved with the checks would change it.
        params = {"w": Tensor(np.ones((2, 2)), requires_grad=True), "b": Tensor(np.ones(2), requires_grad=True)}
        state = zero_state(params)
        step_with(params, {"w": np.full((2, 2), 0.5), "b": np.full(2, -0.5)}, state)
        before = {k: (p.data.copy(), state.m[k].copy(), state.v[k].copy()) for k, p in params.items()}
        with pytest.raises(NumericError, match=r"non-finite gradient for 'b' at step 1"):
            step_with(params, {"w": np.full((2, 2), 0.5), "b": np.array([0.5, np.nan])}, state)
        for k, p in params.items():
            assert all(np.array_equal(a, b) for a, b in zip(before[k], (p.data, state.m[k], state.v[k])))
        assert state.step == 1

    def test_non_finite_update_names_parameter(self):
        # 1e39 overflows float32 in the update, which raises, not warns.
        params = {"w": Tensor(np.ones((2, 2), np.float32), requires_grad=True)}
        with pytest.raises(NumericError, match=r"non-finite parameter 'w' after the update at step 0"):
            step_with(params, {"w": np.full((2, 2), 0.5, np.float32)}, zero_state(params), lr=1e39)


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

    def test_zero_step_length_rejected_when_built(self):
        # lr_at divides by lr_step_epochs unchecked.
        with pytest.raises(ValueError, match="schedule"):
            TrainConfig(lr_step_epochs=0)


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
        # Construction is the check: augment returns a checked stack and sample.
        sample = self.make_sample(seed=5)
        out = augment(sample, np.random.default_rng(1), crop=8)
        assert out.stack.frames.shape == (5, 4, 8, 8)
        assert out.ground_truth.shape == (4, 8, 8)


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

    def test_previous_step_graph_is_freed(self, monkeypatch):
        cfg, dataset = tiny_setup(1)
        train_module = sys.modules["crnet.train"]
        original = train_module.forward_batch
        inner_nodes, alive_at_call = [], []

        def recording(*args, **kwargs):
            alive_at_call.append([ref() is not None for ref in inner_nodes])
            out = original(*args, **kwargs)
            inner = out.node._parents[0]  # a node inside the graph, not the output train() binds
            assert inner._parents
            inner_nodes.append(weakref.ref(inner))
            return out

        monkeypatch.setattr(train_module, "forward_batch", recording)
        train(dataset, cfg, desk_train_config(epochs=2, batch=1, seed=0), build_params(cfg, seed=0))
        assert alive_at_call == [[], [False]]

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

    def test_resume_follows_run_config_optimizer_keys(self, tmp_path):
        cfg, dataset = tiny_setup(2)
        half_cfg = desk_train_config(epochs=2, batch=1, seed=9, ckpt_every=100)
        train(dataset, cfg, half_cfg, build_params(cfg, seed=2), out_dir=tmp_path)
        finals = []
        for decay in (0.0, 0.5):
            params, state = load_checkpoint(tmp_path / "checkpoint.crt1a", cfg)
            tcfg = desk_train_config(epochs=3, batch=1, seed=9, weight_decay=decay)
            train(dataset, cfg, tcfg, params, state)
            finals.append(params["head.weight"].data)
        assert not np.array_equal(finals[0], finals[1])

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
            np.zeros((), np.float32), (bad,), lambda g: bad.node._accumulate(np.full_like(bad.data, np.inf))
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

    def test_overflowing_update_aborts_and_keeps_checkpoint(self, tmp_path):
        # initial_lr = 1e39 is a finite Python float, but the update overflows float32.
        cfg, dataset = tiny_setup(1)
        params = build_params(cfg, seed=3)
        train(dataset, cfg, desk_train_config(epochs=1, batch=1, seed=0), params, out_dir=tmp_path)
        good = (tmp_path / "checkpoint.crt1a").read_bytes()
        resumed, state = load_checkpoint(tmp_path / "checkpoint.crt1a", cfg)
        huge = desk_train_config(epochs=3, batch=1, seed=0, ckpt_every=1, initial_lr=1e39, augment=False)
        with pytest.raises(NumericError, match=r"non-finite parameter '.+' after the update at step 1"):
            train(dataset, cfg, huge, resumed, state, out_dir=tmp_path)
        assert (tmp_path / "checkpoint.crt1a").read_bytes() == good

    def test_float64_parameters_train(self):
        cfg, dataset = tiny_setup(1)
        tcfg = desk_train_config(epochs=2, batch=1, seed=0)
        params32 = build_params(cfg, seed=0)
        params64 = build_params(cfg, seed=0, dtype=np.float64)
        _, hist32 = train(dataset, cfg, tcfg, params32)
        _, hist64 = train(dataset, cfg, tcfg, params64)
        assert all(p.data.dtype == np.float64 for p in params64.values())
        assert hist64[0].loss == pytest.approx(hist32[0].loss, rel=1e-6)

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
        for k in params:
            assert np.array_equal(loaded_state.m[k], state.m[k])
            assert np.array_equal(loaded_state.v[k], state.v[k])

    def test_config_mismatch_lists_paths(self, tmp_path):
        cfg, _ = tiny_setup(1)
        params = build_params(cfg, seed=5)
        state = init_optim_state(params, desk_train_config())
        path = tmp_path / "ckpt.crt1a"
        save_checkpoint(path, params, state)
        other = desk_model_config(n_ceb=3)
        with pytest.raises(FormatError, match="missing.*hfem0.ceb2"):
            load_checkpoint(path, other)
        entries = read_archive(path)
        entries["head.bias"] = np.zeros(5, np.float32)
        write_archive(path, entries)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path, other)
        message = str(err.value)
        assert str(path) in message
        assert "missing=['hfem0.ceb2." in message
        assert "'head.bias' is (5,), expected (4,)" in message

    def _saved_entries(self, tmp_path):
        cfg, _ = tiny_setup(1)
        params = build_params(cfg, seed=5)
        path = tmp_path / "ckpt.crt1a"
        save_checkpoint(path, params, init_optim_state(params, desk_train_config()))
        return cfg, path, read_archive(path)

    @pytest.mark.parametrize(
        "key,value,match",
        [
            ("optim.m.head.weight", np.zeros((1,), np.float32), r"'optim\.m\.head\.weight' is \(1,\)"),
            ("optim.v.head.bias", np.zeros((4,), np.float64), r"\['optim\.v\.head\.bias'\] differ in dtype"),
        ],
        ids=["moment_shape", "moment_dtype"],
    )
    def test_moment_unlike_its_parameter_is_format_error(self, tmp_path, key, value, match):
        # Such a moment used to load, and adamw_step then failed partway
        # through with a bare numpy error after updating earlier parameters.
        cfg, path, entries = self._saved_entries(tmp_path)
        entries[key] = value
        write_archive(path, entries)
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path, cfg)

    def test_parameter_and_moments_of_another_dtype_are_format_error(self, tmp_path):
        # Such a checkpoint used to load; the forward then failed with
        # "tensors in one graph must share one dtype", naming no entry.
        cfg, path, entries = self._saved_entries(tmp_path)
        keys = ["head.weight", "optim.m.head.weight", "optim.v.head.weight"]
        for key in keys:
            entries[key] = entries[key].astype(np.float64)
        write_archive(path, entries)
        with pytest.raises(FormatError, match="differ in dtype") as err:
            load_checkpoint(path, cfg)
        message = str(err.value)
        assert str(path) in message and str(keys) in message

    def test_one_message_lists_parameter_and_moment_faults(self, tmp_path):
        # A wrong moment used to go unreported until the parameters were mended.
        cfg, path, entries = self._saved_entries(tmp_path)
        entries["head.bias"] = np.zeros(5, np.float32)
        del entries["optim.v.shallow.weight"]
        write_archive(path, entries)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path, cfg)
        message = str(err.value)
        assert str(path) in message
        assert "'head.bias' is (5,), expected (4,)" in message
        assert "missing=['optim.v.shallow.weight']" in message

    @pytest.mark.parametrize("step", [-3.0, np.nan, np.inf, 2.5])
    def test_step_not_a_count_is_format_error(self, tmp_path, step):
        cfg, path, entries = self._saved_entries(tmp_path)
        entries["optim.step"] = np.array(step)
        write_archive(path, entries)
        with pytest.raises(FormatError, match="optim.step must be"):
            load_checkpoint(path, cfg)

    def test_non_finite_entries_are_format_error(self, tmp_path):
        # Such a checkpoint used to load, and evaluation then reported nan for every metric.
        cfg, path, entries = self._saved_entries(tmp_path)
        for key, value in (("head.bias", np.nan), ("optim.m.head.weight", np.inf), ("optim.v.shallow.bias", -np.inf)):
            entries[key] = entries[key].copy()
            entries[key].flat[-1] = value
        write_archive(path, entries)
        with pytest.raises(FormatError, match="non-finite") as err:
            load_checkpoint(path, cfg)
        message = str(err.value)
        for key in ("'head.bias'", "'optim.m.head.weight'", "'optim.v.shallow.bias'"):
            assert key in message
        assert "'head.weight'" not in message and "'optim.m.head.bias'" not in message

    def test_old_format_checkpoint_is_format_error(self, tmp_path):
        # Before optim.step, a checkpoint kept the step and five settings in optim.meta.
        cfg, path, entries = self._saved_entries(tmp_path)
        step = entries.pop("optim.step")
        entries["optim.meta"] = np.array([step, 1e-4, 0.9, 0.999, 0.01, 1e-8])
        write_archive(path, entries)
        with pytest.raises(FormatError, match="no 'optim.step' entry"):
            load_checkpoint(path, cfg)

    def test_entries_are_params_step_and_moments_as_readme_states(self, tmp_path):
        cfg, dataset = tiny_setup(1)
        params = build_params(cfg, seed=5)
        train(dataset, cfg, desk_train_config(epochs=1, batch=1), params, out_dir=tmp_path)
        names = list(read_archive(tmp_path / "checkpoint.crt1a"))
        want = list(params) + ["optim.step"] + [f"optim.{m}.{k}" for k in params for m in ("m", "v")]
        assert sorted(names) == sorted(want)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        for entry in ("`optim.step`", "`optim.m.<path>`", "`optim.v.<path>`"):
            assert entry in readme


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

    def test_forward_builds_no_graph(self, monkeypatch):
        cfg, dataset = tiny_setup(1, size=32)
        params = build_params(cfg, seed=6)
        train_module = sys.modules["crnet.train"]
        outputs = []

        def capture(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(train_module, "forward", capture)
        evaluate([("s0", dataset[0])], params, cfg)
        assert len(outputs) == 1
        assert outputs[0].node._parents == () and not outputs[0].requires_grad
        assert np.array_equal(outputs[0].data, forward(dataset[0].stack, params, cfg).data)
