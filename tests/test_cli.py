"""Command-line surface tests: exit codes, determinism, doc-sync."""

import inspect
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from crnet import cli
from crnet.model import CRNetConfig, count_params
from crnet.runconfig import registry
from crnet.storage import read_archive, read_tensor, write_archive
from crnet.synth import read_dataset

DESK = ["--preset", "desk"]


def run(argv):
    return cli.main(argv)


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + one short training run shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rundir = root / "run"
    assert run(["gen", "--out", str(data), "--count", "2", "--seed", "3", *DESK]) == 0
    assert (
        run(
            [
                "train", "--data", str(data), "--out", str(rundir), *DESK,
                "--set", "train.epochs=2", "--set", "train.batch=1",
            ]
        )
        == 0
    )
    return root


class TestImports:
    def test_cli_binds_submodules_and_train_functions(self):
        # The package attribute `crnet.train` is the re-exported function, so
        # `from . import train` in the CLI would bind it instead of the module.
        for handle in (cli.model_mod, cli.runconfig, cli.synth):
            assert inspect.ismodule(handle), handle
        train_module = sys.modules["crnet.train"]
        for name in ("train", "evaluate", "load_checkpoint"):
            assert getattr(cli, name, None) is getattr(train_module, name), name


class TestGen:
    def test_determinism_byte_identical_directories(self, tmp_path):
        for name in ("a", "b"):
            assert run(["gen", "--out", str(tmp_path / name), "--count", "3", "--seed", "9", *DESK]) == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_count_zero_rejected_usage(self, tmp_path):
        assert run(["gen", "--out", str(tmp_path / "x"), "--count", "0"]) == cli.EXIT_USAGE

    def test_negative_seed_rejected_usage(self, tmp_path):
        assert run(["gen", "--out", str(tmp_path / "x"), "--count", "1", "--seed", "-1"]) == cli.EXIT_USAGE
        assert not (tmp_path / "x").exists()

    def test_existing_nonempty_dir_needs_force(self, workspace, tmp_path):
        # A private copy: the shared dataset stays as the other tests expect it.
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        assert run(["gen", "--out", str(data), "--count", "1", *DESK]) == cli.EXIT_DATA
        assert run(["gen", "--out", str(data), "--count", "1", "--force", *DESK]) == 0
        assert run(["gen", "--out", str(data), "--count", "2", "--seed", "3", "--force", *DESK]) == 0

    def test_force_replaces_previous_dataset(self, tmp_path):
        data = tmp_path / "data"
        assert run(["gen", "--out", str(data), "--count", "2", *DESK]) == 0
        (data / "notes.txt").write_text("kept\n")
        assert run(["gen", "--out", str(data), "--count", "1", "--force", *DESK]) == 0
        assert sorted(p.name for p in data.iterdir()) == ["index.txt", "notes.txt", "sample00000.crt1a"]
        assert (data / "notes.txt").read_text() == "kept\n"

    def test_generated_set_loads(self, workspace):
        samples = read_dataset(workspace / "data")
        assert len(samples) == 2
        for _, sample in samples:
            sample.stack.validate()


class TestTrainEvalInfer:
    def test_train_wrote_checkpoint_and_csv(self, workspace):
        rundir = workspace / "run"
        assert (rundir / "checkpoint.crt1a").exists()
        csv = (rundir / "loss.csv").read_text().strip().splitlines()
        assert csv[0] == "step,epoch,lr,loss"
        assert len(csv) >= 2

    def test_eval_prints_metric_csv(self, workspace, capsys):
        assert (
            run(["eval", "--data", str(workspace / "data"), "--ckpt", str(workspace / "run" / "checkpoint.crt1a"), *DESK])
            == 0
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "sample_id,psnr_l,psnr_mu,ssim_l,ssim_mu"
        assert out[-1].startswith("mean,")
        assert len(out) == 2 + 2  # header + 2 samples + mean

    def test_eval_checkpoint_config_mismatch_is_data_error(self, workspace, capsys):
        code = run(
            [
                "eval", "--data", str(workspace / "data"),
                "--ckpt", str(workspace / "run" / "checkpoint.crt1a"),
                *DESK, "--set", "model.n_ceb=3",
            ]
        )
        assert code == cli.EXIT_DATA
        assert "missing" in capsys.readouterr().err

    def test_checkpoint_without_optimizer_state_is_data_error(self, workspace, tmp_path, capsys):
        entries = read_archive(workspace / "run" / "checkpoint.crt1a")
        params_only = {k: v for k, v in entries.items() if not k.startswith("optim.")}
        no_moment = {k: v for k, v in entries.items() if k != "optim.m.head.bias"}
        bad_step = {**entries, "optim.step": np.full(3, entries["optim.step"])}
        old_format = {k: v for k, v in entries.items() if k != "optim.step"} | {"optim.meta": np.zeros(6)}
        cases = (("params", params_only), ("moment", no_moment), ("step", bad_step), ("old", old_format))
        for name, archive in cases:
            ckpt = tmp_path / f"{name}.crt1a"
            write_archive(ckpt, archive)
            code = run(["eval", "--data", str(workspace / "data"), "--ckpt", str(ckpt), *DESK])
            assert code == cli.EXIT_DATA, name
            err = capsys.readouterr().err
            assert "[data]" in err and "optim" in err and "Traceback" not in err, name

    def test_non_finite_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        # An all-NaN checkpoint used to evaluate to nan for every metric and exit 0.
        # Resuming from it used to stop on a NaN loss (exit 4) after the first forward.
        entries = read_archive(workspace / "run" / "checkpoint.crt1a")
        ckpt = tmp_path / "nan.crt1a"
        write_archive(ckpt, {k: v if k == "optim.step" else np.full_like(v, np.nan) for k, v in entries.items()})
        data = str(workspace / "data")
        commands = (
            ["eval", "--data", data, "--ckpt", str(ckpt)],
            ["train", "--data", data, "--out", str(tmp_path / "r"), "--resume", str(ckpt)],
        )
        for argv in commands:
            assert run([*argv, *DESK]) == cli.EXIT_DATA, argv[0]
            out, err = capsys.readouterr()
            assert "nan" not in out
            assert "[data]" in err and "non-finite" in err and "Traceback" not in err
            for key in ("'head.bias'", "'optim.m.head.bias'", "'optim.v.head.bias'"):
                assert key in err

    def test_unusable_paths_are_data_errors(self, workspace, tmp_path, capsys):
        # A file where a directory belongs, and directories where files belong.
        (tmp_path / "file").write_text("")
        data = str(workspace / "data")
        commands = (
            ["gen", "--out", str(tmp_path / "file"), "--count", "1"],
            ["eval", "--data", data, "--ckpt", str(tmp_path)],
            ["train", "--data", data, "--out", str(tmp_path / "r"), "--config", str(tmp_path)],
        )
        for argv in commands:
            assert run([*argv, *DESK]) == cli.EXIT_DATA, argv[0]
            assert "[data]" in capsys.readouterr().err, argv[0]

    def test_infer_writes_parseable_outputs(self, workspace, tmp_path):
        out = tmp_path / "pred.crt1"
        assert (
            run(
                [
                    "infer", "--stack", str(workspace / "data" / "sample00000.crt1a"),
                    "--ckpt", str(workspace / "run" / "checkpoint.crt1a"),
                    "--out", str(out), *DESK,
                ]
            )
            == 0
        )
        prediction = read_tensor(out)
        assert prediction.shape[0] == 4 and prediction.min() >= 0.0
        pfm = out.with_suffix(".ch0.pfm").read_bytes()
        assert pfm.startswith(b"Pf\n")

    def test_infer_builds_no_graph(self, workspace, tmp_path, monkeypatch):
        outputs = []
        forward = cli.model_mod.forward

        def capture(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(cli.model_mod, "forward", capture)
        out = tmp_path / "pred.crt1"
        stack = workspace / "data" / "sample00000.crt1a"
        ckpt = workspace / "run" / "checkpoint.crt1a"
        assert run(["infer", "--stack", str(stack), "--ckpt", str(ckpt), "--out", str(out), *DESK]) == 0
        assert len(outputs) == 1
        assert outputs[0]._parents == () and not outputs[0].requires_grad

    def test_numeric_failure_exit_code(self, workspace, tmp_path):
        # initial_lr = 1e39 is a finite Python float, but the first update
        # overflows float32. (A NaN checkpoint no longer gets this far: it is
        # a data error, see test_non_finite_checkpoint_is_data_error.)
        code = run(
            [
                "train", "--data", str(workspace / "data"), "--out", str(tmp_path / "r"), *DESK,
                "--set", "train.epochs=4", "--set", "train.batch=1", "--set", "train.initial_lr=1e39",
            ]
        )
        assert code == cli.EXIT_NUMERIC
        assert not (tmp_path / "r" / "checkpoint.crt1a").exists()


class TestAblateAndParams:
    def test_ablate_runs_variant(self, workspace, tmp_path, capsys):
        code = run(
            [
                "ablate", "--variant", "ffn_flat", "--data", str(workspace / "data"),
                "--out", str(tmp_path / "ab"), *DESK,
                "--set", "train.epochs=1", "--set", "train.batch=1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "variant=ffn_flat" in out
        assert "mean," in out

    def test_params_prints_golden_default_total(self, capsys):
        assert run(["params"]) == 0
        out = capsys.readouterr().out
        assert f"total: {count_params(CRNetConfig())}" in out
        assert "total: 3649844" in out

    def test_unknown_variant_is_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["ablate", "--variant", "nope", "--data", str(workspace / "data"), "--out", str(tmp_path / "x")])
        assert exc.value.code == cli.EXIT_USAGE


class TestConfigSurface:
    @pytest.mark.parametrize(
        "pair",
        [
            "bogus.key=1",
            "train.ckpt_every=0",
            "model.base_channels=0",
            "train.epochs=0",
            "model.attn_heads=0",
            "model.ca_reduction=0",
            "model.ffn_expansion=0",
            "model.attn_window=0",
            "model.mbb_split=5,-1",
            "model.mbb_split=4",
            "model.ffn_mode=bogus",
            "model.ceb_kernel_mode=dw9",
            "model.ca_reduction=3",
            "model.mu=nan",
            "model.gamma=inf",
            "train.initial_lr=nan",
            "train.beta1=nan",
            "train.beta1=1",
            "train.beta2=1.5",
            "train.eps=-1",
            "train.weight_decay=nan",
            "train.seed=-1",
            "scene.size=0,0",
            "scene.dynamic_range=nan",
            "scene.n_gradients=-1",
            "scene.n_disks=-3",
            "scene.n_edges=-1",
            "data.shot_noise_scale=-1",
            "data.read_noise_sigma=-1",
            "data.exposure_times=nan,4,16,64,256",
            "data.exposure_times=1,4,16,64,inf",
        ],
    )
    def test_unknown_key_is_usage_error(self, pair):
        # An unknown key and a value its section's validate() rejects are both usage errors.
        assert run(["params", "--set", pair]) == cli.EXIT_USAGE

    def test_non_divisible_normal_bottleneck_is_usage_error(self):
        # 64 channels do not divide by an expansion of 3.
        argv = ["params", "--set", "model.ffn_mode=normal_bottleneck", "--set", "model.ffn_expansion=3"]
        assert run(argv) == cli.EXIT_USAGE

    def test_config_file_layering(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nmodel.base_channels = 16\nmodel.attn_heads = 2\n")
        assert run(["params", "--config", str(cfg), "--set", "model.n_ceb=1"]) == 0
        total = int(re.search(r"total: (\d+)", capsys.readouterr().out).group(1))
        assert total == count_params(CRNetConfig(base_channels=16, attn_heads=2, n_ceb=1))

    def test_help_lists_exactly_the_accepted_keys(self, capsys):
        with pytest.raises(SystemExit):
            run(["train", "--help"])
        help_text = capsys.readouterr().out
        documented = set(re.findall(r"^  ([a-z]+\.[a-z_0-9]+) = ", help_text, re.M))
        assert documented == set(registry())

    def test_every_registered_key_parses_its_own_default(self):
        from crnet.runconfig import build_run_config, _format_value, _parse_value

        reg = registry()
        parsed = {k: _parse_value(k, _format_value(v), v) for k, v in reg.items()}
        build_run_config(parsed)
