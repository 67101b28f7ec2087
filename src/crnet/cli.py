"""Command-line front end: dataset generation, training, evaluation,
inference, ablation runs, and parameter counting.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numeric
failure. ``gen`` renders samples on one thread per CPU; ``gen --force``
replaces the archives of the dataset previously in the directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import runconfig, synth
from .metrics import MetricReport
from .runconfig import ConfigError
from .storage import FormatError, read_archive, write_pfm, write_tensor
from .tensor import Tensor
from .train import NumericError, evaluate, load_checkpoint, train

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value configuration file")
    parser.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        dest="overrides",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--preset", choices=["desk"], help="apply a named config preset first")


def _sample_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([int(master), int(index)]).generate_state(1, np.uint64)[0])


def cmd_gen(args, cfg: runconfig.RunConfig) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise FormatError(f"{out}: directory exists and is not empty (use --force)")

    def build(index: int) -> synth.SampleRecord:
        spec = dataclasses.replace(cfg.scene, seed=_sample_seed(args.seed, index))
        return synth.generate_sample(spec, cfg.degrade)

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        samples = list(pool.map(build, range(args.count)))
    ids = synth.write_dataset(samples, out)
    for sid, sample in zip(ids, samples):
        gt = sample.ground_truth
        print(f"{sid}: gt[{gt.min():.4f},{gt.max():.4f}] ref_mean={sample.stack.frames[0].mean():.4f}")
    print(f"wrote {len(ids)} samples to {out}")
    return 0


def cmd_train(args, cfg: runconfig.RunConfig) -> int:
    dataset = [sample for _, sample in synth.read_dataset(args.data)]
    if args.resume:
        params, state = load_checkpoint(args.resume, cfg.model)
    else:
        params = model_mod.build_params(cfg.model, seed=cfg.train.seed)
        state = None
    params, history = train(dataset, cfg.model, cfg.train, params, state, out_dir=args.out)
    if history:
        print(f"trained {len(history)} steps; first loss {history[0].loss:.6f}, last {history[-1].loss:.6f}")
    print(f"checkpoint: {Path(args.out) / 'checkpoint.crt1a'}")
    return 0


def cmd_eval(args, cfg: runconfig.RunConfig) -> int:
    dataset = synth.read_dataset(args.data)
    params, _ = load_checkpoint(args.ckpt, cfg.model)
    reports, mean = evaluate(dataset, params, cfg.model)
    print(MetricReport.CSV_HEADER)
    for sid, report in reports:
        print(report.to_csv_row(sid))
    print(mean.to_csv_row("mean"))
    return 0


def cmd_infer(args, cfg: runconfig.RunConfig) -> int:
    stack = synth.stack_from_entries(read_archive(args.stack), context=str(args.stack))
    params, _ = load_checkpoint(args.ckpt, cfg.model)
    frozen = {path: Tensor(p.data) for path, p in params.items()}
    prediction = model_mod.forward(stack, frozen, cfg.model)
    out = Path(args.out)
    write_tensor(out, prediction.data)
    for channel in range(prediction.shape[0]):
        write_pfm(out.with_suffix(f".ch{channel}.pfm"), prediction.data[channel])
    print(f"wrote {out} and {prediction.shape[0]} PFM channel maps")
    return 0


def cmd_ablate(args, cfg: runconfig.RunConfig) -> int:
    variant_cfg, params = model_mod.build_ablation_variant(args.variant, cfg.model, seed=cfg.train.seed)
    dataset_pairs = synth.read_dataset(args.data)
    dataset = [sample for _, sample in dataset_pairs]
    params, history = train(dataset, variant_cfg, cfg.train, params, out_dir=args.out)
    _, mean = evaluate(dataset_pairs, params, variant_cfg)
    print(f"variant={args.variant} params={model_mod.count_params(variant_cfg)}")
    if history:
        print(f"steps={len(history)} first_loss={history[0].loss:.6f} last_loss={history[-1].loss:.6f}")
    print(MetricReport.CSV_HEADER)
    print(mean.to_csv_row("mean"))
    return 0


def cmd_params(args, cfg: runconfig.RunConfig) -> int:
    spec = model_mod.param_spec(cfg.model)
    groups: dict = {}
    for path, shape in spec.items():
        group = path.split(".", 1)[0]
        groups[group] = groups.get(group, 0) + int(np.prod(shape))
    for group, count in groups.items():
        print(f"{group}: {count}")
    print(f"total: {model_mod.count_params(cfg.model)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnet",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = runconfig.describe_keys()

    def add(name: str, help_text: str):
        p = sub.add_parser(
            name,
            help=help_text,
            epilog=config_help,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        _add_config_args(p)
        return p

    p = add("gen", "generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--force", action="store_true", help="write into a non-empty directory, replacing its dataset")
    p.set_defaults(func=cmd_gen)

    p = add("train", "train a model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="run directory for checkpoints and loss CSV")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(func=cmd_train)

    p = add("eval", "evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--ckpt", required=True, help="checkpoint file")
    p.set_defaults(func=cmd_eval)

    p = add("infer", "run inference on one stored exposure stack")
    p.add_argument("--stack", required=True, help="sample archive holding frames + exposure times")
    p.add_argument("--ckpt", required=True, help="checkpoint file")
    p.add_argument("--out", required=True, help="output prediction file (CRT1; PFMs written alongside)")
    p.set_defaults(func=cmd_infer)

    p = add("ablate", "train + evaluate a named architecture variant")
    p.add_argument("--variant", required=True, choices=list(model_mod.ABLATION_VARIANTS))
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_ablate)

    p = add("params", "print parameter counts for a config")
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, runconfig.resolve(args.config, args.overrides, args.preset))
    except ConfigError as exc:
        print(f"crnet: error: [usage] {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"crnet: error: [numeric] {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, OSError, ValueError) as exc:
        print(f"crnet: error: [data] {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
