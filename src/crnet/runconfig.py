"""Flat, namespaced run configuration shared by every CLI command.

Keys look like ``model.base_channels`` or ``train.crop`` and map onto
the architecture, training, degradation, and scene dataclasses. Config
files are plain ``key = value`` lines with ``#`` comments; command-line
overrides win over file values. Unknown keys are rejected, and every
key has a documented default that shows up in ``--help``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

from .model import CRNetConfig
from .synth import DegradeSpec, SceneSpec
from .train import TrainConfig


class ConfigError(ValueError):
    """Bad key, bad value, or unparseable config text."""


_SECTIONS = (
    ("model", CRNetConfig),
    ("train", TrainConfig),
    ("data", DegradeSpec),
    ("scene", SceneSpec),
)
# Not settable through the flat key space: per-sample seeds and motion
# curves are derived, not configured.
_EXCLUDED = {("scene", "seed"), ("scene", "motion")}

# Desk-scale preset (--preset desk): small enough that the full
# acceptance run fits a laptop CPU budget.
DESK_PRESET: Dict[str, object] = {
    "model.base_channels": 8,
    "model.n_ceb": 2,
    "model.n_hfem": 1,
    "model.attn_heads": 2,
    "train.crop": 32,
    "train.epochs": 10,
    "train.batch": 2,
    "scene.size": (32, 32),
}


def registry() -> Dict[str, object]:
    """Ordered mapping of every accepted key to its default value."""
    reg: Dict[str, object] = {}
    for prefix, cls in _SECTIONS:
        for f in dataclasses.fields(cls):
            if (prefix, f.name) in _EXCLUDED:
                continue
            reg[f"{prefix}.{f.name}"] = f.default
    return reg


def _format_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def describe_keys() -> str:
    lines = ["configuration keys (key = value lines in --config files, or --set key=value):"]
    for key, default in registry().items():
        lines.append(f"  {key} = {_format_value(default)}")
    return "\n".join(lines)


def _parse_value(key: str, text: str, default) -> object:
    text = text.strip()
    try:
        if isinstance(default, bool):
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {text!r}")
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, tuple):
            elem = type(default[0])
            return tuple(elem(part) for part in text.split(","))
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


@dataclass
class RunConfig:
    model: CRNetConfig
    train: TrainConfig
    degrade: DegradeSpec
    scene: SceneSpec


def build_run_config(values: Dict[str, object]) -> RunConfig:
    """Materialize the dataclasses from a flat key -> value mapping."""
    reg = registry()
    for key in values:
        if key not in reg:
            raise ConfigError(f"unknown config key {key!r}")
    kwargs: Dict[str, Dict[str, object]] = {prefix: {} for prefix, _ in _SECTIONS}
    for key, value in values.items():
        prefix, name = key.split(".", 1)
        kwargs[prefix][name] = value
    cfg = RunConfig(
        model=CRNetConfig(**kwargs["model"]),
        train=TrainConfig(**kwargs["train"]),
        degrade=DegradeSpec(**kwargs["data"]),
        scene=SceneSpec(**kwargs["scene"]),
    )
    for section in (cfg.model, cfg.train, cfg.degrade, cfg.scene):
        try:
            section.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return cfg


def _parse_entries(lines, path=None) -> Dict[str, object]:
    """``key=value`` entries: --set overrides or, given ``path``, the lines
    of that config file, where '#' starts a comment and errors start with
    ``path:lineno:``."""
    reg = registry()
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        if path is None:
            entry, at, expected = raw, "", "--set expects key=value"
        else:
            entry, at, expected = raw.split("#", 1)[0].strip(), f"{path}:{lineno}: ", "expected 'key = value'"
            if not entry:
                continue
        if "=" not in entry:
            raise ConfigError(f"{at}{expected}, got {raw!r}")
        key, _, value = entry.partition("=")
        key = key.strip()
        if key not in reg:
            raise ConfigError(f"{at}unknown config key {key!r}")
        values[key] = _parse_value(key, value, reg[key])
    return values


def resolve(config_file=None, overrides=None, preset: str | None = None) -> RunConfig:
    """Layer defaults <- preset <- config file <- --set overrides."""
    values: Dict[str, object] = {}
    if preset == "desk":
        values.update(DESK_PRESET)
    elif preset is not None:
        raise ConfigError(f"unknown preset {preset!r}; available: desk")
    if config_file is not None:
        values.update(_parse_entries(Path(config_file).read_text(encoding="utf-8").splitlines(), config_file))
    values.update(_parse_entries(overrides or ()))
    return build_run_config(values)
