"""Procedural scenes and exposure-bracket rendering, plus dataset files.

A scene is a piecewise-smooth radiance field (gradients, disks, hard
edges) in [0, dynamic_range] relative units, generated deterministically
from a seed. Rendering shifts it per frame (global translation),
motion-blurs the long exposures, exposes and clips each frame, adds
heteroscedastic sensor noise, and quantizes to 12 bits. Ground truth is
the unshifted, noise-free scene scaled to the reference exposure.

The synthetic degradations are stand-ins with invented parameters; they
exercise the pipeline, they do not reproduce any real capture process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .model import NUM_FRAMES, RAW_CHANNELS, ExposureStack, validate_exposure_times, warp_by_flow
from .storage import FormatError, read_archive, write_archive
from .tensor import Tensor

QUANT_LEVELS = 4095  # 12-bit raw
BLUR_FRAMES = (3, 4)  # the two longest exposures pick up motion blur


def _default_motion() -> np.ndarray:
    # Linear drift of (0.5, 0.25) px per frame.
    steps = np.arange(NUM_FRAMES, dtype=np.float64)
    return np.stack([0.5 * steps, 0.25 * steps], axis=1)


@dataclass
class SceneSpec:
    seed: int = 0
    size: Tuple[int, int] = (64, 64)
    n_gradients: int = 3
    n_disks: int = 6
    n_edges: int = 3
    dynamic_range: float = 16.0
    motion: np.ndarray = field(default_factory=_default_motion)

    def validate(self) -> None:
        h, w = self.size
        if h % 2 or w % 2 or h < 2 or w < 2:
            raise ValueError(f"scene: size {self.size} must be positive and even in both extents")
        if min(self.n_gradients, self.n_disks, self.n_edges) < 0:
            raise ValueError("scene: n_gradients, n_disks and n_edges must be >= 0")
        if not 1 < self.dynamic_range < np.inf:
            raise ValueError(f"scene: dynamic_range must be finite and exceed 1, got {self.dynamic_range}")
        if np.asarray(self.motion).shape != (NUM_FRAMES, 2):
            raise ValueError(f"scene: motion must be [{NUM_FRAMES}, 2] (dx, dy) rows")


@dataclass
class DegradeSpec:
    exposure_times: Tuple[float, ...] = (1.0, 4.0, 16.0, 64.0, 256.0)
    read_noise_sigma: float = 0.02
    shot_noise_scale: float = 0.01
    blur_taps: int = 8

    def validate(self) -> None:
        validate_exposure_times(self.exposure_times, "degrade")
        if self.blur_taps < 1:
            raise ValueError("degrade: blur_taps must be >= 1")
        if not (0 <= self.read_noise_sigma < np.inf and 0 <= self.shot_noise_scale < np.inf):
            raise ValueError("degrade: noise values must be finite and >= 0")


@dataclass
class SampleRecord:
    """One dataset unit: a degraded bracket and its clean target."""

    stack: ExposureStack
    ground_truth: np.ndarray


def generate_scene(spec: SceneSpec) -> np.ndarray:
    """Deterministic [RAW_CHANNELS, H, W] radiance field in [0, dynamic_range].

    With at least two disks the field is guaranteed to contain a region
    brighter than 1.0 (clips the short tone scales) and one darker than
    dynamic_range/256 (noise-dominated at the shortest exposure). Zero
    content counts give a uniform mid-gray field.
    """
    spec.validate()
    h, w = spec.size
    rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed), 0x5CEE]))
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    diag = float(np.hypot(h, w))
    lum = np.full((h, w), 0.5)

    for _ in range(spec.n_gradients):
        theta = rng.uniform(0, 2 * np.pi)
        amplitude = rng.uniform(0.1, 0.6)
        lum += amplitude * (np.cos(theta) * xs + np.sin(theta) * ys) / diag

    for _ in range(spec.n_edges):
        theta = rng.uniform(0, 2 * np.pi)
        threshold = rng.uniform(-0.3, 0.3)
        side = (np.cos(theta) * (xs - w / 2) + np.sin(theta) * (ys - h / 2)) / diag > threshold
        lum = np.where(side, lum * rng.uniform(0.3, 1.8), lum)

    def stamp_disk(value: float, cy: float, cx: float, radius: float) -> None:
        mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= radius**2
        lum[mask] = value

    small = min(h, w)
    for i in range(spec.n_disks - 2):
        stamp_disk(
            float(spec.dynamic_range * rng.uniform(0.0, 1.0) ** 2),
            rng.uniform(0, h),
            rng.uniform(0, w),
            rng.uniform(small / 16, small / 4),
        )
    # Guaranteed highlight and deep-shadow regions, placed in opposite
    # quadrants so neither can overwrite the other.
    if spec.n_disks >= 2:
        jitter = small / 16
        stamp_disk(
            spec.dynamic_range,
            h / 4 + rng.uniform(-jitter, jitter),
            w / 4 + rng.uniform(-jitter, jitter),
            rng.uniform(small / 16, small / 8),
        )
        stamp_disk(
            float(rng.uniform(0.0, spec.dynamic_range / 512)),
            3 * h / 4 + rng.uniform(-jitter, jitter),
            3 * w / 4 + rng.uniform(-jitter, jitter),
            rng.uniform(small / 16, small / 8),
        )
    elif spec.n_disks == 1:
        stamp_disk(spec.dynamic_range, h / 4, w / 4, small / 8)

    gains = rng.uniform(0.6, 1.0, RAW_CHANNELS)
    gains[2] = gains[1]  # the two green planes stay close
    scene = np.clip(lum[None] * gains[:, None, None], 0.0, spec.dynamic_range)
    return scene.astype(np.float64)


def render_bracket(
    scene: np.ndarray,
    degrade: DegradeSpec,
    motion: np.ndarray,
    rng: np.random.Generator | None = None,
) -> ExposureStack:
    """Render the five-exposure degraded stack of a radiance scene.

    Frame i shows the scene shifted by motion[i]; the two longest frames
    integrate blur_taps sub-positions along the inter-frame drift.
    Exposure uses clip(scene * ratio_i / peak, 0, 1) with peak = the
    scene's nominal dynamic range ceiling inferred as max(scene, 1);
    read and shot noise shrink with exposure ratio and frames quantize
    to 12 bits (negative noise excursions below the black point are
    kept, the top clips at 1).
    """
    degrade.validate()
    scene = np.asarray(scene, dtype=np.float64)
    if np.any(scene < 0):
        raise ValueError("render_bracket: scene radiance must be non-negative")
    # Motion is relative drift; the reference frame always sits on the
    # ground-truth geometry.
    motion = np.asarray(motion, dtype=np.float64)
    motion = motion - motion[0]
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([0, 0xB1A5]))
    times = np.asarray(degrade.exposure_times, dtype=np.float64)
    peak = max(float(scene.max()), 1.0)
    source = Tensor(scene[None])

    def translate(dx: float, dy: float) -> np.ndarray:
        """Content moved by (+dx, +dy) px: a constant backward warp by (-dx, -dy).

        The flow stays float64; float32 would round the sub-pixel shift.
        """
        flow = np.empty((2,) + scene.shape[1:], dtype=np.float64)
        flow[0], flow[1] = -dx, -dy
        return warp_by_flow(source, flow).data[0]

    frames: List[np.ndarray] = []
    for i in range(NUM_FRAMES):
        ratio = times[i] / times[0]
        # A sharp frame is the blur average over the single tap t = 0.
        taps = np.linspace(0.0, 1.0, degrade.blur_taps) if i in BLUR_FRAMES else (0.0,)
        drift = motion[i] - motion[i - 1]
        shifted = np.mean(
            [translate(motion[i, 0] + t * drift[0], motion[i, 1] + t * drift[1]) for t in taps],
            axis=0,
        )
        clean = np.clip(shifted * ratio / peak, 0.0, 1.0)
        read = rng.standard_normal(clean.shape) * degrade.read_noise_sigma
        shot = rng.standard_normal(clean.shape) * np.sqrt(degrade.shot_noise_scale * clean)
        noisy = clean + (read + shot) / ratio
        quantized = np.minimum(np.round(noisy * QUANT_LEVELS) / QUANT_LEVELS, 1.0)
        frames.append(quantized.astype(np.float32))
    return ExposureStack(frames=frames, exposure_times=times.copy())


def generate_sample(scene_spec: SceneSpec, degrade: DegradeSpec) -> SampleRecord:
    """Scene + bracket, fully determined by (scene_spec, degrade)."""
    scene = generate_scene(scene_spec)
    noise_rng = np.random.default_rng(np.random.SeedSequence([int(scene_spec.seed), 0xB1A5]))
    stack = render_bracket(scene, degrade, np.asarray(scene_spec.motion), noise_rng)
    peak = max(float(scene.max()), 1.0)
    return SampleRecord(stack=stack, ground_truth=(scene / peak).astype(np.float32))


# -- dataset persistence -------------------------------------------------------

INDEX_NAME = "index.txt"


def sample_to_entries(sample: SampleRecord) -> dict:
    entries = {f"frame{i}": sample.stack.frames[i] for i in range(NUM_FRAMES)}
    entries["exposure_times"] = np.asarray(sample.stack.exposure_times, dtype=np.float64)
    entries["ground_truth"] = np.asarray(sample.ground_truth, dtype=np.float32)
    return entries


def stack_from_entries(entries: dict, context: str = "<archive>") -> ExposureStack:
    for key in [f"frame{i}" for i in range(NUM_FRAMES)] + ["exposure_times"]:
        if key not in entries:
            raise FormatError(f"{context}: missing entry {key!r}")
    return ExposureStack(
        frames=[entries[f"frame{i}"].astype(np.float32) for i in range(NUM_FRAMES)],
        exposure_times=entries["exposure_times"].astype(np.float64),
    )


def sample_from_entries(entries: dict, context: str = "<archive>") -> SampleRecord:
    stack = stack_from_entries(entries, context)
    if "ground_truth" not in entries:
        raise FormatError(f"{context}: missing entry 'ground_truth'")
    return SampleRecord(stack=stack, ground_truth=entries["ground_truth"].astype(np.float32))


def _is_plain_name(sid: str) -> bool:
    """True when sid names a file directly inside a directory, so no sample id leaves it."""
    return Path(sid).name == sid


def _index_ids(index: Path) -> List[str]:
    """The sample ids an index lists: one per line, surrounding blanks stripped."""
    return list(filter(None, map(str.strip, index.read_text(encoding="utf-8").splitlines())))


def write_dataset(samples: Sequence[SampleRecord], directory) -> List[str]:
    """Write one archive per sample plus the id index; returns the ids.

    Archives that a previous index in the directory listed and the new
    one does not are deleted; other files are left alone.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = directory / INDEX_NAME
    previous = _index_ids(index) if index.exists() else []
    ids = [f"sample{i:05d}" for i in range(len(samples))]
    for sid, sample in zip(ids, samples):
        write_archive(directory / f"{sid}.crt1a", sample_to_entries(sample))
    index.write_text("".join(f"{sid}\n" for sid in ids), encoding="utf-8")
    for sid in set(previous) - set(ids):
        if _is_plain_name(sid):
            (directory / f"{sid}.crt1a").unlink(missing_ok=True)
    return ids


def read_dataset(directory) -> List[Tuple[str, SampleRecord]]:
    directory = Path(directory)
    index = directory / INDEX_NAME
    if not index.exists():
        raise FormatError(f"{index}: dataset index not found")
    samples: List[Tuple[str, SampleRecord]] = []
    for sid in _index_ids(index):
        if not _is_plain_name(sid):
            raise FormatError(f"{index}: sample id {sid!r} is not a plain file name")
        path = directory / f"{sid}.crt1a"
        if not path.exists():
            raise FormatError(f"{path}: archive listed in index is missing")
        samples.append((sid, sample_from_entries(read_archive(path), context=str(path))))
    return samples
