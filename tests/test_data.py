"""Synthetic data tests: determinism, radiometric properties, and the
dataset directory format."""

import numpy as np
import pytest

from crnet.model import NUM_FRAMES, CRNetConfig, ExposureStack, preprocess, warp_by_flow
from crnet.storage import FormatError, read_archive, write_archive
from crnet.synth import (
    BLUR_FRAMES,
    MOTION,
    QUANT_LEVELS,
    DegradeSpec,
    SampleRecord,
    SceneSpec,
    generate_sample,
    generate_scene,
    read_dataset,
    render_bracket,
    write_dataset,
)
from crnet.tensor import Tensor

ZERO_MOTION = np.zeros((5, 2))


def seed0_noise():
    """A fresh noise generator, the stream generate_sample draws for scene seed 0."""
    return np.random.default_rng(np.random.SeedSequence([0, 0xB1A5]))


class TestGenerateScene:
    def test_same_seed_bit_identical(self):
        spec = SceneSpec(seed=42)
        assert np.array_equal(generate_scene(spec), generate_scene(spec))

    def test_different_seeds_differ(self):
        assert not np.array_equal(generate_scene(SceneSpec(seed=1)), generate_scene(SceneSpec(seed=2)))

    def test_degenerate_spec_is_uniform(self):
        scene = generate_scene(SceneSpec(seed=0, n_gradients=0, n_disks=0, n_edges=0))
        assert np.unique(scene[0]).size == 1
        assert np.unique(scene[1]).size == 1

    def test_radiance_bounds(self):
        spec = SceneSpec(seed=3)
        scene = generate_scene(spec)
        assert scene.min() >= 0.0
        assert scene.max() <= spec.dynamic_range

    @pytest.mark.parametrize("seed", range(8))
    def test_histogram_spans_highlight_and_shadow_bands(self, seed):
        spec = SceneSpec(seed=seed)
        scene = generate_scene(spec)
        assert np.count_nonzero(scene > 1.0) > 0, "no saturating region"
        assert np.count_nonzero(scene < spec.dynamic_range / 256) > 0, "no shadow region"

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            generate_scene(SceneSpec(size=(63, 64)))

    def test_specs_are_values(self):
        # Motion is a module constant, so a spec holds no array: equal specs
        # compare equal and hash alike, and a built spec cannot be changed.
        assert SceneSpec(seed=1) == SceneSpec(seed=1)
        assert SceneSpec(seed=1) != SceneSpec(seed=2)
        assert hash(SceneSpec()) == hash(SceneSpec())
        assert not hasattr(SceneSpec(), "motion")

    def test_low_dynamic_range_rejected(self):
        with pytest.raises(ValueError, match="dynamic_range"):
            generate_scene(SceneSpec(dynamic_range=1.0))


class TestRenderBracket:
    def test_noiseless_roundtrip_within_one_lsb(self):
        # Exposure ratios close enough that nothing clips: normalizing
        # every frame back by its ratio recovers the same radiance map
        # up to 12-bit quantization.
        scene = generate_scene(SceneSpec(seed=5, n_disks=0, n_edges=0, n_gradients=2))
        scene *= 0.4 / scene.max()  # headroom so even the longest frame stays unclipped
        d = DegradeSpec(
            exposure_times=(1.0, 1.2, 1.5, 1.8, 2.0),
            read_noise_sigma=0.0,
            shot_noise_scale=0.0,
            blur_taps=1,
        )
        stack = render_bracket(scene, d, ZERO_MOTION, seed0_noise())
        reference = scene / max(scene.max(), 1.0)
        for i, frame in enumerate(stack.frames):
            ratio = d.exposure_times[i]
            recovered = frame / np.float32(ratio)
            assert np.abs(recovered - reference).max() <= 1.0 / 4095.0 / ratio + 1e-7, f"frame {i}"

    def test_zero_scene_noise_mean(self):
        d = DegradeSpec()
        stack = render_bracket(
            np.zeros((4, 64, 64)), d, ZERO_MOTION, np.random.default_rng(17)
        )
        n = stack.frames[0].size
        bound = 3.0 * d.read_noise_sigma / np.sqrt(n)
        assert abs(float(stack.frames[0].mean())) <= bound

    def test_first_frame_least_exposed(self):
        scene = generate_scene(SceneSpec(seed=6))
        d = DegradeSpec(read_noise_sigma=0.0, shot_noise_scale=0.0, blur_taps=1)
        stack = render_bracket(scene, d, ZERO_MOTION, seed0_noise())
        means = [float(f.mean()) for f in stack.frames]
        assert means[0] == min(means)

    def test_exposure_monotonicity_noiseless(self):
        scene = generate_scene(SceneSpec(seed=7))
        d = DegradeSpec(read_noise_sigma=0.0, shot_noise_scale=0.0, blur_taps=1)
        stack = render_bracket(scene, d, ZERO_MOTION, seed0_noise())
        means = [float(f.mean()) for f in stack.frames]
        assert all(means[i + 1] >= means[i] for i in range(4))

    def test_output_satisfies_stack_invariants(self):
        # Construction is the check: generate_sample builds a checked stack and sample.
        sample = generate_sample(SceneSpec(seed=8), DegradeSpec())
        assert sample.stack.frames.shape == (5, 4, 64, 64)

    def test_blur_smears_long_frames(self):
        scene = generate_scene(SceneSpec(seed=9))
        motion = np.array([[0, 0], [2, 0], [4, 0], [6, 0], [8, 0]], dtype=np.float64)
        sharp = render_bracket(
            scene, DegradeSpec(read_noise_sigma=0, shot_noise_scale=0, blur_taps=1), motion, seed0_noise()
        )
        blurred = render_bracket(
            scene, DegradeSpec(read_noise_sigma=0, shot_noise_scale=0, blur_taps=8), motion, seed0_noise()
        )
        assert np.array_equal(sharp.frames[0], blurred.frames[0])  # short frame untouched
        assert not np.array_equal(sharp.frames[4], blurred.frames[4])
        assert float(np.var(blurred.frames[4])) < float(np.var(sharp.frames[4]))

    def test_negative_scene_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            render_bracket(-np.ones((4, 8, 8)), DegradeSpec(), ZERO_MOTION, seed0_noise())


def render_bracket_by_warp(scene, degrade, motion, rng):
    """Oracle: render_bracket's frames, each shift a warp_by_flow with the constant flow (-dx, -dy)."""
    motion = motion - motion[0]
    times = np.asarray(degrade.exposure_times, dtype=np.float64)
    peak = max(float(scene.max()), 1.0)
    frames = []
    for i in range(NUM_FRAMES):
        taps = np.linspace(0.0, 1.0, degrade.blur_taps) if i in BLUR_FRAMES else (0.0,)
        shifts = []
        for t in taps:
            dx, dy = motion[i] + t * (motion[i] - motion[i - 1])
            flow = np.empty((2,) + scene.shape[1:])
            flow[0], flow[1] = -dx, -dy
            shifts.append(warp_by_flow(Tensor(scene[None]), flow).data[0])
        clean = np.clip(np.mean(shifts, axis=0) * (times[i] / times[0]) / peak, 0.0, 1.0)
        read = rng.standard_normal(clean.shape) * degrade.read_noise_sigma
        shot = rng.standard_normal(clean.shape) * np.sqrt(degrade.shot_noise_scale * clean)
        noisy = clean + (read + shot) / (times[i] / times[0])
        frames.append(np.minimum(np.round(noisy * QUANT_LEVELS) / QUANT_LEVELS, 1.0).astype(np.float32))
    return frames


class TestRenderBracketShifts:
    @pytest.mark.parametrize(
        "seed, size, blur_taps, motion",
        [
            (0, (32, 32), 8, MOTION),
            (1, (48, 64), 8, ((0, 0), (1.5, -2.25), (-3, 4), (5.5, 0.75), (-6.25, -1))),
            (2, (40, 24), 3, MOTION),
        ],
    )
    def test_frames_equal_warp_oracle(self, seed, size, blur_taps, motion):
        # A sign or axis slip in the shift shows here: the frames must keep their bytes, not just round alike.
        scene = generate_scene(SceneSpec(seed=seed, size=size))
        degrade = DegradeSpec(blur_taps=blur_taps)
        motion = np.array(motion, dtype=np.float64)
        stack = render_bracket(scene, degrade, motion, np.random.default_rng(seed))
        oracle = render_bracket_by_warp(scene, degrade, motion, np.random.default_rng(seed))
        for i, frame in enumerate(oracle):
            assert stack.frames[i].tobytes() == frame.tobytes(), f"frame {i}"


class TestGroundTruthProperties:
    def test_gt_is_clean_and_matches_reference_scale(self):
        # The reference frame, exposure-normalized, is the ground truth
        # plus noise/quantization only.
        sample = generate_sample(SceneSpec(seed=10), DegradeSpec(read_noise_sigma=0, shot_noise_scale=0, blur_taps=1))
        pre = preprocess(sample.stack, CRNetConfig().gamma)
        assert np.abs(pre[0, :4] - sample.ground_truth).max() <= 1.0 / 4095.0

    def test_sample_generation_deterministic(self):
        a = generate_sample(SceneSpec(seed=11), DegradeSpec())
        b = generate_sample(SceneSpec(seed=11), DegradeSpec())
        assert np.array_equal(a.ground_truth, b.ground_truth)
        for fa, fb in zip(a.stack.frames, b.stack.frames):
            assert np.array_equal(fa, fb)


class TestSampleRecord:
    def make_sample(self, truth=None):
        sample = generate_sample(SceneSpec(seed=12, size=(16, 16)), DegradeSpec())
        truth = sample.ground_truth if truth is None else truth
        return SampleRecord(stack=sample.stack, ground_truth=truth)

    def test_ground_truth_is_a_read_only_copy(self):
        truth = generate_sample(SceneSpec(seed=12, size=(16, 16)), DegradeSpec()).ground_truth.copy()
        sample = self.make_sample(truth)
        truth[:] = np.nan
        assert np.isfinite(sample.ground_truth).all()
        with pytest.raises(ValueError, match="read-only"):
            sample.ground_truth[0, 0, 0] = 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_non_finite_or_negative_ground_truth_rejected(self, bad):
        truth = np.full((4, 16, 16), 0.5, np.float32)
        truth[2, 3, 4] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            self.make_sample(truth)

    def test_ground_truth_at_other_extents_rejected(self):
        with pytest.raises(ValueError, match="frame shape"):
            self.make_sample(np.zeros((4, 8, 16), np.float32))


class TestDatasetFiles:
    def test_roundtrip_bit_exact_on_10_samples(self, tmp_path):
        samples = [generate_sample(SceneSpec(seed=i), DegradeSpec()) for i in range(10)]
        write_dataset(samples, tmp_path)
        loaded = read_dataset(tmp_path)
        assert len(loaded) == 10
        for original, (_, back) in zip(samples, loaded):
            assert np.array_equal(original.ground_truth, back.ground_truth)
            assert np.array_equal(original.stack.exposure_times, back.stack.exposure_times)
            for fa, fb in zip(original.stack.frames, back.stack.frames):
                assert np.array_equal(fa, fb)

    def test_missing_index_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="index"):
            read_dataset(tmp_path)

    def test_truncated_archive_rejected_naming_file(self, tmp_path):
        samples = [generate_sample(SceneSpec(seed=0), DegradeSpec())]
        write_dataset(samples, tmp_path)
        target = tmp_path / "sample00000.crt1a"
        target.write_bytes(target.read_bytes()[:-64])
        with pytest.raises(FormatError, match="sample00000"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize(
        "entry, value, message",
        [("ground_truth", np.nan, "ground truth"), ("frame2", 1.5, "frame 2")],
    )
    def test_bad_values_rejected_naming_file(self, tmp_path, entry, value, message):
        write_dataset([generate_sample(SceneSpec(seed=0, size=(16, 16)), DegradeSpec())], tmp_path)
        target = tmp_path / "sample00000.crt1a"
        entries = read_archive(target)
        entries[entry][0, 1, 2] = value
        write_archive(target, entries)
        with pytest.raises(FormatError, match=f"sample00000.crt1a: .*{message}"):
            read_dataset(tmp_path)

    def test_missing_archive_rejected(self, tmp_path):
        samples = [generate_sample(SceneSpec(seed=0), DegradeSpec())]
        write_dataset(samples, tmp_path)
        (tmp_path / "sample00000.crt1a").unlink()
        with pytest.raises(FormatError, match="missing"):
            read_dataset(tmp_path)

    def test_ids_never_leave_the_directory(self, tmp_path):
        samples = [generate_sample(SceneSpec(seed=0), DegradeSpec())]
        write_dataset(samples, tmp_path / "other")
        write_dataset(samples, tmp_path / "data")
        (tmp_path / "data" / "index.txt").write_text("../other/sample00000\n")
        with pytest.raises(FormatError, match="plain file name"):
            read_dataset(tmp_path / "data")
        # Replacing the dataset deletes only archives inside its own directory.
        write_dataset(samples, tmp_path / "data")
        assert (tmp_path / "other" / "sample00000.crt1a").exists()

    def test_replacing_deletes_listed_ids_with_spaces(self, tmp_path):
        # read_dataset and write_dataset read the index the same way: an id
        # with a space that one loads, the other deletes when it is dropped.
        samples = [generate_sample(SceneSpec(seed=0), DegradeSpec())]
        write_dataset(samples, tmp_path)
        (tmp_path / "sample00000.crt1a").rename(tmp_path / "my sample.crt1a")
        write_dataset(samples, tmp_path)
        (tmp_path / "index.txt").write_text("sample00000\nmy sample\n")
        assert [sid for sid, _ in read_dataset(tmp_path)] == ["sample00000", "my sample"]
        write_dataset(samples, tmp_path)
        assert not (tmp_path / "my sample.crt1a").exists()
        assert [sid for sid, _ in read_dataset(tmp_path)] == ["sample00000"]

    def test_byte_determinism_of_written_files(self, tmp_path):
        samples = [generate_sample(SceneSpec(seed=3), DegradeSpec())]
        write_dataset(samples, tmp_path / "a")
        write_dataset(samples, tmp_path / "b")
        assert (tmp_path / "a" / "sample00000.crt1a").read_bytes() == (
            tmp_path / "b" / "sample00000.crt1a"
        ).read_bytes()
        assert (tmp_path / "a" / "index.txt").read_bytes() == (tmp_path / "b" / "index.txt").read_bytes()
