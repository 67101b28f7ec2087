"""Metric tests: frozen-value oracles, an independent SSIM evaluation,
and the analytic properties of the tone mapper and loss."""

import math

import numpy as np
import pytest

from crnet.metrics import (
    MetricReport,
    compute_report,
    l1_tonemapped_loss,
    mu_law,
    mu_law_np,
    psnr,
    psnr_mu,
    ssim,
    ssim_mu,
)
from crnet.tensor import Tensor, tmean
from tests.gradcheck import finite_difference_check

F64 = np.float64


class TestMuLaw:
    def test_endpoints(self):
        out = mu_law(Tensor(np.array([0.0, 1.0]), dtype=F64), 5000.0)
        assert out.data[0] == 0.0
        assert out.data[1] == pytest.approx(1.0, abs=1e-15)

    def test_frozen_midpoint_value(self):
        # log(2501)/log(5001), evaluated to 40 digits ahead of time.
        out = mu_law(Tensor(np.array([0.5]), dtype=F64), 5000.0)
        assert out.data[0] == pytest.approx(0.9186432718796463, abs=1e-14)

    def test_monotonic_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1000)
        mapped = mu_law(Tensor(grid, dtype=F64), 5000.0).data
        assert np.all(np.diff(mapped) > 0)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            mu_law(Tensor(np.array([-0.01])))

    def test_bad_mu_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            mu_law(Tensor(np.array([0.5])), 0.0)

    def test_gradient_matches_finite_differences(self):
        x = Tensor(np.random.default_rng(0).uniform(0.01, 1.0, (4, 4)), dtype=F64)
        err = finite_difference_check(lambda t: tmean(mu_law(t, 5000.0)), x)
        assert err <= 1e-6


class TestLoss:
    def test_identity_gives_zero(self):
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (2, 3, 3)), dtype=F64)
        assert l1_tonemapped_loss(x, Tensor(x.data.copy(), dtype=F64)).item() == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.uniform(0, 1, (3, 4)), dtype=F64)
        b = Tensor(rng.uniform(0, 1, (3, 4)), dtype=F64)
        assert l1_tonemapped_loss(a, b).item() == l1_tonemapped_loss(b, a).item()

    def test_two_pixel_scalar_oracle(self):
        mu = 5000.0
        pred = Tensor(np.array([0.25, 0.75]), dtype=F64)
        target = Tensor(np.array([0.5, 0.5]), dtype=F64)
        t = lambda v: math.log1p(mu * v) / math.log1p(mu)
        want = (abs(t(0.5) - t(0.25)) + abs(t(0.5) - t(0.75))) / 2.0
        assert l1_tonemapped_loss(pred, target, mu).item() == pytest.approx(want, abs=1e-14)

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.uniform(0, 1, (4, 4)), dtype=F64)
        b = Tensor(rng.uniform(0, 1, (4, 4)), dtype=F64)
        assert l1_tonemapped_loss(a, b).item() > 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            l1_tonemapped_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))

    def test_gradient(self):
        target = Tensor(np.random.default_rng(4).uniform(0.2, 0.8, (3, 3)), dtype=F64)
        x = Tensor(np.random.default_rng(5).uniform(0.2, 0.8, (3, 3)), dtype=F64)
        err = finite_difference_check(lambda t: l1_tonemapped_loss(t, target), x)
        assert err <= 1e-6


class TestPSNR:
    def test_identical_is_infinite(self):
        a = np.random.default_rng(6).uniform(0, 1, (4, 4))
        assert psnr(a, a) == math.inf
        assert psnr_mu(a, a) == math.inf

    def test_20db_case(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)  # MSE = 0.01
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_mu_flavor_tone_maps_first(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, (8, 8))
        b = rng.uniform(0, 1, (8, 8))
        assert psnr_mu(a, b) == pytest.approx(psnr(mu_law_np(a), mu_law_np(b)), abs=1e-12)


def ssim_loops(a, b):
    """Direct per-window SSIM evaluation, independent of the vectorized path."""
    size, sigma, k1, k2 = 11, 1.5, 0.01, 0.03
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords**2) / (2 * sigma**2))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    c1, c2 = k1**2, k2**2
    h, w = a.shape
    values = []
    for y in range(h - size + 1):
        for x in range(w - size + 1):
            wa = a[y : y + size, x : x + size]
            wb = b[y : y + size, x : x + size]
            mu_a = (kernel * wa).sum()
            mu_b = (kernel * wb).sum()
            var_a = (kernel * wa * wa).sum() - mu_a**2
            var_b = (kernel * wb * wb).sum() - mu_b**2
            cov = (kernel * wa * wb).sum() - mu_a * mu_b
            values.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(values))


class TestSSIM:
    def test_self_similarity(self):
        x = np.random.default_rng(9).uniform(0, 1, (16, 16))
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_inverted_high_variance_image_scores_below_one(self):
        x = np.random.default_rng(10).uniform(0, 1, (16, 16))
        assert ssim(x, 1.0 - x) < 1.0

    def test_frozen_16x16_pair_matches_loop_oracle(self):
        rng = np.random.default_rng(1217)
        a = rng.uniform(0, 1, (16, 16))
        b = np.clip(a + rng.normal(0, 0.1, (16, 16)), 0, 1)
        assert ssim(a, b) == pytest.approx(ssim_loops(a, b), abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)

    def test_multichannel_averages_channels(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(0, 1, (2, 16, 16))
        b = rng.uniform(0, 1, (2, 16, 16))
        per = np.mean([ssim(a[0], b[0]), ssim(a[1], b[1])])
        assert ssim(a, b) == pytest.approx(per, abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))
        with pytest.raises(ValueError, match="window"):
            ssim(np.zeros((11, 10)), np.zeros((11, 10)))

    def test_non_square_multichannel_matches_loop_oracle(self):
        rng = np.random.default_rng(1218)
        a = rng.uniform(0, 1, (3, 23, 31))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        want = np.mean([ssim_loops(a[c], b[c]) for c in range(3)])
        assert ssim(a, b) == pytest.approx(want, abs=1e-12)

    def test_value_in_valid_range(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        value = ssim_mu(a, b)
        assert -1.0 <= value <= 1.0


class TestMetricReport:
    def test_csv_row_and_header(self):
        report = MetricReport(30.0, 31.5, 0.9, 0.95)
        assert MetricReport.CSV_HEADER.startswith("sample_id")
        row = report.to_csv_row("sample00001")
        assert row.split(",")[0] == "sample00001"
        assert len(row.split(",")) == 5

    def test_compute_report(self):
        rng = np.random.default_rng(14)
        a = rng.uniform(0, 1, (2, 16, 16))
        report = compute_report(a, a)
        assert report.psnr_linear == math.inf
        assert report.ssim_linear == pytest.approx(1.0, abs=1e-9)
