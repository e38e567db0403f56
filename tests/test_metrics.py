"""Tests for histogram TV, marginal accuracy, and the mode diagnostics."""

import math

import numpy as np
import pytest

from rtkbench.metrics import (
    ConditionalHistogram,
    Histogram1D,
    MetricsRow,
    conditional_histogram,
    histogram_tv,
    marginal_accuracy,
    mode_mass,
    pooled_edges,
    second_moment,
)
from rtkbench.targets import IsotropicGaussianMixture, sample_base


class TestHistogram1D:
    def test_mass_accounting(self):
        edges = np.linspace(-1, 1, 11)
        x = np.array([-2.0, -0.95, 0.0, 0.5, 3.0])
        h = Histogram1D.from_samples(x, edges)
        assert h.mass.sum() + h.out_of_range == pytest.approx(1.0, abs=1e-15)
        assert h.out_of_range == pytest.approx(0.4)
        assert h.n == 5
        assert not h.empty

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram1D(np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.5]), 0.0, 2)
        with pytest.raises(ValueError):
            Histogram1D(np.array([0.0, 1.0]), np.array([0.7]), 0.0, 2)
        with pytest.raises(ValueError):
            Histogram1D(np.array([0.0, 1.0]), np.array([-0.1]), 1.1, 2)

    def test_empty_flag(self):
        h = Histogram1D.from_samples(np.array([]), np.array([0.0, 1.0]))
        assert h.empty
        assert h.mass.sum() == 0.0

    def test_right_edge_included(self):
        h = Histogram1D.from_samples(np.array([1.0]), np.array([0.0, 0.5, 1.0]))
        assert h.mass.tolist() == [0.0, 1.0]
        assert h.out_of_range == 0.0


class TestHistogramTv:
    def test_identical_samples(self):
        x = np.random.default_rng(0).standard_normal(500)
        edges = pooled_edges(x, x, 50)
        assert histogram_tv(x, x, edges) == 0.0

    def test_disjoint_supports(self):
        a = np.random.default_rng(1).uniform(0.0, 1.0, 300)
        b = np.random.default_rng(2).uniform(2.0, 3.0, 300)
        edges = pooled_edges(a, b, 30)
        assert histogram_tv(a, b, edges) == pytest.approx(1.0)

    def test_large_matched_normals(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(100_000)
        b = rng.standard_normal(100_000)
        edges = np.linspace(-4, 4, 101)
        assert histogram_tv(a, b, edges) <= 0.02

    def test_out_of_range_mass_counts(self):
        edges = np.linspace(-1, 1, 5)
        a = np.zeros(10)
        b = np.full(10, 5.0)  # entirely out of range
        assert histogram_tv(a, b, edges) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram_tv(np.array([]), np.array([1.0]), np.array([0.0, 1.0]))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), 200)
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), 200)
            c = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), 200)
            edges = np.linspace(-6, 6, 41)
            ab = histogram_tv(a, b, edges)
            bc = histogram_tv(b, c, edges)
            ac = histogram_tv(a, c, edges)
            assert ac <= ab + bc + 1e-14

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(400)
        b = rng.normal(0.3, 1.2, 600)
        edges = pooled_edges(a, b, 25)
        assert histogram_tv(a, b, edges) == histogram_tv(b, a, edges)


class TestMarginalAccuracy:
    def test_identical_is_one(self):
        x = np.random.default_rng(6).standard_normal((2000, 3))
        assert marginal_accuracy(x, x) == 1.0

    def test_total_separation_is_half(self):
        a = np.zeros((100, 2))
        b = np.full((100, 2), 7.0)
        assert marginal_accuracy(a, b) == pytest.approx(0.5)

    def test_independent_mixture_draws(self):
        mix = IsotropicGaussianMixture.ring(12, 10)
        a = sample_base(mix, 100_000, np.random.default_rng(7))
        b = sample_base(mix, 100_000, np.random.default_rng(8))
        assert marginal_accuracy(a, b) >= 0.98

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            marginal_accuracy(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3000, 4))
        b = rng.normal(0.1, 1.1, (5000, 4))
        assert marginal_accuracy(a, b) == marginal_accuracy(b, a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_lands_out_of_range(self, bad):
        rng = np.random.default_rng(11)
        ref = rng.standard_normal((2000, 2))
        x = ref[:100].copy()
        x[0, 0] = bad
        edges = pooled_edges(x[:, 0], ref[:, 0], 100)
        assert np.array_equal(edges, pooled_edges(ref[:, 0], ref[:, 0], 100))
        assert Histogram1D.from_samples(x[:, 0], edges).out_of_range == pytest.approx(0.01)
        clean = marginal_accuracy(ref[:100], ref)
        assert clean - 0.005 <= marginal_accuracy(x, ref) <= clean

    def test_all_non_finite_gives_finite_edges(self):
        edges = pooled_edges(np.array([np.nan, np.inf]), np.array([-np.inf]), 4)
        assert np.isfinite(edges).all() and (np.diff(edges) > 0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4000, 2))
        b = rng.normal(0.2, 0.9, (4000, 2))
        shift = 3.25
        assert marginal_accuracy(a + shift, b + shift) == marginal_accuracy(a, b)


class TestConditionalHistogram:
    def test_wide_window_matches_unconditional(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5000, 3))
        edges = np.linspace(-4, 4, 41)
        cond = conditional_histogram(x, 0, -1e9, 1e9, 2, edges=edges)
        plain = Histogram1D.from_samples(x[:, 2], edges)
        np.testing.assert_array_equal(cond.histogram.mass, plain.mass)
        assert cond.retained_fraction == 1.0

    def test_empty_window_flagged(self):
        x = np.zeros((50, 2))
        cond = conditional_histogram(x, 0, 5.0, 6.0, 1)
        assert cond.empty
        assert cond.retained_fraction == 0.0

    def test_open_interval(self):
        x = np.array([[0.75, 1.0], [1.0, 2.0], [1.25, 3.0]])
        cond = conditional_histogram(x, 0, 0.75, 1.25, 1, bins=4)
        assert cond.histogram.n == 1  # endpoints excluded

    def test_ring_mixture_slice_peaks_at_zero(self):
        # conditioning dim 0 to (0.75, 1.25) keeps the angle-0 component and
        # its two neighbours; the dim-1 histogram peaks in the bin holding 0
        mix = IsotropicGaussianMixture.ring(12, 10)
        x = sample_base(mix, 200_000, np.random.default_rng(12))
        cond = conditional_histogram(x, 0, 0.75, 1.25, 1, bins=30)
        assert 0.15 <= cond.retained_fraction <= 0.35
        peak = np.argmax(cond.histogram.mass)
        lo, hi = cond.histogram.edges[peak], cond.histogram.edges[peak + 1]
        assert lo <= 0.0 <= hi

    def test_bad_window(self):
        with pytest.raises(ValueError):
            conditional_histogram(np.zeros((5, 2)), 0, 1.0, 1.0, 1)


class TestModeMass:
    def test_exact_draws_near_uniform(self):
        mix = IsotropicGaussianMixture.ring(12, 10)
        x = sample_base(mix, 100_000, np.random.default_rng(13))
        frac = mode_mass(x, mix)
        assert frac.shape == (12,)
        assert frac.sum() == pytest.approx(1.0, abs=1e-12)
        assert (frac >= 0.075).all() and (frac <= 0.092).all()

    def test_single_mode_capture(self):
        mix = IsotropicGaussianMixture.ring(12, 10)
        x = np.tile(mix.means[3], (40, 1))
        frac = mode_mass(x, mix)
        assert frac[3] == 1.0
        assert frac.sum() == 1.0


class TestSecondMoment:
    def test_zeros(self):
        assert second_moment(np.zeros((10, 4))) == 0.0

    def test_standard_normal(self):
        x = np.random.default_rng(14).standard_normal((100_000, 10))
        assert second_moment(x) == pytest.approx(10.0, abs=0.15)

    def test_ring_mixture_value(self):
        mix = IsotropicGaussianMixture.ring(12, 10)
        x = sample_base(mix, 100_000, np.random.default_rng(15))
        want = 1.0 + 10 * 0.007
        se = math.sqrt(np.var((x * x).sum(axis=1)) / x.shape[0])
        assert second_moment(x) == pytest.approx(want, abs=3 * se)
        assert mix.second_moment() == pytest.approx(want, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            second_moment(np.zeros((0, 3)))


class TestMetricsRow:
    def test_csv_row_format(self):
        row = MetricsRow("mala", 500, 7, 0.9321234567891, 1.0701,
                         0.873, 12.5)
        assert MetricsRow.CSV_HEADER == "method,nfe,seed,marginal_accuracy,second_moment,accept_rate,wall_ms"
        assert row.csv_row() == "mala,500,7,0.9321234568,1.0701,0.873,12.5"

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsRow("x", 1, 0, 1.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            MetricsRow("x", -1, 0, 0.5, 0.0, 0.0, 0.0)
