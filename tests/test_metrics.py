"""Tests for marginal accuracy, the mode diagnostics and the second moment."""

import math
import warnings

import numpy as np
import pytest

from rtkbench.metrics import (
    MetricsRow,
    SortedReference,
    marginal_accuracy,
    mode_mass,
    second_moment,
)
from rtkbench.targets import IsotropicGaussianMixture, sample_base


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

    def test_empty_sample_or_reference_rejected(self):
        ref = np.random.default_rng(12).standard_normal((100, 2))
        for a, b in ((np.zeros((0, 2)), ref), (ref, np.zeros((0, 2)))):
            with pytest.raises(ValueError, match="nonempty"):
                marginal_accuracy(a, b)

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
        # The entry is left out of the edge range and binned out of range.
        assert marginal_accuracy(x, ref) == per_column_accuracy(x, ref, 100)
        clean = marginal_accuracy(ref[:100], ref)
        assert clean - 0.005 <= marginal_accuracy(x, ref) <= clean

    def test_all_non_finite_gives_finite_edges(self):
        x, ref = np.array([[np.nan], [np.inf]]), np.array([[-np.inf]])
        assert marginal_accuracy(x, ref, 4) == per_column_accuracy(x, ref, 4) == 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4000, 2))
        b = rng.normal(0.2, 0.9, (4000, 2))
        shift = 3.25
        assert marginal_accuracy(a + shift, b + shift) == marginal_accuracy(a, b)


def per_column_accuracy(samples, reference, bins):
    """marginal_accuracy as a per-column loop: pooled finite range, then np.histogram."""
    def finite_range(x):
        finite = x[np.isfinite(x)]
        return np.min(finite, initial=np.inf), np.max(finite, initial=-np.inf)

    def binned(x, edges):
        counts = np.histogram(x, bins=edges)[0]
        return counts / x.size, float((x.size - counts.sum()) / x.size)

    tvs = []
    for j in range(samples.shape[1]):
        a, b = samples[:, j], reference[:, j]
        (lo_a, hi_a), (lo_b, hi_b) = finite_range(a), finite_range(b)
        lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
        if not (hi >= lo):
            lo = hi = 0.0
        if not (hi > lo):
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, bins + 1)
        (mass_a, oor_a), (mass_b, oor_b) = binned(a, edges), binned(b, edges)
        tvs.append(float(0.5 * np.abs(mass_a - mass_b).sum() + 0.5 * abs(oor_a - oor_b)))
    return float(1.0 - 0.5 * np.mean(tvs))


def reference_and_samples(d, n_ref=20_000, seed=21):
    mix = IsotropicGaussianMixture.ring(12, max(d, 2))
    rng = np.random.default_rng(seed)
    ref = sample_base(mix, n_ref, rng)[:, :d]
    ref[:, -1] = 0.75  # a constant column
    x = sample_base(mix, 600, rng)[:, :d] * 1.1
    x[0, 0], x[1, 0], x[2, min(1, d - 1)] = np.nan, np.inf, -np.inf
    x[3:40, 0] = x[40, 0]  # duplicates
    return ref, x


class TestSortedReference:
    @pytest.mark.parametrize("d", [1, 2, 10, 32])
    @pytest.mark.parametrize("bins", [1, 10, 100])
    def test_bit_equal_to_the_per_column_loop(self, d, bins):
        ref, x = reference_and_samples(d)
        want = per_column_accuracy(x, ref, bins)
        assert marginal_accuracy(x, ref, bins) == want
        shared = SortedReference(ref.copy())
        assert marginal_accuracy(x, shared, bins) == want
        assert marginal_accuracy(x[:50], shared, bins) == per_column_accuracy(x[:50], ref, bins)

    def test_plain_reference_is_left_unchanged(self):
        ref, x = reference_and_samples(4)
        before = ref.copy()
        marginal_accuracy(x, ref)
        assert ref.tobytes() == before.tobytes()
        assert ref.flags.writeable

    def test_sorts_its_own_array_in_place_once(self):
        ref, _ = reference_and_samples(3)
        owned = ref.copy()
        shared = SortedReference(owned)
        data, ranges = shared.sorted_columns()
        assert np.shares_memory(data, owned) and not owned.flags.writeable
        np.testing.assert_array_equal(data, np.sort(ref, axis=0))
        assert ranges == [(ref[:, j].min(), ref[:, j].max()) for j in range(3)]
        assert shared.sorted_columns()[0] is data

    def test_the_first_call_sorts_the_drawn_reference_in_place(self):
        check_sorted_on_first_call()


def check_sorted_on_first_call():
    """A run's reference sorts nothing when built, then sorts in place.

    perfbench charges the reference's draw to sample_base and its sort to
    the first marginal_accuracy call; a sort at construction would run in
    neither.
    """
    mix = IsotropicGaussianMixture.ring(12, 6)
    drawn = sample_base(mix, 5000, np.random.default_rng(21))
    before = drawn.copy()
    reference = SortedReference(drawn)
    assert drawn.tobytes() == before.tobytes() and drawn.flags.writeable
    x = sample_base(mix, 300, np.random.default_rng(22))
    acc = marginal_accuracy(x, reference)
    data, _ = reference.sorted_columns()
    assert np.shares_memory(data, drawn) and not drawn.flags.writeable
    assert drawn.tobytes() == np.sort(before, axis=0).tobytes()
    c_ordered = SortedReference(np.ascontiguousarray(before))
    assert marginal_accuracy(x, c_ordered) == acc
    assert c_ordered.sorted_columns()[0].tobytes() == data.tobytes()


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

    def test_matches_the_difference_tensor_reference(self):
        mix = IsotropicGaussianMixture.ring(12, 10)
        rng = np.random.default_rng(16)
        x = np.vstack([sample_base(mix, 300, rng), rng.normal(scale=2.0, size=(300, 10))])
        diff = x[:, None, :] - mix.means[None, :, :]
        nearest = np.argmin((diff * diff).sum(axis=-1), axis=1)
        want = np.bincount(nearest, minlength=12) / x.shape[0]
        np.testing.assert_array_equal(mode_mass(x, mix), want)

    def test_non_finite_and_huge_rows(self):
        mix = IsotropicGaussianMixture.ring(12, 10)
        x = np.tile(mix.means[3], (5, 1))
        x[0], x[1, 4], x[2, 0] = np.nan, np.inf, -np.inf  # count toward component 0
        x[3] = 1e200 * mix.means[6]  # finite: nearest mean is still the sixth
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frac = mode_mass(x, mix)
        assert frac[0] == 0.6 and frac[6] == 0.2 and frac[3] == 0.2


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

    def test_overflow_is_inf_without_a_warning(self):
        x = np.zeros((4, 3))
        x[0, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert second_moment(x) == math.inf


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
