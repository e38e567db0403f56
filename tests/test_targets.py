"""Tests for the analytic mixture targets and the score oracle."""

import functools
import hashlib
import math
import pickle
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rtkbench import cli, targets
from rtkbench.targets import (
    IsotropicGaussianMixture,
    ScoreOracle,
    forward_marginal,
    log_density,
    sample_base,
    score,
)

LOG_PHI_0 = -0.9189385332046727  # log N(0; 0, 1) = -0.5 log(2 pi)


def two_comp_1d(s2=1.0):
    return IsotropicGaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [s2, s2])


def preset_ring():
    return IsotropicGaussianMixture.ring(12, 10, radius=1.0, variance=0.007)


class TestMixtureConstruction:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            IsotropicGaussianMixture([0.5, 0.4], [[0.0], [1.0]], [1.0, 1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            IsotropicGaussianMixture([1.5, -0.5], [[0.0], [1.0]], [1.0, 1.0])

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            IsotropicGaussianMixture([1.0], [[0.0]], [0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IsotropicGaussianMixture([1.0], [[0.0], [1.0]], [1.0, 1.0])

    def test_arrays_immutable(self):
        mix = two_comp_1d()
        with pytest.raises(ValueError):
            mix.weights[0] = 0.3

    @pytest.mark.parametrize("weights, means, variances", [
        ([math.nan], [[0.0, 0.0]], [1.0]),
        ([1.0], [[math.nan, 0.0]], [math.nan]),
        ([1.0], [[math.inf, 0.0]], [1.0]),
        ([1.0], [[0.0, 0.0]], [math.inf]),
    ], ids=["nan-weight", "nan-mean-and-variance", "inf-mean", "inf-variance"])
    def test_non_finite_parameters_rejected(self, weights, means, variances):
        with pytest.raises(ValueError):
            IsotropicGaussianMixture(weights, means, variances)

    def test_pickle_round_trip_rebuilds_through_the_constructor(self):
        mix = preset_ring()
        score(mix, 0.3, np.ones((2, 10)))  # fill the kernel-constant slot
        back = pickle.loads(pickle.dumps(mix))
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(back, name), getattr(mix, name))
            assert not getattr(back, name).flags.writeable
        assert mix._constants[0] == 0.3 and back._constants == (None, None)
        x = np.random.default_rng(3).standard_normal((5, 10))
        np.testing.assert_array_equal(score(back, 0.3, x), score(mix, 0.3, x))

    def test_ring_needs_a_component(self):
        with pytest.raises(ValueError, match="n_components >= 1"):
            IsotropicGaussianMixture.ring(0, 2)

    def test_ring_geometry(self):
        mix = preset_ring()
        assert mix.dim == 10 and mix.n_components == 12
        np.testing.assert_allclose(np.linalg.norm(mix.means[:, :2], axis=1), 1.0)
        assert np.all(mix.means[:, 2:] == 0.0)
        np.testing.assert_allclose(mix.weights, 1.0 / 12.0)
        np.testing.assert_allclose(mix.variances, 0.007)
        # E||x||^2 = 1 + 10 * 0.007
        assert mix.second_moment() == pytest.approx(1.07, abs=1e-12)


class TestForwardMarginal:
    def test_t_zero_is_identity(self):
        mix = preset_ring()
        out = forward_marginal(mix, 0.0)
        np.testing.assert_array_equal(out.means, mix.means)
        np.testing.assert_array_equal(out.variances, mix.variances)

    def test_component_map_against_monte_carlo(self):
        # Push one component through the rate-1 OU flow by simulation and
        # compare with the closed map (mu e^-t, s2 e^-2t + 1 - e^-2t).
        mu, s2, t = 2.0, 0.5, 0.7
        rng = np.random.default_rng(7)
        n = 400_000
        x0 = mu + math.sqrt(s2) * rng.standard_normal(n)
        xt = math.exp(-t) * x0 + math.sqrt(1 - math.exp(-2 * t)) * rng.standard_normal(n)
        out = forward_marginal(
            IsotropicGaussianMixture([1.0], [[mu]], [s2]), t)
        mean_se = xt.std() / math.sqrt(n)
        var_se = xt.var() * math.sqrt(2.0 / n)
        assert abs(out.means[0, 0] - xt.mean()) < 3 * mean_se
        assert abs(out.variances[0] - xt.var()) < 3 * var_se
        # frozen closed-form values for this case
        assert out.means[0, 0] == pytest.approx(0.993170607582819, abs=1e-14)
        assert out.variances[0] == pytest.approx(0.8767015180291967, abs=1e-14)

    def test_semigroup_composition(self):
        mix = preset_ring()
        one = forward_marginal(mix, 0.9)
        two = forward_marginal(forward_marginal(mix, 0.4), 0.5)
        np.testing.assert_allclose(one.means, two.means, atol=1e-12)
        np.testing.assert_allclose(one.variances, two.variances, atol=1e-12)

    def test_long_time_limit_is_standard_normal(self):
        mix = preset_ring()
        out = forward_marginal(mix, 10.0)
        assert np.linalg.norm(out.means, axis=1).max() <= math.exp(-10.0) * 1.0 + 1e-15
        np.testing.assert_allclose(out.variances, 1.0, atol=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            forward_marginal(preset_ring(), -0.1)


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        mix = IsotropicGaussianMixture.standard_normal(1)
        assert log_density(mix, 0.0, [0.0]) == pytest.approx(LOG_PHI_0, abs=1e-13)

    def test_two_component_value(self):
        # log(0.5 phi(1) + 0.5 phi(-1)) = -0.5 - 0.5 log(2 pi)
        val = log_density(two_comp_1d(), 0.0, [0.0])
        assert val == pytest.approx(-1.4189385332046727, abs=1e-13)

    def test_far_diffused_matches_standard_normal(self):
        mix = preset_ring()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 10))
        got = log_density(mix, 20.0, x)
        want = -0.5 * (x ** 2).sum(axis=1) - 5.0 * math.log(2 * math.pi)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_extreme_point_no_overflow(self):
        val = log_density(preset_ring(), 0.0, np.full(10, 40.0))
        assert np.isfinite(val) and val < -1e5

    def test_batch_matches_single(self):
        mix = preset_ring()
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, 10))
        batch = log_density(mix, 0.3, x)
        singles = [log_density(mix, 0.3, row) for row in x]
        np.testing.assert_allclose(batch, singles, rtol=1e-15)


class TestScore:
    def test_standard_normal_score(self):
        mix = IsotropicGaussianMixture.standard_normal(3)
        x = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(score(mix, 0.0, x), -x, atol=1e-14)

    def test_symmetric_mixture_zero_at_center(self):
        np.testing.assert_allclose(score(two_comp_1d(), 0.0, [0.0]), 0.0, atol=1e-15)

    def test_finite_difference_consistency_preset_mixture(self):
        mix = preset_ring()
        rng = np.random.default_rng(5)
        x = sample_base(forward_marginal(mix, 0.3), 20, rng)
        h = 1e-6
        for t in (0.3,):
            s = score(mix, t, x)
            for j in range(mix.dim):
                e = np.zeros(mix.dim)
                e[j] = h
                fd = (log_density(mix, t, x + e) - log_density(mix, t, x - e)) / (2 * h)
                np.testing.assert_allclose(s[:, j], fd, rtol=1e-5, atol=1e-7)

    def test_finite_difference_property_random_mixtures(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            k, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            w = rng.random(k) + 0.1
            mix = IsotropicGaussianMixture(w / w.sum(), rng.normal(size=(k, d)),
                                           rng.random(k) + 0.2)
            t = float(rng.random() * 2)
            x = rng.normal(size=(8, d))
            s = score(mix, t, x)
            h = 1e-6
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (log_density(mix, t, x + e) - log_density(mix, t, x - e)) / (2 * h)
                np.testing.assert_allclose(s[:, j], fd, rtol=2e-5, atol=1e-7)

    def test_matches_difference_tensor_reference(self):
        # The (n, K, d) difference-tensor form the GEMM kernel replaced; the
        # summation order differs, so agreement is to float64 rounding.
        mix = preset_ring()
        rng = np.random.default_rng(12)
        for t in (0.0, 0.3, 4.8):
            x = sample_base(forward_marginal(mix, t), 200, rng)
            decay = math.exp(-t)
            means = mix.means * decay
            var = mix.variances * decay ** 2 + 1.0 - decay ** 2
            diff = x[:, None, :] - means
            comp = (np.log(mix.weights) - 0.5 * mix.dim * np.log(2 * np.pi * var)
                    - np.einsum("nkd,nkd->nk", diff, diff) / (2 * var))
            top = comp.max(axis=1)
            resp = np.exp(comp - top[:, None])
            want_logp = top + np.log(resp.sum(axis=1))
            resp /= resp.sum(axis=1, keepdims=True)
            want = -np.einsum("nk,nkd->nd", resp / var, diff)
            got, logp = score(mix, t, x, with_log_density=True)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(logp, want_logp, rtol=1e-12, atol=1e-12)

    def test_log_density_from_score_pass_is_bit_equal(self):
        mix = preset_ring()
        x = np.random.default_rng(13).standard_normal((64, 10))
        s, logp = score(mix, 0.7, x, with_log_density=True)
        np.testing.assert_array_equal(s, score(mix, 0.7, x))
        np.testing.assert_array_equal(logp, log_density(mix, 0.7, x))
        s1, logp1 = score(mix, 0.7, x[0], with_log_density=True)
        assert s1.shape == (10,) and logp1 == log_density(mix, 0.7, x[0])


class TestKernel:
    def test_batch_shapes_give_the_same_rows(self):
        mix = preset_ring()
        x = np.random.default_rng(21).standard_normal((6, 10))
        s, logp = score(mix, 0.7, x, with_log_density=True)
        s3, logp3 = score(mix, 0.7, x.reshape(2, 3, 10), with_log_density=True)
        assert s3.shape == (2, 3, 10) and logp3.shape == (2, 3)
        np.testing.assert_array_equal(s3.reshape(6, 10), s)
        np.testing.assert_array_equal(logp3.ravel(), logp)
        np.testing.assert_array_equal(log_density(mix, 0.7, x.reshape(3, 2, 10)).ravel(), logp)
        for row, s_row, logp_row in zip(x, s, logp):
            got, got_logp = score(mix, 0.7, row, with_log_density=True)
            assert got.shape == (10,) and isinstance(got_logp, float)
            # one row may take a matrix-vector BLAS path: equal to rounding
            np.testing.assert_allclose(got, s_row, rtol=1e-13, atol=1e-12)
            assert got_logp == pytest.approx(logp_row, rel=1e-14, abs=1e-13)

    def test_standard_normal_closed_form(self):
        mix = IsotropicGaussianMixture.standard_normal(4)
        x = np.random.default_rng(22).standard_normal((50, 4)) * 3.0
        x[0] = 1e3
        want = -0.5 * (x * x).sum(axis=1) - 2.0 * math.log(2.0 * math.pi)
        for t in (0.0, 0.8):  # N(0, I) is the stationary law
            s, logp = score(mix, t, x, with_log_density=True)
            np.testing.assert_allclose(s, -x, rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(logp, want, rtol=1e-15, atol=1e-14)

    def test_far_points_stay_finite(self):
        mix = preset_ring()
        x = np.zeros((3, 10))
        x[0, 0], x[1] = 1e3, -1e3
        x[2, 2] = 1e3
        s, logp = score(mix, 0.0, x, with_log_density=True)
        assert np.isfinite(s).all() and np.isfinite(logp).all()
        # The first row is far closer to mean 0 = (1, 0, ...) than to any other.
        np.testing.assert_allclose(s[0], (mix.means[0] - x[0]) / 0.007, rtol=1e-9)
        want = math.log(1 / 12) - 5.0 * math.log(2 * math.pi * 0.007) - 999.0 ** 2 / 0.014
        assert logp[0] == pytest.approx(want, rel=1e-12)

    def test_mixtures_never_share_time_constants(self):
        x = np.random.default_rng(23).standard_normal((20, 10))
        ring = preset_ring()
        variances = [np.full(12, v) for v in (0.007, 0.02, 0.05, 0.1)]
        for var in variances:
            mix = None  # frees the last mixture, and its id, for the next one
            mix = IsotropicGaussianMixture(ring.weights, ring.means, var)
            got = score(mix, 0.3, x)
            decay = math.exp(-0.3)
            v = var * decay ** 2 + 1.0 - decay ** 2
            diff = x[:, None, :] - ring.means * decay
            comp = -np.einsum("nkd,nkd->nk", diff, diff) / (2 * v) - 5.0 * np.log(v)
            resp = np.exp(comp - comp.max(axis=1, keepdims=True))
            resp /= resp.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(got, -np.einsum("nk,nkd->nd", resp / v, diff),
                                       rtol=1e-10, atol=1e-10)
        a, b = preset_ring(), IsotropicGaussianMixture.ring(12, 10, variance=0.05)
        assert not np.array_equal(score(a, 0.3, x), score(b, 0.3, x))
        assert a._constants is not b._constants

    def test_time_constants_stay_bounded(self):
        mix = IsotropicGaussianMixture.ring(3, 2)
        x = np.ones((4, 2))
        for t in np.linspace(0.0, 5.0, 10_000):
            score(mix, t, x)
        assert mix._constants[0] == 5.0  # exactly the last query time is kept
        want = mix._constants[1]
        score(mix, 5.0, x)
        assert mix._constants[1] is want  # a repeated time reuses the slot


def full_width_pass(mix, t, x):
    """(score, log p_t(x)) by the pass without the support and shared-row
    shortcuts, written out: full (K, d) GEMMs and (K, 1) columns."""
    x = np.asarray(x, dtype=np.float64)
    decay = math.exp(-t)
    means = mix.means * decay
    var = mix.variances * decay * decay + (1.0 - decay * decay)
    half = 0.5 / var
    bias = (np.log(mix.weights) - 0.5 * mix.dim * np.log(2.0 * np.pi * var)
            - half * np.einsum("kd,kd->k", means, means))
    a, inv = means / var[:, None], 1.0 / var
    flat = x.reshape(-1, mix.dim)
    comp = a @ flat.T
    comp += bias[:, None]
    comp -= half[:, None] * np.einsum("ij,ij->i", flat, flat)
    top = comp.max(axis=0)
    comp -= top
    np.exp(comp, out=comp)
    total = comp.sum(axis=0)
    logp = top + np.log(total)
    logp = float(logp[0]) if x.ndim == 1 else logp.reshape(x.shape[:-1])
    out = comp.T @ a
    out -= (inv @ comp)[:, None] * flat
    out /= total[:, None]
    return out.reshape(x.shape), logp


def scattered_mixture():
    """Six components in d = 8 whose means are all zero in coordinates 0
    and 3, with unequal weights and a shared variance: the support slice
    is 1:8, with coordinate 3 inside it."""
    means = np.random.default_rng(31).standard_normal((6, 8))
    means[:, [0, 3]] = 0.0
    weights = np.arange(1.0, 7.0) / 21.0
    return IsotropicGaussianMixture(weights, means, np.full(6, 0.2))


def dense_mixture():
    """Five components in d = 7, every coordinate used, unequal weights and
    variances."""
    rng = np.random.default_rng(32)
    weights = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    return IsotropicGaussianMixture(weights, rng.standard_normal((5, 7)), rng.uniform(0.05, 0.5, 5))


class TestMixturePassShortcuts:
    """The pass against the full-width pass, bit for bit on 2000-row batches.

    Bit equality on row counts that are a multiple of 8, like every batch
    of the shipped configs, was observed on OpenBLAS's x86 kernels; it is
    not a property of the pass, and other BLAS builds may break it.  A
    remainder row may take an edge kernel whose summation order depends
    on the GEMM's width, so a single point and 999 rows are compared to
    rounding only, within 1e-14 of the largest entry.
    """

    CASES = {
        "ring": (preset_ring, slice(0, 2)),
        "wide ring": (lambda: IsotropicGaussianMixture.ring(48, 32), slice(0, 2)),
        "scattered": (scattered_mixture, slice(1, 8)),
        "dense": (dense_mixture, slice(0, 7)),
        "standard normal": (lambda: IsotropicGaussianMixture.standard_normal(6), slice(0, 0)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
    def test_bit_equal_to_the_full_width_pass(self, case, t):
        make, support = self.CASES[case]
        mix = make()
        x = 1.5 * np.random.default_rng(33).standard_normal((2000, mix.dim))
        x[:5] = 0.0
        got, logp = score(mix, t, x, with_log_density=True)
        want, want_logp = full_width_pass(mix, t, x)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(logp, want_logp)
        np.testing.assert_array_equal(log_density(mix, t, x), want_logp)
        a, s = mix._time_constants(t)[:2]
        assert s == support
        assert a.shape == (mix.n_components, support.stop - support.start)

    def test_shared_rows_of_the_ring(self):
        """The ring shares 0.5 / v at every time, and its bias once t > 0;
        unequal weights or variances keep (K, 1) columns."""
        ring = preset_ring()
        assert [c.shape for c in ring._time_constants(0.0)[2:4]] == [(12, 1), (1, 1)]
        assert [c.shape for c in ring._time_constants(0.3)[2:4]] == [(1, 1), (1, 1)]
        assert [c.shape for c in scattered_mixture()._time_constants(0.3)[2:4]] == [(6, 1), (1, 1)]
        assert [c.shape for c in dense_mixture()._time_constants(0.3)[2:4]] == [(5, 1), (5, 1)]
        for c in ring._time_constants(0.3) + scattered_mixture()._time_constants(0.3):
            assert not isinstance(c, np.ndarray) or not c.flags.writeable

    @pytest.mark.parametrize("case", list(CASES))
    def test_single_point_and_odd_row_counts(self, case):
        mix = self.CASES[case][0]()
        x = 1.5 * np.random.default_rng(34).standard_normal((999, mix.dim))
        got, logp = score(mix, 0.3, x[0], with_log_density=True)
        batch, batch_logp = score(mix, 0.3, x[:1], with_log_density=True)
        assert got.shape == (mix.dim,) and isinstance(logp, float)
        np.testing.assert_array_equal(got, batch[0])
        assert logp == batch_logp[0] == log_density(mix, 0.3, x[0])
        for rows in (x[0], x):
            got, logp = score(mix, 0.3, rows, with_log_density=True)
            want, want_logp = full_width_pass(mix, 0.3, rows)
            scale = np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * scale)
            np.testing.assert_allclose(logp, want_logp, rtol=1e-14)

    def test_empty_batch(self):
        for make, _ in self.CASES.values():
            mix = make()
            got, logp = score(mix, 0.3, np.empty((0, mix.dim)), with_log_density=True)
            assert got.shape == (0, mix.dim) and logp.shape == (0,)

    @pytest.mark.parametrize("case, col", [("ring", 3), ("scattered", 0)])
    def test_non_finite_coordinates_off_the_support_give_nan(self, case, col):
        """inf or NaN where every mean is zero still poisons the whole row,
        now through ||x||^2 instead of the GEMM."""
        mix = self.CASES[case][0]()
        x = np.random.default_rng(35).standard_normal((2000, mix.dim))
        x[0, col], x[1, col], x[2, col] = np.inf, -np.inf, np.nan
        with np.errstate(invalid="ignore"):
            got, logp = score(mix, 0.3, x, with_log_density=True)
            want, want_logp = full_width_pass(mix, 0.3, x)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(logp, want_logp)
        assert np.isnan(got[:3]).all() and np.isnan(logp[:3]).all()
        assert np.isfinite(got[3:]).all() and np.isfinite(logp[3:]).all()


class TestSampleBase:
    def test_moments(self):
        mix = preset_ring()
        rng = np.random.default_rng(0)
        x = sample_base(mix, 100_000, rng)
        sm = (x ** 2).sum(axis=1).mean()
        # Var(||x||^2) for the ring mixture, MC standard error bound
        se = (x ** 2).sum(axis=1).std() / math.sqrt(x.shape[0])
        assert abs(sm - 1.07) < 3 * se

    def test_component_fractions(self):
        mix = preset_ring()
        rng = np.random.default_rng(1)
        x = sample_base(mix, 100_000, rng)
        d2 = ((x[:, None, :] - mix.means[None]) ** 2).sum(axis=2)
        counts = np.bincount(d2.argmin(axis=1), minlength=12) / x.shape[0]
        assert counts.min() >= 0.075 and counts.max() <= 0.092

    def test_deterministic_given_seed(self):
        mix = preset_ring()
        a = sample_base(mix, 1000, np.random.default_rng(42))
        b = sample_base(mix, 1000, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d", [2, 10, 32])
    def test_in_place_draw_is_bit_equal_to_the_expression(self, d):
        mix = random_mixture(d)
        got = sample_base(mix, 3000, np.random.default_rng(7))
        assert got.tobytes() == one_shot_draw(mix, 3000, np.random.default_rng(7)).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 10, 32])
    @pytest.mark.parametrize("chunks", [0, 1, 2])
    @pytest.mark.parametrize("extra", [0, 37])
    def test_chunked_draw_matches_one_draw_and_stores_columns(self, d, chunks, extra):
        if chunks == extra == 0:
            extra = 1000  # below one chunk
        n = chunks * chunk_rows(d) + extra
        mix = random_mixture(d)
        rng, ref_rng = CountingGenerator(np.random.PCG64(11)), np.random.default_rng(11)
        got = sample_base(mix, n, rng)
        assert rng.normal_sizes == [(chunk_rows(d), d)] * chunks + [(extra, d)] * (extra > 0)
        assert got.shape == (n, d)
        assert got.tobytes() == one_shot_draw(mix, n, ref_rng).tobytes()
        assert rng.standard_normal(3).tobytes() == ref_rng.standard_normal(3).tobytes()
        assert got.T.flags.c_contiguous

    @pytest.mark.parametrize("case", ["scattered", "ring"])
    def test_zero_means_off_the_support_bit_equal_to_the_expression(self, case):
        """Columns off the support get +0.0 added, not a gathered zero mean:
        the scattered mixture's coordinate 0 and the ring's 2 to 9, next to
        the zero coordinate 3 inside the scattered support.  A planted -0.0
        noise value still comes out +0.0, as from the expression."""
        mix = scattered_mixture() if case == "scattered" else preset_ring()
        assert mix._support != slice(0, mix.dim)
        got = sample_base(mix, 3000, SignedZeroGenerator(np.random.PCG64(8)))
        want = one_shot_draw(mix, 3000, SignedZeroGenerator(np.random.PCG64(8)))
        assert got.tobytes() == want.tobytes()
        off = np.r_[0:mix._support.start, mix._support.stop:mix.dim]
        assert (got[:, off] == 0).any() and not np.signbit(got[got == 0]).any()

    def test_peak_memory_is_about_the_output(self):
        mix = IsotropicGaussianMixture.ring(48, 32)
        n = 100_000
        out_bytes = n * 32 * 8
        assert traced_peak(lambda: sample_base(mix, n, np.random.default_rng(3))) <= 1.25 * out_bytes
        # Control: the one-shot expression holds its noise and means[idx] at once.
        assert traced_peak(lambda: one_shot_draw(mix, n, np.random.default_rng(3))) >= 2.0 * out_bytes


def chunk_rows(d):
    """Rows per noise chunk of sample_base: whole tiles of at least the chunk bytes."""
    tile = targets._TILE_ROWS
    return tile * -(-targets._SAMPLE_CHUNK_BYTES // (8 * d * tile))


class CountingGenerator(np.random.Generator):
    """A Generator that records the size of each standard_normal call."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.normal_sizes = []

    def standard_normal(self, size=None, *args, **kwargs):
        self.normal_sizes.append(kwargs["out"].shape if size is None else size)
        return super().standard_normal(size, *args, **kwargs)


class SignedZeroGenerator(np.random.Generator):
    """A Generator whose every third standard normal is -0.0."""

    def standard_normal(self, size=None, *args, **kwargs):
        out = super().standard_normal(size, *args, **kwargs)
        out.reshape(-1)[::3] = -0.0
        return out


def random_mixture(d):
    rng = np.random.default_rng(d)
    w = rng.uniform(0.5, 2.0, 5)
    return IsotropicGaussianMixture(w / w.sum(), rng.normal(size=(5, d)),
                                    rng.uniform(0.01, 3.0, 5))


def one_shot_draw(mix, n, rng):
    """sample_base's values as one (n, d) expression."""
    idx = rng.choice(mix.n_components, size=n, p=mix.weights)
    noise = rng.standard_normal((n, mix.dim))
    return mix.means[idx] + np.sqrt(mix.variances[idx])[:, None] * noise


def traced_peak(fn):
    """Peak bytes that tracemalloc sees while fn runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScoreOracle:
    @pytest.mark.parametrize("seed", [2**63, -2**63 - 1])
    def test_error_seed_outside_int64_rejected(self, seed):
        with pytest.raises(ValueError, match="error_seed must fit in a signed 64-bit"):
            ScoreOracle(two_comp_1d(), score_error=1.0, error_seed=seed)

    @pytest.mark.parametrize("seed", [2**63 - 1, -2**63])
    def test_error_seed_at_int64_limits_scores(self, seed):
        oracle = ScoreOracle(two_comp_1d(), score_error=1.0, error_seed=seed)
        assert np.isfinite(oracle.score(0.5, np.zeros((3, 1)))).all()

    def test_numpy_integer_error_seed_scores_like_an_int(self):
        x = np.zeros((3, 1))
        oracle = ScoreOracle(two_comp_1d(), score_error=1.0, error_seed=np.int64(3))
        plain = ScoreOracle(two_comp_1d(), score_error=1.0, error_seed=3)
        assert type(oracle.error_seed) is int
        np.testing.assert_array_equal(oracle.score(0.5, x), plain.score(0.5, x))

    @pytest.mark.parametrize("field", ["score_error", "energy_error"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_error_magnitude_rejected(self, field, value):
        with pytest.raises(ValueError, match="error magnitudes must be finite and >= 0"):
            ScoreOracle(two_comp_1d(), **{field: value})

    def test_zero_error_is_exact(self):
        mix = preset_ring()
        oracle = ScoreOracle(mix)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 10))
        np.testing.assert_array_equal(oracle.score(0.2, x), score(mix, 0.2, x))
        assert oracle.energy_difference(0.2, x[0], x[1]) == pytest.approx(
            log_density(mix, 0.2, x[0]) - log_density(mix, 0.2, x[1]), abs=1e-12)

    def test_score_error_bound_and_determinism(self):
        mix = preset_ring()
        oracle = ScoreOracle(mix, score_error=0.1, error_seed=9)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2000, 10))
        exact = score(mix, 0.4, x)
        noisy = oracle.score(0.4, x)
        norms = np.linalg.norm(noisy - exact, axis=1)
        assert np.all(norms <= 0.1 + 1e-12)
        assert norms.max() == pytest.approx(0.1, abs=1e-12)  # realized at the bound
        np.testing.assert_array_equal(noisy, oracle.score(0.4, x))

    def test_error_field_varies_with_seed_and_time(self):
        mix = preset_ring()
        x = np.ones((1, 10))
        a = ScoreOracle(mix, score_error=0.1, error_seed=0).score(0.4, x)
        b = ScoreOracle(mix, score_error=0.1, error_seed=1).score(0.4, x)
        c = ScoreOracle(mix, score_error=0.1, error_seed=0).score(0.5, x)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_energy_difference_standard_normal(self):
        oracle = ScoreOracle(IsotropicGaussianMixture.standard_normal(4))
        rng = np.random.default_rng(8)
        z, z2 = rng.standard_normal(4), rng.standard_normal(4)
        want = 0.5 * ((z2 ** 2).sum() - (z ** 2).sum())
        assert oracle.energy_difference(0.0, z, z2) == pytest.approx(want, abs=1e-12)

    def test_energy_difference_identity_and_bound(self):
        mix = preset_ring()
        oracle = ScoreOracle(mix, energy_error=0.05, error_seed=4)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((500, 10))
        z2 = rng.standard_normal((500, 10))
        assert oracle.energy_difference(0.1, z[0], z[0]) == 0.0
        exact = log_density(mix, 0.1, z) - log_density(mix, 0.1, z2)
        got = oracle.energy_difference(0.1, z, z2)
        assert np.all(np.abs(got - exact) <= 0.05 + 1e-12)
        # antisymmetry of the perturbed difference
        rev = oracle.energy_difference(0.1, z2, z)
        np.testing.assert_allclose(got, -rev, atol=1e-10)

    def test_coarse_cell_gives_uniform_direction(self):
        mix = preset_ring()
        oracle = ScoreOracle(mix, score_error=0.2, error_seed=1, error_cell=1e6)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 10))
        dirs = oracle.score(0.3, x) - score(mix, 0.3, x)
        np.testing.assert_allclose(dirs, np.tile(dirs[0], (50, 1)), atol=1e-12)

    def test_single_cell_fast_path_matches_per_row_hashing(self):
        # One far row puts the batch in two cells, so it is hashed row by row.
        mix = preset_ring()
        oracle = ScoreOracle(mix, score_error=0.2, error_seed=1, error_cell=1e6)
        x = np.random.default_rng(6).standard_normal((50, 10))
        mixed = np.vstack([x, np.full((1, 10), 3e6)])
        np.testing.assert_array_equal(oracle.score(0.3, x), oracle.score(0.3, mixed)[:50])
        s, logp = oracle.score(0.3, x, with_log_density=True)
        np.testing.assert_array_equal(s, oracle.score(0.3, x))
        np.testing.assert_array_equal(logp, log_density(mix, 0.3, x))

    def test_energy_difference_rows_are_independent(self):
        mix = preset_ring()
        oracle = ScoreOracle(mix, energy_error=0.05, error_seed=4, error_cell=0.5)
        rng = np.random.default_rng(7)
        z = rng.standard_normal((40, 10))
        moved = rng.random(40) < 0.5
        z2 = z + rng.normal(scale=0.3, size=z.shape) * moved[:, None]
        log_p = (log_density(mix, 0.1, z), log_density(mix, 0.1, z2))
        got = oracle.energy_difference(0.1, z, z2)
        np.testing.assert_array_equal(oracle.energy_difference(0.1, z, z2, log_p=log_p), got)
        signs = np.round((got - (log_p[0] - log_p[1])) / 0.05)
        row_signs = [round((oracle.energy_difference(0.1, z[i], z2[i])
                            - log_density(mix, 0.1, z[i]) + log_density(mix, 0.1, z2[i])) / 0.05)
                     for i in range(40)]
        np.testing.assert_array_equal(signs, row_signs)
        assert np.all(signs[~moved] == 0) and np.all(np.abs(signs[moved]) == 1)


def reference_direction(payload, dim):
    """The per-row error-field derivation that the batched one reproduces."""
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    g = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
    vec = g.standard_normal(dim)
    norm = np.linalg.norm(vec)
    while norm == 0.0:
        vec = g.standard_normal(dim)
        norm = np.linalg.norm(vec)
    return vec / norm


def cell_payloads(cells, prefix=b"\x07" * 16):
    return [prefix + np.asarray(row, dtype=np.int64).tobytes() for row in cells]


def count_per_row_rows(monkeypatch):
    """The digests that reach targets._row_direction from now on."""
    seen, real = [], targets._row_direction
    monkeypatch.setattr(targets, "_row_direction", lambda d, dim: seen.append(d) or real(d, dim))
    return seen


def record_generator_rows(monkeypatch):
    """The batch rows that targets._generator_normals draws from now on."""
    drawn, real = [], targets._generator_normals
    monkeypatch.setattr(targets, "_generator_normals",
                        lambda limbs, rows, dim: drawn.extend(rows.tolist()) or real(limbs, rows, dim))
    return drawn


@functools.lru_cache(maxsize=None)
def tail_rows(dim):
    """{payload: cli._draw_words of its digest} for the rows among
    80,000 / dim random payloads that take a tail draw.

    The search reads each row's first dim words as ziggurat candidates;
    numpy's own words then confirm the tail draws (an earlier wedge draw may
    have read the candidate as its uniform).
    """
    rng = np.random.default_rng(dim)
    payloads = [rng.bytes(8 * dim) for _ in range(80_000 // dim)]
    seeds = [hashlib.blake2b(p, digest_size=16).digest() for p in payloads]
    words = targets._seed_sequence_state(np.frombuffer(b"".join(seeds), "<u4").reshape(-1, 4))
    hi, lo = targets._pcg64_ahead(*targets._pcg64_states(words), dim)
    layer, _, fast = targets._ziggurat_candidates(targets._xsl_rr(hi, lo))
    found = {payloads[i]: cli._draw_words(int.from_bytes(seeds[i], "little"), dim)
             for i in np.flatnonzero(((layer == 0) & ~fast).any(axis=0))}
    return {p: draws for p, draws in found.items()
            if any(layer == 0 and words > 1 for layer, words in draws)}


class TestHashedDirections:
    # The full 350-row batch keeps the id of its dimension alone.
    @pytest.mark.parametrize("dim, n", [
        pytest.param(dim, n, id=str(dim) if n == 350 else f"{dim}-{n}rows")
        for dim in (2, 10, 32) for n in (1, 15, 16, 350)])
    def test_bit_equal_to_per_row_seeding(self, dim, n):
        rng = np.random.default_rng(dim)
        near = rng.integers(-10**6, 10**6, size=(300, dim))
        far = rng.integers(-2**62, 2**62, size=(50, dim))  # ~1e18 cells out
        payloads = cell_payloads(np.vstack([near, far]))[-n:]
        want = np.array([reference_direction(p, dim) for p in payloads])
        np.testing.assert_array_equal(targets._hashed_unit_directions(payloads, dim), want)

    def test_oracle_rows_follow_the_reference(self):
        oracle = ScoreOracle(preset_ring(), score_error=0.3, error_seed=5, error_cell=1e-6)
        x = np.random.default_rng(4).standard_normal((100, 10))
        cells = np.round(x / 1e-6).astype(np.int64)
        want = [0.3 * reference_direction(p, 10)
                for p in cell_payloads(cells, oracle._key_prefix(0.7))]
        np.testing.assert_array_equal(oracle._score_perturbation(0.7, x), want)

    def test_empty_and_single_row(self):
        assert targets._hashed_unit_directions([], 10).shape == (0, 10)
        payload = cell_payloads([[3] * 10])
        got = targets._hashed_unit_directions(payload, 10)
        assert got.shape == (1, 10)
        np.testing.assert_array_equal(got[0], reference_direction(payload[0], 10))

    def test_cell_directions_are_kept_read_only(self):
        payload = cell_payloads([[5, -6]])[0]
        row = targets._cell_direction(payload, 2)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0
        assert targets._cell_direction(payload, 2) is row
        np.testing.assert_array_equal(row, reference_direction(payload, 2))

    def test_repeated_single_cell_queries_agree(self):
        targets._cell_direction.cache_clear()
        oracle = ScoreOracle(preset_ring(), score_error=0.3, error_seed=5, error_cell=1e6)
        x = np.random.default_rng(4).standard_normal((50, 10))
        cold = oracle.score(0.7, x)
        noise = oracle._score_perturbation(0.7, x)
        want = noise.copy()
        noise[:] = 0.0  # the caller owns its copy; the kept direction is untouched
        np.testing.assert_array_equal(oracle.score(0.7, x), cold)
        np.testing.assert_array_equal(oracle._score_perturbation(0.7, x[:1]), want)

    def test_single_cell_miss_skips_the_lockstep_pass(self, monkeypatch):
        def lockstep(entropy):
            raise AssertionError("a single-cell miss ran the batched seeding")

        monkeypatch.setattr(targets, "_seed_sequence_state", lockstep)
        targets._cell_direction.cache_clear()
        mix = preset_ring()
        oracle = ScoreOracle(mix, score_error=0.3, error_seed=5, error_cell=1e6)
        x = np.random.default_rng(4).standard_normal((50, 10))
        payload = oracle._key_prefix(0.7) + oracle._cell_keys(oracle._cells(x[:1]))[0]
        want = score(mix, 0.7, x) + 0.3 * reference_direction(payload, 10)
        np.testing.assert_array_equal(oracle.score(0.7, x), want)

    @pytest.mark.parametrize("cell", [1e-6, 0.5, 3.0, 1e6])
    def test_points_within_half_a_cell_round_to_cell_zero(self, cell):
        # |x| < cell / 2 bounds the rounded quotient by 1/2, which rounds half
        # to even to 0; -0.0 rounds to -0.0, whose int64 key is 0's.
        below = np.nextafter(cell / 2, 0.0)
        x = np.concatenate([[0.0, -0.0, below, -below, 5e-324, -5e-324],
                            np.random.default_rng(1).uniform(-below, below, 10_000)])
        quotient = x / cell
        assert np.all(np.abs(quotient) <= 0.5)
        assert np.all(np.round(quotient) == 0.0)
        assert np.round(0.5) == np.round(-0.5) == 0.0
        assert not np.round(quotient).astype(np.int64).any()

    def test_a_batch_within_half_a_cell_skips_the_cell_keys(self, monkeypatch):
        def keyed(self, x):
            raise AssertionError("a batch within half a cell of 0 was keyed")

        oracle = ScoreOracle(preset_ring(), score_error=0.3, error_seed=5, error_cell=1e6)
        x = np.random.default_rng(4).standard_normal((50, 10))
        x[0, 0], x[1, 1], x[2] = np.nextafter(5e5, 0.0), -np.nextafter(5e5, 0.0), -0.0
        want = 0.3 * reference_direction(cell_payloads([[0] * 10], oracle._key_prefix(0.7))[0], 10)
        monkeypatch.setattr(ScoreOracle, "_cells", keyed)
        np.testing.assert_array_equal(oracle._score_perturbation(0.7, x), want)

    def test_only_batches_at_cell_zero_reach_the_cell_cache(self, monkeypatch):
        """A 2000-row batch in one nonzero cell, a row in one and a far-cell
        pair take the lockstep pass, bit-equal to the per-row formula."""
        asked, real = [], targets._cell_direction
        monkeypatch.setattr(targets, "_cell_direction",
                            lambda payload, dim: asked.append(payload[16:]) or real(payload, dim))
        oracle = ScoreOracle(preset_ring(), score_error=0.3, error_seed=5, error_cell=1e6)
        x = np.random.default_rng(4).uniform(-4e5, 4e5, size=(2000, 10))
        for batch in (x + 3e6, x[0] - 3e6, np.full((2, 10), 1e30)):
            got = oracle._score_perturbation(0.7, batch)
            assert asked == [], "a batch outside cell 0 reached the cell cache"
            payload = oracle._key_prefix(0.7) + oracle._cell_keys(oracle._cells(batch))[0]
            np.testing.assert_array_equal(
                got, np.broadcast_to(0.3 * reference_direction(payload, 10), batch.shape))
        oracle._score_perturbation(0.7, x)
        assert asked == [bytes(80)]

    @pytest.mark.parametrize("edge", [5e5, -5e5, np.nan])
    def test_a_row_at_half_a_cell_or_nan_is_keyed(self, edge, monkeypatch):
        oracle = ScoreOracle(preset_ring(), score_error=0.3, error_seed=5, error_cell=1e6)
        x = np.random.default_rng(4).standard_normal((50, 10))
        x[7, 3] = edge
        keyed, real = [], ScoreOracle._cells
        monkeypatch.setattr(ScoreOracle, "_cells", lambda self, v: keyed.append(1) or real(self, v))
        got = oracle._score_perturbation(0.7, x)
        assert keyed
        prefix, cells = oracle._key_prefix(0.7), np.round(x / 1e6)
        payloads = [prefix + b"\x01" + (row + 0.0).tobytes() if np.isnan(row).any()
                    else cell_payloads([row], prefix)[0] for row in cells]
        want = [0.3 * reference_direction(p, 10) for p in payloads]
        np.testing.assert_array_equal(got, want)

    def test_rows_left_at_zero_take_the_defining_formula(self, monkeypatch):
        # A row whose draws are all zero is derived from its digest alone.
        real = targets._standard_normals

        def with_zero_rows(limbs, dim):
            values = real(limbs, dim)
            values[::7] = 0.0
            return values

        monkeypatch.setattr(targets, "_standard_normals", with_zero_rows)
        payloads = cell_payloads(np.random.default_rng(9).integers(-10**6, 10**6, (50, 10)))
        want = np.array([reference_direction(p, 10) for p in payloads])
        np.testing.assert_array_equal(targets._hashed_unit_directions(payloads, 10), want)

    def test_repeated_payloads_in_one_batch(self):
        payloads = cell_payloads([[1, 2], [3, 4], [1, 2], [1, 2]])
        got = targets._hashed_unit_directions(payloads, 2)
        np.testing.assert_array_equal(got, [reference_direction(p, 2) for p in payloads])

    @pytest.mark.parametrize("dim", [2, 10, 32])
    def test_large_batch_takes_every_ziggurat_lane(self, dim):
        """30,000 rows match the per-row derivation bit for bit, and among
        them are fast, wedge-accept, wedge-reject and tail draws, told apart
        by PCG64 word counts without numpy's tables."""
        rng = np.random.default_rng(100 + dim)
        payloads = cell_payloads(rng.integers(-10**6, 10**6, size=(30_000, dim)))
        want = np.array([reference_direction(p, dim) for p in payloads])
        np.testing.assert_array_equal(targets._hashed_unit_directions(payloads, dim), want)
        lanes = set()
        for payload in payloads:
            digest = hashlib.blake2b(payload, digest_size=16).digest()
            lanes |= cli._ziggurat_lanes(int.from_bytes(digest, "little"), dim)
            if len(lanes) == 4:
                break
        assert lanes == {"fast", "wedge-accept", "wedge-reject", "tail"}

    @pytest.mark.parametrize("setting, value", [("_SPARE_WORDS", 1), ("_WEDGE_MARGIN", 1.0)],
                             ids=["out-of-words", "every-wedge-in-margin"])
    def test_undecided_rows_fall_back_to_the_generator(self, monkeypatch, setting, value):
        # With one spare word many rows run out of words; with a margin of 1
        # most wedge tests are too close to call.  numpy draws those rows,
        # more than under the defaults, and none reaches the per-row path.
        payloads = cell_payloads(np.random.default_rng(8).integers(-10**6, 10**6, (2000, 10)))
        want = np.array([reference_direction(p, 10) for p in payloads])
        per_row, drawn = count_per_row_rows(monkeypatch), record_generator_rows(monkeypatch)
        targets._hashed_unit_directions(payloads, 10)
        default = set(drawn)
        drawn.clear()
        monkeypatch.setattr(targets, setting, value)
        np.testing.assert_array_equal(targets._hashed_unit_directions(payloads, 10), want)
        assert per_row == []
        assert default < set(drawn)

    def test_wedges_in_the_margin_stay_in_the_lockstep_pass(self, monkeypatch):
        """With the margin at 1, numpy draws every row whose wedge test lies
        within twice its bound, which here is every wedge: exactly the rows
        with a draw that reads more than one PCG64 word.  None reaches the
        per-row path."""
        payloads = cell_payloads(np.random.default_rng(8).integers(-10**6, 10**6, (2000, 10)))
        digests = [hashlib.blake2b(p, digest_size=16).digest() for p in payloads]
        slow = {i for i, digest in enumerate(digests)
                if any(words > 1 for _, words in cli._draw_words(int.from_bytes(digest, "little"), 10))}
        want = np.array([reference_direction(p, 10) for p in payloads])
        per_row, drawn = count_per_row_rows(monkeypatch), record_generator_rows(monkeypatch)
        monkeypatch.setattr(targets, "_WEDGE_MARGIN", 1.0)
        np.testing.assert_array_equal(targets._hashed_unit_directions(payloads, 10), want)
        assert per_row == []
        assert sorted(drawn) == sorted(slow)

    @pytest.mark.parametrize("dim", [2, 10, 32])
    def test_tail_draws_stay_in_the_lockstep_pass(self, dim, monkeypatch):
        """Rows found by search to take a tail draw are drawn by numpy from
        their seeded state, match the defining formula, and none reaches the
        per-row path, however many words their draws read."""
        payloads = list(tail_rows(dim))
        assert len(payloads) >= 8
        want = np.array([reference_direction(p, dim) for p in payloads])
        per_row, drawn = count_per_row_rows(monkeypatch), record_generator_rows(monkeypatch)
        np.testing.assert_array_equal(targets._hashed_unit_directions(payloads, dim), want)
        assert per_row == []
        assert sorted(drawn) == list(range(len(payloads)))

    def test_a_retried_tail_draw_stays_in_the_lockstep_pass(self, monkeypatch):
        retried = [p for p, draws in tail_rows(10).items()
                   if any(layer == 0 and words >= 5 for layer, words in draws)]
        assert retried
        per_row, drawn = count_per_row_rows(monkeypatch), record_generator_rows(monkeypatch)
        np.testing.assert_array_equal(targets._hashed_unit_directions(retried, 10),
                                      [reference_direction(p, 10) for p in retried])
        assert per_row == []
        assert sorted(drawn) == list(range(len(retried)))

    @pytest.mark.parametrize("n", [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 5,
                                   2**96 - 1, 2**96 + 3, 2**128 - 1])
    def test_seed_state_matches_seed_sequence(self, n):
        # SeedSequence(n) drops n's high zero words; zero padding must agree.
        cli._check_seed_sequence([n])


class TestPcg64Stepping:
    @pytest.mark.parametrize("n", [1, 2000])
    @pytest.mark.parametrize("dim", [2, 10, 32])
    def test_states_match_numpy_advance(self, dim, n):
        """State j of each row is PCG64(seed)'s state after advance(j), for
        every word a row of dimension dim may read."""
        rng = np.random.default_rng(dim * n)
        seeds = [int.from_bytes(rng.bytes(16), "little") for _ in range(n)]
        k = dim + targets._SPARE_WORDS
        cli._check_pcg64_steps(seeds, k)
        limbs = targets._pcg64_states(np.zeros((n, 4), dtype=np.uint64))
        assert all(part.shape == (k, n) for part in targets._pcg64_ahead(*limbs, k))


class TestFarErrorCells:
    def oracle(self, **kw):
        return ScoreOracle(IsotropicGaussianMixture.standard_normal(3), error_seed=2,
                           error_cell=1e-6, **kw)

    def test_in_range_keys_keep_their_bytes(self):
        oracle = self.oracle(score_error=1.0)
        x = np.array([[0.25, -3.5, 1e6], [1.0, 2.0, -7e12]])
        keys = oracle._cell_keys(oracle._cells(x))
        assert keys == cell_payloads(np.round(x / 1e-6).astype(np.int64), b"")

    def test_distinct_far_points_get_distinct_directions(self):
        oracle = self.oracle(score_error=1.0)
        x = np.array([[1e20, 0.0, 0.0], [2e20, 0.0, 0.0], [1e20, 0.0, 0.0],
                      [np.nan, 0.0, 0.0], [-np.inf, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noise = oracle._score_perturbation(0.5, x)
            # one far cell or one NaN row: the batch path
            single = [oracle._score_perturbation(0.5, x[[0, 2]]),
                      oracle._score_perturbation(0.5, x[3])]
        assert np.allclose(np.linalg.norm(noise, axis=1), 1.0)
        far = oracle._key_prefix(0.5) + b"\x01" + np.round(x[0] / 1e-6).tobytes()
        np.testing.assert_array_equal(noise[[0, 2]], [reference_direction(far, 3)] * 2)
        assert not np.allclose(noise[0], noise[1])
        assert not np.allclose(noise[0], noise[3]) and not np.allclose(noise[3], noise[4])
        np.testing.assert_array_equal(single[0], noise[[0, 2]])  # one cell, one direction
        np.testing.assert_array_equal(single[1], noise[3])
        # the in-range row is untouched by the far rows in its batch
        np.testing.assert_array_equal(noise[5], oracle._score_perturbation(0.5, x[5]))

    def test_far_energy_differences(self):
        oracle = self.oracle(energy_error=0.5)
        z = np.array([[1e20, 0.0, 0.0], [1e20, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        z2 = np.array([[2e20, 0.0, 0.0], [1e20, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        log_p = (np.zeros(3), np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oracle.energy_difference(0.5, z, z2, log_p=log_p)
            rev = oracle.energy_difference(0.5, z2, z, log_p=log_p)
        assert abs(got[0]) == 0.5 and got[1] == 0.0 and got[2] == 0.0
        np.testing.assert_array_equal(got, -rev)



# Payload lengths either side of blake2b's 128-byte block, after a 16-byte prefix.
PAYLOAD_LENGTHS = [0, 1, 63, 64, 111, 112, 127, 128, 129, 176, 256]


def check_prefixed_digest(size, n):
    """A copy of the prefixed state that absorbs an n-byte payload, whole or
    in two parts, gives the one-shot blake2b(prefix + payload, digest_size=size)."""
    prefix, payload = bytes(range(16)), bytes((7 * i + n) % 256 for i in range(n))
    want = hashlib.blake2b(prefix + payload, digest_size=size).digest()
    state = targets._prefixed(prefix, size)
    for parts in ([payload], [payload[:n // 2], payload[n // 2:]]):
        row = state.copy()
        for part in parts:
            row.update(part)
        assert row.digest() == want, (size, n, len(parts))


class TestBlake2bStates:
    @pytest.mark.parametrize("n", PAYLOAD_LENGTHS)
    @pytest.mark.parametrize("size", [8, 16])
    def test_prefixed_copy_gives_the_one_shot_digest(self, size, n):
        check_prefixed_digest(size, n)

    def test_signs_match_the_one_shot_formula(self):
        oracle = ScoreOracle(preset_ring(), energy_error=0.05, error_seed=3, error_cell=0.25)
        rng = np.random.default_rng(12)
        z = rng.standard_normal((300, 10))
        moved = rng.random(300) < 0.6
        moved[2:4] = False
        z2 = z + rng.normal(scale=0.5, size=z.shape) * moved[:, None]
        z[:4, 2], z2[2:6, 2] = np.nan, np.nan  # NaN in z, in both alike, in z2
        prefix = oracle._key_prefix(0.4)

        def key(cells):
            return (cells.astype(np.int64).tobytes() if np.isfinite(cells).all()
                    else b"\x01" + (cells + 0.0).tobytes())

        want = []
        for a, b in zip(np.round(z / 0.25), np.round(z2 / 0.25)):
            a, b = key(a), key(b)
            digest = hashlib.blake2b(prefix + min(a, b) + max(a, b), digest_size=8).digest()
            sign = 1.0 if digest[0] % 2 == 0 else -1.0
            want.append(0.0 if a == b else sign if a < b else -sign)
        log_p = (np.zeros(300), np.zeros(300))
        got = oracle.energy_difference(0.4, z, z2, log_p=log_p)
        np.testing.assert_array_equal(got, 0.05 * np.array(want))
        np.testing.assert_array_equal(oracle.energy_difference(0.4, z2, z, log_p=log_p), -got)
        finite = np.arange(300) >= 6
        assert (got[finite & ~moved] == 0.0).all() and (got[finite & moved] != 0.0).all()
        assert (got[2:4] == 0.0).all() and (got[[0, 1, 4, 5]] != 0.0).all()

    def test_templates_stay_fresh_after_a_fine_field_batch(self):
        oracle = ScoreOracle(preset_ring(), score_error=0.3, energy_error=0.05, error_seed=1,
                             error_cell=1e-6)
        x = np.random.default_rng(3).standard_normal((2000, 10))
        oracle.score(0.5, x)
        oracle.energy_difference(0.5, x, x + 1e-3, log_p=(np.zeros(2000), np.zeros(2000)))
        for size in (8, 16):
            assert targets._BLAKE2B[size].digest() == hashlib.blake2b(digest_size=size).digest()
            check_prefixed_digest(size, 80)

    def test_threads_hash_from_the_shared_templates(self):
        # Four threads copy the templates at once, switching every
        # microsecond; each must get the serial result.
        oracle = ScoreOracle(preset_ring(), score_error=0.3, energy_error=0.05, error_seed=2,
                             error_cell=1e-6)
        xs = [np.random.default_rng(20 + i).standard_normal((300, 10)) for i in range(4)]

        def work(x):
            return (oracle._score_perturbation(0.5, x),
                    oracle.energy_difference(0.5, x, x + 1e-3, log_p=(np.zeros(300),) * 2))

        want = [work(x) for x in xs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(work, xs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for (score_got, sign_got), (score_want, sign_want) in zip(got, want):
            np.testing.assert_array_equal(score_got, score_want)
            np.testing.assert_array_equal(sign_got, sign_want)
