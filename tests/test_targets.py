"""Tests for the analytic mixture targets and the score oracle."""

import hashlib
import math
import pickle
import warnings

import numpy as np
import pytest

from rtkbench import targets
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
        score(mix, 0.3, np.ones((2, 10)))  # fill the kernel-constant memo
        back = pickle.loads(pickle.dumps(mix))
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(back, name), getattr(mix, name))
            assert not getattr(back, name).flags.writeable
        assert len(mix._constants) == 1 and len(back._constants) == 0
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
        assert len(mix._constants) <= targets._TIME_CONSTANTS_KEPT
        assert 5.0 in mix._constants  # first in, first out: the latest time is kept


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
        rng = np.random.default_rng(d)
        w = rng.uniform(0.5, 2.0, 5)
        mix = IsotropicGaussianMixture(w / w.sum(), rng.normal(size=(5, d)),
                                       rng.uniform(0.01, 3.0, 5))
        got = sample_base(mix, 3000, np.random.default_rng(7))
        ref_rng = np.random.default_rng(7)
        idx = ref_rng.choice(mix.n_components, size=3000, p=mix.weights)
        noise = ref_rng.standard_normal((3000, d))
        want = mix.means[idx] + np.sqrt(mix.variances[idx])[:, None] * noise
        assert got.tobytes() == want.tobytes()


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

    def test_repeated_payloads_in_one_batch(self):
        payloads = cell_payloads([[1, 2], [3, 4], [1, 2], [1, 2]])
        got = targets._hashed_unit_directions(payloads, 2)
        np.testing.assert_array_equal(got, [reference_direction(p, 2) for p in payloads])

    @pytest.mark.parametrize("n", [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 5,
                                   2**96 - 1, 2**96 + 3, 2**128 - 1])
    def test_seed_state_matches_seed_sequence(self, n):
        # SeedSequence(n) drops n's high zero words; zero padding must agree.
        words = np.frombuffer(n.to_bytes(16, "little"), dtype="<u4").reshape(1, 4)
        np.testing.assert_array_equal(
            targets._seed_sequence_state(words)[0],
            np.random.SeedSequence(n).generate_state(4, np.uint64))


class TestFarErrorCells:
    def oracle(self, **kw):
        return ScoreOracle(IsotropicGaussianMixture.standard_normal(3), error_seed=2,
                           error_cell=1e-6, **kw)

    def test_in_range_keys_keep_their_bytes(self):
        oracle = self.oracle(score_error=1.0)
        x = np.array([[0.25, -3.5, 1e6], [1.0, 2.0, -7e12]])
        prefix = oracle._key_prefix(0.5)
        keys = oracle._cell_keys(oracle._cells(x), prefix)
        assert keys == cell_payloads(np.round(x / 1e-6).astype(np.int64), prefix)

    def test_distinct_far_points_get_distinct_directions(self):
        oracle = self.oracle(score_error=1.0)
        x = np.array([[1e20, 0.0, 0.0], [2e20, 0.0, 0.0], [1e20, 0.0, 0.0],
                      [np.nan, 0.0, 0.0], [-np.inf, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noise = oracle._score_perturbation(0.5, x)
            # one far cell or one NaN row: the single-cell path
            single = [oracle._score_perturbation(0.5, x[[0, 2]]),
                      oracle._score_perturbation(0.5, x[3])]
        assert np.allclose(np.linalg.norm(noise, axis=1), 1.0)
        np.testing.assert_array_equal(noise[0], noise[2])  # one cell, one direction
        assert not np.allclose(noise[0], noise[1])
        assert not np.allclose(noise[0], noise[3]) and not np.allclose(noise[3], noise[4])
        np.testing.assert_array_equal(single[0], noise[0])  # broadcast over the batch
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

