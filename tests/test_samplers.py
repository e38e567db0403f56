"""Tests for the inner samplers and their NFE accounting."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from rtkbench.samplers import (
    ChainState,
    MalaSpec,
    UlaSpec,
    UldSpec,
    ddpm_run,
    default_projection_params,
    mala_accept_log,
    mala_run,
    projected_gate,
    rtk_run,
    taylor_energy_diff,
    ula_run,
    ula_step,
    uld_noise_covariance,
    uld_noise_pair,
    uld_run,
    uld_step,
)
from rtkbench.schedule import FixedSchedule, mala_init, make_target
from rtkbench.targets import IsotropicGaussianMixture, ScoreOracle


class GaussianTarget:
    """Quadratic-energy stand-in: energy c ||z||^2 / 2, score -c z."""

    def __init__(self, c=1.0):
        self.c = c
        self.oracle = SimpleNamespace(score_error=0.0)

    def score(self, z, with_log_density=False):
        s = -self.c * np.asarray(z, dtype=float)
        return (s, -self.energy(z)) if with_log_density else s

    def grad_energy(self, z, score_value=None):
        s = self.score(z) if score_value is None else score_value
        return -s

    def quadratic_diff(self, z, z2):
        return np.zeros(np.asarray(z, dtype=float).shape[0])

    def energy(self, z):
        z = np.asarray(z, dtype=float)
        return self.c * (z * z).sum(axis=-1) / 2.0

    def energy_diff(self, z, z2, log_p=None):
        if log_p is not None:
            return log_p[0] - log_p[1]
        return self.energy(z2) - self.energy(z)


class ZeroGradTarget(GaussianTarget):
    def __init__(self):
        super().__init__(c=0.0)


class ZeroRng:
    """Noise-free stand-in for deterministic update checks."""

    def standard_normal(self, shape=()):
        return np.zeros(shape)


class ZeroScoreOracle:
    dim = 2
    score_error = 0.0

    def score(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def mixture_target(seed=0, x_prev=None):
    mix = IsotropicGaussianMixture(
        weights=np.array([0.3, 0.7]),
        means=np.array([[-1.0, 0.5], [0.8, -0.2]]),
        variances=np.array([0.6, 1.3]),
    )
    oracle = ScoreOracle(mix)
    sched = FixedSchedule.theory(1.5, 2, 0.0, 0.5)
    rng = np.random.default_rng(seed)
    if x_prev is None:
        x_prev = rng.standard_normal(2)
    return make_target(oracle, sched, sched.K - 1, x_prev)


class TestDdpm:
    def test_zero_score_single_step(self):
        rng = np.random.default_rng(0)
        state = ddpm_run(ZeroScoreOracle(), horizon=0.3, steps=1,
                         n_chains=200_000, rng=rng)
        eta = 0.3
        # x1 = e^eta x0 + noise, x0 ~ N(0, I): mean 0, var e^{2 eta}(1) + e^{2 eta}-1
        want = math.exp(2 * eta) + math.expm1(2 * eta)
        assert state.positions.mean() == pytest.approx(0.0, abs=0.02)
        assert state.positions.var() == pytest.approx(want, rel=0.02)
        assert state.nfe.tolist() == [1] * state.n_chains

    def test_standard_normal_stationary_variance(self):
        # exact score -x: per-step map x' = (2 - e^eta) x + sqrt(e^{2 eta}-1) xi
        oracle = ScoreOracle(IsotropicGaussianMixture.standard_normal(1))
        steps, horizon = 400, 40.0
        eta = horizon / steps
        coef = 2.0 - math.exp(eta)
        ar1_var = math.expm1(2 * eta) / (1 - coef * coef)
        rng = np.random.default_rng(1)
        state = ddpm_run(oracle, horizon, steps, 20_000, rng)
        se = ar1_var * math.sqrt(2.0 / state.n_chains)
        assert state.positions.var() == pytest.approx(ar1_var, abs=3 * se)
        assert abs(state.positions.mean()) < 3 * math.sqrt(ar1_var / state.n_chains)

    def test_fine_steps_approach_unit_variance(self):
        for steps in [60, 600, 6000]:
            eta = 6.0 / steps
            coef = 2.0 - math.exp(eta)
            ar1_var = math.expm1(2 * eta) / (1 - coef * coef)
            assert abs(ar1_var - 1.0) < 2.5 * eta
        assert ar1_var == pytest.approx(1.0, abs=0.003)

    def test_determinism_and_nfe(self):
        oracle = ScoreOracle(IsotropicGaussianMixture.standard_normal(3))
        a = ddpm_run(oracle, 2.0, 25, 64, np.random.default_rng(7))
        b = ddpm_run(oracle, 2.0, 25, 64, np.random.default_rng(7))
        np.testing.assert_array_equal(a.positions, b.positions)
        assert set(a.nfe.tolist()) == {25}

    def test_validation(self):
        oracle = ScoreOracle(IsotropicGaussianMixture.standard_normal(1))
        with pytest.raises(ValueError):
            ddpm_run(oracle, 1.0, 0, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ddpm_run(oracle, 0.0, 4, 4, np.random.default_rng(0))


class TestUla:
    def test_zero_gradient_is_brownian(self):
        tau = 0.07
        state = ChainState(np.zeros((100_000, 1)), np.random.default_rng(0))
        ula_step(ZeroGradTarget(), state, tau)
        assert state.positions.var() == pytest.approx(2 * tau, rel=0.02)
        assert set(state.nfe.tolist()) == {1}

    def test_quadratic_stationary_variance(self):
        # AR(1) fixed point 2 tau / (1 - (1 - tau c)^2), inflated above 1/c
        c, tau = 1.0, 0.1
        target = GaussianTarget(c)
        state = ChainState(np.random.default_rng(0).standard_normal((20_000, 1)),
                           np.random.default_rng(1))
        ula_run(target, UlaSpec(steps=400, tau=tau), state)
        want = 2 * tau / (1 - (1 - tau * c) ** 2)
        se = want * math.sqrt(2.0 / state.n_chains)
        assert state.positions.var() == pytest.approx(want, abs=3 * se)

    def test_small_tau_approaches_target_variance(self):
        c, tau = 1.0, 0.01
        target = GaussianTarget(c)
        state = ChainState(np.random.default_rng(2).standard_normal((20_000, 1)),
                           np.random.default_rng(3))
        ula_run(target, UlaSpec(steps=1200, tau=tau), state)
        want = 2 * tau / (1 - (1 - tau * c) ** 2)
        assert abs(want - 1.0 / c) < 0.01
        se = want * math.sqrt(2.0 / state.n_chains)
        assert state.positions.var() == pytest.approx(want, abs=3 * se)
        assert set(state.nfe.tolist()) == {1200}


class TestMalaAcceptLog:
    def test_identity_proposal_accepts(self):
        target = mixture_target()
        z = np.array([[0.4, -0.9]])
        assert mala_accept_log(target, z, z, 0.05)[0] == 0.0

    def test_matches_independent_mh_ratio(self):
        target = mixture_target(seed=5)
        rng = np.random.default_rng(6)
        tau = 0.05
        z = rng.standard_normal((500, 2))
        zp = z - tau * target.grad_energy(z) + math.sqrt(2 * tau) * rng.standard_normal((500, 2))
        got = mala_accept_log(target, z, zp, tau)
        # independent evaluation from explicit energies and proposal densities
        logpi = lambda x: -target.energy(x)
        logq = lambda a, b: -((b - a + tau * target.grad_energy(a)) ** 2).sum(axis=-1) / (4 * tau)
        want = logpi(zp) + logq(zp, z) - logpi(z) - logq(z, zp)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_detailed_balance_two_sided(self):
        target = GaussianTarget(1.0)
        rng = np.random.default_rng(7)
        tau = 0.01
        n = 10_000
        z = rng.standard_normal((n, 1)) * 1.5
        half = n // 2
        zp = np.empty_like(z)
        zp[:half] = z[:half] - tau * target.grad_energy(z[:half]) \
            + math.sqrt(2 * tau) * rng.standard_normal((half, 1))
        zp[half:] = rng.standard_normal((n - half, 1)) * 1.5
        logq = lambda a, b: -((b - a + tau * target.grad_energy(a)) ** 2).sum(axis=-1) / (4 * tau)
        fwd = np.minimum(0.0, mala_accept_log(target, z, zp, tau))
        rev = np.minimum(0.0, mala_accept_log(target, zp, z, tau))
        lhs = -target.energy(z) + logq(z, zp) + fwd
        rhs = -target.energy(zp) + logq(zp, z) + rev
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestProjectedGate:
    def test_stay_is_inside(self):
        z = np.array([[0.5, 0.0]])
        assert projected_gate(z, z, r=0.1, R=1.0).all()

    def test_outer_ball_boundary(self):
        z = np.zeros((1, 2))
        just_out = np.array([[1.0 + 1e-9, 0.0]])
        on_edge = np.array([[1.0, 0.0]])
        assert not projected_gate(z, just_out, r=5.0, R=1.0).any()
        assert projected_gate(z, on_edge, r=5.0, R=1.0).all()

    def test_move_ball_closed(self):
        z = np.zeros((1, 2))
        at_r = np.array([[0.3, 0.0]])
        assert projected_gate(z, at_r, r=0.3, R=10.0).all()
        assert not projected_gate(z, at_r * (1 + 1e-9), r=0.3, R=10.0).any()


class TestDefaultProjectionParams:
    def test_frozen_example(self):
        R, r, tau = default_projection_params(1.0, 1, 1.0, 0.0, 100, 0.1)
        assert R == pytest.approx(63.0 * math.sqrt(2 * math.log(16_000)), rel=1e-14)
        assert R == pytest.approx(277.20492542828237, rel=1e-12)
        assert tau == pytest.approx(1.9440789576004154e-7 / (2 * math.log(16_000)), rel=1e-12)
        assert r == pytest.approx(3 * math.sqrt(tau * math.log(8_00_0)), rel=1e-12)

    def test_r_over_sqrt_tau_independent_of_L(self):
        vals = []
        for L in [0.5, 3.0, 40.0]:
            _, r, tau = default_projection_params(L, 4, 1.2, 0.7, 50, 0.2)
            vals.append(r / math.sqrt(tau))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[0] == pytest.approx(vals[2], rel=1e-12)
        assert vals[0] == pytest.approx(3 * math.sqrt(4 * math.log(8 * 50 / 0.2)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_projection_params(1.0, 1, 1.0, 0.0, 100, 1.0)
        with pytest.raises(ValueError):
            default_projection_params(0.0, 1, 1.0, 0.0, 100, 0.1)


class TestTaylorEnergyDiff:
    def test_affine_energy_first_order_exact(self):
        s0 = np.array([0.7, -1.2])
        score_fn = lambda x: np.broadcast_to(s0, np.asarray(x).shape)
        rng = np.random.default_rng(0)
        z = rng.standard_normal((8, 2))
        z2 = rng.standard_normal((8, 2))
        got, cost = taylor_energy_diff(score_fn, z, z2, u=1, dt=1e-3)
        want = (-s0 * (z2 - z)).sum(axis=-1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert cost == 1

    def test_quadratic_second_order(self):
        score_fn = lambda x: -np.asarray(x, dtype=float)
        rng = np.random.default_rng(1)
        z = rng.standard_normal((16, 3))
        z2 = rng.standard_normal((16, 3))
        got, cost = taylor_energy_diff(score_fn, z, z2, u=2, dt=1e-3)
        want = ((z2 * z2).sum(axis=-1) - (z * z).sum(axis=-1)) / 2.0
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)
        assert cost == 2

    def test_quadratic_first_order_error(self):
        score_fn = lambda x: -np.asarray(x, dtype=float)
        z = np.array([[0.3, -0.4]])
        z2 = np.array([[1.1, 0.2]])
        got, _ = taylor_energy_diff(score_fn, z, z2, u=1, dt=1e-3)
        exact = ((z2 * z2).sum(-1) - (z * z).sum(-1)) / 2.0
        gap = ((z2 - z) ** 2).sum(-1) / 2.0
        np.testing.assert_allclose(exact - got, gap, rtol=1e-12)

    def test_charged_cost_doubles_with_order(self):
        score_fn = lambda x: -np.asarray(x, dtype=float)
        z = np.zeros((1, 1))
        z2 = np.ones((1, 1))
        for u, cost in [(1, 1), (2, 2), (3, 4), (4, 8)]:
            assert taylor_energy_diff(score_fn, z, z2, u=u, dt=1e-4)[1] == cost

    def test_second_order_estimate_first_order_in_dt(self):
        # cubic energy z^3/6 + z^2/2: the u=2 estimate approaches its
        # truncation limit h'(0) + h''(0)/2 linearly in dt
        score_fn = lambda x: -(np.asarray(x, dtype=float) ** 2 / 2.0 + np.asarray(x, dtype=float))
        z, z2 = 0.4, 1.3
        dz = z2 - z
        limit = (z * z / 2 + z) * dz + (z + 1.0) * dz * dz / 2.0
        errs = []
        dts = [1e-2, 1e-3, 1e-4]
        for dt in dts:
            got, _ = taylor_energy_diff(score_fn, np.array([[z]]), np.array([[z2]]), u=2, dt=dt)
            errs.append(abs(got.item() - limit))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_cached_score_matches_fresh_call(self):
        target = mixture_target(seed=2)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((5, 2))
        z2 = rng.standard_normal((5, 2))
        fresh, _ = taylor_energy_diff(target.score, z, z2, u=2, dt=1e-3)
        cached, _ = taylor_energy_diff(target.score, z, z2, u=2, dt=1e-3,
                                       score_at_z=target.score(z))
        np.testing.assert_array_equal(fresh, cached)


class TestMalaRun:
    def test_zero_steps_is_identity(self):
        target = GaussianTarget()
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((10, 1))
        state = ChainState(z0.copy(), rng)
        mala_run(target, MalaSpec(steps=0, tau=0.1), state)
        np.testing.assert_array_equal(state.positions, z0)
        assert state.nfe.sum() == 0

    def test_standard_normal_stationarity(self):
        target = GaussianTarget(1.0)
        rng = np.random.default_rng(4)
        state = ChainState(2.0 * rng.standard_normal((20_000, 1)), rng)
        mala_run(target, MalaSpec(steps=500, tau=0.05), state)
        assert abs(state.positions.mean()) <= 0.03
        assert 0.94 <= state.positions.var() <= 1.06
        assert 0.5 < state.accept_rate() < 1.0

    def test_nfe_accounting_exact_and_taylor(self):
        target = GaussianTarget(1.0)
        state = ChainState(np.zeros((8, 1)), np.random.default_rng(0))
        mala_run(target, MalaSpec(steps=10, tau=0.05), state)
        assert set(state.nfe.tolist()) == {11}
        state2 = ChainState(np.zeros((8, 1)), np.random.default_rng(0))
        mala_run(target, MalaSpec(steps=10, tau=0.05, estimator="taylor",
                                  taylor_order=2), state2)
        assert set(state2.nfe.tolist()) == {21}
        assert set(state2.propose_count.tolist()) == {10}

    def test_taylor_matches_exact_on_quadratic(self):
        # second-order Taylor is exact for quadratics, so same-seed runs agree
        target = GaussianTarget(1.0)
        a = ChainState(np.full((64, 2), 0.5), np.random.default_rng(9))
        b = ChainState(np.full((64, 2), 0.5), np.random.default_rng(9))
        mala_run(target, MalaSpec(steps=200, tau=0.1), a)
        mala_run(target, MalaSpec(steps=200, tau=0.1, estimator="taylor"), b)
        np.testing.assert_allclose(a.positions, b.positions, atol=1e-9)
        np.testing.assert_array_equal(a.accept_count, b.accept_count)

    def test_projected_replays_standard_when_gate_silent(self):
        target = mixture_target(seed=11)
        wide = MalaSpec(steps=300, tau=0.02, projected=True,
                        radius_R=1e6, radius_r=1e3)
        plain = MalaSpec(steps=300, tau=0.02)
        a = ChainState(np.zeros((32, 2)), np.random.default_rng(12))
        b = ChainState(np.zeros((32, 2)), np.random.default_rng(12))
        mala_run(target, wide, a)
        mala_run(target, plain, b)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.accept_count, b.accept_count)

    def test_tiny_move_radius_freezes_chain(self):
        target = GaussianTarget(1.0)
        z0 = np.full((16, 1), 0.3)
        state = ChainState(z0.copy(), np.random.default_rng(13))
        mala_run(target, MalaSpec(steps=50, tau=0.05, projected=True,
                                  radius_R=10.0, radius_r=1e-12), state)
        np.testing.assert_array_equal(state.positions, z0)
        assert state.accept_count.sum() == 0
        assert set(state.propose_count.tolist()) == {50}

    def test_determinism(self):
        target = mixture_target(seed=15)
        a = ChainState(np.zeros((16, 2)), np.random.default_rng(16))
        b = ChainState(np.zeros((16, 2)), np.random.default_rng(16))
        mala_run(target, MalaSpec(steps=40, tau=0.03), a)
        mala_run(target, MalaSpec(steps=40, tau=0.03), b)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.nfe, b.nfe)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MalaSpec(steps=1, tau=0.0)
        with pytest.raises(ValueError):
            MalaSpec(steps=1, tau=0.1, projected=True, radius_R=1.0, radius_r=2.0)
        with pytest.raises(ValueError):
            MalaSpec(steps=1, tau=0.1, estimator="magic")


class TestUldNoise:
    def quad_cov(self, gamma, tau):
        from scipy.integrate import quad
        vz = (2.0 / gamma) * quad(lambda u: (1 - math.exp(-gamma * u)) ** 2, 0, tau)[0]
        cv = 2.0 * quad(lambda u: math.exp(-gamma * u) * (1 - math.exp(-gamma * u)), 0, tau)[0]
        vv = 2.0 * gamma * quad(lambda u: math.exp(-2 * gamma * u), 0, tau)[0]
        return vz, cv, vv

    def test_matches_integrated_kernel_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            gamma = float(rng.uniform(0.3, 12.0))
            tau = float(rng.uniform(0.005, 0.8))
            vz, cv, vv, clamped = uld_noise_covariance(gamma, tau)
            qz, qc, qv = self.quad_cov(gamma, tau)
            assert vz == pytest.approx(qz, abs=1e-8)
            assert cv == pytest.approx(qc, abs=1e-8)
            assert vv == pytest.approx(qv, abs=1e-8)
            assert not clamped

    def test_tiny_step_limits(self):
        vz, cv, vv, _ = uld_noise_covariance(1.0, 1e-8)
        assert vv <= 2.1e-8
        assert vz <= 1e-16
        assert cv <= 1e-8
        assert vz > 0

    def test_log_two_velocity_variance(self):
        vv = uld_noise_covariance(1.0, math.log(2))[2]
        assert vv == pytest.approx(0.75, rel=1e-12)

    def test_series_meets_closed_form_at_cutoff(self):
        gamma = 2.0
        for x in [0.9e-3, 1.1e-3]:
            tau = x / gamma
            one_minus = -math.expm1(-x)
            closed = (2 / gamma) * (tau - (2 / gamma) * one_minus
                                    + (-math.expm1(-2 * x)) / (2 * gamma))
            series = 2 * gamma * tau ** 3 * (1 / 3 - x / 4 + 7 * x * x / 60 - x ** 3 / 24)
            assert closed == pytest.approx(series, rel=1e-6)

    def test_positive_semidefinite_across_scales(self):
        for x in [1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0, 10.0, 50.0]:
            vz, cv, vv, _ = uld_noise_covariance(3.0, x / 3.0)
            assert vz >= 0 and vv >= 0
            assert vz * vv - cv * cv >= -1e-30
            xi_z, xi_v, _ = uld_noise_pair(3.0, x / 3.0, np.random.default_rng(0), (16,))
            assert np.isfinite(xi_z).all() and np.isfinite(xi_v).all()

    def test_empirical_covariance(self):
        gamma, tau, n = 4.9, 0.05, 100_000
        xi_z, xi_v, _ = uld_noise_pair(gamma, tau, np.random.default_rng(1), (n,))
        vz, cv, vv, _ = uld_noise_covariance(gamma, tau)
        assert xi_z.var() == pytest.approx(vz, abs=3 * vz * math.sqrt(2 / n))
        assert xi_v.var() == pytest.approx(vv, abs=3 * vv * math.sqrt(2 / n))
        got_cov = np.cov(xi_z, xi_v)[0, 1]
        se = math.sqrt((vz * vv + cv * cv) / n)
        assert got_cov == pytest.approx(cv, abs=3 * se)


class TestUldStep:
    def test_free_flight(self):
        state = ChainState(np.array([[1.0, 2.0]]), ZeroRng(),
                           velocity=np.array([[0.5, -1.0]]))
        gamma, tau = 2.0, 0.3
        uld_step(ZeroGradTarget(), state, tau, gamma)
        c1 = -math.expm1(-gamma * tau) / gamma
        np.testing.assert_allclose(state.positions,
                                   [[1.0 + 0.5 * c1, 2.0 - 1.0 * c1]], atol=1e-14)
        np.testing.assert_allclose(state.velocity,
                                   np.array([[0.5, -1.0]]) * math.exp(-gamma * tau),
                                   atol=1e-14)

    def test_overdamped_velocity_limit(self):
        target = GaussianTarget(1.0)
        state = ChainState(np.array([[2.0]]), ZeroRng(), velocity=np.array([[3.0]]))
        gamma, tau = 1e6, 1.0
        uld_step(target, state, tau, gamma)
        # e^-gt ~ 0 and c1 ~ 1/gamma: v' ~ -grad/gamma
        assert state.velocity[0, 0] == pytest.approx(-2.0 / gamma, rel=1e-5)

    def test_quadratic_stationary_law(self):
        c = 1.0
        gamma = 2 * math.sqrt(6 * c)
        tau = 0.05
        target = GaussianTarget(c)
        rng = np.random.default_rng(5)
        state = ChainState(rng.standard_normal((20_000, 1)), rng,
                           velocity=rng.standard_normal((20_000, 1)))
        uld_run(target, UldSpec(steps=1000, tau=tau, gamma=gamma), state)
        assert state.positions.var() == pytest.approx(1.0 / c, rel=0.05)
        assert state.velocity.var() == pytest.approx(1.0, rel=0.05)
        assert set(state.nfe.tolist()) == {1000}

    def test_velocity_required(self):
        state = ChainState(np.zeros((4, 1)), np.random.default_rng(0))
        with pytest.raises(ValueError):
            uld_step(GaussianTarget(), state, 0.1, 1.0)


class TestRtkRun:
    def oracle(self, dim=1):
        return ScoreOracle(IsotropicGaussianMixture.standard_normal(dim))

    def test_zero_segments_returns_prior(self):
        oracle = self.oracle(3)
        sched = FixedSchedule(times=(), horizon=6.0, L=1.0)
        state, traces = rtk_run(oracle, sched, MalaSpec(steps=5, tau=0.1),
                                2000, np.random.default_rng(21))
        want = np.random.default_rng(21).standard_normal((2000, 3))
        np.testing.assert_array_equal(state.positions, want)
        assert traces == []
        assert state.nfe.sum() == 0

    def test_standard_normal_fixed_point_mala(self):
        oracle = self.oracle(1)
        sched = FixedSchedule.theory(1.0, 1, 0.0, 0.5)
        state, traces = rtk_run(oracle, sched, MalaSpec(steps=60, tau=0.1),
                                10_000, np.random.default_rng(22))
        assert abs(state.positions.mean()) <= 0.03
        assert 0.94 <= state.positions.var() <= 1.06
        assert len(traces) == sched.K
        assert all(t.accepts <= t.proposals for t in traces)

    def test_standard_normal_fixed_point_ula(self):
        oracle = self.oracle(1)
        sched = FixedSchedule.theory(1.0, 1, 0.0, 0.5)
        state, traces = rtk_run(oracle, sched, UlaSpec(steps=80, tau=0.02),
                                10_000, np.random.default_rng(23))
        assert abs(state.positions.mean()) <= 0.035
        assert 0.92 <= state.positions.var() <= 1.08
        assert all(t.proposals == 0 for t in traces)

    def test_standard_normal_fixed_point_uld(self):
        oracle = self.oracle(1)
        sched = FixedSchedule.theory(1.0, 1, 0.0, 0.5)
        # zero-centered theory init discards x_prev, so each segment must be
        # run to full re-convergence: contraction ~ c/gamma per unit time
        gamma = 2 * math.sqrt(6 * 3.0)
        state, _ = rtk_run(oracle, sched, UldSpec(steps=300, tau=0.05, gamma=gamma),
                           10_000, np.random.default_rng(24))
        assert abs(state.positions.mean()) <= 0.035
        assert 0.92 <= state.positions.var() <= 1.08

    def test_nfe_totals(self):
        oracle = self.oracle(2)
        sched = FixedSchedule.theory(1.0, 2, 0.0, 0.7)
        k = sched.K
        mala, _ = rtk_run(oracle, sched, MalaSpec(steps=7, tau=0.1),
                          16, np.random.default_rng(25))
        assert set(mala.nfe.tolist()) == {k * 8}
        ula, _ = rtk_run(oracle, sched, UlaSpec(steps=7, tau=0.1),
                         16, np.random.default_rng(26))
        assert set(ula.nfe.tolist()) == {k * 7}
        es, _ = rtk_run(oracle, sched, MalaSpec(steps=7, tau=0.1, estimator="taylor"),
                        16, np.random.default_rng(27))
        assert set(es.nfe.tolist()) == {k * 15}

    def test_per_segment_specs_and_errors(self):
        oracle = self.oracle(1)
        sched = FixedSchedule.theory(1.0, 1, 0.0, 1.0)  # K = 3
        specs = [MalaSpec(steps=s, tau=0.1) for s in (3, 4, 5)]
        state, traces = rtk_run(oracle, sched, specs, 8, np.random.default_rng(28))
        assert [t.steps for t in traces] == [3, 4, 5]
        assert set(state.nfe.tolist()) == {3 + 4 + 5 + 3}
        with pytest.raises(ValueError):
            rtk_run(oracle, sched, specs[:2], 8, np.random.default_rng(28))
        with pytest.raises(TypeError):
            rtk_run(oracle, sched, [SimpleNamespace(steps=5)] * 3, 8,
                    np.random.default_rng(28))

    def test_uld_warm_init_on_fixed_schedule(self):
        mix = IsotropicGaussianMixture.ring(12, 10)
        oracle = ScoreOracle(mix)
        sched = FixedSchedule(times=(0.0, 1.2, 2.4, 3.6, 4.8), horizon=6.0,
                              L=[1.1, 1.2, 1.6, 4.3, 143.0])
        spec = UldSpec(steps=5, tau=1e-3, gamma=2 * math.sqrt(6 * 143.0), init="warm")
        state, traces = rtk_run(oracle, sched, spec, 32, np.random.default_rng(29))
        assert np.isfinite(state.positions).all()
        assert len(traces) == 5

    def test_initialization_uses_each_segments_curvature(self):
        oracle = self.oracle(2)
        sched = FixedSchedule(times=(0.0, 0.5), horizon=1.5, L=[7.0, 0.25])
        state, _ = rtk_run(oracle, sched, MalaSpec(steps=0, tau=0.1), 50,
                           np.random.default_rng(31))
        rng = np.random.default_rng(31)
        x = rng.standard_normal((50, 2))
        for seg in sched.segments():
            x = mala_init(seg, x).sample(rng)
        np.testing.assert_array_equal(state.positions, x)

    def test_determinism(self):
        mix = IsotropicGaussianMixture.ring(12, 4, radius=1.0, variance=0.05)
        oracle = ScoreOracle(mix)
        sched = FixedSchedule(times=(0.0, 1.5, 3.0), horizon=4.5, L=21.0)
        spec = MalaSpec(steps=20, tau=0.01)
        a, _ = rtk_run(oracle, sched, spec, 64, np.random.default_rng(30))
        b, _ = rtk_run(oracle, sched, spec, 64, np.random.default_rng(30))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.nfe, b.nfe)
