"""Tests for the inner samplers and their NFE accounting."""

import functools
import itertools
import math
import re
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from rtkbench import samplers
from rtkbench.samplers import (
    ChainState,
    MalaSpec,
    UlaSpec,
    UldSpec,
    ddpm_run,
    mala_accept_log,
    mala_run,
    rtk_run,
    taylor_energy_diff,
    ula_run,
    ula_step,
    uld_noise_covariance,
    uld_noise_pair,
    uld_run,
    uld_step,
)
from rtkbench.schedule import FixedSchedule, RtkTarget, mala_init, make_target
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
        assert state.nfe == state.n_chains

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
        assert a.nfe == 25 * 64

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
        assert state.nfe == 100_000

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
        assert state.nfe == 1200 * state.n_chains


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

    def test_proposal_score_replaces_the_unit_node(self):
        # Dyadic points, so the node z + 1.0 (z2 - z) is z2 exactly.
        target = mixture_target(seed=2)
        rng = np.random.default_rng(4)
        z = np.round(rng.standard_normal((6, 2)) * 64) / 64
        z2 = np.round(rng.standard_normal((6, 2)) * 64) / 64
        np.testing.assert_array_equal(z + 1.0 * (z2 - z), z2)
        calls = []

        def counting(x):
            calls.append(len(x))
            return target.score(x)

        fresh, _ = taylor_energy_diff(counting, z, z2, u=2, dt=1.0)
        assert calls == [6, 6]
        calls.clear()
        reused, cost = taylor_energy_diff(counting, z, z2, u=2, dt=1.0,
                                          score_at_z=target.score(z),
                                          score_at_z2=target.score(z2))
        assert calls == [] and cost == 2
        np.testing.assert_array_equal(reused, fresh)
        # Off the unit node the proposal's score is not used.
        taylor_energy_diff(counting, z, z2, u=2, dt=0.5, score_at_z=target.score(z),
                           score_at_z2=target.score(z2))
        assert calls == [6]


class TestMalaRun:
    def test_zero_steps_is_identity(self):
        target = GaussianTarget()
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((10, 1))
        state = ChainState(z0.copy(), rng)
        mala_run(target, MalaSpec(steps=0, tau=0.1), state)
        np.testing.assert_array_equal(state.positions, z0)
        assert state.nfe == 0

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
        assert state.nfe == 11 * 8
        state2 = ChainState(np.zeros((8, 1)), np.random.default_rng(0))
        mala_run(target, MalaSpec(steps=10, tau=0.05, estimator="taylor",
                                  taylor_order=2), state2)
        assert state2.nfe == 21 * 8
        assert state2.propose_count == 10 * 8

    def test_taylor_matches_exact_on_quadratic(self):
        # second-order Taylor is exact for quadratics, so same-seed runs agree
        target = GaussianTarget(1.0)
        a = ChainState(np.full((64, 2), 0.5), np.random.default_rng(9))
        b = ChainState(np.full((64, 2), 0.5), np.random.default_rng(9))
        mala_run(target, MalaSpec(steps=200, tau=0.1), a)
        mala_run(target, MalaSpec(steps=200, tau=0.1, estimator="taylor"), b)
        np.testing.assert_allclose(a.positions, b.positions, atol=1e-9)
        assert a.accept_count == b.accept_count

    def test_determinism(self):
        target = mixture_target(seed=15)
        a = ChainState(np.zeros((16, 2)), np.random.default_rng(16))
        b = ChainState(np.zeros((16, 2)), np.random.default_rng(16))
        mala_run(target, MalaSpec(steps=40, tau=0.03), a)
        mala_run(target, MalaSpec(steps=40, tau=0.03), b)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert a.nfe == b.nfe == 41 * 16

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MalaSpec(steps=1, tau=0.0)
        with pytest.raises(ValueError):
            MalaSpec(steps=1, tau=0.1, estimator="magic")
        with pytest.raises(ValueError, match=r"taylor_dt must lie in \(0, 1\]"):
            MalaSpec(steps=1, tau=0.1, estimator="taylor", taylor_dt=4.0)


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
        assert state.nfe == 1000 * 20_000

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
        assert state.nfe == 0

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
        assert mala.nfe == k * 8 * 16
        ula, _ = rtk_run(oracle, sched, UlaSpec(steps=7, tau=0.1),
                         16, np.random.default_rng(26))
        assert ula.nfe == k * 7 * 16
        es, _ = rtk_run(oracle, sched, MalaSpec(steps=7, tau=0.1, estimator="taylor"),
                        16, np.random.default_rng(27))
        assert es.nfe == k * 15 * 16

    def test_per_segment_specs_and_errors(self):
        oracle = self.oracle(1)
        sched = FixedSchedule.theory(1.0, 1, 0.0, 1.0)  # K = 3
        specs = [MalaSpec(steps=s, tau=0.1) for s in (3, 4, 5)]
        state, traces = rtk_run(oracle, sched, specs, 8, np.random.default_rng(28))
        assert [t.steps for t in traces] == [3, 4, 5]
        assert state.nfe == (3 + 4 + 5 + 3) * 8
        with pytest.raises(ValueError):
            rtk_run(oracle, sched, specs[:2], 8, np.random.default_rng(28))
        with pytest.raises(TypeError):
            rtk_run(oracle, sched, [SimpleNamespace(steps=5)] * 3, 8,
                    np.random.default_rng(28))

    def test_segment_traces_add_up_to_the_state_counters(self):
        sched = FixedSchedule.theory(1.0, 1, 0.0, 1.0)  # K = 3
        for specs, per_step in (([MalaSpec(steps=s, tau=0.1) for s in (3, 4, 5)], 8),
                                ([UlaSpec(steps=s, tau=0.1) for s in (3, 4, 5)], 0),
                                ([UldSpec(steps=s, tau=0.1, gamma=2.0) for s in (3, 4, 5)], 0)):
            state, traces = rtk_run(self.oracle(1), sched, specs, 8, np.random.default_rng(32))
            assert [t.proposals for t in traces] == [3 * per_step, 4 * per_step, 5 * per_step]
            assert sum(t.proposals for t in traces) == state.propose_count
            assert sum(t.accepts for t in traces) == state.accept_count

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
        assert a.nfe == b.nfe


# At d = 2 a draw for this many chains has 5,000 elements, enough for a
# unit to hand its draws to a helper thread.
AHEAD_CHAINS = 2500
assert 2 * AHEAD_CHAINS >= samplers._AHEAD_MIN_SIZE

LOOPS = {
    "ula": (ula_run, UlaSpec(steps=6, tau=0.05)),
    "uld": (uld_run, UldSpec(steps=6, tau=0.1, gamma=2.0)),
    "mala": (mala_run, MalaSpec(steps=6, tau=0.05)),
    "mala_es": (mala_run, MalaSpec(steps=6, tau=0.05, estimator="taylor")),
}


class RecordingRng:
    """A Generator that notes the thread making each draw."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.threads = []

    def standard_normal(self, size=None):
        self.threads.append(threading.get_ident())
        return self.gen.standard_normal(size)

    def random(self, size=None):
        self.threads.append(threading.get_ident())
        return self.gen.random(size)


def run_loop(name, rng):
    """Six steps of one inner loop over AHEAD_CHAINS chains at d = 2."""
    oracle = ScoreOracle(mixture_target().oracle.base, score_error=0.5, error_seed=3,
                         error_cell=1e6)
    target = RtkTarget(oracle, 0.5, 0.5, rng.standard_normal((AHEAD_CHAINS, 2)))
    state = ChainState(rng.standard_normal((AHEAD_CHAINS, 2)), rng,
                       velocity=rng.standard_normal((AHEAD_CHAINS, 2)))
    run, spec = LOOPS[name]
    return run(target, spec, state)


# Whole units over three segments: ULA warm-starts its later segments, ULD
# draws its initialization pair either way, and MALA restarts even a 0-step
# segment.
UNITS = {
    "ula": UlaSpec(steps=3, tau=0.05),
    "uld": UldSpec(steps=3, tau=0.1, gamma=2.0),
    "uld_warm": UldSpec(steps=3, tau=0.1, gamma=2.0, init="warm"),
    "mala": [MalaSpec(steps=3, tau=0.05), MalaSpec(steps=0, tau=0.05), MalaSpec(steps=2, tau=0.05)],
    "mala_es": MalaSpec(steps=3, tau=0.05, estimator="taylor"),
}


def run_unit(name, rng, chains=AHEAD_CHAINS):
    """The final state of one unit, as bench runs it, at d = 2."""
    oracle = ScoreOracle(mixture_target().oracle.base, score_error=0.5, error_seed=3,
                         error_cell=1e6)
    if name == "ddpm":
        return ddpm_run(oracle, 1.5, 6, chains, rng)
    sched = FixedSchedule(times=(0.0, 0.5, 1.0), horizon=1.5, L=2.0)
    return rtk_run(oracle, sched, UNITS[name], chains, rng)[0]


def helper_threads(rng):
    return set(rng.threads) - {threading.get_ident()}


@pytest.fixture
def two_usable_cores(monkeypatch):
    """A helper is started as on any host with a spare core."""
    monkeypatch.setattr(samplers, "_usable_cores", lambda: 2)


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs."""
    started, real = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or real(self))
    return started


def assert_same_run(a, b):
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.velocity, b.velocity)
    assert (a.nfe, a.accept_count, a.propose_count) == (b.nfe, b.accept_count, b.propose_count)
    assert a.rng.gen.bit_generator.state == b.rng.gen.bit_generator.state


def swap_pairs(plan):
    """Each step's two planned draws in the other order."""
    return [task[::-1] for task in plan]


class SwappedPlan(samplers._DrawAhead):
    def __init__(self, state, plan):
        super().__init__(state, swap_pairs(plan))


class ExtraTask(samplers._DrawAhead):
    """A faulty plan: one task more than its unit draws."""

    def __init__(self, state, plan):
        super().__init__(state, plan + plan[-1:])


class SwappedByKind(SwappedPlan):
    """A faulty stand-in: the helper draws each uniform before its step's
    normal, and requests are served by kind, so no request is refused."""

    def _take(self, kind, size):
        if not self._task:
            task, ahead = self._ahead.popleft()
            self._submit(1)
            self._task = list(zip(task, ahead.result()))
        i = next(i for i, (planned, _) in enumerate(self._task) if planned == (kind, size))
        return self._task.pop(i)[1]

    standard_normal = functools.partialmethod(_take, "standard_normal")
    random = functools.partialmethod(_take, "random")


def inline_run(run, name, monkeypatch):
    """run(name, rng) from RecordingRng(40), every draw made inline."""
    with monkeypatch.context() as m:
        m.setattr(samplers, "_AHEAD_MIN_SIZE", math.inf)
        rng = RecordingRng(40)
        state = run(name, rng)
    assert not helper_threads(rng)
    return state


@pytest.mark.usefixtures("two_usable_cores")
class TestDrawAhead:
    @pytest.mark.parametrize("name", list(LOOPS))
    def test_a_loop_run_alone_draws_inline(self, name, thread_starts):
        rng = RecordingRng(40)
        state = run_loop(name, rng)
        assert not thread_starts and rng.threads and not helper_threads(rng)
        assert state.rng is rng

    def test_identity_holds_with_a_short_switch_interval(self, monkeypatch):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ahead = run_unit("mala", RecordingRng(40))
        finally:
            sys.setswitchinterval(interval)
        assert_same_run(ahead, inline_run(run_unit, "mala", monkeypatch))

    def test_control_a_swapped_plan_fails_the_identity_check(self, monkeypatch):
        inline = inline_run(run_unit, "mala", monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(samplers, "_DrawAhead", SwappedPlan)
            with pytest.raises(RuntimeError, match="unplanned draw standard_normal"):
                run_unit("mala", RecordingRng(40))
            m.setattr(samplers, "_DrawAhead", SwappedByKind)
            swapped = run_unit("mala", RecordingRng(40))
        with pytest.raises(AssertionError):
            assert_same_run(swapped, inline)

    @pytest.mark.parametrize("chains", [AHEAD_CHAINS, 10], ids=["helper", "inline"])
    def test_an_unplanned_draw_raises(self, chains):
        rng = np.random.default_rng(0)
        state = ChainState(np.zeros((chains, 2)), rng)
        with samplers._DrawAhead(state, [(("standard_normal", (chains, 2)), ("random", chains))]):
            assert state.rng.standard_normal((chains, 2)).shape == (chains, 2)
            want = f"unplanned draw standard_normal({(chains, 2)}); the plan has {('random', chains)}"
            with pytest.raises(RuntimeError, match=re.escape(want)):
                state.rng.standard_normal((chains, 2))
            want = f"unplanned draw random({chains}); the plan has nothing next"
            with pytest.raises(RuntimeError, match=re.escape(want)):
                state.rng.random(chains)
        assert state.rng is rng

    @pytest.mark.parametrize("chains", [AHEAD_CHAINS, 10], ids=["helper", "inline"])
    def test_control_a_plan_with_a_task_left_raises(self, chains, monkeypatch):
        monkeypatch.setattr(samplers, "_DrawAhead", ExtraTask)
        rng = RecordingRng(65)
        with pytest.raises(RuntimeError, match="the unit ended with planned draws left"):
            run_unit("mala", rng, chains)
        assert bool(helper_threads(rng)) == (chains == AHEAD_CHAINS)

    def test_a_helper_error_surfaces_in_the_caller(self, monkeypatch):
        class FailingRng(RecordingRng):
            def standard_normal(self, size=None):
                super().standard_normal(size)
                raise ValueError("planted draw fault")

        states = []
        monkeypatch.setattr(samplers, "ChainState",
                            lambda *args: states.append(ChainState(*args)) or states[-1])
        rng = FailingRng(42)
        baseline = threading.active_count()
        with pytest.raises(ValueError, match="planted draw fault"):
            run_unit("ula", rng)
        assert helper_threads(rng) and threading.get_ident() not in rng.threads
        assert states[0].rng is rng
        assert threading.active_count() == baseline


@pytest.mark.usefixtures("two_usable_cores")
class TestUnitPlan:
    """One plan per unit: the prior, each segment's initialization and each
    step, made ahead on one helper thread."""

    @pytest.mark.parametrize("name", ["ddpm", *UNITS])
    def test_helper_unit_equals_the_inline_unit(self, name, monkeypatch):
        rng = RecordingRng(40)
        ahead = run_unit(name, rng)
        # Every draw of the unit, the prior and each initialization too.
        assert len(helper_threads(rng)) == 1 and threading.get_ident() not in rng.threads
        assert ahead.rng is rng
        assert_same_run(ahead, inline_run(run_unit, name, monkeypatch))

    @pytest.mark.parametrize("name", ["ddpm", *UNITS])
    def test_a_unit_starts_one_helper_thread(self, name, thread_starts):
        run_unit(name, RecordingRng(61))
        assert len(thread_starts) == 1

    def test_each_initialization_and_each_step_is_one_task(self, monkeypatch):
        tasks, real = [], samplers._DrawAhead._draw
        monkeypatch.setattr(samplers._DrawAhead, "_draw",
                            lambda self, task: tasks.append(task) or real(self, task))
        normal, uniform = ("standard_normal", (AHEAD_CHAINS, 2)), ("random", AHEAD_CHAINS)
        run_unit("mala", RecordingRng(64))
        # The prior; then per segment its initialization and its 3, 0 and 2 steps.
        assert tasks == ([(normal,)] * 2 + [(normal, uniform)] * 3 + [(normal,)] * 2
                         + [(normal, uniform)] * 2)
        tasks.clear()
        run_unit("uld", RecordingRng(64))
        assert tasks == [(normal,)] + ([(normal, normal)] * 4) * 3

    @pytest.mark.parametrize("chains", [AHEAD_CHAINS, 10], ids=["helper", "inline"])
    def test_an_initialization_draw_outside_the_plan_raises(self, chains, monkeypatch):
        real = samplers.mala_init

        def drawing_init(seg, x_prev):
            init = real(seg, x_prev)
            return SimpleNamespace(sample=lambda rng: init.sample(rng) + rng.random(chains)[:, None])

        monkeypatch.setattr(samplers, "mala_init", drawing_init)
        want = (f"unplanned draw random({chains}); the plan has "
                f"{('standard_normal', (chains, 2))} next")
        with pytest.raises(RuntimeError, match=re.escape(want)):
            run_unit("mala", np.random.default_rng(62), chains)

    @pytest.mark.parametrize("name", ["ddpm", *UNITS])
    def test_an_oracle_error_mid_unit_leaves_no_thread(self, name, monkeypatch):
        baseline = threading.active_count()
        real, calls = ScoreOracle.score, itertools.count()

        def failing(self, t, x, with_log_density=False):
            if next(calls) == 5:  # mid-unit, past the first segment of each rtk_run unit
                raise FloatingPointError("planted oracle fault")
            return real(self, t, x, with_log_density)

        monkeypatch.setattr(ScoreOracle, "score", failing)
        rng = RecordingRng(63)
        with pytest.raises(FloatingPointError, match="planted oracle fault"):
            run_unit(name, rng)
        assert helper_threads(rng)
        assert threading.active_count() == baseline


@pytest.mark.parametrize("name", ["ddpm", "mala", "uld"])
def test_one_usable_core_draws_inline(name, monkeypatch, thread_starts):
    with monkeypatch.context() as m:
        m.setattr(samplers.os, "sched_getaffinity", lambda pid: {0})
        rng = RecordingRng(60)
        state = run_unit(name, rng)
    assert not thread_starts and not helper_threads(rng)
    monkeypatch.setattr(samplers, "_usable_cores", lambda: 2)
    helper = RecordingRng(60)
    assert_same_run(state, run_unit(name, helper))
    assert helper_threads(helper)


class TestUpdatesMatchTheirFormulas:
    """The loops' in-place updates are bit-equal to the formulas they implement."""

    def setup_target(self, seed):
        rng = np.random.default_rng(seed)
        oracle = ScoreOracle(mixture_target().oracle.base, score_error=0.5, error_seed=3,
                             error_cell=1e6)
        target = RtkTarget(oracle, 0.5, 0.5, rng.standard_normal((AHEAD_CHAINS, 2)))
        return target, rng.standard_normal((AHEAD_CHAINS, 2)), rng.standard_normal((AHEAD_CHAINS, 2))

    def test_ddpm(self):
        oracle = ScoreOracle(mixture_target().oracle.base, score_error=0.5, error_cell=1e6)
        state = ddpm_run(oracle, 1.5, 6, AHEAD_CHAINS, np.random.default_rng(51))
        rng, eta = np.random.default_rng(51), 0.25
        x = rng.standard_normal((AHEAD_CHAINS, 2))
        for k in range(6):
            x = (math.exp(eta) * x + 2.0 * math.expm1(eta) * oracle.score(1.5 - k * eta, x)
                 + math.sqrt(math.expm1(2.0 * eta)) * rng.standard_normal(x.shape))
        np.testing.assert_array_equal(state.positions, x)

    def test_grad_energy_and_ula(self):
        target, z, _ = self.setup_target(52)
        s = target.score(z)
        want = -s + (target.decay * target.decay * z - target.decay * target.x_prev) / target.denom
        np.testing.assert_array_equal(target.grad_energy(z), want)
        tau = 0.05
        state = ula_run(target, UlaSpec(steps=6, tau=tau), ChainState(z, np.random.default_rng(53)))
        rng = np.random.default_rng(53)
        for _ in range(6):
            z = z - tau * target.grad_energy(z) + math.sqrt(2.0 * tau) * rng.standard_normal(z.shape)
        np.testing.assert_array_equal(state.positions, z)

    def test_uld(self):
        target, z, v = self.setup_target(54)
        tau, gamma = 0.1, 2.0
        state = uld_run(target, UldSpec(steps=6, tau=tau, gamma=gamma),
                        ChainState(z, np.random.default_rng(55), velocity=v))
        var_z, cov, var_v, _ = uld_noise_covariance(gamma, tau)
        a = math.sqrt(var_z)
        b = cov / a
        c = math.sqrt(var_v - b * b)
        c1 = -math.expm1(-gamma * tau) / gamma
        rng = np.random.default_rng(55)
        for _ in range(6):
            grad = target.grad_energy(z)
            e1, e2 = rng.standard_normal(z.shape), rng.standard_normal(z.shape)
            z, v = (z + c1 * v - ((tau - c1) / gamma) * grad + a * e1,
                    math.exp(-gamma * tau) * v - c1 * grad + (b * e1 + c * e2))
        np.testing.assert_array_equal(state.positions, z)
        np.testing.assert_array_equal(state.velocity, v)

    def test_mala_and_its_caller_keeps_its_positions(self):
        target, z, _ = self.setup_target(56)
        before = z.copy()
        tau = 0.05
        state = mala_run(target, MalaSpec(steps=6, tau=tau), ChainState(z, np.random.default_rng(57)))
        np.testing.assert_array_equal(z, before)
        rng = np.random.default_rng(57)
        score_z, logp_z = target.score(z, with_log_density=True)
        grad_z = target.grad_energy(z, score_value=score_z)
        for _ in range(6):
            z_prop = z - tau * grad_z + math.sqrt(2.0 * tau) * rng.standard_normal(z.shape)
            log_u = np.log(rng.random(AHEAD_CHAINS))
            score_prop, logp_prop = target.score(z_prop, with_log_density=True)
            r = -target.energy_diff(z, z_prop, log_p=(logp_z, logp_prop))
            grad_prop = target.grad_energy(z_prop, score_value=score_prop)
            accept = log_u < mala_accept_log(target, z, z_prop, tau, grad_z=grad_z,
                                             grad_prop=grad_prop, neg_energy_diff=r)
            keep = accept[:, None]
            z = np.where(keep, z_prop, z)
            score_z = np.where(keep, score_prop, score_z)
            grad_z = np.where(keep, grad_prop, grad_z)
            logp_z = np.where(accept, logp_prop, logp_z)
        np.testing.assert_array_equal(state.positions, z)
        assert 0 < state.accept_count < state.propose_count
