"""Tests for schedules, RTK targets, and the Gaussian initializations."""

import math

import numpy as np
import pytest

from rtkbench.schedule import (
    FixedSchedule,
    GaussianInit,
    RtkTarget,
    Segment,
    energy_hessian,
    eta_for,
    make_target,
    mala_init,
    outer_steps,
    uld_init,
)
from rtkbench.targets import IsotropicGaussianMixture, ScoreOracle


def normal_oracle(dim=1):
    return ScoreOracle(IsotropicGaussianMixture.standard_normal(dim))


class TestEtaFor:
    def test_frozen_values(self):
        assert eta_for(0.5) == pytest.approx(0.34657359027997264, abs=1e-15)
        assert eta_for(1.0) == pytest.approx(0.2027325540540822, abs=1e-15)

    def test_quadratic_weight_identity(self):
        # e^(-2 eta) / (1 - e^(-2 eta)) == 2L is the whole point of eta_for
        for L in [0.3, 0.5, 1.0, 7.0, 143.0, 1e4]:
            eta = eta_for(L)
            em2 = math.exp(-2 * eta)
            assert em2 / (1 - em2) == pytest.approx(2 * L, rel=1e-12)

    def test_large_L_asymptotics(self):
        assert eta_for(1e6) == pytest.approx(1.0 / 4e6, rel=1e-6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            eta_for(0.0)


class TestOuterSteps:
    def test_frozen_examples(self):
        assert outer_steps(1.0, 1, 0.0, 1.0) == 3
        assert outer_steps(1.0, 10, 0.0, 0.1) == 31

    def test_monotone_in_L(self):
        ks = [outer_steps(L, 10, 0.0, 0.1) for L in [0.5, 1.0, 2.0, 4.0, 8.0]]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_floor_at_one(self):
        assert outer_steps(0.01, 1, 0.0, 100.0) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            outer_steps(1.0, 0, 0.0, 0.1)
        with pytest.raises(ValueError):
            outer_steps(1.0, 1, 0.0, 0.0)


class TestSchedules:
    def test_theory_schedule_consistency(self):
        sched = FixedSchedule.theory(1.0, 10, 0.0, 0.1)
        eta = eta_for(1.0)
        assert sched.K == 31
        assert sched.times == tuple(k * eta for k in range(31))
        assert sched.horizon == 31 * eta
        segs = sched.segments()
        assert len(segs) == sched.K
        assert segs[0].t_base == pytest.approx((sched.K - 1) * eta)
        assert segs[-1].t_base == 0.0
        # Lengths are differences of explicit times: eta up to rounding.
        assert all(s.eta == pytest.approx(eta, rel=1e-12) for s in segs)
        assert all(s.L == 1.0 for s in segs)

    def test_theory_cap(self):
        sched = FixedSchedule.theory(143.0, 10, 0.0, 0.1, max_outer_steps=64)
        assert sched.K == 64
        with pytest.raises(ValueError, match="max_outer_steps"):
            FixedSchedule.theory(143.0, 10, 0.0, 0.1, max_outer_steps=0)

    def test_fixed_schedule_benchmark_layout(self):
        sched = FixedSchedule(times=(0.0, 1.2, 2.4, 3.6, 4.8), horizon=6.0, L=143.0)
        segs = sched.segments()
        assert [s.t_base for s in segs] == [4.8, 3.6, 2.4, 1.2, 0.0]
        assert all(s.eta == pytest.approx(1.2, abs=1e-12) for s in segs)
        assert all(s.L == 143.0 for s in segs)

    def test_per_segment_curvature(self):
        L = [1.1, 1.2, 1.6, 4.3, 143.0]
        sched = FixedSchedule(times=(0.0, 1.2, 2.4, 3.6, 4.8), horizon=6.0, L=L)
        assert sched.L == tuple(L)
        assert [s.L for s in sched.segments()] == L
        for bad in ([1.0] * 4, [1.0] * 6, [1.0, 1.0, 0.0, 1.0, 1.0], [1.0, -2.0, 1.0, 1.0, 1.0]):
            with pytest.raises(ValueError):
                FixedSchedule(times=(0.0, 1.2, 2.4, 3.6, 4.8), horizon=6.0, L=bad)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="L must be positive"):
                FixedSchedule(times=(0.0, 1.2), horizon=6.0, L=bad)

    def test_fixed_schedule_empty(self):
        sched = FixedSchedule(times=(), horizon=6.0, L=1.0)
        assert sched.segments() == ()
        assert FixedSchedule(times=(), horizon=6.0, L=()).segments() == ()

    def test_fixed_schedule_validation(self):
        with pytest.raises(ValueError):
            FixedSchedule(times=(1.2, 0.0), horizon=6.0, L=1.0)
        with pytest.raises(ValueError):
            FixedSchedule(times=(0.0, 6.0), horizon=6.0, L=1.0)
        with pytest.raises(ValueError):
            FixedSchedule(times=(-0.1,), horizon=6.0, L=1.0)


class TestRtkTarget:
    def test_stationary_point_standard_normal(self):
        # For f_t(z) = ||z||^2/2 the energy minimum sits at e^(-eta) x_prev.
        oracle = normal_oracle(3)
        sched = FixedSchedule.theory(1.0, 3, 0.0, 0.5)
        x_prev = np.array([0.7, -1.1, 0.4])
        target = make_target(oracle, sched, 2, x_prev)
        zstar = math.exp(-sched.segments()[2].eta) * x_prev
        np.testing.assert_allclose(target.grad_energy(zstar), 0.0, atol=1e-12)

    def test_hessian_is_one_plus_two_L(self):
        oracle = normal_oracle(2)
        for L in [0.5, 1.0, 3.0]:
            sched = FixedSchedule.theory(L, 2, 0.0, 0.5)
            target = make_target(oracle, sched, 0, np.array([0.3, 0.9]))
            h = energy_hessian(target, np.array([0.1, -0.2]))
            np.testing.assert_allclose(h, (1 + 2 * L) * np.eye(2), atol=1e-6)

    def test_energy_diff_identity_is_zero(self):
        oracle = normal_oracle(2)
        sched = FixedSchedule.theory(1.0, 2, 0.0, 0.5)
        target = make_target(oracle, sched, 0, np.array([0.3, 0.9]))
        z = np.array([0.5, -0.7])
        assert target.energy_diff(z, z) == 0.0

    def test_energy_diff_matches_explicit_energy(self):
        mix = IsotropicGaussianMixture.ring(12, 10)
        oracle = ScoreOracle(mix)
        sched = FixedSchedule(times=(0.0, 1.2, 2.4, 3.6, 4.8), horizon=6.0, L=143.0)
        rng = np.random.default_rng(0)
        target = make_target(oracle, sched, 4, rng.standard_normal(10))
        z = rng.standard_normal((40, 10))
        z2 = rng.standard_normal((40, 10))
        got = target.energy_diff(z, z2)
        want = target.energy(z2) - target.energy(z)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_grad_energy_matches_finite_differences(self):
        mix = IsotropicGaussianMixture.ring(12, 10)
        oracle = ScoreOracle(mix)
        sched = FixedSchedule(times=(0.0, 1.2, 2.4, 3.6, 4.8), horizon=6.0, L=143.0)
        rng = np.random.default_rng(1)
        target = make_target(oracle, sched, 3, rng.standard_normal(10))
        z = rng.standard_normal(10) * 0.5
        g = target.grad_energy(z)
        h = 1e-6
        for j in range(10):
            e = np.zeros(10)
            e[j] = h
            fd = (target.energy(z + e) - target.energy(z - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_batched_x_prev_matches_loop(self):
        mix = IsotropicGaussianMixture.ring(12, 10)
        oracle = ScoreOracle(mix)
        sched = FixedSchedule(times=(0.0, 1.2, 2.4, 3.6, 4.8), horizon=6.0, L=143.0)
        rng = np.random.default_rng(2)
        x_prev = rng.standard_normal((6, 10))
        z = rng.standard_normal((6, 10))
        z2 = rng.standard_normal((6, 10))
        batch = make_target(oracle, sched, 4, x_prev)
        for i in range(6):
            one = make_target(oracle, sched, 4, x_prev[i])
            np.testing.assert_allclose(batch.grad_energy(z)[i],
                                       one.grad_energy(z[i]), atol=1e-12)
            assert batch.energy_diff(z, z2)[i] == pytest.approx(
                float(one.energy_diff(z[i], z2[i])), abs=1e-10)

    def test_segment_index_bounds(self):
        oracle = normal_oracle(1)
        sched = FixedSchedule.theory(1.0, 1, 0.0, 0.5)
        with pytest.raises(ValueError):
            make_target(oracle, sched, sched.K, np.zeros(1))
        with pytest.raises(ValueError):
            make_target(oracle, sched, -1, np.zeros(1))


class TestMalaInit:
    def test_density_ratio_constant(self):
        # init pdf must be proportional to exp(-L||z||^2 - ||x0 - e^-eta z||^2/(2(1-e^-2eta)))
        rng = np.random.default_rng(3)
        for L, eta in [(0.5, None), (1.0, None), (143.0, None), (2.0, 1.2)]:
            eta_val = eta_for(L) if eta is None else eta
            x0 = rng.standard_normal(4)
            init = mala_init(Segment(0, 0.0, eta_val, L), x0)
            z = init.mean + rng.standard_normal((100, 4))
            em2 = math.exp(-2 * eta_val)
            target_exp = (-L * (z ** 2).sum(axis=1)
                          - ((x0 - math.exp(-eta_val) * z) ** 2).sum(axis=1) / (2 * (1 - em2)))
            gauss_exp = -((z - init.mean) ** 2).sum(axis=1) / (2 * init.variance)
            diff = target_exp - gauss_exp
            assert np.max(np.abs(diff - diff.mean())) < 1e-9

    def test_frozen_half_L_case(self):
        seg = FixedSchedule.theory(0.5, 2, 0.0, 0.5).segments()[-1]
        x0 = np.array([1.0, -2.0])
        init = mala_init(seg, x0)
        assert init.variance == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(init.mean, math.exp(-seg.eta) * x0, atol=1e-14)

    def test_zero_x_prev_is_centered(self):
        seg = FixedSchedule.theory(3.0, 2, 0.0, 0.5).segments()[-1]
        init = mala_init(seg, np.zeros(2))
        np.testing.assert_array_equal(init.mean, 0.0)
        assert init.variance == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_sample_shapes(self):
        rng = np.random.default_rng(0)
        assert GaussianInit(np.zeros(3), 2.0).sample(rng).shape == (3,)
        assert GaussianInit(np.zeros((7, 3)), 2.0).sample(rng).shape == (7, 3)


class TestUldInit:
    def test_half_L_variance_is_one(self):
        seg = FixedSchedule.theory(0.5, 1, 0.0, 0.5).segments()[-1]
        assert math.expm1(2 * seg.eta) == pytest.approx(1.0, abs=1e-12)
        z, v = uld_init(seg, (200_000,), np.random.default_rng(0))
        assert z.var() == pytest.approx(1.0, abs=3 * math.sqrt(2 / z.size) * 1.0)
        assert v.var() == pytest.approx(1.0, abs=3 * math.sqrt(2 / v.size))

    def test_position_velocity_independent(self):
        seg = FixedSchedule.theory(1.0, 1, 0.0, 0.5).segments()[-1]
        z, v = uld_init(seg, (100_000,), np.random.default_rng(1))
        corr = np.corrcoef(z, v)[0, 1]
        assert abs(corr) <= 0.02

    def test_theory_variance_formula(self):
        for L in [0.5, 2.0, 50.0]:
            for seg in FixedSchedule.theory(L, 1, 0.0, 0.5).segments():
                assert math.expm1(2 * seg.eta) == pytest.approx(1 / (2 * L), rel=1e-12)


class TestBayesConsistencyClosedForm:
    def test_standard_normal_base(self):
        # For the N(0, I) base, completing the square gives the segment target
        # N(e^-eta x_prev, (1 - e^-2eta) I); mixing over x_prev ~ N(0, I)
        # returns exactly N(0, I), i.e. p_t = int p_(t|t') p_t' dx'.
        oracle = normal_oracle(1)
        for L in [0.5, 1.0, 4.0]:
            sched = FixedSchedule.theory(L, 1, 0.0, 0.5)
            x0 = np.array([0.83])
            target = make_target(oracle, sched, 0, x0)
            eta = sched.segments()[0].eta
            em2 = math.exp(-2 * eta)
            mean = math.exp(-eta) * x0
            var = 1 - em2
            np.testing.assert_allclose(target.grad_energy(mean), 0.0, atol=1e-12)
            h = energy_hessian(target, np.array([0.2]))
            assert h[0, 0] == pytest.approx(1 / var, rel=1e-7)
            mixed_var = em2 * 1.0 + var
            assert mixed_var == pytest.approx(1.0, abs=1e-12)
