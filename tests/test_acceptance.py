"""Release acceptance checklist.

Eight gate checks, one test each, every tolerance stated inline.  Each test
prints a single `acceptance N (...): PASS` line with its measured numbers
(visible with -s or -rP); pytest's own verdict line is the pass/fail record.
The ring-mixture benchmark (checks 6-8) runs the shipped preset unmodified;
the same run is also compared against a committed golden copy of its CSV.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from rtkbench.bench import paper_preset, run_experiment
from rtkbench.metrics import marginal_accuracy, second_moment
from rtkbench.samplers import (
    ChainState,
    MalaSpec,
    UldSpec,
    mala_accept_log,
    taylor_energy_diff,
    uld_noise_covariance,
    uld_run,
)
from rtkbench.schedule import (
    FixedSchedule,
    energy_hessian,
    eta_for,
    mala_init,
    make_target,
)
from rtkbench.samplers import mala_run
from rtkbench.targets import (
    IsotropicGaussianMixture,
    ScoreOracle,
    forward_marginal,
    sample_base,
)


@pytest.fixture(scope="module")
def preset_report():
    """One full benchmark run of the shipped preset, shared by checks 6-8."""
    start = time.perf_counter()
    report = run_experiment(paper_preset())
    return report, time.perf_counter() - start


def _rows_by_unit(report):
    cfg = report.config
    grid = [(m, b) for m in cfg.methods for b in cfg.nfe_budgets]
    return {unit: row for unit, row in zip(grid, report.rows)}


def test_a1_mala_detailed_balance():
    """pi(z) q(z,z') A(z,z') == pi(z') q(z',z) A(z',z) to 1e-10 in 1-D and 2-D."""
    start = time.perf_counter()
    worst = 0.0
    for dim, seed in ((1, 101), (2, 202)):
        mix = IsotropicGaussianMixture.standard_normal(dim)
        sched = FixedSchedule(times=(0.0,), horizon=eta_for(1.0), L=1.0)
        rng = np.random.default_rng(seed)
        n = 10_000
        target = make_target(ScoreOracle(mix), sched, 0, rng.normal(size=(n, dim)))
        tau = 0.27
        z = rng.normal(size=(n, dim))
        z2 = rng.normal(size=(n, dim))

        def balance_side(a, b):
            drift = a - tau * target.grad_energy(a)
            log_q = -np.sum((b - drift) ** 2, axis=-1) / (4.0 * tau)
            log_acc = np.minimum(0.0, mala_accept_log(target, a, b, tau))
            return -target.energy(a) + log_q + log_acc

        lhs = balance_side(z, z2)
        rhs = balance_side(z2, z)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"acceptance 1 (detailed balance): PASS (rel err {worst:.2e}, {elapsed:.2f}s)")


def test_a2_reverse_kernel_bayes_consistency():
    """Mixing the diffused law through one reverse segment returns the earlier law.

    Standard-normal base: closed-form target moments to 1e-10, then 10^4 MALA
    chains reproduce mean 0 / variance 1 within 3 MC standard errors.
    """
    start = time.perf_counter()
    eta = eta_for(1.0)
    mix = IsotropicGaussianMixture.standard_normal(2)
    sched = FixedSchedule(times=(0.0,), horizon=eta, L=1.0)
    rng = np.random.default_rng(424_242)
    n = 10_000
    x_prev = rng.normal(size=(n, 2))  # p_{t+eta} = N(0, I) for this base
    target = make_target(ScoreOracle(mix), sched, 0, x_prev)

    # Closed form: the segment target is N(e^(-eta) x_prev, (1 - e^(-2 eta)) I).
    em2 = math.exp(-2.0 * eta)
    var_target = 1.0 - em2
    assert abs(1.0 / (1.0 + target.quad_weight) - var_target) <= 1e-10
    grad_at_mean = target.grad_energy(math.exp(-eta) * x_prev)
    assert float(np.max(np.abs(grad_at_mean))) <= 1e-10
    assert abs(em2 * 1.0 + var_target - 1.0) <= 1e-12  # mixed variance

    state = ChainState(mala_init(sched.segments()[0], x_prev).sample(rng), rng)
    mala_run(target, MalaSpec(steps=80, tau=0.1), state)
    pooled = state.positions
    mean_se, var_se = 1.0 / math.sqrt(n), math.sqrt(2.0 / n)
    worst_mean = float(np.max(np.abs(pooled.mean(axis=0))))
    worst_var = float(np.max(np.abs(pooled.var(axis=0) - 1.0)))
    elapsed = time.perf_counter() - start
    assert worst_mean <= 3 * mean_se
    assert worst_var <= 3 * var_se
    assert elapsed < 60.0
    print(f"acceptance 2 (reverse-kernel consistency): PASS "
          f"(|mean| {worst_mean:.4f} <= {3*mean_se:.4f}, "
          f"|var-1| {worst_var:.4f} <= {3*var_se:.4f}, {elapsed:.2f}s)")


def test_a3_strong_log_concavity_window():
    """Ring-preset segment targets have Hessian eigenvalues in [0.99 L, 3.03 L]."""
    start = time.perf_counter()
    mix = paper_preset().mixture
    L_hat = 1.0 / float(mix.variances.min())
    eta = eta_for(L_hat)
    oracle = ScoreOracle(mix)
    rng = np.random.default_rng(7)
    lo, hi = np.inf, -np.inf
    for _ in range(50):
        t_base = float(rng.uniform(0.0, 0.5))
        sched = FixedSchedule(times=(t_base,), horizon=t_base + eta, L=L_hat)
        x_prev = sample_base(forward_marginal(mix, t_base + eta), 1, rng)
        z = sample_base(forward_marginal(mix, t_base), 1, rng)[0]
        target = make_target(oracle, sched, 0, x_prev)
        eigs = np.linalg.eigvalsh(energy_hessian(target, z))
        lo, hi = min(lo, eigs.min() / L_hat), max(hi, eigs.max() / L_hat)
    elapsed = time.perf_counter() - start
    assert lo >= 0.99
    assert hi <= 3.03
    assert elapsed < 30.0
    print(f"acceptance 3 (log-concavity window): PASS "
          f"(eigenvalues in [{lo:.3f} L, {hi:.3f} L], {elapsed:.2f}s)")


def test_a4_uld_noise_exactness():
    """Noise covariance matches quadrature to 1e-8; stationary law within 5%."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        gamma = float(rng.uniform(0.3, 15.0))
        tau = float(rng.uniform(0.005, 1.0))
        kz = lambda s: (1.0 - math.exp(-gamma * (tau - s))) / gamma
        kv = lambda s: math.exp(-gamma * (tau - s))
        want = (2 * gamma * quad(lambda s: kz(s) ** 2, 0, tau, epsabs=1e-13)[0],
                2 * gamma * quad(lambda s: kz(s) * kv(s), 0, tau, epsabs=1e-13)[0],
                2 * gamma * quad(lambda s: kv(s) ** 2, 0, tau, epsabs=1e-13)[0])
        got = uld_noise_covariance(gamma, tau)[:3]
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    assert worst <= 1e-8

    c = 2.0  # target N(0, 1/c)
    class Quadratic:
        dim = 1
        def score(self, z):
            return -c * z
        def grad_energy(self, z, score_value=None):
            return c * z
        def energy_diff(self, z, z2):
            return 0.5 * c * (np.sum(z2**2, axis=-1) - np.sum(z**2, axis=-1))
        def quadratic_diff(self, z, z2):
            return np.zeros(z.shape[0])

    gamma = 2.0 * math.sqrt(6.0 * c)
    chains = 20_000
    rng2 = np.random.default_rng(5)
    state = ChainState(rng2.standard_normal((chains, 1)), rng2,
                       velocity=rng2.standard_normal((chains, 1)))
    uld_run(Quadratic(), UldSpec(steps=2000, tau=0.05, gamma=gamma), state)
    var_z = float(state.positions.var())
    var_v = float(state.velocity.var())
    elapsed = time.perf_counter() - start
    assert abs(var_z - 1.0 / c) <= 0.05 / c
    assert abs(var_v - 1.0) <= 0.05
    assert elapsed < 60.0
    print(f"acceptance 4 (ULD exactness): PASS (quadrature err {worst:.2e}, "
          f"Var(z) {var_z:.4f} vs {1/c:.4f}, Var(v) {var_v:.4f}, {elapsed:.2f}s)")


def test_a5_score_only_estimator():
    """u = 2 Taylor energy differences are exact on quadratics (1e-8) and the
    score-only MALA chain matches the exact-energy chain's variance within 2%."""
    start = time.perf_counter()
    c = 1.3
    score_fn = lambda z: -c * z
    rng = np.random.default_rng(21)
    z = rng.normal(size=(64, 3))
    z2 = rng.normal(size=(64, 3))
    est, cost = taylor_energy_diff(score_fn, z, z2, u=2, dt=1e-3)
    exact = 0.5 * c * (np.sum(z2**2, axis=-1) - np.sum(z**2, axis=-1))
    err = float(np.max(np.abs(est - exact)))
    assert err <= 1e-8
    assert cost == 2

    mix = IsotropicGaussianMixture.standard_normal(1)
    sched = FixedSchedule(times=(0.0,), horizon=eta_for(1.0), L=1.0)
    oracle = ScoreOracle(mix)
    chains, steps, tau = 50_000, 400, 0.1
    variances = {}
    for name, spec, seed in (
            ("exact", MalaSpec(steps=steps, tau=tau), 101),
            ("taylor", MalaSpec(steps=steps, tau=tau, estimator="taylor"), 202)):
        rng_m = np.random.default_rng(seed)
        x_prev = rng_m.normal(size=(chains, 1))
        target = make_target(oracle, sched, 0, x_prev)
        state = ChainState(mala_init(sched.segments()[0], x_prev).sample(rng_m), rng_m)
        mala_run(target, spec, state)
        variances[name] = float(state.positions.var())
    rel = abs(variances["taylor"] - variances["exact"]) / variances["exact"]
    elapsed = time.perf_counter() - start
    assert rel <= 0.02
    assert elapsed < 60.0
    print(f"acceptance 5 (score-only estimator): PASS (quadratic err {err:.2e}, "
          f"variance ratio gap {rel:.4f}, {elapsed:.2f}s)")


def test_a6_benchmark_accuracy_ordering(preset_report):
    """At the top budget: MALA >= score-only MALA >= ULD >= ULA > DDPM, with
    0.01 slack between adjacent reverse-kernel methods, and ULA beats DDPM by
    >= 0.03 at the smallest budget."""
    report, elapsed = preset_report
    rows = _rows_by_unit(report)
    top = max(report.config.nfe_budgets)
    low = min(report.config.nfe_budgets)
    ma = {m: rows[(m, top)].marginal_accuracy for m in report.config.methods}
    slack = 0.01
    assert ma["mala"] >= ma["mala_es"] - slack
    assert ma["mala_es"] >= ma["uld"] - slack
    assert ma["uld"] >= ma["ula"] - slack
    assert ma["ula"] > ma["ddpm"]
    small_gap = rows[("ula", low)].marginal_accuracy - rows[("ddpm", low)].marginal_accuracy
    assert small_gap >= 0.03
    assert elapsed < 600.0
    print(f"acceptance 6 (accuracy ordering): PASS (top budget: "
          f"mala {ma['mala']:.4f} >= mala_es {ma['mala_es']:.4f} >= "
          f"uld {ma['uld']:.4f} >= ula {ma['ula']:.4f} > ddpm {ma['ddpm']:.4f}; "
          f"small-budget ULA-DDPM gap {small_gap:.3f}; grid ran in {elapsed:.0f}s)")


def test_a7_mode_coverage(preset_report):
    """MALA at the top budget puts 4-13% mass on all 12 modes; DDPM at the
    smallest budget misses that band for at least one mode."""
    report, _ = preset_report
    rows = _rows_by_unit(report)
    top = max(report.config.nfe_budgets)
    low = min(report.config.nfe_budgets)
    mala_masses = np.array(rows[("mala", top)].per_mode_mass)
    ddpm_masses = np.array(rows[("ddpm", low)].per_mode_mass)
    assert mala_masses.shape == (12,)
    assert mala_masses.min() >= 0.04
    assert mala_masses.max() <= 0.13
    ddpm_out_of_band = (ddpm_masses < 0.04) | (ddpm_masses > 0.13)
    assert ddpm_out_of_band.any()
    print(f"acceptance 7 (mode coverage): PASS (mala@{top} masses in "
          f"[{mala_masses.min():.3f}, {mala_masses.max():.3f}]; ddpm@{low} has "
          f"{int(ddpm_out_of_band.sum())}/12 modes outside [0.04, 0.13])")


def test_a8_determinism_and_nfe_accounting(preset_report, tmp_path):
    """Same preset twice -> byte-identical CSV; realized NFE never over budget."""
    from rtkbench.bench import emit_csv

    report, _ = preset_report
    start = time.perf_counter()
    again = run_experiment(paper_preset())
    elapsed = time.perf_counter() - start
    first = emit_csv(report, tmp_path / "a.csv").read_bytes()
    second = emit_csv(again, tmp_path / "b.csv").read_bytes()
    assert first == second
    grid = [(m, b) for m in report.config.methods for b in report.config.nfe_budgets]
    for row, (method, budget) in zip(report.rows, grid):
        assert row.nfe <= budget, f"{method}@{budget} overspent: {row.nfe}"
    print(f"acceptance 8 (determinism and NFE): PASS (identical {len(first)}-byte "
          f"CSVs; all {len(grid)} units within budget; repeat run {elapsed:.0f}s)")


GOLDEN_CSV = Path(__file__).parent / "data" / "preset_golden.csv"


def test_preset_matches_golden_copy(preset_report):
    """The preset rows agree with tests/data/preset_golden.csv, a copy of the
    preset's results.csv kept so that numerical refactors are checked against
    fixed numbers, not only against run-to-run determinism.  nfe and seed
    exact; marginal_accuracy and accept_rate within 1e-3 absolute;
    second_moment within 1e-3 relative."""
    report, _ = preset_report
    with GOLDEN_CSV.open(newline="") as fh:
        golden = list(csv.DictReader(fh))
    assert len(golden) == len(report.rows)
    worst = {"marginal_accuracy": 0.0, "accept_rate": 0.0, "second_moment": 0.0}
    for row, want in zip(report.rows, golden):
        unit = f"{want['method']}@{want['nfe']}"
        assert (row.method, row.nfe, row.seed) == (
            want["method"], int(want["nfe"]), int(want["seed"])), unit
        for name in ("marginal_accuracy", "accept_rate"):
            gap = abs(getattr(row, name) - float(want[name]))
            assert gap <= 1e-3, f"{unit} {name} off by {gap:.2e}"
            worst[name] = max(worst[name], gap)
        ref = float(want["second_moment"])
        gap = abs(row.second_moment - ref) / abs(ref)
        assert gap <= 1e-3, f"{unit} second_moment off by {gap:.2e} relative"
        worst["second_moment"] = max(worst["second_moment"], gap)
    print(f"golden copy: PASS ({len(golden)} rows; largest gaps: "
          + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + ")")


def test_preset_reports_no_diverged_chains(preset_report):
    """No unit of the preset trips the diverged-chain warning: its largest
    second moment is about 4, far below DIVERGED_FACTOR times the target's."""
    report, _ = preset_report
    assert not [w for w in report.warnings if "diverged" in w], report.warnings
