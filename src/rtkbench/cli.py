"""Command-line interface: run configured sweeps, write presets, self-check.

The selftest subcommand reruns the core exactness checks (detailed balance,
ULD noise covariance, Taylor estimator, a small end-to-end fixed point, the
error-field seeding) without any test-only dependency, so an installed wheel
can vouch for itself.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    config_to_text,
    emit_csv,
    emit_plot,
    load_config,
    paper_preset,
    run_experiment,
)
from .samplers import (
    MalaSpec,
    mala_accept_log,
    rtk_run,
    taylor_energy_diff,
    uld_noise_covariance,
)
from .schedule import FixedSchedule, make_target
from .targets import (
    IsotropicGaussianMixture,
    ScoreOracle,
    _draw_unit_rows,
    _seed_sequence_state,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        return _cmd_selftest(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtkbench",
        description="Diffusion sampling benchmark: DDPM against reverse-kernel "
                    "MCMC (ULA, ULD, MALA, score-only MALA).")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment described by a config file")
    run.add_argument("--config", required=True, help="path to a key = value config")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's master seed")
    run.add_argument("--out", default=None,
                     help="override the config's output directory")

    preset = sub.add_parser("preset", help="write a bundled experiment config")
    preset.add_argument("name", choices=["mog-paper"],
                        help="preset to emit (the 12-mode ring study)")
    preset.add_argument("--out", default=None,
                        help="destination path (stdout when omitted)")

    sub.add_parser("selftest", help="run built-in exactness checks")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    report = run_experiment(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = emit_csv(report, out_dir / "results.csv")
    svg_path = emit_plot(report, out_dir / "accuracy.svg")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"{'method':<10}{'nfe':>7}  {'marg.acc':>9}  {'accept':>7}")
    for row in report.rows:
        print(f"{row.method:<10}{row.nfe:>7}  {row.marginal_accuracy:>9.4f}"
              f"  {row.accept_rate:>7.3f}")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_preset(args) -> int:
    text = config_to_text(paper_preset())
    if args.out is None:
        sys.stdout.write(text)
        return 0
    path = Path(args.out)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write preset to {path}: {exc}") from exc
    print(f"wrote {path}")
    return 0


# --- selftest ----------------------------------------------------------------


def _check_detailed_balance() -> None:
    mix = IsotropicGaussianMixture.standard_normal(1)
    sched = FixedSchedule(times=(0.0,), horizon=0.7, L=1.0)
    rng = np.random.default_rng(11)
    target = make_target(ScoreOracle(mix), sched, 0, rng.normal(size=(1, 1)))
    tau = 0.23
    worst = 0.0
    for _ in range(1000):
        z = rng.normal(size=(1, 1))
        z2 = rng.normal(size=(1, 1))
        # pi(z) q(z, z2) A(z, z2) must equal pi(z2) q(z2, z) A(z2, z).
        def side(a, b):
            drift = a - tau * target.grad_energy(a)
            log_q = -float(np.sum((b - drift) ** 2)) / (4.0 * tau)
            log_a = min(0.0, np.asarray(mala_accept_log(target, a, b, tau)).item())
            return -np.asarray(target.energy(a)).item() + log_q + log_a
        lhs, rhs = side(z, z2), side(z2, z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    if worst > 1e-10:
        raise AssertionError(f"detailed balance violated: rel err {worst:.3e}")


def _simpson(f, a: float, b: float, n: int = 2000) -> float:
    xs = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float((b - a) / (3 * n) * np.sum(w * f(xs)))


def _check_uld_covariance() -> None:
    rng = np.random.default_rng(5)
    for _ in range(10):
        gamma = float(rng.uniform(0.5, 12.0))
        tau = float(rng.uniform(0.01, 0.8))
        kz = lambda s: (1.0 - np.exp(-gamma * (tau - s))) / gamma
        kv = lambda s: np.exp(-gamma * (tau - s))
        want = (2 * gamma * _simpson(lambda s: kz(s) ** 2, 0, tau),
                2 * gamma * _simpson(lambda s: kz(s) * kv(s), 0, tau),
                2 * gamma * _simpson(lambda s: kv(s) ** 2, 0, tau))
        got = uld_noise_covariance(gamma, tau)[:3]
        for g, w in zip(got, want):
            if abs(g - w) > 1e-8:
                raise AssertionError(
                    f"ULD covariance mismatch at gamma={gamma:.3f} tau={tau:.3f}: "
                    f"{g!r} vs quadrature {w!r}")


def _check_taylor_estimator() -> None:
    c = 1.7
    score_fn = lambda x: -c * x
    rng = np.random.default_rng(3)
    z = rng.normal(size=(8, 2))
    z2 = rng.normal(size=(8, 2))
    est, _ = taylor_energy_diff(score_fn, z, z2, u=2, dt=1e-3)
    exact = 0.5 * c * (np.sum(z2**2, axis=-1) - np.sum(z**2, axis=-1))
    err = float(np.max(np.abs(est - exact)))
    if err > 1e-8:
        raise AssertionError(f"taylor estimator error {err:.3e} on a quadratic")


def _check_rtk_fixed_point() -> None:
    mix = IsotropicGaussianMixture.standard_normal(2)
    sched = FixedSchedule(times=(0.0, 1.2), horizon=2.4, L=1.0997687720961753)
    spec = MalaSpec(steps=60, tau=0.1)
    state, _ = rtk_run(ScoreOracle(mix), sched, spec, 4000,
                       np.random.default_rng(17))
    m2 = float(np.mean(np.sum(state.positions**2, axis=-1)))
    mean = float(np.max(np.abs(state.positions.mean(axis=0))))
    if abs(m2 - 2.0) > 0.2 or mean > 0.08:
        raise AssertionError(
            f"standard normal not reproduced: E||x||^2 = {m2:.3f}, max|mean| = {mean:.3f}")


def _check_determinism() -> None:
    from .bench import ExperimentConfig

    cfg = ExperimentConfig(
        mixture=IsotropicGaussianMixture.standard_normal(2), horizon=2.4,
        methods=("ddpm", "mala"), nfe_budgets=(10, 20), n_samples=40,
        reference_size=500, schedule_kind="fixed", fixed_times=(0.0, 1.2),
        tau_multiplier=5e10, record_wall=False)
    first = [r.csv_row() for r in run_experiment(cfg).rows]
    second = [r.csv_row() for r in run_experiment(cfg).rows]
    if first != second:
        raise AssertionError("repeated run changed CSV rows")


def _check_error_field() -> None:
    # The batched seeding re-implements SeedSequence and PCG64's srandom;
    # a numpy release that changes either must fail here.
    for n in (1, 2**40 + 3, 2**127 + 5):
        words = np.frombuffer(n.to_bytes(16, "little"), dtype="<u4").reshape(1, 4)
        if not np.array_equal(_seed_sequence_state(words)[0],
                              np.random.SeedSequence(n).generate_state(4, np.uint64)):
            raise AssertionError(f"SeedSequence({n}) state differs from numpy's")
    payloads = [i.to_bytes(8, "little") for i in range(20)]  # a batched pass
    for dim in (2, 10):
        for payload, row in zip(payloads, _draw_unit_rows(payloads, dim)):
            digest = hashlib.blake2b(payload, digest_size=16).digest()
            g = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
            vec = g.standard_normal(dim)
            if not np.array_equal(row, vec / np.linalg.norm(vec)):
                raise AssertionError(
                    f"error-field direction for payload {payload.hex()} (d={dim}) "
                    "differs from numpy's PCG64(int) path")


_SELFTEST_CHECKS = (
    ("detailed-balance", _check_detailed_balance),
    ("uld-covariance", _check_uld_covariance),
    ("taylor-estimator", _check_taylor_estimator),
    ("rtk-fixed-point", _check_rtk_fixed_point),
    ("determinism", _check_determinism),
    ("error-field", _check_error_field),
)


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _SELFTEST_CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL - {name}: {exc}")
        else:
            print(f"ok - {name}")
    if failures:
        print(f"{failures} of {len(_SELFTEST_CHECKS)} checks failed")
        return 1
    print(f"all {len(_SELFTEST_CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
