"""Command-line interface: run configured sweeps, write presets, self-check.

The selftest subcommand reruns the core exactness checks (detailed balance,
ULD noise covariance, Taylor estimator, a small end-to-end fixed point, the
error-field seeding) without any test-only dependency, so an installed wheel
can vouch for itself.  The first three are the only implementation of the
first halves of acceptance gates a1, a4 and a5 (same seeds, sizes and
tolerances) and return their measured error for the gate to report.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import targets
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
from .schedule import FixedSchedule, eta_for, make_target
from .targets import IsotropicGaussianMixture, ScoreOracle


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


def _check_detailed_balance() -> float:
    """pi(z) q(z,z') A(z,z') == pi(z') q(z',z) A(z',z) to 1e-10 in 1-D and 2-D."""
    tau, n = 0.27, 10_000
    sched = FixedSchedule(times=(0.0,), horizon=eta_for(1.0), L=1.0)
    worst = 0.0
    for dim, seed in ((1, 101), (2, 202)):
        oracle = ScoreOracle(IsotropicGaussianMixture.standard_normal(dim))
        rng = np.random.default_rng(seed)
        target = make_target(oracle, sched, 0, rng.normal(size=(n, dim)))
        z, z2 = rng.normal(size=(2, n, dim))

        def side(a, b):
            drift = a - tau * target.grad_energy(a)
            log_q = -np.sum((b - drift) ** 2, axis=-1) / (4.0 * tau)
            log_acc = np.minimum(0.0, mala_accept_log(target, a, b, tau))
            return -target.energy(a) + log_q + log_acc

        lhs, rhs = side(z, z2), side(z2, z)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))))
    if worst > 1e-10:
        raise AssertionError(f"detailed balance violated: rel err {worst:.3e}")
    return worst


def _simpson(f, a: float, b: float, n: int = 2000) -> float:
    xs = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float((b - a) / (3 * n) * np.sum(w * f(xs)))


def _check_uld_covariance() -> float:
    """ULD noise covariance matches Simpson quadrature of its kernels to 1e-8."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        gamma = float(rng.uniform(0.3, 15.0))
        tau = float(rng.uniform(0.005, 1.0))
        kz = lambda s: (1.0 - np.exp(-gamma * (tau - s))) / gamma
        kv = lambda s: np.exp(-gamma * (tau - s))
        want = [2 * gamma * _simpson(f, 0, tau) for f in
                (lambda s: kz(s) ** 2, lambda s: kz(s) * kv(s), lambda s: kv(s) ** 2)]
        got = uld_noise_covariance(gamma, tau)[:3]
        err = max(abs(g - w) for g, w in zip(got, want))
        if err > 1e-8:
            raise AssertionError(f"ULD covariance off by {err:.3e} at gamma={gamma:.3f} "
                                 f"tau={tau:.3f}: {got} vs quadrature {want}")
        worst = max(worst, err)
    return worst


def _check_taylor_estimator() -> float:
    """u = 2 Taylor energy differences are exact on a quadratic to 1e-8, at cost 2."""
    c = 1.3
    rng = np.random.default_rng(21)
    z, z2 = rng.normal(size=(2, 64, 3))
    est, cost = taylor_energy_diff(lambda x: -c * x, z, z2, u=2, dt=1e-3)
    exact = 0.5 * c * (np.sum(z2**2, axis=-1) - np.sum(z**2, axis=-1))
    err = float(np.max(np.abs(est - exact)))
    if err > 1e-8 or cost != 2:
        raise AssertionError(f"taylor estimator error {err:.3e} at cost {cost} on a quadratic")
    return err


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


def _draw_words(seed: int, dim: int) -> list[tuple[int, int]]:
    """(low byte of its first word, words read) of each draw of
    Generator(PCG64(seed)).standard_normal(dim), counted on numpy's PCG64."""
    bits, raw = np.random.PCG64(seed), np.random.PCG64(seed)
    gen, draws = np.random.Generator(bits), []
    for _ in range(dim):
        layer, words = int(raw.random_raw()) & 0xFF, 1
        gen.standard_normal()
        while raw.state != bits.state:
            if words == 64:
                raise AssertionError(f"a normal draw from PCG64({seed}) ended on no whole word")
            raw.random_raw()
            words += 1
        draws.append((layer, words))
    return draws


def _ziggurat_lanes(seed: int, dim: int) -> set[str]:
    """The ziggurat lanes of Generator(PCG64(seed)).standard_normal(dim),
    told apart by PCG64 word counts alone, without numpy's tables: a fast
    draw reads one word, an accepted wedge draw two, and a draw that reads
    more went to the tail (layer 0) or rejected a wedge candidate."""
    return {"fast" if words == 1 else "wedge-accept" if words == 2
            else "tail" if layer == 0 else "wedge-reject"
            for layer, words in _draw_words(seed, dim)}


def _check_seed_sequence(ints: list[int]) -> None:
    """The batched SeedSequence state of each int, against numpy's own."""
    for n in ints:
        words = np.frombuffer(n.to_bytes(16, "little"), dtype="<u4").reshape(1, 4)
        if not np.array_equal(targets._seed_sequence_state(words)[0],
                              np.random.SeedSequence(n).generate_state(4, np.uint64)):
            raise AssertionError(f"SeedSequence({n}) state differs from numpy's")


def _check_pcg64_steps(seeds: list[int], k: int) -> None:
    """The lockstep PCG64 states 1..k after each PCG64(seed), against
    numpy's own PCG64.advance.  With k >= 2 equal states also prove the
    increment equal: it is state 2 - M state 1."""
    words = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
    hi, lo = targets._pcg64_ahead(*targets._pcg64_states(words), k)
    for i, seed in enumerate(seeds):
        bits = np.random.PCG64(seed)
        start = bits.state
        for j in range(1, k + 1):
            bits.state = start
            want = bits.advance(j).state["state"]["state"]
            if (int(hi[j - 1, i]) << 64) | int(lo[j - 1, i]) != want:
                raise AssertionError(f"PCG64 state after advance({j}) differs from "
                                     f"numpy's for seed {seed:#x}")


def _check_error_field() -> None:
    # The batched seeding re-implements SeedSequence, PCG64's seeding and
    # stepping, and numpy's ziggurat with its tables; a numpy release that
    # changes any of them must fail here.
    _check_seed_sequence([1, 2**40 + 3, 2**127 + 5])
    # Payload 952 holds a tail draw at d = 2 and 10, and 654 one at d = 10;
    # numpy draws those rows from their seeded state.  The first 40 hold
    # wedge draws that accept and that reject.
    payloads = [i.to_bytes(8, "little") for i in (*range(40), 654, 952)]
    digests = {p: hashlib.blake2b(p, digest_size=16).digest() for p in payloads}
    seeds = {p: int.from_bytes(digest, "little") for p, digest in digests.items()}
    for dim in (2, 10):
        _check_pcg64_steps([seeds[p] for p in payloads[-3:]], dim + targets._SPARE_WORDS)
        for batch in (payloads, payloads[:1]):
            for payload, row in zip(batch, targets._hashed_unit_directions(batch, dim)):
                if not np.array_equal(row, targets._row_direction(digests[payload], dim)):
                    raise AssertionError(
                        f"error-field direction for payload {payload.hex()} (d={dim}) "
                        "differs from numpy's PCG64(int) path")
        lanes = set().union(*(_ziggurat_lanes(seeds[p], dim) for p in payloads))
        missing = {"fast", "wedge-accept", "wedge-reject", "tail"} - lanes
        if missing:
            raise AssertionError(f"error-field batch (d={dim}) took no {sorted(missing)} "
                                 "draw: numpy's ziggurat changed")


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
