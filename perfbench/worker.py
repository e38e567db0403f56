"""One workload process: parse the config, run grids, check them, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --out DIR --t0 MONOTONIC [--setup-only]

perfbench/run.py starts this with PYTHONPATH pointing at the checkout's
`src` and the BLAS/OpenMP pools pinned to one thread.  `--t0` is the
parent's time.monotonic() just before the spawn (CLOCK_MONOTONIC is shared
by all processes on Linux), so setup time runs from process start to the
moment run_experiment is entered.  With --setup-only the process stops
there.  Otherwise it runs one warm-up grid, then the workload's grid back to
back while another round still fits in S seconds (at least one), each under
a HostClock that samples the host's speed; in trace mode every round adds a
traced grid.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import rtkbench
from rtkbench import (
    FixedSchedule,
    allocate_nfe,
    config_from_text,
    emit_csv,
    emit_plot,
    run_experiment,
)

from tracer import Tracer
from workloads import WORKLOADS, config_text

SLACK = 0.01  # adjacent-method slack of acceptance test a6
# Largest share of a traced grid's wall time that its spans may leave
# uncovered: build_schedule, build_specs, second_moment and the bench glue
# between layer calls.  Measured at 0.03-0.07% on all three workloads.
UNTRACED_MAX = 0.01
# HostClock: the reference snippet may take this share of a grid's wall time.
REF_DUTY = 0.05
REF_HASH_ROWS = 40


def _ref_kernel(x, means, var):
    """The exact mixture score, written out here: no rtkbench code runs."""
    diff = x[:, None, :] - means
    comp = -np.einsum("nkd,nkd->nk", diff, diff) / (2.0 * var)
    resp = np.exp(comp - comp.max(axis=-1, keepdims=True))
    resp /= resp.sum(axis=-1, keepdims=True)
    return -np.einsum("nk,nkd->nd", resp / var, diff)


def _ref_hash(rows, dim):
    """Per-row blake2b seed -> PCG64 -> unit normal draw, like an error field."""
    out = 0.0
    for row in rows:
        digest = hashlib.blake2b(row, digest_size=16).digest()
        g = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
        out += float(np.linalg.norm(g.standard_normal(dim)))
    return out


class HostClock:
    """Samples how fast the host runs while a grid runs.

    It takes one sample when installed, just before the grid starts.  While
    installed it wraps ScoreOracle.score.  At the first score call that is
    due, it times a fixed snippet of the benchmark's own: a per-row
    hashing loop and one pass of a numpy mixture kernel on the workload's
    (chains, K, d) shape.  None of it is rtkbench's code, so a change to the
    package cannot move it.  The next sample is due after 1/REF_DUTY times
    the snippet's duration.  The time of the samples taken inside the grid
    is taken off the grid's wall time.
    """

    def __init__(self, targets, mix, chains: int):
        self._cls = targets.ScoreOracle
        rng = np.random.default_rng(12345)
        x = rng.standard_normal((chains, mix.dim))
        self._x, self._dim = x, mix.dim
        self._means = np.asarray(mix.means, dtype=np.float64)
        self._var = np.asarray(mix.variances, dtype=np.float64) + 1.0
        self._rows = [r.tobytes() for r in np.round(x[:REF_HASH_ROWS] * 1e6).astype(np.int64)]
        self._original = None
        self.samples: list[tuple[float, float]] = []  # (hash s, kernel s)

    def sample(self) -> float:
        """Runs the snippet once; returns the time it took."""
        t0 = time.perf_counter()
        _ref_hash(self._rows, self._dim)
        t1 = time.perf_counter()
        _ref_kernel(self._x, self._means, self._var)
        t2 = time.perf_counter()
        self.samples.append((t1 - t0, t2 - t1))
        return t2 - t0

    def spent(self) -> float:
        """Time of the samples taken inside the grid (all but the first)."""
        return sum(h + k for h, k in self.samples[1:])

    def install(self) -> None:
        # One sample before the grid starts, so that a grid always has one
        # even if ScoreOracle.score is gone or never called.
        due = [time.perf_counter() + self.sample() / REF_DUTY]
        original = self._original = vars(self._cls).get("score")
        if original is None:
            return
        clock = self

        @functools.wraps(original)
        def score(oracle, *args, **kwargs):
            if time.perf_counter() >= due[0]:
                due[0] = time.perf_counter() + clock.sample() / REF_DUTY
            return original(oracle, *args, **kwargs)

        self._cls.score = score

    def uninstall(self) -> None:
        if self._original is not None:
            self._cls.score = self._original
            self._original = None


def implied_nfe(config, method: str, budget: int) -> int:
    """Score calls a unit must charge under the README's NFE accounting."""
    if method == "ddpm":
        return budget
    schedule = FixedSchedule(times=config.fixed_times, horizon=config.horizon, L=1.0)
    steps = allocate_nfe(budget, method, schedule, config.taylor_order)
    if method in ("ula", "uld"):
        return sum(steps)
    per_step = 2 ** (config.taylor_order - 1) if method == "mala_es" else 1
    return sum(1 + per_step * s for s in steps if s > 0)


def ordering_failures(report) -> list[str]:
    """Acceptance test a6 on the grid's top and smallest budgets."""
    acc = {(r.method, b): r.marginal_accuracy
           for r, (m, b) in zip(report.rows, report.samples)}
    top, low = max(report.config.nfe_budgets), min(report.config.nfe_budgets)
    ma = {m: acc[(m, top)] for m in report.config.methods}
    out = []
    for hi, lo in (("mala", "mala_es"), ("mala_es", "uld"), ("uld", "ula")):
        if not ma[hi] >= ma[lo] - SLACK:
            out.append(f"{hi}@{top}")
    if not ma["ula"] > ma["ddpm"]:
        out.append(f"ula@{top}")
    if not acc[("ula", low)] - acc[("ddpm", low)] >= 0.03:
        out.append(f"ula@{low}")
    return out


def check_grid(name: str, config, report) -> dict[str, str]:
    """Failed unit id -> reason, for every output check of one grid."""
    failed = {}
    units = list(report.samples)
    if len(report.rows) != len(units) or len(units) != len(config.methods) * len(config.nfe_budgets):
        return {"grid": f"{len(report.rows)} rows for {len(units)} units"}
    for row, (method, budget) in zip(report.rows, units):
        uid = f"{method}@{budget}"
        want = implied_nfe(config, method, budget)
        if row.method != method or row.nfe != want or row.nfe > budget:
            failed[uid] = f"realized NFE {row.nfe}, accounting implies {want}, budget {budget}"
        elif not np.isfinite(report.samples[(method, budget)]).all():
            failed[uid] = "non-finite samples"
        elif not math.isfinite(row.marginal_accuracy):
            failed[uid] = "non-finite marginal accuracy"
    if name.startswith("paper-grid"):
        for uid in ordering_failures(report):
            failed.setdefault(uid, "top-budget accuracy ordering (a6) violated")
    return failed


def run_grid(name: str, config, out_dir: Path, tracer=None) -> dict:
    """One timed run_experiment over the grid, then emit and check it.

    `tracer` is a Tracer for a traced grid, or a HostClock for an untraced
    one, whose samples are then kept with the grid.
    """
    n_units = len(config.methods) * len(config.nfe_budgets)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        report = run_experiment(config)
    except Exception:  # a raising unit aborts the grid; count it and go on
        return {"grid_s": time.perf_counter() - start, "units": n_units,
                "failed": {"grid": traceback.format_exc()}, "csv_sha256": None}
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    grid_s = end - start
    host = None
    if isinstance(tracer, HostClock):
        host = {"spent_s": tracer.spent(), "samples": tracer.samples}
    emit_start = time.perf_counter()
    csv_bytes = emit_csv(report, out_dir / "results.csv").read_bytes()
    emit_plot(report, out_dir / "accuracy.svg")
    emit_s = time.perf_counter() - emit_start
    failed = check_grid(name, config, report)
    nfe_chains = sum(row.nfe for row in report.rows) * config.n_samples
    return {
        "grid_s": grid_s,
        "host": host,
        "emit_s": emit_s,
        "units": n_units,
        "failed": failed,
        "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "nfe_chains": nfe_chains,
        "acc_mean": statistics.fmean(row.marginal_accuracy for row in report.rows),
        "warnings": list(report.warnings),
    }


def audit_nfe(tracer: Tracer) -> dict[str, str]:
    """Units whose oracle evaluated more score rows than they were charged."""
    return {u["id"]: f"{u['rows']} score rows evaluated, {u['charged']} charged"
            for u in tracer.units if u["rows"] > u["charged"]}


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "rtkbench": getattr(rtkbench, "__version__", "unknown"),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "RTKBENCH_WORKERS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    text = config_text(args.workload, args.seed)
    config = config_from_text(text, origin=args.workload)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    loop_start = time.perf_counter()
    # A warm-up grid without the host clock: lazy set-up is done before any
    # grid is timed, and the peak RSS is the program's own.
    plain, traced, layer = [run_grid(args.workload, config, out_dir)], [], []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while True:
        round_start = time.perf_counter()
        plain.append(run_grid(args.workload, config, out_dir,
                              HostClock(rtkbench.targets, config.mixture, config.n_samples)))
        if args.trace:
            tracer = Tracer({m: getattr(rtkbench, m) for m in
                             ("targets", "schedule", "samplers", "metrics", "bench")},
                            allocate_nfe, config.nfe_budgets, config.taylor_order)
            grid = run_grid(args.workload, config, out_dir, tracer)
            grid["failed"].update(audit_nfe(tracer))
            wall = grid["grid_s"]
            grid["untraced_s"] = wall - sum(tracer.self_seconds().values())
            if not 0.0 <= grid["untraced_s"] <= UNTRACED_MAX * wall:
                grid["failed"]["trace"] = (
                    f"span self times leave {grid['untraced_s']:.4f} s of {wall:.4f} s "
                    f"traced wall time unaccounted (allowed 0 to {UNTRACED_MAX:.0%})")
            traced.append(grid)
            if "emit_s" in grid and plain[-1].get("host"):
                untraced_s = plain[-1]["grid_s"] - plain[-1]["host"]["spent_s"]
                layer.append(tracer.layer_metrics(grid["grid_s"], untraced_s, grid["emit_s"]))
            tracer.write(out_dir / "spans.jsonl")
        now = time.perf_counter()
        if (now - loop_start) + (now - round_start) > args.seconds:
            break

    grids = plain + traced
    shas = {g["csv_sha256"] for g in grids if g["csv_sha256"]}
    run_failures = []
    if len(shas) > 1:
        run_failures.append(f"results.csv differs between grids of one run: {sorted(shas)}")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "config_text": text,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "machine": machine_facts(),
        "plain": plain,
        "traced": traced,
        "run_failures": run_failures,
        "peak_rss_mb": peak_rss_mb,
        "layer": {k: statistics.median(m[k] for m in layer) for k in layer[0]} if layer else {},
        "tracer_missing": tracer.missing if args.trace else [],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
