"""rtkbench benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
The workload runs in its own process with the seed as `master_seed`, the
BLAS/OpenMP pools pinned to one thread and bench's own pool to one worker.
With --trace 0 the command first times process set-up several times, each
against a process that only imports numpy, then reports the end-to-end
metrics; with --trace 1 it reports the per-layer
metrics of perfbench/tracer.py.  Every grid's outputs are checked; the last
stdout line is one JSON object, and the exit code is nonzero when a check
failed.  A run record (machine, commit, config
and CSV digests, every grid) goes to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import HASH_S, HOST_MIX, IMPORT_NUMPY_S, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PAIRS = 9
# The reference process of a set-up pair: interpreter start and numpy import.
REF_SETUP = "import time, numpy; print(time.monotonic())"
RUN_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "RTKBENCH_WORKERS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("grid_s", "s"),
    ("chain_nfe_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("acc_mean", "1"),
)


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every process
    env.update(THREAD_ENV)
    return env


def spawn(args: argparse.Namespace, env: dict, out_dir: Path, timeout: float,
          setup_only: bool = False) -> dict:
    """Run perfbench/worker.py and return the JSON object it prints last."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ref_setup(env: dict, timeout: float) -> float:
    """Seconds from spawn until a bare `import numpy` process is done."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", REF_SETUP], env=env,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"reference set-up process exited with {proc.returncode}")
    return float(proc.stdout.split()[-1]) - t0


def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from root/.git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_seconds(grid: dict, workload: str) -> float:
    """A grid's wall time in seconds of the reference host.

    The HostClock snippet's own time is taken off.  The rest is divided by
    how much slower than on the reference host the snippet ran during the
    grid, its hashing loop and kernel pass weighted by the workload's mix.
    """
    share, kernel_s = HOST_MIX[workload]
    samples = grid["host"]["samples"]
    slowdown = (share * statistics.fmean(h for h, _ in samples) / HASH_S
                + (1.0 - share) * statistics.fmean(k for _, k in samples) / kernel_s)
    return (grid["grid_s"] - grid["host"]["spent_s"]) / slowdown


def failed_units(grid: dict) -> int:
    """Failed units of one grid; a grid that raised fails all of them."""
    if "grid" in grid["failed"]:
        return grid["units"]
    return sum(1 for key in grid["failed"] if "@" in key)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "rtkbench" / "__init__.py").is_file():
        print(f"error: no rtkbench package under {root / 'src'}; run from the repo root",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    out_dir = HERE / "out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    try:
        setup = []  # (probe s, reference s) pairs, run back to back
        if not args.trace:
            spawn(args, env, out_dir, remaining(), setup_only=True)  # warm the bytecode cache
            ref_setup(env, remaining())
            for _ in range(SETUP_PAIRS):
                ref_s = ref_setup(env, remaining())
                setup.append((spawn(args, env, out_dir, remaining(),
                                    setup_only=True)["setup_s"], ref_s))
        run = spawn(args, env, out_dir, remaining())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1

    plain, grids = run["plain"], run["plain"] + run["traced"]
    attempted = sum(g["units"] for g in grids)
    failed = sum(failed_units(g) for g in grids)
    problems = run["run_failures"] + [f"{k}: {v}" for g in grids for k, v in g["failed"].items()]
    # Grids that did not raise, after the warm-up grid
    timed = [g for g in plain if "emit_s" in g and g["host"]]
    correct = not problems

    metrics = {}
    if args.trace:
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name]}
                   for name, value in run["layer"].items()}
    elif timed:
        grid_s = statistics.median(host_seconds(g, args.workload) for g in timed)
        # Each probe against the numpy-only process just before it, in
        # seconds of the reference host.
        setup_s = IMPORT_NUMPY_S * statistics.median(p / r for p, r in setup)
        values = {"setup_s": setup_s,
                  "grid_s": grid_s,
                  "chain_nfe_per_s": timed[0]["nfe_chains"] / grid_s,
                  "peak_rss_mb": run["peak_rss_mb"],
                  "acc_mean": timed[0]["acc_mean"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(root), "machine": run["machine"],
        "config_text": run["config_text"], "config_sha256": run["config_sha256"],
        "results_csv_sha256": sorted({str(g["csv_sha256"]) for g in grids}),
        "setup_pairs_s": setup, "setup_main_s": run["setup_s"], "grids": grids,
        "tracer_missing": run["tracer_missing"], "metrics": metrics,
        "attempted": attempted, "failed": failed, "problems": problems,
    }
    (out_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} untraced grid(s) of {plain[0]['units']} units, "
          f"the first a warm-up")
    for name, entry in metrics.items():
        print(f"  {name:<42} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'failed_unit_frac':<42} {failed / attempted:>14.6g} 1  ({failed}/{attempted})")
    print(f"  results.csv sha256 {', '.join(record['results_csv_sha256'])}")
    for problem in problems:
        print(f"  CHECK FAILED {problem.strip().splitlines()[-1]}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
