"""Benchmark orchestration: config parsing, NFE allocation, sweeps, CSV/SVG.

A run is a grid of (method, nfe_budget) work units.  Each unit owns an RNG
spawned from the master seed by (method index, budget index), so results are
byte-stable under any worker count; assembly is ordered by the grid, never
by completion.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .metrics import MetricsRow, SortedReference, marginal_accuracy, mode_mass, second_moment
from .samplers import (
    MalaSpec,
    UlaSpec,
    UldSpec,
    ddpm_run,
    default_projection_params,
    rtk_run,
)
from .schedule import FixedSchedule
from .targets import IsotropicGaussianMixture, ScoreOracle, sample_base, score

Array = np.ndarray

METHODS = ("ddpm", "ula", "uld", "mala", "mala_es")

# A finite chain has diverged when ||x||^2 exceeds this multiple of the
# target's second moment E||x||^2.
DIVERGED_FACTOR = 1e3

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "allocate_nfe",
    "config_from_text",
    "config_to_text",
    "emit_csv",
    "emit_plot",
    "load_config",
    "paper_preset",
    "run_experiment",
]


# Named range rules for config values: (test, wording of the failure).
_CHECKS = {
    ">= 0": (lambda v: v >= 0, "must be >= 0"),
    ">= 1": (lambda v: v >= 1, "must be >= 1"),
    ">= 2": (lambda v: v >= 2, "must be >= 2"),
    "> 0": (lambda v: v > 0, "must be positive"),
    "(0, 1)": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "(0, 1]": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "finite > 0": (lambda v: 0 < v < math.inf, "must be finite and positive"),
    "int64": (lambda v: -2**63 <= v < 2**63, "must fit in a signed 64-bit integer"),
}


def _check(key: str, value, rule: str | None) -> None:
    """Apply a named range rule, then require every float to be finite.

    The range rule runs first, so a NaN fails with the rule's own wording.
    """
    if value is None:
        return
    if rule is not None:
        test, wording = _CHECKS[rule]
        if not test(value):
            raise ValueError(f"{key} {wording}, got {value}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")


def _key(key: str, default, check: str | None = None):
    """An ExperimentConfig field declared as config key `key`."""
    return field(default=default, metadata={"key": key, "check": check})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run depends on, in one immutable record.

    Each field after mixture declares its config key and range rule; the
    text format reads and writes the keys in field order.
    """

    mixture: IsotropicGaussianMixture
    horizon: float = _key("experiment.horizon", 6.0, "finite > 0")
    methods: tuple[str, ...] = _key("experiment.methods", METHODS)
    nfe_budgets: tuple[int, ...] = _key("experiment.nfe_budgets", (50, 100, 250, 500, 1000))
    n_samples: int = _key("experiment.n_samples", 2000, ">= 1")
    master_seed: int = _key("experiment.master_seed", 0, ">= 0")
    reference_size: int = _key("experiment.reference_size", 100_000, ">= 1")
    bins_per_dim: int = _key("experiment.bins_per_dim", 100, ">= 1")
    metric_seed: int = _key("experiment.metric_seed", 1_000_003, ">= 0")
    record_wall: bool = _key("experiment.record_wall", True)
    schedule_kind: str = _key("schedule.kind", "fixed")
    fixed_times: tuple[float, ...] = _key("schedule.times", ())
    eps: float = _key("schedule.eps", 0.1, "(0, 1)")
    max_outer_steps: int = _key("schedule.max_outer_steps", 64, ">= 1")
    score_error: float = _key("oracle.score_error", 0.0, ">= 0")
    energy_error: float = _key("oracle.energy_error", 0.0, ">= 0")
    error_seed: int = _key("oracle.error_seed", 0, "int64")
    error_cell: float = _key("oracle.error_cell", 1e-6, "> 0")
    tau_multiplier: float = _key("steps.tau_multiplier", 1.0, "> 0")
    tau_cap: float = _key("steps.tau_cap", 0.4, "> 0")
    uld_tau_scale: float = _key("steps.uld_tau_scale", 1.0, "> 0")
    uld_gamma_scale: float = _key("steps.uld_gamma_scale", 1.0, "> 0")
    taylor_order: int = _key("steps.taylor_order", 2, ">= 1")
    taylor_dt: float | None = _key("steps.taylor_dt", None, "(0, 1]")
    # A deployment path that `rtkbench run --out` overrides; never written.
    output_dir: str = _key("experiment.output_dir", ".")

    def __post_init__(self):
        for f in fields(self)[1:]:
            _check(f.metadata["key"], getattr(self, f.name), f.metadata["check"])
        if not self.methods:
            raise ValueError("experiment.methods must name at least one method")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ValueError(f"experiment.methods: unknown method {m!r}; "
                                 f"expected one of {METHODS}")
            if m in self.methods[:i]:
                raise ValueError(f"experiment.methods: duplicate method {m!r}")
        if not self.nfe_budgets:
            raise ValueError("experiment.nfe_budgets must be nonempty")
        if any(b <= a for a, b in zip(self.nfe_budgets, self.nfe_budgets[1:])):
            raise ValueError(f"experiment.nfe_budgets must be strictly increasing, "
                             f"got {self.nfe_budgets}")
        if min(self.nfe_budgets) < 1:
            raise ValueError(f"experiment.nfe_budgets must be positive, got {self.nfe_budgets}")
        if self.schedule_kind not in ("fixed", "theory"):
            raise ValueError(f"schedule.kind: unknown schedule kind {self.schedule_kind!r}; "
                             "expected 'fixed' or 'theory'")
        if self.schedule_kind == "fixed" and not self.fixed_times:
            raise ValueError("schedule.times is empty: a fixed schedule needs transition times")
        if not all(t >= 0 for t in self.fixed_times):
            raise ValueError(f"schedule.times must be >= 0, got {self.fixed_times}")
        if not all(b > a for a, b in zip(self.fixed_times, self.fixed_times[1:])):
            raise ValueError(f"schedule.times must be strictly ascending, got {self.fixed_times}")
        if self.schedule_kind == "fixed" and not (self.horizon > max(self.fixed_times)):
            raise ValueError(f"experiment.horizon = {self.horizon} must exceed the last "
                             f"schedule.times entry {max(self.fixed_times)}")


@dataclass
class RunReport:
    """Config echo plus one MetricsRow and sample matrix per work unit."""

    config: ExperimentConfig
    rows: list[MetricsRow]
    samples: dict[tuple[str, int], Array]
    warnings: list[str] = field(default_factory=list)


def paper_preset() -> ExperimentConfig:
    """The 12-component ring study: d = 10, sigma^2 = 0.007, five methods.

    Times [0, 1.2, 2.4, 3.6, 4.8] over horizon 6.0 give five segments.  The
    score oracle carries a frozen worst-case bias field (score_error with one
    cell per query time), standing in for a trained network's systematic
    error; energy differences stay exact.  record_wall is off so repeated
    runs are byte-identical.
    """
    return ExperimentConfig(
        mixture=IsotropicGaussianMixture.ring(12, 10, radius=1.0, variance=0.007),
        horizon=6.0,
        methods=METHODS,
        nfe_budgets=(50, 100, 250, 500, 1000),
        n_samples=2000,
        master_seed=0,
        schedule_kind="fixed",
        fixed_times=(0.0, 1.2, 2.4, 3.6, 4.8),
        score_error=3.0,
        error_cell=1e6,
        tau_multiplier=5e10,
        tau_cap=0.4,
        uld_tau_scale=3.0,
        uld_gamma_scale=0.3,
        record_wall=False,
    )


def _diffused_variances(mix: IsotropicGaussianMixture, t: float) -> Array:
    decay = math.exp(-2.0 * t)
    return mix.variances * decay + (1.0 - decay)


def segment_curvature(mix: IsotropicGaussianMixture, t_base: float, eta: float) -> float:
    """Analytic curvature bound for one segment target: 1/min var + quad weight."""
    em2 = math.exp(-2.0 * eta)
    quad = em2 / (1.0 - em2)
    return 1.0 / float(_diffused_variances(mix, t_base).min()) + quad


def _diffused_second_moment(mix: IsotropicGaussianMixture, t: float) -> float:
    decay = math.exp(-2.0 * t)
    return decay * mix.second_moment() + (1.0 - decay) * mix.dim


def build_schedule(config: ExperimentConfig) -> FixedSchedule:
    """The run's schedule.

    Theory schedules use the data-time bound L = 1 / min variance on every
    segment; fixed ones carry each segment's segment_curvature.
    """
    mix = config.mixture
    if config.schedule_kind == "theory":
        L = 1.0 / float(mix.variances.min())
        grad0 = float(np.linalg.norm(score(mix, 0.0, np.zeros(mix.dim))))
        return FixedSchedule.theory(L, mix.dim, grad0, config.eps,
                                    max_outer_steps=config.max_outer_steps)
    sched = FixedSchedule(times=config.fixed_times, horizon=config.horizon, L=1.0)
    return replace(sched, L=[segment_curvature(mix, seg.t_base, seg.eta)
                             for seg in sched.segments()])


def split_budget(budget: int, segments: int) -> list[int]:
    """Equal per-segment shares, remainder to the earliest segments."""
    if segments < 1:
        raise ValueError("need at least one segment")
    if budget < segments:
        raise ValueError(
            f"budget {budget} cannot cover {segments} segments with one call each")
    base, extra = divmod(budget, segments)
    return [base + (1 if i < extra else 0) for i in range(segments)]


def allocate_nfe(budget: int, method: str, schedule, taylor_order: int = 2) -> list[int]:
    """Per-segment inner iteration counts for an RTK method under a budget.

    ULA/ULD spend one score call per step; MALA reserves one call per
    segment for the initial gradient; score-only MALA pays 2^(u-1) per
    proposal on top of that reservation.
    """
    segments = len(schedule.segments())
    shares = split_budget(budget, segments)
    if method in ("ula", "uld"):
        return shares
    if method == "mala":
        return [s - 1 for s in shares]
    if method == "mala_es":
        cost = 2 ** (taylor_order - 1)
        return [(s - 1) // cost for s in shares]
    raise ValueError(f"no segment allocation for method {method!r}")


def _practical_tau(config: ExperimentConfig, L_k: float, m2: float,
                   x0_norm: float, steps: int) -> float:
    dim = config.mixture.dim
    _, _, tau = default_projection_params(L_k, dim, m2, x0_norm,
                                          max(steps, 1), config.eps)
    return min(config.tau_multiplier * tau, config.tau_cap / L_k)


def build_specs(config: ExperimentConfig, schedule, method: str, budget: int):
    """Per-segment sampler specs for one RTK work unit."""
    segments = schedule.segments()
    steps = allocate_nfe(budget, method, schedule, config.taylor_order)
    warm = config.schedule_kind == "fixed"
    mix = config.mixture
    specs = []
    for seg, s_k in zip(segments, steps):
        L_k = seg.L
        if method in ("ula", "mala", "mala_es"):
            m2 = math.sqrt(_diffused_second_moment(mix, seg.t_base))
            x0 = math.sqrt(_diffused_second_moment(mix, seg.t_base + seg.eta))
            tau = _practical_tau(config, L_k, m2, x0, s_k)
            if method == "ula":
                specs.append(UlaSpec(steps=s_k, tau=tau))
            else:
                specs.append(MalaSpec(
                    steps=s_k, tau=tau,
                    estimator="taylor" if method == "mala_es" else "exact",
                    taylor_order=config.taylor_order,
                    taylor_dt=config.taylor_dt))
        elif method == "uld":
            tau = config.uld_tau_scale * config.eps / math.sqrt(mix.dim * L_k)
            gamma = config.uld_gamma_scale * 2.0 * math.sqrt(6.0 * L_k)
            specs.append(UldSpec(steps=s_k, tau=tau, gamma=gamma,
                                 init="warm" if warm else "gaussian"))
        else:
            raise ValueError(f"unknown method {method!r}")
    return specs


def _unit_context(config: ExperimentConfig, schedule) -> tuple:
    """(config, schedule, oracle, reference sample) of a run, one per process."""
    oracle = ScoreOracle(config.mixture, score_error=config.score_error,
                         energy_error=config.energy_error,
                         error_seed=config.error_seed,
                         error_cell=config.error_cell)
    reference = SortedReference(sample_base(
        config.mixture, config.reference_size,
        np.random.default_rng(np.random.SeedSequence(config.metric_seed))))
    return config, schedule, oracle, reference


_worker_run = None  # a pool process's _unit_context, set by _start_worker


def _start_worker(config: ExperimentConfig, schedule) -> None:
    global _worker_run
    _worker_run = _unit_context(config, schedule)


def _run_unit(unit: tuple[int, str, int, int], context: tuple | None = None):
    """(row, samples, warnings) of one unit, in the given or this pool process's run."""
    config, schedule, oracle, reference = context or _worker_run
    mi, method, bi, budget = unit
    rng = np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(mi, bi)))
    start = time.perf_counter()
    if method == "ddpm":
        state = ddpm_run(oracle, config.horizon, budget, config.n_samples, rng)
    else:
        specs = build_specs(config, schedule, method, budget)
        state, _ = rtk_run(oracle, schedule, specs, config.n_samples, rng)
    wall = (time.perf_counter() - start) * 1000.0 if config.record_wall else 0.0
    nfe = state.nfe // config.n_samples
    x = state.positions
    mix = config.mixture
    modes = tuple(mode_mass(x, mix)) if mix.n_components > 1 else None
    row = MetricsRow(
        method=method,
        nfe=nfe,
        seed=config.master_seed,
        marginal_accuracy=marginal_accuracy(x, reference, config.bins_per_dim),
        second_moment=second_moment(x),
        accept_rate=state.accept_rate(),
        wall_ms=wall,
        per_mode_mass=modes,
    )
    warn = []
    finite = np.isfinite(x).all(axis=1)
    bad = int((~finite).sum())
    if bad:
        warn.append(f"{method}@{budget}: {bad} of {x.shape[0]} chains ended non-finite")
    with np.errstate(over="ignore"):  # an inf square still counts as diverged
        sq = (x * x).sum(axis=1)
    far = int((finite & ~(sq <= DIVERGED_FACTOR * mix.second_moment())).sum())
    if far:
        warn.append(f"{method}@{budget}: {far} of {x.shape[0]} chains diverged")
    if state.noise_clamps:
        warn.append(f"{method}@{budget}: clamped ULD noise covariance {state.noise_clamps}x")
    if nfe < 1:
        warn.append(f"{method}@{budget}: realized 0 NFE; left out of the log-scale plot")
    if nfe > budget:
        warn.append(f"{method}@{budget}: realized NFE {nfe} over budget")
    return row, x, warn


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run the full method x budget grid, one reference sample per process.

    Deterministic for a given config: each unit's RNG comes from
    SeedSequence(master_seed, spawn_key=(method_index, budget_index)), and
    the reference uses metric_seed.  RTKBENCH_WORKERS > 1 runs the units in
    spawned processes, longest budget first, without changing any output
    byte.  A failed unit raises one ValueError that names it.
    """
    text = os.environ.get("RTKBENCH_WORKERS", "").strip() or "1"
    workers = int(text) if text.isdecimal() else 0
    if workers < 1:
        raise ValueError(f"RTKBENCH_WORKERS must be a positive integer, got {text!r}")
    schedule = build_schedule(config)
    n_segments = len(schedule.segments())
    if set(config.methods) - {"ddpm"} and min(config.nfe_budgets) < n_segments:
        raise ValueError(f"experiment.nfe_budgets = {min(config.nfe_budgets)} cannot cover "
                         f"the {n_segments} schedule segments with one score call each")
    units = [(mi, method, bi, budget)
             for mi, method in enumerate(config.methods)
             for bi, budget in enumerate(config.nfe_budgets)]
    futures = {}
    if workers > 1 and len(units) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(min(workers, len(units)),
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_start_worker, initargs=(config, schedule)) as pool:
            for unit in sorted(units, key=lambda u: -u[3]):  # longest budget first
                futures[unit] = pool.submit(_run_unit, unit)
    else:
        context = _unit_context(config, schedule)
    report = RunReport(config, [], {})
    for unit in units:
        _, method, _, budget = unit
        try:
            row, x, warn = futures[unit].result() if futures else _run_unit(unit, context)
        except Exception as exc:  # a worker that died raises BrokenProcessPool here
            raise ValueError(f"{method}@{budget}: {type(exc).__name__}: {exc}") from exc
        report.rows.append(row)
        report.samples[(method, budget)] = x
        report.warnings.extend(warn)
    return report


# --- config text format -----------------------------------------------------

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_kv_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Flat `dotted.key = value` lines; # comments; errors carry line numbers."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"{origin}:{lineno}: empty key")
        if key in out:
            raise ValueError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _items(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"{key}: cannot read boolean from {value!r}")


# Value parsers keyed by the annotation of the field a key declares.
_PARSERS = {
    "float": float,
    "float | None": float,
    "int": int,
    "str": str,
    "tuple[float, ...]": lambda v: tuple(float(x) for x in _items(v)),
    "tuple[int, ...]": lambda v: tuple(int(x) for x in _items(v)),
    "tuple[str, ...]": lambda v: tuple(_items(v)),
}


def _read(key: str, text: str, annotation: str, origin: str):
    """Parse one config value by field type, naming the key on failure."""
    try:
        return _PARSERS[annotation](text)
    except ValueError as exc:
        raise ValueError(f"{origin}: bad value for {key}: {text!r}") from exc


def mixture_from_mapping(kv: dict[str, str], origin: str = "<config>",
                         base_dir: str | Path = ".") -> IsotropicGaussianMixture:
    """Build the target mixture from mixture.* keys, inline or via a file."""
    if "mixture.file" in kv:
        path = Path(base_dir) / kv["mixture.file"]
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"{origin}: cannot read mixture file {path}: {exc}") from exc
        sub = parse_kv_text(text, origin=str(path))
        return mixture_from_mapping(sub, origin=str(path), base_dir=path.parent)
    kind = kv.get("mixture.kind")
    if kind is None:
        raise ValueError(f"{origin}: missing mixture.kind (or mixture.file)")

    def value(key: str, annotation: str, check: str | None = None,
              default: str | None = None):
        if key not in kv and default is None:
            raise ValueError(f"{origin}: mixture.kind = {kind} needs {key}")
        parsed = _read(key, kv.get(key, default), annotation, origin)
        for entry in parsed if isinstance(parsed, tuple) else (parsed,):
            _check(key, entry, check)
        return parsed

    if kind == "standard_normal":
        return IsotropicGaussianMixture.standard_normal(value("mixture.dim", "int", ">= 1"))
    if kind == "ring":
        return IsotropicGaussianMixture.ring(
            value("mixture.components", "int", ">= 1", "12"),
            value("mixture.dim", "int", ">= 2", "10"),
            radius=value("mixture.radius", "float", ">= 0", "1.0"),
            variance=value("mixture.variance", "float", "> 0", "0.007"),
        )
    if kind == "explicit":
        floats = "tuple[float, ...]"
        weights = value("mixture.weights", floats, ">= 0")
        variances = value("mixture.variances", floats, "> 0")
        means = [value(f"mixture.means.{i}", floats) for i in range(len(weights))]
        for i, row in enumerate(means):
            if len(row) != len(means[0]):
                raise ValueError(f"mixture.means.{i} must have {len(means[0])} entries "
                                 f"like mixture.means.0, got {len(row)}")
        total = float(np.sum(weights))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture.weights must sum to 1 within 1e-12, got {total}")
        if len(variances) != len(weights):
            raise ValueError(f"mixture.variances must have {len(weights)} entries "
                             f"like mixture.weights, got {len(variances)}")
        return IsotropicGaussianMixture(np.array(weights), np.array(means), np.array(variances))
    raise ValueError(f"{origin}: unknown mixture.kind {kind!r}")


def config_from_text(text: str, origin: str = "<config>",
                     base_dir: str | Path = ".") -> ExperimentConfig:
    """Parse a flat key/value config document into an ExperimentConfig."""
    kv = parse_kv_text(text, origin=origin)
    mixture = mixture_from_mapping(kv, origin=origin, base_dir=base_dir)
    declared = {f.metadata["key"]: f for f in fields(ExperimentConfig)[1:]}
    values: dict = {"mixture": mixture}
    for key, raw in kv.items():
        if key.startswith("mixture."):
            continue
        if key not in declared:
            raise ValueError(f"{origin}: unknown config key {key!r}")
        f = declared[key]
        values[f.name] = _bool(raw, key) if f.type == "bool" else _read(key, raw, f.type, origin)
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return config_from_text(text, origin=str(path), base_dir=path.parent)


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a config (with an inline mixture) back to the flat format.

    Keys follow field order; unset values (None, an empty tuple) and the
    output directory are left out.
    """
    mix = config.mixture
    lines = ["# rtkbench experiment configuration"]
    for f in fields(config)[1:]:
        value = getattr(config, f.name)
        if value is not None and value != () and f.name != "output_dir":
            lines.append(f"{f.metadata['key']} = {_format(value)}")
    w = np.asarray(mix.weights)
    uniform_ring = _looks_like_ring(mix)
    if uniform_ring:
        lines += [
            "mixture.kind = ring",
            f"mixture.components = {mix.n_components}",
            f"mixture.dim = {mix.dim}",
            f"mixture.radius = {uniform_ring:.10g}",
            f"mixture.variance = {float(mix.variances[0]):.10g}",
        ]
    else:
        lines.append("mixture.kind = explicit")
        lines.append("mixture.weights = " + ",".join(f"{x:.17g}" for x in w))
        lines.append("mixture.variances = " + ",".join(f"{x:.17g}" for x in mix.variances))
        for i, mean in enumerate(mix.means):
            lines.append(f"mixture.means.{i} = " + ",".join(f"{x:.17g}" for x in mean))
    return "\n".join(lines) + "\n"


def _looks_like_ring(mix: IsotropicGaussianMixture) -> float | None:
    """Radius if the mixture reproduces IsotropicGaussianMixture.ring exactly."""
    k, d = mix.n_components, mix.dim
    if k < 2 or d < 2:
        return None
    if not np.allclose(mix.weights, 1.0 / k, rtol=0, atol=1e-15):
        return None
    if not np.all(mix.variances == mix.variances[0]):
        return None
    radius = float(np.hypot(mix.means[0, 0], mix.means[0, 1]))
    if radius <= 0:
        return None
    probe = IsotropicGaussianMixture.ring(k, d, radius=radius,
                                          variance=float(mix.variances[0]))
    return radius if np.array_equal(probe.means, mix.means) else None


# --- output ------------------------------------------------------------------


def emit_csv(report: RunReport, path: str | Path) -> Path:
    """Write one CSV row per work unit under the fixed schema."""
    path = Path(path)
    lines = [MetricsRow.CSV_HEADER] + [row.csv_row() for row in report.rows]
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return path


_PLOT_COLORS = {
    "ddpm": "#7f7f7f",
    "ula": "#1f77b4",
    "uld": "#2ca02c",
    "mala": "#d62728",
    "mala_es": "#ff7f0e",
}

_SVG_W, _SVG_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 30, 55


def emit_plot(report: RunReport, path: str | Path) -> Path:
    """Hand-rolled SVG: marginal accuracy vs NFE, one polyline per method.

    Rows with no realized NFE have no place on the log-scale axis and are
    left out (_run_unit warns about each).
    """
    series: dict[str, list[tuple[int, float]]] = {}
    for row in report.rows:
        if row.nfe >= 1:
            series.setdefault(row.method, []).append((row.nfe, row.marginal_accuracy))
    for pts in series.values():
        pts.sort()
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if xs:
        x_lo, x_hi = math.log10(min(xs)), math.log10(max(xs))
        if x_hi - x_lo < 1e-9:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        y_lo, y_hi = min(ys), max(ys)
        pad = max(0.02, 0.08 * (y_hi - y_lo))
        y_lo, y_hi = max(0.0, y_lo - pad), min(1.0, y_hi + pad)
    else:
        x_lo, x_hi, y_lo, y_hi = 1.0, 3.0, 0.5, 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def px(nfe: float) -> float:
        return _MARGIN_L + plot_w * (math.log10(nfe) - x_lo) / (x_hi - x_lo)

    def py(acc: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - (acc - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for k in range(6):
        acc = y_lo + (y_hi - y_lo) * k / 5
        y = py(acc)
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{y:.2f}" x2="{_MARGIN_L}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{acc:.3f}</text>')
    for nfe in sorted({x for x, _ in sum(series.values(), [])}):
        x = px(nfe)
        parts.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
                     f'y2="{_MARGIN_T + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" font-size="12" '
                     f'text-anchor="middle">{nfe}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_SVG_H - 12}" '
                 f'font-size="14" text-anchor="middle">NFE (score calls, log scale)</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{_MARGIN_T + plot_h / 2:.2f})">marginal accuracy</text>')
    legend_y = _MARGIN_T + 10
    for i, (method, pts) in enumerate(series.items()):
        color = _PLOT_COLORS.get(method, "#000000")
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        ly = legend_y + 20 * i
        lx = _SVG_W - _MARGIN_R + 14
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly + 4}" font-size="13">{method}</text>')
    parts.append("</svg>")
    path = Path(path)
    try:
        path.write_text("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc
    return path
