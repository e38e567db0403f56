"""Span tracing of rtkbench from outside the package.

The tracer replaces public functions and methods with timing wrappers at
every place they are looked up: `bench` imports `rtk_run`, `ddpm_run`,
`marginal_accuracy`, `mode_mass`, `sample_base` and `score` by name, so both
the defining module and `rtkbench.bench` are patched.  Spans are kept in
memory (name, start, end, parent, unit id) and written out when the run ends.

A work unit (`method@budget`) is the span `bench.unit`: it opens when bench
calls `rtk_run` or `ddpm_run` and closes when that thread's
`marginal_accuracy` returns, which is the last layer call of a unit.  Each
thread keeps its own span stack, so units fanned out to bench's thread pool
stay apart.  A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict

METHODS = ("ddpm", "ula", "uld", "mala", "mala_es")

# Per-layer metric names and units, in report order; the traced run reports
# each one.
LAYER_METRICS = {
    "targets.score.calls": "count",
    "targets.score.rows": "count",
    "targets.score.self_s": "s",
    "targets.log_density.rows": "count",
    "targets.log_density.self_s": "s",
    "targets.oracle_score.self_s": "s",
    "targets.energy_difference.self_s": "s",
    "targets.sample_base.s": "s",
    "schedule.grad_energy.self_s": "s",
    "schedule.quadratic_diff.self_s": "s",
    "schedule.mala_init.self_s": "s",
    **{f"samplers.{m}.s": "s" for m in METHODS},
    "samplers.mala_run.self_s": "s",
    "samplers.ula_step.self_s": "s",
    "samplers.uld_step.self_s": "s",
    "samplers.uld_noise_pair.self_s": "s",
    "samplers.ddpm_run.self_s": "s",
    "samplers.taylor_energy_diff.self_s": "s",
    "samplers.mala_accept_log.self_s": "s",
    "samplers.mala.accept_ratio": "1",
    "samplers.mala_es.accept_ratio": "1",
    "samplers.uld.noise_clamps": "count",
    **{f"samplers.score_rows_per_charged_nfe.{m}": "1" for m in METHODS},
    "metrics.marginal_accuracy.self_s": "s",
    "metrics.mode_mass.self_s": "s",
    "bench.unit_s.max": "s",
    "bench.unit_s.p50": "s",
    "bench.emit.s": "s",
    "bench.pool_idle_frac": "1",
    "bench.trace_overhead_frac": "1",
}


def _rows(x) -> int:
    """Query points in an (..., d) argument."""
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return math.prod(shape[:-1])


def _total(counter) -> int:
    """A ChainState counter summed over chains (per-chain array or int)."""
    return int(counter.sum()) if hasattr(counter, "sum") else int(counter)


class Tracer:
    """Wraps rtkbench's layers while installed; collects spans and units.

    allocate_nfe, budgets and taylor_order name a unit from the specs that
    bench hands to rtk_run.
    """

    def __init__(self, rtkbench_modules: dict, allocate_nfe, budgets, taylor_order):
        self._mods = rtkbench_modules
        self._allocate_nfe = allocate_nfe
        self._budgets = tuple(budgets)
        self._taylor_order = taylor_order
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # (id, name, parent id, start, end, self seconds, unit id, rows)
        self.spans: list[tuple] = []
        self.units: list[dict] = []

    # --- span stack ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.unit = None
        return stack

    def _push(self, name: str, rows: int = 0) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), name, parent, time.perf_counter(), 0.0, rows]
        stack.append(frame)
        return frame

    def _pop(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][4] += duration
        unit = self._local.unit
        self.spans.append((frame[0], frame[1], frame[2], frame[3], end,
                           duration - frame[4], unit["id"] if unit else None, frame[5]))
        return duration

    # --- units --------------------------------------------------------------

    def _name_unit(self, fn_name: str, args, kwargs) -> tuple[str, int | None]:
        if fn_name == "ddpm_run":
            return "ddpm", kwargs.get("steps", args[2] if len(args) > 2 else None)
        schedule = kwargs.get("schedule", args[1] if len(args) > 1 else None)
        specs = kwargs.get("specs", args[2] if len(args) > 2 else None)
        specs = list(specs) if isinstance(specs, (list, tuple)) else [specs]
        kind = type(specs[0]).__name__
        if kind == "MalaSpec":
            method = "mala_es" if specs[0].estimator == "taylor" else "mala"
        else:
            method = {"UlaSpec": "ula", "UldSpec": "uld"}.get(kind, kind)
        steps = [s.steps for s in specs]
        for budget in self._budgets:
            try:
                if self._allocate_nfe(budget, method, schedule, self._taylor_order) == steps:
                    return method, budget
            except ValueError:
                continue
        return method, None

    def _open_unit(self, method: str, budget) -> None:
        self._stack()
        unit = {"id": f"{method}@{budget if budget is not None else '?'}",
                "method": method, "budget": budget, "rows": 0, "charged": 0,
                "accepts": 0, "proposals": 0, "clamps": 0}
        self._local.unit = unit
        unit["frame"] = self._push("bench.unit")

    def _close_unit(self) -> None:
        unit = self._local.unit
        if unit is None:
            return
        unit["s"] = self._pop(unit.pop("frame"))
        self._local.unit = None
        self.units.append(unit)

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, role: str | None, row_arg: int | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if role == "run" and getattr(tracer._local, "unit", None) is None:
                tracer._open_unit(*tracer._name_unit(fn.__name__, args, kwargs))
            rows = _rows(args[row_arg]) if row_arg is not None and len(args) > row_arg else 0
            if role == "audit" and getattr(tracer._local, "unit", None) is not None:
                tracer._local.unit["rows"] += rows
            frame = tracer._push(name, rows)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
                if role == "close":
                    tracer._close_unit()
            if role == "run":
                state = result[0] if isinstance(result, tuple) else result
                unit = tracer._local.unit
                unit["charged"] = _total(state.nfe)
                unit["accepts"] = _total(state.accept_count)
                unit["proposals"] = _total(state.propose_count)
                unit["clamps"] = _total(state.noise_clamps)
            return result

        return wrapper

    def install(self) -> None:
        m = self._mods
        targets, schedule, samplers = m["targets"], m["schedule"], m["samplers"]
        metrics, bench = m["metrics"], m["bench"]
        oracle = getattr(targets, "ScoreOracle", None)
        rtk_target = getattr(schedule, "RtkTarget", None)
        # (span name, role, index of the (..., d) query argument, owners)
        plan = [
            ("targets.score", None, 2, [(targets, "score"), (bench, "score")]),
            ("targets.log_density", None, 2, [(targets, "log_density")]),
            ("targets.oracle_score", "audit", 2, [(oracle, "score")]),
            ("targets.energy_difference", None, 2, [(oracle, "energy_difference")]),
            ("targets.sample_base", None, None, [(targets, "sample_base"), (bench, "sample_base")]),
            ("schedule.grad_energy", None, None, [(rtk_target, "grad_energy")]),
            ("schedule.quadratic_diff", None, None, [(rtk_target, "quadratic_diff")]),
            ("schedule.mala_init", None, None, [(schedule, "mala_init"), (samplers, "mala_init")]),
            ("samplers.rtk_run", "run", None, [(samplers, "rtk_run"), (bench, "rtk_run")]),
            ("samplers.ddpm_run", "run", None, [(samplers, "ddpm_run"), (bench, "ddpm_run")]),
            ("samplers.mala_run", None, None, [(samplers, "mala_run")]),
            ("samplers.ula_step", None, None, [(samplers, "ula_step")]),
            ("samplers.uld_step", None, None, [(samplers, "uld_step")]),
            ("samplers.uld_noise_pair", None, None, [(samplers, "uld_noise_pair")]),
            ("samplers.taylor_energy_diff", None, None, [(samplers, "taylor_energy_diff")]),
            ("samplers.mala_accept_log", None, None, [(samplers, "mala_accept_log")]),
            ("metrics.mode_mass", None, None, [(metrics, "mode_mass"), (bench, "mode_mass")]),
            ("metrics.marginal_accuracy", "close", None,
             [(metrics, "marginal_accuracy"), (bench, "marginal_accuracy")]),
        ]
        wrappers: dict[int, object] = {}
        for name, role, row_arg, owners in plan:
            for owner, attr in owners:
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original, name, role, row_arg)
                setattr(owner, attr, wrappers[id(original)])
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- results ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[1]] += span[5]
        return out

    def layer_metrics(self, traced_grid_s: float, untraced_grid_s: float,
                      emit_s: float) -> dict[str, float]:
        """Every name in LAYER_METRICS for the spans of one traced grid.

        Methods a workload does not run read 0.
        """
        self_s = self.self_seconds()
        total: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            total[span[1]] += span[4] - span[3]
            counts[span[1]] += 1
            counts[span[1] + ".rows"] += span[7]
        out = {
            "targets.score.calls": counts["targets.score"],
            "targets.score.rows": counts["targets.score.rows"],
            "targets.log_density.rows": counts["targets.log_density.rows"],
            "targets.sample_base.s": total["targets.sample_base"],
        }
        for name in LAYER_METRICS:
            if name.endswith(".self_s"):
                out[name] = self_s[name[:-len(".self_s")]]
        by_method: dict[str, list[dict]] = defaultdict(list)
        for unit in self.units:
            by_method[unit["method"]].append(unit)
        for method in METHODS:
            units = by_method[method]
            out[f"samplers.{method}.s"] = sum(u["s"] for u in units)
            charged = sum(u["charged"] for u in units)
            rows = sum(u["rows"] for u in units)
            out[f"samplers.score_rows_per_charged_nfe.{method}"] = rows / charged if charged else 0.0
        for method in ("mala", "mala_es"):
            proposed = sum(u["proposals"] for u in by_method[method])
            accepted = sum(u["accepts"] for u in by_method[method])
            out[f"samplers.{method}.accept_ratio"] = accepted / proposed if proposed else 0.0
        out["samplers.uld.noise_clamps"] = sum(u["clamps"] for u in by_method["uld"])
        unit_s = [u["s"] for u in self.units]
        out["bench.unit_s.max"] = max(unit_s, default=0.0)
        out["bench.unit_s.p50"] = statistics.median(unit_s) if unit_s else 0.0
        out["bench.emit.s"] = emit_s
        out["bench.pool_idle_frac"] = 1.0 - sum(unit_s) / traced_grid_s
        out["bench.trace_overhead_frac"] = (traced_grid_s - untraced_grid_s) / untraced_grid_s
        return {name: out[name] for name in LAYER_METRICS}

    def write(self, path) -> None:
        """Spans and units as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"id": span[0], "name": span[1], "parent": span[2],
                                     "start": span[3], "end": span[4], "self_s": span[5],
                                     "unit": span[6], "rows": span[7]}) + "\n")
            for unit in self.units:
                fh.write(json.dumps({"unit_record": unit}) + "\n")
