"""Benchmark harness tests: allocation, config text format, runs, outputs."""

import importlib
import math
import os
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

from rtkbench import bench, targets
from rtkbench.bench import (
    DIVERGED_FACTOR,
    METHODS,
    ExperimentConfig,
    RunReport,
    allocate_nfe,
    build_schedule,
    build_specs,
    config_from_text,
    config_to_text,
    emit_csv,
    emit_plot,
    load_config,
    paper_preset,
    run_experiment,
    segment_curvature,
    split_budget,
)
from rtkbench.metrics import MetricsRow
from rtkbench.samplers import (
    MalaSpec,
    UlaSpec,
    UldSpec,
    ddpm_run,
    default_projection_params,
    rtk_run,
)
from rtkbench.schedule import FixedSchedule
from rtkbench.targets import IsotropicGaussianMixture, ScoreOracle


def small_config(**overrides) -> ExperimentConfig:
    """Cheap two-segment standard-normal run for harness-level tests."""
    fields = dict(
        mixture=IsotropicGaussianMixture.standard_normal(2),
        horizon=2.4,
        methods=("ddpm", "ula", "uld", "mala", "mala_es"),
        nfe_budgets=(12, 24),
        n_samples=60,
        reference_size=2000,
        schedule_kind="fixed",
        fixed_times=(0.0, 1.2),
        tau_multiplier=5e10,
        record_wall=False,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestSplitBudget:
    def test_even_split(self):
        assert split_budget(500, 5) == [100, 100, 100, 100, 100]

    def test_remainder_goes_to_earliest_segments(self):
        assert split_budget(503, 5) == [101, 101, 101, 100, 100]

    def test_budget_below_segment_count_rejected(self):
        with pytest.raises(ValueError, match="cannot cover"):
            split_budget(4, 5)

    def test_needs_a_segment(self):
        with pytest.raises(ValueError):
            split_budget(10, 0)


@pytest.fixture(scope="module")
def sched():
    return FixedSchedule(times=(0.0, 1.2, 2.4, 3.6, 4.8), horizon=6.0, L=143.0)


@pytest.fixture(scope="module")
def preset():
    cfg = paper_preset()
    return cfg, build_schedule(cfg)


class TestAllocateNfe:

    def test_langevin_methods_spend_budget_directly(self, sched):
        assert allocate_nfe(500, "ula", sched) == [100] * 5
        assert allocate_nfe(500, "uld", sched) == [100] * 5

    def test_mala_reserves_one_call_per_segment(self, sched):
        assert allocate_nfe(500, "mala", sched) == [99] * 5

    def test_score_only_divides_remaining_budget_by_call_cost(self, sched):
        # u = 2 charges two calls per proposal on top of the reserved gradient.
        assert allocate_nfe(500, "mala_es", sched) == [49] * 5
        assert allocate_nfe(500, "mala_es", sched, taylor_order=3) == [24] * 5

    def test_uneven_budget(self, sched):
        assert allocate_nfe(503, "ula", sched) == [101, 101, 101, 100, 100]

    def test_unknown_method(self, sched):
        with pytest.raises(ValueError, match="no segment allocation"):
            allocate_nfe(500, "ddpm", sched)


class TestSegmentCurvature:
    def test_ring_final_segment(self):
        mix = IsotropicGaussianMixture.ring(12, 10, variance=0.007)
        got = segment_curvature(mix, 0.0, 1.2)
        quad = math.exp(-2.4) / (1.0 - math.exp(-2.4))
        assert got == pytest.approx(1.0 / 0.007 + quad, rel=1e-12)

    def test_decreases_as_noise_accumulates(self):
        mix = IsotropicGaussianMixture.ring(12, 10, variance=0.007)
        curv = [segment_curvature(mix, t, 1.2) for t in (0.0, 1.2, 2.4, 3.6, 4.8)]
        assert all(a > b for a, b in zip(curv, curv[1:]))

    def test_standard_normal_is_quad_weight_plus_one(self):
        mix = IsotropicGaussianMixture.standard_normal(3)
        quad = math.exp(-1.0) / (1.0 - math.exp(-1.0))
        assert segment_curvature(mix, 2.0, 0.5) == pytest.approx(1.0 + quad, rel=1e-12)


class TestBuildSchedule:
    def test_fixed_uses_worst_segment_curvature(self):
        cfg = paper_preset()
        sched = build_schedule(cfg)
        segs = sched.segments()
        assert len(segs) == 5
        assert [s.L for s in segs] == [segment_curvature(cfg.mixture, s.t_base, s.eta)
                                       for s in segs]
        # The data-time segment is the worst one.
        assert max(s.L for s in segs) == segs[-1].L
        assert segs[-1].L == pytest.approx(segment_curvature(cfg.mixture, 0.0, 1.2))

    def test_theory_mode(self):
        cfg = small_config(schedule_kind="theory", fixed_times=())
        sched = build_schedule(cfg)
        assert isinstance(sched, FixedSchedule)
        assert sched.K >= 1
        # standard normal: min variance 1
        assert all(s.L == pytest.approx(1.0) for s in sched.segments())


class TestBuildSpecs:
    def test_mala_specs(self, preset):
        cfg, sched = preset
        specs = build_specs(cfg, sched, "mala", 1000)
        assert [s.steps for s in specs] == [199] * 5
        assert all(isinstance(s, MalaSpec) and s.estimator == "exact" for s in specs)
        for s, seg in zip(specs, sched.segments()):
            assert 0 < s.tau <= cfg.tau_cap / seg.L + 1e-15

    def test_score_only_specs(self, preset):
        cfg, sched = preset
        specs = build_specs(cfg, sched, "mala_es", 1000)
        assert [s.steps for s in specs] == [99] * 5
        assert all(s.estimator == "taylor" and s.taylor_order == 2 for s in specs)

    def test_ula_matches_mala_step_size_rule(self, preset):
        # Same formula; only the log(S) factor differs because MALA reserves
        # one call per segment, so the taus agree to a fraction of a percent.
        cfg, sched = preset
        ula = build_specs(cfg, sched, "ula", 1000)
        mala = build_specs(cfg, sched, "mala", 1000)
        assert all(isinstance(s, UlaSpec) for s in ula)
        for a, b in zip(ula, mala):
            assert a.tau == pytest.approx(b.tau, rel=2e-3)

    def test_uld_specs_follow_segment_curvature(self, preset):
        cfg, sched = preset
        specs = build_specs(cfg, sched, "uld", 500)
        for s, L_k in zip(specs, (seg.L for seg in sched.segments())):
            assert isinstance(s, UldSpec)
            assert s.init == "warm"
            assert s.gamma == pytest.approx(cfg.uld_gamma_scale * 2.0 * math.sqrt(6.0 * L_k))
            assert s.tau == pytest.approx(cfg.uld_tau_scale * cfg.eps / math.sqrt(10 * L_k))

    def test_theory_schedule_keeps_gaussian_uld_init(self):
        cfg = small_config(schedule_kind="theory", fixed_times=())
        sched = build_schedule(cfg)
        specs = build_specs(cfg, sched, "uld", 4 * sched.K)
        assert all(s.init == "gaussian" for s in specs)

    def test_multiplier_one_recovers_analytic_step_bound(self):
        cfg = small_config(tau_multiplier=1.0)
        sched = build_schedule(cfg)
        spec = build_specs(cfg, sched, "mala", 24)[0]
        m2 = math.sqrt(math.exp(-2 * 1.2) * 2 + (1 - math.exp(-2 * 1.2)) * 2)
        _, _, tau = default_projection_params(sched.segments()[0].L, 2, m2, m2, 11, cfg.eps)
        assert spec.tau == pytest.approx(tau, rel=1e-12)


class TestConfigText:
    def test_preset_roundtrip_is_exact(self):
        cfg = paper_preset()
        text = config_to_text(cfg)
        back = config_from_text(text)
        assert config_to_text(back) == text
        assert back.mixture.n_components == 12
        assert np.array_equal(back.mixture.means, cfg.mixture.means)
        assert back.nfe_budgets == cfg.nfe_budgets
        assert back.score_error == cfg.score_error

    def test_explicit_mixture_roundtrip(self):
        mix = IsotropicGaussianMixture(
            np.array([0.25, 0.75]),
            np.array([[0.3, -1.0], [2.0, 0.5]]),
            np.array([0.4, 1.3]),
        )
        cfg = small_config(mixture=mix)
        back = config_from_text(config_to_text(cfg))
        assert np.array_equal(back.mixture.weights, mix.weights)
        assert np.array_equal(back.mixture.means, mix.means)
        assert np.array_equal(back.mixture.variances, mix.variances)

    def test_comments_and_blank_lines_ignored(self):
        text = config_to_text(small_config()) + "\n# trailing comment\n\n"
        cfg = config_from_text(text)
        assert cfg.n_samples == 60

    def test_error_carries_line_number(self):
        with pytest.raises(ValueError, match="cfg.txt:2"):
            config_from_text("mixture.kind = ring\nnot a key value line\n",
                             origin="cfg.txt")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            config_from_text("experiment.n_samples = 5\nexperiment.n_samples = 6\n")

    def test_unknown_key_rejected(self):
        text = config_to_text(small_config()) + "experiment.bogus = 1\n"
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_text(text)

    def test_bad_value_names_key(self):
        text = config_to_text(small_config()).replace(
            "experiment.n_samples = 60", "experiment.n_samples = sixty")
        with pytest.raises(ValueError, match="experiment.n_samples"):
            config_from_text(text)

    def test_missing_mixture(self):
        with pytest.raises(ValueError, match="mixture.kind"):
            config_from_text("experiment.n_samples = 5\n")

    def test_unknown_mixture_kind(self):
        with pytest.raises(ValueError, match="unknown mixture.kind"):
            config_from_text("mixture.kind = banana\n")

    def test_boolean_values(self):
        base = config_to_text(small_config())
        for token, want in (("yes", True), ("off", False), ("1", True)):
            text = base.replace("experiment.record_wall = false",
                                f"experiment.record_wall = {token}")
            assert config_from_text(text).record_wall is want
        with pytest.raises(ValueError, match="boolean"):
            config_from_text(base.replace("experiment.record_wall = false",
                                          "experiment.record_wall = maybe"))

    def test_mixture_file_indirection(self, tmp_path):
        mix_file = tmp_path / "mix.txt"
        mix_file.write_text("mixture.kind = ring\nmixture.components = 4\n"
                            "mixture.dim = 3\nmixture.variance = 0.05\n")
        cfg_file = tmp_path / "run.cfg"
        body = [line for line in config_to_text(small_config()).splitlines()
                if not line.startswith("mixture.")]
        cfg_file.write_text("\n".join(body) + "\nmixture.file = mix.txt\n")
        cfg = load_config(cfg_file)
        assert cfg.mixture.n_components == 4
        assert cfg.mixture.dim == 3

    def test_preset_keys_match_perfbench_workloads(self, monkeypatch):
        # perfbench/workloads.py copies the preset's key = value lines in
        # order; it is read as it stands and nothing is written there.
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        sys.modules.pop("workloads", None)
        try:
            preset = importlib.import_module("workloads").PRESET
        finally:
            sys.modules.pop("workloads", None)
        lines = [line for line in config_to_text(paper_preset()).splitlines()
                 if not line.startswith("#")]
        assert lines == [f"{key} = {value}" for key, value in preset.items()]

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config"):
            load_config(tmp_path / "absent.cfg")


class TestConfigValidation:
    def test_budgets_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            small_config(nfe_budgets=(100, 100))

    def test_budgets_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            small_config(nfe_budgets=())

    def test_positive_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            small_config(n_samples=0)

    def test_schedule_kind_checked(self):
        with pytest.raises(ValueError, match="schedule kind"):
            small_config(schedule_kind="adaptive")

    def test_fixed_schedule_needs_times(self):
        with pytest.raises(ValueError, match="transition times"):
            small_config(fixed_times=())

    def test_methods_nonempty(self):
        with pytest.raises(ValueError, match="experiment.methods must name at least one"):
            small_config(methods=())


@pytest.fixture(scope="module")
def report():
    return run_experiment(small_config())


def _start_failing_ddpm_worker(config, schedule):
    """A pool initializer whose process fails its ddpm unit at 24 steps."""
    bench._start_worker(config, schedule)
    real = bench.ddpm_run

    def failing(oracle, horizon, steps, *args):
        if steps == 24:
            raise RuntimeError(f"planted at {steps} steps")
        return real(oracle, horizon, steps, *args)

    bench.ddpm_run = failing


def _start_dying_ddpm_worker(config, schedule):
    """A pool initializer whose process exits in the middle of a ddpm unit."""
    bench._start_worker(config, schedule)
    bench.ddpm_run = lambda *args: os._exit(3)


class TestRunExperiment:
    def test_grid_shape(self, report):
        cfg = report.config
        assert len(report.rows) == len(cfg.methods) * len(cfg.nfe_budgets)
        expected = [(m, b) for m in cfg.methods for b in cfg.nfe_budgets]
        assert [(r.method, b) for r, (m, b) in zip(report.rows, expected)] == expected
        assert set(report.samples) == set(expected)
        for (m, b), x in report.samples.items():
            assert x.shape == (cfg.n_samples, 2)

    def test_nfe_never_exceeds_budget(self, report):
        cfg = report.config
        slack = 2 ** (cfg.taylor_order - 1) + len(cfg.fixed_times)
        for row, (method, budget) in zip(
                report.rows, [(m, b) for m in cfg.methods for b in cfg.nfe_budgets]):
            assert 0 < row.nfe <= budget
            assert row.nfe >= budget - slack

    def test_marginal_accuracy_floor(self, report):
        assert all(r.marginal_accuracy >= 0.5 - 1e-12 for r in report.rows)

    def test_seed_column_is_master_seed(self, report):
        assert all(r.seed == report.config.master_seed for r in report.rows)

    def test_wall_suppressed_when_not_recorded(self, report):
        assert all(r.wall_ms == 0.0 for r in report.rows)

    def test_wall_recorded_when_enabled(self):
        cfg = small_config(methods=("ddpm",), nfe_budgets=(12,), record_wall=True)
        rep = run_experiment(cfg)
        assert rep.rows[0].wall_ms > 0.0

    def test_deterministic_repeat(self, report):
        again = run_experiment(small_config())
        assert [r.csv_row() for r in again.rows] == [r.csv_row() for r in report.rows]
        for key in report.samples:
            assert np.array_equal(report.samples[key], again.samples[key])

    def test_worker_pool_preserves_bytes(self, report, monkeypatch):
        for workers in ("2", "4"):
            monkeypatch.setenv("RTKBENCH_WORKERS", workers)
            pooled = run_experiment(small_config())
            assert [r.csv_row() for r in pooled.rows] == [r.csv_row() for r in report.rows]
            assert pooled.warnings == report.warnings
            for key in report.samples:
                assert np.array_equal(report.samples[key], pooled.samples[key]), (workers, key)

    @pytest.mark.parametrize("start, message", [
        (_start_failing_ddpm_worker, "^ddpm@24: RuntimeError: planted at 24 steps$"),
        (_start_dying_ddpm_worker, "^ddpm@12: BrokenProcessPool: "),
    ], ids=["raises", "dies"])
    def test_failed_worker_unit_is_named(self, monkeypatch, start, message):
        monkeypatch.setenv("RTKBENCH_WORKERS", "2")
        monkeypatch.setattr(bench, "_start_worker", start)
        with pytest.raises(ValueError, match=message):
            run_experiment(small_config(methods=("ddpm",)))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="nuts"):
            run_experiment(small_config(methods=("mala", "nuts")))

    def test_mode_masses_attached_for_multimodal_targets(self):
        mix = IsotropicGaussianMixture.ring(4, 2, variance=0.05)
        rep = run_experiment(small_config(mixture=mix, methods=("mala",),
                                          nfe_budgets=(40,), n_samples=200))
        row = rep.rows[0]
        assert row.per_mode_mass is not None and len(row.per_mode_mass) == 4
        assert sum(row.per_mode_mass) == pytest.approx(1.0)

    def test_non_finite_chains_are_reported(self, monkeypatch):
        real = bench.ddpm_run

        def diverging(*args, **kwargs):
            state = real(*args, **kwargs)
            state.positions[0, 0] = np.nan
            state.positions[1, 1] = np.inf
            return state

        monkeypatch.setattr(bench, "ddpm_run", diverging)
        rep = run_experiment(small_config(methods=("ddpm",), nfe_budgets=(12,)))
        assert rep.warnings == ["ddpm@12: 2 of 60 chains ended non-finite"]
        assert 0.5 <= rep.rows[0].marginal_accuracy <= 1.0

    def test_huge_finite_chains_count_as_diverged(self, monkeypatch):
        real = bench.ddpm_run

        def diverging(*args, **kwargs):
            state = real(*args, **kwargs)
            state.positions[0] = 1e200  # ||x||^2 overflows to inf
            state.positions[1] = 1e10
            state.positions[2, 0] = np.nan
            return state

        monkeypatch.setattr(bench, "ddpm_run", diverging)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from the metrics
            rep = run_experiment(small_config(methods=("ddpm",), nfe_budgets=(12,)))
        assert rep.warnings == ["ddpm@12: 1 of 60 chains ended non-finite",
                                "ddpm@12: 2 of 60 chains diverged"]

    def test_diverged_chains_are_reported(self):
        # ULA with tau_cap = 50 blows up to ||x||^2 ~ 1e122 but stays finite.
        config = replace(paper_preset(), methods=("ula",), nfe_budgets=(50,), tau_cap=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_experiment(config)
        assert rep.warnings == ["ula@50: 2000 of 2000 chains diverged"]
        assert rep.rows[0].second_moment > DIVERGED_FACTOR * config.mixture.second_moment()


@dataclass(frozen=True)
class CountingOracle(ScoreOracle):
    """ScoreOracle that counts the query rows passed to score()."""

    rows: list = field(default_factory=lambda: [0])

    def score(self, t, x, **kwargs):
        self.rows[0] += math.prod(np.shape(x)[:-1])
        return super().score(t, x, **kwargs)


class TestNfeAudit:
    """Score rows the oracle really evaluates, against the NFE a unit charges."""

    @staticmethod
    def run_unit(config, method, budget, oracle):
        schedule = build_schedule(config)
        rng = np.random.default_rng(3)
        if method == "ddpm":
            return ddpm_run(oracle, config.horizon, budget, config.n_samples, rng)
        specs = build_specs(config, schedule, method, budget)
        return rtk_run(oracle, schedule, specs, config.n_samples, rng)[0]

    @pytest.mark.parametrize("method", METHODS)
    def test_score_rows_match_charged_nfe(self, method):
        mix = IsotropicGaussianMixture.ring(4, 2, variance=0.05)
        config = small_config(mixture=mix, score_error=0.5, error_cell=1e6)
        for budget in config.nfe_budgets:
            oracle = CountingOracle(mix, score_error=0.5, error_cell=1e6)
            state = self.run_unit(config, method, budget, oracle)
            charged = state.nfe
            if method == "mala_es":  # Taylor steps may reuse score(z)
                assert 0 < oracle.rows[0] <= charged
            else:
                assert oracle.rows[0] == charged

    def test_exact_mala_makes_no_log_density_pass(self, monkeypatch):
        calls = []
        real = targets.log_density

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(targets, "log_density", counting)
        config = small_config()
        oracle = ScoreOracle(config.mixture, energy_error=0.0)
        state = self.run_unit(config, "mala", 24, oracle)
        assert state.propose_count > 0
        assert calls == []
        oracle.energy_difference(0.5, state.positions[:2], state.positions[2:4])
        assert len(calls) == 2  # the hook sees the oracle's own passes


class TestEmitCsv:
    def test_layout(self, tmp_path):
        rep = run_experiment(small_config(methods=("ddpm", "mala")))
        out = emit_csv(rep, tmp_path / "results.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == MetricsRow.CSV_HEADER
        assert len(lines) == 1 + len(rep.rows)
        assert out.read_text().endswith("\n")
        assert lines[1].startswith("ddpm,")

    def test_write_failure_names_path(self, tmp_path):
        rep = RunReport(small_config(), [], {})
        target = tmp_path / "missing" / "results.csv"
        with pytest.raises(OSError, match="missing"):
            emit_csv(rep, target)

    def test_per_chain_error_field_matches_golden_bytes(self, tmp_path, monkeypatch):
        """One error cell per chain and a hashed energy-difference sign: the
        per-row direction and sign paths, which the single-cell preset never
        reaches, reproduce tests/data/fine_field_golden.csv byte for byte,
        serially and in a pool of two processes."""
        config = replace(paper_preset(), methods=("ula", "mala", "mala_es"), nfe_budgets=(50,),
                         n_samples=200, reference_size=5000, error_cell=1e-6,
                         energy_error=0.05)
        golden = (Path(__file__).parent / "data" / "fine_field_golden.csv").read_bytes()
        for workers in ("1", "2"):
            monkeypatch.setenv("RTKBENCH_WORKERS", workers)
            got = emit_csv(run_experiment(config), tmp_path / "results.csv").read_bytes()
            assert got == golden, workers


class TestEmitPlot:
    def test_svg_is_well_formed(self, tmp_path):
        rep = run_experiment(small_config(methods=("ddpm", "ula", "mala")))
        out = emit_plot(rep, tmp_path / "accuracy.svg")
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
        assert root.get("width") == "800" and root.get("height") == "500"
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 3
        texts = [t.text for t in root.iter(f"{ns}text")]
        assert any("marginal accuracy" in (t or "") for t in texts)
        assert any("NFE" in (t or "") for t in texts)

    def test_empty_report_still_renders(self, tmp_path):
        rep = RunReport(small_config(), [], {})
        out = emit_plot(rep, tmp_path / "empty.svg")
        ET.fromstring(out.read_text())
