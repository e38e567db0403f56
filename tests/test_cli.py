"""CLI tests: argument handling, artifact emission, selftest output."""

import hashlib

import numpy as np
import pytest

from rtkbench import bench, cli, targets
from rtkbench.bench import config_from_text, config_to_text, paper_preset
from rtkbench.cli import main
from rtkbench.metrics import MetricsRow

SMALL_CONFIG = """\
mixture.kind = standard_normal
mixture.dim = 2
experiment.horizon = 2.4
experiment.methods = ddpm,mala
experiment.nfe_budgets = 12,24
experiment.n_samples = 50
experiment.reference_size = 1000
experiment.record_wall = false
schedule.kind = fixed
schedule.times = 0,1.2
steps.tau_multiplier = 5e10
"""


class TestRunCommand:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "artifacts"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        csv_text = (out / "results.csv").read_text()
        assert csv_text.splitlines()[0] == MetricsRow.CSV_HEADER
        assert len(csv_text.splitlines()) == 5  # header + 2 methods x 2 budgets
        assert (out / "accuracy.svg").exists()
        assert "wrote" in capsys.readouterr().out

    def test_seed_override_lands_in_rows(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "42"])
        rows = (tmp_path / "o" / "results.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[2] == "42" for r in rows)

    def test_missing_config_reports_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_broken_config_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mixture.kind = ring\nsyntax error here\n")
        code = main(["run", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "exp.cfg:2" in err

    def test_missing_mixture_key_is_named_in_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG.replace("mixture.dim = 2\n", ""))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "mixture.dim" in err
        assert "Traceback" not in err

    def test_zero_nfe_rows_are_left_out_of_the_plot(self, tmp_path, capsys):
        # With two segments, budget 2 goes to MALA's initial gradients: 0 NFE.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG.replace("ddpm,mala", "mala").replace("12,24", "2,24"))
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0
        assert err.splitlines() == [
            "warning: mala@2: realized 0 NFE; left out of the log-scale plot"]
        csv_text = (out / "results.csv").read_text()
        assert [r.split(",")[:2] for r in csv_text.splitlines()[1:]] == [["mala", "0"], ["mala", "24"]]
        svg = (out / "accuracy.svg").read_text()
        assert svg.count("<circle") == 1

    def test_bad_mixture_value_is_named_in_one_line(self, tmp_path, capsys):
        explicit = ("mixture.kind = explicit\nmixture.weights = {}\nmixture.variances = {}\n"
                    "mixture.means.0 = 0.3,-1\nmixture.means.1 = {}")
        cases = [
            ("mixture.kind = standard_normal\nmixture.dim = abc",
             "bad value for mixture.dim: 'abc'"),
            (explicit.format("0.25,0.75", "0.4,0", "2,0.5"),
             "mixture.variances must be positive, got 0.0"),
            (explicit.format("-0.25,1.25", "0.4,1.3", "2,0.5"),
             "mixture.weights must be >= 0, got -0.25"),
            (explicit.format("0.25,0.75", "0.4,1.3", "2"),
             "mixture.means.1 must have 2 entries like mixture.means.0, got 1"),
            (explicit.format("0.5,0.4", "0.4,1.3", "2,0.5"),
             "mixture.weights must sum to 1 within 1e-12, got 0.9"),
            (explicit.format("0.25,0.75", "0.4", "2,0.5"),
             "mixture.variances must have 2 entries like mixture.weights, got 1"),
        ]
        cfg = tmp_path / "exp.cfg"
        for mixture, message in cases:
            cfg.write_text(SMALL_CONFIG.replace(
                "mixture.kind = standard_normal\nmixture.dim = 2", mixture))
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert err.count("\n") == 1
            assert message in err


def _with_line(line: str) -> str:
    """SMALL_CONFIG with line in place of its key's line, or appended."""
    key = line.split(" = ")[0]
    kept = [raw for raw in SMALL_CONFIG.splitlines() if not raw.startswith(key + " ")]
    return "\n".join(kept + [line]) + "\n"


class TestBadExperimentValues:
    def run_one_line_error(self, tmp_path, capsys, text: str) -> str:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()
        return err

    def test_horizon_at_the_last_schedule_time(self, tmp_path, capsys):
        # Used to be a ZeroDivisionError traceback from segment_curvature.
        err = self.run_one_line_error(tmp_path, capsys, _with_line("experiment.horizon = 1.2"))
        assert "experiment.horizon = 1.2 must exceed the last schedule.times entry 1.2" in err

    def test_nan_horizon(self, tmp_path, capsys):
        err = self.run_one_line_error(tmp_path, capsys, _with_line("experiment.horizon = nan"))
        assert "experiment.horizon must be finite and positive" in err

    def test_zero_bins_per_dim(self, tmp_path, capsys):
        err = self.run_one_line_error(tmp_path, capsys, _with_line("experiment.bins_per_dim = 0"))
        assert "experiment.bins_per_dim must be >= 1, got 0" in err

    def test_zero_reference_size(self, tmp_path, capsys):
        err = self.run_one_line_error(tmp_path, capsys, _with_line("experiment.reference_size = 0"))
        assert "experiment.reference_size must be >= 1, got 0" in err

    def test_negative_tau_cap(self, tmp_path, capsys):
        err = self.run_one_line_error(tmp_path, capsys, _with_line("steps.tau_cap = -1"))
        assert "steps.tau_cap must be positive, got -1" in err

    @pytest.mark.parametrize("line, message", [
        ("steps.tau_multiplier = 0", "steps.tau_multiplier must be positive, got 0"),
        ("steps.uld_tau_scale = -1", "steps.uld_tau_scale must be positive, got -1"),
        ("steps.uld_gamma_scale = 0", "steps.uld_gamma_scale must be positive, got 0"),
        ("oracle.error_cell = 0", "oracle.error_cell must be positive, got 0"),
        ("oracle.score_error = -1", "oracle.score_error must be >= 0, got -1"),
        ("oracle.energy_error = nan", "oracle.energy_error must be >= 0, got nan"),
        ("schedule.times = 1.2,0", "schedule.times must be strictly ascending, got (1.2, 0.0)"),
        ("schedule.times = -1,0", "schedule.times must be >= 0, got (-1.0, 0.0)"),
        ("steps.taylor_order = 0", "steps.taylor_order must be >= 1, got 0"),
        ("steps.taylor_dt = 0", "steps.taylor_dt must lie in (0, 1], got 0"),
        ("steps.taylor_dt = 4", "steps.taylor_dt must lie in (0, 1], got 4"),
        ("schedule.eps = 0", "schedule.eps must lie in (0, 1), got 0"),
        ("experiment.n_samples = 0", "experiment.n_samples must be >= 1, got 0"),
        ("experiment.nfe_budgets = 5,3",
         "experiment.nfe_budgets must be strictly increasing, got (5, 3)"),
        ("experiment.nfe_budgets = 0,3", "experiment.nfe_budgets must be positive, got (0, 3)"),
        ("experiment.methods = foo", "experiment.methods: unknown method 'foo'"),
        ("experiment.methods = ,", "experiment.methods must name at least one method"),
        ("schedule.kind = bogus", "schedule.kind: unknown schedule kind 'bogus'"),
        ("schedule.max_outer_steps = 0", "schedule.max_outer_steps must be >= 1, got 0"),
        ("experiment.master_seed = -1", "experiment.master_seed must be >= 0, got -1"),
        ("experiment.metric_seed = -1", "experiment.metric_seed must be >= 0, got -1"),
        ("oracle.score_error = inf", "oracle.score_error must be finite, got inf"),
        ("steps.uld_tau_scale = inf", "steps.uld_tau_scale must be finite, got inf"),
        ("oracle.energy_error = inf", "oracle.energy_error must be finite, got inf"),
        ("oracle.error_seed = 99999999999999999999",
         "oracle.error_seed must fit in a signed 64-bit integer, got 99999999999999999999"),
        ("experiment.methods = mala,mala", "experiment.methods: duplicate method 'mala'"),
    ])
    def test_bad_value_is_named_in_one_line(self, tmp_path, capsys, line, message):
        err = self.run_one_line_error(tmp_path, capsys, _with_line(line))
        assert message in err

    @pytest.mark.parametrize("line, message", [
        ("mixture.components = 0", "mixture.components must be >= 1, got 0"),
        ("mixture.dim = 1", "mixture.dim must be >= 2, got 1"),
        ("mixture.variance = 0", "mixture.variance must be positive, got 0.0"),
        ("mixture.radius = nan", "mixture.radius must be >= 0, got nan"),
    ])
    def test_bad_ring_value_is_named_in_one_line(self, tmp_path, capsys, line, message):
        text = _with_line(line).replace("mixture.kind = standard_normal", "mixture.kind = ring")
        err = self.run_one_line_error(tmp_path, capsys, text)
        assert message in err

    def test_theory_max_outer_steps(self, tmp_path, capsys):
        text = _with_line("schedule.max_outer_steps = 0").replace(
            "schedule.kind = fixed", "schedule.kind = theory")
        err = self.run_one_line_error(tmp_path, capsys, text)
        assert "schedule.max_outer_steps must be >= 1, got 0" in err

    @pytest.mark.parametrize("mixture, mix_file, message", [
        ("mixture.kind = ring\nmixture.varaince = 0.5", None,
         "exp.cfg: mixture.kind = ring does not read mixture.varaince"),
        ("mixture.kind = standard_normal\nmixture.dim = 2\nmixture.radius = 4", None,
         "exp.cfg: mixture.kind = standard_normal does not read mixture.radius"),
        ("mixture.kind = explicit\nmixture.weights = 0.5,0.5\nmixture.variances = 1,1\n"
         "mixture.means.0 = 0,0\nmixture.means.1 = 1,1\nmixture.means.2 = 2,2", None,
         "exp.cfg: mixture.kind = explicit does not read mixture.means.2"),
        ("mixture.file = mix.txt\nmixture.kind = ring", "mixture.kind = standard_normal\n",
         "exp.cfg: mixture.kind next to mixture.file is not read"),
        ("mixture.file = mix.txt", "mixture.kind = ring\nmixture.dims = 3\n",
         "mix.txt: mixture.kind = ring does not read mixture.dims"),
        ("mixture.file = mix.txt", "mixture.kind = ring\nexperiment.n_samples = 5\n",
         "mix.txt: mixture.kind = ring does not read experiment.n_samples"),
    ], ids=["ring-typo", "standard-normal-radius", "extra-mean", "next-to-file",
            "file-typo", "file-non-mixture-key"])
    def test_unread_mixture_key_is_named_in_one_line(self, tmp_path, capsys, mixture,
                                                     mix_file, message):
        if mix_file is not None:
            (tmp_path / "mix.txt").write_text(mix_file)
        text = SMALL_CONFIG.replace("mixture.kind = standard_normal\nmixture.dim = 2", mixture)
        err = self.run_one_line_error(tmp_path, capsys, text)
        assert message in err

    @pytest.mark.parametrize("links", [["a.txt", "a.txt"], ["a.txt", "b.txt", "a.txt"]],
                             ids=["self", "two-files"])
    def test_mixture_file_cycle_is_named_in_one_line(self, tmp_path, capsys, links):
        for name, target in zip(links, links[1:]):
            (tmp_path / name).write_text(f"mixture.file = {target}\n")
        text = SMALL_CONFIG.replace("mixture.kind = standard_normal\nmixture.dim = 2",
                                    f"mixture.file = {links[0]}")
        err = self.run_one_line_error(tmp_path, capsys, text)
        cycle = " -> ".join(str(tmp_path.resolve() / name) for name in links)
        assert err.endswith(f"mixture.file cycle: {cycle}\n")

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: experiment.master_seed must be >= 0, got -1\n"

    def test_budget_below_segment_count_fails_before_any_unit(self, tmp_path, capsys,
                                                               monkeypatch):
        calls = []
        real = bench.ddpm_run

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "ddpm_run", counting)
        text = _with_line("schedule.times = 0,0.4,0.8,1.2,1.6").replace(
            "experiment.nfe_budgets = 12,24", "experiment.nfe_budgets = 3,4")
        err = self.run_one_line_error(tmp_path, capsys, text)
        assert "experiment.nfe_budgets = 3 cannot cover the 5 schedule segments" in err
        assert calls == []

    @pytest.mark.parametrize("text, message", [
        (_with_line("mixture.variance = 1e-200")
         .replace("mixture.kind = standard_normal", "mixture.kind = ring")
         .replace("schedule.kind = fixed", "schedule.kind = theory"),
         "schedule.kind = theory: no segment count for L = 1 / min mixture variance = 1e+200"),
        (_with_line("schedule.eps = 1e-200").replace("schedule.kind = fixed", "schedule.kind = theory"),
         "schedule.eps = 1e-200 (float division by zero)"),
        (_with_line("experiment.horizon = 1e-20").replace("schedule.times = 0,1.2", "schedule.times = 0"),
         "schedule.times and experiment.horizon give the segment from t = 0 a length of 1e-20"),
        (_with_line("schedule.times = 0,1e-20"),
         "schedule.times and experiment.horizon give the segment from t = 0 a length of 1e-20"),
    ], ids=["theory-tiny-variance", "theory-tiny-eps", "fixed-tiny-horizon", "fixed-tiny-segment"])
    def test_degenerate_schedule_fails_before_any_unit(self, tmp_path, capsys, monkeypatch,
                                                       text, message):
        calls = []
        monkeypatch.setattr(bench, "ddpm_run", lambda *args, **kwargs: calls.append(1))
        err = self.run_one_line_error(tmp_path, capsys, text)
        assert message in err
        assert calls == []

    def test_non_finite_schedule_time(self, tmp_path, capsys):
        # A theory schedule never reads schedule.times, but its entries are checked.
        text = _with_line("schedule.kind = theory").replace(
            "schedule.times = 0,1.2", "schedule.times = 0,inf")
        err = self.run_one_line_error(tmp_path, capsys, text)
        assert err == "error: schedule.times must be finite, got inf\n"

    def test_failed_unit_is_named_in_one_line(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise FloatingPointError("overflow in a planted step")

        monkeypatch.setattr(bench, "ddpm_run", failing)
        err = self.run_one_line_error(tmp_path, capsys, SMALL_CONFIG)
        assert err == "error: ddpm@12: FloatingPointError: overflow in a planted step\n"

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_worker_count(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("RTKBENCH_WORKERS", value)
        err = self.run_one_line_error(tmp_path, capsys, SMALL_CONFIG)
        assert f"RTKBENCH_WORKERS must be a positive integer, got '{value}'" in err


class TestPresetCommand:
    def test_written_file_reproduces_the_preset(self, tmp_path):
        path = tmp_path / "mog.cfg"
        assert main(["preset", "mog-paper", "--out", str(path)]) == 0
        loaded = config_from_text(path.read_text())
        assert config_to_text(loaded) == config_to_text(paper_preset())

    def test_stdout_when_no_out(self, capsys):
        assert main(["preset", "mog-paper"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# rtkbench experiment configuration")
        assert "mixture.kind = ring" in out

    def test_unknown_preset_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "unknown-name"])
        assert exc.value.code == 2


def _zero_ki_of_first_draw(ki):
    """ki with the entry of the error-field check's first draw set to 0.

    That draw (payload 0, d = 2) is a fast draw; with ki = 0 it turns into a
    wedge draw, which reads one more PCG64 word.
    """
    digest = hashlib.blake2b(bytes(8), digest_size=16).digest()
    layer = int(np.random.PCG64(int.from_bytes(digest, "little")).random_raw()) & 0xFF
    ki = ki.copy()
    ki[layer] = 0
    return ki


# Case -> (owner, attribute, defect built from the real value, the check that
# fails, start of its failure message).
PLANTED_DEFECTS = {
    "detailed-balance": (cli, "mala_accept_log",
                         lambda real: lambda *args, **kw: real(*args, **kw) + 1e-6,
                         "detailed-balance", "detailed balance violated"),
    "uld-covariance": (cli, "uld_noise_covariance",
                       lambda real: lambda g, t: (real(g, t)[0] + 1e-6, *real(g, t)[1:]),
                       "uld-covariance", "ULD covariance off by 1.000e-06"),
    "taylor-estimator": (cli, "taylor_energy_diff",
                         lambda real: lambda *args, **kw: (real(*args, **kw)[0] + 1e-6,
                                                          real(*args, **kw)[1]),
                         "taylor-estimator", "taylor estimator error"),
    "error-field": (targets, "_SS_HASH_A",  # hash_a's constants under a wrong multiplier
                    lambda real: targets._hash_constants(targets._SS_INIT_A, targets._SS_MULT_A ^ 1,
                                                         len(real) - 1),
                    "error-field", "SeedSequence(1) state differs from numpy's"),
    "ziggurat-table": (targets, "_ZIG_KI", _zero_ki_of_first_draw, "error-field",
                       "error-field direction for payload 0000000000000000 (d=2)"),
    "pcg64-multiplier": (targets, "_PCG_MULT_LIMBS",
                         lambda real: (real[0], real[1] ^ np.uint64(1 << 40)),
                         "error-field", "PCG64 state after advance(1) differs"),
    "row-direction": (targets, "_row_direction",
                      lambda real: lambda digest, dim: real(digest, dim) * (1 + 2**-52),
                      "error-field", "error-field direction for payload 0000000000000000 (d=2)"),
}


class TestSelftest:
    def test_all_checks_report_ok(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok - ") == 6
        assert "ok - error-field" in out
        assert "FAIL" not in out
        assert "all 6 checks passed" in out

    @pytest.mark.parametrize("case", list(PLANTED_DEFECTS))
    def test_failed_check_is_reported(self, monkeypatch, capsys, case):
        owner, name, plant, check, message = PLANTED_DEFECTS[case]
        monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith(f"FAIL - {check}: {message}")
        assert out.count("ok - ") == 5
        assert "1 of 6 checks failed" in out


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
