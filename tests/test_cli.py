"""CLI tests: argument handling, artifact emission, selftest output."""

import pytest

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

    def test_bad_mixture_value_is_named_in_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG.replace("mixture.dim = 2", "mixture.dim = abc"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "bad value for mixture.dim: 'abc'" in err


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


class TestSelftest:
    def test_all_checks_report_ok(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok - ") == 6
        assert "ok - error-field" in out
        assert "FAIL" not in out
        assert "all 6 checks passed" in out


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
