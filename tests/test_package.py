"""The package surface: the names `rtkbench` exports, as its modules declare them."""

import subprocess
import sys
from pathlib import Path

import rtkbench

PUBLIC = [
    "ChainState", "ExperimentConfig", "FixedSchedule", "GaussianInit",
    "IsotropicGaussianMixture", "MalaSpec", "MetricsRow", "RtkTarget", "RunReport",
    "ScoreOracle", "Segment", "SegmentTrace", "SortedReference", "UlaSpec", "UldSpec",
    "allocate_nfe", "config_from_text", "config_to_text", "ddpm_run",
    "emit_csv", "emit_plot", "energy_hessian", "eta_for",
    "forward_marginal", "load_config", "log_density", "make_target", "mala_accept_log",
    "mala_init", "mala_run", "marginal_accuracy", "mode_mass", "outer_steps",
    "paper_preset", "rtk_run", "run_experiment", "sample_base",
    "score", "second_moment", "taylor_energy_diff", "ula_run", "ula_step", "uld_init",
    "uld_noise_covariance", "uld_noise_pair", "uld_run", "uld_step",
]


def test_surface_is_pinned():
    assert sorted(rtkbench.__all__) == PUBLIC


def test_each_name_is_declared_once():
    assert len(rtkbench.__all__) == len(set(rtkbench.__all__))


def test_every_name_resolves():
    for name in rtkbench.__all__:
        assert getattr(rtkbench, name) is not None, name


def test_star_import_binds_exactly_the_surface():
    namespace = {}
    exec("from rtkbench import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC


def test_import_loads_no_process_pool():
    # bench imports the pool machinery only when it starts a pool, so that
    # importing the package stays cheap.
    src = str(Path(rtkbench.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import rtkbench; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "[]\n"
