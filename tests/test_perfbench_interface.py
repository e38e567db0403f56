"""The interface that perfbench's tracer depends on, checked on a small grid.

perfbench/tracer.py wraps rtkbench's layers by module and attribute name and
names each work unit from the specs bench hands to rtk_run.  A rename or a
deletion there would leave the traced benchmark blind without failing it, so
this test installs the tracer over a five-method grid.  The tracer is read
from perfbench/ as it stands; nothing there is written.
"""

import importlib
import sys
from pathlib import Path

import pytest

import rtkbench
from rtkbench.bench import METHODS, ExperimentConfig, allocate_nfe, run_experiment
from rtkbench.targets import IsotropicGaussianMixture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("tracer", None)
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)


def test_tracer_sees_every_layer_and_unit(tracer_module):
    config = ExperimentConfig(
        mixture=IsotropicGaussianMixture.ring(4, 2, variance=0.05),
        horizon=2.4, methods=METHODS, nfe_budgets=(12, 24), n_samples=40,
        reference_size=500, fixed_times=(0.0, 1.2), score_error=0.5,
        error_cell=1e6, tau_multiplier=5e10, record_wall=False)
    modules = {m: getattr(rtkbench, m)
               for m in ("targets", "schedule", "samplers", "metrics", "bench")}
    tracer = tracer_module.Tracer(modules, allocate_nfe, config.nfe_budgets,
                                  config.taylor_order)
    tracer.install()
    try:
        run_experiment(config)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert sorted(u["id"] for u in tracer.units) == sorted(
        f"{m}@{b}" for m in METHODS for b in config.nfe_budgets)
    for unit in tracer.units:
        assert 0 < unit["rows"] <= unit["charged"], unit
