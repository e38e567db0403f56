"""The interface that perfbench's tracer depends on, checked on a small grid.

perfbench/tracer.py wraps rtkbench's layers by module and attribute name and
names each work unit from the specs bench hands to rtk_run.  A rename or a
deletion there would leave the traced benchmark blind without failing it, so
this test installs the tracer over a five-method grid.  It also checks that
every span is opened on the thread that runs the grid: spans opened on
another thread overlap the caller's, and their self times can add up to more
than the traced wall time, which fails perfbench's traced run.  The tracer
is read from perfbench/ as it stands; nothing there is written.
"""

import threading
import time

import rtkbench
from rtkbench.bench import METHODS, ExperimentConfig, allocate_nfe, run_experiment
from rtkbench.targets import IsotropicGaussianMixture


def small_grid():
    return ExperimentConfig(
        mixture=IsotropicGaussianMixture.ring(4, 2, variance=0.05),
        horizon=2.4, methods=METHODS, nfe_budgets=(12, 24), n_samples=40,
        reference_size=500, fixed_times=(0.0, 1.2), score_error=0.5,
        error_cell=1e6, tau_multiplier=5e10, record_wall=False)


def new_tracer(tracer_module, config):
    modules = {m: getattr(rtkbench, m)
               for m in ("targets", "schedule", "samplers", "metrics", "bench")}
    return tracer_module.Tracer(modules, allocate_nfe, config.nfe_budgets,
                                config.taylor_order)


def traced_run(tracer, config, plant=None):
    """run_experiment(config) under the tracer: (ids of the threads that
    opened each span, traced wall seconds).  plant() runs once the tracer
    is installed; the tracer's uninstall undoes what it patched."""
    pushers, push = [], tracer._push
    tracer._push = lambda *args: pushers.append(threading.get_ident()) or push(*args)
    tracer.install()
    try:
        if plant is not None:
            plant()
        start = time.perf_counter()
        run_experiment(config)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return pushers, wall


def check_spans_on_the_caller(tracer, pushers, wall):
    """Every span was opened on this thread, and the span self times add up
    to no more than the traced wall time."""
    assert pushers and set(pushers) == {threading.get_ident()}, (
        f"{sum(p != threading.get_ident() for p in pushers)} of {len(pushers)} spans "
        "were opened on another thread")
    assert sum(tracer.self_seconds().values()) <= wall


def test_tracer_sees_every_layer_and_unit(tracer_module, monkeypatch):
    config = small_grid()
    tracer = new_tracer(tracer_module, config)
    planned = set()
    wrap = tracer._wrap
    monkeypatch.setattr(tracer, "_wrap",
                        lambda fn, name, *args: planned.add(name) or wrap(fn, name, *args))
    pushers, wall = traced_run(tracer, config)
    assert tracer.missing == []
    check_spans_on_the_caller(tracer, pushers, wall)
    # A layer looked up where the tracer cannot patch it records no span; no
    # run path calls the bare log density.
    assert {span[1] for span in tracer.spans} - {"bench.unit"} == planned - {
        "targets.log_density"}
    assert sorted(u["id"] for u in tracer.units) == sorted(
        f"{m}@{b}" for m in METHODS for b in config.nfe_budgets)
    for unit in tracer.units:
        assert 0 < unit["rows"] <= unit["charged"], unit


def test_traced_spans_stay_on_the_calling_thread(tracer_module, monkeypatch):
    # Every sampler loop draws ahead on its helper thread here, the one
    # thread besides the caller's that a serial grid starts.
    monkeypatch.setattr(rtkbench.samplers, "_AHEAD_MIN_SIZE", 0)
    config = small_grid()
    tracer = new_tracer(tracer_module, config)
    pushers, wall = traced_run(tracer, config)
    assert tracer.missing == [] and len(tracer.units) == 10
    check_spans_on_the_caller(tracer, pushers, wall)
