"""Negative controls: each check below must fail once a defect is planted."""

import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import conftest
import rtkbench
import test_bench
import test_metrics
import test_package
import test_perfbench_interface
import test_targets
from rtkbench import bench, metrics, targets

ROOT = Path(__file__).resolve().parents[1]


def test_an_extra_public_name_fails_the_surface_check(monkeypatch):
    monkeypatch.setattr(rtkbench, "__all__", [*rtkbench.__all__, "extra_name"])
    with pytest.raises(AssertionError):
        test_package.test_surface_is_pinned()


def test_a_changed_preset_value_fails_the_perfbench_key_check(monkeypatch):
    real = bench.paper_preset
    monkeypatch.setattr(bench, "paper_preset", lambda: replace(real(), n_samples=1999))
    with pytest.raises(AssertionError):
        test_bench.TestConfigText().test_preset_keys_match_perfbench_workloads(monkeypatch)


def test_a_runtime_warning_fails_the_suite(tmp_path):
    # The suite's own pytest configuration, on a test whose only fault is
    # a RuntimeWarning.
    (tmp_path / "test_warns.py").write_text(
        "import numpy as np\n\n\ndef test_log_of_zero():\n    np.log(np.zeros(1))\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "RuntimeWarning: divide by zero" in run.stdout


def test_a_leaked_thread_fails_the_thread_guard():
    before = set(threading.enumerate())
    release = threading.Event()
    leaked = threading.Thread(target=release.wait, name="planted-leak")
    leaked.start()
    try:
        with pytest.raises(pytest.fail.Exception, match="1 thread.*planted-leak"):
            conftest.fail_on_leaked_threads(before, grace=0.05)
    finally:
        release.set()
        leaked.join(5.0)
    assert not leaked.is_alive()
    conftest.fail_on_leaked_threads(before, grace=0.0)


def test_a_sort_at_construction_fails_the_first_call_guard(monkeypatch):
    build = metrics.SortedReference.__init__

    def sort_early(self, samples):
        build(self, samples)
        self._data.sort(axis=0)

    monkeypatch.setattr(metrics.SortedReference, "__init__", sort_early)
    with pytest.raises(AssertionError):
        test_metrics.check_sorted_on_first_call()


def test_an_equal_cells_branch_fails_the_cell_zero_guard(monkeypatch):
    batch_path = targets.ScoreOracle._score_perturbation

    def equal_cells_first(self, t, x):
        keys = self._cell_keys(self._cells(x))
        if len(set(keys)) != 1:
            return batch_path(self, t, x)
        return self.score_error * targets._cell_direction(self._key_prefix(t) + keys[0], self.dim)

    monkeypatch.setattr(targets.ScoreOracle, "_score_perturbation", equal_cells_first)
    with pytest.raises(AssertionError, match="a batch outside cell 0 reached the cell cache"):
        test_targets.TestHashedDirections().test_only_batches_at_cell_zero_reach_the_cell_cache(
            monkeypatch)


def test_a_fallback_one_step_on_fails_the_batch_identity(monkeypatch):
    # numpy starts each row it draws from the state one LCG step past the
    # row's seeded state.
    real = targets._generator_normals

    def one_step_on(limbs, rows, dim):
        hi, lo = targets._pcg64_ahead(*(limb[rows] for limb in limbs), 1)
        return real((hi[0], lo[0], limbs[2][rows], limbs[3][rows]), np.arange(len(rows)), dim)

    monkeypatch.setattr(targets, "_generator_normals", one_step_on)
    with pytest.raises(AssertionError, match="Arrays are not equal"):
        test_targets.TestHashedDirections().test_large_batch_takes_every_ziggurat_lane(10)


def test_a_template_with_a_stray_byte_fails_the_digest_identity(monkeypatch):
    stray = targets._BLAKE2B[16].copy()
    stray.update(b"\x00")
    monkeypatch.setitem(targets._BLAKE2B, 16, stray)
    with pytest.raises(AssertionError):
        test_targets.check_prefixed_digest(16, 0)


def test_a_traced_layer_on_a_second_thread_fails_the_span_guard(tracer_module):
    config = test_perfbench_interface.small_grid()
    tracer = test_perfbench_interface.new_tracer(tracer_module, config)

    def on_a_second_thread():
        # The tracer's uninstall puts back the original ula_step.
        traced = rtkbench.samplers.ula_step

        def ula_step(*args, **kwargs):
            with ThreadPoolExecutor(1) as pool:
                return pool.submit(traced, *args, **kwargs).result()

        rtkbench.samplers.ula_step = ula_step

    pushers, wall = test_perfbench_interface.traced_run(tracer, config, on_a_second_thread)
    with pytest.raises(AssertionError, match="spans were opened on another thread"):
        test_perfbench_interface.check_spans_on_the_caller(tracer, pushers, wall)
