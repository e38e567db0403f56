"""Suite-wide guards and fixtures."""

import importlib
import sys
import threading
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def fail_on_leaked_threads(before, grace=2.0):
    """Fail when a thread started since `before` is still alive after `grace` s.

    A thread that is finishing gets the grace period to end; one that is
    still running after it has leaked from the test.
    """
    deadline = time.monotonic() + grace
    leaked = []
    for thread in threading.enumerate():
        if thread is threading.main_thread() or thread in before:
            continue
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            leaked.append(thread.name)
    if leaked:
        pytest.fail(f"the test left {len(leaked)} thread(s) running: {', '.join(leaked)}")


@pytest.fixture(autouse=True)
def no_leaked_threads():
    before = set(threading.enumerate())
    yield
    fail_on_leaked_threads(before)


@pytest.fixture
def tracer_module(monkeypatch):
    """perfbench/tracer.py, imported as it stands without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("tracer", None)
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)
