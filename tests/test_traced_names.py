"""The benchmark's tracer wraps package functions by name; every name must resolve.

``bench/spans.py`` lists, in ``TRACED``, the functions whose calls make up
the per-layer metrics of ``bench/run.py --trace 1``. A rename in the package
would break that run, so this test resolves every entry here.
"""

import importlib
import sys
from pathlib import Path

import pytest

import votefuse.cli  # noqa: F401  (loads every votefuse module the tracer patches)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    yield importlib.import_module("spans")
    for name in set(sys.modules) - before:
        if not name.startswith("votefuse"):
            del sys.modules[name]


def test_every_traced_function_exists(spans):
    assert spans.TRACED
    for spec in spans.TRACED:
        home = importlib.import_module(f"votefuse.{spec.module}")
        owner_name, _, attr = spec.qualname.rpartition(".")
        owner = getattr(home, owner_name) if owner_name else home
        target = vars(owner).get(attr)
        assert callable(target), f"{spec.name} is not a function of votefuse.{spec.module}"


def test_the_tracer_installs_and_restores(spans):
    before = votefuse.cli.condorcet_efficiency
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert votefuse.cli.condorcet_efficiency is not before
    finally:
        tracer.uninstall()
    assert votefuse.cli.condorcet_efficiency is before
