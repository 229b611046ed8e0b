"""The names other code reaches the package by: ``__all__`` and the benchmark's wrapped targets."""

import importlib.util
import sys
from pathlib import Path

import pcoselect

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [name for name in pcoselect.__all__ if not hasattr(pcoselect, name)]
    assert missing == []


def test_benchmark_tracer_wraps_and_restores_every_target(monkeypatch):
    # the traced benchmark wraps library functions and methods by name
    spans = _spans_module(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in tracer._patches}
    finally:
        tracer.uninstall()
    for module, attr, _ in spans.FUNCTION_TARGETS:
        assert (module, attr) in patched
    for _, cls, attr, _ in spans.METHOD_TARGETS:
        assert (cls, attr) in patched
