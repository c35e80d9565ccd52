"""The benchmark's tracer (bench/tracing.py) wraps library functions where
the calling modules bind them.  A renamed or removed binding would make its
install fail, so every name it patches must still resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_binding_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)   # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{name}" for mod, names in tracing.WRAPPED.items() for name in names
               if not hasattr(importlib.import_module(f"rigidkit.{mod}"), name)]
    assert not missing
    assert all(name in tracing.SPAN_NAMES for names in tracing.WRAPPED.values() for name in names)
    assert callable(importlib.import_module("rigidkit.linear").KernelDecomposition.solve_min_norm)
