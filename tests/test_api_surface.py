"""The library keeps only what its own modules, the CLI and the benchmark
call.  Reference checks that only tests read live in tests/oracles.py, and
thin views of a library call are gone in favour of that call; none of these
names may resolve on rigidkit, on any of its modules or on their classes."""

import importlib
import pkgutil

import rigidkit

TEST_ONLY_NAMES = (
    "_a4_eval", "jet_along", "classify_flex", "_edge_m_jets", "principal_angles",
    "kernel_of_hessian_equals_K", "measure", "MeasurementVector", "first_order_rigid",
    "project_K",
)


def _namespaces():
    yield rigidkit
    for info in pkgutil.iter_modules(rigidkit.__path__):
        mod = importlib.import_module(f"rigidkit.{info.name}")
        yield mod
        yield from (obj for obj in vars(mod).values()
                    if isinstance(obj, type) and obj.__module__ == mod.__name__)


def test_test_only_names_stay_out_of_the_library():
    found = [f"{ns.__name__}.{name}" for ns in _namespaces() for name in TEST_ONLY_NAMES
             if hasattr(ns, name)]
    assert not found
    assert not set(TEST_ONLY_NAMES) & set(rigidkit.__all__)
