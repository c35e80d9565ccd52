"""In-memory span recorder that wraps rigidkit's public functions from the
outside.

Each function is wrapped where the calling module binds it (``ladder``
calls ``kernel_decomposition`` through its own module global, so that is the
name that gets replaced), which makes every call through the library show up
as one span.  Spans hold name, start, end, parent and the binding module;
they stay in memory until the run writes them out.  ``Jet`` construction is
counted, not spanned: there are hundreds of thousands per pass.

Nothing here changes what the library computes; ``uninstall`` restores every
replaced attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass

# span name of each wrapped function; the layer is the part before the dot
SPAN_NAMES = {
    "load_framework": "framework.load",
    "pin_with_permutation": "framework.pin",
    "rigidity_matrix": "linear.rigidity_matrix",
    "kernel_decomposition": "linear.kernel_decomposition",
    "rigidity_order": "ladder.rigidity_order",
    "solve_ladder": "ladder.solve_ladder",
    "flex_rhs": "ladder.flex_rhs",
    "solve_min_norm": "ladder.solve_min_norm",
    "energy_along_trajectory": "energy.energy_along_trajectory",
    "gradient_along_trajectory": "energy.gradient_along_trajectory",
    "energy_value_grad_hess": "energy.energy_value_grad_hess",
    "second_order_rigidity_test": "critpoint.second_order_rigidity_test",
    "order2k_family_test": "critpoint.order2k_family_test",
    "fit_growth_order": "growth.fit_growth_order",
    "min_energy_on_sphere_with_arg": "growth.min_energy_on_sphere",
}

# module -> the names it binds and calls.  The benchmark's cross-check and
# growth stages call through ``cli``'s bindings too, as the ``critpoint``,
# ``energy`` and ``growth`` subcommands do.  ``min_energy_on_sphere_with_arg``
# is what ``fit_growth_order`` calls once per radius.
WRAPPED = {
    "cli": ("load_framework", "pin_with_permutation", "rigidity_matrix",
            "kernel_decomposition", "rigidity_order", "solve_ladder",
            "order2k_family_test", "energy_along_trajectory", "fit_growth_order"),
    "ladder": ("rigidity_matrix", "kernel_decomposition", "solve_ladder", "flex_rhs"),
    "critpoint": ("rigidity_matrix", "kernel_decomposition", "energy_along_trajectory",
                  "gradient_along_trajectory", "energy_value_grad_hess",
                  "second_order_rigidity_test"),
    "growth": ("rigidity_matrix", "kernel_decomposition", "min_energy_on_sphere_with_arg"),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    caller: str = ""          # module whose binding was called
    info: dict | None = None  # result sizes: svd bytes, ladder levels


class Tracer:
    """Single-threaded span stack plus counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, caller: str = "") -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), caller=caller)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name: str, caller: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, caller)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            span.info = _result_info(name, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for mod_name, names in WRAPPED.items():
            mod = importlib.import_module(f"rigidkit.{mod_name}")
            for attr in names:
                self._patch(mod, attr, self._wrapper(getattr(mod, attr), SPAN_NAMES[attr], mod_name))
        linear = importlib.import_module("rigidkit.linear")
        kd_cls = linear.KernelDecomposition
        self._patch(kd_cls, "solve_min_norm",
                    self._wrapper(kd_cls.solve_min_norm, SPAN_NAMES["solve_min_norm"], "linear"))
        jet_cls = importlib.import_module("rigidkit.jets").Jet
        jet_init = jet_cls.__init__
        counters = self.counters

        def counted_init(obj, *args, **kwargs):
            counters["jets.jet_objects"] += 1
            jet_init(obj, *args, **kwargs)

        self._patch(jet_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path, t0: float) -> None:
        """One JSON object per span; times in seconds since ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {"id": s.id, "parent": s.parent, "name": s.name,
                       "start": s.start - t0, "end": s.end - t0, "caller": s.caller}
                if s.info:
                    row.update(s.info)
                fh.write(json.dumps(row) + "\n")


def _result_info(name: str, result) -> dict | None:
    if name == "linear.kernel_decomposition":
        factors = (getattr(result, f, None) for f in ("_U", "singular_values", "_Vt"))
        return {"svd_bytes": sum(int(getattr(a, "nbytes", 0)) for a in factors)}
    if name == "ladder.solve_ladder":
        return {"levels": len(result.residuals)}
    return None


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span of one tracer: its duration minus the time its
    direct children cover (children run inside their parent, one thread)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]
