"""Seeded framework generators for the benchmark, each with its truth label.

Three families, all built from a seed so the same seed gives the same
frameworks:

* ``henneberg_grow``: a corpus framework grown by Henneberg-1 vertex
  additions.  Each new vertex goes to a random point of the slightly
  enlarged bounding box and is joined by ``d`` bars to nearby vertices whose
  bar directions are well conditioned, so its velocity is fixed by theirs
  and the rigidity order stays the base framework's order.
* ``strip_minus_edge``: a generic triangulated strip (isostatic in the
  plane) with one interior diagonal removed.  That leaves a one-degree-of-
  freedom mechanism: dim K = 1 and a finite flex, so the ladder runs to the
  top and reports ``flex-found``.
* ``strip_with_midpoints``: a generic triangulated strip plus ``m`` vertices,
  each at the midpoint of a distinct rail edge and joined by two collinear
  bars to that edge's ends.  Each midpoint adds one first-order flex
  (perpendicular to its edge) that stretches the bars at second order, so
  dim K = m and the rigidity order is 2, decided by the order-4 energy test.

Grown frameworks list the base vertices first, so they pin as the base does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from rigidkit import EXPECTED_ORDERS, Framework, load_corpus

MIN_DIRECTION_DET = 0.5   # |det| of a new vertex's unit bar directions
NEAREST_ANCHORS = 4       # anchors are chosen among this many nearest vertices
# Seeded jitter of strip vertices, in units of the bar spacing.  It keeps the
# geometry generic; it is small because the order-4 test's sphere search
# is heavy-tailed in cost over rougher strips (up to 8x more evaluations at
# 0.15), while near-regular strips keep it within about 20%.
JITTER = 0.02


@dataclass(frozen=True)
class Truth:
    """Expected outcome: ``verdict`` and ``order`` as ``rigidity_order``
    reports them, ``method`` the test that decides it, ``dim_K`` the
    first-order flex dimension."""

    verdict: str
    order: int | None
    method: str
    dim_K: int


@dataclass(frozen=True)
class Generated:
    name: str
    framework: Framework
    truth: Truth


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _anchors(pts: np.ndarray, q: np.ndarray, near: np.ndarray, d: int) -> list[int] | None:
    """First ``d`` of the ``near`` vertices (nearest first, in combination
    order) whose unit bar directions from ``q`` have |det| at least
    MIN_DIRECTION_DET, or None."""
    for combo in combinations(near, d):
        dirs = _unit_rows(pts[list(combo)] - q)
        if abs(np.linalg.det(dirs)) >= MIN_DIRECTION_DET:
            return [int(a) for a in combo]
    return None


def henneberg_grow(base_name: str, n_vertices: int, rng: np.random.Generator) -> Generated:
    """Grow corpus framework ``base_name`` to ``n_vertices`` vertices."""
    base = load_corpus(base_name)
    d = base.dimension
    pts = [np.asarray(p, dtype=float) for p in base.vertices]
    edges = list(base.edges)
    scale = float(np.median(base.edge_lengths()))
    while len(pts) < n_vertices:
        arr = np.asarray(pts)
        lo, hi = arr.min(axis=0), arr.max(axis=0)
        # grow outward a little so the cloud stays roughly uniform in density
        q = lo - 0.5 * scale + rng.random(d) * (hi - lo + scale)
        dist = np.linalg.norm(arr - q, axis=1)
        near = np.argsort(dist)[:NEAREST_ANCHORS]
        if dist[near[0]] < 0.3 * scale:
            continue
        anchors = _anchors(arr, q, near, d)
        if anchors is None:
            continue
        edges.extend((a, len(pts)) for a in anchors)
        pts.append(q)
    order = EXPECTED_ORDERS[base_name]
    fw = Framework(d, np.asarray(pts), edges)
    return Generated(
        f"{base_name}_{n_vertices}", fw, Truth("order", order, "ladder", 1)
    )


def _strip_points(n_vertices: int, rng: np.random.Generator) -> np.ndarray:
    """Two rows of a strip, listed column by column (top, bottom, top, ...),
    with a seeded jitter that keeps the geometry generic."""
    cols = n_vertices // 2
    x = np.repeat(np.arange(cols, dtype=float), 2)
    y = np.tile([1.0, 0.0], cols)
    x[0::2] += 0.5
    pts = np.column_stack([x, y])
    return pts + rng.uniform(-JITTER, JITTER, size=pts.shape)


def _strip_edges(n_vertices: int) -> list[tuple[int, int]]:
    """Triangulated strip on vertices 0..n-1 (2n - 3 bars): consecutive
    vertices in listing order form the zig-zag diagonals, and vertices two
    apart form the two rails."""
    cols = n_vertices // 2
    n = 2 * cols
    return [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]


def strip_minus_edge(n_vertices: int, rng: np.random.Generator) -> Generated:
    """Triangulated strip with one interior zig-zag diagonal removed."""
    pts = _strip_points(n_vertices, rng)
    n = pts.shape[0]
    edges = _strip_edges(n)
    drop = int(rng.integers(n // 4, 3 * n // 4))
    edges.remove((drop, drop + 1))
    fw = Framework(2, pts, edges)
    return Generated(f"strip_{n}", fw, Truth("flex-found", None, "ladder", 1))


def strip_with_midpoints(n_vertices: int, m: int, rng: np.random.Generator) -> Generated:
    """Rigid triangulated strip plus ``m`` collinear midpoint vertices on
    rail edges spread evenly along the strip.  Their places are fixed, like
    the jitter, to keep the order-4 test's cost steady; the seed moves the
    vertices."""
    pts = _strip_points(n_vertices, rng)
    n = pts.shape[0]
    edges = _strip_edges(n)
    rails = [(i, i + 2) for i in range(n - 2)]
    mids = []
    for k in range(m):
        u, w = rails[(2 * k + 1) * len(rails) // (2 * m)]
        mids.append(0.5 * (pts[u] + pts[w]))
        edges.extend([(u, n + k), (w, n + k)])
    fw = Framework(2, np.vstack([pts, np.asarray(mids)]), edges)
    return Generated(
        f"midstrip_{n}_m{m}", fw, Truth("order", 2, "order4-energy", m)
    )
