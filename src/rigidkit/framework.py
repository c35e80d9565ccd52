"""Bar-and-joint frameworks and their congruence-normal (pinned)
coordinates.

A framework is a graph together with a point configuration in d dimensions;
edges are rigid bars.  Pinning removes the rigid-motion degrees of freedom by
translating vertex 1 to the origin and rotating so vertex i lies in the span
of the first i-1 coordinate axes, for i up to one past the affine span
dimension.  All downstream rigidity analysis operates on the free pinned
coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DegenerateLeadingVertices, FrameworkValidationError

DEFAULT_RANK_TOL = 1e-9


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Framework:
    """A graph with a point configuration.

    Vertices are indexed from 0 internally; the JSON file format is 1-based.
    labels, if given, is a list or tuple of strings, one per vertex.
    Edges are canonicalized to sorted pairs in lexicographic order, so
    per-edge arrays such as edge_lengths() are reproducible bit-for-bit
    across runs.
    """

    dimension: int
    vertices: np.ndarray                      # (n, dimension)
    edges: tuple[tuple[int, int], ...]        # canonical 0-based pairs
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        verts = _as_readonly(self.vertices)
        if verts.ndim != 2 or verts.shape[1] != self.dimension:
            raise FrameworkValidationError(
                f"vertices must be (n, {self.dimension}), got {verts.shape}"
            )
        if self.dimension < 1:
            raise FrameworkValidationError("dimension must be a positive integer")
        n = verts.shape[0]
        bad = np.flatnonzero(~np.all(np.isfinite(verts), axis=1))
        if bad.size:
            raise FrameworkValidationError(
                f"vertex {int(bad[0])} has a non-finite coordinate"
            )
        canon = []
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise FrameworkValidationError(f"edge ({i},{j}) connects a vertex to itself")
            if not (0 <= i < n and 0 <= j < n):
                raise FrameworkValidationError(f"edge ({i},{j}) out of range for {n} vertices")
            canon.append((min(i, j), max(i, j)))
        if len(set(canon)) != len(canon):
            raise FrameworkValidationError("duplicate edges")
        canon.sort()
        ends = np.array(canon, dtype=int).reshape(-1, 2).T.copy()
        vectors = verts[ends[0]] - verts[ends[1]]
        coincident = np.flatnonzero(~(np.linalg.norm(vectors, axis=1) > 0.0))
        if coincident.size:
            i, j = canon[coincident[0]]
            raise FrameworkValidationError(f"edge ({i},{j}) connects coincident points")
        if self.labels is not None and not (
            isinstance(self.labels, (list, tuple)) and len(self.labels) == n
            and all(isinstance(s, str) for s in self.labels)
        ):
            raise FrameworkValidationError(f"labels must be a list of {n} strings, one per vertex")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(canon))
        ends.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_vectors", vectors)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_lengths(self) -> np.ndarray:
        return np.linalg.norm(self._vectors, axis=1)

    def edge_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (v, w) endpoint arrays in canonical edge order."""
        return self._ends[0], self._ends[1]

    def edge_vectors(self) -> np.ndarray:
        """Read-only (n_edges, dimension) array of p_v - p_w per canonical
        edge vw."""
        return self._vectors


def affine_span_dimension(config) -> int:
    """Dimension of the affine span of a point configuration.

    Computed as the numerical rank (singular values above
    DEFAULT_RANK_TOL * sigma_max) of the matrix whose columns are p_i - p_1
    for i >= 2.
    """
    pts = np.asarray(config, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("config must be a non-empty (n, d) array")
    if pts.shape[0] == 1:
        return 0
    diffs = (pts[1:] - pts[0]).T
    return _numerical_rank(diffs)


def _numerical_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > DEFAULT_RANK_TOL * s[0]))


@dataclass(frozen=True, eq=False)
class Isometry:
    """Affine isometry x -> rotation @ x + translation."""

    rotation: np.ndarray       # (d, d) orthogonal
    translation: np.ndarray    # (d,)

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_readonly(self.rotation))
        object.__setattr__(self, "translation", _as_readonly(self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


@dataclass(frozen=True, eq=False)
class PinnedFramework:
    """A framework whose configuration is in pinned position.

    free_vertex and free_axis, derived from the base's size and span_dim,
    are read-only index arrays of the (vertex, axis) pairs (0-based) that
    remain variable after pinning, in vertex-major order.  That ordering
    fixes the column order of the rigidity matrix and the layout of every
    pinned-coordinate vector used downstream.

    The free column of every edge endpoint coordinate, and the order in which
    per-endpoint contributions are summed into those columns, are computed
    once here (O(E d) each); see edge_free_columns and gradient_plan.
    edge_differences gathers through the former, so other modules take
    endpoint differences without knowing the pinned slot.  The free x free
    target of every Hessian block entry (O(E d^2)) is computed once, on
    first use; see hessian_plan.
    """

    base: Framework
    span_dim: int

    def __post_init__(self):
        layout = _free_layout(self.base.n_vertices, self.base.dimension, self.span_dim)
        layout.setflags(write=False)
        object.__setattr__(self, "free_vertex", layout[0])
        object.__setattr__(self, "free_axis", layout[1])

        # free column of each (edge, axis) endpoint; pinned slots share the
        # extra column n_free
        n_free = layout.shape[1]
        col = np.full(self.base.vertices.shape, n_free)
        col[layout[0], layout[1]] = np.arange(n_free)
        ends = col[self.base._ends]
        # the 2 E d endpoint contributions, stably sorted by free column with
        # the pinned ones dropped, and the start of each column's run
        flat = ends.ravel()
        order = np.argsort(flat, kind="stable")[: np.count_nonzero(flat < n_free)]
        cols = flat[order]
        first = np.ones(cols.size, dtype=bool)
        first[1:] = cols[1:] != cols[:-1]
        starts = np.flatnonzero(first)
        plan = (order, starts, cols[starts])
        for a in (ends, *plan):
            a.setflags(write=False)
        object.__setattr__(self, "_edge_columns", ends)
        object.__setattr__(self, "_plan", plan)

    @property
    def n_free(self) -> int:
        return self.free_vertex.size

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def edge_free_columns(self) -> np.ndarray:
        """Read-only (2, n_edges, dimension) array: the free columns of each
        edge's first and second endpoint coordinates, in canonical edge
        order; pinned coordinates map to the extra column n_free."""
        return self._edge_columns

    def edge_differences(self, x) -> np.ndarray:
        """(n_edges, dimension, ...) differences x_v - x_w over every
        canonical edge vw of an (n_free, ...) array x of free-coordinate
        values, with pinned coordinates read as 0: one row gather through
        edge_free_columns from a copy of x padded with a zero row for the
        pinned slot."""
        x = np.asarray(x, dtype=float)
        padded = np.zeros((self.n_free + 1,) + x.shape[1:])
        padded[:-1] = x
        ends = np.take(padded, self._edge_columns, axis=0)
        return ends[0] - ends[1]

    def gradient_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, starts, columns): a fixed plan for summing 2 E d endpoint
        contributions, laid out as (first/second endpoint, edge, axis), into
        the free columns.  order lists the contributions to free columns,
        stably sorted by column; starts[j] is where the run of columns[j]
        begins in it.  A free column no edge touches has no run."""
        return self._plan

    def hessian_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """(entries, targets): a fixed plan for summing the 4 E d^2 entries
        of the edges' Hessian blocks, laid out as (edge, block, a, b) with
        blocks (v, v), (w, w), (v, w), (w, v) of edge vw, into the flat
        n_free x n_free Hessian.  entries lists, in that order, the entries
        whose row and column are both free; targets[i] is the flat free x
        free index of entries[i].  Entries touching a pinned coordinate
        are dropped.  Built on first use, since a verdict the ladder
        decides takes no Hessian."""
        return self._hessian_plan

    @cached_property
    def _hessian_plan(self) -> tuple[np.ndarray, np.ndarray]:
        n_free = self.n_free
        ends = self._edge_columns
        rows = ends[[0, 1, 0, 1]].transpose(1, 0, 2)[:, :, :, None]
        cols = ends[[0, 1, 1, 0]].transpose(1, 0, 2)[:, :, None, :]
        entries = np.flatnonzero((rows < n_free) & (cols < n_free))
        targets = (rows * n_free + cols).ravel()[entries]
        entries.setflags(write=False)
        targets.setflags(write=False)
        return entries, targets

    def free_vector(self) -> np.ndarray:
        """The free pinned coordinates of the base configuration."""
        return self.base.vertices[self.free_vertex, self.free_axis]


def _free_layout(n: int, d: int, span_dim: int) -> np.ndarray:
    """(2, n_free) array of free (vertex, axis) pairs in vertex-major order:
    vertex 0 is fully pinned, vertex i in 1..span_dim has axes i..d-1
    pinned."""
    v = np.arange(n)[:, None]
    free = (np.arange(d)[None, :] < v) | (v > span_dim)
    return np.array(np.nonzero(free))


def pin(framework: Framework) -> tuple[PinnedFramework, Isometry]:
    """Move a framework into pinned position by a direct isometry.

    Translates vertex 1 to the origin, then applies the Gram-Schmidt
    orthogonal map of the next span_dim vertices with the positive-diagonal
    sign convention.  Raises DegenerateLeadingVertices when the leading
    span_dim + 1 vertices are affinely dependent; the caller may permute the
    vertex order and retry (see pin_with_permutation).

    Pinned coordinates of the result are exactly zero: they are clamped from
    the sub-machine-epsilon residue the orthogonal map leaves behind.
    """
    verts = framework.vertices
    d = framework.dimension
    ell = affine_span_dimension(verts)
    if verts.shape[0] < ell + 1:
        raise DegenerateLeadingVertices("not enough vertices for the affine span")
    lead = (verts[1 : ell + 1] - verts[0]).T  # d x ell
    if _numerical_rank(lead) != ell:
        raise DegenerateLeadingVertices(
            f"the first {ell + 1} vertices are affinely dependent"
        )

    if ell == 0:
        q_mat = np.eye(d)
    else:
        q_full, r_full = np.linalg.qr(lead, mode="complete")
        signs = np.ones(d)
        for i in range(ell):
            if r_full[i, i] < 0:
                signs[i] = -1.0
        q_mat = q_full * signs  # flip columns so the R diagonal is positive

    rotation = q_mat.T
    translation = -rotation @ verts[0]
    iso = Isometry(rotation, translation)
    new_verts = iso.apply(verts)

    # clamp the pinned slots (residue is O(machine eps * coordinate scale))
    new_verts[0] = 0.0
    for i in range(1, ell + 1):
        new_verts[i, i:] = 0.0
    pinned = Framework(framework.dimension, new_verts, framework.edges, framework.labels)
    return PinnedFramework(pinned, ell), iso


def permute_framework(framework: Framework, perm) -> Framework:
    """Relabel vertices: new vertex k is old vertex perm[k]."""
    perm = list(int(v) for v in perm)
    n = framework.n_vertices
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    inv = [0] * n
    for new, old in enumerate(perm):
        inv[old] = new
    verts = framework.vertices[perm]
    edges = [(inv[i], inv[j]) for i, j in framework.edges]
    labels = tuple(framework.labels[v] for v in perm) if framework.labels else None
    return Framework(framework.dimension, verts, edges, labels)


def find_pinnable_permutation(framework: Framework) -> list[int]:
    """Greedy vertex order whose leading span_dim + 1 vertices are affinely
    independent: scan in label order, keeping each vertex that increases the
    affine rank, then append the rest in original order."""
    verts = framework.vertices
    ell = affine_span_dimension(verts)
    chosen = [0]
    for v in range(1, framework.n_vertices):
        if len(chosen) == ell + 1:
            break
        cand = chosen + [v]
        diffs = (verts[cand[1:]] - verts[cand[0]]).T
        if _numerical_rank(diffs) == len(cand) - 1:
            chosen.append(v)
    if len(chosen) != ell + 1:
        raise DegenerateLeadingVertices("could not find an affinely independent leading set")
    rest = [v for v in range(framework.n_vertices) if v not in chosen]
    return chosen + rest


def pin_with_permutation(
    framework: Framework, auto_permute: bool = True
) -> tuple[PinnedFramework, Isometry, list[int]]:
    """Pin, permuting the vertex order first if the leading vertices are
    degenerate and auto_permute is set.  Returns the permutation used
    (identity when no reordering was needed)."""
    try:
        pf, iso = pin(framework)
        return pf, iso, list(range(framework.n_vertices))
    except DegenerateLeadingVertices:
        if not auto_permute:
            raise
    perm = find_pinnable_permutation(framework)
    pf, iso = pin(permute_framework(framework, perm))
    return pf, iso, perm


# ---------------------------------------------------------------------------
# JSON file format: {"dimension": int, "vertices": [[...], ...],
#                    "edges": [[i, j], ...] (1-based), "labels": optional}
# ---------------------------------------------------------------------------

def _as_int(x) -> int:
    """x as an int when it is an integer or an integral float such as 4.0;
    a bool (JSON's true and false), a fraction or a non-number raises
    ValueError rather than being truncated."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def _as_float(x) -> float:
    """x as a float when it is an int or a float; a bool (JSON's true and
    false), a numeric string or any other value raises ValueError rather
    than being read as a number, and so does an int beyond a float's
    range."""
    if isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            raise ValueError("an integer is beyond a float's range") from None
    raise ValueError(f"{x!r} is not a number")


def _as_float_rows(rows) -> np.ndarray:
    """A list of rows of numbers as a float array.  As in _as_float, an
    entry that is not an int or a float, or an int beyond a float's range,
    raises ValueError, and so do ragged rows."""
    bad = {t for t in {type(x) for row in rows for x in row}
           if t is bool or not issubclass(t, (int, float, np.integer, np.floating))}
    if bad:
        raise ValueError(f"entries of type {', '.join(sorted(t.__name__ for t in bad))} are not numbers")
    try:
        return np.array(rows, dtype=float)
    except OverflowError:
        raise ValueError("an integer is beyond a float's range") from None


def framework_from_dict(data: dict) -> Framework:
    try:
        dim = _as_int(data["dimension"])
        verts = _as_float_rows(data["vertices"])
        edges = [(_as_int(i) - 1, _as_int(j) - 1) for i, j in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameworkValidationError(f"malformed framework data: {exc}") from exc
    return Framework(dim, verts, edges, data.get("labels"))


def framework_to_dict(framework: Framework) -> dict:
    out = {
        "dimension": framework.dimension,
        "vertices": framework.vertices.tolist(),
        "edges": (np.column_stack(framework.edge_index_arrays()) + 1).tolist(),
    }
    if framework.labels is not None:
        out["labels"] = list(framework.labels)
    return out


def load_framework(path) -> Framework:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return framework_from_dict(json.load(fh))


def save_framework(framework: Framework, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(framework_to_dict(framework), fh, indent=1)
        fh.write("\n")
