"""Bar-and-joint frameworks and their congruence-normal (pinned)
coordinates.

A framework is a graph together with a point configuration in d dimensions;
edges are rigid bars.  Pinning removes the rigid-motion degrees of freedom by
translating vertex 1 to the origin and rotating so vertex i lies in the span
of the first i-1 coordinate axes, for i up to one past the affine span
dimension.  All downstream rigidity analysis operates on the free pinned
coordinates, and this module alone knows where each bar's two endpoints land
among them: one column map, built at pinning, sends each endpoint coordinate
to its free column or to one spare column for the pinned slots.  Every move
between edges and free coordinates reads it: the gather of edge differences,
R's assembly (rigidity_matrix), and the sums of per-edge terms onto the free
coordinates, which add left to right in canonical edge order, bit for bit
the same as np.add.at.  See PinnedFramework.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass
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
    Refusals name a vertex or an edge by its 0-based indices plus index_base,
    so the file loader, which passes 1, names them as the file numbers them.
    labels, if given, is a list or tuple of strings, one per vertex.
    Edges are pairs of vertex indices, given as a sequence of pairs or an
    (E, 2) array; they are checked and canonicalized to sorted pairs in
    lexicographic order with array operations, so per-edge arrays such as
    edge_lengths() are reproducible bit-for-bit across runs.  The first
    self-loop or out-of-range edge in input order is reported, then any
    duplicate, then the first edge between coincident points in canonical
    order.  Input is read as the file loader reads it: FrameworkValidationError
    refuses a dimension that is not an integer >= 1 (2.0 reads as 2), vertex
    entries that are not finite numbers (a bool, a string), an edge index
    that is not an integer (1.7, True, '0') and a row that is not a pair; int
    and float vertex arrays and int edge arrays are taken without an entry scan.
    """

    dimension: int
    vertices: np.ndarray                      # (n, dimension)
    edges: tuple[tuple[int, int], ...]        # canonical 0-based pairs
    labels: tuple[str, ...] | None = None
    index_base: InitVar[int] = 0

    def __post_init__(self, index_base: int):
        try:
            object.__setattr__(self, "dimension", _as_int(self.dimension))
        except ValueError:
            raise FrameworkValidationError("dimension must be a positive integer") from None
        verts = self.vertices
        if not (isinstance(verts, np.ndarray) and verts.dtype.kind in "iuf"):
            try:
                entries = np.array(verts, dtype=object)
                _check_numbers({type(x) for x in entries.flat})
                verts = entries.astype(float)
            except (ValueError, OverflowError) as exc:
                raise FrameworkValidationError(f"malformed vertices: {exc}") from exc
        verts = _as_readonly(verts)
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
                f"vertex {int(bad[0]) + index_base} has a non-finite coordinate"
            )
        pairs = self.edges
        if not (isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu"):
            try:
                pairs = _as_index_pairs(pairs)
            except (TypeError, ValueError) as exc:
                raise FrameworkValidationError(f"edges must be pairs of vertex indices: {exc}") from exc
        pairs = pairs.reshape(-1, 2) if pairs.size == 0 else pairs
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise FrameworkValidationError("edges must be pairs of vertex indices")
        first, second = pairs.T
        loop = first == second
        if pairs.size and (loop.any() or pairs.min() < 0 or pairs.max() >= n):
            at = np.flatnonzero(loop | np.any((pairs < 0) | (pairs >= n), axis=1))[0]
            i, j = int(first[at]) + index_base, int(second[at]) + index_base
            if loop[at]:
                raise FrameworkValidationError(f"edge ({i},{j}) connects a vertex to itself")
            raise FrameworkValidationError(f"edge ({i},{j}) out of range for {n} vertices")
        # (min, max) per edge, sorted by min * n + max: lexicographic order
        ends = np.array([np.minimum(first, second), np.maximum(first, second)], dtype=np.int64)
        key = ends[0] * n + ends[1]
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        if (sorted_key[1:] == sorted_key[:-1]).any():
            raise FrameworkValidationError("duplicate edges")
        ends = ends[:, order]
        ends.setflags(write=False)
        self._place(verts, ends, index_base)
        if self.labels is not None and not (
            isinstance(self.labels, (list, tuple)) and len(self.labels) == n
            and all(isinstance(s, str) for s in self.labels)
        ):
            raise FrameworkValidationError(f"labels must be a list of {n} strings, one per vertex")
        object.__setattr__(self, "edges", tuple(zip(*ends.tolist())))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    def _place(self, verts: np.ndarray, ends: np.ndarray, index_base: int = 0) -> None:
        """Set the read-only vertices and (2, E) canonical endpoint arrays
        and the edge vectors they give; an edge between coincident points
        is refused, the first in canonical order named."""
        vectors = verts[ends[0]] - verts[ends[1]]
        coincident = np.flatnonzero(~(np.linalg.norm(vectors, axis=1) > 0.0))
        if coincident.size:
            i, j = (ends[:, coincident[0]] + index_base).tolist()
            raise FrameworkValidationError(f"edge ({i},{j}) connects coincident points")
        vectors.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_vectors", vectors)

    def _moved(self, vertices: np.ndarray) -> "Framework":
        """The same graph and labels at other finite vertex positions of the
        same shape, such as pin's isometric image: the edges keep their
        checked canonical form, so only coincident endpoints are checked
        again."""
        out = object.__new__(Framework)
        out.__dict__.update(self.__dict__)
        out._place(_as_readonly(vertices), self._ends)
        return out

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

    The free column of every edge endpoint coordinate is computed once here
    (O(E d)), with one spare column n_free that stands for every pinned
    slot.  That one column map serves every move between edges and free
    coordinates: edge_differences gathers through it, sum_onto_free (its
    adjoint) and sum_blocks_onto_free sum through it, each into a spare
    bin that is then dropped, and rigidity_matrix assembles R through it,
    so no other module knows the pinned slot.  Both sums add in canonical
    edge order, first endpoints before second ones.  sum_blocks_onto_free's
    O(E d^2) flat targets are built on first use.
    """

    base: Framework
    span_dim: int

    def __post_init__(self):
        layout = _free_layout(self.base.n_vertices, self.base.dimension, self.span_dim)
        layout.setflags(write=False)
        object.__setattr__(self, "free_vertex", layout[0])
        object.__setattr__(self, "free_axis", layout[1])

        # free column of each (endpoint, edge, axis); pinned slots share the
        # extra column n_free
        n_free = layout.shape[1]
        col = np.full(self.base.vertices.shape, n_free)
        col[layout[0], layout[1]] = np.arange(n_free)
        ends = col[self.base._ends]
        ends.setflags(write=False)
        object.__setattr__(self, "_edge_columns", ends)

    @property
    def n_free(self) -> int:
        return self.free_vertex.size

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def edge_differences(self, x) -> np.ndarray:
        """(n_edges, dimension, ...) differences x_v - x_w over every
        canonical edge vw of an (n_free, ...) array x of free-coordinate
        values, with pinned coordinates read as 0: one row gather through
        the endpoints' free columns from a copy of x padded with a zero row
        for the pinned slot."""
        x = np.asarray(x, dtype=float)
        padded = np.zeros((self.n_free + 1,) + x.shape[1:])
        padded[:-1] = x
        ends = np.take(padded, self._edge_columns, axis=0)
        return ends[0] - ends[1]

    def sum_onto_free(self, rows: np.ndarray) -> np.ndarray:
        """(n_free, ...) sums of +rows[i] onto the free coordinates of edge
        i's first endpoint and -rows[i] onto its second's, for rows of shape
        (E, d, ...): the adjoint of edge_differences.  One bincount of
        [rows; -rows] through the endpoints' free columns, each widened by
        the trailing size, into one spare column more for the pinned slot,
        which is dropped.  bincount adds in input order, so each sum runs
        left to right in canonical edge order, first endpoints before
        second ones, bit for bit.  Free coordinates that no edge touches
        get zero."""
        tail = rows.shape[2:]
        width = math.prod(tail)
        flows = np.concatenate([rows, -rows]).ravel()
        bins = (self._edge_columns[..., None] * width + np.arange(width)).ravel()
        sums = np.bincount(bins, flows, minlength=(self.n_free + 1) * width)
        return sums.reshape((self.n_free + 1,) + tail)[:-1]

    def sum_blocks_onto_free(self, blocks: np.ndarray) -> np.ndarray:
        """(B, n_free, n_free) sums, for (B, E, d, d) blocks M_e, of +M_e
        at (v, v) and (w, w) and -M_e at (v, w) and (w, v) of every
        canonical edge vw: sum_e (e_v - e_w)(e_v - e_w)' (x) M_e with pinned
        rows and columns deleted, so x' H x = sum_e X_e' M_e X_e for the
        edge differences X of x.  One bincount over an n_free^2 + 1 grid
        per batch row, in edge order, whose spare last bin takes every
        pinned entry and is dropped from the view returned."""
        n_batch, size = blocks.shape[0], self.n_free**2 + 1
        signed = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None] * blocks[:, :, None]
        bins = (np.arange(n_batch)[:, None] * size + self._hessian_plan).ravel()
        sums = np.bincount(bins, signed.ravel(), minlength=n_batch * size)
        return sums.reshape(n_batch, size)[:, :-1].reshape(n_batch, self.n_free, self.n_free)

    @cached_property
    def _hessian_plan(self) -> np.ndarray:
        """The flat n_free x n_free index of every (edge, block, a, b)
        entry of blocks (v, v), (w, w), (v, w), (w, v) of each edge vw, or
        the spare bin n_free^2 where its row or column is pinned; built on
        first use, since a verdict the ladder decides takes no Hessian."""
        n_free = self.n_free
        ends = self._edge_columns
        rows = ends[[0, 1, 0, 1]].transpose(1, 0, 2)[:, :, :, None]
        cols = ends[[0, 1, 1, 0]].transpose(1, 0, 2)[:, :, None, :]
        targets = np.where((rows < n_free) & (cols < n_free), rows * n_free + cols, n_free**2).ravel()
        targets.setflags(write=False)
        return targets

    def free_vector(self) -> np.ndarray:
        """The free pinned coordinates of the base configuration."""
        return self.base.vertices[self.free_vertex, self.free_axis]


def rigidity_matrix(pf: PinnedFramework) -> np.ndarray:
    """Assemble R(p), a read-only (n_edges, n_free) array whose rows follow
    canonical edge order and columns the pinned framework's free-coordinate
    order: for edge vw, (p_v - p_w) lands in vertex v's free columns and
    (p_w - p_v) in vertex w's, with pinned columns deleted."""
    diff = pf.base.edge_vectors()
    n_edges, n_free = pf.base.n_edges, pf.n_free
    ends = pf._edge_columns
    # flat targets in R; a pinned endpoint goes to one spare entry past R
    at = np.where(ends < n_free, np.arange(n_edges)[:, None] * n_free + ends, n_edges * n_free)
    flat = np.zeros(n_edges * n_free + 1)
    flat[at] = (diff, -diff)
    mat = flat[:-1].reshape(n_edges, n_free)
    mat.setflags(write=False)
    return mat


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
    pinned = framework._moved(new_verts)
    return PinnedFramework(pinned, ell), iso


def permute_framework(framework: Framework, perm) -> Framework:
    """Relabel vertices: new vertex k is old vertex perm[k]."""
    perm = list(int(v) for v in perm)
    n = framework.n_vertices
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    inv = np.argsort(perm)
    verts = framework.vertices[perm]
    edges = inv[framework._ends.T]
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


def _check_numbers(types) -> None:
    """Raise ValueError naming the entry types that, as in _as_float, are
    not numbers: anything but an int or a float, and a bool."""
    bad = {t for t in types if t is bool or not issubclass(t, (int, float, np.integer, np.floating))}
    if bad:
        raise ValueError(f"entries of type {', '.join(sorted(t.__name__ for t in bad))} are not numbers")


def _as_float_rows(rows) -> np.ndarray:
    """A list of rows of numbers as a float array; ValueError for an entry
    that is no number (_check_numbers) or beyond a float's range, or ragged rows."""
    _check_numbers({type(x) for row in rows for x in row})
    try:
        return np.array(rows, dtype=float)
    except OverflowError:
        raise ValueError("an integer is beyond a float's range") from None


def _as_index_pairs(rows) -> np.ndarray:
    """A list of pairs of integers as an (E, 2) array.  The common case, ints
    and integral floats up to 2^53, is read by one array conversion;
    anything else goes through _as_int entry by entry in input order, so
    the first entry that is not an integer (a bool, a fraction, a
    non-number) or the first row that is not a pair raises its own error,
    and integers beyond 2^53 stay exact (as Python ints in an object
    array)."""
    try:
        numeric = all(t is not bool and issubclass(t, (int, float, np.integer, np.floating))
                      for t in {type(x) for row in rows for x in row})
    except TypeError:
        numeric = False
    if numeric:
        try:
            arr = np.array(rows)
        except (ValueError, OverflowError):   # ragged rows
            arr = np.zeros(0)
        if arr.ndim == 2 and arr.shape[1] == 2 and (arr.dtype.kind in "iu" or arr.dtype.kind == "f" and np.all(
                (np.abs(arr) <= 2.0**53) & (arr == np.trunc(arr)))):
            return arr.astype(np.int64)
    return np.array([(_as_int(i), _as_int(j)) for i, j in rows], dtype=object).reshape(-1, 2)


def framework_from_dict(data: dict) -> Framework:
    try:
        dim = _as_int(data["dimension"])
        verts = _as_float_rows(data["vertices"])
        edges = _as_index_pairs(data["edges"]) - 1
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameworkValidationError(f"malformed framework data: {exc}") from exc
    return Framework(dim, verts, edges, data.get("labels"), index_base=1)


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
