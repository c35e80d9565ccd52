"""Reference checks the tests compare the library against.

None of this is on the library's decision path; each function recomputes
a quantity by a slower or more direct route:

- FrameworkEnergyTarget: the framework energy as a critical-point target,
  its Hessian from the pointwise kernel and its forms from batched
  gradient jets, the route second_order_rigidity_test took before it read
  mu from the self-stresses;
- jet_from_poly: the Jet of a polynomial in t from its coefficients;
- f_jet and a4_eval: the exact jet of a critical-point target along a
  polynomial trajectory, and the t^4 coefficient a4(x0, y0) of
  f(X x0 t^2 + Y y0 t) read from it;
- grad0_by_monomials and hessian0_by_monomials: a polynomial's gradient
  and Hessian at 0 summed from its degree-1 and degree-2 monomials, the
  route PolynomialTarget took before it read them off its gradient jets;
- quartic_forms_by_lstsq: the order-4 forms S, C, T and B from one
  single-trajectory gradient jet per lattice point and two minimum-norm
  least-squares solves, the route critpoint._assemble_quartic_forms took
  before its one batched jet call and polarization identities;
- kernel_terms, value_batch and grad_batch: a4(x, y) = 1/2 x' Hxx x +
  sum_i x_i (y' C[i] y) + B(y, y, y, y) and its gradient, batched over
  rows, from the fields of a critpoint._QuarticForms.  The library decides
  the sign of a4 through the reduced form mu in critpoint._kernel_search;
  these keep the full (x, y) form checkable against a4_eval;
- edge_m_jets and classify_flex: the squared edge-length jets of a
  trajectory, per edge, and the (j, k) flex type they give;
- jet_value_grad_hess: the energy's value, gradient and Hessian read
  from the order-2 jet of each edge's energy in its squared length, the
  route the library took before its pointwise kernel, assembled densely;
- principal_angles and kernel_of_hessian_equals_K: the energy Hessian's
  numerical kernel against the first-order flex space K;
- render_json_per_item: the canonical JSON text, rendered one Python
  object at a time;
- dense_triangular and inverse_frobenius_sq: the QR split's T assembled
  as one dense array from the panel blocks it records, and ||T^-1||_F^2
  from np.linalg.inv;
- qr_split_by_dense_workspace: the QR split's panel loop on one dense
  (N, E) array holding all of R', the route the library took before its
  rolling window;
- faa_di_bruno_term: the n-th derivative of a composition by the
  partition sum of Faa di Bruno's formula, against which the jets'
  series composition is checked;
- reciprocal_twin, sqrt_twin and exp_twin: the magnitudes of 1/g,
  sqrt(g) and exp(g) by a second loop beside the value recurrence, on the
  absolute values, the route the library took before it ran the value
  recurrence on sign-adjusted magnitudes;
- compose_series: a Jet of f(g(t)) with its magnitudes, from
  jets.series_compose run on the coefficients and on the magnitudes;
- compose_by_jets and gradient_by_jets: series composition by Horner's
  scheme on Jet objects, and the energy gradient along a trajectory
  through it, the Jet route the library took before it composed
  coefficient arrays;
- kernel_search_by_boxes: critpoint._kernel_search at dim K = 1 by the
  general route, the symmetrized quartic decided by
  critpoint._bernstein_bound on its one box, against which the closed
  form is checked;
- bb_minimize_on_sphere and multistart_min_energy_on_sphere: the growth
  fit's former sphere minimizer, a seeded multistart of Barzilai-Borwein
  projected-gradient rounds with a Newton polish of its best rows, which
  the fit used at every radius when dim K > 1;
- component_count_by_union_find: a graph's connected components by
  union-find with path halving, the route ladder._component_count took
  before its array form;
- lj_well_offset_by_fractions: the Lennard-Jones well offset
  (sigma/d)^6 - 1/2 from exact Fractions;
- rest_curvature_by_jets: phi''(d^2) of every edge from one order-2
  _taylor_in_m jet on the squared lengths, the route
  critpoint._rest_curvature took before it read E' and E'' pointwise;
- embed_config, embed_tangent, displacement and corpus_items: full (n, d)
  arrays from free coordinates, p(t) - p at one t, and the corpus with its
  expected orders, which only tests need in these forms;
- count_calls: a Counter of the calls made through named module bindings,
  with which tests check that a path is or is not taken.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np

from rigidkit import (CORPUS_NAMES, EXPECTED_ORDERS, EnergySpec, Jet, PinnedFramework, PolyTrajectory,
                      energy_along_trajectory, energy_value_grad_hess, gradient_along_trajectory, load_corpus)
from rigidkit.critpoint import _bernstein_bound, _QuarticForms
from rigidkit.energy import _edge_diffs, _edge_m_jet, _taylor_in_m, energy_gap_grad_hess
from rigidkit.framework import rigidity_matrix
from rigidkit.growth import NewtonStats, _check_radius, _tangent, minimize_on_sphere
from rigidkit.jets import series_compose, series_mul
from rigidkit.linear import (_BLOCK_ORDER, KernelDecomposition, _envelope_layout, _PanelTriangular,
                             _WindowedQ, kernel_decomposition)


# ---------------------------------------------------------------------------
# exact jets of a critical-point target
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FrameworkEnergyTarget:
    """f(dp) = E(p + dp) - E(p) for a stiff-bar energy at a pinned framework,
    as a critical-point target over the free pinned coordinates."""

    spec: EnergySpec
    pf: PinnedFramework

    @property
    def dim(self) -> int:
        return self.pf.n_free

    def grad0(self) -> np.ndarray:
        _, g, _ = energy_value_grad_hess(self.spec, self.pf)
        return g

    def hessian0(self) -> np.ndarray:
        _, _, h = energy_value_grad_hess(self.spec, self.pf)
        return h

    def gradient_jet_along(self, rows: np.ndarray, order: int) -> np.ndarray:
        """(n_free, order+1) gradient jets along the trajectory with
        coefficient rows rows; a (B, degree, n_free) batch gives
        (B, n_free, order+1) from one gradient_along_trajectory call."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        return gradient_along_trajectory(self.spec, self.pf, PolyTrajectory(rows), order)


def jet_from_poly(base: float, t_coeffs, order: int) -> Jet:
    """Jet of base + sum_l t_coeffs[l-1] t^l, truncated at the given order."""
    c = np.zeros(order + 1)
    c[0] = base
    tc = np.asarray(t_coeffs, dtype=float)
    n = min(tc.size, order)
    c[1 : n + 1] = tc[:n]
    return Jet(c)


def f_jet(target, rows, order: int) -> Jet:
    """Exact jet of f along v(t) = sum_l rows[l-1] t^l (constant term of f
    dropped): the energy jet for a framework target, the sum of monomial
    jets for a polynomial one."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if isinstance(target, FrameworkEnergyTarget):
        return energy_along_trajectory(target.spec, target.pf, PolyTrajectory(rows), order)
    var_jets = target._variable_jets(rows, order)
    total = Jet.constant(0.0, order)
    for exps, coef in target.monomials:
        if sum(exps):
            total = total + target._monomial_jet(var_jets, coef, exps)
    return total


def grad0_by_monomials(target) -> np.ndarray:
    """grad f(0) of a PolynomialTarget: the coefficient of each degree-1
    monomial, summed in monomial order."""
    g = np.zeros(target.n_vars)
    for exps, coef in target.monomials:
        if sum(exps) == 1:
            g[exps.index(1)] += coef
    return g


def hessian0_by_monomials(target) -> np.ndarray:
    """The Hessian at 0 of a PolynomialTarget: 2c on the diagonal for each
    c x_i^2 and c at (i, j) and (j, i) for each c x_i x_j, summed in
    monomial order."""
    h = np.zeros((target.n_vars, target.n_vars))
    for exps, coef in target.monomials:
        if sum(exps) != 2:
            continue
        nz = [i for i, e in enumerate(exps) if e]
        if len(nz) == 1:
            h[nz[0], nz[0]] += 2.0 * coef
        else:
            i, j = nz
            h[i, j] += coef
            h[j, i] += coef
    return h


def a4_eval(target, X: np.ndarray, Y: np.ndarray, x0: np.ndarray, y0: np.ndarray) -> float:
    """One exact a4 evaluation: t^4 coefficient of f(X x0 t^2 + Y y0 t)."""
    dim = target.dim
    row1 = Y @ y0 if Y.shape[1] else np.zeros(dim)
    row2 = X @ x0 if X.shape[1] else np.zeros(dim)
    return float(f_jet(target, np.vstack([row1, row2]), 4).c[4])


def quartic_forms_by_lstsq(target, X: np.ndarray, Y: np.ndarray, hess: np.ndarray):
    """(S, forms): the (dim, m, m) tensor S with a' S a = [t^2] grad f(Y a t)
    and the _QuarticForms, from one order-3 gradient jet along Y a t per
    lattice point a in N^m with |a| = 3, each taken alone, and two
    minimum-norm least-squares solves against the rows a(x)a and
    a(x)a(x)a; the lattice determines every homogeneous cubic, and the
    minimum-norm solution is the symmetric tensor."""
    n, m = X.shape[1], Y.shape[1]
    eye_m = np.eye(m)
    lattice = np.array([eye_m[list(ids)].sum(axis=0) for ids in combinations_with_replacement(range(m), 3)])
    jets = np.stack([target.gradient_jet_along((Y @ a)[None, :], 3) for a in lattice])
    aa = (lattice[:, :, None] * lattice[:, None, :]).reshape(-1, m * m)
    aaa = (aa[:, :, None] * lattice[:, None, :]).reshape(-1, m**3)
    s_flat = np.linalg.lstsq(aa, jets[:, :, 2], rcond=None)[0].T
    b_tensor = np.linalg.lstsq(aaa, jets[:, :, 3] @ Y, rcond=None)[0].reshape((m,) * 4) / 4.0
    hxx = X.T @ hess @ X if n else np.zeros((0, 0))
    forms = _QuarticForms(hxx, (X.T @ s_flat).reshape(n, m, m), b_tensor, (Y.T @ s_flat).reshape(m, m, m) / 3.0)
    return s_flat.reshape(-1, m, m), forms


# ---------------------------------------------------------------------------
# the assembled order-4 forms, evaluated directly
# ---------------------------------------------------------------------------

def kernel_terms(forms, ys: np.ndarray):
    """Per row y: c(y) = (y' C[i] y)_i, shape (b, n), and B(y, y, y, .),
    shape (b, m)."""
    b, m = ys.shape
    yy = (ys[:, :, None] * ys[:, None, :]).reshape(b, m * m)
    byy = (yy @ forms.B.reshape(m * m, m * m)).reshape(b, m, m)
    return yy @ forms.C.reshape(-1, m * m).T, np.einsum("bij,bj->bi", byy, ys)


def value_batch(forms, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """a4 at each row pair (x, y)."""
    c, b3 = kernel_terms(forms, ys)
    return np.sum((0.5 * xs @ forms.Hxx + c) * xs, axis=1) + np.sum(b3 * ys, axis=1)


def grad_batch(forms, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The (x, y)-gradient of a4 at each row pair, shape (b, n + m)."""
    c, b3 = kernel_terms(forms, ys)
    b, m = ys.shape
    wc = (xs @ forms.C.reshape(-1, m * m)).reshape(b, m, m)
    mixed = 2.0 * np.einsum("bjk,bk->bj", wc, ys)     # y-gradient of x . c(y)
    return np.hstack([xs @ forms.Hxx.T + c, mixed + 4.0 * b3])


# ---------------------------------------------------------------------------
# flex classification from squared edge-length jets
# ---------------------------------------------------------------------------

def edge_m_jets(pf, traj: PolyTrajectory, order: int) -> list[Jet]:
    """Squared-length jets m_ij(p(t)) per canonical edge, one Jet each."""
    m_jet = _edge_m_jet(_edge_diffs(pf, traj, order))
    return [Jet(c, mag) for c, mag in zip(m_jet.c, m_jet.mag)]


def classify_flex(pf, traj: PolyTrajectory, k_check: int, tol: float = 1e-8):
    """Activity and vanishing orders of a polynomial trajectory.

    Returns (j_active, k_vanish): j_active is the smallest l with a nonzero
    t^l coefficient; k_vanish is the largest k <= k_check such that all
    derivatives of the squared edge lengths through order k vanish at t = 0
    (coefficients below tol relative to the largest coefficient magnitude
    through k_check).
    """
    norms = np.linalg.norm(traj.coeffs, axis=1)
    active = np.flatnonzero(norms > tol)
    if active.size == 0:
        raise ValueError("trajectory is numerically zero")
    j_active = int(active[0]) + 1

    m_rows = _edge_m_jet(_edge_diffs(pf, traj, k_check)).c
    per_order = np.max(np.abs(m_rows[:, 1:]), axis=0) if m_rows.size else np.zeros(k_check)
    # scale includes order 0 (the squared rest lengths), so a trajectory whose
    # inspected derivatives all vanish still gets a meaningful threshold
    scale = float(np.max(np.abs(m_rows))) if m_rows.size else 0.0
    k_vanish = 0
    for k in range(1, k_check + 1):
        if per_order[k - 1] <= tol * scale:
            k_vanish = k
        else:
            break
    return j_active, k_vanish


# ---------------------------------------------------------------------------
# value, gradient and Hessian from the order-2 jet
# ---------------------------------------------------------------------------

def jet_value_grad_hess(spec, pf, q_free=None):
    """Value, gradient and Hessian at the pinned-coordinate point q
    (default: the rest configuration), one point (n_free,) or a batch
    (B, n_free), shaped as energy_value_grad_hess returns them.  phi, phi'
    and phi''/2 of every edge come from the order-2 jet of its energy at
    m0 = |D|^2, D = p_v - p_w; the edge adds 2 phi' D to the gradient and
    the block 2 phi' I + 4 phi'' D D' to the Hessian, summed edge by edge
    into the full (n d) x (n d) arrays before the free coordinates are
    taken."""
    q = pf.free_vector() if q_free is None else np.asarray(q_free, dtype=float)
    pts = embed_config(pf, q if q.ndim == 2 else q[None, :])
    n_batch, n, d = pts.shape
    ev, ew = pf.base.edge_index_arrays()
    diffs = pts[:, ev] - pts[:, ew]
    phi, dphi, half_d2phi = _taylor_in_m(spec, np.sum(diffs * diffs, axis=2), 2).transpose(2, 0, 1)
    force = (2.0 * dphi)[..., None] * diffs
    blocks = (8.0 * half_d2phi)[..., None, None] * (diffs[..., :, None] * diffs[..., None, :])
    blocks += (2.0 * dphi)[..., None, None] * np.eye(d)
    grad = np.zeros((n_batch, n, d))
    hess = np.zeros((n_batch, n, d, n, d))
    for e, (v, w) in enumerate(zip(ev, ew)):
        grad[:, v] += force[:, e]
        grad[:, w] -= force[:, e]
        hess[:, v, :, v] += blocks[:, e]
        hess[:, w, :, w] += blocks[:, e]
        hess[:, v, :, w] -= blocks[:, e]
        hess[:, w, :, v] -= blocks[:, e]
    free = pf.free_vertex * d + pf.free_axis
    grad = grad.reshape(n_batch, n * d)[:, free]
    hess = hess.reshape(n_batch, n * d, n * d)[:, free][:, :, free]
    values = np.sum(phi, axis=1)
    if q.ndim == 1:
        return float(values[0]), grad[0], hess[0]
    return values, grad, hess


# ---------------------------------------------------------------------------
# the Hessian-kernel identity
# ---------------------------------------------------------------------------

def principal_angles(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of two orthonormal bases."""
    if A.shape[1] == 0 or B.shape[1] == 0:
        return np.zeros(0)
    s = np.linalg.svd(A.T @ B, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


def kernel_of_hessian_equals_K(spec, pf, kd, tol: float = 1e-8, angle_tol: float = 1e-6) -> bool:
    """Check that the numerical kernel of the energy Hessian at rest
    coincides with the first-order flex space K as subspaces."""
    _, _, hess = energy_value_grad_hess(spec, pf)
    lam, vec = np.linalg.eigh(hess)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    ker = vec[:, np.abs(lam) <= tol * max(scale, 1.0)]
    if ker.shape[1] != kd.dim_K:
        return False
    if kd.dim_K == 0:
        return True
    ang = principal_angles(ker, kd.K_basis)
    return bool(np.max(ang) < angle_tol)


# ---------------------------------------------------------------------------
# canonical JSON, one object at a time
# ---------------------------------------------------------------------------

def render_json_per_item(obj, indent: int = 0) -> str:
    """cli.render_json's text, recursing into every item of every list."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad} "{key}": {render_json_per_item(obj[key], indent + 1).lstrip()}' for key in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad} {render_json_per_item(v, indent + 1).lstrip()}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return render_json_per_item(obj.tolist(), indent)
    raise TypeError(f"cannot render {type(obj)}")


# ---------------------------------------------------------------------------
# sums onto the free coordinates, left to right
# ---------------------------------------------------------------------------

def _free_columns(pf) -> np.ndarray:
    """(2, E, d) free column of each edge endpoint coordinate, -1 where it
    is pinned, from the free layout alone."""
    col = np.full(pf.base.vertices.shape, -1)
    col[pf.free_vertex, pf.free_axis] = np.arange(pf.n_free)
    return col[np.array(pf.base.edge_index_arrays())]


def sum_onto_free_by_add_at(pf, rows: np.ndarray) -> np.ndarray:
    """PinnedFramework.sum_onto_free by np.add.at, which adds in index
    order: +rows of every edge's first endpoint in canonical edge order,
    then -rows of every second one."""
    cols = _free_columns(pf)
    free = cols >= 0
    out = np.zeros((pf.n_free,) + rows.shape[2:])
    np.add.at(out, cols[free], np.array([rows, -rows])[free])
    return out


def sum_blocks_onto_free_by_add_at(pf, blocks: np.ndarray) -> np.ndarray:
    """PinnedFramework.sum_blocks_onto_free by np.add.at, in (edge, block,
    a, b) order: +M_e at (v, v) and (w, w), then -M_e at (v, w) and
    (w, v), per canonical edge vw, with pinned rows and columns left out."""
    v, w = _free_columns(pf)
    rows, cols = np.broadcast_arrays(np.stack([v, w, v, w], axis=1)[:, :, :, None],
                                     np.stack([v, w, w, v], axis=1)[:, :, None, :])
    free = (rows >= 0) & (cols >= 0)
    signed = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None] * blocks[:, :, None]
    out = np.zeros((blocks.shape[0], pf.n_free, pf.n_free))
    for hess, row_blocks in zip(out, signed):
        np.add.at(hess, (rows[free], cols[free]), row_blocks[free])
    return out


# ---------------------------------------------------------------------------
# the QR split's triangular factor, dense
# ---------------------------------------------------------------------------

def dense_triangular(panels, n: int) -> np.ndarray:
    """The (n, n) upper-triangular T whose panel starting at row j0 has
    diagonal block a and coupling rectangle u right of it, for each
    (j0, a, u) in panels."""
    t = np.zeros((n, n))
    for j0, a, u in panels:
        j1 = j0 + len(a)
        t[j0:j1, j0:j1] = a
        t[j0:j1, j1:j1 + u.shape[1]] = u
    return t


def inverse_frobenius_sq(t: np.ndarray) -> float:
    """||T^-1||_F^2 from the dense inverse."""
    return float(np.linalg.norm(np.linalg.inv(t)) ** 2)


def qr_split_by_dense_workspace(mat: np.ndarray, tol: float):
    """linear._qr_split with every panel's window read from, and updated
    in, one dense array of R' in the split's two orders."""
    layout = _envelope_layout(mat)
    if layout is None:
        return None
    vals, col_order, row_order, first, last = layout
    n_edges, n_free = mat.shape
    cutoff = tol * np.linalg.norm(vals)
    work = np.zeros((n_free, n_edges))
    work[:] = mat[np.ix_(row_order, col_order)].T
    reach = np.minimum.accumulate(first[::-1])[::-1]
    q, factor = _WindowedQ(col_order, n_edges), []
    for j0 in range(0, n_edges, _BLOCK_ORDER):
        j1 = min(j0 + _BLOCK_ORDER, n_edges)
        r1 = last[j1 - 1] + 1
        h = np.linalg.qr(work[j0:r1, j0:j1], mode="raw")[0]
        if not np.min(np.abs(np.diagonal(h))) > cutoff:
            return None
        q_w = np.linalg.qr(work[j0:r1, j0:j1], mode="complete")[0]
        q.blocks.append((j0, q_w))
        trail = work[j0:r1, j1:np.searchsorted(reach, r1)]
        trail[:] = q_w.T @ trail
        factor.append((j0, np.triu(h[:, :j1 - j0].T), trail[:j1 - j0].copy()))
    t = _PanelTriangular(row_order, factor)
    sigma_min_bound = 1.0 / np.sqrt(t.inverse_frobenius_sq())
    if not sigma_min_bound > cutoff:
        return None
    dim_k = n_free - n_edges
    return KernelDecomposition(q @ np.eye(n_free, dim_k, -n_edges), dim_k, np.zeros((n_edges, 0)), t, q, "qr",
                               float(sigma_min_bound / cutoff))


# ---------------------------------------------------------------------------
# Faa di Bruno's formula
# ---------------------------------------------------------------------------

def _partition_multiplicities(n: int):
    """Yield multiplicity tuples (j_1..j_n) with sum i * j_i = n."""

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for mult in range(remaining // part, 0, -1):
                for rest in rec(remaining - part * mult, part - 1):
                    yield ((part, mult),) + rest

    for combo in rec(n, n):
        j = [0] * n
        for part, mult in combo:
            j[part - 1] = mult
        yield tuple(j)


def faa_di_bruno_term(f_derivs, g_derivs, n: int) -> float:
    """n-th derivative of f(g(t)) at t = 0 by the partition-sum formula.

    f_derivs[m] is the m-th derivative of f at g(0); g_derivs[i] the i-th
    derivative of g at 0 (index 0 entries are the values, unused).  Intended
    for n <= 8, where it doubles as an independent check on jet composition;
    the enumeration itself has no hard cap.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f_derivs = np.asarray(f_derivs, dtype=float)
    g_derivs = np.asarray(g_derivs, dtype=float)
    if f_derivs.size < n + 1 or g_derivs.size < n + 1:
        raise ValueError(f"need derivatives up to order {n}")
    total = 0.0
    for j in _partition_multiplicities(n):
        m = sum(j)
        denom = 1
        term = f_derivs[m]
        for i, ji in enumerate(j, start=1):
            if ji == 0:
                continue
            denom *= math.factorial(ji) * math.factorial(i) ** ji
            term *= g_derivs[i] ** ji
        total += (math.factorial(n) // denom) * term
    return float(total)


# ---------------------------------------------------------------------------
# the magnitude twins of the composition recurrences, as loops of their own
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def reciprocal_twin(g: np.ndarray, g_mag: np.ndarray) -> np.ndarray:
    """Magnitudes of 1/g: the reciprocal recurrence on |g0| with every term
    added."""
    hm = np.zeros(g.shape)
    hm[..., 0] = np.abs(1.0 / g[..., 0])
    for k in range(1, g.shape[-1]):
        hm[..., k] = _dot(g_mag[..., 1 : k + 1], hm[..., k - 1 :: -1]) / np.abs(g[..., 0])
    return hm


def sqrt_twin(g: np.ndarray, g_mag: np.ndarray) -> np.ndarray:
    """Magnitudes of sqrt(g): the square-root recurrence with every term
    added."""
    hm = np.zeros(g.shape)
    h0 = np.sqrt(g[..., 0])
    hm[..., 0] = h0
    for k in range(1, g.shape[-1]):
        hm[..., k] = (g_mag[..., k] + _dot(hm[..., 1:k], hm[..., k - 1 : 0 : -1])) / (2.0 * h0)
    return hm


def exp_twin(g: np.ndarray, g_mag: np.ndarray) -> np.ndarray:
    """Magnitudes of exp(g): the exponential recurrence on the magnitudes
    of g's tail."""
    hm = np.zeros(g.shape)
    hm[..., 0] = np.exp(g[..., 0])
    ks = np.arange(g.shape[-1], dtype=float)
    for k in range(1, g.shape[-1]):
        hm[..., k] = _dot(ks[1 : k + 1] * g_mag[..., 1 : k + 1], hm[..., k - 1 :: -1]) / k
    return hm


# ---------------------------------------------------------------------------
# the Jet route of series composition and of the gradient jets
# ---------------------------------------------------------------------------

def compose_series(f_derivs, g: Jet) -> Jet:
    """Jet of f(g(t)) given derivatives f(g0), f'(g0), ..., f^(m)(g0).

    The derivatives run along the last axis of f_derivs; leading axes match
    g's, so an (E, m+1) array composes one function per row of an (E, M+1)
    Jet (a 1-D array acts on every row).  The coefficients are
    series_compose(f_derivs, g.c) and the magnitudes
    series_compose(|f_derivs|, g.mag); exact through min(order, m).
    """
    fd = np.asarray(f_derivs, dtype=float)
    return Jet(series_compose(fd, g.c), series_compose(np.abs(fd), g.mag))


def compose_by_jets(f_derivs, g: Jet) -> Jet:
    """f(g(t)) from f(g0), ..., f^(m)(g0) by Horner's scheme on Jet objects
    at the shifted jet g - g0, coefficients and magnitudes together."""
    fd = np.asarray(f_derivs, dtype=float)
    c, mag = g.c.copy(), g.mag.copy()
    c[..., 0] = 0.0
    mag[..., 0] = 0.0
    shifted = Jet(c, mag)
    coeffs = fd / np.cumprod(np.concatenate(([1.0], np.arange(1.0, fd.shape[-1]))))
    out = Jet.constant(coeffs[..., -1], g.order)
    for k in range(fd.shape[-1] - 2, -1, -1):
        out = out * shifted + coeffs[..., k]
    return out


def gradient_by_jets(spec, pf, traj: PolyTrajectory, order: int) -> np.ndarray:
    """(n_free, order+1) gradient jets of the energy along traj, with the
    squared lengths m(t) and phi'(m(t)) carried as Jets."""
    diffs = _edge_diffs(pf, traj, order)
    m_jet = _edge_m_jet(diffs)
    taylor = _taylor_in_m(spec, m_jet.c[:, 0], order + 1)
    dphi = compose_by_jets(taylor[:, 1:] * np.cumprod(np.arange(1.0, order + 2)), m_jet)
    return pf.sum_onto_free(2.0 * series_mul(dphi.c[:, None, :], diffs))


# ---------------------------------------------------------------------------
# the kernel search at dim K = 1 by the branch and bound
# ---------------------------------------------------------------------------

def kernel_search_by_boxes(forms, tol_eff: float, sign: float = 1.0):
    """critpoint._kernel_search's return value at m = 1, from mu's quartic
    tensor forms.M symmetrized over its 24 axis permutations and decided by
    critpoint._bernstein_bound."""
    if forms.B.shape[0] != 1:
        raise ValueError("the box oracle covers a one-dimensional kernel only")
    quart = sign * sum(np.transpose(forms.M, p) for p in permutations(range(4))) / 24.0
    q = float(quart.reshape(-1)[0])

    def value_grad(ys):
        return q * ys[:, 0] ** 4, 4.0 * q * ys ** 3

    least, y_best, low, note = _bernstein_bound(value_grad, 1, tol_eff, sign)
    return sign * least, y_best, sign * low, note


# ---------------------------------------------------------------------------
# the seeded multistart on the sphere
# ---------------------------------------------------------------------------

N_STARTS = 64             # starts of the multistart, flex directions included
MULTISTART_ROUNDS = 250   # Barzilai-Borwein rounds of the multistart
N_FINALISTS = 6           # multistart rows polished by Newton


def bb_minimize_on_sphere(value_grad, starts: np.ndarray, r=1.0, *, rounds: int):
    """minimize_on_sphere's problem for a function without Hessians:
    value_grad maps a (B, dim) batch to (values (B,), gradients (B, dim)),
    and the final values and points are returned.  Vectorized projected
    gradient with per-row Barzilai-Borwein steps and a backtracking
    fallback: an accepted move sets the next step from the last
    displacement/gradient-change pair, a rejected one shrinks it.  Every
    round computes every row's step and keeps it, with the moved point,
    value and gradient, only where the move was accepted, by np.where over
    whole arrays; row by row this is the same arithmetic as updating just
    the accepted rows.  The multistart runs rounds rounds of it.
    """
    r = np.full(starts.shape[0], r, dtype=float)
    z = r[:, None] * starts / np.sqrt((starts * starts).sum(1))[:, None]
    vals, grads = value_grad(z)
    steps = 1e-3 * r
    last_z = z.copy()
    last_g = grads.copy()
    for _ in range(rounds):
        g_tan = _tangent(grads, z, r)
        gnorm2 = (g_tan * g_tan).sum(1)
        cand = z - steps[:, None] * g_tan
        cand *= r[:, None] / np.sqrt((cand * cand).sum(1))[:, None]
        c_vals, c_grads = value_grad(cand)
        improve = c_vals < vals - 1e-4 * steps * gnorm2
        # the BB step of every row, kept only where the move is accepted
        dz = cand - last_z
        dg = c_grads - last_g
        den = (dg * dg).sum(1)
        bb = np.abs((dz * dg).sum(1)) / np.where(den > 0, den, 1.0)
        bb = np.minimum(np.maximum(bb, 1e-17 * r), 1e3 * r)
        bb = np.where(den == 0, steps * 2.0, bb)
        steps = np.where(improve, bb, steps * 0.3)
        moved = improve[:, None]
        last_z = np.where(moved, z, last_z)
        last_g = np.where(moved, grads, last_g)
        z = np.where(moved, cand, z)
        grads = np.where(moved, c_grads, grads)
        vals = np.where(improve, c_vals, vals)
        if (steps < 1e-16 * r).all():
            break
    return vals, z


def multistart_min_energy_on_sphere(spec, pf, r: float, seed: int = 0, extra_starts=None, kd=None):
    """Best upper bound on m(r) = min E(q) - E(p) over |q - p| = r, with
    the minimizing unit direction and the NewtonStats of its row; kd, when
    given, is the framework's kernel decomposition (computed here
    otherwise).

    N_STARTS starts are seeded along the +/- first-order flex directions
    plus random unit vectors; extra_starts rows (unit directions) are
    appended, which the former dim K > 1 radius sweep used to continue the
    minimizing valley between radii.  MULTISTART_ROUNDS Barzilai-Borwein
    rounds run from all starts and the best N_FINALISTS rows are polished
    by Newton."""
    _check_radius(spec, r)

    def gap(z):
        return energy_gap_grad_hess(spec, pf, z)[:2]

    def gap_grad_hess(z):
        return energy_gap_grad_hess(spec, pf, z)

    if kd is None:
        kd = kernel_decomposition(rigidity_matrix(pf))
    rng = np.random.default_rng(seed)
    rows = []
    for j in range(kd.dim_K):
        rows.append(kd.K_basis[:, j])
        rows.append(-kd.K_basis[:, j])
    if extra_starts is not None:
        rows.extend(np.atleast_2d(extra_starts))
    need = max(N_STARTS - len(rows), 4)
    rand = rng.standard_normal((need, pf.n_free))
    rows.extend(rand / np.linalg.norm(rand, axis=1, keepdims=True))
    vals, z = bb_minimize_on_sphere(gap, np.array(rows), r, rounds=MULTISTART_ROUNDS)
    finalists = z[np.argsort(vals)[:N_FINALISTS]]
    f_vals, f_z, stats = minimize_on_sphere(gap_grad_hess, finalists, r)
    best = int(np.argmin(f_vals))
    row = NewtonStats(stats.steps[best], stats.tangent_ratio[best], stats.converged[best])
    return float(f_vals[best]), f_z[best] / r, row


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

def component_count_by_union_find(n_vertices: int, edges) -> int:
    """Connected components of a graph on n_vertices vertices (union-find
    with path halving); an isolated vertex is a component of its own."""
    root = list(range(n_vertices))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    count = n_vertices
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            root[ri] = rj
            count -= 1
    return count


def lj_well_offset_by_fractions(sigma, rest_lengths) -> np.ndarray:
    """(sigma/d)^6 - 1/2 per edge, exact in Fractions of the floats and
    rounded once."""
    return np.array([float((Fraction(s) / Fraction(d)) ** 6 - Fraction(1, 2))
                     for s, d in zip(np.asarray(sigma).tolist(), np.asarray(rest_lengths).tolist())])


# ---------------------------------------------------------------------------
# full configurations, displacements and the corpus
# ---------------------------------------------------------------------------

def embed_config(pf, x: np.ndarray) -> np.ndarray:
    """Full (n, d) configuration with free coordinates x and pinned
    coordinates at their base values; a (B, n_free) batch gives (B, n, d)."""
    pts = np.empty(np.shape(x)[:-1] + pf.base.vertices.shape)
    pts[...] = pf.base.vertices
    pts[..., pf.free_vertex, pf.free_axis] = x
    return pts


def embed_tangent(pf, x: np.ndarray) -> np.ndarray:
    """Full (n, d) array with free coordinates x and zeros in pinned slots."""
    pts = np.zeros(pf.base.vertices.shape)
    pts[pf.free_vertex, pf.free_axis] = x
    return pts


def displacement(traj: PolyTrajectory, t: float) -> np.ndarray:
    """p(t) - p = sum_l traj.coeffs[l-1] t^l as a pinned-coordinate vector."""
    return sum(t**l * row for l, row in enumerate(traj.coeffs, start=1))


def corpus_items():
    """Yield (name, framework, expected_order) for the whole corpus."""
    for name in CORPUS_NAMES:
        yield name, load_corpus(name), EXPECTED_ORDERS[name]


def rest_curvature_by_jets(spec: EnergySpec, pf: PinnedFramework) -> np.ndarray:
    """phi''(d^2) of every edge at the framework's squared lengths d^2, twice
    the s^2 coefficient of the jet formula on d^2 + s."""
    vecs = pf.base.edge_vectors()
    return 2.0 * _taylor_in_m(spec, np.einsum("ed,ed->e", vecs, vecs), 2)[:, 2]


def count_calls(monkeypatch, names, modules) -> Counter:
    """A Counter that from now on counts each call of the functions names,
    by name, through every module of modules that binds them: each is
    wrapped once, as the first of modules binds it, and that wrapper
    replaces the binding in each of them."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=next(getattr(mod, name) for mod in modules if hasattr(mod, name)),
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls
