"""Stiff-bar energy families: exact high-order differentiation of the
energy along polynomial trajectories, and its gap, gradient and Hessian at
points.

Four per-edge energy families are provided, each analytic with a strict
positive-curvature minimum at the edge rest length: harmonic springs,
the algebraic (squared-length) energy, Lennard-Jones, and Morse.  Each is
written twice.  For trajectories it is one jet formula phi(m) in the
squared edge length m, run on all edges at once as an (E, M+1) Jet: on
m(t) it gives the energy jets, and on m + s, composed with m(t), the
gradient jets 2 phi'(m(t)) D(t), D = p_v - p_w.  For points it is one
pointwise formula in the length l: the cancellation-free gap
E(l) - E(d), E' and E''.  The pointwise kernel takes these per edge in one
pass over a batch of displacements and returns the gaps, the gradients
and, when asked, the Hessians, with block (E'/l) I + ((E'' - E'/l)/l^2) D D'
per edge; the energy's value at a point is the rest energy plus its gap,
so no pointwise evaluation runs a jet, and the framework's own
|D|^2 - d^2 enters each length change, so specs off rest stay exact.
The pinned framework takes the edge differences and sums the per-edge
gradients and Hessian blocks back onto the free coordinates, so this module
never sees the free-coordinate layout.  The algebraic jet takes a square
root of the constant term only, so that m - d^2 is exactly zero at rest;
Lennard-Jones uses jet reciprocals, Morse uses jet exp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroLengthEdge
from .framework import Framework, PinnedFramework
from .jets import Jet, series_compose, series_mul
from .ladder import PolyTrajectory

FAMILIES = ("harmonic", "algebraic", "lj", "morse")

_SIXTH_ROOT_HALF = 2.0 ** (-1.0 / 6.0)


@dataclass(frozen=True, eq=False)
class EnergySpec:
    """Per-edge parameters of one stiff-bar energy family.

    harmonic:  E = k/2 (l - d)^2
    algebraic: E = k/2 (l^2 - d^2)^2
    lj:        E = 4 eps ((sigma/l)^12 - (sigma/l)^6), minimum at 2^(1/6) sigma
    morse:     E = D (1 - exp(-a (l - d)))^2
    """

    family: str
    rest_lengths: np.ndarray
    stiffness: np.ndarray | None = None     # k_ij     (harmonic, algebraic)
    epsilon: np.ndarray | None = None       # eps_ij   (lj)
    sigma: np.ndarray | None = None         # sigma_ij (lj)
    depth: np.ndarray | None = None         # D_ij     (morse)
    width: np.ndarray | None = None         # a_ij     (morse)
    edges: tuple[tuple[int, int], ...] | None = None   # bound edge order, if known

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown energy family {self.family!r}; have {FAMILIES}")
        n = np.asarray(self.rest_lengths).size
        for name in ("rest_lengths", "stiffness", "epsilon", "sigma", "depth", "width"):
            v = getattr(self, name)
            if v is None:
                continue
            a = np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy()
            if not np.all(a > 0):
                raise ValueError(f"{name} must be positive")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def for_framework(cls, framework: Framework, family: str) -> "EnergySpec":
        """Energy with each edge at rest at the framework's own lengths and
        every other parameter 1.  For Lennard-Jones this means
        sigma_ij = d_ij 2^(-1/6); other values go through the constructor."""
        rest = framework.edge_lengths()
        edges = framework.edges
        if family in ("harmonic", "algebraic"):
            return cls(family, rest, stiffness=1.0, edges=edges)
        if family == "lj":
            return cls(family, rest, epsilon=1.0, sigma=rest * _SIXTH_ROOT_HALF, edges=edges)
        if family == "morse":
            return cls(family, rest, depth=1.0, width=1.0, edges=edges)
        raise ValueError(f"unknown energy family {family!r}")

    def rest_energy(self) -> float:
        """Total energy with every edge at its rest length: 0 except
        Lennard-Jones, 4 eps u_d (u_d - 1) = 4 eps (c^2 - 1/4) per edge with
        c = u_d - 1/2, which is -eps at sigma = d 2^(-1/6)."""
        if self.family == "lj":
            return float(np.sum(4.0 * self.epsilon * (self._lj_well_offset**2 - 0.25)))
        return 0.0

    @cached_property
    def _lj_well_offset(self) -> np.ndarray:
        """c = u_d - 1/2 per Lennard-Jones edge, u_d = (sigma/d)^6, rounded
        once from the exact rational value of the float sigma and d: at
        sigma = d 2^(-1/6) it is a rounding residue that cancels in floats.
        With sigma = s_n / s_d and d = d_n / d_d as integer ratios,
        a = (s_n d_d)^6 and b = (s_d d_n)^6, c = (2a - b) / (2b) is one
        correctly rounded integer division."""
        out = np.empty(self.sigma.size)
        for i, (s, d) in enumerate(zip(self.sigma.tolist(), self.rest_lengths.tolist())):
            s_n, s_d = s.as_integer_ratio()
            d_n, d_d = d.as_integer_ratio()
            a, b = (s_n * d_d) ** 6, (s_d * d_n) ** 6
            out[i] = (2 * a - b) / (2 * b)
        return out


# ---------------------------------------------------------------------------
# the per-family formulas: a jet in the squared length, and E, E', E'' in l
# ---------------------------------------------------------------------------

def _check_positive(m_jet: Jet) -> None:
    bad = np.nonzero(m_jet.c[..., 0] <= 0.0)[-1]
    if bad.size:
        raise ZeroLengthEdge(f"edge {bad[0]} has non-positive squared length along the trajectory")


def _edge_energy_jet(spec: EnergySpec, m_jet: Jet) -> Jet:
    """phi_ij(m) per edge as a jet, for an (..., E, M+1) Jet of squared
    lengths m_ij, leading axes batching configurations: the one place each
    family's energy is written as a jet (_gap_and_slope is the pointwise
    one).  On the squared lengths along a trajectory
    it gives the energy jets; on m_ij + s it gives the Taylor series of
    phi_ij in m (see _taylor_in_m)."""
    d = spec.rest_lengths
    _check_positive(m_jet)
    if spec.family == "harmonic":
        dl = m_jet.sqrt() - d
        return 0.5 * spec.stiffness * (dl * dl)
    if spec.family == "algebraic":
        # m - d^2, with the constant term as (sqrt(m0) - d)(sqrt(m0) + d):
        # exactly zero at rest, as harmonic's sqrt(m) - d is
        gap = m_jet - d**2
        root = np.sqrt(m_jet.c[..., 0])
        gap_c = gap.c.copy()
        gap_c[..., 0] = (root - d) * (root + d)
        gap = Jet(gap_c, gap.mag)
        return 0.5 * spec.stiffness * (gap * gap)
    if spec.family == "lj":
        u = (spec.sigma**2 * m_jet.reciprocal()).power(3)
        return 4.0 * spec.epsilon * (u * u - u)
    one_m = -((-spec.width) * (m_jet.sqrt() - d)).exp() + 1.0
    return spec.depth * (one_m * one_m)


def _taylor_in_m(spec: EnergySpec, m0: np.ndarray, order: int) -> np.ndarray:
    """(..., E, order+1) Taylor coefficients phi^(k)(m0) / k! of every
    edge's energy about its squared length m0, shape (..., E), from the jet
    formula on m0 + s."""
    c = np.zeros(m0.shape + (order + 1,))
    c[..., 0] = m0
    c[..., 1] = 1.0
    return _edge_energy_jet(spec, Jet(c)).c


def _gap_and_slope(spec: EnergySpec, lengths: np.ndarray, dl: np.ndarray):
    """Cancellation-free (E(l) - E(d), dE/dl, d2E/dl2) given (E, B) arrays
    of lengths and dl = l - d, one column per displacement: the one place
    each family's energy is written pointwise.

    E(l) - E(d) stays accurate down to the square of the length
    perturbation, which the growth probe needs.
    """
    d = spec.rest_lengths[:, None]
    if spec.family == "harmonic":
        k = spec.stiffness[:, None]
        return 0.5 * k * dl**2, k * dl, k
    if spec.family == "algebraic":
        k = spec.stiffness[:, None]
        gap = dl * (lengths + d)
        return 0.5 * k * gap**2, 2.0 * k * lengths * gap, 2.0 * k * (gap + 2.0 * lengths**2)
    if spec.family == "lj":
        # E(l) - E(d) = 4 eps delta (delta + 2c) with delta = u_l - u_d from
        # log1p/expm1 and c = u_d - 1/2 exact, so no difference of rounded u
        eps, c = spec.epsilon[:, None], spec._lj_well_offset[:, None]
        u_d = c + 0.5
        delta = u_d * np.expm1(-6.0 * np.log1p(dl / d))
        u = u_d + delta
        return (4.0 * eps * delta * (delta + 2.0 * c), (-48.0 * eps / lengths) * u * (delta + c),
                24.0 * eps * u * (26.0 * u - 7.0) / lengths**2)
    eps_d, a = spec.depth[:, None], spec.width[:, None]
    one_m = -np.expm1(-a * dl)
    ex = 1.0 - one_m
    return eps_d * one_m**2, 2.0 * eps_d * a * ex * one_m, 2.0 * eps_d * a**2 * ex * (2.0 * ex - 1.0)


# ---------------------------------------------------------------------------
# gap, value, gradient and Hessian at points, in pinned coordinates
# ---------------------------------------------------------------------------

def _check_binding(spec: EnergySpec, pf: PinnedFramework) -> None:
    """Per-edge parameters are positional; evaluating a spec against a
    framework with a different edge list silently misassigns rest lengths,
    so refuse when the bound edge order disagrees."""
    if spec.rest_lengths.size != pf.base.n_edges:
        raise ValueError(
            f"energy spec has {spec.rest_lengths.size} edges, framework has {pf.base.n_edges}"
        )
    if spec.edges is not None and spec.edges is not pf.base.edges and spec.edges != pf.base.edges:
        raise ValueError(
            "energy spec is bound to a different edge list than the framework; "
            "build it with EnergySpec.for_framework(pf.base, ...)"
        )


def _pointwise(spec: EnergySpec, pf: PinnedFramework, delta_free, hessian: bool):
    """The pointwise energy kernel: one pass over the edges at a free
    displacement delta from the rest configuration, (n_free,) or a
    (B, n_free) batch.  Returns the cancellation-free gap
    sum_ij E_ij(l_ij) - E_ij(d_ij) above the rest lengths d, its gradient
    and, with hessian, its Hessian; a batch gives ((B,), (B, n_free),
    (B, n_free, n_free)), row by row equal to single calls.  For a spec at
    rest at the framework's own lengths (EnergySpec.for_framework) the gap
    is E(p + delta) - E(p).

    The squared-length change per edge is assembled as
    2 (p_v - p_w).(delta_v - delta_w) + |delta_v - delta_w|^2 plus the
    framework's own |p_v - p_w|^2 - d^2, formed as a product of a difference
    and a sum, which is exactly zero for a spec at rest at the framework.
    This keeps the gap accurate down to the floating-point floor even when
    the displacement is many orders of magnitude smaller than the
    coordinates.  An edge whose squared length is not above the rounding of
    these terms is refused as collapsed.
    The work is edge-major: the batch is transposed once, the pinned
    framework's edge_differences gives the (E, d, B) endpoint differences
    (pinned coordinates do not move), and every per-edge quantity is an
    (E, B) array.  With E', E'' = dE/dl, d2E/dl2 from _gap_and_slope and
    D = p_v - p_w displaced, edge vw adds (E'/l) D to the gradient at v
    and the block (E'/l) I + ((E'' - E'/l)/l^2) D D' to the Hessian at
    (v, v) and (w, w), and subtracts them at w and at (v, w) and (w, v);
    the pinned framework sums both onto the free coordinates
    (sum_onto_free, sum_blocks_onto_free).
    """
    _check_binding(spec, pf)
    delta = np.asarray(delta_free, dtype=float)
    batch = delta if delta.ndim == 2 else delta[None, :]
    n_batch = batch.shape[0]
    delta_diff = pf.edge_differences(batch.T)
    base_diff = pf.base.edge_vectors()
    rest = spec.rest_lengths[:, None]
    rest_sq = rest**2
    base = pf.base.edge_lengths()[:, None]
    # |p_v - p_w|^2 - d^2: exactly zero for a spec at rest at the framework
    stretch = (base - rest) * (base + rest)
    moved = np.einsum("edb,edb->eb", delta_diff, delta_diff)
    m_gap = 2.0 * np.einsum("edb,ed->eb", delta_diff, base_diff)
    m_gap += moved
    m_gap += stretch
    m_val = rest_sq + m_gap
    # m_val carries rounding of order eps times its terms, so an edge whose
    # endpoints meet can come out a few ulps positive: it counts as collapsed
    collapsed = m_val <= 16.0 * np.finfo(float).eps * (rest_sq + np.abs(stretch) + moved)
    if collapsed.any():
        edge, row = np.argwhere(collapsed)[0]
        at = f" at batch row {row}" if n_batch > 1 else ""
        raise ZeroLengthEdge(f"edge {edge} has non-positive squared length{at} in the displaced configuration")
    lengths = np.sqrt(m_val)
    dl = m_gap / (lengths + rest)
    gap, slope, curv = _gap_and_slope(spec, lengths, dl)
    along = slope / lengths
    diffs = base_diff[:, :, None] + delta_diff
    grad = np.ascontiguousarray(pf.sum_onto_free(along[:, None, :] * diffs).T)
    out = (float(gap.sum()), grad[0]) if delta.ndim == 1 else (gap.sum(0), grad)
    if not hessian:
        return out
    rows = diffs.transpose(2, 0, 1)
    blocks = ((curv - along) / m_val).T[..., None, None] * (rows[..., :, None] * rows[..., None, :])
    axis = np.arange(pf.dimension)
    blocks[..., axis, axis] += along.T[..., None]
    hess = pf.sum_blocks_onto_free(blocks)
    return out + ((hess[0],) if delta.ndim == 1 else (hess,))


def energy_gap_and_grad(spec: EnergySpec, pf: PinnedFramework, delta_free: np.ndarray):
    """E(p + delta) - E(p) and its gradient with respect to the free
    displacement, from the pointwise kernel (see _pointwise) without its
    Hessians.  The gap is taken above the spec's rest lengths, which are the
    framework's own for EnergySpec.for_framework.  A single displacement
    (n_free,) gives (float, (n_free,) array); a batch (B, n_free) gives
    ((B,) gaps, (B, n_free) gradients), row by row equal to single calls."""
    return _pointwise(spec, pf, delta_free, hessian=False)


def energy_gap_grad_hess(spec: EnergySpec, pf: PinnedFramework, delta_free: np.ndarray):
    """energy_gap_and_grad together with the Hessians of the same points,
    all from one pass of the pointwise kernel: (float, (n_free,),
    (n_free, n_free)) for one displacement, ((B,), (B, n_free),
    (B, n_free, n_free)) for a batch."""
    return _pointwise(spec, pf, delta_free, hessian=True)


def energy_value_grad_hess(spec: EnergySpec, pf: PinnedFramework, q_free: np.ndarray | None = None):
    """Energy value, analytic gradient and Hessian at the pinned-coordinate
    point q (default: the framework's configuration p), all in free
    coordinates.

    A single point (n_free,) gives (float, (n_free,), (n_free, n_free)); a
    batch (B, n_free) gives ((B,), (B, n_free), (B, n_free, n_free)), row by
    row equal to single calls.  The value is the rest energy (every edge at
    its rest length) plus the pointwise kernel's gap above it at
    delta = q - p, from the same pass as the gradient and the Hessian; it
    is the full energy for any spec bound to the framework's edges.
    """
    rest = pf.free_vector()
    delta = np.zeros_like(rest) if q_free is None else np.asarray(q_free, dtype=float) - rest
    gap, grad, hess = _pointwise(spec, pf, delta, hessian=True)
    return spec.rest_energy() + gap, grad, hess


# ---------------------------------------------------------------------------
# jets along polynomial trajectories
# ---------------------------------------------------------------------------

def _edge_diffs(pf: PinnedFramework, traj: PolyTrajectory, order: int) -> np.ndarray:
    """(..., E, d, order+1) object-free jet coefficient rows of
    p_v(t) - p_w(t) for every canonical edge vw, where p(t) = p + traj(t);
    pinned coordinates are constants and leading axes batch the
    trajectories.  The constant rows are the framework's edge vectors and
    the others the pinned framework's edge_differences of the trajectory's
    coefficient rows, one gather for the whole batch."""
    coeffs = traj.coeffs.reshape((-1,) + traj.coeffs.shape[-2:])     # (B, degree, n_free)
    upto = min(traj.degree, order)
    diffs = np.zeros((coeffs.shape[0], pf.base.n_edges, pf.dimension, order + 1))
    diffs[..., 0] = pf.base.edge_vectors()
    diffs[..., 1:upto + 1] = pf.edge_differences(coeffs[:, :upto].transpose(2, 0, 1)).transpose(2, 0, 1, 3)
    return diffs.reshape(traj.coeffs.shape[:-2] + diffs.shape[1:])


def _edge_m_jet(diffs: np.ndarray) -> Jet:
    """Squared-length jets m_ij(p(t)) of all edges as one Jet with an
    (..., E, order+1) coefficient array, from their _edge_diffs rows."""
    diff = Jet(diffs)
    return (diff * diff).sum(axis=diffs.ndim - 2)


def energy_along_trajectory(spec: EnergySpec, pf: PinnedFramework, traj: PolyTrajectory, order: int) -> Jet:
    """Exact Taylor coefficients of t -> E(p(t)) - E(p) through the given
    order, where p(t) = p + sum_l traj.coeffs[l-1] t^l; a batch of
    trajectories gives a Jet with one row per trajectory."""
    if order < 1:
        raise ValueError("order must be >= 1")
    _check_binding(spec, pf)
    per_edge = _edge_energy_jet(spec, _edge_m_jet(_edge_diffs(pf, traj, order)))
    total = per_edge.sum(axis=per_edge.c.ndim - 2)
    c = total.c.copy()
    c[..., 0] -= spec.rest_energy()
    return Jet(c, total.mag)


def gradient_along_trajectory(spec: EnergySpec, pf: PinnedFramework, traj: PolyTrajectory, order: int) -> np.ndarray:
    """Jets of the free-coordinate gradient of E along the trajectory:
    an (n_free, order+1) array of Taylor coefficient rows, or
    (B, n_free, order+1) for a batch of B trajectories, row by row the
    single calls' arrays up to rounding.  A batch runs each step below once
    over all its trajectories, so a caller that needs many gradient jets
    (the order-4 assembly takes one per lattice point) makes one call.
    Only coefficients are returned, so the squared lengths m(t) and
    phi'(m(t)) are plain coefficient arrays, with no Jet and no magnitude
    twin."""
    _check_binding(spec, pf)
    diffs = _edge_diffs(pf, traj, order)
    m_series = series_mul(diffs, diffs).sum(axis=-2)
    taylor = _taylor_in_m(spec, m_series[..., 0], order + 1)
    # phi'(m(t)): phi^(k+1)(m0) = (k+1)! taylor[k+1], composed with m(t)
    dphi = series_compose(taylor[..., 1:] * np.cumprod(np.arange(1.0, order + 2)), m_series)
    # dE/dp_v = 2 phi'(m) (p_v - p_w) per edge vw, and the negative for p_w
    force = 2.0 * series_mul(dphi[..., None, :], diffs)
    batch = force.shape[:-3]
    grad = pf.sum_onto_free(force.reshape((-1,) + force.shape[-3:]).transpose(1, 2, 0, 3))
    return grad.transpose(1, 0, 2).reshape(batch + (pf.n_free, order + 1))
