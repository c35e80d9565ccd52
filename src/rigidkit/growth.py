"""Empirical energy-growth probing: minimal energy gap on spheres of
shrinking radius and the log-log slope fit that estimates the tight growth
order s (rigidity order = s / 2).

The minimum of E(q) - E(p) over the sphere |q - p| = r in pinned coordinates
is found by minimize_on_sphere, a batched multistart projected gradient
descent with per-start Barzilai-Borwein steps, seeded along the first-order
flex directions; the order-4 critical-point tests use the same minimizer on
their closed-form quartics.  Any local method only upper-bounds the true
minimum, so the fit is a cross-check on the ladder, not an oracle; double
precision limits reliable slope recovery to s of roughly 10 or below, which
the fit notes record.

A sweep makes tens of thousands of energy_gap_and_grad calls on small
batches, so the per-call cost is kept to arithmetic: the kernel works
edge-major on (E, d, B) arrays through the edge column map and gradient plan
that PinnedFramework builds once, and each minimizer round updates its
state with whole-array selects instead of boolean-mask gathers and scatters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import EnergySpec, energy_gap_and_grad
from .errors import DegenerateFit, ZeroLengthEdge
from .framework import PinnedFramework
from .linear import KernelDecomposition, kernel_decomposition, rigidity_matrix

DEFAULT_N_RADII = 12
DEFAULT_N_STARTS = 64
SLOPE_RELIABLE_LIMIT = 10.0


@dataclass(frozen=True, eq=False)
class GrowthFit:
    """Log-log fit of the minimal energy gap m(r) against the radius."""

    family: str
    radii: np.ndarray
    m_values: np.ndarray
    fitted_s: float
    r2: float
    nu_hat: float
    monotone: bool
    notes: tuple[str, ...] = field(default=())


def _safe_radius(spec: EnergySpec) -> float:
    return 0.5 * float(np.min(spec.rest_lengths))


def minimize_on_sphere(value_grad, starts: np.ndarray, r: float = 1.0, *, rounds: int):
    """Minimize a function over the sphere |z| = r from a batch of start
    directions; returns the final values (B,) and points (B, dim).

    value_grad maps a (B, dim) batch of points to (values (B,), gradients
    (B, dim)).  Vectorized projected gradient with per-start Barzilai-Borwein
    steps and a backtracking fallback: an accepted move sets the next step
    from the last displacement/gradient-change pair, a rejected one shrinks
    it.  The spectral step is what lets the iteration follow the nearly flat
    valleys of high-order frameworks down to m(r) values near the float
    floor.

    Every round computes the Barzilai-Borwein step of every row and keeps
    it, with the moved point, value and gradient, only where the move was
    accepted, by np.where over whole arrays; row by row this is the same
    arithmetic as updating just the accepted rows.
    """
    z = r * starts / np.sqrt((starts * starts).sum(1))[:, None]
    vals, grads = value_grad(z)
    steps = np.full(z.shape[0], 1e-3 * r)
    last_z = z.copy()
    last_g = grads.copy()
    for _ in range(rounds):
        zh = z / r
        g_tan = grads - (grads * zh).sum(1)[:, None] * zh
        gnorm2 = (g_tan * g_tan).sum(1)
        cand = z - steps[:, None] * g_tan
        cand *= r / np.sqrt((cand * cand).sum(1))[:, None]
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


def min_energy_on_sphere(
    spec: EnergySpec,
    pf: PinnedFramework,
    r: float,
    n_starts: int = DEFAULT_N_STARTS,
    seed: int = 0,
    extra_starts: np.ndarray | None = None,
) -> float:
    """Best upper bound on m(r) = min E(q) - E(p) over |q - p| = r.

    Starts are seeded along the +/- first-order flex directions plus random
    unit vectors; extra_starts rows (unit directions) are appended, which the
    radius sweep uses to continue the minimizing valley between radii.
    """
    value, _ = min_energy_on_sphere_with_arg(spec, pf, r, n_starts, seed, extra_starts)
    return value


def min_energy_on_sphere_with_arg(
    spec: EnergySpec,
    pf: PinnedFramework,
    r: float,
    n_starts: int = DEFAULT_N_STARTS,
    seed: int = 0,
    extra_starts: np.ndarray | None = None,
    kd: KernelDecomposition | None = None,
):
    """min_energy_on_sphere, also returning the minimizing unit direction;
    kd, when given, is the framework's kernel decomposition (computed here
    otherwise)."""
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if r >= _safe_radius(spec):
        raise ZeroLengthEdge(
            f"radius {r} exceeds the safe radius {_safe_radius(spec):.6g} "
            "(half the shortest rest length)"
        )
    if kd is None:
        kd = kernel_decomposition(rigidity_matrix(pf))
    rng = np.random.default_rng(seed)
    rows = []
    for j in range(kd.dim_K):
        rows.append(kd.K_basis[:, j])
        rows.append(-kd.K_basis[:, j])
    if extra_starts is not None:
        rows.extend(np.atleast_2d(extra_starts))
    need = max(n_starts - len(rows), 4)
    rand = rng.standard_normal((need, pf.n_free))
    rows.extend(rand / np.linalg.norm(rand, axis=1, keepdims=True))
    starts = np.array(rows)

    def gap(z):
        return energy_gap_and_grad(spec, pf, z)

    vals, z = minimize_on_sphere(gap, starts, r, rounds=250)
    order = np.argsort(vals)
    finalists = z[order[:6]] / r
    f_vals, f_z = minimize_on_sphere(gap, finalists, r, rounds=1500)
    best = int(np.argmin(f_vals))
    return float(f_vals[best]), f_z[best] / r


def fit_growth_order(
    spec: EnergySpec,
    pf: PinnedFramework,
    r_min: float = 1e-3,
    r_max: float = 1e-1,
    n_radii: int = DEFAULT_N_RADII,
    n_starts: int = DEFAULT_N_STARTS,
    seed: int = 0,
) -> GrowthFit:
    """Fit log m(r) against log r on a geometric radius grid.

    Radii are processed from largest to smallest; each radius seeds the next
    with the minimizing direction found so far.  Raises DegenerateFit when
    some m(r) <= 0, which signals a flexible framework or values below the
    floating-point floor rather than a fittable growth order.
    """
    if not 0.0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    radii = np.geomspace(r_max, r_min, n_radii)
    m_vals = np.empty(n_radii)
    kd = kernel_decomposition(rigidity_matrix(pf))
    carry = None
    for i, r in enumerate(radii):
        m_vals[i], arg = min_energy_on_sphere_with_arg(
            spec, pf, r, n_starts=n_starts, seed=seed + i, extra_starts=carry, kd=kd
        )
        carry = np.vstack([arg[None, :], -arg[None, :]])
    radii = radii[::-1]
    m_vals = m_vals[::-1]
    if np.any(m_vals <= 0.0) or not np.all(np.isfinite(m_vals)):
        raise DegenerateFit(
            "minimal energy gap is non-positive at some radius: the framework "
            "is flexible or the gap sits below the floating-point floor"
        )
    log_r = np.log(radii)
    log_m = np.log(m_vals)
    slope, intercept = np.polyfit(log_r, log_m, 1)
    pred = slope * log_r + intercept
    ss_res = float(np.sum((log_m - pred) ** 2))
    ss_tot = float(np.sum((log_m - np.mean(log_m)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    monotone = bool(np.all(np.diff(m_vals) >= 0.0))
    notes = []
    if not monotone:
        notes.append("m(r) is not monotone over the sampled radii")
    if np.any(m_vals < 1e-24):
        notes.append(
            "some m(r) sit at the floating-point floor: the framework is "
            "flexible or its growth order is beyond double precision"
        )
    if slope > SLOPE_RELIABLE_LIMIT:
        notes.append(
            f"fitted s = {slope:.2f} exceeds the double-precision reliability "
            f"limit (~{SLOPE_RELIABLE_LIMIT:.0f}); treat as indicative only"
        )
    return GrowthFit(
        family=spec.family,
        radii=radii,
        m_values=m_vals,
        fitted_s=float(slope),
        r2=r2,
        nu_hat=float(slope) / 2.0,
        monotone=monotone,
        notes=tuple(notes),
    )
