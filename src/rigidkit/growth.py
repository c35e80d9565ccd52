"""Empirical energy-growth probing: minimal energy gap on spheres of
shrinking radius and the log-log slope fit that estimates the tight growth
order s (rigidity order = s / 2).

The minimum m(r) of E(q) - E(p) over the sphere |q - p| = r in pinned
coordinates is found by minimize_on_sphere: Riemannian Newton steps on the
sphere, with the gap, gradient and Hessian at p + z all from one pass of
the pointwise energy kernel.  Each Newton round evaluates the candidates
of all rows still moving in one kernel call, keeps each row's Hessian with
its gradient, and solves the bordered systems of the rows that moved as
one stack.  Near a minimizer the sphere's tangent space is close to the
complement of the flex space, where the Hessian is well conditioned (the
block the order-4 test eliminates), so Newton settles in a few steps.
Rows never mix, and the radius is a per-row column.  The radius sweep
(min_energy_on_sphere_with_arg) is seedless and one Newton batch: every
radius starts from +/- the lowest eigenvector of the rest Hessian, with no
continuation between radii.  The fit runs at dim K <= 1 only, the regime
of the flex ladder it cross-checks; at dim K > 1 it refuses, and the
order-4 test (rigidkit critpoint) is the check there.  The order-4
critical-point tests decide the sign of mu, their quartic with the
curvature block eliminated in closed form, by a Bernstein branch and
bound, and use the same Newton minimizer, with mu's Hessian, only to
polish the reported minimum from the point that decided.

Any local method only upper-bounds the true minimum, so the fit is a
cross-check on the ladder, not an oracle.  Double precision limits
reliable slope recovery to s of roughly 10 or below, and below
m ~ 1e-20 lambda_max r^2 the gap kernel's rounding, not the minimizer,
sets the accuracy of m(r); the fit notes record both.  GrowthFit keeps,
per radius, the Newton steps taken and the final tangent gradient
relative to the whole gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import EnergySpec, energy_gap_grad_hess, energy_value_grad_hess
from .errors import DegenerateFit, ZeroLengthEdge
from .framework import PinnedFramework, rigidity_matrix
from .linear import kernel_decomposition

DEFAULT_N_RADII = 12
NEWTON_ROUNDS = 50        # round limit of minimize_on_sphere
NEWTON_LOCAL = 1e-6       # steps shorter than NEWTON_LOCAL r skip the value test
NEWTON_XTOL = 1e-15       # converged: Newton step shorter than NEWTON_XTOL r
NEWTON_TMIN = 1e-3        # stalled: backtracked below this share of the step
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
    newton_steps: np.ndarray      # accepted Newton steps of the minimizing row, per radius
    tangent_ratio: np.ndarray     # its final |tangent gradient| / |gradient|, per radius
    notes: tuple[str, ...] = field(default=())


@dataclass(frozen=True, eq=False)
class NewtonStats:
    """How a Newton run of minimize_on_sphere ended, as arrays over its rows:
    accepted Newton steps, the final |tangent gradient| / |gradient|, and
    whether the row converged, that is stopped once its Newton steps became
    negligible or no longer shrank, rather than on a failed line search or
    the round limit."""

    steps: np.ndarray
    tangent_ratio: np.ndarray
    converged: np.ndarray


def _check_radius(spec: EnergySpec, r: float) -> None:
    """Refuse a radius that is not finite and positive, or that reaches the
    safe radius, half the shortest rest length, where an edge can collapse;
    raise DegenerateFit for a spec with no edges, whose energy is zero at
    every radius."""
    if not (np.isfinite(r) and r > 0.0):
        raise ValueError(f"radius must be finite and positive, got {r}")
    if spec.rest_lengths.size == 0:
        raise DegenerateFit("the framework has no edges: its energy is zero at every radius")
    safe = 0.5 * float(np.min(spec.rest_lengths))
    if r >= safe:
        raise ZeroLengthEdge(f"radius {r} exceeds the safe radius {safe:.6g} (half the shortest rest length)")


def _tangent(grads: np.ndarray, z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The tangent part of each gradient row z[i] on the sphere of radius
    r[i]."""
    zh = z / r[:, None]
    return grads - (grads * zh).sum(1)[:, None] * zh


def _newton_direction(h: np.ndarray, g: np.ndarray, z: np.ndarray, g_tan: np.ndarray, r: np.ndarray):
    """Tangent Newton steps at the rows of z from their bordered systems,
    written with the unit normals z / r and solved as one stack; when the
    stacked solve raises, row by row.  Where a row's system is singular or
    its solution is not a descent direction, the Cauchy step along
    -g_tan instead, or a step of length r where the tangent curvature along
    it is not positive.  Capped at length r[i] per row."""
    n_rows, dim = z.shape
    zh = z / r[:, None]
    kkt = np.zeros((n_rows, dim + 1, dim + 1))
    kkt[:, :dim, :dim] = h - ((g * zh).sum(1) / r)[:, None, None] * np.eye(dim)
    kkt[:, :dim, dim] = zh
    kkt[:, dim, :dim] = zh
    rhs = np.zeros((n_rows, dim + 1, 1))
    rhs[:, :dim, 0] = -g
    try:
        eta = np.linalg.solve(kkt, rhs)[:, :dim, 0]
    except np.linalg.LinAlgError:
        # a row whose own solve raises keeps g_tan, an ascent direction,
        # and so takes the fallback below
        eta = g_tan.copy()
        for i in range(n_rows):
            try:
                eta[i] = np.linalg.solve(kkt[i], rhs[i])[:dim, 0]
            except np.linalg.LinAlgError:
                pass
    fallback = ~np.isfinite(eta).all(1) | ((eta * g_tan).sum(1) >= 0.0)
    for i in np.flatnonzero(fallback):
        gg = g_tan[i] @ g_tan[i]
        curv = g_tan[i] @ kkt[i, :dim, :dim] @ g_tan[i]
        if curv > 0.0:
            eta[i] = -(gg / curv) * g_tan[i]
        else:
            eta[i] = -(r[i] / np.sqrt(gg)) * g_tan[i] if gg > 0.0 else 0.0
    size = np.sqrt((eta * eta).sum(1))
    return eta * (r / np.maximum(size, r))[:, None]


def minimize_on_sphere(value_grad_hess, starts: np.ndarray, r=1.0):
    """Minimize a function over the sphere |z| = r by Riemannian Newton
    steps from a batch of start directions; returns the final values (B,),
    points (B, dim) and the rows' NewtonStats.  r is one radius for all
    rows or a (B,) array of one per row; the minimizer never mixes rows.
    value_grad_hess maps a (B, dim) batch of points to (values (B,),
    gradients (B, dim), Hessians (B, dim, dim)), all from one call.

    Each round takes a Riemannian Newton step per row (Absil, Mahony &
    Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, ch. 6):
    the tangent step eta solves
    [[H - lam I, z], [z', 0]] [eta; mu] = [-g; 0] with lam = g.z / r^2.
    Each row keeps its Hessian next to its gradient, from the call that
    evaluated its point, and the rows that moved since their last direction
    get theirs from one stacked solve.  z + t eta is pulled back onto the
    sphere, value_grad_hess evaluates the candidates of the rows still
    moving in one call, and an Armijo test keeps each move, with its value,
    gradient and Hessian; a rejected one halves t.
    Steps shorter than NEWTON_LOCAL r skip the test.  A row has converged
    once its step is shorter than NEWTON_XTOL r, or is such a local step
    no shorter than half the step before it: Newton converges
    quadratically, so a step that stops shrinking is driven by rounding,
    not curvature.  A row has stalled once t drops below NEWTON_TMIN.  The
    loop ends when no row is left to move, or after NEWTON_ROUNDS rounds.
    """
    r = np.full(starts.shape[0], r, dtype=float)
    z = r[:, None] * starts / np.sqrt((starts * starts).sum(1))[:, None]
    # owned copies: accepted rows are written into them in place
    vals, grads, hess = (np.array(a, dtype=float) for a in value_grad_hess(z))
    n_rows = z.shape[0]
    t = np.ones(n_rows)
    eta = np.zeros_like(z)
    steps = np.zeros(n_rows, dtype=int)
    fresh = np.ones(n_rows, dtype=bool)       # moved since its last direction
    last = np.full(n_rows, np.inf)            # length of the last accepted step
    converged = np.zeros(n_rows, dtype=bool)
    stalled = np.zeros(n_rows, dtype=bool)    # backtracked below NEWTON_TMIN
    for _ in range(NEWTON_ROUNDS):
        g_tan = _tangent(grads, z, r)
        stalled |= ~converged & (t < NEWTON_TMIN)
        rows = np.flatnonzero(fresh & ~converged & ~stalled)
        if rows.size:
            eta[rows] = _newton_direction(hess[rows], grads[rows], z[rows], g_tan[rows], r[rows])
        size = t * np.sqrt((eta * eta).sum(1))
        local = size <= NEWTON_LOCAL * r
        stagnant = local & (size >= 0.5 * last)
        converged |= ~stalled & ((size <= NEWTON_XTOL * r) | stagnant)
        active = ~converged & ~stalled
        if not active.any():
            break
        moving = np.flatnonzero(active)
        cand = z[moving] + t[moving, None] * eta[moving]
        cand *= r[moving, None] / np.sqrt((cand * cand).sum(1))[:, None]
        c_vals, c_grads, c_hess = value_grad_hess(cand)
        slope = (g_tan[moving] * eta[moving]).sum(1)
        # a local step lies where Newton converges without a line search,
        # and the gap's change over it can sit below the kernel's rounding,
        # where the value test would refuse it at random
        keep = local[moving] | (c_vals < vals[moving] + 1e-4 * t[moving] * slope)
        improve = np.zeros(n_rows, dtype=bool)
        improve[moving] = keep
        moved = moving[keep]
        z[moved], vals[moved] = cand[keep], c_vals[keep]
        grads[moved], hess[moved] = c_grads[keep], c_hess[keep]
        steps += improve
        last = np.where(improve, size, last)
        t = np.where(improve, 1.0, 0.5 * t)
        fresh = improve
    g_tan = _tangent(grads, z, r)
    gnorm = np.sqrt((grads * grads).sum(1))
    ratio = np.sqrt((g_tan * g_tan).sum(1)) / np.where(gnorm > 0.0, gnorm, 1.0)
    return vals, z, NewtonStats(steps, ratio, converged)


def min_energy_on_sphere_with_arg(spec: EnergySpec, pf: PinnedFramework, radii):
    """Best upper bounds on m(r) = min E(q) - E(p) over |q - p| = r at each
    radius of radii (one radius or a 1-D array): returns the m values, the
    minimizing unit directions, the NewtonStats of their rows and
    lambda_max, the rest Hessian's largest eigenvalue.

    Every radius is checked first (_check_radius), before any energy
    evaluation.  The radii are then one Newton batch: rows 2i and 2i + 1
    start radius i from +/- the lowest eigenvector of the rest Hessian (the
    flex when dim K = 1, the softest mode when dim K = 0), and radius i
    keeps its better row.  Rows never mix, so there is no continuation
    between radii, and no start is random."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    for r in radii:
        _check_radius(spec, r)
    lam, vecs = np.linalg.eigh(energy_value_grad_hess(spec, pf)[2])
    n_radii = radii.size
    starts = np.tile([vecs[:, 0], -vecs[:, 0]], (n_radii, 1))
    vals, z, stats = minimize_on_sphere(
        lambda z: energy_gap_grad_hess(spec, pf, z), starts, np.repeat(radii, 2)
    )
    best = 2 * np.arange(n_radii) + np.argmin(vals.reshape(n_radii, 2), axis=1)
    rows = NewtonStats(stats.steps[best], stats.tangent_ratio[best], stats.converged[best])
    return vals[best], z[best] / radii[:, None], rows, float(lam[-1])


def fit_growth_order(
    spec: EnergySpec,
    pf: PinnedFramework,
    r_min: float = 1e-3,
    r_max: float = 1e-1,
    n_radii: int = DEFAULT_N_RADII,
    seed: int = 0,
) -> GrowthFit:
    """Fit log m(r) against log r on a geometric radius grid, whose m(r)
    come from one call of min_energy_on_sphere_with_arg.  The fit draws no
    random numbers: seed does nothing, and is kept only because the
    benchmark harness passes it; it goes when the harness stops passing it
    (ROADMAP item 14).

    Raises DegenerateFit, before any energy evaluation, when dim K > 1: the
    fit cross-checks the flex ladder, whose regime is dim K <= 1, and the
    order-4 test (rigidkit critpoint) is the check at dim K > 1.  Raises
    ZeroLengthEdge, before any energy evaluation, when r_max reaches the
    safe radius, half the shortest rest length, and DegenerateFit when the
    spec has no edges: the energy is then zero at every radius.  Raises
    DegenerateFit too when some m(r) <= 0, or when m(r_max) <=
    u^2 lambda_max r_max^2 (u the machine epsilon, lambda_max the rest
    Hessian's largest eigenvalue), which signals a flexible framework or
    values below the floating-point floor rather than a fittable growth
    order.  The rule is dimensionless, so it holds at any length scale.
    """
    if not (np.isfinite(r_min) and np.isfinite(r_max) and 0.0 < r_min < r_max):
        raise ValueError("need finite radii with 0 < r_min < r_max")
    if n_radii < 2:
        raise ValueError("need n_radii >= 2: a slope takes at least two radii")
    kd = kernel_decomposition(rigidity_matrix(pf))
    if kd.dim_K > 1:
        raise DegenerateFit(
            f"the growth fit needs dim K <= 1, the flex ladder's regime, and dim K = {kd.dim_K}: "
            "the order-4 test (rigidkit critpoint) is the check here"
        )
    radii = np.geomspace(r_max, r_min, n_radii)
    m_vals, _, stats, lam_max = min_energy_on_sphere_with_arg(spec, pf, radii)
    radii, m_vals = radii[::-1], m_vals[::-1]
    newton_steps, tangent_ratio = stats.steps[::-1], stats.tangent_ratio[::-1]
    converged = stats.converged[::-1]
    # a mechanism's m(r) is rounding noise: the flexible square reads
    # m(r_max) <= 5e-35 lam_max r_max^2 at any scale, the corpus >= 2e-16
    floor = np.finfo(float).eps ** 2 * lam_max * r_max**2
    if np.any(m_vals <= 0.0) or not np.all(np.isfinite(m_vals)) or m_vals[-1] <= floor:
        raise DegenerateFit(
            "minimal energy gap is non-positive at some radius, or at r_max "
            "no more than u^2 lambda_max r_max^2: the framework is flexible or "
            "the gap sits below the floating-point floor"
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
    # relative like DegenerateFit's floor: on the corpus, min m(r) /
    # (lambda_max r^2) is <= 3.7e-21 where a growth order is past double
    # precision and >= 5.1e-19 elsewhere, at any length scale
    if np.any(m_vals < 1e-20 * lam_max * radii**2):
        notes.append(
            "some m(r) sit at the floating-point floor: the framework is "
            "flexible or its growth order is beyond double precision"
        )
    if not converged.all():
        missed = ", ".join(f"{r:.3g}" for r in radii[~converged])
        notes.append(
            f"the sphere minimizer did not converge at r = {missed}: its Newton "
            "steps hit the round limit or no longer lowered the gap"
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
        newton_steps=newton_steps,
        tangent_ratio=tangent_ratio,
        notes=tuple(notes),
    )
