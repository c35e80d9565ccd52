"""The flex ladder: iterative linear solves that extend a first-order flex to
higher and higher order, certifying the rigidity order when dim K = 1.

Level l of the ladder solves R p_l = rhs_l where rhs_l collects the bilinear
terms of the order-l edge-length condition from the lower-level coefficients.
A solvable level extends the flex; the first unsolvable level l certifies
that a (1, l-1)-flex exists but no (1, l)-flex does, so the rigidity order is
l.  Solvability is a thresholded least-squares residual; residuals are kept
in the report so users can audit the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimKNotOne, RigidkitError
from .framework import PinnedFramework
from .linear import KernelDecomposition, kernel_decomposition, rigidity_matrix

DEFAULT_MAX_K = 32
DEFAULT_LADDER_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class PolyTrajectory:
    """Polynomial trajectory p(t) = p + sum_i coeffs[i-1] t^i in pinned
    coordinates; the base point is implicit.  coeffs[l-1] is the coefficient
    of t^l (Taylor coefficient, i.e. the l-th derivative divided by l!)."""

    coeffs: np.ndarray            # (degree, n_free)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 2:
            raise ValueError("coeffs must be a (degree, n_free) array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_free(self) -> int:
        return self.coeffs.shape[1]

    def prefix(self, degree: int) -> "PolyTrajectory":
        if not 1 <= degree <= self.degree:
            raise ValueError(f"prefix degree must be in 1..{self.degree}")
        return PolyTrajectory(self.coeffs[:degree])


@dataclass(frozen=True)
class LevelResidual:
    level: int
    residual: float
    threshold: float
    rhs_norm: float


@dataclass(frozen=True, eq=False)
class OrderReport:
    """Outcome of a rigidity-order computation.

    verdict is "order" (rigidity order .order certified), "flex-found"
    (a (1, max_k)-flex exists; no certificate up to max_k, likely flexible),
    or "inconclusive" (with .reason).  witness holds the flex coefficients
    that were found; residuals the per-level least-squares audit trail.
    kernel_method ("qr" or "svd") and rank_margin describe the kernel split
    (see KernelDecomposition); rigidity_order fills them in.
    """

    verdict: str
    order: int | None = None
    max_k: int | None = None
    reason: str | None = None
    method: str = "ladder"
    witness: PolyTrajectory | None = None
    residuals: tuple[LevelResidual, ...] = field(default=())
    dim_K: int | None = None
    kernel_method: str | None = None
    rank_margin: float | None = None

    def summary(self) -> str:
        if self.method == "graph":
            return f"flexible: {self.reason}"
        if self.verdict == "order":
            return f"rigidity order {self.order} ({self.method})"
        if self.verdict == "flex-found":
            return f"no rigidity certificate up to k={self.max_k}; (1,{self.max_k})-flex found"
        return f"inconclusive: {self.reason}"


def flex_rhs(pf: PinnedFramework, derivs, l: int) -> np.ndarray:
    """Right-hand side of the level-l flex equation R p_l = rhs_l.

    derivs supplies the derivative-convention coefficients p_1 .. p_{l-1}
    (pinned-coordinate vectors).  The edge-vw entry is
        -1/2 sum_{a=1}^{l-1} C(l,a) (p_a,v - p_a,w) . (p_{l-a},v - p_{l-a},w),
    the bilinear part of the l-th derivative of the squared edge lengths.
    For l = 1 the sum is empty and the rhs is zero.
    """
    if l < 1:
        raise ValueError("level must be >= 1")
    # (E, d, l - 1) endpoint differences of p_1 .. p_{l-1}; pinned slots read 0
    diffs = pf.edge_differences(np.asarray(derivs[: l - 1], dtype=float).reshape(l - 1, pf.n_free).T)
    weights = np.array([-0.5 * math.comb(l, a) for a in range(1, l)])
    return np.einsum("a,eda,eda->e", weights, diffs, diffs[..., ::-1])


def _sign_fixed_unit(v: np.ndarray) -> np.ndarray:
    u = v / np.linalg.norm(v)
    nz = np.flatnonzero(np.abs(u) > 1e-12 * np.max(np.abs(u)))
    if nz.size and u[nz[0]] < 0:
        u = -u
    return u


def _taylor_witness(derivs) -> PolyTrajectory:
    rows = [np.asarray(v, dtype=float) / math.factorial(l + 1) for l, v in enumerate(derivs)]
    return PolyTrajectory(np.vstack(rows))


def solve_ladder(
    pf: PinnedFramework,
    kd: KernelDecomposition,
    max_k: int = DEFAULT_MAX_K,
    tol: float = DEFAULT_LADDER_TOL,
) -> OrderReport:
    """Run the flex ladder (requires dim K = 1).

    Sets p_1 to the unit kernel vector (first nonzero entry positive), then
    for l = 2..max_k solves min ||R x - rhs_l|| by the minimum-norm
    pseudoinverse, which lands in K-bar automatically.  A level whose
    residual exceeds tol * (1 + ||rhs_l||) has no solution: the report is
    Order(l) and the witness collects the coefficients through l - 1
    (converted to Taylor coefficients, so the witness polynomial is itself a
    (1, l-1)-flex).  If every level up to max_k solves, the report is
    flex-found with the degree-max_k witness.  A level whose rhs norm or
    residual is not finite (the coefficients grow with the level and can
    overflow) raises RigidkitError naming that level.  tol must be finite
    and positive (ValueError otherwise): tol = inf accepts every level and
    tol <= 0 rejects level 2 on rounding alone.
    """
    if kd.dim_K != 1:
        raise DimKNotOne(
            f"the ladder requires dim K = 1, got {kd.dim_K}; "
            "only the energy-based order tests apply"
        )
    if max_k < 2:
        raise ValueError("max_k must be >= 2")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    derivs = [_sign_fixed_unit(kd.K_basis[:, 0])]
    records = []
    order = None
    for level in range(2, max_k + 1):
        rhs = flex_rhs(pf, derivs, level)
        rhs_norm = float(np.linalg.norm(rhs))
        x, residual = kd.solve_min_norm(rhs)
        if not (math.isfinite(rhs_norm) and math.isfinite(residual)):
            raise RigidkitError(
                f"ladder level {level}: rhs norm {rhs_norm:.3e}, residual {residual:.3e}; "
                "the flex coefficients overflow at this level"
            )
        threshold = tol * (1.0 + rhs_norm)
        records.append(LevelResidual(level, residual, threshold, rhs_norm))
        if residual > threshold:
            order = level
            break
        derivs.append(x)
    return OrderReport(
        verdict="flex-found" if order is None else "order",
        order=order,
        max_k=max_k,
        witness=_taylor_witness(derivs),
        residuals=tuple(records),
        dim_K=1,
    )


def _component_count(n_vertices: int, edges) -> int:
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


def rigidity_order(
    pf: PinnedFramework,
    max_k: int = DEFAULT_MAX_K,
    tol: float = DEFAULT_LADDER_TOL,
    energy_family: str = "harmonic",
) -> OrderReport:
    """Decide the rigidity order of a pinned framework.

    A graph with two or more connected components (an isolated vertex
    counts as one) is flexible: the components move apart freely, so the
    verdict is flex-found by the graph check, with no numerics beyond the
    kernel split.  Otherwise dim K = 0 certifies order 1 outright and
    dim K = 1 runs the flex ladder.  For dim K > 1 the ladder does not
    apply; the 4th-derivative energy test is attempted, which can certify
    order 2 (absence of a second-order flex) but nothing beyond.  That test
    draws no random numbers, so the verdict takes no seed (the CLI's --seed
    seeds the growth fit only).  The report names the kernel split's method
    and rank margin.
    """
    kd = kernel_decomposition(rigidity_matrix(pf))
    rep = _order_from_kernel(pf, kd, max_k, tol, energy_family)
    return replace(rep, kernel_method=kd.method, rank_margin=kd.rank_margin)


def _order_from_kernel(
    pf: PinnedFramework, kd: KernelDecomposition, max_k: int, tol: float,
    energy_family: str,
) -> OrderReport:
    parts = _component_count(pf.base.n_vertices, pf.base.edges)
    if parts > 1:
        return OrderReport(
            verdict="flex-found",
            reason=f"the graph has {parts} connected components, which move apart freely",
            method="graph",
            dim_K=kd.dim_K,
        )
    if kd.dim_K == 0:
        return OrderReport(verdict="order", order=1, method="first-order", dim_K=0)
    if kd.dim_K == 1:
        return solve_ladder(pf, kd, max_k=max_k, tol=tol)

    from .critpoint import second_order_rigidity_test  # deferred: avoids an import cycle
    from .energy import EnergySpec

    spec = EnergySpec.for_framework(pf.base, energy_family)
    crit = second_order_rigidity_test(pf, spec, kd)
    if crit.classification == "strict-min":
        return OrderReport(
            verdict="order", order=2, method="order4-energy", dim_K=kd.dim_K
        )
    return OrderReport(
        verdict="inconclusive",
        reason="dimK>1 beyond order 2 requires symbolic methods",
        method="order4-energy",
        dim_K=kd.dim_K,
    )
