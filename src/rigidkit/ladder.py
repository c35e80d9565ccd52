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

from . import critpoint
from .energy import EnergySpec, PolyTrajectory
from .errors import DimKNotOne, RigidkitError
from .framework import PinnedFramework, rigidity_matrix
from .linear import KernelDecomposition, kernel_decomposition

DEFAULT_MAX_K = 32
DEFAULT_LADDER_TOL = 1e-7


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


def flex_rhs(diffs: np.ndarray, l: int) -> np.ndarray:
    """Right-hand side of the level-l flex equation R p_l = rhs_l.

    diffs is a (k, n_edges, dimension) array, k >= l - 1, whose entry a - 1
    holds the edge differences p_a,v - p_a,w of the derivative-convention
    coefficient p_a (PinnedFramework.edge_differences of p_a); entries from
    l - 1 on are not read.  The edge-vw entry is
        -1/2 sum_{a=1}^{l-1} C(l,a) (p_a,v - p_a,w) . (p_{l-a},v - p_{l-a},w),
    the bilinear part of the l-th derivative of the squared edge lengths.
    The terms a and l - a are equal, so it sums the pairs a <= l/2 with weight
    C(l,a), the middle term of an even l with half that: O(l E d) work on
    differences gathered once per coefficient.  For l = 1 the sum is empty
    and the rhs is zero.
    """
    if l < 1:
        raise ValueError("level must be >= 1")
    k, n_edges, dim = np.shape(diffs)
    if k < l - 1:
        raise ValueError(f"level {l} needs the differences of {l - 1} coefficients, got {k}")
    half = l // 2
    weights = np.array([-float(math.comb(l, a)) for a in range(1, half + 1)])
    if l % 2 == 0:
        weights[-1] *= 0.5
    # (k, E d): row a - 1 is p_a's differences; pair row a - 1 with row l - a - 1
    flat = np.reshape(diffs, (k, n_edges * dim))
    pairs = flat[:half] * flat[l - half - 1:l - 1][::-1]
    return (weights @ pairs).reshape(n_edges, dim) @ np.ones(dim)


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
    pseudoinverse, which lands in K-bar automatically.  Each coefficient's
    edge differences are gathered once, into one (max_k - 1, E, d) buffer
    that every later level's flex_rhs reads, so a ladder of k levels costs
    O(k E d) gathers plus k solves (and O(k^2 E d) multiply-adds over
    contiguous rows in flex_rhs).  A level whose
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
    # entry a - 1: the edge differences of p_a, gathered once when p_a is found
    diffs = np.empty((max_k - 1, pf.base.n_edges, pf.base.dimension))
    diffs[0] = pf.edge_differences(derivs[0])
    records = []
    order = None
    for level in range(2, max_k + 1):
        rhs = flex_rhs(diffs, level)
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
        if level < max_k:
            diffs[level - 1] = pf.edge_differences(x)
    return OrderReport(
        verdict="flex-found" if order is None else "order",
        order=order,
        max_k=max_k,
        witness=_taylor_witness(derivs),
        residuals=tuple(records),
        dim_K=1,
    )


def _component_count(framework) -> int:
    """Connected components of the framework's graph; an isolated vertex is
    a component of its own.  Min-label propagation with pointer jumping:
    every vertex points at a lower-or-equal vertex, a root at itself.  Each
    round hooks the larger root of every edge's two roots onto the smaller
    one, then jumps pointers until each vertex points at its root.  Once no
    edge joins two roots, the roots count the components."""
    v, w = framework.edge_index_arrays()
    parent = np.arange(framework.n_vertices)
    while True:
        root_v, root_w = parent[v], parent[w]
        if np.array_equal(root_v, root_w):
            return int(np.count_nonzero(parent == np.arange(parent.size)))
        low = np.minimum(root_v, root_w)
        np.minimum.at(parent, np.maximum(root_v, root_w), low)
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped


def _disconnected_reason(framework) -> str | None:
    """The graph check's reason when the framework's graph has two or more
    connected components, else None."""
    parts = _component_count(framework)
    return f"the graph has {parts} connected components, which move apart freely" if parts > 1 else None


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
    apply; the 4th-derivative energy test can certify order 2 (absence of a
    second-order flex) but nothing beyond, and any other outcome is
    inconclusive, with the test's classification and first note as reason.
    That verdict comes from critpoint.second_order_rigidity_verdict, which
    runs second_order_rigidity_test's search but not the Newton polish that
    refines its report, except when the search stops undecided.
    The report names the kernel split's method and rank margin.
    """
    kd = kernel_decomposition(rigidity_matrix(pf))
    rep = _order_from_kernel(pf, kd, max_k, tol, energy_family)
    return replace(rep, kernel_method=kd.method, rank_margin=kd.rank_margin)


def _order_from_kernel(
    pf: PinnedFramework, kd: KernelDecomposition, max_k: int, tol: float,
    energy_family: str,
) -> OrderReport:
    reason = _disconnected_reason(pf.base)
    if reason is not None:
        return OrderReport(verdict="flex-found", reason=reason, method="graph", dim_K=kd.dim_K)
    if kd.dim_K == 0:
        return OrderReport(verdict="order", order=1, method="first-order", dim_K=0)
    if kd.dim_K == 1:
        return solve_ladder(pf, kd, max_k=max_k, tol=tol)

    spec = EnergySpec.for_framework(pf.base, energy_family)
    classification, note = critpoint.second_order_rigidity_verdict(pf, spec, kd)
    strict = classification == "strict-min"
    reason = f"order-4 test {classification}; {note}; dimK>1 beyond order 2 requires symbolic methods"
    return OrderReport(verdict="order" if strict else "inconclusive", order=2 if strict else None,
                       reason=None if strict else reason, method="order4-energy", dim_K=kd.dim_K)
