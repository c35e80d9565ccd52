"""Classification of degenerate critical points by a 4th-derivative test, and
its rigidity applications: the order-4 second-order-rigidity certificate and
the order-2k family test that cross-checks the flex ladder when dim K = 1.

The 4th-derivative test probes f along the trajectory family
x(t) = x0 t^2, y(t) = y0 t with (x0, y0) on the unit parameter sphere, where
the y-coordinates span the Hessian kernel.  The t^4 coefficient
a4(x0, y0) decides the critical point when it has a uniform sign over the
sphere; fourth_derivative_test screens the cubic kernel form T first,
since any y_i y_j y_k term already forces a saddle (an edge-length
energy's T vanishes, so the rigidity tests run no screen).

a4 decomposes exactly as
    a4(x0, y0) = 1/2 x0' Hxx x0  +  sum_i x0_i Ci(y0, y0)  +  B(y0^4),
with Hxx definite on the non-kernel block.  The forms are assembled
once from exact order-3 gradient jets along the lines Y a t, one per
lattice point a in N^m with |a| = 3 (m = dim K; 1, 4 and 10 jets at
m = 1, 2, 3), all taken in one batched call.  Their t^2 rows give the
(dim, m, m) tensor S with
    y' S y = [t^2] grad f(Y y t) = 1/2 D^3 f(Y y, Y y, .),
so C = X'S and T = Y'S / 3, and Y' times their t^3 rows gives
4 B(y, y, y, .).  The lattice determines every homogeneous cubic
(Griewank, Utke & Walther, Math. Comp. 69 (2000)), and fixed polarization
identities read S and B off it, with index arrays built once per m (see
_assemble_quartic_forms).  The number of jets thus depends on the kernel
dimension m only, not on the size of the non-kernel block.

For fixed y0 the x0 part is a definite quadratic, extremized in closed form
at x0 = -Hxx^-1 c(y0), c(y0) = (Ci(y0, y0))_i.  This leaves
    mu(y0) = B(y0^4) - 1/2 c(y0)' Hxx^-1 c(y0),
and for a PSD Hessian a4 > 0 on the parameter sphere exactly when mu > 0 on
the unit kernel sphere.  For an NSD Hessian the signs flip (a4 < 0 exactly
when mu < 0), so NSD Hessians are handled by the search's sign, on -mu,
in the same pass.

At a framework at rest the rigidity test needs no jet.  Along
p + t y + t^2 x, y in K, phi'(d_e^2) = 0 and R y = 0 leave the t^4
coefficient 1/2 sum_e phi''_e (q_e(y) + 2 (R x)_e)^2, q_e(y) = |y_v - y_w|^2,
and minimizing over x leaves mu(y) = 1/2 v' G^-1 v, v_s = y' Q_s y, with
Q_s = sum_e w_es dY_e' dY_e over the self-stress basis W and G = W' D^-1 W,
D = diag phi'' (the second-order stress condition of Connelly & Whiteley,
SIAM J. Discrete Math. 9 (1996)).  The family changes G, never the zero
set of v, so the order this certifies does not depend on the energy.
One stress combination omega with lam = lambda_min(sum_s omega_s Q_s) > 0
then proves min mu >= 1/2 lam^2 / (omega' G omega) by Cauchy-Schwarz
(prestress stability): second_order_rigidity_verdict tries
omega = t / |t|, t_s = tr Q_s, with one m x m eigvalsh, and when that bound
exceeds tol_eff it certifies order 2 with no search, at any m.

Both order-4 tests, and the order-2k test through the same
reduction at m = 1, decide the sign of mu there with _kernel_search, a
deterministic Bernstein branch and bound: a strict verdict carries a
certified bound on min mu beyond tol_eff, a saddle a sphere point where mu
is below -tol_eff, and an inconclusive one a certificate that min mu lies
within +/- tol_eff, or the note that the box cap was reached.  tol_eff =
tol (1 + scale) is fixed from the forms before the search, with scale =
max(||M||_F, ||B||_F) for M the symmetric 4-tensor of mu: by Cauchy-Schwarz
it bounds |mu| and |B(y^4)| on the whole sphere, it is the same in every
kernel basis, and no search path moves it.  At m = 1 the sphere is
{+1, -1} and mu(e_1) is exact, so the search decides it in closed form,
with no box: the order-2k test and every one-dimensional kernel cost a few
scalar operations past the jets.  At m >= 2 the reports then polish the
least point by minimize_on_sphere's Newton steps, which refines the
reported extreme and its arg point but cannot change a decided search's
classification; second_order_rigidity_verdict, the classification and
certificate without the report that ladder.rigidity_order reads at
dim K >= 2, searches only when the prestress certificate fails and
polishes only when the search stopped undecided.  The report reads the
prestress certificate only where its search stopped undecided at the box
cap, so its verdict is the search's wherever the search decides.

Targets provide dim, grad0, hessian0 and gradient_jet_along(rows, order),
the Taylor coefficient rows of grad f along the polynomial trajectory
v(t) = sum_l rows[l-1] t^l: (degree, dim) rows give a (dim, order+1)
array, and a (B, degree, dim) batch of rows gives (B, dim, order+1), row by
row the single calls' arrays up to rounding.  The order-4 assembly makes
one batched call.  PolynomialTarget differentiates in
gradient_jet_along only: its grad0 and hessian0 are the order-0 and order-1
rows of its jets along v = 0 and along the coordinate axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb

import numpy as np

from .energy import (EnergySpec, PolyTrajectory, _check_binding, _gap_and_slope, energy_along_trajectory,
                     energy_value_grad_hess, gradient_along_trajectory)
from .errors import DimKNotOne, NotACriticalPoint, RigidkitError
from .framework import PinnedFramework, _as_float, _as_int, rigidity_matrix
from .growth import minimize_on_sphere
from .jets import Jet
from .linear import KernelDecomposition, kernel_decomposition

DEFAULT_CRIT_TOL = 1e-8
BOX_CAP = 4096   # boxes the order-4 branch and bound may bound before it gives up


# ---------------------------------------------------------------------------
# analytic targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PolynomialTarget:
    """Multivariate polynomial given as a monomial list: ((exps, coef), ...).

    Any constant term is treated as f(0) and ignored (the analysis applies to
    f - f(0)).  The gradient at the origin must vanish for the tests to
    apply.  Exponents are integers >= 0; a coefficient times its exponents is finite.
    """

    n_vars: int
    monomials: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError("a polynomial needs at least one variable")
        canon = []
        for exps, coef in self.monomials:
            exps, coef = tuple(map(_as_int, exps)), _as_float(coef)
            if len(exps) != self.n_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            if not np.isfinite(coef):
                raise ValueError(f"coefficient {coef} is not finite")
            if not np.isfinite(coef * max(exps, default=0)):   # inf * 0 would be NaN in the jets
                raise ValueError(f"coefficient {coef} times exponent {max(exps)} is beyond a float's range")
            canon.append((exps, coef))
        object.__setattr__(self, "monomials", tuple(canon))

    @property
    def dim(self) -> int:
        return self.n_vars

    def grad0(self) -> np.ndarray:
        """grad f(0), the order-0 row of the gradient jet along v(t) = 0."""
        return self.gradient_jet_along(np.zeros((1, self.n_vars)), 0)[:, 0]

    def hessian0(self) -> np.ndarray:
        """The Hessian at 0, H[i, b] = [t^1] d_i f(e_b t): the order-1 rows
        of one batched gradient jet along the coordinate axes e_b."""
        return np.ascontiguousarray(self.gradient_jet_along(np.eye(self.n_vars)[:, None, :], 1)[:, :, 1].T)

    def _variable_jets(self, rows, order: int) -> list[Jet]:
        """One Jet per variable of v(t) = sum_l rows[..., l-1, :] t^l, its
        coefficients (..., order+1) for (..., degree, n_vars) rows."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        upto = min(rows.shape[-2], order)
        c = np.zeros(rows.shape[:-2] + (self.n_vars, order + 1))
        c[..., 1:upto + 1] = np.swapaxes(rows[..., :upto, :], -1, -2)
        return [Jet(c[..., i, :]) for i in range(self.n_vars)]

    @staticmethod
    def _monomial_jet(var_jets: list[Jet], coef: float, exps) -> Jet:
        term = Jet.constant(coef, var_jets[0].order)
        for i, e in enumerate(exps):
            if e:
                term = term * var_jets[i].power(e)
        return term

    def gradient_jet_along(self, rows: np.ndarray, order: int) -> np.ndarray:
        """(n_vars, order+1) Taylor coefficient rows of grad f along
        v(t) = sum_l rows[l-1] t^l, from the jets of the differentiated
        monomials; a (B, degree, n_vars) batch of rows gives
        (B, n_vars, order+1)."""
        var_jets = self._variable_jets(rows, order)
        out = np.zeros(var_jets[0].c.shape[:-1] + (self.n_vars, order + 1))
        for exps, coef in self.monomials:
            for i, e in enumerate(exps):
                if e:
                    lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
                    out[..., i, :] += self._monomial_jet(var_jets, coef * e, lowered).c
        return out


def polynomial_from_monomial_list(data) -> PolynomialTarget:
    """Build a PolynomialTarget from [{"exps": [...], "coef": r}, ...];
    the first monomial's exponents fix the number of variables."""
    try:
        monos = [(tuple(item["exps"]), item["coef"]) for item in data]
    except (KeyError, TypeError) as exc:
        raise ValueError(f'each monomial needs "exps" and "coef" ({type(exc).__name__}: {exc})') from exc
    if not monos:
        raise ValueError("empty monomial list")
    return PolynomialTarget(len(monos[0][0]), tuple(monos))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CritReport:
    """Result of a derivative test at a critical point.

    classification: "strict-min" | "strict-max" | "saddle" | "inconclusive".
    resolved_by records which stage decided: "hessian" (classical second
    derivative test), "cubic" (a kernel y_i y_j y_k term), "quartic" (the
    order-4 family), or "order2k-family".  For "quartic" at a PSD Hessian,
    a_min is min mu on the unit kernel sphere, not a4 at the arg_min point
    (a4 is s^4 a_min there), and a_max is a4 at its point; at an NSD Hessian
    a_max is max mu and a_min is a4 at its point (see fourth_derivative_test).
    Arg points are reported in original coordinates as (velocity, curvature) =
    (t-part, t^2..t^k-part) of the extremizing trajectory.  The two
    rigidity tests, second_order_rigidity_test and order2k_family_test,
    report a_min = min mu and the arg point (Y y, x) / sqrt(1 + |x|^2) of
    the kernel search's least point y and its closed-form x-part x in K-bar,
    and their notes start with the search's certificate (for the order-4
    test past the box cap, the prestress certificate when it holds), then
    name the closed form (mu = 1/2 v' G^-1 v for the order-4 test).
    scale sets the threshold tol_eff = DEFAULT_CRIT_TOL (1 + scale): for
    "hessian" it is max |lam|; for "cubic" the cubic kernel form's ||T||_F;
    for "quartic" and "order2k-family" the forms' max(||M||_F, ||B||_F)
    (module docstring), with 1/2 |lam_top| added in fourth_derivative_test.
    Apart from "hessian"'s, each is the same in every kernel basis.
    """

    classification: str
    resolved_by: str
    order: int
    nullity: int
    a_min: float | None = None
    a_max: float | None = None
    arg_min_velocity: np.ndarray | None = None
    arg_min_curvature: np.ndarray | None = None
    arg_max_velocity: np.ndarray | None = None
    arg_max_curvature: np.ndarray | None = None
    a3_witness: np.ndarray | None = None
    scale: float = 0.0
    notes: tuple[str, ...] = field(default=())


# ---------------------------------------------------------------------------
# quartic form assembly
# ---------------------------------------------------------------------------

def _symmetrized(quart: np.ndarray) -> np.ndarray:
    """The mean of an (m, m, m, m) tensor over the 24 orders of its axes:
    S_(k+1) is the union of the cosets (i k) S_k, i <= k, so the mean over
    S_4 is three coset means, 6 transposes instead of 23."""
    for k in (1, 2, 3) if quart.shape[0] > 1 else ():
        quart = (quart + sum(np.swapaxes(quart, i, k) for i in range(k))) / (k + 1.0)
    return quart


class _MuForms:
    """mu's symmetric 4-tensor M and the kernel quartic B = a4(0, y), symmetric."""

    @cached_property
    def scale(self) -> float:
        """max(||M||_F, ||B||_F), by hypot so that no square overflows: by
        Cauchy-Schwarz it bounds |mu| and |B(y^4)| on the whole unit sphere,
        whatever the kernel basis; at m = 1 it is max(|mu|, |B|) exactly."""
        return max(float(np.hypot.reduce(np.abs(t).ravel())) for t in (self.M, self.B))

    def prestress_note(self, tol_eff: float) -> str | None:
        """A certificate on min mu > tol_eff that needs no search, or None:
        only the stress forms have one (_StressForms.prestress)."""
        return None


@dataclass(frozen=True, eq=False)
class _QuarticForms(_MuForms):
    """Closed-form a4 over the parameter sphere:
    a4(x, y) = 1/2 x' Hxx x + sum_i x_i (y' C[i] y) + B(y,y,y,y),
    and the cubic kernel form T(y,y,y), the t^3 coefficient of f(Y y t);
    their reduction to mu (hinv_c, M, scale) is formed once, on first use."""

    Hxx: np.ndarray        # (n, n)
    C: np.ndarray          # (n, m, m)
    B: np.ndarray          # (m, m, m, m) symmetric
    T: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))   # (m, m, m) symmetric

    @cached_property
    def hinv_c(self) -> np.ndarray:
        """Hxx^-1 C_flat, (n, m^2): x = -hinv_c (y (x) y) extremizes a4 at y."""
        n, m = self.C.shape[:2]
        return np.linalg.solve(self.Hxx, self.C.reshape(n, m * m)) if n else np.zeros((0, m * m))

    @cached_property
    def M(self) -> np.ndarray:
        """mu's symmetric 4-tensor Sym(B - 1/2 C_flat' Hxx^-1 C_flat): since
        c(y) = C_flat (y (x) y), mu(y) = M(y, y, y, y), one solve for all y."""
        n, m = self.C.shape[:2]
        return _symmetrized(self.B - 0.5 * (self.C.reshape(n, m * m).T @ self.hinv_c).reshape((m,) * 4))

    def x_part(self, y: np.ndarray) -> np.ndarray:
        """x = -Hxx^-1 c(y), in the x-coordinates: it extremizes a4 at y."""
        return -self.hinv_c @ np.outer(y, y).reshape(-1)


@dataclass(frozen=True, eq=False)
class _StressForms(_MuForms):
    """mu at a framework at rest, from its self-stresses (module docstring)."""

    M: np.ndarray          # 1/2 Sym sum_ss' (G^-1)_ss' Q_s (x) Q_s'
    B: np.ndarray          # 1/2 Sym sum_e phi''_e A_e (x) A_e
    rhs: np.ndarray        # (E, m^2): D^-1 W G^-1 v - q(y) = rhs (y (x) y)
    kd: KernelDecomposition
    Q: np.ndarray          # (s, m, m): Q_s = sum_e w_es A_e
    G: np.ndarray          # (s, s): W' D^-1 W, SPD

    def x_part(self, y: np.ndarray) -> np.ndarray:
        """x = 1/2 R^+ (D^-1 W G^-1 v - q(y)) in pinned coordinates: the x in
        K-bar that minimizes a4 at y."""
        return 0.5 * self.kd.solve_min_norm(self.rhs @ np.outer(y, y).reshape(-1))[0]

    @cached_property
    def prestress(self) -> tuple[float, float]:
        """(bound, lam): the prestress certificate on min mu from the one
        stress combination omega = t / |t|, t_s = tr Q_s.  For unit y,
        omega' v = y' S y >= lam with S = sum_s omega_s Q_s, and by
        Cauchy-Schwarz in G's inner product (omega' v)^2 <= (omega' G omega)
        (v' G^-1 v), so lam > 0 proves min mu >= 1/2 lam^2 / (omega' G omega)
        (prestress stability, Connelly & Whiteley 1996).  lam is eigvalsh's
        least eigenvalue of S lowered by its rounding bound m eps ||S||_F.
        S and omega' G omega, so both numbers, are the same in every
        orthonormal basis of K and of W.  bound is -inf when lam <= 0, and
        lam is NaN when t = 0 (so always when W is empty)."""
        t = np.trace(self.Q, axis1=1, axis2=2)
        norm = float(np.linalg.norm(t))
        if not norm > 0.0:
            return -np.inf, np.nan
        omega = t / norm
        s = np.tensordot(omega, self.Q, axes=1)
        lam = float(np.linalg.eigvalsh(s)[0]) - s.shape[0] * np.finfo(float).eps * float(np.linalg.norm(s))
        return (0.5 * lam * lam / float(omega @ self.G @ omega) if lam > 0.0 else -np.inf), lam

    def prestress_note(self, tol_eff: float) -> str | None:
        """The certificate's note when its bound exceeds tol_eff, else None."""
        bound, lam = self.prestress
        if not bound > tol_eff:
            return None
        return (f"certified: min mu >= {bound:.6e} by the prestress omega = tr Q / |tr Q|, "
                f"lambda_min {lam:.6e} (tol_eff {tol_eff:.3e}, no box)")


@dataclass(frozen=True, eq=False)
class _Lattice:
    """The lattice points a in N^m with |a| = 3, one row each in the order
    of their index triples i <= j <= k (combinations_with_replacement), and
    the rows the polarization identities read: at[i, j, k] is the row of
    e_i + e_j + e_k for any order of i, j, k; diag[i] that of 3 e_i; for
    the pairs i < j = (upper, lower), iij and ijj those of 2 e_i + e_j and
    e_i + 2 e_j; for the triples i < j < k = distinct, ijk those of
    e_i + e_j + e_k, and mixed the six rows of 2 e_p + e_q over the pairs
    p != q among them; pair[i, j] is the row that holds entry (i, j) of a
    quadratic form (iij for i < j, diag for i = j)."""

    points: np.ndarray     # (L, m), L = C(m + 2, 3)
    at: np.ndarray         # (m, m, m)
    diag: np.ndarray       # (m,)
    upper: np.ndarray      # (P,), P = C(m, 2)
    lower: np.ndarray
    iij: np.ndarray
    ijj: np.ndarray
    distinct: np.ndarray   # (3, C(m, 3))
    ijk: np.ndarray
    mixed: np.ndarray      # (6, C(m, 3))
    pair: np.ndarray       # (m, m)

    def __post_init__(self):
        # shared by every caller through _lattice's cache
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)


@lru_cache(maxsize=32)
def _lattice(m: int) -> _Lattice:
    """The lattice of order-3 points for a kernel of dimension m and its
    index arrays, built once per m."""
    triples = np.array(list(combinations_with_replacement(range(m), 3)), dtype=np.intp).reshape(-1, 3)
    rows = np.arange(triples.shape[0])
    points = np.sum(triples[:, :, None] == np.arange(m), axis=1, dtype=float)
    rank = np.zeros((m,) * 3, dtype=np.intp)
    rank[tuple(triples.T)] = rows
    at = rank[tuple(np.sort(np.indices((m,) * 3).reshape(3, -1), axis=0))].reshape((m,) * 3)
    d = np.arange(m)
    upper, lower = np.triu_indices(m, 1)
    i, j, k = np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3).T
    lo, hi = np.minimum.outer(d, d), np.maximum.outer(d, d)
    return _Lattice(points, at, at[d, d, d], upper, lower, at[upper, upper, lower], at[upper, lower, lower],
                    np.array([i, j, k]), at[i, j, k],
                    np.array([at[i, i, j], at[i, j, j], at[i, i, k], at[i, k, k], at[j, j, k], at[j, k, k]]),
                    at[lo, lo, hi])


def _polarize_quadratic(q: np.ndarray, lat: _Lattice) -> np.ndarray:
    """The symmetric (m, m, ...) forms S with q[r] = a' S a at each lattice
    point a = lat.points[r], from the points 3 e_i and 2 e_i + e_j only:
    S_ii = q(3 e_i) / 9 and S_ij = (q(2 e_i + e_j) - 4 S_ii - S_jj) / 4.
    Trailing axes of q are carried along."""
    s = np.zeros_like(q)
    s[lat.diag] = q[lat.diag] / 9.0
    s_ii = s[lat.diag]
    s[lat.iij] = (q[lat.iij] - 4.0 * s_ii[lat.upper] - s_ii[lat.lower]) / 4.0
    return s[lat.pair]


def _polarize_cubic(c: np.ndarray, lat: _Lattice) -> np.ndarray:
    """The symmetric (m, m, m, ...) forms T with c[r] = T(a, a, a) at each
    lattice point a = lat.points[r]: T_iii = c(3 e_i) / 27; with
    u = c(2 e_i + e_j) - 8 T_iii - T_jjj and v = c(e_i + 2 e_j) - T_iii - 8 T_jjj,
    T_iij = (2u - v) / 18 and T_ijj = (2v - u) / 18; and for distinct
    i, j, k, T_ijk = (c(e_i + e_j + e_k) - sum_p T_ppp - 3 sum_(p != q) T_ppq) / 6.
    Trailing axes of c are carried along."""
    t = np.zeros_like(c)
    t[lat.diag] = c[lat.diag] / 27.0
    t_i, t_j = t[lat.diag[lat.upper]], t[lat.diag[lat.lower]]
    u = c[lat.iij] - 8.0 * t_i - t_j
    v = c[lat.ijj] - t_i - 8.0 * t_j
    t[lat.iij] = (2.0 * u - v) / 18.0
    t[lat.ijj] = (2.0 * v - u) / 18.0
    cubes = t[lat.diag[lat.distinct]].sum(axis=0)
    t[lat.ijk] = (c[lat.ijk] - cubes - 3.0 * t[lat.mixed].sum(axis=0)) / 6.0
    return t[lat.at]


def _assemble_quartic_forms(target, X: np.ndarray, Y: np.ndarray, hess: np.ndarray) -> _QuarticForms:
    """Hxx from the Hessian; C, T and B from the order-3 gradient jets of f
    along Y a t at every lattice point a in N^m with |a| = 3, taken in one
    batched gradient_jet_along call.  The t^2 rows are q(a) = a' S a =
    [t^2] grad f(Y a t), hence C = X'S and T = Y'S / 3; Y' times the t^3
    rows is c(a) = 4 B(a, a, a, .).  S, and B as c's cubic form over 4, are
    read off the lattice by the fixed polarization identities of
    _polarize_quadratic and _polarize_cubic, which hold exactly for any
    quadratic resp. cubic form, with index arrays built once per m
    (_lattice).  Raises RigidkitError when a lattice jet or a form is not
    finite: the jets are taken quietly and an overflowed one is refused
    before it is polarized."""
    n, m = X.shape[1], Y.shape[1]
    hxx = X.T @ hess @ X if n else np.zeros((0, 0))
    lat = _lattice(m)
    with np.errstate(over="ignore", invalid="ignore"):
        jets = target.gradient_jet_along((lat.points @ Y.T)[:, None, :], 3)
    overflow = "the order-4 forms overflow a float: a gradient jet along the kernel is not finite"
    if not np.isfinite(jets).all():
        raise RigidkitError(overflow)
    s_flat = _polarize_quadratic(jets[:, :, 2], lat).reshape(m * m, -1).T
    b_tensor = _polarize_cubic(jets[:, :, 3] @ Y, lat) / 4.0
    c_forms = (X.T @ s_flat).reshape(n, m, m)
    t_form = (Y.T @ s_flat).reshape(m, m, m) / 3.0
    if not all(np.isfinite(a).all() for a in (hxx, c_forms, b_tensor, t_form)):
        raise RigidkitError(overflow)
    return _QuarticForms(hxx, c_forms, b_tensor, t_form)


# ---------------------------------------------------------------------------
# the kernel sphere search: Bernstein branch and bound on mu
# ---------------------------------------------------------------------------

_CHEB = np.cos((2 * np.arange(5) + 1) * np.pi / 10)            # 5 Chebyshev nodes on [-1, 1]
_VANDER_INV = np.linalg.inv(np.vander(_CHEB, 5, increasing=True))
_BINOM = np.array([[comb(a, b) for b in range(5)] for a in range(5)], dtype=float)
_POW_TO_BERN = _BINOM / _BINOM[4]        # [i, j] = C(i, j) / C(4, j): t^j in the degree-4 Bernstein basis
_SHIFT_EXP = np.maximum(np.arange(5)[None, :] - np.arange(5)[:, None], 0)   # [c, a] = a - c


def _along_axes(mats: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Apply mats[:, j], a batch of 5 x 5 matrices, to axis j + 1 of the
    batch of coefficient tensors coef, shape (b, 5, ..., 5).  Each product
    moves the axis it maps to the back, so after all of them the axes are
    in their first order again."""
    flat = coef.reshape(coef.shape[0], -1)
    for j in range(mats.shape[1]):
        flat = np.swapaxes(mats[:, j] @ flat.reshape(flat.shape[0], 5, -1), 1, 2)
    return flat.reshape(coef.shape)


def _mu_on_sphere(forms: _MuForms, sign: float):
    """Batched value, gradient and Hessian of sign * mu(y) = sign * M(y, y, y, y)
    at the rows ys of a (b, m) array: sign times (M(y^4), 4 M(y, y, y, .),
    12 M(y, y, ., .)).  No evaluation touches the x dimension."""
    m = forms.B.shape[0]
    flat = sign * forms.M.reshape(m * m, m * m)

    def value_grad_hess(ys):
        yy = (ys[:, :, None] * ys[:, None, :]).reshape(-1, m * m)
        m_yy = (yy @ flat).reshape(-1, m, m)                  # M(y, y, ., .)
        cubic = np.einsum("bij,bj->bi", m_yy, ys)             # M(y, y, y, .)
        return np.sum(cubic * ys, axis=1), 4.0 * cubic, 12.0 * m_yy

    return value_grad_hess


def _kernel_search(forms: _MuForms, tol_eff: float, sign: float = 1.0):
    """Certified minimum of sign * mu(y) = sign * M(y, y, y, y) over the unit
    sphere of R^m, for a report: the decision of _kernel_decision, then, at
    m >= 2, its least point polished by _polish.  Returns (mu(y), y, bound,
    note) in mu's own sign: bound is the certified lower bound on min mu
    (for sign = -1, the upper bound on max mu; an infinite one when no box
    was bounded), and note states the decision and the boxes it took; the
    extremizing x-part is forms.x_part(y).

    The polish only refines the reported extreme and its point: once the
    search has decided, no point it finds can change the classification, so
    a verdict without a report (second_order_rigidity_verdict) polishes
    only when the search stopped undecided."""
    least, y_best, low, note, _ = _kernel_decision(forms, tol_eff, sign)
    m = y_best.size
    if m > 1:
        least, y_best = _polish(forms, sign, least, y_best)
    return sign * least, y_best, sign * low, note


def _kernel_decision(forms: _MuForms, tol_eff: float, sign: float = 1.0):
    """The certified decision on the sign of sign * mu over the unit sphere
    of R^m, by _bernstein_bound against the tol_eff the caller fixed from
    the forms; no evaluation of mu touches the x dimension.  Returns (least,
    y, low, note, decided) in sign * mu's sign: the least value found and
    its point, the certified lower bound on the minimum (-inf when no box
    was bounded), the note, and whether the search decided (_decided).

    At m = 1 the sphere is {+1, -1} and mu is even, so mu(e_1) is exact: it
    is the bound and the least value, decided in closed form with no box
    (its note counts the root point as box count 1).

    One root box has 5^(m-1) Bernstein coefficients.  When that exceeds
    BOX_CAP, no box is bounded, min mu stays unbounded, and mu is evaluated
    only at the axes and the diagonals (e_i +/- e_j) / sqrt(2), so a point
    below -tol_eff can still be a witness at any m."""
    m = forms.B.shape[0]
    if m == 1:   # mu(e_1) is exact
        least = sign * float(forms.M[0, 0, 0, 0])
        return least, np.ones(1), least, _search_note(least, least, tol_eff, sign, 1), True

    value_grad_hess = _mu_on_sphere(forms, sign)
    if 5 ** (m - 1) <= BOX_CAP:
        least, y_best, low, note = _bernstein_bound(value_grad_hess, m, tol_eff, sign)
    else:
        eye = np.eye(m)
        ys = np.vstack([eye] + [(eye[i] + s * eye[j]) / np.sqrt(2.0)
                                for i, j in combinations(range(m), 2) for s in (1.0, -1.0)])
        vals = value_grad_hess(ys)[0]
        at = int(np.argmin(vals))
        least, y_best, low = float(vals[at]), ys[at], -np.inf
        note = (f"box cap of {BOX_CAP} reached before the first box: one face box at m = {m} "
                f"has 5^{m - 1} Bernstein coefficients, so {'min' if sign > 0 else 'max'} mu is not bounded")
    return least, y_best, low, note, _decided(low, least, tol_eff)


def _decided(low: float, least: float, tol_eff: float) -> bool:
    """Whether a bound low on the minimum and a least point value least
    decide its sign against tol_eff: a certified bound above tol_eff, a
    witness below -tol_eff, or the minimum certified within +/- tol_eff."""
    return low > tol_eff or least < -tol_eff or (low >= -tol_eff and least <= tol_eff)


def _polish(forms: _MuForms, sign: float, least: float, y: np.ndarray):
    """The least point (least, y) of sign * mu refined by minimize_on_sphere's
    Newton steps from y, with Hessian 12 M(y, y, ., .), or kept when the
    polished value is not lower."""
    vals, zs, _ = minimize_on_sphere(_mu_on_sphere(forms, sign), y[None, :])
    return (float(vals[0]), zs[0]) if vals[0] < least else (least, y)


def _bernstein_bound(value_grad, m: int, tol_eff: float, sign: float):
    """Branch and bound on the sign of the even quartic form whose batched
    values value_grad(ys)[0] gives (here sign * mu) on the unit sphere of R^m.

    The form is even, so it is positive on the sphere exactly when each face
    polynomial q_k(u) = mu(e_k + sum_{j != k} u_j e_j) is positive on the
    box [-1, 1]^(m-1).  The power coefficients of q_k follow from its values
    on the 5^(m-1) Chebyshev grid; on a box, the degree-4 tensor Bernstein
    coefficients of q_k bound its range (Garloff, LNCS 212, 1986; Zettler &
    Garloff, IEEE TAC 43, 1998), and dividing their least value b by
    (1 + |u|^2)^2 at its largest (b >= 0) or smallest (b < 0) over the box
    bounds mu at the normalized points below.  Point values are mu at the
    normalized box centres and corners.  With L the least box bound, U the
    least point value and tol_eff the caller's threshold, fixed from the
    forms before the search, the search stops at L > tol_eff (certified
    positive), U < -tol_eff (a witness), or -tol_eff <= L, U <= tol_eff
    (min mu certified within +/- tol_eff); otherwise it splits every box
    whose bound leaves that open at the middle of its widest side, one
    round at a time, until BOX_CAP boxes have been bounded.  Returns
    (U, its point, L, note)."""
    eye = np.eye(m)
    embed = eye[[[j for j in range(m) if j != k] for k in range(m)]].reshape(m, m - 1, m)

    def lift(face, us):
        # the points e_k + sum_{j != k} u_j e_j of faces k = face
        return eye[face] + np.einsum("...j,...jk->...k", us, embed[face])

    faces = np.arange(m)
    grid = np.array(list(product(_CHEB, repeat=m - 1))).reshape(5 ** (m - 1), m - 1)
    face_vals = value_grad(lift(faces[:, None], grid).reshape(-1, m))[0]
    van = np.broadcast_to(_VANDER_INV, (m, m - 1, 5, 5))
    power = _along_axes(van, face_vals.reshape((m,) + (5,) * (m - 1)))
    bits = np.array(list(product((0.0, 1.0), repeat=m - 1))).reshape(2 ** (m - 1), m - 1)
    chunk = max(1, 2**16 // 5 ** (m - 1))     # boxes per Bernstein batch: 2^16 coefficients

    def box_bounds(face, lo, hi):
        width = hi - lo
        lo_pow = lo[..., None] ** np.arange(5)
        width_pow = width[..., None] ** np.arange(5)
        mats = _POW_TO_BERN @ (_BINOM.T * lo_pow[..., _SHIFT_EXP] * width_pow[..., :, None])
        least = np.concatenate([
            _along_axes(mats[s:s + chunk], power[face[s:s + chunk]]).reshape(-1, 5 ** (m - 1)).min(axis=1)
            for s in range(0, face.size, chunk)
        ])
        far = 1.0 + np.sum(np.maximum(lo * lo, hi * hi), axis=1)
        near = 1.0 + np.sum(np.where((lo < 0) & (hi > 0), 0.0, np.minimum(lo * lo, hi * hi)), axis=1)
        return least / np.where(least >= 0.0, far, near) ** 2

    def point_values(face, lo, hi):
        us = np.concatenate([0.5 * (lo + hi)[:, None], lo[:, None] + (hi - lo)[:, None] * bits], axis=1)
        ys = lift(np.broadcast_to(face[:, None], us.shape[:2]), us).reshape(-1, m)
        ys /= np.sqrt(np.sum(ys * ys, axis=1))[:, None]
        return value_grad(ys)[0], ys

    face, lo, hi = faces, -np.ones((m, m - 1)), np.ones((m, m - 1))
    vals, ys = point_values(face, lo, hi)
    boxes, retired, least = m, np.inf, np.inf
    while True:
        bound = box_bounds(face, lo, hi)
        at = int(np.argmin(vals))
        if vals[at] < least:
            least, y_best = float(vals[at]), ys[at]
        low = min(retired, float(np.min(bound)))
        if _decided(low, least, tol_eff):
            break
        split = bound <= tol_eff if least > tol_eff else bound < -tol_eff
        if boxes + 2 * int(np.sum(split)) > BOX_CAP:
            break
        retired = min(retired, float(np.min(bound[~split], initial=np.inf)))
        face, lo, hi = face[split], lo[split], hi[split]
        at_box, axis = np.arange(face.size), np.argmax(hi - lo, axis=1)
        mid = 0.5 * (lo[at_box, axis] + hi[at_box, axis])
        lo_right, hi_left = lo.copy(), hi.copy()
        lo_right[at_box, axis] = mid
        hi_left[at_box, axis] = mid
        face, lo, hi = np.concatenate([face, face]), np.vstack([lo, lo_right]), np.vstack([hi_left, hi])
        boxes += face.size
        vals, ys = point_values(face, lo, hi)

    return least, y_best, low, _search_note(low, least, tol_eff, sign, boxes)


def _search_note(low: float, least: float, tol_eff: float, sign: float, boxes: int) -> str:
    """The kernel search's certificate for the bound low and the least
    point value least of sign * mu, stated in mu's own sign."""
    lowest, relation = ("min mu", ">=") if sign > 0 else ("max mu", "<=")
    if low > tol_eff:
        return f"certified: {lowest} {relation} {sign * low:.6e} (tol_eff {tol_eff:.3e}, box count {boxes})"
    if least < -tol_eff:
        return f"witness: mu = {sign * least:.6e} on the kernel sphere (tol_eff {tol_eff:.3e}, box count {boxes})"
    if low >= -tol_eff and least <= tol_eff:
        return f"certified: {lowest} within +/-{tol_eff:.3e} (box count {boxes})"
    return (f"box cap of {BOX_CAP} reached: {lowest} undecided between "
            f"{sign * low:.6e} and {sign * least:.6e} (tol_eff {tol_eff:.3e})")


def _cubic_screen(T: np.ndarray, Y: np.ndarray, tol: float) -> CritReport | None:
    """Saddle report when the cubic kernel form T(y,y,y) = t^3 coefficient
    of f(Y y t) is nonzero (any y_i y_j y_k term forces a saddle), else None.
    T counts as nonzero when ||T||_F > tol (1 + ||T||_F); the scale ||T||_F,
    by hypot as in _QuarticForms.scale, is the same in every orthonormal
    basis of the kernel.  The witness is the sum of one to three kernel
    basis vectors with the largest |T(v, v, v)|."""
    scale3 = float(np.hypot.reduce(np.abs(T).ravel()))
    if not scale3 > tol * (1.0 + scale3):
        return None
    m = T.shape[0]
    eye = np.eye(m)
    vecs = np.array([eye[list(ids)].sum(axis=0)
                     for r in (1, 2, 3) for ids in combinations_with_replacement(range(m), r)])
    vals = np.einsum("ijk,bi,bj,bk->b", T, vecs, vecs, vecs)
    best_vec = vecs[int(np.argmax(np.abs(vals)))]
    return CritReport(
        "saddle", "cubic", 3, m,
        a3_witness=Y @ (best_vec / np.linalg.norm(best_vec)),
        scale=scale3, notes=("cubic kernel form is nonzero",),
    )


# ---------------------------------------------------------------------------
# the 4th derivative test
# ---------------------------------------------------------------------------

def fourth_derivative_test(target) -> CritReport:
    """Classify the critical point of a target function at the origin.

    Stages: (1) eigendecompose the Hessian; a definite or indefinite Hessian
    resolves the point at second order.  (2) For a degenerate semidefinite
    Hessian, rotate so the kernel spans the y-coordinates and screen the
    cubic kernel form; a nonzero y_i y_j y_k coefficient is a saddle
    certificate.  (3) Otherwise side = +1 (PSD) or -1 (NSD) picks the near
    extreme, min mu resp. max mu on the unit kernel sphere (module
    docstring), and the far one, a4 = 1/2 lam at the curvature eigenvector
    of largest |lam|, or the other extreme of mu = B for a zero Hessian.
    a_min is the near extreme for PSD and the far one for NSD, a_max the
    other.  a_min > 0 certifies a strict local minimum, a_max < 0 a strict
    local maximum, and side * near < 0 a saddle when the Hessian is nonzero
    or side * far > 0; a vanishing near extreme is inconclusive.  Arg points
    lie on the unit parameter sphere: the extremizer (x, y), |y| = 1, maps
    to (s^2 x, s y), s^2 = 2 / (1 + sqrt(1 + 4 |x|^2)), where a4 is s^4 mu.
    NSD Hessians are handled by the search's sign in the same pass; their
    reports end with the note "negated target (NSD Hessian)".

    Every verdict is certified at any m: a strict one by the branch and
    bound's bound on an extreme beyond tol_eff, a saddle by a sphere point
    where side * mu is below -tol_eff, for tol_eff fixed before either
    search from the forms' scale and 1/2 |lam_top|.  The notes state the
    bound or witness in f's own sign and the boxes it took; a search
    stopped by BOX_CAP is inconclusive.
    """
    g0 = np.asarray(target.grad0(), dtype=float)
    if np.linalg.norm(g0) > DEFAULT_CRIT_TOL:
        raise NotACriticalPoint(f"gradient norm {np.linalg.norm(g0):.3e} exceeds tol")

    hess = np.asarray(target.hessian0(), dtype=float)
    lam, vec = np.linalg.eigh(hess)
    h_scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    thresh = DEFAULT_CRIT_TOL * max(h_scale, 1.0)
    pos = lam > thresh
    neg = lam < -thresh
    zero = ~(pos | neg)
    m = int(np.sum(zero))

    side = -1.0 if np.any(neg) else 1.0
    verdicts = ("strict-min", "strict-max")[:: int(side)]   # (near side's, far side's)
    if np.any(pos) and np.any(neg):
        return CritReport("saddle", "hessian", 2, m, scale=h_scale)
    if m == 0:
        return CritReport(verdicts[0], "hessian", 2, 0, scale=h_scale)

    X = vec[:, neg if side < 0 else pos]
    Y = vec[:, zero]
    n = X.shape[1]
    nsd = ("negated target (NSD Hessian)",) if side < 0 else ()

    forms = _assemble_quartic_forms(target, X, Y, hess)
    cubic = _cubic_screen(forms.T, Y, DEFAULT_CRIT_TOL)
    if cubic is not None:
        return replace(cubic, notes=cubic.notes + nsd)

    def on_sphere(y):
        # a4(s^2 x, s y) = s^4 a4(x, y), and s^2 + s^4 |x|^2 = 1 at this s^2
        x = forms.x_part(y)
        s2 = 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * float(x @ x)))
        return Y @ (np.sqrt(s2) * y), X @ (s2 * x)

    # a4(e, 0) = 1/2 lam at the curvature eigenvector e of largest |lam|
    top = -1 if side > 0 else 0
    far = far_bound = 0.5 * float(lam[top]) if n else 0.0
    scale = max(forms.scale, abs(far))
    tol_eff = DEFAULT_CRIT_TOL * (1.0 + scale)
    if n:
        far_arg, notes = (np.zeros(target.dim), vec[:, top]), ()
    else:
        far, y_far, far_bound, note = _kernel_search(forms, tol_eff, sign=-side)
        far_arg, notes = on_sphere(y_far), (note,)
    near, y_near, near_bound, note = _kernel_search(forms, tol_eff, sign=side)
    notes = (note,) + notes
    if side * near_bound > tol_eff:
        cls = verdicts[0]
    elif side * far_bound < -tol_eff:
        cls = verdicts[1]
    elif side * near < -tol_eff and (n or side * far > tol_eff):
        cls = "saddle"
    else:
        cls, notes = "inconclusive", notes + ("a4 attains (near-)zero on the parameter sphere",)
    # the near extreme is min mu on a PSD side and max mu on an NSD one
    ends = [(near, on_sphere(y_near)), (far, far_arg)][:: int(side)]
    (a_min, (vel_min, cur_min)), (a_max, (vel_max, cur_max)) = ends
    return CritReport(
        cls, "quartic", 4, m, a_min=a_min, a_max=a_max,
        arg_min_velocity=vel_min, arg_min_curvature=cur_min,
        arg_max_velocity=vel_max, arg_max_curvature=cur_max,
        scale=scale, notes=notes + nsd,
    )


# ---------------------------------------------------------------------------
# second-order rigidity via the order-4 family
# ---------------------------------------------------------------------------

def second_order_rigidity_test(
    pf: PinnedFramework,
    spec: EnergySpec,
    kd: KernelDecomposition | None = None,
) -> CritReport:
    """Order-4 test of the framework energy along p + t y + t^2 x, y in K.

    The x-part is minimized in closed form, which leaves
    mu(y) = 1/2 v' G^-1 v over the self-stresses (module docstring; mu = 0
    without one), a homogeneous quartic whose strict positivity on the unit
    sphere of K is equivalent to positivity of a4 on the full parameter
    sphere.  The search
    is _kernel_search, the one fourth_derivative_test runs, so a strict
    minimum carries a certified lower bound on min mu above tol_eff and
    certifies rigidity order 2; a saddle carries a sphere point where mu is
    below -tol_eff.  Where the box cap leaves the search undecided (always
    at dim K > 6), the prestress certificate (_StressForms.prestress) can
    still certify order 2: the report is then strict-min with the
    certificate as its first note, and its a_min is the polished least
    value, a point value that rounding can send to another local minimum,
    so it is not reproducible under a change of kernel basis there.
    Wherever the search decides, the report is the search's alone, and
    second_order_rigidity_verdict may certify it without searching.  The
    argmin is reported as (Y y, x) / sqrt(1 + |x|^2), x the x-part in
    K-bar.  No cubic screen runs: an edge-length energy is even in t along
    a first-order flex, so its cubic kernel form vanishes.  Raises
    NotACriticalPoint when the framework is not at rest in spec.
    """
    forms = _stress_forms(pf, spec, kd)
    return _kernel_verdict(forms, forms.kd.K_basis, forms.x_part, "quartic", 4,
                           "x-part minimized in closed form: mu = 1/2 v' G^-1 v over the self-stresses")


def second_order_rigidity_verdict(
    pf: PinnedFramework,
    spec: EnergySpec,
    kd: KernelDecomposition | None = None,
) -> tuple[str, str]:
    """second_order_rigidity_test's classification and a certificate for it,
    without the report.  First the prestress certificate
    (_StressForms.prestress): when its bound on min mu exceeds tol_eff, the
    verdict is strict-min at once, with no box bounded and no polish, and
    the note states the bound, lambda_min and tol_eff.  Otherwise the
    report's search and rule (_classify) decide, and the note is the
    report's first one: the least point is polished only when the search
    stopped undecided (the box cap was reached, as always at m > 6), the
    one case where the polish can change the classification.  So the
    classification is always the report's, and so is the note wherever the
    certificate does not decide."""
    forms = _stress_forms(pf, spec, kd)
    tol_eff = DEFAULT_CRIT_TOL * (1.0 + forms.scale)
    note = forms.prestress_note(tol_eff)
    if note is not None:
        return "strict-min", note
    least, y_best, low, note, decided = _kernel_decision(forms, tol_eff)
    if not decided:
        least, _ = _polish(forms, 1.0, least, y_best)
    return _classify(low, least, tol_eff), note


def _rest_curvature(spec: EnergySpec, pf: PinnedFramework) -> np.ndarray:
    """phi''(d^2) of every edge at the framework's squared lengths d^2, from
    the pointwise E'(l) and E''(l) of energy._gap_and_slope at its lengths l
    (dl = l - d): phi(m) = E(sqrt m) gives phi' = E' / (2 l) and
    phi'' = (E'' - E' / l) / (4 l^2).  Raises NotACriticalPoint when some
    edge is off rest, |phi'(d^2)| > DEFAULT_CRIT_TOL phi''(d^2) d^2."""
    _check_binding(spec, pf)
    lengths = pf.base.edge_lengths()
    _, e1, e2 = (c[:, 0] for c in _gap_and_slope(spec, lengths[:, None], (lengths - spec.rest_lengths)[:, None]))
    sq = lengths * lengths
    slope, curv = e1 / (2.0 * lengths), (e2 - e1 / lengths) / (4.0 * sq)
    off = np.flatnonzero(np.abs(slope) > DEFAULT_CRIT_TOL * curv * sq)
    if off.size:
        raise NotACriticalPoint(f"edge {off[0]} is not at rest in the {spec.family} energy: "
                                f"|phi'(d^2)| = {abs(slope[off[0]]):.3e} exceeds tol phi''(d^2) d^2")
    return curv


def _stress_forms(pf: PinnedFramework, spec: EnergySpec, kd: KernelDecomposition | None) -> _StressForms:
    """mu's forms from the kernel split and phi'': A_e = dY_e' dY_e for
    dY = edge_differences(K), Q_s = sum_e w_es A_e, and G SPD, one solve."""
    if kd is None:
        kd = kernel_decomposition(rigidity_matrix(pf))
    if kd.dim_K < 1:
        raise ValueError("second-order test needs dim K >= 1 (otherwise first-order rigid)")
    curv, m, w = _rest_curvature(spec, pf), kd.dim_K, kd.stresses
    dy = pf.edge_differences(kd.K_basis)
    a = np.einsum("edi,edj->eij", dy, dy).reshape(-1, m * m)
    w_over_d, q = w / curv[:, None], w.T @ a
    g = w.T @ w_over_d
    g_inv_q = np.linalg.solve(g, q)
    return _StressForms(_symmetrized(0.5 * (q.T @ g_inv_q).reshape((m,) * 4)),
                        _symmetrized(0.5 * ((a.T * curv) @ a).reshape((m,) * 4)), w_over_d @ g_inv_q - a, kd,
                        q.reshape(-1, m, m), g)


def _classify(low: float, least: float, tol_eff: float) -> str:
    """The energy tests' rule on mu: strict-min when the certified bound low
    on min mu exceeds tol_eff, saddle when the least value found is below
    -tol_eff, else inconclusive."""
    if low > tol_eff:
        return "strict-min"
    return "saddle" if least < -tol_eff else "inconclusive"


def _kernel_verdict(forms: _MuForms, Y: np.ndarray, x_part, resolved_by: str, order: int,
                    closed_form_note: str) -> CritReport:
    """The energy tests' report on mu over the unit sphere of R^m, m =
    Y.shape[1], classified by _classify against the one tol_eff =
    DEFAULT_CRIT_TOL (1 + forms.scale) that the search's note also states.
    Only when the search leaves the sign undecided (the box cap) is the
    forms' prestress_note read: if there is one, the report is strict-min
    and that note replaces the search's.  The polished argmin y and its
    x-part x = x_part(y), in pinned coordinates, are reported as
    (Y y, x) / sqrt(1 + |x|^2); the notes are the certificate, then
    closed_form_note."""
    tol_eff = DEFAULT_CRIT_TOL * (1.0 + forms.scale)
    mu_min, y_best, lower, note = _kernel_search(forms, tol_eff)
    classification = _classify(lower, mu_min, tol_eff)
    prestress = None if _decided(lower, mu_min, tol_eff) else forms.prestress_note(tol_eff)
    if prestress is not None:
        classification, note = "strict-min", prestress
    x_best = x_part(y_best)
    norm = np.sqrt(1.0 + x_best @ x_best)
    return CritReport(
        classification, resolved_by, order, Y.shape[1], a_min=mu_min,
        arg_min_velocity=Y @ y_best / norm, arg_min_curvature=x_best / norm,
        scale=forms.scale, notes=(note, closed_form_note),
    )


# ---------------------------------------------------------------------------
# order-2k family test (dim K = 1)
# ---------------------------------------------------------------------------

def order2k_family_test(
    pf: PinnedFramework,
    spec: EnergySpec,
    witness: PolyTrajectory,
    k: int,
    kd: KernelDecomposition | None = None,
) -> CritReport:
    """2k-th derivative test along the family
        dp(t; y0, w) = y0 p1 t + y0^2 p2 t^2 + ... + y0^(k-1) p_(k-1) t^(k-1) + w t^k
    built from a K-bar-normalized (1, k-1)-flex witness, with (y0, w) on the
    unit sphere of R x K-bar.

    The t^2k coefficient is exactly
        a2k(y0, w) = y0^2k F + y0^k G.w + 1/2 w' Hxx w,
    with F the 2k-th energy coefficient along the witness, G the k-th
    coefficient of the energy gradient along it (restricted to K-bar), and
    Hxx the energy Hessian on K-bar (positive definite).  Substituting
    u = w / y0^k shows a2k is positive on the whole sphere iff
        mu = F - 1/2 G' Hxx^-1 G
    is positive (the y0 = 0 slice is covered by Hxx > 0).  That mu is the
    order-4 reduction's mu at m = 1 with B = F and c = G, so it is decided by
    the same certified search as second_order_rigidity_test, on the kernel
    basis Y = p1, where the search takes it in closed form, with no box:
    mu > tol_eff certifies rigidity order k, matching the ladder verdict.  As
    there, the arg point is (p1, K-bar u*) / sqrt(1 + |u*|^2), u* = -Hxx^-1 G,
    and the notes are the search's certificate, then the closed form.
    """
    if kd is None:
        kd = kernel_decomposition(rigidity_matrix(pf))
    if kd.dim_K != 1:
        raise DimKNotOne(f"order-2k family test requires dim K = 1, got {kd.dim_K}")
    if k < 2:
        raise ValueError("k must be >= 2")
    if witness.degree < k - 1:
        raise ValueError(f"witness must supply coefficients through t^{k-1}")
    traj = witness.prefix(k - 1)
    lead = np.linalg.norm(traj.coeffs[0])
    if abs(lead - 1.0) > 1e-6:
        raise ValueError("witness leading coefficient must be a unit vector")
    _rest_curvature(spec, pf)

    X = kd.Kbar_basis
    f2k = energy_along_trajectory(spec, pf, traj, 2 * k).c[2 * k]
    g_vec = X.T @ gradient_along_trajectory(spec, pf, traj, k)[:, k]
    _, _, hess = energy_value_grad_hess(spec, pf)
    forms = _QuarticForms(X.T @ hess @ X, g_vec.reshape(-1, 1, 1), np.full((1, 1, 1, 1), f2k))
    return _kernel_verdict(forms, traj.coeffs[0][:, None], lambda y: X @ forms.x_part(y), "order2k-family",
                           2 * k, "w minimized in closed form; mu = F2k - 1/2 G' Hxx^-1 G")
