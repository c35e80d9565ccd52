"""Rigidity matrix, first-order flex space K, and the K / K-bar splitting of
pinned coordinate space.

The pinned rigidity matrix R has one row per edge; R x recovers, per edge vw,
the quantity (p_v - p_w) . (x_v - x_w) for any pinned-coordinate vector x (the
conventional factor of 2 from differentiating squared lengths is dropped).
K = ker R holds the first-order flex coefficients; K-bar is chosen as its
orthogonal complement, which makes the ladder's least-squares solutions
canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .framework import PinnedFramework

DEFAULT_KERNEL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RigidityMatrix:
    """Pinned rigidity matrix: rows follow canonical edge order, columns
    follow the pinned framework's free-coordinate order."""

    matrix: np.ndarray            # (n_edges, n_free)
    pf: PinnedFramework

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def rigidity_matrix(pf: PinnedFramework) -> RigidityMatrix:
    """Assemble R(p): for edge vw, (p_v - p_w) lands in vertex v's free
    columns and (p_w - p_v) in vertex w's, with pinned columns deleted."""
    diff = pf.base.edge_vectors()
    # pinned endpoints land in the extra column n_free, which is dropped
    mat = np.zeros((pf.base.n_edges, pf.n_free + 1))
    rows = np.arange(pf.base.n_edges)[:, None]
    cv, cw = pf.edge_free_columns()
    mat[rows, cv] = diff
    mat[rows, cw] = -diff
    return RigidityMatrix(mat[:, :-1], pf)


@dataclass(frozen=True, eq=False)
class KernelDecomposition:
    """Orthonormal bases of K = ker R and of its orthogonal complement K-bar,
    plus what the ladder's minimum-norm least-squares solves reuse.

    R factors through K-bar as R = F Kbar' with F (n_edges, rank) of full
    column rank, so the minimum-norm solution of R x = rhs is
    Kbar (F^+ rhs).  _pinv stores F^+: T^-T when R' = Q [T; 0] came from QR
    (method "qr", Kbar = Q[:, :E]), diag(1/sigma_r) U_r' when
    R = U_r diag(sigma_r) Kbar' came from the SVD (method "svd").  _range
    maps F^+ rhs into pinned coordinates: it is Kbar itself on the SVD path
    and the Householder reflectors of Q on the QR path, where Q is never
    formed and Kbar_basis is built from the reflectors on first read.
    stresses is an orthonormal basis W of the self-stresses (coker R, empty
    on the QR path), and the least-squares residual is ||W' rhs||.
    rank_margin is the factor by which the smallest kept singular value
    clears the cutoff tol * sigma_max: exact on the SVD path, a certified
    lower bound on the QR path, None at rank 0.
    """

    K_basis: np.ndarray           # (n_free, dim_K)
    dim_K: int
    stresses: np.ndarray          # (n_edges, n_edges - rank)
    _pinv: np.ndarray             # (rank, n_edges)
    _range: np.ndarray | _CompactWY  # Kbar (n_free, rank), or Q's reflectors
    method: str                   # "qr" or "svd"
    rank_margin: float | None

    def __post_init__(self):
        # read-only views, not copies: at N ~ 1000 each factor is ~10 MB
        for name in ("K_basis", "stresses", "_pinv", "_range"):
            a = getattr(self, name)
            if isinstance(a, np.ndarray):
                a = a.view()
                a.setflags(write=False)
                object.__setattr__(self, name, a)

    @cached_property
    def Kbar_basis(self) -> np.ndarray:
        """(n_free, rank) orthonormal basis of K-bar."""
        if isinstance(self._range, np.ndarray):
            return self._range
        kbar = self._range.leading_columns()
        kbar.setflags(write=False)
        return kbar

    @property
    def rank(self) -> int:
        return self._pinv.shape[0]

    @property
    def n_free(self) -> int:
        return self.K_basis.shape[0]

    def solve_min_norm(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """Minimum-norm least-squares solution of R x = rhs, together with the
        residual norm ||R x - rhs|| = ||W' rhs||, W the stress basis.

        The solution is orthogonal to ker R, i.e. automatically in K-bar.
        """
        x = self._range @ (self._pinv @ rhs)
        return x, float(np.linalg.norm(self.stresses.T @ rhs))


# Block order of the recursive triangular inverse's LAPACK leaves and of the
# compact-WY blocks of a Householder factor.
_BLOCK_ORDER = 64


def _upper_triangular_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular upper-triangular matrix by block recursion,
    [[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]], so all work
    above the leaves is matmuls (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 14)."""
    n = t.shape[0]
    if n <= _BLOCK_ORDER:
        return np.linalg.inv(t)
    h = n // 2
    a_inv = _upper_triangular_inverse(t[:h, :h])
    d_inv = _upper_triangular_inverse(t[h:, h:])
    out = np.zeros_like(t)
    out[:h, :h] = a_inv
    out[h:, h:] = d_inv
    out[:h, h:] = -(a_inv @ t[:h, h:]) @ d_inv
    return out


class _CompactWY:
    """Q = H_0 H_1 ... H_{E-1} of a Householder QR of an (N, E) matrix, kept
    as its reflectors in compact-WY blocks (Schreiber & Van Loan, SIAM J.
    Sci. Stat. Comput. 10, 1989); Q itself is never formed.

    Block i holds reflectors j0..j1-1 as V' (rows: the reflectors, columns:
    coordinates j0..N-1, unit lower trapezoidal as V) and an upper-triangular
    S with H_j0 ... H_j1-1 = I - V S V'.  ``q @ y`` is Q [y; 0], i.e.
    Q[:, :E] y.
    """

    def __init__(self, h: np.ndarray, tau: np.ndarray):
        # (h, tau) as np.linalg.qr(a, mode="raw") returns them: reflector j
        # is h[j, j:] with its first entry set to 1, H_j = I - tau_j v_j v_j'
        self.shape = h.shape[::-1]
        self.blocks = []
        for j0 in range(0, len(tau), _BLOCK_ORDER):
            j1 = min(j0 + _BLOCK_ORDER, len(tau))
            b = j1 - j0
            vt = np.array(h[j0:j1, j0:], order="C")
            vt[:, :b] = np.triu(vt[:, :b], 1) + np.eye(b)
            gram = vt @ vt.T
            s = np.zeros((b, b))
            # appending H_j to I - V S V' appends the column -tau_j S V' v_j
            for i, t in enumerate(tau[j0:j1]):
                s[:i, i] = -t * (s[:i, :i] @ gram[:i, i])
                s[i, i] = t
            self.blocks.append((j0, vt, s))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Q x, computed in place in x of shape (N,) or (N, m)."""
        for j0, vt, s in reversed(self.blocks):
            tail = x[j0:]
            tail -= vt.T @ (s @ (vt @ tail))
        return x

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        x = np.zeros((self.shape[0],) + y.shape[1:])
        x[:len(y)] = y
        return self.apply(x)

    def leading_columns(self) -> np.ndarray:
        """Q[:, :E]."""
        return self @ np.eye(self.shape[1])


def _qr_split(mat: np.ndarray, tol: float) -> KernelDecomposition | None:
    """Splitting for a matrix with certified independent rows, or None.

    Householder QR of R' = Q [T; 0] gives K-bar = Q[:, :E] and K = Q[:, E:]
    once rank E is certified: sigma_min >= 1 / ||T^-1||_F and
    sigma_max <= ||R||_F, so 1 / ||T^-1||_F > tol ||R||_F implies the SVD's
    rule s > tol * s_max keeps all E singular values.  Since
    sigma_min <= min |T_jj|, a diagonal at or below tol ||R||_F rules the
    certificate out before T is inverted.

    Only the factor is computed (LAPACK's geqrf, no orgqr), so a declined
    attempt costs no work on Q.  An accepted one keeps Q as its reflectors
    in compact-WY blocks: K = Q [0; I], the solves apply Q to [T^-T rhs; 0],
    and K-bar is formed only if Kbar_basis is read.
    """
    n_edges, n_free = mat.shape
    h, tau = np.linalg.qr(mat.T, mode="raw")
    cutoff = tol * np.linalg.norm(mat)
    if not np.min(np.abs(np.diagonal(h))) > cutoff:   # T's diagonal
        return None
    t_inv = _upper_triangular_inverse(np.triu(h.T[:n_edges]))
    sigma_min_bound = 1.0 / np.linalg.norm(t_inv)
    if not sigma_min_bound > cutoff:
        return None
    q = _CompactWY(h, tau)
    del h
    dim_k = n_free - n_edges
    return KernelDecomposition(
        q.apply(np.eye(n_free, dim_k, -n_edges)), dim_k,
        np.zeros((n_edges, 0)), t_inv.T, q, "qr", float(sigma_min_bound / cutoff),
    )


def _svd_split(mat: np.ndarray, tol: float) -> KernelDecomposition:
    """SVD-based splitting: right singular vectors whose singular value is
    <= tol * sigma_max span K, the rest span K-bar."""
    u, s, vt = np.linalg.svd(mat, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    margin = float(s[rank - 1] / (tol * smax)) if rank else None
    return KernelDecomposition(
        vt[rank:].T, mat.shape[1] - rank,
        u[:, rank:], u[:, :rank].T / s[:rank, None], vt[:rank].T, "svd", margin,
    )


def kernel_decomposition(R: RigidityMatrix) -> KernelDecomposition:
    """Split pinned coordinate space into K = ker R and K-bar.

    A matrix with no more rows than columns first tries the QR path, which
    accepts only a rank it can certify (see _qr_split).  Everything else (more
    rows than columns, a self-stress, a failed certificate) goes to the full
    SVD, which keeps the right singular vectors with s > tol * sigma_max as
    K-bar, tol = DEFAULT_KERNEL_TOL.  The QR path accepts only the rank that
    rule would give.
    """
    mat = R.matrix
    if 0 < mat.shape[0] <= mat.shape[1]:
        kd = _qr_split(mat, DEFAULT_KERNEL_TOL)
        if kd is not None:
            return kd
    return _svd_split(mat, DEFAULT_KERNEL_TOL)

