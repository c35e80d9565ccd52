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
    plus the thin SVD data needed to reuse the factorization for the ladder's
    minimum-norm least-squares solves."""

    K_basis: np.ndarray           # (n_free, dim_K)
    Kbar_basis: np.ndarray        # (n_free, rank)
    dim_K: int
    singular_values: np.ndarray   # length min(n_edges, n_free)
    _U: np.ndarray                # (n_edges, n_edges) left singular vectors
    _Vt: np.ndarray               # (n_free, n_free) right singular vectors

    def __post_init__(self):
        for name in ("K_basis", "Kbar_basis", "singular_values", "_U", "_Vt"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def rank(self) -> int:
        return self.Kbar_basis.shape[1]

    @property
    def n_free(self) -> int:
        return self.K_basis.shape[0]

    def project_K(self, x: np.ndarray) -> np.ndarray:
        return self.K_basis @ (self.K_basis.T @ x)

    def solve_min_norm(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """Minimum-norm least-squares solution of R x = rhs via the stored
        truncated SVD, together with the residual norm ||R x - rhs||.

        The solution is orthogonal to ker R, i.e. automatically in K-bar.
        """
        r = self.rank
        if r == 0:
            return np.zeros(self.n_free), float(np.linalg.norm(rhs))
        u_r = self._U[:, :r]
        y = u_r.T @ rhs
        x = self.Kbar_basis @ (y / self.singular_values[:r])
        residual = rhs - u_r @ y
        return x, float(np.linalg.norm(residual))


def kernel_decomposition(R: RigidityMatrix, tol: float = DEFAULT_KERNEL_TOL) -> KernelDecomposition:
    """SVD-based splitting: right singular vectors whose singular value is
    <= tol * sigma_max span K, the rest span K-bar."""
    mat = R.matrix
    n_free = mat.shape[1]
    if mat.shape[0] == 0 or n_free == 0:
        eye = np.eye(n_free)
        return KernelDecomposition(
            eye, np.zeros((n_free, 0)), n_free, np.zeros(0),
            np.zeros((mat.shape[0], mat.shape[0])), eye.T,
        )
    u, s, vt = np.linalg.svd(mat, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    kbar = vt[:rank].T
    k = vt[rank:].T
    return KernelDecomposition(k, kbar, n_free - rank, s, u, vt)


def first_order_rigid(pf: PinnedFramework, tol: float = DEFAULT_KERNEL_TOL) -> bool:
    """True iff the pinned framework has no nontrivial first-order flex
    (dim K = 0), which certifies rigidity order 1."""
    return kernel_decomposition(rigidity_matrix(pf), tol).dim_K == 0
