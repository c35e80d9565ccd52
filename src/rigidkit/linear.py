"""First-order flex space K and the K / K-bar splitting of pinned
coordinate space, from the rigidity matrix.

The pinned rigidity matrix R (framework.rigidity_matrix) has one row per
edge; R x recovers, per edge vw, the quantity (p_v - p_w) . (x_v - x_w) for
any pinned-coordinate vector x (the conventional factor of 2 from
differentiating squared lengths is dropped).
K = ker R holds the first-order flex coefficients; K-bar is chosen as its
orthogonal complement, which makes the ladder's least-squares solutions
canonical.

A matrix with independent rows is split by a certified Householder QR of R'
that works on R's envelope (_qr_split): the coordinates go in reverse
Cuthill-McKee order, the edges by their last coordinate in it, and each
panel of _BLOCK_ORDER edges is factored over the window of coordinates it
reaches, so a banded R, such as a strip's, costs O(E b^2) for the factor
instead of O(N^3).  The factor works in one window of R' at a time and
keeps O(E b) numbers: Q as each panel's explicit orthogonal factor over
its window, T as each panel's inverse diagonal block A^-1 and G = A^-1 U
beside it (_PanelTriangular), the inverses formed in one batch once the
last panel is in.  A solve is then one matmul per panel for T^-T and one
per window for Q.  The one O(E N) array left on this path is R itself, a
plain array that every caller assembles with framework.rigidity_matrix
and passes to kernel_decomposition; the benchmark's tracer
(bench/tracing.py) times the two at those bindings.  Reading R's nonzeros
straight from the pinned framework would remove it.
Everything else goes to the dense SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_KERNEL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class KernelDecomposition:
    """Orthonormal bases of K = ker R and of its orthogonal complement K-bar,
    plus what the ladder's minimum-norm least-squares solves reuse.

    R factors through K-bar as R = F Kbar' with F (n_edges, rank) of full
    column rank, so the minimum-norm solution of R x = rhs is
    Kbar (F^+ rhs).  _pinv applies F^+.  When P R' E = Q [T; 0] came from
    QR, P and E the coordinate and edge orders (method "qr",
    Kbar = P' Q[:, :E]), F^+ is T^-T after E, and _pinv is T itself, kept by
    its panels as A^-1 and A^-1 U for diagonal block A and coupling
    rectangle U, which applies T^-T by block substitution; no E x E array
    is formed.  When
    R = U_r diag(sigma_r) Kbar' came from the SVD (method "svd"), _pinv is
    the matrix diag(1/sigma_r) U_r'.
    _range maps F^+ rhs into pinned coordinates: it is Kbar itself on the
    SVD path and Q, with P, on the QR path, kept as one orthogonal matrix
    per panel window, where Q[:, :E] is never formed and Kbar_basis is
    built from the windows on first read.
    stresses is an orthonormal basis W of the self-stresses (coker R, empty
    on the QR path), and the least-squares residual is ||W' rhs||.
    rank_margin is the factor by which the smallest kept singular value
    clears the cutoff tol * sigma_max: exact on the SVD path, a certified
    lower bound on the QR path, None at rank 0.
    """

    K_basis: np.ndarray           # (n_free, dim_K)
    dim_K: int
    stresses: np.ndarray          # (n_edges, n_edges - rank)
    _pinv: np.ndarray | _PanelTriangular  # (rank, n_edges), or T by panels
    _range: np.ndarray | _WindowedQ  # Kbar (n_free, rank), or Q by windows
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

    def solve_min_norm(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """Minimum-norm least-squares solution of R x = rhs, together with the
        residual norm ||R x - rhs|| = ||W' rhs||, W the stress basis.

        The solution is orthogonal to ker R, i.e. automatically in K-bar.
        """
        x = self._range @ (self._pinv @ rhs)
        return x, float(np.linalg.norm(self.stresses.T @ rhs))


# Block order of the panels of the Householder factor, and of the leaves of
# the triangular inverse.
_BLOCK_ORDER = 64
_LEAF_ORDER = 16


def _triangular_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular upper-triangular matrix, or of each of a
    stack of them (shape (..., n, n)), by block recursion,
    [[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]], down to leaves
    of order _LEAF_ORDER, so most of the work is matmuls (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 14).  A stack takes
    one pass of the recursion, each step one batched call.  numpy has no
    triangular inverse, and its general inverse of a whole panel is an LU
    with as many right-hand sides, slower than these leaves and matmuls."""
    n = t.shape[-1]
    if n <= _LEAF_ORDER:
        return np.linalg.inv(t)
    h = n // 2
    out = np.zeros_like(t)
    a_inv = out[..., :h, :h] = _triangular_inverse(t[..., :h, :h])
    d_inv = out[..., h:, h:] = _triangular_inverse(t[..., h:, h:])
    out[..., :h, h:] = -(a_inv @ t[..., :h, h:]) @ d_inv
    return out


class _PanelTriangular:
    """The upper-triangular factor T of a panel QR, kept by panels.  Panel
    j0..j1-1 has the diagonal block A = T[j0:j1, j0:j1] and the coupling
    rectangle U = T[j0:j1, j1:c1], beyond which its row of T is zero; it
    keeps A^-1 and G = A^-1 U side by side, as one (b, c1 - j0) array
    [A^-1, G].  On a strip that is O(E b) numbers where T^-1 would be
    E x E.  row_order is the edge at each position of T's columns, so
    ``t @ rhs`` is T^-T applied to rhs in edge order.

    factor lists (j0, A, U) of every panel, all of one order but the last,
    which may be shorter; the factorization hands it over once its last
    panel is in, so a split that declines earlier builds none.  The
    inverses are formed here, in one batched _triangular_inverse of the
    stacked (P, b, b) diagonal blocks, a short last panel apart."""

    def __init__(self, row_order: np.ndarray, factor: list):
        self.row_order = row_order
        blocks = [a for _, a, _ in factor]
        full = len(blocks) - (len(blocks[-1]) < len(blocks[0]))
        a_inv = list(_triangular_inverse(np.stack(blocks[:full])))
        a_inv += [_triangular_inverse(a) for a in blocks[full:]]
        self._joint = []          # (j0, [A^-1, G]) of each panel
        for (j0, a, u), inv in zip(factor, a_inv):
            b = len(a)
            m = np.empty((b, b + u.shape[1]))
            m[:, :b] = inv
            np.matmul(inv, u, out=m[:, b:])
            self._joint.append((j0, m))

    @property
    def panels(self) -> list:
        """(j0, A^-1, G) of each panel, views of its [A^-1, G]."""
        return [(j0, m[:, :len(m)], m[:, len(m):]) for j0, m in self._joint]

    def __matmul__(self, rhs: np.ndarray) -> np.ndarray:
        """T^-T rhs[row_order] for rhs of shape (E,) or (E, m), by block
        forward substitution on T' = [[A', 0], [U', W']]: with y1 a
        panel's rows of y, [A^-T; G'] y1 is one matmul that gives the new
        y1 = A^-T y1 and the update U' A^-T y1 = G' y1 of the rows after
        it."""
        y = np.asarray(rhs, dtype=float)[self.row_order]
        for j0, m in self._joint:
            j1 = j0 + len(m)
            out = m.T @ y[j0:j1]
            y[j0:j1] = out[:len(m)]
            y[j1:j0 + len(out)] -= out[len(m):]
        return y

    def inverse_frobenius_sq(self) -> float:
        """||T^-1||_F^2 = tr(Z), Z = (T'T)^-1 = T^-1 T^-T, by the block form
        of the selected-inversion recurrence (Takahashi, Fagan & Chen 1973;
        Erisman & Tinney, Comm. ACM 18, 1975).  Backward over the panels,
        with W the trailing block of T, Z_WW = W^-1 W^-T already known and
        G = A^-1 U as the panel keeps it, a panel's block row of Z is
            Z_12 = -G Z_WW,   Z_11 = A^-1 A^-T - Z_12 G',
        so tr(Z_11) = ||A^-1||_F^2 - <Z_12, G>, and U reaches only Z_WW's
        leading (c1 - j1)-square.  The panels' ends c1 are nondecreasing,
        so of each block row only the rows and columns up to the previous
        panel's end are ever read again, and only those are formed: a few
        rows per panel on a strip, all of Z on a dense envelope."""
        panels = self.panels
        ends = [j0 + g.shape[1] + len(g) for j0, _, g in panels]
        total = 0.0
        rows = []                 # (k0, Z[k0:k0+p, k0:c0]) of the later panels
        for (j0, a_inv, g), c0 in zip(reversed(panels), ([0] + ends[:-1])[::-1]):
            j1 = j0 + len(a_inv)
            c1 = j1 + g.shape[1]
            z_ww = np.empty((c1 - j1, c1 - j1))
            for k0, z in rows:
                k1 = min(k0 + len(z), c1)
                z_ww[k0 - j1:, k0 - j1:k1 - j1] = z[:k1 - k0, :c1 - k0].T
                z_ww[k0 - j1:k1 - j1, k0 - j1:] = z[:k1 - k0, :c1 - k0]
            z_12 = -(g @ z_ww)
            total += float(np.vdot(a_inv, a_inv) - np.vdot(z_12, g))
            p = min(c0, j1) - j0
            z_11 = a_inv[:p] @ a_inv[:p].T - z_12[:p] @ g[:p].T
            rows = [(k0, z) for k0, z in rows if k0 < c0]
            rows.insert(0, (j0, np.hstack([z_11, z_12[:p, :max(c0 - j1, 0)]])))
        return total


class _WindowedQ:
    """Q of a Householder QR of an (N, E) matrix whose rows were taken in
    the order perm, kept as one explicit orthogonal matrix per panel over
    that panel's row window: block i is (j0, Q_w), Q_w the (h, h) factor of
    the panel's window j0..j0+h-1, and Q is their product, each acting
    only on its own window.  ``q @ y`` is Q [y; 0] with its rows put back
    in the original order, so for y of E rows it is Q[:, :E] y.
    """

    def __init__(self, perm: np.ndarray, n_cols: int):
        self.perm = perm
        self.shape = (len(perm), n_cols)
        self.blocks = []

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Q x, computed in place in x of shape (N,) or (N, m), x in the
        factor's row order."""
        for j0, q_w in reversed(self.blocks):
            win = x[j0:j0 + len(q_w)]
            win[:] = q_w @ win
        return x

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        x = np.zeros((self.shape[0],) + y.shape[1:])
        x[:len(y)] = y
        out = np.empty_like(x)
        out[self.perm] = self.apply(x)
        return out

    def leading_columns(self) -> np.ndarray:
        """Q[:, :E]."""
        return self @ np.eye(self.shape[1])


def _envelope_order(rows: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
    """Reverse Cuthill-McKee order (Cuthill & McKee, Proc. 24th ACM National
    Conference, 1969) of the columns of a matrix whose nonzeros sit at
    (rows, cols), rows ascending: two columns are adjacent when some row has
    nonzeros in both.  Each connected component is searched breadth-first
    from its column of fewest nonzeros, each column's new neighbours taken
    in order of ascending nonzero count.  Returns the column at each
    position.  Rows out of ascending order raise ValueError: each row's
    columns are read as one run of cols, and nonzeros listed in another
    order (endpoint-major, say) would give a valid but far worse order
    with no other sign."""
    if np.any(np.diff(rows) < 0):
        raise ValueError("_envelope_order needs the nonzeros listed with rows ascending")
    n_rows = int(rows[-1]) + 1 if rows.size else 0
    by_col = np.argsort(cols, kind="stable")
    col_ptr = np.searchsorted(cols[by_col], np.arange(n_cols + 1)).tolist()
    row_ptr = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    flat = rows[by_col].tolist()
    col_rows = [flat[a:b] for a, b in zip(col_ptr, col_ptr[1:])]
    flat = cols.tolist()
    row_cols = [flat[a:b] for a, b in zip(row_ptr, row_ptr[1:])]
    degree = [len(r) for r in col_rows]
    seen, row_seen = bytearray(n_cols), bytearray(n_rows)
    order = []
    for start in sorted(range(n_cols), key=degree.__getitem__):
        if seen[start]:
            continue
        seen[start] = 1
        i = len(order)
        order.append(start)
        while i < len(order):
            c = order[i]
            i += 1
            new = []
            for r in col_rows[c]:
                if not row_seen[r]:
                    row_seen[r] = 1
                    for c2 in row_cols[r]:
                        if not seen[c2]:
                            seen[c2] = 1
                            new.append(c2)
            new.sort(key=degree.__getitem__)
            order += new
    return np.array(order[::-1], dtype=np.intp)


def _envelope_layout(mat: np.ndarray) -> tuple | None:
    """The layout in which _qr_split factors R', or None when it proves R's
    rows dependent.  R's columns (the coordinates) go in reverse
    Cuthill-McKee order, unless R fits in one panel, which is one dense
    factor whatever the order; its rows (the edges) go by their last, then
    first, nonzero column in that order.  An edge whose last coordinate
    comes before its own position proves the rows dependent.

    Returns (vals, col_order, row_order, first, last): R's nonzeros; the
    coordinate and the edge at each position; and the first and last
    coordinate position of the edge at each position."""
    n_edges, n_free = mat.shape
    rows, cols = np.unravel_index(np.flatnonzero(mat != 0), mat.shape)
    col_order = _envelope_order(rows, cols, n_free) if n_edges > _BLOCK_ORDER else np.arange(n_free)
    col_rank = np.empty(n_free, dtype=np.intp)
    col_rank[col_order] = np.arange(n_free)
    first = np.full(n_edges, n_free)
    last = np.full(n_edges, -1)
    np.minimum.at(first, rows, col_rank[cols])
    np.maximum.at(last, rows, col_rank[cols])
    row_order = np.lexsort((first, last))
    first, last = first[row_order], last[row_order]
    if np.any(last < np.arange(n_edges)):
        return None
    return mat[rows, cols], col_order, row_order, first, last


def _qr_split(mat: np.ndarray, tol: float) -> KernelDecomposition | None:
    """Splitting for a matrix with certified independent rows, or None.

    Householder QR of R' = Q [T; 0] gives K-bar = Q[:, :E] and K = Q[:, E:]
    once rank E is certified: sigma_min >= 1 / ||T^-1||_F and
    sigma_max <= ||R||_F, so 1 / ||T^-1||_F > tol ||R||_F implies the SVD's
    rule s > tol * s_max keeps all E singular values.  Since
    sigma_min <= min |T_jj|, a diagonal at or below tol ||R||_F rules the
    certificate out before ||T^-1||_F is computed.

    The factor works on R's envelope.  R's columns (the coordinates) are
    put in reverse Cuthill-McKee order and its rows (the edges) by their
    last, then first, nonzero column in that order, so the nonzeros of
    edge j, and every fill-in of the factorization, lie in coordinates up
    to its last one, l_j.  A panel of _BLOCK_ORDER edges j0..j1-1 is then
    decided by one np.linalg.qr(mode="raw") of the window of coordinates
    j0..l_{j1-1}, whose R gives T's blocks.  A panel that passes takes the
    window's complete orthogonal factor Q_w (h x h, h the window's height)
    from a second np.linalg.qr(mode="complete") of the same block, and its
    update is the one product Q_w' trail on the window of the later edges
    whose first nonzero lies in it (sparse QR: George & Heath, Linear
    Algebra Appl. 34, 1980).  On a banded R, such as a strip's, this
    touches O(E b) entries for window width b, and h is about b + 6; on a
    dense envelope it is ordinary blocked QR at the dense cost.

    Only the current panel's window is held, as one dense array over
    coordinates j0..r1-1 and edges j0..c1-1, c1 the first edge that starts
    at or after r1 (the frontal matrix of multifrontal QR; Davis, ACM TOMS
    38, 2011).  The windows' ends r1 and c1 never decrease, so the
    previous window's trailing block, past its panel, is this window's
    top-left block and holds every update an earlier panel made to it.
    The coordinates from the previous r1 on are R' untouched, read from
    mat, and the new edges are zero above them, since they start at or
    after it.
    When r1 stays put, as on a dense envelope, so does c1, and the
    updated trailing block is the next window as it stands.  The numbers and
    the operations on them are those of one (N, E) work array of R', so
    the factor is the same to the bit, without that array; the one (E, N)
    array left is mat itself (see the module docstring).  An edge j
    with l_j < j proves the rows dependent, and a panel whose diagonal
    fails the cutoff stops the factorization, so a declined attempt ends
    early.  T is never inverted: each panel hands its diagonal block and
    the rectangle of later columns its update reached to a _PanelTriangular,
    which inverts the diagonal blocks in one batch once the last panel is
    in, and gives ||T^-1||_F by block selected inversion and T^-T rhs by
    block substitution, O(E b) work per solve on a strip.  An accepted
    split keeps Q as its read-only windows Q_w: K = Q [0; I], each solve
    applies Q to [T^-T rhs; 0] by one matmul per window, and K-bar is
    formed only if Kbar_basis is read; the two orders fold into _pinv's
    row_order and into Q's rows.
    """
    layout = _envelope_layout(mat)
    if layout is None:
        return None
    vals, col_order, row_order, first, last = layout
    n_edges, n_free = mat.shape
    cutoff = tol * np.linalg.norm(vals)
    # the edges from k on all start at or after reach[k]
    reach = np.minimum.accumulate(first[::-1])[::-1]
    q = _WindowedQ(col_order, n_edges)
    factor = []               # (j0, A, U) of each panel of T
    # the previous window's trailing block, over coordinates j0..r0-1
    window, r0 = np.zeros((0, 0)), 0
    for j0 in range(0, n_edges, _BLOCK_ORDER):
        j1 = min(j0 + _BLOCK_ORDER, n_edges)
        r1 = last[j1 - 1] + 1
        if r1 > r0:
            # R' over coordinates j0..r1-1 and edges j0..c1-1: the trailing
            # block, zeros where the new edges start at or after r0, and
            # the coordinates r0..r1-1, which no panel has reached, from R
            c1 = reach.searchsorted(r1)
            grown = np.zeros((r1 - j0, c1 - j0))
            grown[:r0 - j0, :window.shape[1]] = window
            grown[r0 - j0:] = mat[row_order[j0:c1, None], col_order[r0:r1]].T
            window, r0 = grown, r1
        panel = window[:, :j1 - j0]
        h = np.linalg.qr(panel, mode="raw")[0]
        if not np.min(np.abs(np.diagonal(h))) > cutoff:   # T's diagonal
            return None
        q_w = np.linalg.qr(panel, mode="complete")[0]
        q_w.setflags(write=False)
        q.blocks.append((j0, q_w))
        trail = q_w.T @ window[:, j1 - j0:]
        # U copied so that it does not keep the window alive
        factor.append((j0, np.triu(h[:, :j1 - j0].T), trail[:j1 - j0].copy()))
        window = trail[j1 - j0:]
    t = _PanelTriangular(row_order, factor)
    sigma_min_bound = 1.0 / np.sqrt(t.inverse_frobenius_sq())
    if not sigma_min_bound > cutoff:
        return None
    dim_k = n_free - n_edges
    return KernelDecomposition(
        q @ np.eye(n_free, dim_k, -n_edges), dim_k,
        np.zeros((n_edges, 0)), t, q, "qr",
        float(sigma_min_bound / cutoff),
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


def kernel_decomposition(R: np.ndarray) -> KernelDecomposition:
    """Split pinned coordinate space into K = ker R and K-bar.

    A matrix with no more rows than columns first tries the QR path, which
    accepts only a rank it can certify (see _qr_split).  Everything else (more
    rows than columns, a self-stress, a failed certificate) goes to the full
    SVD, which keeps the right singular vectors with s > tol * sigma_max as
    K-bar, tol = DEFAULT_KERNEL_TOL.  The QR path accepts only the rank that
    rule would give.
    """
    if 0 < R.shape[0] <= R.shape[1]:
        kd = _qr_split(R, DEFAULT_KERNEL_TOL)
        if kd is not None:
            return kd
    return _svd_split(R, DEFAULT_KERNEL_TOL)

