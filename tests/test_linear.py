from fractions import Fraction

import numpy as np
import pytest

from rigidkit import (
    Framework,
    kernel_decomposition,
    load_corpus,
    permute_framework,
    pin,
    pin_with_permutation,
    rigidity_matrix,
    solve_ladder,
)
from rigidkit.linear import _BLOCK_ORDER, DEFAULT_KERNEL_TOL, _CompactWY, _PanelTriangular, _qr_split, _svd_split

from oracles import dense_triangular, embed_tangent, inverse_frobenius_sq


def exact_rank(matrix) -> int:
    """Gaussian elimination over exact rationals; independent of the SVD."""
    rows = [[Fraction(x).limit_denominator(10**12) for x in row] for row in matrix]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_segment_matrix_is_p2x():
    seg = Framework(2, np.array([[0.0, 0.0], [1.7, 0.0]]), [(0, 1)])
    pf, _ = pin(seg)
    R = rigidity_matrix(pf)
    assert pf.n_free == 1
    assert R.shape == (1, 1) and R.flags.c_contiguous and not R.flags.writeable
    assert R[0, 0] == pytest.approx(1.7)


def test_triangle_matrix_hand_computed(triangle_pinned):
    R = rigidity_matrix(triangle_pinned)
    # pinned triangle (0,0), (1,0), (0.5,1); free coords (v1,x), (v2,x), (v2,y)
    expected = np.array([
        [1.0, 0.0, 0.0],     # edge (0,1): (p1 - p0) in v1's x column
        [0.0, 0.5, 1.0],     # edge (0,2): (p2 - p0) in v2's columns
        [0.5, -0.5, 1.0],    # edge (1,2)
    ])
    assert np.allclose(R, expected)
    # cofactor expansion: det = 1 * (0.5 * 1 - 1 * (-0.5)) = 1
    assert np.linalg.det(R) == pytest.approx(1.0)


def test_matrix_encodes_edge_bilinear_form(corpus_analysis):
    rng = np.random.default_rng(7)
    for item in corpus_analysis.values():
        pf = item["pf"]
        R = rigidity_matrix(pf)
        for _ in range(3):
            x = rng.standard_normal(pf.n_free)
            full = embed_tangent(pf, x)
            verts = pf.base.vertices
            direct = np.array([
                np.dot(verts[v] - verts[w], full[v] - full[w]) for v, w in pf.base.edges
            ])
            assert np.allclose(R @ x, direct, atol=1e-12 * (1 + np.max(np.abs(direct))))


def test_triangle_kernel_trivial(triangle_pinned):
    kd = kernel_decomposition(rigidity_matrix(triangle_pinned))
    assert kd.dim_K == 0
    assert kernel_decomposition(rigidity_matrix(triangle_pinned)).dim_K == 0


def test_square_kernel_dimension_via_exact_rank(square_pinned):
    R = rigidity_matrix(square_pinned)
    assert R.shape == (4, 5)
    assert exact_rank(R) == 4
    kd = kernel_decomposition(R)
    assert kd.dim_K == 1
    assert kernel_decomposition(rigidity_matrix(square_pinned)).dim_K != 0


def test_corpus_kernels_one_dimensional(corpus_analysis):
    for name, item in corpus_analysis.items():
        assert item["kd"].dim_K == 1, name
        assert kernel_decomposition(rigidity_matrix(item["pf"])).dim_K != 0, name


def test_kernel_vectors_annihilated(corpus_analysis):
    for item in corpus_analysis.values():
        R = rigidity_matrix(item["pf"])
        kd = item["kd"]
        norm = np.linalg.norm(R)
        for j in range(kd.dim_K):
            assert np.linalg.norm(R @ kd.K_basis[:, j]) < 1e-9 * norm


def test_projector_identity(corpus_analysis, square_pinned):
    cases = [item["kd"] for item in corpus_analysis.values()]
    cases.append(kernel_decomposition(rigidity_matrix(square_pinned)))
    for kd in cases:
        proj = kd.K_basis @ kd.K_basis.T + kd.Kbar_basis @ kd.Kbar_basis.T
        assert np.allclose(proj, np.eye(kd.K_basis.shape[0]), atol=1e-10)


def test_dim_K_invariant_under_relabeling():
    from rigidkit import load_corpus

    fw = load_corpus("k33")
    rng = np.random.default_rng(21)
    for _ in range(5):
        perm = rng.permutation(fw.n_vertices)
        pfw = permute_framework(fw, perm)
        pf, _, _ = pin_with_permutation(pfw)
        kd = kernel_decomposition(rigidity_matrix(pf))
        assert kd.dim_K == 1


def test_solve_min_norm_consistency(square_pinned):
    R = rigidity_matrix(square_pinned)
    kd = kernel_decomposition(R)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(R.shape[0])
    x, residual = kd.solve_min_norm(rhs)
    # minimum-norm solution lies in K-bar
    assert np.linalg.norm(kd.K_basis @ (kd.K_basis.T @ x)) < 1e-12
    assert residual == pytest.approx(np.linalg.norm(R @ x - rhs), abs=1e-12)
    # against numpy lstsq
    x2, *_ = np.linalg.lstsq(R, rhs, rcond=None)
    assert np.allclose(x, x2, atol=1e-10)


def _jittered_strip(n: int, rng):
    """Triangulated strip on n vertices: two jittered rows, 2n - 3 bars."""
    x = np.repeat(np.arange(n // 2, dtype=float), 2)
    x[0::2] += 0.5
    pts = np.column_stack([x, np.tile([1.0, 0.0], n // 2)])
    pts += rng.uniform(-0.02, 0.02, size=pts.shape)
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
    return pts, edges


def strip_minus_edge(n: int, seed: int):
    """Pinned triangulated strip on n vertices with one interior zig-zag
    diagonal removed: a mechanism with dim K = 1 whose 2n - 4 rows are
    independent."""
    rng = np.random.default_rng(seed)
    pts, edges = _jittered_strip(n, rng)
    drop = int(rng.integers(n // 4, 3 * n // 4))
    edges.remove((drop, drop + 1))
    return pin(Framework(2, pts, edges))[0]


def strip_minus_two_diagonals(n: int, seed: int):
    """Pinned triangulated strip on n vertices with two zig-zag diagonals
    removed: a mechanism with dim K = 2 whose 2n - 5 rows are independent."""
    pts, edges = _jittered_strip(n, np.random.default_rng(seed))
    for drop in (n // 4, 3 * n // 4):
        edges.remove((drop, drop + 1))
    return pin(Framework(2, pts, edges))[0]


def near_flat_triangle(eps: float):
    """Pinned triangle whose apex sits eps off the line of the other two
    vertices: sigma_min of R is proportional to eps."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, eps]])
    return pin(Framework(2, pts, [(0, 1), (0, 2), (1, 2)]))[0]


@pytest.mark.parametrize("n", [150, 300, 600])
def test_qr_split_matches_svd_referee_on_strips(n):
    pf = strip_minus_edge(n, seed=n)
    R = rigidity_matrix(pf)
    kd = kernel_decomposition(R)
    ref = _svd_split(R, DEFAULT_KERNEL_TOL)
    assert (kd.method, ref.method) == ("qr", "svd")
    assert kd.dim_K == ref.dim_K == 1
    assert abs(kd.K_basis[:, 0] @ ref.K_basis[:, 0]) >= 1 - 1e-12
    # the QR margin is a certified lower bound of the exact one
    assert 1 < kd.rank_margin <= ref.rank_margin
    rng = np.random.default_rng(n)
    for _ in range(3):
        rhs = rng.standard_normal(R.shape[0])
        x, residual = kd.solve_min_norm(rhs)
        x_ref, residual_ref = ref.solve_min_norm(rhs)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert residual == 0.0
        assert residual_ref <= 1e-12 * np.linalg.norm(rhs)
    rep, rep_ref = solve_ladder(pf, kd), solve_ladder(pf, ref)
    assert rep.verdict == rep_ref.verdict == "flex-found"
    assert len(rep.residuals) == len(rep_ref.residuals)
    norms = np.linalg.norm(rep.witness.coeffs, axis=1)
    norms_ref = np.linalg.norm(rep_ref.witness.coeffs, axis=1)
    assert np.allclose(norms, norms_ref, rtol=1e-9, atol=0)


@pytest.mark.parametrize("n", [20, 200])
def test_qr_split_matches_svd_referee_at_dim_k_two(n):
    # n = 200 has 395 rows, so K, K-bar and the solves cross several
    # compact-WY blocks of the Householder factor
    R = rigidity_matrix(strip_minus_two_diagonals(n, seed=n))
    kd = kernel_decomposition(R)
    ref = _svd_split(R, DEFAULT_KERNEL_TOL)
    assert (kd.method, ref.method) == ("qr", "svd")
    assert kd.dim_K == ref.dim_K == 2
    proj = kd.K_basis @ kd.K_basis.T + kd.Kbar_basis @ kd.Kbar_basis.T
    assert np.max(np.abs(proj - np.eye(kd.K_basis.shape[0]))) <= 1e-12
    assert np.linalg.norm(R @ kd.K_basis) <= 1e-9 * np.linalg.norm(R)
    # the cosines of the principal angles between the two kernels
    cosines = np.linalg.svd(kd.K_basis.T @ ref.K_basis, compute_uv=False)
    assert np.min(cosines) >= 1 - 1e-12
    rng = np.random.default_rng(n)
    for _ in range(3):
        rhs = rng.standard_normal(R.shape[0])
        x, residual = kd.solve_min_norm(rhs)
        x_ref, _ = ref.solve_min_norm(rhs)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert residual == 0.0


def test_qr_split_never_forms_q(monkeypatch):
    # only Householder factors are computed, one raw factor per panel, on an
    # accepted split and a declined one alike, and the dim K = 1 ladder
    # never needs K-bar itself
    modes, formed = [], []
    qr, leading_columns = np.linalg.qr, _CompactWY.leading_columns

    def recording_qr(a, mode="reduced"):
        modes.append(mode)
        return qr(a, mode=mode)

    def recording_leading_columns(q):
        formed.append(q)
        return leading_columns(q)

    strip = strip_minus_edge(300, seed=300)
    k33 = pin_with_permutation(load_corpus("k33"))[0]
    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    monkeypatch.setattr(_CompactWY, "leading_columns", recording_leading_columns)
    kd = kernel_decomposition(rigidity_matrix(strip))
    assert solve_ladder(strip, kd).verdict == "flex-found"
    assert kd.method == "qr" and not formed
    assert kernel_decomposition(rigidity_matrix(k33)).method == "svd"
    assert modes and set(modes) == {"raw"}


def _relabelled(pf, rng):
    """pf's framework with vertices 2.. relabelled at random, pinned again;
    vertices 0 and 1 keep the pinned frame, so the pinned coordinates are
    the same up to order.  Returns the new pinned framework and, per free
    column of it, the matching free column of pf."""
    perm = np.concatenate([[0, 1], 2 + rng.permutation(pf.base.n_vertices - 2)])
    new = pin(permute_framework(pf.base, perm))[0]
    column = np.full(pf.base.vertices.shape, -1)
    column[pf.free_vertex, pf.free_axis] = np.arange(pf.n_free)
    return new, column[perm[new.free_vertex], new.free_axis]


@pytest.mark.parametrize("make, n, dim_k", [(strip_minus_edge, 600, 1), (strip_minus_two_diagonals, 200, 2)])
def test_qr_split_is_independent_of_vertex_labels(make, n, dim_k):
    pf = make(n, seed=n)
    kd = kernel_decomposition(rigidity_matrix(pf))
    new, cols = _relabelled(pf, np.random.default_rng(n + 1))
    kd_new = kernel_decomposition(rigidity_matrix(new))
    assert (kd.method, kd.dim_K) == (kd_new.method, kd_new.dim_K) == ("qr", dim_k)
    cosines = np.linalg.svd(kd.K_basis[cols].T @ kd_new.K_basis, compute_uv=False)
    assert np.min(cosines) >= 1 - 1e-12
    if dim_k == 1:
        rep, rep_new = solve_ladder(pf, kd), solve_ladder(new, kd_new)
        assert rep.verdict == rep_new.verdict == "flex-found"
        norms = np.linalg.norm(rep.witness.coeffs, axis=1)
        norms_new = np.linalg.norm(rep_new.witness.coeffs, axis=1)
        assert np.allclose(norms_new, norms, rtol=1e-9, atol=0)


def test_qr_split_windows_follow_the_band():
    # a count, not a timing: on a strip, in its own labels or in random
    # ones, every compact-WY block acts on a window of about one panel's
    # height, not on all the coordinates below it
    pf = strip_minus_edge(600, seed=600)
    for strip in (pf, _relabelled(pf, np.random.default_rng(601))[0]):
        kd = kernel_decomposition(rigidity_matrix(strip))
        assert kd.method == "qr"
        windows = [vt.shape[1] for _, vt, _ in kd._range.blocks]
        assert len(windows) == -(-(kd.K_basis.shape[0] - kd.dim_K) // _BLOCK_ORDER)
        assert max(windows) <= _BLOCK_ORDER + 8


def test_compact_wy_block_is_the_product_of_its_reflectors():
    # the first 10 columns are already triangular, so their reflectors are
    # the identity (tau = 0); S must still give H_0 ... H_63 = I - V S V'
    a = np.random.default_rng(4).standard_normal((70, 64))
    a[:, :10] = np.triu(a[:, :10])
    h, tau = np.linalg.qr(a, mode="raw")
    assert np.all(tau[:10] == 0) and np.all(tau[10:] != 0)
    vt, s = _CompactWY(np.arange(70), 64).add_panel(0, h, tau)
    product = np.eye(70)
    for v, t in zip(vt, tau):
        product = product @ (np.eye(70) - t * np.outer(v, v))
    assert np.allclose(np.eye(70) - vt.T @ s @ vt, product, rtol=0, atol=1e-13)
    assert np.array_equal(np.triu(s), s)


def test_qr_split_on_a_dense_envelope_matches_svd():
    # every row is dense, so each panel's window runs to the last row: plain
    # blocked QR, with E = 130 not a multiple of the panel width
    mat = np.random.default_rng(5).standard_normal((130, 140))
    kd = _qr_split(mat, DEFAULT_KERNEL_TOL)
    ref = _svd_split(mat, DEFAULT_KERNEL_TOL)
    assert kd.method == "qr" and kd.dim_K == ref.dim_K == 10
    assert [vt.shape[1] for _, vt, _ in kd._range.blocks] == [140, 76, 12]
    assert 1 < kd.rank_margin <= ref.rank_margin
    cosines = np.linalg.svd(kd.K_basis.T @ ref.K_basis, compute_uv=False)
    assert np.min(cosines) >= 1 - 1e-12
    proj = kd.K_basis @ kd.K_basis.T + kd.Kbar_basis @ kd.Kbar_basis.T
    assert np.max(np.abs(proj - np.eye(140))) <= 1e-12
    rhs = np.random.default_rng(6).standard_normal((130, 3))
    x, residual = kd.solve_min_norm(rhs)
    x_ref, _ = ref.solve_min_norm(rhs)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert residual == 0.0


def tetrahedral_chain_minus_bar(n: int, seed: int):
    """Pinned chain of n - 3 tetrahedra along a jittered helix, each vertex
    from 3 on joined to the three before it, with one bar in the middle
    removed: a 3D mechanism with dim K = 1 whose 3n - 7 rows are
    independent."""
    rng = np.random.default_rng(seed)
    turn = 2 * np.pi / 3.3 * np.arange(n)
    pts = np.column_stack([np.cos(turn), np.sin(turn), 0.35 * np.arange(n)])
    pts += rng.uniform(-0.05, 0.05, size=pts.shape)
    edges = [(0, 1), (0, 2), (1, 2)] + [(v - k, v) for v in range(3, n) for k in (1, 2, 3)]
    edges.remove((n // 2 - 3, n // 2))
    return pin(Framework(3, pts, edges))[0]


def random_band(n_rows: int, n_cols: int, below: int, above: int, seed: int) -> np.ndarray:
    """Gaussian matrix whose row i is nonzero in columns i - below .. i + above - 1."""
    mat = np.random.default_rng(seed).standard_normal((n_rows, n_cols))
    i, j = np.indices(mat.shape)
    mat[(j < i - below) | (j >= i + above)] = 0.0
    return mat


SPLIT_INPUTS = {
    "dense_envelope": lambda: np.random.default_rng(5).standard_normal((130, 140)),
    "band": lambda: random_band(300, 310, 20, 150, seed=7),
    "strip600": lambda: rigidity_matrix(strip_minus_edge(600, seed=600)),
    "tetrahedra": lambda: rigidity_matrix(tetrahedral_chain_minus_bar(103, seed=0)),
}


def _split_recording_t(mat, monkeypatch):
    """_qr_split(mat) and its T, assembled from the panels it recorded."""
    panels, add_panel = [], _PanelTriangular.add_panel

    def recording(self, j0, a, u):
        panels.append((j0, a.copy(), u.copy()))
        add_panel(self, j0, a, u)

    monkeypatch.setattr(_PanelTriangular, "add_panel", recording)
    kd = _qr_split(mat, DEFAULT_KERNEL_TOL)
    monkeypatch.undo()
    return kd, dense_triangular(panels, mat.shape[0])


@pytest.mark.parametrize("name", ["dense_envelope", "band", "strip600"])
def test_banded_inverse_frobenius_norm_matches_the_dense_inverse(name, monkeypatch):
    mat = SPLIT_INPUTS[name]()
    kd, t = _split_recording_t(mat, monkeypatch)
    assert kd.method == "qr"
    widths = [u.shape[1] for _, _, u in kd._pinv.panels]
    if name == "band":
        # some coupling rectangles reach past the next panel
        assert max(widths) > 2 * _BLOCK_ORDER
    assert kd._pinv.inverse_frobenius_sq() == pytest.approx(inverse_frobenius_sq(t), rel=1e-13)
    # and T^-T by block substitution is the dense triangular solve
    rhs = np.random.default_rng(8).standard_normal((mat.shape[0], 2))
    y = np.linalg.solve(t.T, rhs[kd._pinv.row_order])
    assert np.linalg.norm(kd._pinv @ rhs - y) <= 1e-12 * np.linalg.norm(y)


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _arrays(item)


def test_qr_split_keeps_no_edge_by_edge_array():
    # a count: what an accepted split on the 600 strip keeps is O(E b),
    # in arrays that own their data or view small ones
    R = rigidity_matrix(strip_minus_edge(600, seed=600))
    kd = kernel_decomposition(R)
    assert kd.method == "qr" and "Kbar_basis" not in vars(kd)
    kept = [a for name, value in vars(kd).items() if name != "K_basis" for a in _arrays(value)]
    assert len(kept) > 2 * len(kd._range.blocks)
    n_edges = R.shape[0]
    for a in kept:
        assert (a if a.base is None else a.base).size <= 2 * _BLOCK_ORDER * n_edges


@pytest.mark.parametrize("name", ["band", "strip600", "tetrahedra"])
def test_qr_solves_match_the_svd_referee(name):
    mat = SPLIT_INPUTS[name]()
    kd, ref = _qr_split(mat, DEFAULT_KERNEL_TOL), _svd_split(mat, DEFAULT_KERNEL_TOL)
    assert kd.method == "qr" and kd.dim_K == ref.dim_K
    rng = np.random.default_rng(9)
    for shape in [(mat.shape[0],), (mat.shape[0], 3)]:
        rhs = rng.standard_normal(shape)
        x, residual = kd.solve_min_norm(rhs)
        x_ref, _ = ref.solve_min_norm(rhs)
        assert x.shape == x_ref.shape == (mat.shape[1],) + shape[1:]
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert residual == 0.0


def test_qr_split_of_a_3d_mechanism_matches_svd():
    # 302 rows: five panels, in 3D, where every other QR-path input is a 2D
    # strip or a random matrix
    pf = tetrahedral_chain_minus_bar(103, seed=0)
    R = rigidity_matrix(pf)
    kd = kernel_decomposition(R)
    ref = _svd_split(R, DEFAULT_KERNEL_TOL)
    assert R.shape == (302, 303) and len(kd._range.blocks) == 5
    assert (kd.method, ref.method) == ("qr", "svd")
    assert kd.dim_K == ref.dim_K == 1
    assert abs(kd.K_basis[:, 0] @ ref.K_basis[:, 0]) >= 1 - 1e-12
    assert 1 < kd.rank_margin <= ref.rank_margin
    rep, rep_ref = solve_ladder(pf, kd), solve_ladder(pf, ref)
    assert rep.verdict == rep_ref.verdict == "flex-found"
    assert len(rep.residuals) == len(rep_ref.residuals)
    # the odd coefficients are rounding noise 1e-18 below the first, so
    # the witnesses are compared on the scale of their largest entry
    coeffs, coeffs_ref = rep.witness.coeffs, rep_ref.witness.coeffs
    assert np.max(np.abs(coeffs - coeffs_ref)) <= 1e-10 * np.max(np.abs(coeffs_ref))


@pytest.mark.parametrize("eps, diagonal_clears", [(1e-11, False), (8e-10, True), (9e-10, True)])
def test_qr_split_declines_near_degenerate_triangle(eps, diagonal_clears):
    # At 1e-11 a diagonal entry of T is below tol ||R||_F.  At 8e-10 and
    # 9e-10 every diagonal entry clears it but 1 / ||T^-1||_F does not; the
    # SVD then keeps 2 and 3 singular values.
    R = rigidity_matrix(near_flat_triangle(eps))
    t = np.linalg.qr(R.T, mode="r")
    cutoff = DEFAULT_KERNEL_TOL * np.linalg.norm(R)
    assert (np.min(np.abs(np.diagonal(t))) > cutoff) == diagonal_clears
    kd = kernel_decomposition(R)
    ref = _svd_split(R, DEFAULT_KERNEL_TOL)
    assert kd.method == "svd"
    assert kd.dim_K == ref.dim_K == (1 if eps < 9e-10 else 0)
    s = np.linalg.svd(R, compute_uv=False)
    exact = s[kd.K_basis.shape[0] - kd.dim_K - 1] / (DEFAULT_KERNEL_TOL * s[0])
    assert kd.rank_margin == pytest.approx(exact, rel=1e-12)


def test_qr_path_never_decides_a_rank_the_svd_would_not():
    methods = set()
    for eps in np.geomspace(1e-12, 1e-6, 61):
        R = rigidity_matrix(near_flat_triangle(eps))
        kd = kernel_decomposition(R)
        methods.add(kd.method)
        assert kd.dim_K == _svd_split(R, DEFAULT_KERNEL_TOL).dim_K, eps
    assert methods == {"qr", "svd"}


def test_kernel_decomposition_svd_count(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    strip = rigidity_matrix(strip_minus_edge(300, seed=300))
    k33 = rigidity_matrix(pin_with_permutation(load_corpus("k33"))[0])
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    kd = kernel_decomposition(strip)
    assert (kd.method, len(calls)) == ("qr", 0)
    # k33 has a self-stress, so the QR path declines and the SVD decides
    kd = kernel_decomposition(k33)
    assert (kd.method, kd.dim_K, len(calls)) == ("svd", 1, 1)
