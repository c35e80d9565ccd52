import math

import numpy as np
import pytest

from rigidkit import (
    DimKNotOne,
    EnergySpec,
    Framework,
    PolyTrajectory,
    RigidkitError,
    flex_rhs,
    kernel_decomposition,
    load_corpus,
    permute_framework,
    pin_with_permutation,
    rigidity_matrix,
    rigidity_order,
    second_order_rigidity_test,
    solve_ladder,
)
from rigidkit import ladder
from rigidkit.framework import PinnedFramework
from rigidkit.ladder import DEFAULT_LADDER_TOL, DEFAULT_MAX_K
from oracles import classify_flex, embed_tangent
from test_linear import strip_minus_edge
from test_quartic_assembly import midpoint_strip


def edge_diffs(pf, derivs):
    """flex_rhs's input: the edge differences of derivs, entry a - 1 for p_a."""
    return np.moveaxis(pf.edge_differences(np.array(derivs).T), -1, 0)


def test_flex_rhs_level_one_is_zero(square_pinned):
    rhs = flex_rhs(np.zeros((0, square_pinned.base.n_edges, 2)), 1)
    assert np.array_equal(rhs, np.zeros(square_pinned.base.n_edges))


def test_flex_rhs_level_two_matches_direct_form(square_pinned):
    # level-2 condition: (p_v - p_w).(p''_v - p''_w) = -|p'_v - p'_w|^2
    rng = np.random.default_rng(5)
    p1 = rng.standard_normal(square_pinned.n_free)
    rhs = flex_rhs(edge_diffs(square_pinned, [p1]), 2)
    full = embed_tangent(square_pinned, p1)
    direct = np.array([
        -np.sum((full[v] - full[w]) ** 2) for v, w in square_pinned.base.edges
    ])
    assert np.allclose(rhs, direct, atol=1e-14)
    with pytest.raises(ValueError, match="needs the differences of 2"):
        flex_rhs(edge_diffs(square_pinned, [p1]), 3)


def test_flex_rhs_level_three_vanishing_factor(square_pinned):
    rng = np.random.default_rng(6)
    p1 = rng.standard_normal(square_pinned.n_free)
    p2 = np.zeros(square_pinned.n_free)
    rhs = flex_rhs(edge_diffs(square_pinned, [p1, p2]), 3)
    assert np.allclose(rhs, 0.0, atol=1e-15)


def flex_rhs_per_level(pf, derivs, l):
    """The level-l rhs with one embed_tangent per lower level and one
    accumulation per pair, the summation order flex_rhs used before."""
    ev, ew = pf.base.edge_index_arrays()
    diffs = []
    for v in derivs[: l - 1]:
        full = embed_tangent(pf, np.asarray(v, dtype=float))
        diffs.append(full[ev] - full[ew])
    rhs = np.zeros(pf.base.n_edges)
    for a in range(1, l):
        rhs -= 0.5 * math.comb(l, a) * np.sum(diffs[a - 1] * diffs[l - a - 1], axis=1)
    return rhs


def test_flex_rhs_matches_per_level_gathers(corpus_analysis):
    rng = np.random.default_rng(11)
    for name, item in corpus_analysis.items():
        pf = item["pf"]
        derivs = list(rng.standard_normal((31, pf.n_free)))
        diffs = edge_diffs(pf, derivs)
        for l in range(1, 33):
            want = flex_rhs_per_level(pf, derivs, l)
            got = flex_rhs(diffs, l)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (name, l)


def test_ladder_gathers_each_coefficient_once(monkeypatch):
    # one flex_rhs per level, through the module global the benchmark's
    # tracer wraps, and one gathered column per coefficient: O(k E d)
    # gathers for k levels, where re-gathering p_1..p_{l-1} at every level
    # would take k^2 / 2 columns
    pf = strip_minus_edge(150, seed=150)
    kd = kernel_decomposition(rigidity_matrix(pf))
    calls, columns = [], []
    rhs_fn, gather = ladder.flex_rhs, PinnedFramework.edge_differences

    def counted_rhs(diffs, l):
        calls.append(l)
        return rhs_fn(diffs, l)

    def counted_gather(self, x):
        columns.append(1 if np.ndim(x) == 1 else np.shape(x)[1])
        return gather(self, x)

    monkeypatch.setattr(ladder, "flex_rhs", counted_rhs)
    monkeypatch.setattr(PinnedFramework, "edge_differences", counted_gather)
    rep = solve_ladder(pf, kd)
    monkeypatch.undo()
    assert rep.verdict == "flex-found" and len(rep.residuals) == DEFAULT_MAX_K - 1
    assert calls == list(range(2, DEFAULT_MAX_K + 1))
    # p_1 and each solved level's x but the last, which no level reads
    assert sum(columns) == len(columns) == len(rep.residuals)


def test_corpus_orders(corpus_analysis):
    for name, item in corpus_analysis.items():
        rep = item["report"]
        assert rep.verdict == "order", name
        assert rep.order == item["expected"], name


def test_corpus_residual_margins(corpus_analysis):
    for name, item in corpus_analysis.items():
        rep = item["report"]
        rels = {r.level: r.residual / (1.0 + r.rhs_norm) for r in rep.residuals}
        rejected = rels[rep.order]
        accepted = [rels[l] for l in rels if l < rep.order]
        floor = max(max(accepted), 1e-300) if accepted else 1e-300
        assert rejected / floor >= 1e3, name


def test_square_is_finite_mechanism(square, square_pinned):
    # the 4-cycle's rhombus motion preserves all edge lengths exactly
    base_lengths = square.edge_lengths()
    for phi in np.linspace(np.pi / 2, np.pi / 4, 7):
        verts = np.array([
            [0.0, 0.0],
            [1.0, 0.0],
            [1.0 + np.cos(phi), np.sin(phi)],
            [np.cos(phi), np.sin(phi)],
        ])
        moved = Framework(2, verts, square.edges)
        assert np.allclose(moved.edge_lengths(), base_lengths, atol=1e-15)
    kd = kernel_decomposition(rigidity_matrix(square_pinned))
    rep = solve_ladder(square_pinned, kd, max_k=10)
    assert rep.verdict == "flex-found"
    assert rep.max_k == 10
    assert all(r.residual < 1e-10 for r in rep.residuals)


def test_witness_is_genuine_flex(corpus_analysis):
    # Order(k) witness must be a (1, k-1)-flex, checked through the jet route
    # (independent of the least-squares path that produced it)
    for name, item in corpus_analysis.items():
        rep = item["report"]
        k = rep.order
        if name == "sphere_packing_1":
            # the printed coordinates of this packing carry ~1e-6 noise, so
            # its second-order flex only exists to ~2e-8: below the ladder's
            # 1e-7 acceptance threshold but above the 1e-8 vanishing default
            assert classify_flex(item["pf"], rep.witness, k - 1) == (1, 1)
            assert classify_flex(item["pf"], rep.witness, k - 1, tol=1e-7) == (1, k - 1)
            continue
        j_active, k_vanish = classify_flex(item["pf"], rep.witness, k - 1)
        assert (j_active, k_vanish) == (1, k - 1), name


def test_witness_fourth_derivative_obstructed(corpus_analysis):
    # checking one past the order: the witness is NOT a (1, k)-flex
    for name, item in corpus_analysis.items():
        rep = item["report"]
        k = rep.order
        tol = 1e-7 if name == "sphere_packing_1" else 1e-8
        _, k_vanish = classify_flex(item["pf"], rep.witness, k, tol=tol)
        assert k_vanish == k - 1, name


def test_witness_kbar_normalized(corpus_analysis):
    for name, item in corpus_analysis.items():
        rep = item["report"]
        kd = item["kd"]
        coeffs = rep.witness.coeffs
        assert np.linalg.norm(coeffs[0]) == pytest.approx(1.0, abs=1e-12)
        for l in range(1, coeffs.shape[0]):
            assert np.linalg.norm(kd.K_basis @ (kd.K_basis.T @ coeffs[l])) < 1e-9, (name, l + 1)


def test_ladder_scale_equivariance(corpus_analysis):
    item = corpus_analysis["k33"]
    pf, kd = item["pf"], item["kd"]
    base = item["report"]
    alpha = 1.7
    # the ladder's recursion from alpha p_1: level l's solution scales as
    # alpha^l, and level base.order is still unsolvable
    derivs = [alpha * base.witness.coeffs[0]]
    for level in range(2, base.order + 1):
        rhs = flex_rhs(edge_diffs(pf, derivs), level)
        x, residual = kd.solve_min_norm(rhs)
        if residual > DEFAULT_LADDER_TOL * (1.0 + np.linalg.norm(rhs)):
            break
        derivs.append(x)
    assert level == base.order and len(derivs) == base.witness.degree
    for l, x in enumerate(derivs):
        taylor = x / math.factorial(l + 1)
        assert np.allclose(taylor, alpha ** (l + 1) * base.witness.coeffs[l], atol=1e-10)


def test_relabel_invariance_of_order():
    fw = load_corpus("half_flat_prism")
    rng = np.random.default_rng(17)
    for _ in range(5):
        perm = rng.permutation(fw.n_vertices)
        pf, _, _ = pin_with_permutation(permute_framework(fw, perm))
        rep = rigidity_order(pf)
        assert rep.verdict == "order" and rep.order == 4


def test_rigidity_order_dispatch_first_order(triangle_pinned):
    rep = rigidity_order(triangle_pinned)
    assert rep.verdict == "order" and rep.order == 1
    assert rep.method == "first-order"
    assert rep.dim_K == 0


def test_rigidity_order_dispatch_ladder(corpus_analysis):
    item = corpus_analysis["coned_prism"]
    rep = rigidity_order(item["pf"])
    assert (rep.verdict, rep.order, rep.method) == ("order", 4, "ladder")


def test_k33_minus_one_edge_keeps_dimk_one():
    # K33 carries a fully supported self-stress, so deleting a single edge
    # preserves the row space: dim K stays 1 and the ladder finds a flex
    fw = load_corpus("k33")
    fw2 = Framework(fw.dimension, fw.vertices, fw.edges[:-1])
    pf, _, _ = pin_with_permutation(fw2)
    kd = kernel_decomposition(rigidity_matrix(pf))
    assert kd.dim_K == 1
    rep = solve_ladder(pf, kd, max_k=8)
    assert rep.verdict == "flex-found"


def test_rigidity_order_dispatch_dimk2():
    # removing two K33 edges forces rank <= 7 on 9 free coordinates, which
    # routes through the order-4 energy test; the sparser framework is
    # flexible, so no certificate can come back
    fw = load_corpus("k33")
    fw2 = Framework(fw.dimension, fw.vertices, fw.edges[:-2])
    pf, _, _ = pin_with_permutation(fw2)
    kd = kernel_decomposition(rigidity_matrix(pf))
    assert kd.dim_K == 2
    rep = rigidity_order(pf)
    assert rep.method == "order4-energy"
    assert rep.verdict == "inconclusive"
    assert "symbolic" in rep.reason


def test_rigidity_order_at_dim_k_two_or_more_gives_what_the_order4_test_found():
    # a pentagon flexes (dim K = 2), and the test certifies min mu within
    # +/- tol_eff; at m = 7 one face box has 5^6 Bernstein coefficients, so
    # the box cap stops the search before its first box
    angles = np.linspace(0.0, 2.0 * np.pi, 6)[:-1]
    pentagon = Framework(2, np.c_[np.cos(angles), np.sin(angles)], [(i, (i + 1) % 5) for i in range(5)])
    cases = ((pentagon, 2, "certified: min mu within +/-"),
             (midpoint_strip(40, 7), 7, "box cap of 4096 reached before the first box"))
    for fw, dim_k, note in cases:
        pf, _, _ = pin_with_permutation(fw)
        rep = rigidity_order(pf)
        crit = second_order_rigidity_test(pf, EnergySpec.for_framework(pf.base, "harmonic"))
        assert (rep.verdict, rep.order, rep.method, rep.dim_K) == ("inconclusive", None, "order4-energy", dim_k)
        assert (crit.classification, crit.notes[0][:len(note)]) == ("inconclusive", note)
        assert rep.reason == (f"order-4 test inconclusive; {crit.notes[0]}; "
                              "dimK>1 beyond order 2 requires symbolic methods")


def tetrahedron_edge_midpoint() -> Framework:
    """A tetrahedron plus a degree-2 vertex at the midpoint of one edge."""
    tet = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.9, 0.0], [0.4, 0.3, 0.8]])
    return Framework(3, np.vstack([tet, 0.5 * (tet[0] + tet[1])]),
                     [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)])


def test_low_degree_vertices_keep_their_verdicts():
    # a vertex of degree < d need not flex: in 3-D a degree-2 vertex at the
    # midpoint of a tetrahedron's edge is order 2 (dim K = 2, decided by the
    # order-4 test), so "degree < d means flexible" would be wrong there.
    # A pendant vertex of a 2-D triangle does flex, and the ladder finds it.
    pf, _, _ = pin_with_permutation(tetrahedron_edge_midpoint())
    rep = rigidity_order(pf)
    assert (rep.verdict, rep.order, rep.dim_K, rep.method) == ("order", 2, 2, "order4-energy")
    pendant = Framework(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [1.5, 1.2]]),
                        [(0, 1), (1, 2), (0, 2), (1, 3)])
    pf, _, _ = pin_with_permutation(pendant)
    rep = rigidity_order(pf)
    assert (rep.verdict, rep.order, rep.dim_K) == ("flex-found", None, 1)


# (build, exception type, message): refusals of the trajectory type and of
# the flex equation's right-hand side
_REFUSALS = [
    (lambda: PolyTrajectory(np.zeros(3)), ValueError,
     "coeffs must be a (degree, n_free) array or a (B, degree, n_free) batch"),
    (lambda: PolyTrajectory(np.zeros((1, 1, 1, 1))), ValueError,
     "coeffs must be a (degree, n_free) array or a (B, degree, n_free) batch"),
    (lambda: PolyTrajectory([[0.0, math.nan]]), ValueError, "coeffs must be finite"),
    (lambda: PolyTrajectory(np.zeros((2, 3))).prefix(0), ValueError, "prefix degree must be in 1..2"),
    (lambda: PolyTrajectory(np.zeros((4, 2, 3))).prefix(3), ValueError, "prefix degree must be in 1..2"),
    (lambda: flex_rhs(np.zeros((1, 2, 2)), 0), ValueError, "level must be >= 1"),
]


@pytest.mark.parametrize("build, error, message", _REFUSALS)
def test_trajectory_and_flex_rhs_refusals(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_solve_ladder_requires_dimk_one(triangle_pinned):
    kd = kernel_decomposition(rigidity_matrix(triangle_pinned))
    with pytest.raises(DimKNotOne):
        solve_ladder(triangle_pinned, kd)


def test_solve_ladder_refuses_max_k_below_two(corpus_analysis):
    item = corpus_analysis["k33"]
    with pytest.raises(ValueError, match="max_k must be >= 2"):
        solve_ladder(item["pf"], item["kd"], max_k=1)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_solve_ladder_refuses_a_tolerance_that_is_not_finite_and_positive(corpus_analysis, tol):
    # nan and inf would accept every level and report k33 (order 3) as
    # flex-found; 0 and -1 would reject level 2 on rounding alone
    item = corpus_analysis["k33"]
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_ladder(item["pf"], item["kd"], tol=tol)


def test_perturbed_asym_prism_loses_its_order():
    fw = load_corpus("asym_flipped_prism")
    # generic vertex perturbations destroy dim K = 1 entirely: order 1
    verts = fw.vertices.copy()
    verts[2, 0] += 1e-2
    pf, _, _ = pin_with_permutation(Framework(2, verts, fw.edges))
    rep = rigidity_order(pf)
    assert rep.verdict == "order" and rep.order == 1
    # sliding vertex 5 along the (5,6) connector line keeps dim K = 1 but
    # breaks the finer degeneracy: the order drops to 2
    verts = fw.vertices.copy()
    verts[4, 0] += 1e-2
    pf, _, _ = pin_with_permutation(Framework(2, verts, fw.edges))
    rep = rigidity_order(pf)
    assert rep.verdict == "order" and rep.order == 2


def test_flex_found_report_shape(square_pinned):
    kd = kernel_decomposition(rigidity_matrix(square_pinned))
    rep = solve_ladder(square_pinned, kd, max_k=6)
    assert rep.witness.degree == 6
    assert rep.order is None
    assert "no rigidity certificate" in rep.summary()


def test_overflowing_ladder_names_its_level(square_pinned):
    # the square's flex coefficients grow with the level until the rhs of
    # level 108 overflows: the ladder stops there instead of reporting inf
    kd = kernel_decomposition(rigidity_matrix(square_pinned))
    with np.errstate(over="ignore"), pytest.raises(RigidkitError, match=r"ladder level \d+: "):
        solve_ladder(square_pinned, kd, max_k=150)


def test_ladder_sign_convention(corpus_analysis):
    # p' is normalized with its first (meaningfully) nonzero entry positive
    for name, item in corpus_analysis.items():
        p1 = item["report"].witness.coeffs[0]
        nz = np.flatnonzero(np.abs(p1) > 1e-12 * np.max(np.abs(p1)))
        assert p1[nz[0]] > 0, name


def test_order_invariant_under_congruence():
    # a random rotation + translation of the whole configuration must not
    # change the certified order (pinning removes exactly that freedom)
    rng = np.random.default_rng(33)
    for name in ("k33", "coned_prism"):
        fw = load_corpus(name)
        d = fw.dimension
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = Framework(d, fw.vertices @ q.T + rng.standard_normal(d), fw.edges)
        pf, _, _ = pin_with_permutation(moved)
        rep = rigidity_order(pf)
        assert (rep.verdict, rep.order) == ("order", {"k33": 3, "coned_prism": 4}[name])
