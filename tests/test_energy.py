import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from rigidkit import (
    FAMILIES,
    EnergySpec,
    Framework,
    Jet,
    PolyTrajectory,
    ZeroLengthEdge,
    energy_along_trajectory,
    energy_value_grad_hess,
    gradient_along_trajectory,
    kernel_decomposition,
    pin,
    pin_with_permutation,
    rigidity_matrix,
)
from rigidkit.energy import energy_gap_grad_hess
from oracles import (classify_flex, compose_series, edge_m_jets, embed_tangent, faa_di_bruno_term,
                     gradient_by_jets, kernel_of_hessian_equals_K)
from test_quartic_assembly import midpoint_strip


# ---------------------------------------------------------------------------
# values, gradients, Hessians
# ---------------------------------------------------------------------------

def test_rest_configuration_values(triangle, triangle_pinned):
    for fam in FAMILIES:
        spec = EnergySpec.for_framework(triangle, fam)
        E, g, H = energy_value_grad_hess(spec, triangle_pinned)
        expected = -3.0 if fam == "lj" else 0.0
        assert E == pytest.approx(expected, abs=1e-12)
        assert np.linalg.norm(g) < 1e-12
        assert np.min(np.linalg.eigvalsh(H)) > -1e-10


def test_harmonic_stretch_quadratic():
    seg = Framework(2, np.array([[0.0, 0.0], [2.0, 0.0]]), [(0, 1)])
    pf, _ = pin(seg)
    spec = EnergySpec("harmonic", seg.edge_lengths(), stiffness=3.0, edges=seg.edges)
    for delta in (0.1, -0.05, 0.3):
        E, _, _ = energy_value_grad_hess(spec, pf, np.array([2.0 + delta]))
        assert E == pytest.approx(0.5 * 3.0 * delta**2, rel=1e-12)


@pytest.mark.parametrize("fam", FAMILIES)
def test_gradient_matches_finite_differences(fam, triangle, triangle_pinned):
    spec = EnergySpec.for_framework(triangle, fam)
    rng = np.random.default_rng(10)
    q = triangle_pinned.free_vector() + 0.05 * rng.standard_normal(triangle_pinned.n_free)
    _, grad, hess = energy_value_grad_hess(spec, triangle_pinned, q)
    h = 1e-6
    fd_grad = np.zeros_like(grad)
    fd_hess = np.zeros_like(hess)
    for i in range(q.size):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        ep = energy_value_grad_hess(spec, triangle_pinned, qp)
        em = energy_value_grad_hess(spec, triangle_pinned, qm)
        fd_grad[i] = (ep[0] - em[0]) / (2 * h)
        fd_hess[:, i] = (ep[1] - em[1]) / (2 * h)
    assert np.linalg.norm(fd_grad - grad) / np.linalg.norm(grad) < 1e-6
    assert np.linalg.norm(fd_hess - hess) / np.linalg.norm(hess) < 1e-6


def test_gap_and_grad_matches_plain_energy(square, square_pinned):
    rng = np.random.default_rng(11)
    for fam in FAMILIES:
        spec = EnergySpec.for_framework(square, fam)
        delta = 0.03 * rng.standard_normal(square_pinned.n_free)
        gap, grad = energy_gap_grad_hess(spec, square_pinned, delta)[:2]
        E, g_full, _ = energy_value_grad_hess(spec, square_pinned, square_pinned.free_vector() + delta)
        assert gap == pytest.approx(E - spec.rest_energy(), rel=1e-9, abs=1e-14)
        assert np.allclose(grad, g_full, atol=1e-9)


def test_gap_and_grad_batch_matches_single_calls(square, square_pinned):
    rng = np.random.default_rng(12)
    deltas = 0.03 * rng.standard_normal((5, square_pinned.n_free))
    for fam in FAMILIES:
        spec = EnergySpec.for_framework(square, fam)
        gaps, grads = energy_gap_grad_hess(spec, square_pinned, deltas)[:2]
        assert gaps.shape == (5,) and grads.shape == deltas.shape
        for b, delta in enumerate(deltas):
            gap, grad = energy_gap_grad_hess(spec, square_pinned, delta)[:2]
            assert isinstance(gap, float)
            assert gaps[b] == gap
            assert np.array_equal(grads[b], grad)
        # row 3 moves vertex 1 (free coordinate 0) onto the pinned vertex 0
        collapse = deltas.copy()
        collapse[3] = 0.0
        collapse[3, 0] = -square_pinned.free_vector()[0]
        with pytest.raises(ZeroLengthEdge, match="edge 0 has non-positive squared length at batch row 3"):
            energy_gap_grad_hess(spec, square_pinned, collapse)


def test_zero_length_edge_raises(square, square_pinned):
    spec = EnergySpec.for_framework(square, "harmonic")
    q = square_pinned.free_vector().copy()
    # collapse vertex 2 onto vertex 1 = (1, 0): free coords are
    # (v1,x), (v2,x), (v2,y), (v3,x), (v3,y)
    q[1], q[2] = q[0], 0.0
    # edge (1, 2) is third in canonical order; one point names no batch row
    with pytest.raises(ZeroLengthEdge, match="^edge 2 has non-positive squared length in the displaced"):
        energy_value_grad_hess(spec, square_pinned, q)


def test_zero_length_edge_raises_at_non_integer_coordinates():
    # the squared length rest^2 + 2 D.dd + |dd|^2 of a collapsed edge is zero
    # only to rounding; at these coordinates it comes out positive on some
    # draws, and the edge must still be refused
    rng = np.random.default_rng(0)
    for _ in range(40):
        fw = Framework(2, 1.7 * rng.uniform(-1.0, 1.0, (4, 2)), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        pf, _ = pin(fw)
        q = pf.free_vector().copy()
        # free coordinates (v1,x), (v2,x), (v2,y), (v3,x), (v3,y): vertex 3
        # onto vertex 2, edge (2, 3) is last in canonical order
        q[3], q[4] = q[1], q[2]
        for family in FAMILIES:
            with pytest.raises(ZeroLengthEdge, match="^edge 4 has non-positive squared length"):
                energy_value_grad_hess(EnergySpec.for_framework(pf.base, family), pf, q)


def test_spec_bound_to_edge_order(square, square_pinned, triangle):
    spec = EnergySpec.for_framework(triangle, "harmonic")
    with pytest.raises(ValueError):
        energy_value_grad_hess(spec, square_pinned)


_SQUARE = Framework(2, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), [(0, 1), (1, 2), (2, 3), (0, 3)])
_BRACED = Framework(2, _SQUARE.vertices, [(0, 1), (1, 2), (2, 3), (0, 2)])   # four edges, one of them other
_SQUARE_PF = pin(_SQUARE)[0]

# (build, exception type, message): refusals of the energy spec and of its
# evaluation on a framework it is not bound to
_REFUSALS = [
    (lambda: EnergySpec("quadratic", [1.0]), ValueError,
     f"unknown energy family 'quadratic'; have {FAMILIES}"),
    (lambda: EnergySpec.for_framework(_SQUARE, "quadratic"), ValueError, "unknown energy family 'quadratic'"),
    (lambda: EnergySpec("harmonic", [1.0, 0.0]), ValueError, "rest_lengths must be positive"),
    (lambda: EnergySpec("harmonic", [1.0], stiffness=-1.0), ValueError, "stiffness must be positive"),
    (lambda: EnergySpec("morse", [1.0], depth=1.0, width=math.nan), ValueError, "width must be positive"),
    (lambda: energy_value_grad_hess(EnergySpec.for_framework(_BRACED, "harmonic"), _SQUARE_PF), ValueError,
     "energy spec is bound to a different edge list than the framework; "
     "build it with EnergySpec.for_framework(pf.base, ...)"),
    (lambda: energy_along_trajectory(EnergySpec.for_framework(_SQUARE, "lj"), _SQUARE_PF,
                                     PolyTrajectory(np.ones((1, _SQUARE_PF.n_free))), 0), ValueError,
     "order must be >= 1"),
]


@pytest.mark.parametrize("build, error, message", _REFUSALS)
def test_energy_refusals(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


# ---------------------------------------------------------------------------
# Hessian kernel = K
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fam", FAMILIES)
def test_kernel_identity_triangle(fam, triangle, triangle_pinned):
    spec = EnergySpec.for_framework(triangle, fam)
    kd = kernel_decomposition(rigidity_matrix(triangle_pinned))
    assert kernel_of_hessian_equals_K(spec, triangle_pinned, kd)


@pytest.mark.parametrize("fam", FAMILIES)
def test_kernel_identity_half_flat_prism(fam, corpus_analysis):
    item = corpus_analysis["half_flat_prism"]
    spec = EnergySpec.for_framework(item["pf"].base, fam)
    assert kernel_of_hessian_equals_K(spec, item["pf"], item["kd"])


def test_kernel_identity_square_algebraic(square, square_pinned):
    spec = EnergySpec.for_framework(square, "algebraic")
    kd = kernel_decomposition(rigidity_matrix(square_pinned))
    assert kd.dim_K == 1
    assert kernel_of_hessian_equals_K(spec, square_pinned, kd)


# ---------------------------------------------------------------------------
# jets along trajectories
# ---------------------------------------------------------------------------

def test_constant_trajectory_zero_jet(square, square_pinned):
    spec = EnergySpec.for_framework(square, "morse")
    traj = PolyTrajectory(np.zeros((2, square_pinned.n_free)))
    jet = energy_along_trajectory(spec, square_pinned, traj, 6)
    assert np.allclose(jet.c, 0.0, atol=1e-15)


def test_square_flex_jet_harmonic_with_hand_oracle(square, square_pinned):
    # along p(t) = p + p' t with p' the square's unit flex, each edge has
    # m_e(t) = 1 + a_e t^2 with a_e = |p'_v - p'_w|^2, so
    # E(t) = sum_e (sqrt(1 + a_e t^2) - 1)^2 / 2 = sum_e a_e^2 t^4 / 8 + O(t^6)
    kd = kernel_decomposition(rigidity_matrix(square_pinned))
    p1 = kd.K_basis[:, 0]
    full = embed_tangent(square_pinned, p1)
    a = np.array([
        np.sum((full[v] - full[w]) ** 2) for v, w in square_pinned.base.edges
    ])
    spec = EnergySpec.for_framework(square, "harmonic")
    jet = energy_along_trajectory(spec, square_pinned, PolyTrajectory(p1[None, :]), 4)
    assert np.allclose(jet.c[:4], 0.0, atol=1e-14)
    assert jet.c[4] == pytest.approx(np.sum(a**2) / 8.0, rel=1e-12)
    assert jet.c[4] > 0
    # independent cross-check: centered 4th finite difference of E(p + t p')
    h = 1e-2
    weights = {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}
    acc = 0.0
    for off, wgt in weights.items():
        E, _, _ = energy_value_grad_hess(spec, square_pinned, square_pinned.free_vector() + off * h * p1)
        acc += wgt * E
    fd_c4 = acc / h**4 / math.factorial(4)
    assert fd_c4 == pytest.approx(jet.c[4], rel=1e-3)


def test_classify_flex_square(square_pinned):
    kd = kernel_decomposition(rigidity_matrix(square_pinned))
    p1 = kd.K_basis[:, 0]
    assert classify_flex(square_pinned, PolyTrajectory(p1[None, :]), 1) == (1, 1)
    # reparameterized p' t^2 + 0 t^3 is a (2,3)-flex
    zeros = np.zeros_like(p1)
    traj = PolyTrajectory(np.vstack([zeros, p1, zeros]))
    assert classify_flex(square_pinned, traj, 3) == (2, 3)


def test_classify_flex_half_flat_witness(corpus_analysis):
    item = corpus_analysis["half_flat_prism"]
    assert classify_flex(item["pf"], item["report"].witness, 6) == (1, 3)


def test_l_and_m_vanishing_orders_agree(corpus_analysis):
    # k-vanishing read off the length jets equals the squared-length reading
    for name, item in corpus_analysis.items():
        rep = item["report"]
        k = rep.order
        pf = item["pf"]
        m_jets = edge_m_jets(pf, rep.witness, k)
        m_rows = np.array([j.c for j in m_jets])
        l_rows = np.array([(j.sqrt() - np.sqrt(j.c[0])).c for j in m_jets])
        tol = 1e-7 if name == "sphere_packing_1" else 1e-8
        for rows in (m_rows, l_rows):
            per_order = np.max(np.abs(rows[:, 1:]), axis=0)
            scale = np.max(np.abs(m_rows))
            vanish = 0
            for i, v in enumerate(per_order, start=1):
                if v <= tol * scale:
                    vanish = i
                else:
                    break
            assert vanish == k - 1, (name, rows is l_rows)


# ---------------------------------------------------------------------------
# Faa di Bruno
# ---------------------------------------------------------------------------

def test_faa_explicit_expansions_match_textbook_forms():
    rng = np.random.default_rng(12)
    f = rng.standard_normal(7)   # f[m] = m-th derivative at g(0)
    g = rng.standard_normal(7)   # g[i] = i-th derivative at 0
    explicit = {
        1: f[1] * g[1],
        2: f[1] * g[2] + f[2] * g[1] ** 2,
        3: f[1] * g[3] + 3 * f[2] * g[1] * g[2] + f[3] * g[1] ** 3,
        4: f[1] * g[4] + f[2] * (4 * g[1] * g[3] + 3 * g[2] ** 2)
           + f[3] * 6 * g[1] ** 2 * g[2] + f[4] * g[1] ** 4,
        5: f[1] * g[5] + f[2] * (5 * g[1] * g[4] + 10 * g[2] * g[3])
           + f[3] * (10 * g[1] ** 2 * g[3] + 15 * g[1] * g[2] ** 2)
           + f[4] * 10 * g[1] ** 3 * g[2] + f[5] * g[1] ** 5,
        6: f[1] * g[6] + f[2] * (6 * g[1] * g[5] + 15 * g[2] * g[4] + 10 * g[3] ** 2)
           + f[3] * (15 * g[1] ** 2 * g[4] + 60 * g[1] * g[2] * g[3] + 15 * g[2] ** 3)
           + f[4] * (20 * g[1] ** 3 * g[3] + 45 * g[1] ** 2 * g[2] ** 2)
           + f[5] * 15 * g[1] ** 4 * g[2] + f[6] * g[1] ** 6,
    }
    for n, expected in explicit.items():
        assert faa_di_bruno_term(f, g, n) == pytest.approx(expected, rel=1e-13)


def test_faa_vanishing_first_derivative():
    rng = np.random.default_rng(13)
    f = rng.standard_normal(3)
    g = rng.standard_normal(3)
    g[1] = 0.0
    assert faa_di_bruno_term(f, g, 2) == pytest.approx(f[1] * g[2], rel=1e-14)


def test_faa_agrees_with_jet_composition():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = rng.integers(1, 9)
        f = rng.standard_normal(n + 1)
        g = rng.standard_normal(n + 1)
        g_coeffs = np.array([g[i] / math.factorial(i) for i in range(n + 1)])
        comp = compose_series(f, Jet(g_coeffs))
        jet_val = comp.c[n] * math.factorial(n)
        direct = faa_di_bruno_term(f, g, n)
        assert jet_val == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_vanishing_composition_property():
    # if g is k-vanishing then f(g) is k-vanishing
    rng = np.random.default_rng(15)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        order = 12
        g = np.zeros(order + 1)
        g[0] = rng.standard_normal()
        g[k + 1 :] = rng.standard_normal(order - k)
        f = rng.standard_normal(order + 1)
        comp = compose_series(f, Jet(g))
        assert np.max(np.abs(comp.c[1 : k + 1])) < 1e-12 * max(1.0, np.max(np.abs(comp.c)))


def test_leading_coefficient_formula():
    # g (k-1)-vanishing and f'(g0) = 0: coefficient 2k of f(g) equals
    # f'' g_k^2 / 2 in Taylor-coefficient form (= (1/(2 (k!)^2)) f'' (g^(k))^2)
    rng = np.random.default_rng(16)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        order = 2 * k
        g = np.zeros(order + 1)
        g[0] = rng.standard_normal()
        g[k:] = rng.standard_normal(order - k + 1)
        f = rng.standard_normal(order + 1)
        f[1] = 0.0
        comp = compose_series(f, Jet(g))
        expected = 0.5 * f[2] * g[k] ** 2
        assert comp.c[2 * k] == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_gradient_jets_match_the_jet_route(corpus_analysis):
    # m(t) and phi'(m(t)) as coefficient arrays give bit for bit the
    # gradient jets of the Jet route, along the corpus witnesses (at the
    # order-2k test's orders) and along the order-4 assembly's lattice
    # lines Y a t on a midpoint strip with dim K = 3
    cases = []
    for name, item in corpus_analysis.items():
        witness = item["report"].witness
        for k in range(2, item["report"].order + 1):
            cases += [(name, item["pf"], witness.prefix(k - 1), order) for order in (k, 2 * k)]
    pf, _, _ = pin_with_permutation(midpoint_strip(20, 3))
    y_basis = kernel_decomposition(rigidity_matrix(pf)).K_basis
    assert y_basis.shape[1] == 3
    for ids in combinations_with_replacement(range(3), 3):
        a = np.eye(3)[list(ids)].sum(axis=0)
        cases.append((f"strip{ids}", pf, PolyTrajectory((y_basis @ a)[None, :]), 3))
    for name, pf, traj, order in cases:
        for fam in FAMILIES:
            spec = EnergySpec.for_framework(pf.base, fam)
            got = gradient_along_trajectory(spec, pf, traj, order)
            assert np.array_equal(got, gradient_by_jets(spec, pf, traj, order)), (name, fam, order)


# ---------------------------------------------------------------------------
# flex <-> E-flex equivalence on the corpus
# ---------------------------------------------------------------------------

def test_flex_eflex_equivalence(corpus_analysis):
    # a (1, k-1)-flex is a (1, 2k-2) and a (1, 2k-1) E-flex but not (1, 2k)
    for name, item in corpus_analysis.items():
        if name == "sphere_packing_1":
            continue   # data-limited; covered with its own margins elsewhere
        rep = item["report"]
        k = rep.order
        for fam in ("harmonic", "lj"):
            spec = EnergySpec.for_framework(item["pf"].base, fam)
            jet = energy_along_trajectory(spec, item["pf"], rep.witness, 2 * k)
            scale = np.max(np.abs(jet.c))
            assert np.max(np.abs(jet.c[1 : 2 * k])) < 1e-8 * scale, (name, fam)
            assert jet.c[2 * k] > 1e-8 * scale, (name, fam)
