import time

import numpy as np
import pytest

import rigidkit.critpoint as critpoint
from rigidkit import (
    FAMILIES,
    DimKNotOne,
    EnergySpec,
    Framework,
    NotACriticalPoint,
    PolyTrajectory,
    PolynomialTarget,
    energy_along_trajectory,
    energy_value_grad_hess,
    fourth_derivative_test,
    gradient_along_trajectory,
    kernel_decomposition,
    load_corpus,
    order2k_family_test,
    pin_with_permutation,
    polynomial_from_monomial_list,
    rigidity_matrix,
    rigidity_order,
    second_order_rigidity_test,
    solve_ladder,
)
from rigidkit.critpoint import BOX_CAP
from oracles import kernel_search_by_boxes

PHI = (np.sqrt(5.0) - 1.0) / 2.0


def poly_with_A(A: float) -> PolynomialTarget:
    # f = (x - y^2)^2 + A y^4 = x^2 - 2 x y^2 + (1 + A) y^4
    return PolynomialTarget(2, (((2, 0), 1.0), ((1, 2), -2.0), ((0, 4), 1.0 + A)))


def test_strict_minimum_case():
    rep = fourth_derivative_test(poly_with_A(1.0))
    assert rep.classification == "strict-min"
    assert rep.resolved_by == "quartic"
    assert rep.a_min > 0.25


def test_saddle_case():
    rep = fourth_derivative_test(poly_with_A(-1.0))
    assert rep.classification == "saddle"
    assert rep.a_min < -1e-3 < 1e-3 < rep.a_max


def test_inconclusive_case_with_located_zero():
    rep = fourth_derivative_test(poly_with_A(0.0))
    assert rep.classification == "inconclusive"
    assert abs(rep.a_min) <= 1e-8 * (1 + rep.scale)
    # a4 vanishes exactly at curvature (phi, 0), velocity (0, +/- sqrt(phi))
    assert np.linalg.norm(rep.arg_min_curvature - np.array([PHI, 0.0])) < 1e-6
    err = min(
        np.linalg.norm(rep.arg_min_velocity - np.array([0.0, s * np.sqrt(PHI)]))
        for s in (1.0, -1.0)
    )
    assert err < 1e-6


def test_soft_curvature_direction_does_not_hide_a_strict_minimum():
    # f = eps x1^2 + (x2 - y^2)^2 + y^4: x1 is a curvature direction just
    # above the Hessian threshold, so a4 is as small as eps/2 on the
    # parameter sphere, but mu = B - 1/2 c' Hxx^-1 c = 2 - 1 = 1 on the kernel
    eps = 1.5e-8
    target = PolynomialTarget(
        3, (((2, 0, 0), eps), ((0, 2, 0), 1.0), ((0, 1, 2), -2.0), ((0, 0, 4), 2.0))
    )
    rep = fourth_derivative_test(target)
    assert (rep.classification, rep.resolved_by) == ("strict-min", "quartic")
    assert rep.a_min == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("target", [
    # eps x^2 + x y^2 + y^4: mu = 1 - 1/(4 eps), about -1.7e7, so the
    # relative tolerance (about 0.17) exceeds 1/2 lam_max = eps
    PolynomialTarget(2, (((2, 0), 1.5e-8), ((1, 2), 1.0), ((0, 4), 1.0))),
    # x^2 + 1e8 (y1^4 - y2^4): 1/2 lam_max = 1, below the tolerance of about 1
    PolynomialTarget(3, (((2, 0, 0), 1.0), ((0, 4, 0), 1e8), ((0, 0, 4), -1e8))),
])
def test_large_negative_mu_is_a_saddle_next_to_a_soft_curvature(target):
    rep = fourth_derivative_test(target)
    assert (rep.classification, rep.resolved_by) == ("saddle", "quartic")
    assert rep.a_min < 0 < rep.a_max


def _kernel_dim2_poly(A: float) -> PolynomialTarget:
    # f = (x - q(y))^2 + y1^4 + A y2^4 with q = y1^2 + y1 y2 + y2^2: Hessian
    # diag(2, 0, 0), and mu(y) = y1^4 + A y2^4 on the kernel sphere
    return PolynomialTarget(3, (
        ((2, 0, 0), 1.0), ((1, 2, 0), -2.0), ((1, 1, 1), -2.0), ((1, 0, 2), -2.0),
        ((0, 4, 0), 2.0), ((0, 3, 1), 2.0), ((0, 2, 2), 3.0), ((0, 1, 3), 2.0), ((0, 0, 4), 1.0 + A),
    ))


def _near_square(delta: float) -> PolynomialTarget:
    # y1^4 + y2^4 + (-2 + delta) y1^2 y2^2 = (y1^2 - y2^2)^2 + delta y1^2 y2^2:
    # min on the circle delta / 4 at y1^2 = y2^2
    return PolynomialTarget(2, (((4, 0), 1.0), ((0, 4), 1.0), ((2, 2), -2.0 + delta)))


def _coupled_quartic3(c: float) -> PolynomialTarget:
    # sum y_i^4 + c sum_{i<j} y_i^2 y_j^2: min (3 + 3c) / 9 at |y_i| = 1/sqrt(3)
    return PolynomialTarget(3, (
        ((4, 0, 0), 1.0), ((0, 4, 0), 1.0), ((0, 0, 4), 1.0),
        ((2, 2, 0), c), ((2, 0, 2), c), ((0, 2, 2), c),
    ))


_WITNESS_CASES = [
    (_kernel_dim2_poly(1.0), "strict-min", 2),
    (_kernel_dim2_poly(-1.0), "saddle", 2),
    (_kernel_dim2_poly(0.0), "inconclusive", 2),
    (PolynomialTarget(2, (((4, 0), 1.0), ((0, 4), -1.0))), "saddle", 2),
    (PolynomialTarget(2, (((4, 0), -1.0), ((0, 4), -1.0))), "strict-max", 2),
    (PolynomialTarget(2, (((2, 2), 1.0),)), "inconclusive", 2),
    (_near_square(1e-6), "strict-min", 2),
    (_near_square(1e-9), "inconclusive", 2),
    (_coupled_quartic3(-1.0 + 1e-6), "strict-min", 3),
    (_coupled_quartic3(-1.01), "saddle", 3),
]


@pytest.mark.parametrize("target, want, nullity", _WITNESS_CASES,
                         ids=[f"target{i}-{want}" for i, (_, want, _) in enumerate(_WITNESS_CASES)])
def test_reported_extremizers_are_witnesses_on_the_parameter_sphere(target, want, nullity):
    from oracles import a4_eval

    rep = fourth_derivative_test(target)
    assert (rep.classification, rep.nullity) == (want, nullity)
    tol_eff = 1e-8 * (1.0 + rep.scale)
    eye = np.eye(target.dim)
    for value, vel, cur in ((rep.a_min, rep.arg_min_velocity, rep.arg_min_curvature),
                            (rep.a_max, rep.arg_max_velocity, rep.arg_max_curvature)):
        assert vel @ vel + cur @ cur == pytest.approx(1.0, rel=1e-12)
        a4 = a4_eval(target, eye, eye, cur, vel)
        if abs(value) > tol_eff:
            assert np.sign(a4) == np.sign(value) and abs(a4) > tol_eff
        else:
            assert abs(a4) <= tol_eff


def test_near_square_minimum_is_certified_with_its_bound():
    rep = fourth_derivative_test(_near_square(1e-6))
    assert rep.classification == "strict-min"
    assert rep.a_min == pytest.approx(2.5e-7, rel=1e-6)
    assert rep.notes[0].startswith("certified: min mu >= ")
    assert 1e-8 * (1.0 + rep.scale) < float(rep.notes[0].split()[4]) <= rep.a_min


@pytest.mark.parametrize("cap", [2, 5])
def test_box_cap_leaves_the_verdict_inconclusive(monkeypatch, cap):
    # cap 2 is below the 5 Bernstein coefficients of one root box at m = 2,
    # so no box is bounded; cap 5 stops the splitting after the root
    monkeypatch.setattr(critpoint, "BOX_CAP", cap)
    rep = fourth_derivative_test(_near_square(1e-6))
    assert rep.classification == "inconclusive"
    assert rep.notes[0].startswith(f"box cap of {cap} reached")


def test_large_kernel_dimension_returns_promptly_without_a_bound():
    # a planar zigzag path of 12 vertices has dim K = 10: one root box would
    # hold 5^9 Bernstein coefficients, so the search bounds no box
    pts = np.array([[i, 0.3 * (i % 2)] for i in range(12)], dtype=float)
    pf = pin_with_permutation(Framework(2, pts, [(i, i + 1) for i in range(11)]))[0]
    kd = kernel_decomposition(rigidity_matrix(pf))
    assert kd.dim_K == 10
    start = time.perf_counter()
    rep = second_order_rigidity_test(pf, EnergySpec.for_framework(pf.base, "harmonic"), kd)
    order = rigidity_order(pf)
    assert time.perf_counter() - start < 20.0
    assert rep.classification == "inconclusive"
    assert rep.notes[0].startswith(f"box cap of {BOX_CAP} reached before the first box")
    assert (order.verdict, order.dim_K) == ("inconclusive", 10)


def test_limit_counterexample_is_inconclusive():
    # f = (x - y^2)^2 + x^2 y^2 - y^6 has a saddle at the origin, but its a4
    # equals (x0 - y0^2)^2, which is PSD with zeros: the test cannot decide
    target = PolynomialTarget(
        2, (((2, 0), 1.0), ((1, 2), -2.0), ((0, 4), 1.0), ((2, 2), 1.0), ((0, 6), -1.0))
    )
    rep = fourth_derivative_test(target)
    assert rep.classification == "inconclusive"


def test_hessian_resolved_cases():
    pd = PolynomialTarget(2, (((2, 0), 1.0), ((0, 2), 2.0)))
    nd = PolynomialTarget(2, (((2, 0), -1.0), ((0, 2), -2.0)))
    sad = PolynomialTarget(2, (((2, 0), 1.0), ((0, 2), -2.0)))
    assert fourth_derivative_test(pd).classification == "strict-min"
    assert fourth_derivative_test(pd).resolved_by == "hessian"
    assert fourth_derivative_test(nd).classification == "strict-max"
    assert fourth_derivative_test(sad).classification == "saddle"


def test_nsd_degenerate_via_negation():
    target = PolynomialTarget(2, (((2, 0), -1.0), ((1, 2), 2.0), ((0, 4), -2.0)))
    rep = fourth_derivative_test(target)
    assert rep.classification == "strict-max"
    assert "negated" in " ".join(rep.notes)


def _negated(target: PolynomialTarget) -> PolynomialTarget:
    return PolynomialTarget(target.n_vars, tuple((exps, -coef) for exps, coef in target.monomials))


_MIRROR_CASES = [target for target, _, _ in _WITNESS_CASES] + [poly_with_A(A) for A in (1.0, -1.0, 0.0)]


@pytest.mark.parametrize("target", _MIRROR_CASES, ids=[f"target{i}" for i in range(len(_MIRROR_CASES))])
def test_negated_target_mirrors_the_report(target):
    # -f has a strict max where f has a strict min, and its extremes are
    # those of f reflected; an NSD Hessian (the first three _WITNESS_CASES
    # and the poly_with_A cases, negated) runs the same pass with side -1
    rep, mirror = fourth_derivative_test(target), fourth_derivative_test(_negated(target))
    swap = {"strict-min": "strict-max", "strict-max": "strict-min"}
    assert mirror.classification == swap.get(rep.classification, rep.classification)
    assert (mirror.nullity, mirror.scale) == (rep.nullity, rep.scale)
    assert mirror.a_min == pytest.approx(-rep.a_max, abs=1e-12)
    assert mirror.a_max == pytest.approx(-rep.a_min, abs=1e-12)
    for rp in (rep, mirror):
        if rp.classification == "strict-max":
            bounds = [float(note.split()[4]) for note in rp.notes if note.startswith("certified: max mu <= ")]
            assert len(bounds) == 1 and bounds[0] < -1e-8 * (1.0 + rp.scale)
            assert rp.a_max <= bounds[0]


def test_cubic_kernel_term_is_saddle():
    target = PolynomialTarget(2, (((2, 0), 1.0), ((0, 3), 1.0)))
    rep = fourth_derivative_test(target)
    assert rep.classification == "saddle"
    assert rep.resolved_by == "cubic"
    assert abs(rep.a3_witness[1]) > 0.99


def test_not_a_critical_point():
    target = PolynomialTarget(2, (((1, 0), 1.0), ((2, 0), 1.0)))
    with pytest.raises(NotACriticalPoint):
        fourth_derivative_test(target)


def test_monomial_list_loader():
    target = polynomial_from_monomial_list(
        [{"exps": [2, 0], "coef": 1.0}, {"exps": [0, 2], "coef": 1.0}]
    )
    assert fourth_derivative_test(target).classification == "strict-min"


def test_a4_exactness_on_random_quartics():
    # with the Hessian diagonal on x only, a4(x0, y0) must assemble exactly
    # from the monomials x^2, x y^2 and y^4: the only ones active at t^4
    rng = np.random.default_rng(20)
    for _ in range(10):
        hxx = abs(rng.standard_normal()) + 0.5
        c_xyy = rng.standard_normal()
        c_y4 = rng.standard_normal()
        extra = [
            ((3, 0), rng.standard_normal()),   # x^3: order t^6
            ((2, 1), rng.standard_normal()),   # x^2 y: order t^5
            ((1, 3), rng.standard_normal()),   # x y^3: order t^5
            ((0, 6), rng.standard_normal()),   # y^6: order t^6
        ]
        target = PolynomialTarget(
            2, (((2, 0), hxx), ((1, 2), c_xyy), ((0, 4), c_y4), *extra)
        )
        X = np.array([[1.0], [0.0]])
        Y = np.array([[0.0], [1.0]])
        from oracles import a4_eval

        for _ in range(5):
            z = rng.standard_normal(2)
            z /= np.linalg.norm(z)
            x0, y0 = z[0], z[1]
            expected = hxx * x0**2 + c_xyy * x0 * y0**2 + c_y4 * y0**4
            got = a4_eval(target, X, Y, np.array([x0]), np.array([y0]))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_family_initially_covers_neighborhood():
    # every small (x, y) is reached by the order-4 family at some parameter
    # point and small t: solve |x|^2 / t^4 + |y|^2 / t^2 = 1 for t
    rng = np.random.default_rng(21)
    for _ in range(50):
        xy = 1e-3 * rng.standard_normal(2)
        x, y = xy[0], xy[1]
        if x == 0 and y == 0:
            continue
        lo, hi = 1e-12, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            val = x**2 / mid**4 + y**2 / mid**2
            if val > 1.0:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        x0, y0 = x / t**2, y / t
        assert np.hypot(x0, y0) == pytest.approx(1.0, abs=1e-6)
        assert x0 * t**2 == pytest.approx(x, abs=1e-8)
        assert y0 * t == pytest.approx(y, abs=1e-8)


# ---------------------------------------------------------------------------
# second-order rigidity test
# ---------------------------------------------------------------------------

def test_square_second_order_inconclusive(square, square_pinned):
    spec = EnergySpec.for_framework(square, "harmonic")
    rep = second_order_rigidity_test(square_pinned, spec)
    assert rep.classification == "inconclusive"
    assert abs(rep.a_min) < 1e-12


def test_k33_second_order_inconclusive(corpus_analysis):
    item = corpus_analysis["k33"]
    spec = EnergySpec.for_framework(item["pf"].base, "harmonic")
    rep = second_order_rigidity_test(item["pf"], spec, item["kd"])
    assert rep.classification == "inconclusive"
    assert abs(rep.a_min) < 1e-10


def test_affine_transformed_asym_prism_is_second_order_rigid():
    fw = load_corpus("asym_flipped_prism")
    rng = np.random.default_rng(3)
    A = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    assert abs(np.linalg.det(A)) > 0.2
    fw2 = Framework(2, fw.vertices @ A.T, fw.edges)
    pf, _, _ = pin_with_permutation(fw2)
    kd = kernel_decomposition(rigidity_matrix(pf))
    assert kd.dim_K == 1   # affine maps preserve the first-order flex count
    spec = EnergySpec.for_framework(pf.base, "harmonic")
    rep = second_order_rigidity_test(pf, spec, kd)
    assert rep.classification == "strict-min"
    assert rep.a_min > 1e-6


def test_inconclusive_argpoint_has_nonzero_kernel_part(square, square_pinned, corpus_analysis):
    # whenever the order-4 test is inconclusive, the vanishing direction must
    # have a nonzero first-order (kernel) component
    cases = [
        (square_pinned, EnergySpec.for_framework(square, "harmonic"), None),
        (
            corpus_analysis["k33"]["pf"],
            EnergySpec.for_framework(corpus_analysis["k33"]["pf"].base, "harmonic"),
            corpus_analysis["k33"]["kd"],
        ),
    ]
    for pf, spec, kd in cases:
        rep = second_order_rigidity_test(pf, spec, kd)
        assert rep.classification == "inconclusive"
        assert np.linalg.norm(rep.arg_min_velocity) > 0.1


def test_second_order_requires_flexes(triangle, triangle_pinned):
    spec = EnergySpec.for_framework(triangle, "harmonic")
    with pytest.raises(ValueError):
        second_order_rigidity_test(triangle_pinned, spec)


def test_dimk2_second_order_runs():
    fw = load_corpus("k33")
    fw2 = Framework(fw.dimension, fw.vertices, fw.edges[:-2])
    pf, _, _ = pin_with_permutation(fw2)
    kd = kernel_decomposition(rigidity_matrix(pf))
    assert kd.dim_K == 2
    spec = EnergySpec.for_framework(pf.base, "harmonic")
    rep = second_order_rigidity_test(pf, spec, kd)
    # two edges gone: the framework is flexible, so no certificate
    assert rep.classification == "inconclusive"
    assert rep.nullity == 2


# ---------------------------------------------------------------------------
# order-2k family test
# ---------------------------------------------------------------------------

def test_order2k_consistency_with_ladder(corpus_analysis, harmonic_specs):
    # strict minimum exactly at the ladder order, inconclusive below it
    for name in ("half_flat_prism", "k33", "leonardo3", "coned_prism"):
        item = corpus_analysis[name]
        pf, kd, rep = item["pf"], item["kd"], item["report"]
        spec = EnergySpec.for_framework(pf.base, "harmonic")
        k = rep.order
        at = order2k_family_test(pf, spec, rep.witness, k, kd=kd)
        assert at.classification == "strict-min", name
        assert at.order == 2 * k
        for kk in range(2, k):
            below = order2k_family_test(pf, spec, rep.witness, kk, kd=kd)
            assert below.classification == "inconclusive", (name, kk)


def test_order2k_closed_form_matches_direct_jets(corpus_analysis):
    # a2k(y0, w) = y0^(2k) F + y0^k G.w + w' Hxx w / 2: compare the closed
    # form against a direct jet evaluation of the family trajectory
    rng = np.random.default_rng(30)
    for name in ("k33", "half_flat_prism"):
        item = corpus_analysis[name]
        pf, kd, rep = item["pf"], item["kd"], item["report"]
        spec = EnergySpec.for_framework(pf.base, "harmonic")
        k = rep.order
        traj = rep.witness.prefix(k - 1)
        f2k = energy_along_trajectory(spec, pf, traj, 2 * k).c[2 * k]
        g_vec = kd.Kbar_basis.T @ gradient_along_trajectory(spec, pf, traj, k)[:, k]
        _, _, hess = energy_value_grad_hess(spec, pf)
        hxx = kd.Kbar_basis.T @ hess @ kd.Kbar_basis
        for _ in range(4):
            z = rng.standard_normal(1 + kd.Kbar_basis.shape[1])
            z /= np.linalg.norm(z)
            y0, w = z[0], z[1:]
            closed = y0 ** (2 * k) * f2k + y0**k * (g_vec @ w) + 0.5 * w @ hxx @ w
            rows = np.zeros((k, pf.n_free))
            for l in range(1, k):
                rows[l - 1] = y0**l * traj.coeffs[l - 1]
            rows[k - 1] = kd.Kbar_basis @ w
            direct = energy_along_trajectory(spec, pf, PolyTrajectory(rows), 2 * k).c[2 * k]
            assert direct == pytest.approx(closed, rel=1e-9, abs=1e-12)


def test_order2k_specializes_to_witness_energy(corpus_analysis):
    # at y0 = 1, w = 0 the family is the witness itself, so a2k = c_2k
    item = corpus_analysis["k33"]
    pf, kd, rep = item["pf"], item["kd"], item["report"]
    spec = EnergySpec.for_framework(pf.base, "harmonic")
    k = rep.order
    c2k = energy_along_trajectory(spec, pf, rep.witness.prefix(k - 1), 2 * k).c[2 * k]
    test = order2k_family_test(pf, spec, rep.witness, k, kd=kd)
    # mu = c2k + (non-positive correction), and correction vanishes iff G = 0
    assert test.a_min <= c2k + 1e-15


def test_order2k_at_k2_is_the_order4_test_at_dimk_one():
    # a triangle with a collinear midpoint on one bar: dim K = 1, order 2.
    # At k = 2 the family is the order-4 one, and both tests reduce to the
    # same mu, so they report the same number
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.7, 1.6], [1.0, 0.0]])
    pf, _, _ = pin_with_permutation(Framework(2, pts, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]))
    kd = kernel_decomposition(rigidity_matrix(pf))
    ladder = solve_ladder(pf, kd)
    assert kd.dim_K == 1 and ladder.order == 2
    for family in FAMILIES:
        spec = EnergySpec.for_framework(pf.base, family)
        family_test = order2k_family_test(pf, spec, ladder.witness, 2, kd=kd)
        order4 = second_order_rigidity_test(pf, spec, kd)
        assert family_test.a_min == order4.a_min, family
        assert family_test.classification == order4.classification == "strict-min", family


def test_order2k_notes_carry_the_search_certificate(corpus_analysis):
    item = corpus_analysis["k33"]
    pf, kd, rep = item["pf"], item["kd"], item["report"]
    spec = EnergySpec.for_framework(pf.base, "harmonic")
    at = order2k_family_test(pf, spec, rep.witness, rep.order, kd=kd)
    below = order2k_family_test(pf, spec, rep.witness, rep.order - 1, kd=kd)
    assert at.notes[0].startswith("certified: min mu >= ")
    assert below.notes[0].startswith("certified: min mu within")


def test_order2k_requires_dimk_one(square, square_pinned):
    fw = load_corpus("k33")
    fw2 = Framework(fw.dimension, fw.vertices, fw.edges[:-2])
    pf, _, _ = pin_with_permutation(fw2)
    spec = EnergySpec.for_framework(pf.base, "harmonic")
    wit = PolyTrajectory(np.ones((1, pf.n_free)) / np.sqrt(pf.n_free))
    with pytest.raises(DimKNotOne):
        order2k_family_test(pf, spec, wit, 2)


def test_order2k_rejects_unnormalized_witness(corpus_analysis):
    item = corpus_analysis["k33"]
    spec = EnergySpec.for_framework(item["pf"].base, "harmonic")
    bad = PolyTrajectory(2.0 * item["report"].witness.coeffs)
    with pytest.raises(ValueError):
        order2k_family_test(item["pf"], spec, bad, 3, kd=item["kd"])


def test_order2k_refuses_k_below_two_and_a_short_witness(corpus_analysis):
    item = corpus_analysis["k33"]
    spec = EnergySpec.for_framework(item["pf"].base, "harmonic")
    witness = item["report"].witness
    with pytest.raises(ValueError, match="k must be >= 2"):
        order2k_family_test(item["pf"], spec, witness, 1, kd=item["kd"])
    short = witness.prefix(1)
    with pytest.raises(ValueError, match=r"witness must supply coefficients through t\^2"):
        order2k_family_test(item["pf"], spec, short, 3, kd=item["kd"])


def test_collinear_chain_is_second_order_rigid_with_dimk2():
    # a bar chain 1-2-3-4 on a line with the spanning bar (1,4): every
    # interior vertex has an independent perpendicular first-order flex
    # (dim K = 2), but the spanning bar blocks all second-order motions
    fw = Framework(2, np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]]),
                   [(0, 1), (1, 2), (2, 3), (0, 3)])
    pf, _, _ = pin_with_permutation(fw)
    kd = kernel_decomposition(rigidity_matrix(pf))
    assert pf.span_dim == 1   # exercises pinning below the ambient dimension
    assert kd.dim_K == 2
    from rigidkit import FAMILIES, rigidity_order

    for fam in FAMILIES:
        spec = EnergySpec.for_framework(pf.base, fam)
        rep = second_order_rigidity_test(pf, spec, kd)
        assert rep.classification == "strict-min", fam
        assert rep.a_min > 1e-5
    order_rep = rigidity_order(pf)
    assert (order_rep.verdict, order_rep.order) == ("order", 2)
    assert order_rep.method == "order4-energy"


# ---------------------------------------------------------------------------
# dim K = 1: the closed form against the branch and bound on its one box
# ---------------------------------------------------------------------------

def _poly(*monomials) -> PolynomialTarget:
    return PolynomialTarget(len(monomials[0][0]), monomials)


# (target, classification): the sign cases of mu on a one-dimensional
# kernel, with a curvature direction and without one (n = 0, where both
# extremes are searched)
DIM_K_ONE_POLYS = {
    "x2+y4": (_poly(((2, 0), 1.0), ((0, 4), 1.0)), "strict-min"),
    "x2-y4": (_poly(((2, 0), 1.0), ((0, 4), -1.0)), "saddle"),
    "-x2-y4": (_poly(((2, 0), -1.0), ((0, 4), -1.0)), "strict-max"),
    "x2+y6": (_poly(((2, 0), 1.0), ((0, 6), 1.0)), "inconclusive"),
    "y4": (_poly(((4,), 1.0),), "strict-min"),
    "-y4": (_poly(((4,), -1.0),), "strict-max"),
}


def _assert_same_report(new, old, case):
    assert (new.classification, new.notes) == (old.classification, old.notes), case
    for a, b in ((new.a_min, old.a_min), (new.a_max, old.a_max), (new.scale, old.scale)):
        if a is None or b is None:
            assert a is b, case
        else:
            assert abs(a - b) <= 1e-14 * max(abs(a), abs(b)), case
    for a, b in ((new.arg_min_velocity, old.arg_min_velocity), (new.arg_min_curvature, old.arg_min_curvature)):
        if a is not None:
            assert np.allclose(a, b, rtol=1e-14, atol=0.0), case


def _with_box_search(monkeypatch, run):
    """run() with critpoint._kernel_search replaced by the box oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(critpoint, "_kernel_search", kernel_search_by_boxes)
        return run()


def test_dim_k_one_energy_tests_match_the_box_search(corpus_analysis, monkeypatch):
    decided = set()
    for name, item in corpus_analysis.items():
        pf, kd, ladder = item["pf"], item["kd"], item["report"]
        assert kd.dim_K == 1, name
        for family in FAMILIES:
            spec = EnergySpec.for_framework(pf.base, family)
            runs = [(k, lambda k=k: order2k_family_test(pf, spec, ladder.witness, k, kd=kd))
                    for k in range(2, ladder.order + 1)]
            runs.append(("second-order", lambda: second_order_rigidity_test(pf, spec, kd)))
            for label, run in runs:
                new = run()
                _assert_same_report(new, _with_box_search(monkeypatch, run), (name, family, label))
                decided.add(new.classification)
    assert decided == {"strict-min", "inconclusive"}


@pytest.mark.parametrize("case", DIM_K_ONE_POLYS)
def test_dim_k_one_polynomials_match_the_box_search(case, monkeypatch):
    target, expected = DIM_K_ONE_POLYS[case]
    new = fourth_derivative_test(target)
    assert (new.classification, new.resolved_by, new.nullity) == (expected, "quartic", 1)
    _assert_same_report(new, _with_box_search(monkeypatch, lambda: fourth_derivative_test(target)), case)
    assert all("box count 1" in note for note in new.notes if note.startswith(("certified", "witness")))


def test_dim_k_one_never_reaches_the_branch_and_bound(corpus_analysis, monkeypatch):
    calls = []
    bound = critpoint._bernstein_bound
    monkeypatch.setattr(critpoint, "_bernstein_bound", lambda *args: calls.append(args[2]) or bound(*args))
    item = corpus_analysis["k33"]
    pf, kd, ladder = item["pf"], item["kd"], item["report"]
    spec = EnergySpec.for_framework(pf.base, "morse")
    order2k_family_test(pf, spec, ladder.witness, ladder.order, kd=kd)
    second_order_rigidity_test(pf, spec, kd)
    for target, _ in DIM_K_ONE_POLYS.values():
        fourth_derivative_test(target)
    assert calls == []
    # a two-dimensional kernel still runs it
    fourth_derivative_test(_poly(((4, 0), 1.0), ((0, 4), 1.0)))
    assert calls and set(calls) == {2}
