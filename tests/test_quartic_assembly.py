"""Assembly of the order-4 quartic forms: the mixed form C from gradient
jets against the a4 difference formula, gradient jets of polynomial
targets, and a count guard on the jets the order-4 rigidity test needs."""

from collections import Counter

import numpy as np
import pytest

import rigidkit.critpoint as critpoint
from rigidkit import (
    FAMILIES,
    EnergySpec,
    Framework,
    PolynomialTarget,
    fourth_derivative_test,
    kernel_decomposition,
    permute_framework,
    pin_with_permutation,
    rigidity_matrix,
    second_order_rigidity_test,
)
from rigidkit.critpoint import FrameworkEnergyTarget, _assemble_quartic_forms
from oracles import a4_eval, grad_batch, value_batch

RTOL = 1e-12


def midpoint_strip(n_vertices: int, m: int, seed: int = 0) -> Framework:
    """Triangulated two-row strip (rigid) plus m vertices at the midpoints
    of rail edges, each joined by two collinear bars: dim K = m, order 2."""
    rng = np.random.default_rng(seed)
    cols = n_vertices // 2
    n = 2 * cols
    x = np.repeat(np.arange(cols, dtype=float), 2)
    x[0::2] += 0.5
    pts = np.column_stack([x, np.tile([1.0, 0.0], cols)])
    pts += rng.uniform(-0.02, 0.02, size=pts.shape)
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
    rails = [(i, i + 2) for i in range(n - 2)]
    mids = []
    for k in range(m):
        u, w = rails[(2 * k + 1) * len(rails) // (2 * m)]
        mids.append(0.5 * (pts[u] + pts[w]))
        edges.extend([(u, n + k), (w, n + k)])
    return Framework(2, np.vstack([pts, mids]), edges)


def collinear_chain() -> Framework:
    return Framework(2, np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]]),
                     [(0, 1), (1, 2), (2, 3), (0, 3)])


def _framework_case(fw, family):
    pf, _, _ = pin_with_permutation(fw)
    kd = kernel_decomposition(rigidity_matrix(pf))
    target = FrameworkEnergyTarget(EnergySpec.for_framework(pf.base, family), pf)
    return target, kd.Kbar_basis, kd.K_basis


def _polynomial_case():
    # Hessian diag(2, 3, 0, 0): x = (v0, v1), kernel y = (v2, v3); the
    # x y y monomials make every entry of C nonzero
    target = PolynomialTarget(4, (
        ((2, 0, 0, 0), 1.0), ((0, 2, 0, 0), 1.5),
        ((1, 0, 2, 0), 0.7), ((1, 0, 1, 1), -1.3), ((0, 1, 0, 2), 2.1), ((0, 1, 1, 1), 0.4),
        ((0, 0, 4, 0), 1.0), ((0, 0, 2, 2), 0.5), ((0, 0, 0, 4), 2.0), ((0, 0, 3, 1), -0.3),
        ((1, 1, 1, 0), 0.9), ((2, 0, 0, 3), 1.1), ((0, 0, 0, 6), -0.8),
    ))
    eye = np.eye(4)
    return target, eye[:, :2], eye[:, 2:]


def _difference_C(target, X, Y):
    """C by the a4 difference formula: y' C[i] y = (a4(e_i, y) - a4(-e_i, y)) / 2,
    polarized over pairs of kernel basis vectors."""
    n, m = X.shape[1], Y.shape[1]
    eye_n, eye_m = np.eye(n), np.eye(m)

    def mixed(i, y):
        return 0.5 * (a4_eval(target, X, Y, eye_n[i], y) - a4_eval(target, X, Y, -eye_n[i], y))

    out = np.zeros((n, m, m))
    for i in range(n):
        for j in range(m):
            out[i, j, j] = mixed(i, eye_m[j])
        for j in range(m):
            for k in range(j + 1, m):
                val = 0.5 * (mixed(i, eye_m[j] + eye_m[k]) - out[i, j, j] - out[i, k, k])
                out[i, j, k] = out[i, k, j] = val
    return out


def _cases():
    yield "chain", _framework_case(collinear_chain(), "harmonic")
    yield "chain-lj", _framework_case(collinear_chain(), "lj")
    yield "strip20", _framework_case(midpoint_strip(20, 2), "morse")
    yield "polynomial", _polynomial_case()
    # m = 3 is the first kernel dimension with an interior lattice node (1, 1, 1)
    yield "strip20m3-lj", _framework_case(midpoint_strip(20, 3), "lj")


@pytest.mark.parametrize("name, case", list(_cases()))
def test_gradient_polarized_forms_match_a4_differences(name, case):
    target, X, Y = case
    hess = target.hessian0()
    forms = _assemble_quartic_forms(target, X, Y, hess)
    want_C = _difference_C(target, X, Y)
    assert np.max(np.abs(want_C)) > 0.0, name
    assert np.max(np.abs(forms.C - want_C)) <= RTOL * np.max(np.abs(want_C)), name

    # a4 from the forms against exact t^4 jet coefficients at sphere points
    rng = np.random.default_rng(7)
    n = X.shape[1]
    z = rng.standard_normal((12, n + Y.shape[1]))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    got = value_batch(forms, z[:, :n], z[:, n:])
    want = np.array([a4_eval(target, X, Y, row[:n], row[n:]) for row in z])
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= RTOL * scale, name
    # and the pure kernel quartic alone (x = 0)
    got_b = value_batch(forms, np.zeros((12, n)), z[:, n:])
    want_b = np.array([a4_eval(target, X, Y, np.zeros(n), row[n:]) for row in z])
    assert np.max(np.abs(got_b - want_b)) <= RTOL * np.max(np.abs(want_b)), name


def test_quartic_form_gradients_match_finite_differences():
    target, X, Y = _polynomial_case()
    forms = _assemble_quartic_forms(target, X, Y, target.hessian0())
    rng = np.random.default_rng(8)
    xs, ys = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
    grad = grad_batch(forms, xs, ys)
    h = 1e-6
    for col in range(4):
        step = np.zeros(4)
        step[col] = h
        plus = value_batch(forms, xs + step[:2], ys + step[2:])
        minus = value_batch(forms, xs - step[:2], ys - step[2:])
        assert np.allclose(grad[:, col], (plus - minus) / (2 * h), rtol=1e-7, atol=1e-7)


def test_polynomial_gradient_jet_matches_analytic_gradient():
    rng = np.random.default_rng(9)
    n_vars = 3
    monos = tuple(
        (tuple(int(e) for e in rng.integers(0, 3, size=n_vars)), float(rng.standard_normal()))
        for _ in range(12)
    )
    target = PolynomialTarget(n_vars, monos)
    rows = rng.standard_normal((2, n_vars))     # v(t) = rows[0] t + rows[1] t^2
    order = 12                                 # >= degree of grad f(v(t)): exact

    def analytic_grad(v):
        g = np.zeros(n_vars)
        for exps, coef in target.monomials:
            for i, e in enumerate(exps):
                if e:
                    lowered = list(exps)
                    lowered[i] -= 1
                    g[i] += coef * e * np.prod(v ** np.array(lowered))
        return g

    jets = target.gradient_jet_along(rows, order)
    assert jets.shape == (n_vars, order + 1)
    for t in (-0.7, -0.2, 0.0, 0.3, 0.9):
        v = rows[0] * t + rows[1] * t**2
        want = analytic_grad(v)
        got = np.polynomial.polynomial.polyval(t, jets.T)
        assert np.allclose(got, want, rtol=RTOL, atol=RTOL * (1.0 + np.max(np.abs(want))))


def _count_order4_jets(monkeypatch, fw, family="harmonic"):
    calls = Counter()
    originals = {name: getattr(critpoint, name)
                 for name in ("energy_along_trajectory", "gradient_along_trajectory")}
    for name, fn in originals.items():
        def counted(spec, pf, traj, order, _name=name, _fn=fn):
            calls[_name] += 1
            calls[_name + " trajectories"] += traj.coeffs.shape[0]
            return _fn(spec, pf, traj, order)

        monkeypatch.setattr(critpoint, name, counted)
    pf, _, _ = pin_with_permutation(fw)
    kd = kernel_decomposition(rigidity_matrix(pf))
    rep = second_order_rigidity_test(pf, EnergySpec.for_framework(pf.base, family), kd)
    for name, fn in originals.items():
        monkeypatch.setattr(critpoint, name, fn)
    return rep, kd.dim_K, calls


@pytest.mark.parametrize("family", FAMILIES)
def test_order4_jet_count_does_not_grow_with_the_framework(monkeypatch, family):
    # the jets the order-4 test evaluates depend on dim K only: doubling the
    # strip must not add any (the mixed form once took 2 n_Kbar m(m+1)/2).
    # C, T and B all come from the m(m+1)(m+2)/6 order-3 gradient jets,
    # taken in one batched call, so no energy jet is taken
    counts = []
    for n_vertices in (20, 40):
        rep, dim_k, calls = _count_order4_jets(monkeypatch, midpoint_strip(n_vertices, 2), family)
        assert dim_k == 2
        assert rep.classification == "strict-min"
        assert calls["gradient_along_trajectory"] == 1
        assert calls["gradient_along_trajectory trajectories"] == 4      # m (m + 1) (m + 2) / 6
        assert "energy_along_trajectory" not in calls
        counts.append(dict(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("build", [collinear_chain, lambda: midpoint_strip(20, 2), lambda: midpoint_strip(20, 3)],
                         ids=["chain", "strip20m2", "strip20m3"])
def test_both_order4_entry_points_search_one_mu(build, family, relabel):
    # fourth_derivative_test on the framework energy takes its kernel from
    # the Hessian, second_order_rigidity_test from the rigidity matrix; both
    # minimize the same mu over the kernel sphere
    fw = build()
    if relabel:
        fw = permute_framework(fw, np.random.default_rng(11).permutation(fw.n_vertices))
    pf, _, _ = pin_with_permutation(fw)
    kd = kernel_decomposition(rigidity_matrix(pf))
    spec = EnergySpec.for_framework(pf.base, family)
    generic = fourth_derivative_test(FrameworkEnergyTarget(spec, pf))
    rigidity = second_order_rigidity_test(pf, spec, kd)
    assert generic.classification == rigidity.classification == "strict-min"
    assert generic.nullity == rigidity.nullity == kd.dim_K
    assert generic.a_min == pytest.approx(rigidity.a_min, rel=1e-10)
