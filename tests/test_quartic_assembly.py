"""Assembly of the order-4 quartic forms: the mixed form C from gradient
jets against the a4 difference formula, gradient jets of polynomial
targets, a count guard on the jets the order-4 tests take (none for the
rigidity test), and a memory bound on its verdict."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import rigidkit.critpoint as critpoint
import rigidkit.energy as energy
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
from rigidkit.critpoint import _assemble_quartic_forms
from oracles import FrameworkEnergyTarget, a4_eval, count_calls, grad_batch, value_batch

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


ENERGY_CALLS = ("energy_along_trajectory", "gradient_along_trajectory", "energy_value_grad_hess")


def count_energy_calls(monkeypatch) -> Counter:
    """A Counter that from now on counts each call of the energy jets and of
    the pointwise value, gradient and Hessian, at the energy module and at
    critpoint's bindings alike."""
    return count_calls(monkeypatch, ENERGY_CALLS, (energy, critpoint))


def count_target_jets(monkeypatch) -> Counter:
    """A Counter of FrameworkEnergyTarget.gradient_jet_along calls by
    (order, trajectories in the batch)."""
    calls = Counter()
    original = FrameworkEnergyTarget.gradient_jet_along

    def counted(self, rows, order):
        calls[order, np.shape(rows)[0]] += 1
        return original(self, rows, order)

    monkeypatch.setattr(FrameworkEnergyTarget, "gradient_jet_along", counted)
    return calls


@pytest.mark.parametrize("family", FAMILIES)
def test_order4_jet_count_does_not_grow_with_the_framework(monkeypatch, family):
    # the rigidity test reads mu from the self-stresses and phi'', so it
    # takes no energy or gradient jet and no pointwise Hessian at any size.
    # fourth_derivative_test on the framework energy takes the
    # m(m+1)(m+2)/6 order-3 gradient jets in one batched call, whatever the
    # size of the strip (the mixed form once took 2 n_Kbar m(m+1)/2)
    energy_calls, target_jets = count_energy_calls(monkeypatch), count_target_jets(monkeypatch)
    for n_vertices in (20, 40):
        pf, _, _ = pin_with_permutation(midpoint_strip(n_vertices, 2))
        kd = kernel_decomposition(rigidity_matrix(pf))
        assert kd.dim_K == 2
        spec = EnergySpec.for_framework(pf.base, family)
        energy_calls.clear()
        assert second_order_rigidity_test(pf, spec, kd).classification == "strict-min"
        assert critpoint.second_order_rigidity_verdict(pf, spec, kd)[0] == "strict-min"
        assert not energy_calls, n_vertices
        target_jets.clear()
        assert fourth_derivative_test(FrameworkEnergyTarget(spec, pf)).classification == "strict-min"
        assert dict(target_jets) == {(3, 4): 1}, n_vertices          # m (m + 1) (m + 2) / 6


def test_order4_verdict_forms_no_square_array():
    # given its split, the verdict on a 600-coordinate strip allocates less
    # than one N x N float array (the dense Hessian alone was one, and
    # K-bar's basis N x rank); the split's own arrays are not counted
    pf, _, _ = pin_with_permutation(midpoint_strip(300, 2))
    kd = kernel_decomposition(rigidity_matrix(pf))
    spec = EnergySpec.for_framework(pf.base, "harmonic")
    tracemalloc.start()
    try:
        verdict = critpoint.second_order_rigidity_verdict(pf, spec, kd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict[0] == "strict-min"
    assert peak < 8 * pf.n_free**2, peak


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
