"""The cubic kernel form T is read from the order-2 gradient jets that
already give the mixed form C: Y'[t^2] grad f(Y y t) = 3 T(y, y, .).  It
is checked against the polarization of order-3 energy jets it replaced,
on targets whose only cubic kernel term makes a saddle, and the order-4
rigidity test is checked to take each of its jets once.  An edge-length
energy is even in t along a first-order flex, so its T vanishes and the
rigidity tests run no screen; that T stays far below the screen's
threshold is checked here instead."""

from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest

import rigidkit.critpoint as critpoint
from rigidkit import (
    FAMILIES,
    EnergySpec,
    PolynomialTarget,
    fourth_derivative_test,
    kernel_decomposition,
    pin_with_permutation,
    rigidity_matrix,
    second_order_rigidity_test,
)
from rigidkit.critpoint import DEFAULT_CRIT_TOL, FrameworkEnergyTarget, _assemble_quartic_forms, _cubic_screen
from oracles import f_jet
from test_quartic_assembly import _polynomial_case, collinear_chain, midpoint_strip

RTOL = 1e-12


def _energy_jet_cubic_form(target, Y):
    """T by polarizing order-3 jets of f(Y y t) over sums of up to three
    kernel basis vectors, and the (value, vector) pairs it evaluated."""
    m = Y.shape[1]
    eye = np.eye(m)
    cache = {}

    def cval(ids):
        if ids not in cache:
            vec = np.sum(eye[list(ids)], axis=0)
            cache[ids] = (float(f_jet(target, (Y @ vec)[None, :], 3).c[3]), vec)
        return cache[ids][0]

    tensor = np.zeros((m, m, m))
    for i, j, k in combinations_with_replacement(range(m), 3):
        # 6 T_ijk = C(a+b+c) - C(a+b) - C(a+c) - C(b+c) + C(a) + C(b) + C(c)
        acc = cval((i, j, k)) - cval((i, j)) - cval((i, k)) - cval((j, k))
        acc += cval((i,)) + cval((j,)) + cval((k,))
        for perm in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            tensor[perm] = acc / 6.0
    return tensor, list(cache.values())


def _lone_cubic(m):
    # f = x^2 + one cubic kernel monomial (y1^2 y2 at m = 2, y1 y2 y3 at
    # m = 3) + a positive quartic; the Hessian diag(2, 0, ..., 0) has an
    # m-dimensional kernel
    cubic = (0, 2, 1) if m == 2 else (0, 1, 1, 1)
    monos = [((2,) + (0,) * m, 1.0), (cubic, 1.0)]
    monos += [((0,) + tuple(4 * int(i == j) for j in range(m)), 1.0) for i in range(m)]
    eye = np.eye(m + 1)
    return PolynomialTarget(m + 1, tuple(monos)), eye[:, :1], eye[:, 1:]


def _cases():
    yield "lone-y1y1y2", _lone_cubic(2)
    yield "lone-y1y2y3", _lone_cubic(3)
    yield "polynomial", _polynomial_case()


@pytest.mark.parametrize("name, case", list(_cases()))
def test_cubic_form_from_gradient_jets_matches_energy_jets(name, case):
    target, X, Y = case
    forms = _assemble_quartic_forms(target, X, Y, target.hessian0())
    want, evals = _energy_jet_cubic_form(target, Y)
    assert forms.T.shape == want.shape
    assert np.max(np.abs(forms.T - want)) <= RTOL * max(1.0, np.max(np.abs(want))), name

    # the screen's scale is ||T||_F, and its witness that of the
    # energy-jet screen
    rep = _cubic_screen(forms.T, Y, 1e-8)
    if np.max(np.abs(want)) == 0.0:
        assert rep is None, name
        return
    assert rep.scale == pytest.approx(np.linalg.norm(want), rel=RTOL), name
    vec = max(evals, key=lambda e: abs(e[0]))[1]
    np.testing.assert_allclose(rep.a3_witness, Y @ vec / np.linalg.norm(vec), rtol=0, atol=RTOL)


@pytest.mark.parametrize("m", [2, 3])
def test_lone_cubic_kernel_term_is_a_saddle(monkeypatch, m):
    target, _, _ = _lone_cubic(m)
    calls = Counter()
    original = PolynomialTarget.gradient_jet_along

    def counted(self, rows, order):
        calls[order, np.shape(rows)[0]] += 1
        return original(self, rows, order)

    monkeypatch.setattr(PolynomialTarget, "gradient_jet_along", counted)
    rep = fourth_derivative_test(target)
    assert (rep.classification, rep.resolved_by, rep.order, rep.nullity) == ("saddle", "cubic", 3, m)
    witness = rep.a3_witness
    assert np.linalg.norm(witness) == pytest.approx(1.0, rel=RTOL)
    assert abs(witness[0]) <= RTOL               # in span Y: no x part
    # grad0 from one order-0 jet along v = 0, hessian0 from one batched
    # order-1 call along the m + 1 axes, and the order-3 gradient jets of
    # all lattice points a in N^m with |a| = 3, taken in one batched call
    # (one trajectory per point) for C, T and B
    assert dict(calls) == {(0, 1): 1, (1, m + 1): 1, (3, m * (m + 1) * (m + 2) // 6): 1}


@pytest.mark.parametrize("m, gradient_jets", [(2, 4), (3, 10)])
def test_order4_test_takes_each_jet_once(monkeypatch, m, gradient_jets):
    # C, T and B share the m(m+1)(m+2)/6 order-3 gradient jets, one per
    # lattice point a in N^m with |a| = 3, all taken in one batched call of
    # that many trajectories; no energy jet is taken
    calls = Counter()
    for name in ("energy_along_trajectory", "gradient_along_trajectory"):
        def counted(spec, pf, traj, order, _name=name, _fn=getattr(critpoint, name)):
            calls[_name, traj.coeffs.shape[0]] += 1
            return _fn(spec, pf, traj, order)

        monkeypatch.setattr(critpoint, name, counted)
    for n_vertices in (20, 40):
        calls.clear()
        pf, _, _ = pin_with_permutation(midpoint_strip(n_vertices, m))
        kd = kernel_decomposition(rigidity_matrix(pf))
        assert kd.dim_K == m
        rep = second_order_rigidity_test(pf, EnergySpec.for_framework(pf.base, "harmonic"), kd)
        assert rep.classification == "strict-min"
        assert dict(calls) == {("gradient_along_trajectory", gradient_jets): 1}, n_vertices


def test_energy_cubic_kernel_form_is_far_below_the_screen(corpus_analysis):
    # along a first-order flex every squared edge length is
    # d^2 + |Delta Y y|^2 t^2, so the energy's T vanishes up to rounding:
    # its ||T||_F must stay below 1e-3 of the threshold
    # tol (1 + ||T||_F) fourth_derivative_test's screen would apply
    cases = [(name, item["pf"], item["kd"]) for name, item in corpus_analysis.items()]
    for name, fw in (("strip20-2", midpoint_strip(20, 2)), ("strip20-3", midpoint_strip(20, 3)),
                     ("strip10-3", midpoint_strip(10, 3)), ("chain", collinear_chain())):
        pf, _, _ = pin_with_permutation(fw)
        cases.append((name, pf, kernel_decomposition(rigidity_matrix(pf))))
    for name, pf, kd in cases:
        for family in FAMILIES:
            target = FrameworkEnergyTarget(EnergySpec.for_framework(pf.base, family), pf)
            forms = _assemble_quartic_forms(target, kd.Kbar_basis, kd.K_basis, target.hessian0())
            scale3 = np.linalg.norm(forms.T)
            assert scale3 <= 1e-3 * DEFAULT_CRIT_TOL * (1.0 + scale3), (name, family)
