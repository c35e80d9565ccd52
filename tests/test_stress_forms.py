"""second_order_rigidity_test reads mu from the self-stresses: at rest the
t^4 coefficient along p + t y + t^2 x is 1/2 sum_e phi''_e (q_e(y) +
2 (R x)_e)^2, so mu(y) = 1/2 v' G^-1 v with v_s = y' Q_s y and
G = W' D^-1 W.  Its forms, scale, least value and arg point are checked
against the jet route it replaced: the framework energy's dense Hessian and
batched order-3 gradient jets, polarized by _assemble_quartic_forms, with
the x-part solved on K-bar.  Both are searched by the same _kernel_search,
in four families and under rotations of the kernel basis."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rigidkit.critpoint as critpoint
from rigidkit import (
    FAMILIES,
    EnergySpec,
    kernel_decomposition,
    pin_with_permutation,
    rigidity_matrix,
    second_order_rigidity_test,
)
from rigidkit.critpoint import _assemble_quartic_forms
from oracles import FrameworkEnergyTarget, rest_curvature_by_jets
from test_ladder import tetrahedron_edge_midpoint
from test_quartic_assembly import collinear_chain, midpoint_strip

FORM_TOL = 1e-12      # M, B, scale and a_min, relative to the scale
ARG_TOL = 1e-10       # arg points, relative to their largest entry
CURVATURE_TOL = 1e-13   # phi'' per edge, relative
GENERATORS = Path(__file__).resolve().parents[1] / "bench" / "generators.py"
SCALE_K2 = ((20, 2), (20, 3), (40, 2))     # the benchmark's scale_k2 inputs, in its order


def _scale_k2_frameworks(seed: int):
    spec = importlib.util.spec_from_file_location("bench_generators", GENERATORS)
    generators = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = generators     # its dataclasses look themselves up there
    try:
        spec.loader.exec_module(generators)
        rng = np.random.default_rng(seed)
        return [generators.strip_with_midpoints(n, m, rng).framework for n, m in SCALE_K2]
    finally:
        del sys.modules[spec.name]


def _rotated(kd):
    """kd itself and with its kernel basis turned by 3 seeded orthogonal
    matrices (sign flips at dim K = 1)."""
    rng = np.random.default_rng(kd.dim_K)
    yield kd
    for _ in range(3):
        rot, _ = np.linalg.qr(rng.standard_normal((kd.dim_K, kd.dim_K)))
        yield replace(kd, K_basis=kd.K_basis @ rot)


def _jet_route(pf, spec, kd):
    """The forms and report of the jet route on kd's bases, and its arg
    point at a unit kernel vector y."""
    target = FrameworkEnergyTarget(spec, pf)
    X, Y = kd.Kbar_basis, kd.K_basis
    forms = _assemble_quartic_forms(target, X, Y, target.hessian0())

    def arg_point(y):
        x = X @ forms.x_part(y)
        norm = np.sqrt(1.0 + x @ x)
        return Y @ y / norm, x / norm

    return forms, critpoint._kernel_verdict(forms, Y, lambda y: X @ forms.x_part(y), "quartic", 4, ""), arg_point


def _assert_matches_jet_route(pf, label):
    """The forms, the verdict and its certificate as the jet route's, except
    where the box cap stopped the search and the stress forms' prestress
    certificate decides, which the jet route has no self-stresses for; the
    least value as the jet route's mu at the reported point, and as its own
    search's where the search decided (the box cap leaves a Newton polish
    whose end point rounding can move); and the arg point as the jet
    route's at the same kernel vector, since mu's least points need not be
    isolated (the tetrahedron's midpoint turns freely about its edge)."""
    for kd in _rotated(kernel_decomposition(rigidity_matrix(pf))):
        for family in FAMILIES:
            case = (label, family)
            spec = EnergySpec.for_framework(pf.base, family)
            forms = critpoint._stress_forms(pf, spec, kd)
            ref_forms, ref, ref_arg_point = _jet_route(pf, spec, kd)
            scale = ref_forms.scale
            assert abs(forms.scale - scale) <= FORM_TOL * scale, case
            for got, want in ((forms.M, ref_forms.M), (forms.B, ref_forms.B)):
                assert np.max(np.abs(got - want)) <= FORM_TOL * scale, case
            rep = second_order_rigidity_test(pf, spec, kd)
            capped = ref.notes[0].startswith("box cap")
            prestress = forms.prestress_note(critpoint.DEFAULT_CRIT_TOL * (1.0 + forms.scale)) if capped else None
            want = ("strict-min", prestress) if prestress else (ref.classification, ref.notes[0])
            assert (rep.classification, rep.notes[0]) == want, case
            if not capped:
                assert abs(rep.a_min - ref.a_min) <= FORM_TOL * scale, case
            y = kd.K_basis.T @ rep.arg_min_velocity
            y /= np.linalg.norm(y)
            ref_mu = np.einsum("ijkl,i,j,k,l->", ref_forms.M, y, y, y, y)
            assert abs(rep.a_min - ref_mu) <= FORM_TOL * scale, case
            for got, want in zip((rep.arg_min_velocity, rep.arg_min_curvature), ref_arg_point(y)):
                assert np.max(np.abs(got - want)) <= ARG_TOL * np.max(np.abs(want)), case


FRAMEWORKS = {
    **{f"strip40-m{m}": lambda m=m: midpoint_strip(40, m) for m in range(2, 9)},
    "chain": collinear_chain,
    "tetrahedron-edge-midpoint": tetrahedron_edge_midpoint,
}


@pytest.mark.parametrize("name", FRAMEWORKS)
def test_stress_forms_match_the_jet_route(name):
    pf, _, _ = pin_with_permutation(FRAMEWORKS[name]())
    _assert_matches_jet_route(pf, name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stress_forms_match_the_jet_route_on_the_scale_k2_inputs(seed):
    for fw in _scale_k2_frameworks(seed):
        pf, _, _ = pin_with_permutation(fw)
        _assert_matches_jet_route(pf, (seed, fw.n_vertices))


def test_stress_forms_match_the_jet_route_on_the_corpus(corpus_analysis):
    for name, item in corpus_analysis.items():
        assert item["kd"].dim_K == 1, name
        _assert_matches_jet_route(item["pf"], name)


def test_rest_curvature_is_the_jet_routes(corpus_analysis):
    # phi'' = (E'' - E'/l) / (4 l^2) from the pointwise E' and E'' against
    # twice the s^2 coefficient of the jet formula on d^2 + s
    pfs = [item["pf"] for item in corpus_analysis.values()]
    pfs += [pin_with_permutation(fw)[0] for seed in (1, 2, 3) for fw in _scale_k2_frameworks(seed)]
    for pf in pfs:
        for family in FAMILIES:
            spec = EnergySpec.for_framework(pf.base, family)
            got, want = critpoint._rest_curvature(spec, pf), rest_curvature_by_jets(spec, pf)
            assert np.all(np.abs(got - want) <= CURVATURE_TOL * np.abs(want)), (pf.base.n_vertices, family)


def test_no_self_stress_leaves_mu_zero():
    # a strip minus one diagonal has independent rows, so W is empty and
    # mu vanishes identically; B is the t^4 coefficient at x = 0 all the same
    from test_linear import strip_minus_two_diagonals

    pf = strip_minus_two_diagonals(20, seed=20)
    kd = kernel_decomposition(rigidity_matrix(pf))
    assert kd.stresses.shape[1] == 0 and kd.dim_K == 2
    for family in FAMILIES:
        spec = EnergySpec.for_framework(pf.base, family)
        forms = critpoint._stress_forms(pf, spec, kd)
        assert not np.any(forms.M)
        assert forms.scale == pytest.approx(np.linalg.norm(forms.B), rel=1e-15) and forms.scale > 0.0
        rep = second_order_rigidity_test(pf, spec, kd)
        assert (rep.classification, rep.a_min) == ("inconclusive", 0.0), family
