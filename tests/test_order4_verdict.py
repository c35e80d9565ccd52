"""The order-4 verdict without its report: rigidity_order at dim K >= 2
reads critpoint.second_order_rigidity_verdict, which runs the report's
forms, search and classification rule but polishes the least point only
when the search stopped undecided.  Its verdict and certificate must be the
report's, and mu's symmetric tensor, symmetrized by cosets of S_4, must be
the mean over all 24 axis permutations."""

from itertools import permutations

import numpy as np
import pytest

import rigidkit.critpoint as critpoint
from rigidkit import (
    FAMILIES,
    EnergySpec,
    pin_with_permutation,
    rigidity_order,
    second_order_rigidity_test,
)
from rigidkit.critpoint import _QuarticForms, second_order_rigidity_verdict
from test_ladder import tetrahedron_edge_midpoint
from test_lattice_polarization import zigzag_path
from test_linear import strip_minus_two_diagonals
from test_quartic_assembly import midpoint_strip

EPS = np.finfo(float).eps

# dim K >= 2 frameworks: certified strict minima at m = 2..6, the box cap
# at m = 7, 8, 10 and 14, and min mu certified within +/- tol_eff
FRAMEWORKS = {
    **{f"strip40-m{m}": lambda m=m: pin_with_permutation(midpoint_strip(40, m))[0] for m in range(2, 9)},
    **{f"zigzag{n}": lambda n=n: pin_with_permutation(zigzag_path(n))[0] for n in (12, 16)},
    "strip20-two-diagonals": lambda: strip_minus_two_diagonals(20, seed=20),
    "tetrahedron-edge-midpoint": lambda: pin_with_permutation(tetrahedron_edge_midpoint())[0],
}


@pytest.mark.parametrize("name", FRAMEWORKS)
def test_the_verdict_is_the_reports_classification_and_first_note(name):
    pf = FRAMEWORKS[name]()
    for family in FAMILIES:
        spec = EnergySpec.for_framework(pf.base, family)
        crit = second_order_rigidity_test(pf, spec)
        assert crit.nullity >= 2, (name, family)
        assert second_order_rigidity_verdict(pf, spec) == (crit.classification, crit.notes[0]), (name, family)
        rep = rigidity_order(pf, energy_family=family)
        strict = crit.classification == "strict-min"
        reason = (f"order-4 test {crit.classification}; {crit.notes[0]}; "
                  "dimK>1 beyond order 2 requires symbolic methods")
        assert (rep.verdict, rep.order, rep.reason, rep.method) == (
            "order" if strict else "inconclusive", 2 if strict else None, None if strict else reason,
            "order4-energy"), (name, family)


@pytest.mark.parametrize("n_vertices, m, verdict_polishes", [(40, 2, 0), (20, 3, 0), (40, 7, 1)])
def test_a_verdict_polishes_only_an_undecided_search(monkeypatch, n_vertices, m, verdict_polishes):
    # m = 2 and 3 are certified strict minima; at m = 7 the box cap stops
    # the search before its first box, and the polish may still find a witness
    calls = []
    polish = critpoint.minimize_on_sphere

    def counted(*args, **kwargs):
        calls.append(1)
        return polish(*args, **kwargs)

    monkeypatch.setattr(critpoint, "minimize_on_sphere", counted)
    pf, _, _ = pin_with_permutation(midpoint_strip(n_vertices, m))
    rep = rigidity_order(pf)
    assert rep.dim_K == m
    assert len(calls) == verdict_polishes
    calls.clear()
    second_order_rigidity_test(pf, EnergySpec.for_framework(pf.base, "harmonic"))
    assert len(calls) == 1


@pytest.mark.parametrize("m", range(1, 7))
def test_coset_symmetrization_is_the_mean_over_all_axis_permutations(m):
    # with no curvature block, M is the symmetrization of B itself
    quart = np.random.default_rng(m).standard_normal((m,) * 4)
    M = _QuarticForms(np.zeros((0, 0)), np.zeros((0, m, m)), quart).M
    mean = sum(np.transpose(quart, p) for p in permutations(range(4))) / 24.0
    size = np.linalg.norm(quart)
    assert np.max(np.abs(M - mean)) <= 4.0 * EPS * size
    for p in permutations(range(4)):
        assert np.max(np.abs(np.transpose(M, p) - M)) <= 4.0 * EPS * size, p
