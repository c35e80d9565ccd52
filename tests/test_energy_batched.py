"""Edge-batched energy jets against a per-edge scalar-Jet oracle.

The oracle below builds one scalar Jet per edge and per operation, the way
the energy jets were first written; the library computes all edges at once
on (E, order+1) coefficient arrays.  Coefficients are compared relative to
their magnitude channel mag[i], which bounds the rounding error of c[i]
(coefficients that cancel to ~0 carry noise at mag[i] * eps, whatever the
summation order).
"""

import numpy as np
import pytest

from rigidkit import FAMILIES, EnergySpec, Jet, PolyTrajectory, energy_along_trajectory
from rigidkit.energy import _taylor_in_m, gradient_along_trajectory
from rigidkit.errors import ZeroLengthEdge
from oracles import embed_tangent

ORDERS = range(1, 17)
RTOL = 1e-12


def _oracle_coordinate_jets(pf, traj, order):
    coords = np.zeros(pf.base.vertices.shape + (order + 1,))
    coords[:, :, 0] = pf.base.vertices
    for l in range(1, min(traj.degree, order) + 1):
        coords[:, :, l] = embed_tangent(pf, traj.coeffs[l - 1])
    return coords


def _oracle_m_jets(pf, traj, order):
    coords = _oracle_coordinate_jets(pf, traj, order)
    out = []
    for v, w in pf.base.edges:
        acc = Jet.constant(0.0, order)
        for a in range(pf.dimension):
            diff = Jet(coords[v, a] - coords[w, a])
            acc = acc + diff * diff
        out.append(acc)
    return coords, out


def _oracle_edge_energy(spec, idx, m_jet):
    dij = spec.rest_lengths[idx]
    if spec.family == "harmonic":
        dl = m_jet.sqrt() - dij
        return 0.5 * spec.stiffness[idx] * (dl * dl)
    if spec.family == "algebraic":
        gap = m_jet - dij**2
        return 0.5 * spec.stiffness[idx] * (gap * gap)
    if spec.family == "lj":
        u = (spec.sigma[idx] ** 2 * m_jet.reciprocal()).power(3)
        return 4.0 * spec.epsilon[idx] * (u * u - u)
    one_m = -((-spec.width[idx]) * (m_jet.sqrt() - dij)).exp() + 1.0
    return spec.depth[idx] * (one_m * one_m)


def _oracle_edge_energy_dm(spec, idx, m_jet):
    dij = spec.rest_lengths[idx]
    if spec.family == "harmonic":
        return 0.5 * spec.stiffness[idx] * (1.0 - dij * m_jet.sqrt().reciprocal())
    if spec.family == "algebraic":
        return spec.stiffness[idx] * (m_jet - dij**2)
    if spec.family == "lj":
        minv = m_jet.reciprocal()
        u = (spec.sigma[idx] ** 2 * minv).power(3)
        return 12.0 * spec.epsilon[idx] * minv * (u - 2.0 * (u * u))
    l_jet = m_jet.sqrt()
    ex = ((-spec.width[idx]) * (l_jet - dij)).exp()
    return spec.depth[idx] * spec.width[idx] * (ex * (1.0 - ex)) * l_jet.reciprocal()


def oracle_energy(spec, pf, traj, order):
    _, m_jets = _oracle_m_jets(pf, traj, order)
    total = Jet.constant(0.0, order)
    for idx, m_jet in enumerate(m_jets):
        total = total + _oracle_edge_energy(spec, idx, m_jet)
    c = total.c.copy()
    c[0] -= spec.rest_energy()
    return Jet(c, total.mag)


def oracle_gradient(spec, pf, traj, order):
    """(n_free, order+1) gradient jets and their per-entry magnitudes."""
    coords, m_jets = _oracle_m_jets(pf, traj, order)
    n, d = pf.base.vertices.shape
    grad = np.zeros((n, d, order + 1))
    mag = np.zeros((n, d, order + 1))
    for idx, ((v, w), m_jet) in enumerate(zip(pf.base.edges, m_jets)):
        dm = _oracle_edge_energy_dm(spec, idx, m_jet)
        for a in range(d):
            contrib = 2.0 * (dm * Jet(coords[v, a] - coords[w, a]))
            grad[v, a] += contrib.c
            grad[w, a] -= contrib.c
            mag[v, a] += contrib.mag
            mag[w, a] += contrib.mag
    return grad[pf.free_vertex, pf.free_axis], mag[pf.free_vertex, pf.free_axis]


def _random_trajectory(pf, seed):
    # a generic cubic trajectory, small enough that no edge collapses
    rng = np.random.default_rng(seed)
    scale = 0.05 * float(np.min(pf.base.edge_lengths()))
    return PolyTrajectory(scale * rng.standard_normal((3, pf.n_free)))


def _check_against_oracle(spec, pf, traj):
    # coefficient i of every jet operation depends on coefficients <= i
    # only, so the oracle at the top order also serves every lower order
    top = max(ORDERS)
    want = oracle_energy(spec, pf, traj, top)
    want_grad, grad_mag = oracle_gradient(spec, pf, traj, top)
    for order in ORDERS:
        got = energy_along_trajectory(spec, pf, traj, order)
        c, mag = want.c[: order + 1], want.mag[: order + 1]
        assert got.c.shape == (order + 1,)
        assert np.all(np.abs(got.c - c) <= RTOL * mag), (spec.family, order)
        assert np.allclose(got.mag, mag, rtol=RTOL, atol=0.0), (spec.family, order)
        grad = gradient_along_trajectory(spec, pf, traj, order)
        assert grad.shape == (pf.n_free, order + 1)
        err = np.abs(grad - want_grad[:, : order + 1])
        assert np.all(err <= RTOL * grad_mag[:, : order + 1]), (spec.family, order)


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_jets_match_per_edge_oracle_on_corpus_witnesses(corpus_analysis, family):
    for name, item in corpus_analysis.items():
        spec = EnergySpec.for_framework(item["pf"].base, family)
        _check_against_oracle(spec, item["pf"], item["report"].witness)


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_jets_match_per_edge_oracle_on_random_trajectory(corpus_analysis, family):
    for seed, name in enumerate(("k33", "sphere_packing_2")):
        item = corpus_analysis[name]
        spec = EnergySpec.for_framework(item["pf"].base, family)
        _check_against_oracle(spec, item["pf"], _random_trajectory(item["pf"], seed))


def test_energy_jet_is_one_series_with_magnitudes(corpus_analysis):
    item = corpus_analysis["leonardo3"]
    spec = EnergySpec.for_framework(item["pf"].base, "morse")
    jet = energy_along_trajectory(spec, item["pf"], item["report"].witness, 8)
    assert isinstance(jet, Jet) and jet.c.shape == jet.mag.shape == (9,)
    assert np.all(jet.mag + 1e-15 >= np.abs(jet.c))


@pytest.mark.parametrize("family", FAMILIES)
def test_taylor_in_m_batches_leading_axes(corpus_analysis, family):
    # a (B, E) batch of squared lengths gives B rows of the edge-batched
    # series, and a non-positive length in a later row names its own edge
    pf = corpus_analysis["coned_prism"]["pf"]
    spec = EnergySpec.for_framework(pf.base, family)
    rng = np.random.default_rng(7)
    m0 = spec.rest_lengths**2 * (1.0 + 0.1 * rng.standard_normal((3, spec.rest_lengths.size)))
    batch = _taylor_in_m(spec, m0, 4)
    assert batch.shape == (3, spec.rest_lengths.size, 5)
    for b in range(3):
        np.testing.assert_allclose(batch[b], _taylor_in_m(spec, m0[b], 4), rtol=1e-15, atol=0.0)
    m0[2, 5] = -m0[2, 5]
    with pytest.raises(ZeroLengthEdge, match="edge 5 has"):
        _taylor_in_m(spec, m0, 4)
