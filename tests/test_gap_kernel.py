"""The growth sweep's hot path against in-test copies of its earlier forms.

The gap kernel now works edge-major on (E, d, B) arrays and sums forces
through the endpoint column map fixed at pinning time; the reference below
is the (B, n, d) kernel that scattered with one bincount per call.
"""

from fractions import Fraction

import numpy as np
import pytest

from rigidkit import (
    FAMILIES,
    EnergySpec,
    Framework,
    pin,
    pin_with_permutation,
    rigidity_matrix,
)
from rigidkit.energy import energy_gap_grad_hess
from oracles import corpus_items

SCALES = (1e-1, 1e-3, 1e-6)
BATCHES = (1, 6, 64)


def _reference_gap_and_slope(spec, lengths, dl):
    d = spec.rest_lengths
    if spec.family == "harmonic":
        k = spec.stiffness
        return 0.5 * k * dl**2, k * dl
    if spec.family == "algebraic":
        k = spec.stiffness
        gap = dl * (lengths + d)
        return 0.5 * k * gap**2, 2.0 * k * lengths * gap
    if spec.family == "lj":
        eps = spec.epsilon
        c = np.array([float((Fraction(s) / Fraction(r)) ** 6 - Fraction(1, 2)) for s, r in zip(spec.sigma, d)])
        delta = (c + 0.5) * np.expm1(-6.0 * np.log1p(dl / d))
        return 4.0 * eps * delta * (delta + 2.0 * c), (-48.0 * eps / lengths) * (c + 0.5 + delta) * (delta + c)
    eps_d, a = spec.depth, spec.width
    one_m = -np.expm1(-a * dl)
    return eps_d * one_m**2, 2.0 * eps_d * a * (1.0 - one_m) * one_m


def _reference_gap_kernel(spec, pf, batch):
    """(B, n, d) layout, index bins rebuilt and scattered with one bincount
    on every call."""
    n_batch = batch.shape[0]
    n, d = pf.base.vertices.shape
    ev, ew = pf.base.edge_index_arrays()
    delta_full = np.zeros((n_batch, n, d))
    delta_full[:, pf.free_vertex, pf.free_axis] = batch
    base_diff = pf.base.edge_vectors()
    delta_diff = delta_full[:, ev] - delta_full[:, ew]
    rest = spec.rest_lengths
    m_gap = 2.0 * np.einsum("bed,ed->be", delta_diff, base_diff) + np.sum(delta_diff**2, axis=2)
    lengths = np.sqrt(rest**2 + m_gap)
    dl = m_gap / (lengths + rest)
    gap, slope = _reference_gap_and_slope(spec, lengths, dl)
    contrib = (slope / lengths)[:, :, None] * (base_diff + delta_diff)
    slots = d * np.concatenate([ev, ew])[:, None] + np.arange(d)
    bins = (n * d * np.arange(n_batch))[:, None] + slots.ravel()
    forces = np.concatenate([contrib, -contrib], axis=1)
    grad_full = np.bincount(bins.ravel(), forces.ravel(), minlength=n_batch * n * d)
    grad = grad_full.reshape(n_batch, n, d)[:, pf.free_vertex, pf.free_axis]
    return np.sum(gap, axis=1), grad


def _reference_rigidity_matrix(pf):
    base = pf.base
    ev, ew = base.edge_index_arrays()
    diff = base.edge_vectors()
    col = np.full(base.vertices.shape, -1)
    col[pf.free_vertex, pf.free_axis] = np.arange(pf.n_free)
    mat = np.zeros((base.n_edges, pf.n_free))
    rows = np.broadcast_to(np.arange(base.n_edges)[:, None], diff.shape)
    for ends, sign in ((ev, 1.0), (ew, -1.0)):
        cols = col[ends]
        free = cols >= 0
        mat[rows[free], cols[free]] = sign * diff[free]
    return mat


@pytest.fixture(scope="module")
def pinned_corpus():
    return {name: pin_with_permutation(fw)[0] for name, fw, _ in corpus_items()}


def _unit_batch(rng, count, dim, scale):
    z = rng.standard_normal((count, dim))
    return scale * z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.parametrize("family", FAMILIES)
def test_gap_kernel_matches_reference(pinned_corpus, family):
    rng = np.random.default_rng(11)
    for name, pf in pinned_corpus.items():
        spec = EnergySpec.for_framework(pf.base, family)
        for n_batch in BATCHES:
            for scale in SCALES:
                batch = _unit_batch(rng, n_batch, pf.n_free, scale)
                gaps, grads = energy_gap_grad_hess(spec, pf, batch)[:2]
                ref_gaps, ref_grads = _reference_gap_kernel(spec, pf, batch)
                key = (name, n_batch, scale)
                assert gaps.shape == (n_batch,) and grads.shape == (n_batch, pf.n_free)
                np.testing.assert_allclose(gaps, ref_gaps, rtol=1e-12, atol=0.0, err_msg=str(key))
                err = np.max(np.abs(grads - ref_grads))
                assert err <= 1e-12 * np.max(np.abs(ref_grads)), key


def test_gap_kernel_single_displacement_is_first_batch_row(pinned_corpus):
    pf = pinned_corpus["sphere_packing_2"]
    spec = EnergySpec.for_framework(pf.base, "morse")
    batch = _unit_batch(np.random.default_rng(2), 3, pf.n_free, 1e-2)
    gaps, grads = energy_gap_grad_hess(spec, pf, batch)[:2]
    gap, grad = energy_gap_grad_hess(spec, pf, batch[1])[:2]
    assert isinstance(gap, float) and grad.shape == (pf.n_free,)
    assert gap == pytest.approx(gaps[1], rel=1e-14)
    np.testing.assert_allclose(grad, grads[1], rtol=1e-14, atol=1e-18)


def test_gap_kernel_isolated_vertex_has_zero_gradient():
    fw = Framework(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [3.0, 2.0]]),
                   [(0, 1), (1, 2), (0, 2)])
    pf, _ = pin(fw)
    isolated = pf.free_vertex == 3
    assert isolated.sum() == 2
    for family in FAMILIES:
        spec = EnergySpec.for_framework(pf.base, family)
        batch = _unit_batch(np.random.default_rng(4), 5, pf.n_free, 1e-2)
        gaps, grads = energy_gap_grad_hess(spec, pf, batch)[:2]
        assert np.all(grads[:, isolated] == 0.0), family
        assert np.all(np.abs(grads[:, ~isolated]).max(axis=1) > 0.0), family
        ref_gaps, ref_grads = _reference_gap_kernel(spec, pf, batch)
        np.testing.assert_allclose(gaps, ref_gaps, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(grads, ref_grads, rtol=0.0, atol=1e-12 * np.abs(ref_grads).max())


def test_rigidity_matrix_bit_identical(pinned_corpus):
    for name, pf in pinned_corpus.items():
        mat = rigidity_matrix(pf)
        ref = _reference_rigidity_matrix(pf)
        assert mat.shape == ref.shape and np.array_equal(mat, ref), name
        assert np.array_equal(np.signbit(mat), np.signbit(ref)), name


def test_gap_kernel_builds_no_index_per_call(pinned_corpus, monkeypatch):
    """Index layout is built once per pinned framework: none of the index
    builders runs inside the kernel, while pinning does call one (the free
    layout's nonzero) and sorts nothing.  The Hessian's flat targets are
    built on first use, and each kernel call sums with two bincounts, the
    gradient's and the Hessian's."""
    pf = pinned_corpus["sphere_packing_2"]
    pf._hessian_plan
    counts = {}
    for name in ("argsort", "bincount", "unique", "flatnonzero", "nonzero", "lexsort"):
        real = getattr(np, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    rng = np.random.default_rng(8)
    for family in FAMILIES:
        spec = EnergySpec.for_framework(pf.base, family)
        for n_batch in BATCHES:
            energy_gap_grad_hess(spec, pf, _unit_batch(rng, n_batch, pf.n_free, 1e-2))
        energy_gap_grad_hess(spec, pf, _unit_batch(rng, 1, pf.n_free, 1e-2)[0])
    assert counts == {"bincount": 2 * len(FAMILIES) * (len(BATCHES) + 1)}
    counts.clear()
    pin(pf.base)
    assert counts.get("nonzero", 0) >= 1 and "argsort" not in counts
