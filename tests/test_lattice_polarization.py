"""The order-4 assembly's one batched gradient-jet call and its polarization
identities: batched gradient and energy jets against stacked single calls,
the identities on exact integer forms, the assembled forms against the
least-squares route they replaced (oracles.quartic_forms_by_lstsq), and a
guard that critpoint solves no least-squares system."""

import ast
from pathlib import Path

import numpy as np
import pytest

import rigidkit.critpoint as critpoint
from rigidkit import (
    FAMILIES,
    EnergySpec,
    Framework,
    PolynomialTarget,
    PolyTrajectory,
    energy_along_trajectory,
    gradient_along_trajectory,
    kernel_decomposition,
    pin_with_permutation,
    rigidity_matrix,
)
from rigidkit.critpoint import _assemble_quartic_forms, _lattice, _polarize_cubic, _polarize_quadratic
from oracles import FrameworkEnergyTarget, quartic_forms_by_lstsq
from test_quartic_assembly import midpoint_strip

EPS = np.finfo(float).eps
RTOL = 1e-12


def zigzag_path(n_vertices: int) -> Framework:
    """A planar path on a zigzag: dim K = n_vertices - 2."""
    x = np.arange(n_vertices, dtype=float)
    return Framework(2, np.column_stack([x, 0.3 * (x % 2)]), [(i, i + 1) for i in range(n_vertices - 1)])


def _kernel_case(fw):
    pf, _, _ = pin_with_permutation(fw)
    kd = kernel_decomposition(rigidity_matrix(pf))
    return pf, kd


def _assert_rows_equal(batched, singles):
    # each row equals its single call up to a few rounding units of the
    # row's largest entry (series_mul's BLAS products may sum in another
    # order for another memory layout)
    singles = np.stack(singles)
    assert batched.shape == singles.shape
    scale = np.max(np.abs(singles), axis=tuple(range(1, singles.ndim)), keepdims=True)
    assert np.all(np.abs(batched - singles) <= 4.0 * EPS * scale)


# ---------------------------------------------------------------------------
# batched jets against stacked single calls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n_vertices, m", [(20, 2), (20, 3), (40, 6)])
def test_batched_gradient_jets_on_the_lattice_lines(family, n_vertices, m):
    pf, kd = _kernel_case(midpoint_strip(n_vertices, m))
    assert kd.dim_K == m
    rows = (_lattice(m).points @ kd.K_basis.T)[:, None, :]
    spec = EnergySpec.for_framework(pf.base, family)
    batched = gradient_along_trajectory(spec, pf, PolyTrajectory(rows), 3)
    assert batched.shape == (rows.shape[0], pf.n_free, 4)
    _assert_rows_equal(batched, [gradient_along_trajectory(spec, pf, PolyTrajectory(r), 3) for r in rows])
    # the target takes the same rows and makes the same single call
    target = FrameworkEnergyTarget(spec, pf)
    assert np.array_equal(target.gradient_jet_along(rows, 3), batched)
    assert np.array_equal(target.gradient_jet_along(rows[0, 0], 3), target.gradient_jet_along(rows[0], 3))


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_gradient_and_energy_jets_on_corpus_witnesses(corpus_analysis, family):
    # a batch of three degree k-1 trajectories per corpus witness: the
    # witness prefix, its reverse t -> -t and a rescaled copy
    for name, item in corpus_analysis.items():
        pf, rep = item["pf"], item["report"]
        spec = EnergySpec.for_framework(pf.base, family)
        for k in range(2, rep.order + 1):
            coeffs = rep.witness.prefix(k - 1).coeffs
            signs = (-1.0) ** np.arange(1, k)[:, None]
            batch = np.stack([coeffs, signs * coeffs, 0.5 * coeffs])
            for order in (k, 2 * k):
                grads = gradient_along_trajectory(spec, pf, PolyTrajectory(batch), order)
                _assert_rows_equal(grads, [gradient_along_trajectory(spec, pf, PolyTrajectory(c), order)
                                           for c in batch])
                jets = energy_along_trajectory(spec, pf, PolyTrajectory(batch), order)
                singles = [energy_along_trajectory(spec, pf, PolyTrajectory(c), order) for c in batch]
                _assert_rows_equal(jets.c, [j.c for j in singles])
                _assert_rows_equal(jets.mag, [j.mag for j in singles])


def test_batched_polynomial_gradient_jets():
    rng = np.random.default_rng(21)
    n_vars = 4
    monos = tuple((tuple(int(e) for e in rng.integers(0, 4, size=n_vars)), float(rng.standard_normal()))
                  for _ in range(15))
    target = PolynomialTarget(n_vars, monos + (((0,) * n_vars, 2.0),))
    rows = rng.standard_normal((6, 2, n_vars))
    for order in (3, 8):
        batched = target.gradient_jet_along(rows, order)
        assert batched.shape == (6, n_vars, order + 1)
        _assert_rows_equal(batched, [target.gradient_jet_along(r, order) for r in rows])


# ---------------------------------------------------------------------------
# the polarization identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 8))
def test_polarization_recovers_integer_forms_exactly(m):
    # small-integer symmetric forms give exact lattice values, and the
    # identities divide by 4, 9, 18, 27 and 6 only after exact sums, so the
    # forms come back bit for bit (two trailing columns ride along)
    rng = np.random.default_rng(m)
    sym2 = rng.integers(-9, 10, size=(2, m, m)).astype(float)
    quad = 36.0 * (sym2 + sym2.transpose(0, 2, 1))
    raw = rng.integers(-9, 10, size=(2, m, m, m)).astype(float)
    cubic = 216.0 * sum(raw.transpose(0, *p) for p in
                        ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)))
    lat = _lattice(m)
    a = lat.points
    q = np.einsum("ri,cij,rj->rc", a, quad, a)
    c = np.einsum("ri,rj,cijk,rk->rc", a, a, cubic, a)
    assert np.array_equal(_polarize_quadratic(q, lat), quad.transpose(1, 2, 0))
    assert np.array_equal(_polarize_cubic(c, lat), cubic.transpose(1, 2, 3, 0))
    assert lat.points.shape == (m * (m + 1) * (m + 2) // 6, m)


def _compare_with_lstsq(target, X, Y, where):
    hess = target.hessian0()
    s_old, old = quartic_forms_by_lstsq(target, X, Y, hess)
    lat = _lattice(Y.shape[1])
    jets = target.gradient_jet_along((lat.points @ Y.T)[:, None, :], 3)
    s_new = np.moveaxis(_polarize_quadratic(jets[:, :, 2], lat), -1, 0)
    new = _assemble_quartic_forms(target, X, Y, hess)
    # an edge-length energy's T = Y'S / 3 is rounding noise of S, so it is
    # measured against S
    s_scale = np.max(np.abs(s_old))
    for label, got, want, scale in (("S", s_new, s_old, s_scale), ("C", new.C, old.C, np.max(np.abs(old.C))),
                                    ("T", new.T, old.T, max(np.max(np.abs(old.T)), s_scale)),
                                    ("B", new.B, old.B, np.max(np.abs(old.B)))):
        assert got.shape == want.shape, (where, label)
        assert np.max(np.abs(got - want)) <= RTOL * scale, (where, label)
    assert np.array_equal(new.Hxx, old.Hxx), where
    return old


@pytest.mark.parametrize("m", range(1, 7))
def test_polarized_forms_match_the_least_squares_route(m):
    family = FAMILIES[m % len(FAMILIES)]
    pf, kd = _kernel_case(midpoint_strip(20 if m < 5 else 40, m))
    assert kd.dim_K == m
    target = FrameworkEnergyTarget(EnergySpec.for_framework(pf.base, family), pf)
    old = _compare_with_lstsq(target, kd.Kbar_basis, kd.K_basis, (m, family))
    assert np.max(np.abs(old.B)) > 0.0 and np.max(np.abs(old.C)) > 0.0


def test_polarized_polynomial_forms_match_the_least_squares_route():
    # x0^2 + x1^2 plus random terms of degree 3 and 4 in five variables:
    # nonzero C, B and, unlike an edge-length energy, T
    rng = np.random.default_rng(5)
    exps = [tuple(int(e) for e in rng.multinomial(deg, np.full(5, 0.2))) for deg in (3, 3, 3, 3, 4, 4, 4, 4, 4)]
    monos = (((2, 0, 0, 0, 0), 1.0), ((0, 2, 0, 0, 0), 1.0)) + tuple(
        (e, float(rng.standard_normal())) for e in exps + [(0, 0, 1, 1, 1), (1, 0, 1, 1, 0), (0, 0, 2, 1, 1)])
    eye = np.eye(5)
    old = _compare_with_lstsq(PolynomialTarget(5, monos), eye[:, :2], eye[:, 2:], "polynomial")
    assert min(np.max(np.abs(form)) for form in (old.C, old.T, old.B)) > 0.0


@pytest.mark.parametrize("n_vertices", [12, 16])
def test_polarized_forms_match_the_least_squares_route_on_zigzag_paths(n_vertices):
    # dim K = 10 and 14: 220 and 560 lattice points
    pf, kd = _kernel_case(zigzag_path(n_vertices))
    assert kd.dim_K == n_vertices - 2
    target = FrameworkEnergyTarget(EnergySpec.for_framework(pf.base, "harmonic"), pf)
    _compare_with_lstsq(target, kd.Kbar_basis, kd.K_basis, n_vertices)


def test_critpoint_solves_no_least_squares_system():
    # the forms come from fixed identities on the lattice values; a
    # least-squares solve coming back would cost m^6 again
    tree = ast.parse(Path(critpoint.__file__).read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "lstsq" not in names
