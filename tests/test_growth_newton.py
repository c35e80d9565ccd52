"""The growth sweep's Riemannian Newton polish.

Newton's minimizers are judged by a 50-digit decimal sum of the gap, not by
the float kernel, whose rounding along the flex at r = 1e-3 is about 1e-4
relative.  The reference is the path Newton replaced: 250 multistart
Barzilai-Borwein rounds, then 1500 more on the best six rows, from the
seeded multistart of tests/oracles.py.
"""

from collections import Counter

import numpy as np
import pytest

import rigidkit.energy as energy
import rigidkit.growth as growth
from rigidkit import EnergySpec, fit_growth_order
from rigidkit.energy import energy_gap_grad_hess
from rigidkit.growth import min_energy_on_sphere_with_arg, minimize_on_sphere
from oracles import bb_minimize_on_sphere, multistart_min_energy_on_sphere
from test_energy_families import _decimal_gap

RADII = (1e-1, 1e-2, 1e-3)


def _bb_minimizer(spec, pf, kd, r, seed=0, n_starts=64):
    """The minimizing point of the Barzilai-Borwein path, from the same
    starts as the seeded multistart."""
    rng = np.random.default_rng(seed)
    rows = [sign * kd.K_basis[:, j] for j in range(kd.dim_K) for sign in (1.0, -1.0)]
    rand = rng.standard_normal((max(n_starts - len(rows), 4), pf.n_free))
    rows.extend(rand / np.linalg.norm(rand, axis=1, keepdims=True))

    def gap(z):
        return energy_gap_grad_hess(spec, pf, z)[:2]

    vals, z = bb_minimize_on_sphere(gap, np.array(rows), r, rounds=250)
    f_vals, f_z = bb_minimize_on_sphere(gap, z[np.argsort(vals)[:6]] / r, r, rounds=1500)
    return f_z[np.argmin(f_vals)]


@pytest.mark.parametrize("name, family", [
    ("k33", "algebraic"),
    ("half_flat_prism", "harmonic"),
    ("coned_prism", "algebraic"),
])
def test_newton_minimum_no_worse_than_bb_under_decimal_sum(corpus_analysis, name, family):
    pf, kd = corpus_analysis[name]["pf"], corpus_analysis[name]["kd"]
    spec = EnergySpec.for_framework(pf.base, family)
    for r in RADII:
        _, directions, stats, _ = min_energy_on_sphere_with_arg(spec, pf, r)
        newton = _decimal_gap(spec, pf, r * directions[0])
        bb = _decimal_gap(spec, pf, _bb_minimizer(spec, pf, kd, r))
        assert 0.0 < newton <= bb * (1.0 + 1e-10), (r, newton, bb)
        assert stats.converged[0], r


@pytest.mark.parametrize("name, family", [
    ("k33", "morse"),
    ("coned_prism", "algebraic"),
    ("half_flat_prism", "harmonic"),
])
def test_seedless_sweep_no_worse_than_multistart(corpus_analysis, monkeypatch, name, family):
    # the dim K = 1 sweep, one Newton batch from the rest Hessian's softest
    # mode, against the seeded multistart at every radius, both judged by
    # the decimal sum: in float, coned_prism's two minima differ by up to
    # 1.6e-4 at r_min, the gap kernel's rounding along the flex
    pf = corpus_analysis[name]["pf"]
    spec = EnergySpec.for_framework(pf.base, family)
    found = []

    def record(fun, starts, r=1.0):
        out = minimize_on_sphere(fun, starts, r)
        found.append((np.asarray(r), out[0], out[1]))
        return out

    monkeypatch.setattr(growth, "minimize_on_sphere", record)
    fit = fit_growth_order(spec, pf)
    (row_radii, vals, z), = found
    for r, m in zip(fit.radii, fit.m_values):
        rows = np.flatnonzero(row_radii == r)
        best = rows[np.argmin(vals[rows])]
        assert len(rows) == 2 and vals[best] == m, r
        sweep = _decimal_gap(spec, pf, z[best])
        _, direction, _ = multistart_min_energy_on_sphere(spec, pf, r)
        multistart = _decimal_gap(spec, pf, r * direction)
        assert 0.0 < sweep <= multistart * (1.0 + 1e-6), (r, sweep, multistart)


def test_newton_on_a_quadratic_finds_the_lowest_eigenvalue():
    # min of z'Az over |z| = r is lambda_min r^2, reached from near its
    # eigenvector in a few steps
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    lam = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
    a = (q * lam) @ q.T
    r = 1e-2

    def value_grad_hess(z):
        return np.einsum("bi,ij,bj->b", z, a, z), 2.0 * z @ a, np.broadcast_to(2.0 * a, (z.shape[0], 6, 6))

    starts = q[:, 0] + 0.1 * rng.standard_normal((3, 6))
    vals, z, stats = minimize_on_sphere(value_grad_hess, starts, r)
    np.testing.assert_allclose(vals, lam[0] * r**2, rtol=1e-12)
    np.testing.assert_allclose(np.abs(z @ q[:, 0]), r, rtol=1e-12)
    assert stats.converged.all() and np.all(stats.steps <= 6)
    assert np.all(stats.tangent_ratio <= 1e-8)
    # one radius per row: each row lands on lambda_min r_i^2, bit for bit
    # where it lands alone at its own scalar radius.  The callback takes
    # its rows one at a time, since z @ a sums in an order that can depend
    # on the batch size; the minimizer itself never mixes rows.
    def by_row(z):
        outs = [value_grad_hess(row[None, :]) for row in z]
        return tuple(np.concatenate(parts) for parts in zip(*outs))

    radii = np.array([1e-3, 1e-2, 1e-1])
    vals, z, stats = minimize_on_sphere(by_row, starts, radii)
    np.testing.assert_allclose(vals, lam[0] * radii**2, rtol=1e-12)
    assert stats.converged.all()
    for i, r_i in enumerate(radii):
        one_vals, one_z, one = minimize_on_sphere(by_row, starts[i:i + 1], r_i)
        assert np.array_equal(one_vals, vals[i:i + 1]) and np.array_equal(one_z, z[i:i + 1]), r_i
        for got, alone in ((stats.steps, one.steps), (stats.tangent_ratio, one.tangent_ratio),
                           (stats.converged, one.converged)):
            assert np.array_equal(alone, got[i:i + 1]), r_i


def test_singular_row_falls_back_alone():
    # row 0's bordered system is singular (H - lam I = 0 on the tangent
    # space), which makes the stacked solve raise for the whole stack: that
    # row takes the capped step along -g_tan, and every other row gets the
    # direction of its own single-row solve
    rng = np.random.default_rng(5)
    dim, r = 4, 1.0
    z = rng.standard_normal((4, dim))
    z[0] = np.eye(dim)[0]
    z *= r / np.linalg.norm(z, axis=1, keepdims=True)
    g = rng.standard_normal((4, dim))
    g[0] = [2.0, 1.0, 0.0, 0.0]
    a = rng.standard_normal((4, dim, dim))
    h = a @ a.transpose(0, 2, 1) + dim * np.eye(dim)
    h[0] = 2.0 * np.eye(dim)     # lam = g.z / r^2 = 2
    radii = np.full(4, r)
    g_tan = growth._tangent(g, z, radii)
    eta = growth._newton_direction(h, g, z, g_tan, radii)
    np.testing.assert_array_equal(eta[0], [0.0, -1.0, 0.0, 0.0])
    for i in range(1, 4):
        one = growth._newton_direction(h[i:i + 1], g[i:i + 1], z[i:i + 1], g_tan[i:i + 1], radii[i:i + 1])
        np.testing.assert_array_equal(eta[i], one[0])
        assert eta[i] @ g_tan[i] < 0.0


def test_k33_fit_call_counts(corpus_analysis, monkeypatch):
    # dim K = 1: the sweep is one Newton batch from the rest Hessian's
    # softest mode, two rows per radius.  Every evaluation is one pass of
    # the pointwise kernel, which returns gap, gradient and Hessian
    # together: one call for the rest Hessian, then the batch's, one for
    # the starts and one per Newton round that still moves a row.  No
    # energy jet runs, and the sphere minimization is called once.
    calls = Counter()
    for module, name in ((energy, "_pointwise"), (energy, "_edge_energy_jet"),
                         (growth, "min_energy_on_sphere_with_arg")):
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    newton_calls = []
    real_newton = growth.minimize_on_sphere

    def newton(value_grad_hess, starts, r=1.0):
        before = calls["_pointwise"]
        out = real_newton(value_grad_hess, starts, r)
        newton_calls.append(calls["_pointwise"] - before)
        return out

    monkeypatch.setattr(growth, "minimize_on_sphere", newton)
    pf = corpus_analysis["k33"]["pf"]
    fit = fit_growth_order(EnergySpec.for_framework(pf.base, "algebraic"), pf, seed=0)
    assert fit.fitted_s == pytest.approx(6.0, abs=0.5)
    # every radius converges: near the minimizer the gap's change over a
    # Newton step can sit below the kernel's rounding, and such steps are
    # taken without the value test
    assert not any("did not converge" in n for n in fit.notes), fit.notes
    assert 0 < calls["_pointwise"] <= 8, calls
    assert calls["_edge_energy_jet"] == 0, calls
    assert calls["min_energy_on_sphere_with_arg"] == 1, calls
    # one Newton call for the whole grid, whose kernel calls are at least
    # one more than the accepted steps of any radius's minimizing row
    assert len(newton_calls) == 1 and calls["_pointwise"] == 1 + newton_calls[0], (calls, newton_calls)
    assert newton_calls[0] >= 1 + fit.newton_steps.max(), (newton_calls, fit.newton_steps)


def test_fit_records_newton_steps_and_tangent_ratio(corpus_analysis, monkeypatch):
    pf = corpus_analysis["k33"]["pf"]
    spec = EnergySpec.for_framework(pf.base, "harmonic")
    fit = fit_growth_order(spec, pf, seed=0)
    assert fit.newton_steps.shape == fit.tangent_ratio.shape == fit.radii.shape
    assert np.all(fit.newton_steps >= 1) and np.all(fit.tangent_ratio < 1.0)
    assert not any("converge" in n for n in fit.notes)
    # one Newton round cannot settle any radius
    monkeypatch.setattr(growth, "NEWTON_ROUNDS", 1)
    fit = fit_growth_order(spec, pf, seed=0)
    assert any("did not converge" in n for n in fit.notes), fit.notes
