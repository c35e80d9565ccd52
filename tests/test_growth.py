import warnings

import numpy as np
import pytest

import rigidkit.energy as energy
import rigidkit.growth as growth
from rigidkit import (
    DegenerateFit,
    EnergySpec,
    Framework,
    PolyTrajectory,
    ZeroLengthEdge,
    energy_value_grad_hess,
    fit_growth_order,
    kernel_decomposition,
    pin,
    rigidity_matrix,
)
from rigidkit.growth import min_energy_on_sphere_with_arg
from rigidkit.energy import energy_gap_grad_hess
from oracles import displacement
from test_quartic_assembly import midpoint_strip


def test_triangle_quadratic_model(triangle, triangle_pinned):
    # first-order rigid: m(r) ~ lambda_min r^2 / 2 for small r
    spec = EnergySpec.for_framework(triangle, "harmonic")
    _, _, hess = energy_value_grad_hess(spec, triangle_pinned)
    lam_min = float(np.linalg.eigvalsh(hess)[0])
    for r in (1e-3, 1e-2):
        m = min_energy_on_sphere_with_arg(spec, triangle_pinned, r)[0][0]
        assert m == pytest.approx(0.5 * lam_min * r**2, rel=0.1)


def test_square_mechanism_keeps_energy_zero(square, square_pinned):
    spec = EnergySpec.for_framework(square, "harmonic")
    for r in np.geomspace(1e-3, 1e-1, 5):
        m = min_energy_on_sphere_with_arg(spec, square_pinned, r)[0][0]
        assert m < 1e-14


def test_triangle_growth_fit(triangle, triangle_pinned):
    spec = EnergySpec.for_framework(triangle, "harmonic")
    fit = fit_growth_order(spec, triangle_pinned, seed=0)
    assert fit.fitted_s == pytest.approx(2.0, abs=0.2)
    assert fit.nu_hat == pytest.approx(1.0, abs=0.1)
    assert fit.r2 > 0.999
    assert fit.monotone


def test_square_fit_degenerates(square):
    # the mechanism's m(r) is rounding noise, 1e-36 to 1e-67 at unit scale
    # and not exactly 0; the relative floor u^2 lambda_max r_max^2 catches it
    # whatever the unit of length
    for scale in (1e-3, 1.0, 1e3):
        fw = Framework(2, square.vertices * scale, square.edges)
        pf, _ = pin(fw)
        for family in ("harmonic", "algebraic", "morse"):
            spec = EnergySpec.for_framework(fw, family)
            with pytest.raises(DegenerateFit):
                fit_growth_order(spec, pf, r_min=1e-3 * scale, r_max=1e-1 * scale, n_radii=4, seed=0)


def test_seedless_fit_at_dim_k_at_most_one(corpus_analysis, triangle, triangle_pinned, monkeypatch):
    # dim K = 1 (k33) and dim K = 0 (the triangle) start from the rest
    # Hessian's softest mode and draw no random numbers
    def no_rng(*args, **kwargs):
        raise AssertionError("the fit drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    pf = corpus_analysis["k33"]["pf"]
    fit = fit_growth_order(EnergySpec.for_framework(pf.base, "harmonic"), pf)
    assert fit.fitted_s == pytest.approx(6.0, abs=0.5)
    fit = fit_growth_order(EnergySpec.for_framework(triangle, "harmonic"), triangle_pinned)
    assert fit.fitted_s == pytest.approx(2.0, abs=0.2)


def _pentagon():
    angles = np.linspace(0.0, 2.0 * np.pi, 6)[:-1]
    return Framework(2, np.c_[np.cos(angles), np.sin(angles)], [(i, (i + 1) % 5) for i in range(5)])


@pytest.mark.parametrize("make", [_pentagon, lambda: midpoint_strip(8, 2)], ids=["pentagon", "midpoint_strip"])
def test_fit_refuses_dim_k_above_one(make, monkeypatch):
    # the pentagon flexes two ways and the midpoint strip is order 2, both
    # at dim K = 2: the fit refuses before any energy evaluation and names
    # the order-4 test, the check at dim K > 1
    def no_kernel(*args, **kwargs):
        raise AssertionError("the energy kernel ran")

    fw = make()
    pf, _ = pin(fw)
    assert kernel_decomposition(rigidity_matrix(pf)).dim_K == 2
    monkeypatch.setattr(energy, "_pointwise", no_kernel)
    with pytest.raises(DegenerateFit, match=r"dim K = 2: the order-4 test \(rigidkit critpoint\)"):
        fit_growth_order(EnergySpec.for_framework(fw, "harmonic"), pf, n_radii=4, seed=0)


def test_floor_note_is_independent_of_the_unit_of_length(corpus_analysis):
    # the note compares m(r) with lambda_max r^2, not with a fixed 1e-24:
    # k33 (s = 6) never gets it, asym_flipped_prism (s = 12) always does
    for name, noted in (("k33", False), ("asym_flipped_prism", True)):
        base = corpus_analysis[name]["pf"].base
        for scale in (1e-3, 1.0, 1e3):
            fw = Framework(base.dimension, base.vertices * scale, base.edges)
            pf, _ = pin(fw)
            fit = fit_growth_order(
                EnergySpec.for_framework(fw, "harmonic"), pf, r_min=1e-3 * scale, r_max=1e-1 * scale
            )
            assert any("floating-point floor" in n for n in fit.notes) == noted, (name, scale)


def test_leonardo3_fits_with_its_reliability_note(corpus_analysis):
    # s = 16 is past the double-precision limit, but m(r_max) is 2e-16 or
    # more of lambda_max r_max^2, far above the degeneracy floor
    pf = corpus_analysis["leonardo3"]["pf"]
    for family in ("harmonic", "algebraic", "morse"):
        fit = fit_growth_order(EnergySpec.for_framework(pf.base, family), pf)
        assert fit.fitted_s > growth.SLOPE_RELIABLE_LIMIT, family
        assert any("reliability" in n for n in fit.notes), (family, fit.notes)


@pytest.mark.parametrize("kwargs", [
    {"n_radii": 0}, {"n_radii": 1}, {"r_max": np.inf}, {"r_min": np.nan}, {"r_min": -np.inf},
    {"r_min": 1e-1, "r_max": 1e-3},
])
def test_fit_rejects_a_radius_grid_that_fits_no_slope(triangle, triangle_pinned, kwargs):
    # fewer than two radii fit no line, and a non-finite radius would reach
    # np.geomspace; each is refused before any numerics, with no warning
    spec = EnergySpec.for_framework(triangle, "harmonic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="radii"):
            fit_growth_order(spec, triangle_pinned, **kwargs)


def test_radius_beyond_safe_raises(triangle, triangle_pinned):
    spec = EnergySpec.for_framework(triangle, "harmonic")
    with pytest.raises(ZeroLengthEdge):
        min_energy_on_sphere_with_arg(spec, triangle_pinned, 0.9 * float(np.min(spec.rest_lengths)))


def test_edgeless_sphere_minimum_is_a_degenerate_fit():
    # as in fit_growth_order: an energy with no edges is zero at every radius
    pf, _ = pin(Framework(2, np.array([[0.0, 0.0], [1.0, 0.5]]), []))
    spec = EnergySpec.for_framework(pf.base, "harmonic")
    with pytest.raises(DegenerateFit, match="no edges"):
        min_energy_on_sphere_with_arg(spec, pf, 0.01)


@pytest.mark.parametrize("r", [np.nan, np.inf, 0.0, -1.0])
def test_radius_not_finite_and_positive_raises(triangle, triangle_pinned, r):
    # a NaN radius would otherwise reach the kernel and give a NaN minimum
    spec = EnergySpec.for_framework(triangle, "harmonic")
    with pytest.raises(ValueError, match="radius"):
        min_energy_on_sphere_with_arg(spec, triangle_pinned, r)


def test_fit_past_the_safe_radius_raises_before_any_kernel_call(triangle, triangle_pinned, monkeypatch):
    # every radius is checked before the rest Hessian's kernel call
    def no_kernel(*args, **kwargs):
        raise AssertionError("the energy kernel ran")

    monkeypatch.setattr(energy, "_pointwise", no_kernel)
    spec = EnergySpec.for_framework(triangle, "harmonic")
    safe = 0.5 * float(np.min(spec.rest_lengths))
    for r_max in (safe, 2.0 * safe):
        with pytest.raises(ZeroLengthEdge):
            fit_growth_order(spec, triangle_pinned, r_min=1e-3, r_max=r_max)


def test_cross_module_order_agreement(corpus_analysis):
    # nu from the sphere fit matches the ladder order within 0.5 for the
    # moderate orders (the s = 16 case is precision-limited by design)
    for name in ("asym_flipped_prism", "coned_prism"):
        item = corpus_analysis[name]
        spec = EnergySpec.for_framework(item["pf"].base, "harmonic")
        fit = fit_growth_order(spec, item["pf"], seed=0)
        assert fit.nu_hat == pytest.approx(item["report"].order, abs=0.5), name


def test_witness_bound_sometimes_slow_growth(corpus_analysis):
    # along the Order(k) witness, E(p(t)) - E(p) <= c |p(t) - p|^(2k):
    # the normalized ratio must stay bounded as t shrinks
    for name, item in corpus_analysis.items():
        rep = item["report"]
        k = rep.order
        pf = item["pf"]
        spec = EnergySpec.for_framework(pf.base, "harmonic")
        ts = (3e-2, 1e-2) if k >= 8 else (1e-2, 1e-3)
        ratios = []
        for t in ts:
            delta = displacement(rep.witness, t)
            gap, _ = energy_gap_grad_hess(spec, pf, delta)[:2]
            ratios.append(gap / np.linalg.norm(delta) ** (2 * k))
        assert ratios[1] < 2.0 * ratios[0] + 1e-12, (name, ratios)


def test_reparameterized_flex_same_growth_exponent(square, square_pinned):
    # E along p' t and along p' t^2 fit the same exponent in |p(t) - p|
    kd = kernel_decomposition(rigidity_matrix(square_pinned))
    p1 = kd.K_basis[:, 0]
    spec = EnergySpec.for_framework(square, "harmonic")
    slopes = []
    for rows in (p1[None, :], np.vstack([np.zeros_like(p1), p1])):
        traj = PolyTrajectory(rows)
        ts = np.geomspace(1e-3, 1e-2, 8)
        gaps, dists = [], []
        for t in ts:
            delta = displacement(traj, t)
            gap, _ = energy_gap_grad_hess(spec, square_pinned, delta)[:2]
            gaps.append(gap)
            dists.append(np.linalg.norm(delta))
        slope = np.polyfit(np.log(dists), np.log(gaps), 1)[0]
        slopes.append(slope)
    assert slopes[0] == pytest.approx(4.0, abs=0.05)
    assert slopes[1] == pytest.approx(4.0, abs=0.05)


def test_fit_reports_high_slope_note(corpus_analysis):
    item = corpus_analysis["half_flat_prism"]
    spec = EnergySpec.for_framework(item["pf"].base, "harmonic")
    fit = fit_growth_order(spec, item["pf"], seed=0)
    assert fit.fitted_s == pytest.approx(8.0, abs=0.5)
    # s = 8 is still within the documented reliability limit: no note
    assert all("reliability" not in n for n in fit.notes)


def test_half_flat_family_agreement(corpus_analysis):
    # the fitted growth order is energy-family independent
    item = corpus_analysis["half_flat_prism"]
    slopes = {}
    for fam in ("harmonic", "algebraic", "morse"):
        spec = EnergySpec.for_framework(item["pf"].base, fam)
        slopes[fam] = fit_growth_order(spec, item["pf"], seed=0).fitted_s
    vals = list(slopes.values())
    assert max(vals) - min(vals) < 0.5, slopes
    assert all(abs(s - 8.0) <= 0.5 for s in vals), slopes
