"""Each energy family is written once, as a jet in the squared length m.

energy_value_grad_hess reads phi, phi' and phi''/2 from that jet; here it
is checked against the per-family length derivatives (E, dE/dl, d2E/dl2)
it used to be assembled from, at rest and at a displaced configuration.
The cancellation-free gap is checked against a 50-digit decimal sum, and
its rounding floor along a minimizing flex direction is kept in view.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from rigidkit import (
    FAMILIES,
    EnergySpec,
    Framework,
    energy_gap_and_grad,
    energy_value_grad_hess,
    fourth_derivative_test,
    pin_with_permutation,
)
from rigidkit.critpoint import FrameworkEnergyTarget
from rigidkit.growth import min_energy_on_sphere_with_arg

RTOL = 1e-12


def _reference_derivs012(spec, lengths):
    """(E, dE/dl, d2E/dl2) per edge, written per family in the length l."""
    d = spec.rest_lengths
    if spec.family == "harmonic":
        k = spec.stiffness
        dl = lengths - d
        return 0.5 * k * dl**2, k * dl, k.copy()
    if spec.family == "algebraic":
        k = spec.stiffness
        gap = lengths**2 - d**2
        return 0.5 * k * gap**2, 2.0 * k * lengths * gap, 6.0 * k * lengths**2 - 2.0 * k * d**2
    if spec.family == "lj":
        eps, sig = spec.epsilon, spec.sigma
        u = (sig / lengths) ** 6
        e = 4.0 * eps * (u**2 - u)
        e1 = (24.0 * eps / lengths) * (u - 2.0 * u**2)
        e2 = (24.0 * eps / lengths**2) * (26.0 * u**2 - 7.0 * u)
        return e, e1, e2
    eps_d, a = spec.depth, spec.width
    ex = np.exp(-a * (lengths - d))
    one_m = -np.expm1(-a * (lengths - d))
    e = eps_d * one_m**2
    e1 = 2.0 * eps_d * a * ex * one_m
    e2 = 2.0 * eps_d * a**2 * ex * (2.0 * ex - 1.0)
    return e, e1, e2


def _reference_value_grad_hess(spec, pf, q_free):
    """Value, gradient and Hessian from the length derivatives: per edge
    the gradient E' u and the block E'' u u' + E'/l (I - u u')."""
    pts = pf.embed_config(q_free)
    n, d = pts.shape
    grad = np.zeros((n, d))
    hess = np.zeros((n, d, n, d))
    diffs = np.array([pts[v] - pts[w] for v, w in pf.base.edges])
    lengths = np.linalg.norm(diffs, axis=1)
    e, e1, e2 = _reference_derivs012(spec, lengths)
    for (v, w), diff, l, g1, g2 in zip(pf.base.edges, diffs, lengths, e1, e2):
        u = diff / l
        proj = np.outer(u, u)
        block = g2 * proj + g1 / l * (np.eye(d) - proj)
        grad[v] += g1 * u
        grad[w] -= g1 * u
        hess[v, :, v] += block
        hess[w, :, w] += block
        hess[v, :, w] -= block
        hess[w, :, v] -= block
    free = pf.free_vertex * d + pf.free_axis
    return float(np.sum(e)), grad.reshape(-1)[free], hess.reshape(n * d, n * d)[np.ix_(free, free)]


@pytest.mark.parametrize("family", FAMILIES)
def test_value_grad_hess_matches_length_derivatives(corpus_analysis, family):
    # at rest the value (but for Lennard-Jones) and the gradient vanish, so
    # all three are measured against the Hessian's scale times the longest
    # edge: an energy and a force of a unit-relative displacement
    # a (3, n_free) batch of displaced points is checked row by row too
    rng = np.random.default_rng(11)
    batch_rng = np.random.default_rng(12)
    for name, item in corpus_analysis.items():
        pf = item["pf"]
        spec = EnergySpec.for_framework(pf.base, family)
        longest = float(np.max(pf.base.edge_lengths()))
        step = 0.05 * float(np.min(pf.base.edge_lengths()))
        rest = pf.free_vector()
        points = [rest, rest + step * rng.standard_normal(pf.n_free)]
        got = [energy_value_grad_hess(spec, pf, q) for q in points]
        batch = rest + step * batch_rng.standard_normal((3, pf.n_free))
        points += list(batch)
        got += list(zip(*energy_value_grad_hess(spec, pf, batch)))
        for q, (got_v, got_g, got_h) in zip(points, got):
            want_v, want_g, want_h = _reference_value_grad_hess(spec, pf, q)
            h_scale = np.max(np.abs(want_h))
            assert np.max(np.abs(got_h - want_h)) <= RTOL * h_scale, (name, family)
            g_scale = max(np.max(np.abs(want_g)), h_scale * longest)
            assert np.max(np.abs(got_g - want_g)) <= RTOL * g_scale, (name, family)
            v_scale = max(abs(want_v), h_scale * longest**2)
            assert abs(got_v - want_v) <= RTOL * v_scale, (name, family)


@pytest.mark.parametrize("name", ["k33", "leonardo3", "flipped_prism"])
def test_algebraic_rest_gradient_is_exactly_zero(corpus_analysis, name):
    # m - d^2 cancels at rest; with its constant term taken as
    # (sqrt(m0) - d)(sqrt(m0) + d) the rest gradient is exactly zero, as
    # harmonic's is, so at 1e3 times the coordinates the point is still
    # critical and the verdict is the unit-scale one
    fw = corpus_analysis[name]["framework"]
    verdicts = []
    for scale in (1.0, 1e3):
        pf, _, _ = pin_with_permutation(Framework(fw.dimension, scale * fw.vertices, fw.edges))
        target = FrameworkEnergyTarget(EnergySpec.for_framework(pf.base, "algebraic"), pf)
        assert not np.any(target.grad0()), (name, scale)
        verdicts.append(fourth_derivative_test(target).classification)
    assert verdicts[0] == verdicts[1], (name, verdicts)


def _decimal_gap(spec, pf, delta):
    """E(p + delta) - E(p) summed in 50-digit decimal arithmetic from the
    same float inputs: per edge, l^2 = d^2 + 2 (p_v - p_w).dd + |dd|^2 with
    dd = delta_v - delta_w, exactly as the kernel defines the rest state.
    Every family: Morse through Decimal.exp."""
    pts = pf.base.vertices
    disp = pf.embed_tangent(delta)
    with localcontext() as ctx:
        ctx.prec = 50
        total = Decimal(0)
        for e, (v, w) in enumerate(pf.base.edges):
            base = [Decimal(pts[v, a]) - Decimal(pts[w, a]) for a in range(pf.dimension)]
            dd = [Decimal(disp[v, a]) - Decimal(disp[w, a]) for a in range(pf.dimension)]
            rest = Decimal(spec.rest_lengths[e])
            m_gap = sum(2 * b * x + x * x for b, x in zip(base, dd))
            l = (rest * rest + m_gap).sqrt()
            if spec.family == "harmonic":
                total += Decimal(spec.stiffness[e]) / 2 * (l - rest) ** 2
            elif spec.family == "algebraic":
                total += Decimal(spec.stiffness[e]) / 2 * m_gap**2
            elif spec.family == "morse":
                one_m = 1 - (-Decimal(spec.width[e]) * (l - rest)).exp()
                total += Decimal(spec.depth[e]) * one_m**2
            else:
                eps, sig = Decimal(spec.epsilon[e]), Decimal(spec.sigma[e])

                def lj(x):
                    u = (sig / x) ** 6
                    return 4 * eps * (u * u - u)

                total += lj(l) - lj(rest)
        return float(total)


@pytest.mark.parametrize("family", ["harmonic", "lj"])
def test_gap_matches_decimal_sum(corpus_analysis, family):
    pf = corpus_analysis["k33"]["pf"]
    spec = EnergySpec.for_framework(pf.base, family)
    direction = np.random.default_rng(12).standard_normal(pf.n_free)
    direction /= np.linalg.norm(direction)
    for size in (1e-4, 1e-6):
        delta = size * direction
        got, _ = energy_gap_and_grad(spec, pf, delta)
        want = _decimal_gap(spec, pf, delta)
        assert abs(got - want) <= 1e-13 * abs(want), (family, size, abs(got - want) / abs(want))


def test_lj_gap_is_taken_from_the_rest_length_at_any_sigma(corpus_analysis):
    # with sigma off d 2^(-1/6) the rest length is not the well's minimum;
    # the gap is still E(l) - E(d), not E(l) - E_min
    pf = corpus_analysis["k33"]["pf"]
    rest = EnergySpec.for_framework(pf.base, "lj")
    spec = EnergySpec("lj", rest.rest_lengths, epsilon=1.3, sigma=0.93 * rest.rest_lengths, edges=rest.edges)
    direction = np.random.default_rng(12).standard_normal(pf.n_free)
    direction /= np.linalg.norm(direction)
    for size in (1e-2, 1e-6):
        got, _ = energy_gap_and_grad(spec, pf, size * direction)
        want = _decimal_gap(spec, pf, size * direction)
        assert abs(got - want) <= 1e-13 * abs(want), (size, abs(got - want) / abs(want))


@pytest.mark.xfail(
    strict=True,
    reason="along the flex the kernel's 2 (p_v - p_w).dd cancels against "
           "|dd|^2, and rounding that dot product leaves about 1e-4 relative "
           "at r = 1e-3 on coned_prism; a compensated dot product would lower it",
)
def test_gap_floor_along_the_minimizing_direction(corpus_analysis):
    item = corpus_analysis["coned_prism"]
    pf = item["pf"]
    spec = EnergySpec.for_framework(pf.base, "algebraic")
    r = 1e-3
    _, direction, _ = min_energy_on_sphere_with_arg(spec, pf, r, kd=item["kd"])
    got, _ = energy_gap_and_grad(spec, pf, r * direction)
    want = _decimal_gap(spec, pf, r * direction)
    assert abs(got - want) <= 1e-12 * abs(want), abs(got - want) / abs(want)
