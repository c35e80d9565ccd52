"""Each energy family is written twice: as a jet in the squared length m,
for trajectories, and pointwise in the length l (the gap E(l) - E(d),
dE/dl and d2E/dl2), for the pointwise kernel behind energy_gap_grad_hess
and energy_value_grad_hess.

The two are checked against each other per edge, and the kernel's value,
gradient and Hessian against a direct per-family assembly in l and against
the order-2 jet route of tests/oracles.py, at rest and displaced.  The
energy verdicts and their a_min must not move when the jet route supplies
the rest Hessian instead.  The cancellation-free gap is checked against a
50-digit decimal sum, and its rounding floor along a minimizing flex
direction is kept in view.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest

import oracles
import rigidkit.critpoint as critpoint
from rigidkit import (
    FAMILIES,
    EnergySpec,
    Framework,
    NotACriticalPoint,
    energy_value_grad_hess,
    fourth_derivative_test,
    kernel_decomposition,
    order2k_family_test,
    pin_with_permutation,
    rigidity_matrix,
    second_order_rigidity_test,
)
from rigidkit.energy import _gap_and_slope, _taylor_in_m, energy_gap_grad_hess
from rigidkit.growth import min_energy_on_sphere_with_arg
from oracles import (FrameworkEnergyTarget, embed_config, embed_tangent, jet_value_grad_hess,
                     lj_well_offset_by_fractions)
from test_quartic_assembly import midpoint_strip

RTOL = 1e-12
# the kernel against the jet route: both round a handful of operations per
# edge and sum a few edges per entry, so 2^8 units of roundoff, relative to
# each quantity's scale, leaves room for that and for nothing else
KERNEL_RTOL = 2.0**8 * np.finfo(float).eps


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
    pts = embed_config(pf, q_free)
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


@pytest.mark.parametrize("family", FAMILIES)
def test_length_derivatives_match_the_jet_formula(corpus_analysis, family):
    # E' = 2 l phi' and E'' = 2 phi' + 4 l^2 phi'' with phi', phi''/2 from
    # the jet formula on m = l^2, per corpus edge at rest and at l/d in
    # [0.5, 1.5], with the coordinates scaled by 1e-3, 1 and 1e3 (Morse's
    # width scaled inversely, so a d keeps its value); each is compared at
    # rtol 1e-12 to the magnitudes of the terms of its jet expression,
    # E' also to E'' l, the change a one-ulp length error makes
    ratios = np.concatenate([[1.0], np.linspace(0.5, 1.5, 11)])
    for name, item in corpus_analysis.items():
        fw = item["framework"]
        for scale in (1e-3, 1.0, 1e3):
            scaled = Framework(fw.dimension, scale * fw.vertices, fw.edges)
            spec = EnergySpec.for_framework(scaled, family)
            if family == "morse":
                spec = EnergySpec("morse", spec.rest_lengths, depth=1.0, width=1.0 / scale, edges=scaled.edges)
            d = spec.rest_lengths[:, None]
            lengths = d * ratios
            _, slope, curv = _gap_and_slope(spec, lengths, lengths - d)
            curv = np.broadcast_to(curv, lengths.shape)
            taylor = _taylor_in_m(spec, (lengths**2).T, 2).transpose(1, 0, 2)
            dphi, d2phi = taylor[..., 1], 2.0 * taylor[..., 2]
            want_slope = 2.0 * lengths * dphi
            want_curv = 2.0 * dphi + 4.0 * lengths**2 * d2phi
            curv_scale = np.abs(2.0 * dphi) + np.abs(4.0 * lengths**2 * d2phi)
            slope_scale = np.maximum(np.abs(want_slope), curv_scale * lengths)
            assert np.all(np.abs(curv - want_curv) <= RTOL * curv_scale), (name, scale)
            assert np.all(np.abs(slope - want_slope) <= RTOL * slope_scale), (name, scale)


def _points(pf, rng):
    """The framework (None), one displaced point, and a batch of three
    whose middle row is the framework."""
    step = 0.05 * float(np.min(pf.base.edge_lengths()))
    here = pf.free_vector()
    batch = here + step * rng.standard_normal((3, pf.n_free))
    batch[1] = here
    return None, batch[0], batch


def _assert_matches_jet_reference(spec, pf, q, label):
    """energy_value_grad_hess at q against the order-2 jet route at
    KERNEL_RTOL, with the scales of
    test_value_grad_hess_matches_length_derivatives; returns the kernel's
    (value, gradient, Hessian)."""
    longest = float(np.max(pf.base.edge_lengths()))
    got = energy_value_grad_hess(spec, pf, q)
    want = jet_value_grad_hess(spec, pf, q)
    for (got_v, got_g, got_h), (want_v, want_g, want_h) in zip(_rows(got, q), _rows(want, q)):
        h_scale = np.max(np.abs(want_h))
        g_scale = max(np.max(np.abs(want_g)), h_scale * longest)
        v_scale = max(abs(want_v), h_scale * longest**2)
        assert np.max(np.abs(got_h - want_h)) <= KERNEL_RTOL * h_scale, label
        assert np.max(np.abs(got_g - want_g)) <= KERNEL_RTOL * g_scale, label
        assert abs(got_v - want_v) <= KERNEL_RTOL * v_scale, label
    return got


@pytest.mark.parametrize("family", FAMILIES)
def test_value_grad_hess_matches_jet_reference(corpus_analysis, family):
    # single points and a batch, each at rest and displaced, against the
    # order-2 jet route; energy_gap_grad_hess gives the same gradient and
    # Hessian, and the gap E(q) - E(p)
    rng = np.random.default_rng(21)
    for name, item in corpus_analysis.items():
        pf = item["pf"]
        spec = EnergySpec.for_framework(pf.base, family)
        rest = pf.free_vector()
        for q in _points(pf, rng):
            got = _assert_matches_jet_reference(spec, pf, q, (name, family))
            gap, grad, hess = energy_gap_grad_hess(spec, pf, (rest if q is None else q) - rest)
            np.testing.assert_array_equal(grad, got[1])
            np.testing.assert_array_equal(hess, got[2])
            np.testing.assert_array_equal(spec.rest_energy() + gap, got[0])


def _off_rest_specs(pf):
    """Specs the framework is not at rest in, with the edge order bound: LJ
    at sigma = 0.93 d (rest length off the well's minimum), and every
    family with rest lengths 0.9 and 1.1 times the framework's."""
    d = pf.base.edge_lengths()
    edges = pf.base.edges
    yield EnergySpec("lj", d, epsilon=1.3, sigma=0.93 * d, edges=edges)
    for family in FAMILIES:
        base = EnergySpec.for_framework(pf.base, family)
        for scale in (0.9, 1.1):
            fields = {name: getattr(base, name) for name in ("stiffness", "epsilon", "depth", "width")}
            sigma = None if base.sigma is None else scale * base.sigma
            yield EnergySpec(family, scale * d, sigma=sigma, edges=edges, **fields)


def test_value_grad_hess_off_rest_matches_jet_reference(corpus_analysis):
    # a spec whose rest lengths or Lennard-Jones wells differ from the
    # framework's lengths: the value is the full energy and the gradient is
    # nonzero at the framework; single points and a batch, at the framework
    # and displaced, against the jet route
    rng = np.random.default_rng(22)
    for name in ("k33", "coned_prism"):
        pf = corpus_analysis[name]["pf"]
        points = _points(pf, rng)
        for spec in _off_rest_specs(pf):
            for q in points:
                _assert_matches_jet_reference(spec, pf, q, (name, spec.family))
            assert np.max(np.abs(energy_value_grad_hess(spec, pf)[1])) > 0.0, (name, spec.family)


def test_energy_tests_refuse_a_framework_off_rest(corpus_analysis):
    # the rigidity tests need phi'(d^2) = 0 on every edge: off rest they
    # raise instead of reporting on a point that is not critical, at
    # dim K = 1 (k33, with the order-2k test too) and at dim K = 2; specs
    # from for_framework pass in every family, Lennard-Jones included
    item = corpus_analysis["k33"]
    strip, _, _ = pin_with_permutation(midpoint_strip(20, 2))
    for pf, kd, ladder in ((item["pf"], item["kd"], item["report"]),
                           (strip, kernel_decomposition(rigidity_matrix(strip)), None)):
        def runs(spec):
            yield lambda: second_order_rigidity_test(pf, spec, kd)
            yield lambda: critpoint.second_order_rigidity_verdict(pf, spec, kd)
            if ladder is not None:
                yield lambda: order2k_family_test(pf, spec, ladder.witness, ladder.order, kd=kd)

        for spec in _off_rest_specs(pf):
            for run in runs(spec):
                with pytest.raises(NotACriticalPoint, match="is not at rest in the"):
                    run()
        for family in FAMILIES:
            spec = EnergySpec.for_framework(pf.base, family)
            report, verdict, *order2k = [run() for run in runs(spec)]
            # k33 is order 3, so mu vanishes on its kernel; the strip is order 2
            assert verdict[0] == report.classification == ("inconclusive" if ladder else "strict-min"), family
            assert [rep.classification for rep in order2k] == (["strict-min"] if ladder else []), family


def test_lj_rest_energy_is_the_wells_at_the_rest_lengths(corpus_analysis):
    # 4 eps u_d (u_d - 1) per edge: exactly -eps at sigma = d 2^(-1/6)
    pf = corpus_analysis["k33"]["pf"]
    d = pf.base.edge_lengths()
    spec = EnergySpec("lj", d, epsilon=1.3, sigma=d * 2.0 ** (-1.0 / 6.0), edges=pf.base.edges)
    assert spec.rest_energy() == -1.3 * pf.base.n_edges
    off = EnergySpec("lj", d, epsilon=1.3, sigma=0.93 * d, edges=pf.base.edges)
    u_d = 0.93**6
    assert off.rest_energy() == pytest.approx(4.0 * 1.3 * u_d * (u_d - 1.0) * d.size, rel=RTOL)


def test_lj_well_offset_is_the_exact_rational_rounded_once(corpus_analysis):
    # one correctly rounded integer division gives the Fraction value's
    # bits, on the corpus edges and on sigma/d ratios across 60 decades
    for name, item in corpus_analysis.items():
        spec = EnergySpec.for_framework(item["pf"].base, "lj")
        ref = lj_well_offset_by_fractions(spec.sigma, spec.rest_lengths)
        assert np.array_equal(spec._lj_well_offset, ref), name
    rng = np.random.default_rng(11)
    ratio = 10.0 ** rng.uniform(-30.0, 30.0, 400)
    ratio[:4] = (1e-30, 1e30, 2.0 ** (-1.0 / 6.0), 1.0)
    rest = 10.0 ** rng.uniform(-3.0, 3.0, ratio.size)
    spec = EnergySpec("lj", rest, epsilon=1.0, sigma=ratio * rest)
    assert np.array_equal(spec._lj_well_offset, lj_well_offset_by_fractions(spec.sigma, spec.rest_lengths))


def _rows(out, q):
    """The (value, gradient, Hessian) of each point of q."""
    return list(zip(*out)) if np.ndim(q) == 2 else [out]


def _energy_verdicts(corpus_analysis):
    """(case, CritReport) for the order-4, second-order and order-2k tests
    on the corpus and the order-4 and second-order tests on midpoint
    strips (dim K = 2 and 3), in all four families."""
    cases = [(name, item["pf"], item["kd"], item["report"]) for name, item in corpus_analysis.items()]
    for n_vertices, m in ((10, 2), (12, 3)):
        pf, _, _ = pin_with_permutation(midpoint_strip(n_vertices, m))
        cases.append((f"strip{n_vertices}-{m}", pf, kernel_decomposition(rigidity_matrix(pf)), None))
    for name, pf, kd, ladder in cases:
        for family in FAMILIES:
            spec = EnergySpec.for_framework(pf.base, family)
            yield (name, family, "order4"), fourth_derivative_test(FrameworkEnergyTarget(spec, pf))
            yield (name, family, "second-order"), second_order_rigidity_test(pf, spec, kd=kd)
            if ladder is not None:
                yield (name, family, "order2k"), order2k_family_test(pf, spec, ladder.witness, ladder.order, kd=kd)


def test_energy_verdicts_hold_on_the_jet_reference(corpus_analysis, monkeypatch):
    # the same classification, and a_min within a thousandth of the
    # decision threshold tol_eff = DEFAULT_CRIT_TOL (1 + scale), when the
    # jet route supplies the energy's rest gradient and Hessian, to the
    # order-2k test and to the framework target of the order-4 one
    got = dict(_energy_verdicts(corpus_analysis))
    monkeypatch.setattr(critpoint, "energy_value_grad_hess", jet_value_grad_hess)
    monkeypatch.setattr(oracles, "energy_value_grad_hess", jet_value_grad_hess)
    want = dict(_energy_verdicts(corpus_analysis))
    assert got.keys() == want.keys()
    for case, rep in got.items():
        ref = want[case]
        assert rep.classification == ref.classification, case
        tol_eff = critpoint.DEFAULT_CRIT_TOL * (1.0 + ref.scale)
        assert abs(rep.a_min - ref.a_min) <= 1e-3 * tol_eff, (case, rep.a_min, ref.a_min)


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
    disp = embed_tangent(pf, delta)
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
        got, _ = energy_gap_grad_hess(spec, pf, delta)[:2]
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
        got, _ = energy_gap_grad_hess(spec, pf, size * direction)[:2]
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
    direction = min_energy_on_sphere_with_arg(spec, pf, r)[1][0]
    got, _ = energy_gap_grad_hess(spec, pf, r * direction)[:2]
    want = _decimal_gap(spec, pf, r * direction)
    assert abs(got - want) <= 1e-12 * abs(want), abs(got - want) / abs(want)
