import math

import numpy as np
import pytest

from rigidkit import Jet
from rigidkit.jets import MAX_ORDER, series_compose
from oracles import compose_by_jets, compose_series, exp_twin, jet_from_poly, reciprocal_twin, sqrt_twin

ORDER = 14


def random_jet(rng, order=ORDER, nonzero_const=False):
    c = rng.standard_normal(order + 1)
    if nonzero_const:
        c[0] = np.sign(c[0] or 1.0) * (0.5 + abs(c[0]))
    return Jet(c)


def test_ring_identities():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = (random_jet(rng) for _ in range(3))
        lhs = (a + b) * c
        rhs = a * c + b * c
        assert np.allclose(lhs.c, rhs.c, atol=1e-12)
        assert np.allclose((a - a).c, 0.0)
        assert np.allclose((2.5 * a).c, (a * 2.5).c)


def test_power_matches_repeated_multiplication():
    rng = np.random.default_rng(1)
    a = random_jet(rng)
    prod = Jet.constant(1.0, ORDER)
    for n in range(5):
        assert np.allclose(a.power(n).c, prod.c, atol=1e-10 * (1 + np.max(np.abs(prod.c))))
        prod = prod * a


def test_sqrt_squares_back():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_jet(rng, nonzero_const=True)
        g = g * g + 1.0   # strictly positive constant term
        s = g.sqrt()
        assert np.allclose((s * s).c, g.c, atol=1e-10 * np.max(np.abs(g.c)))


def test_reciprocal_inverts():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_jet(rng, nonzero_const=True)
        r = g.reciprocal()
        one = Jet.constant(1.0, ORDER)
        assert np.allclose((g * r).c, one.c, atol=1e-9)
        assert np.allclose(g.power(-2).c, (r * r).c, atol=1e-8 * np.max(np.abs((r * r).c)))


def test_exp_of_t_is_exponential_series():
    t = jet_from_poly(0.0, [1.0], ORDER)
    e = t.exp()
    expected = np.array([1.0 / math.factorial(k) for k in range(ORDER + 1)])
    assert np.allclose(e.c, expected, atol=1e-15)


def test_exp_homomorphism():
    rng = np.random.default_rng(4)
    a, b = random_jet(rng), random_jet(rng)
    lhs = (a + b).exp()
    rhs = a.exp() * b.exp()
    assert np.allclose(lhs.c, rhs.c, rtol=1e-10, atol=1e-10 * np.max(np.abs(lhs.c)))


def test_compose_series_on_sin():
    # f = sin around g(0), g a random polynomial
    rng = np.random.default_rng(5)
    g = jet_from_poly(0.7, rng.standard_normal(4), ORDER)
    derivs = []
    for morder in range(ORDER + 1):
        derivs.append([math.sin, math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x)][morder % 4](g.c[0]))
    comp = compose_series(derivs, g)
    # numerically fit sin(g(t)) on a small interval; the fit itself is only
    # good to ~1e-7 in the low coefficients, which is enough to catch a
    # composition bug
    ts = np.linspace(-0.05, 0.05, 31)
    vals = np.sin(np.polyval(g.c[::-1], ts))
    fit = np.polyfit(ts, vals, 10)[::-1]
    assert np.allclose(comp.c[:6], fit[:6], atol=1e-6)


def test_order_cap_enforced():
    with pytest.raises(ValueError):
        Jet(np.zeros(MAX_ORDER + 2))


def test_mixed_order_arithmetic_rejected():
    with pytest.raises(ValueError):
        Jet([1.0, 2.0]) + Jet([1.0, 2.0, 3.0])


def test_sqrt_requires_positive_constant():
    with pytest.raises(ValueError):
        Jet([0.0, 1.0]).sqrt()
    with pytest.raises(ZeroDivisionError):
        Jet([0.0, 1.0]).reciprocal()


# (build, exception type, message): refusals of the jet type
_REFUSALS = [
    (lambda: Jet(np.zeros((2, 0))), ValueError, "jet coefficients need a last axis of length >= 1"),
    (lambda: Jet(1.0), ValueError, "jet coefficients need a last axis of length >= 1"),
    (lambda: Jet(np.zeros((2, 3))).sum(axis=1), ValueError, "a jet sums over its leading axes only"),
    (lambda: Jet(np.zeros(3)).sum(), ValueError, "a jet sums over its leading axes only"),
]


@pytest.mark.parametrize("build, error, message", _REFUSALS)
def test_jet_refusals(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_magnitude_tracks_cancellation():
    # (1 + t)(1 - t) = 1 - t^2: the t coefficient cancels exactly, and the
    # magnitude channel keeps the cancelled mass
    a = jet_from_poly(1.0, [1.0], 4)
    b = jet_from_poly(1.0, [-1.0], 4)
    prod = a * b
    assert prod.c[1] == 0.0
    assert prod.mag[1] == 2.0
    rng = np.random.default_rng(6)
    for _ in range(10):
        x, y = random_jet(rng), random_jet(rng)
        out = x * y + x.exp()
        assert np.all(out.mag + 1e-12 >= np.abs(out.c))


def test_compose_series_batch_matches_per_row_calls():
    # per-row derivative arrays along the last axis, composed with one
    # (E, M+1) jet, give row by row the coefficients and magnitudes of one
    # call per row.  Equal up to rounding, not bit for bit: the Cauchy
    # product is a matmul whose BLAS summation order can change with the
    # operands' memory alignment, so the same row taken alone may round
    # differently.
    rng = np.random.default_rng(7)
    rows, order = 9, 6
    for n_derivs in (1, 4, order + 1, order + 3):
        derivs = rng.standard_normal((rows, n_derivs))
        g = Jet(rng.standard_normal((rows, order + 1)))
        batch = compose_series(derivs, g)
        assert batch.c.shape == batch.mag.shape == (rows, order + 1)
        for i in range(rows):
            single = compose_series(derivs[i], Jet(g.c[i], g.mag[i]))
            assert np.all(np.abs(batch.c[i] - single.c) <= 1e-14 * single.mag), (n_derivs, i)
            assert np.allclose(batch.mag[i], single.mag, rtol=1e-14, atol=0.0), (n_derivs, i)


def _assert_composed_as_arrays(derivs, g: Jet):
    # the Jet is the array recurrence run twice, on (f, g.c) and on
    # (|f|, g.mag), and it is bit for bit the Horner scheme on Jet objects
    out = compose_series(derivs, g)
    assert np.array_equal(out.c, series_compose(derivs, g.c))
    assert np.array_equal(out.mag, series_compose(np.abs(derivs), g.mag))
    ref = compose_by_jets(derivs, g)
    assert np.array_equal(out.c, ref.c) and np.array_equal(out.mag, ref.mag)


def test_compose_series_is_the_array_recurrence():
    rng = np.random.default_rng(7)
    rows, order = 9, 6
    for n_derivs in (1, 4, order + 1, order + 3):
        derivs = rng.standard_normal((rows, n_derivs))
        g = Jet(rng.standard_normal((rows, order + 1)))
        _assert_composed_as_arrays(derivs, g)
        for i in range(rows):
            _assert_composed_as_arrays(derivs[i], Jet(g.c[i], g.mag[i]))
    g = jet_from_poly(0.7, rng.standard_normal(4), ORDER)
    sin_derivs = np.array([(math.sin, math.cos)[k % 2](g.c[0]) * (-1.0) ** (k // 2) for k in range(ORDER + 1)])
    _assert_composed_as_arrays(sin_derivs, g)


def test_composition_magnitudes_are_the_twin_recurrences():
    # the magnitudes of 1/g, sqrt(g) and exp(g) come from the value
    # recurrence run on sign-adjusted magnitudes; bit for bit the separate
    # twin loops, on batched rows with constant terms of both signs for the
    # reciprocal and with magnitudes handed in as non-contiguous views
    rng = np.random.default_rng(12)
    for shape in ((1,), (7,), (3, 5)):
        for order in (0, 1, 2, 5, ORDER):
            c = rng.standard_normal(shape + (order + 1,))
            wide = np.abs(rng.standard_normal(shape + (2 * order + 2,))) + np.abs(c).repeat(2, axis=-1)
            mag = wide[..., ::2]
            assert order == 0 or not mag.flags.c_contiguous
            pos = c.copy()
            pos[..., 0] = np.abs(pos[..., 0]) + 0.5
            for g, method, twin in ((c, Jet.reciprocal, reciprocal_twin), (pos, Jet.sqrt, sqrt_twin),
                                    (c, Jet.exp, exp_twin)):
                got = method(Jet(g, mag)).mag
                want = twin(g, mag)
                assert got.tobytes() == want.tobytes(), (shape, order, method.__name__)
