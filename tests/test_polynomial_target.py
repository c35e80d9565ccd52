"""PolynomialTarget differentiates its monomials in gradient_jet_along only:
grad0 and hessian0 are the order-0 and order-1 rows of its gradient jets.
They must agree bit for bit with the monomial sums they replaced
(oracles.grad0_by_monomials and hessian0_by_monomials) on the polynomials
of the other test modules and on seeded random ones of the same kinds, so
every report of the critical-point test stays the same.  Its refusals are
checked here too."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rigidkit import PolynomialTarget
from oracles import grad0_by_monomials, hessian0_by_monomials

TESTS = Path(__file__).parent


def _held(obj):
    """The PolynomialTargets in obj, searched through lists, tuples and
    dicts (a pytest.param is a tuple)."""
    if isinstance(obj, PolynomialTarget):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _held(item)


def _literal_calls(path: Path):
    """Every PolynomialTarget(...) call in a file whose arguments are
    literals, built."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PolynomialTarget":
            try:
                args = [ast.literal_eval(arg) for arg in node.args]
            except ValueError:
                continue
            yield PolynomialTarget(*args)


def _suite_polynomials() -> list[PolynomialTarget]:
    """The polynomials of the other test modules: those their globals hold
    or their tests are parametrized with, and those their code builds from
    literal arguments; each also negated, for negative and -0.0
    coefficients.  Seeded random ones built inside a test are of the kinds
    RANDOM covers."""
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        if path.name == Path(__file__).name:
            continue
        module = importlib.import_module(path.stem)
        for value in vars(module).values():
            found.extend(_held(value))
            for mark in getattr(value, "pytestmark", ()):
                if mark.name == "parametrize":
                    found.extend(_held(mark.args[1]))
        found.extend(_literal_calls(path))
    negated = [PolynomialTarget(t.n_vars, tuple((e, -c) for e, c in t.monomials)) for t in found]
    return found + negated


def _random_polynomial(rng) -> PolynomialTarget:
    """n = 1-4 variables and up to 11 monomials with exponents up to 4,
    among them a constant, a linear, a repeated and a degree-9 monomial at
    random, with normal, integer, +-0.0 and +-1e-300 coefficients."""
    n = int(rng.integers(1, 5))
    exps = [tuple(int(e) for e in rng.integers(0, 5, size=n)) for _ in range(rng.integers(1, 8))]
    extras = [(0,) * n, tuple(np.eye(n, dtype=int)[rng.integers(n)].tolist()), exps[0], (9,) + (0,) * (n - 1)]
    exps += [e for e in extras if rng.random() < 0.5]
    pool = (lambda: float(rng.standard_normal()), lambda: float(rng.integers(-5, 6)),
            lambda: 0.0, lambda: -0.0, lambda: 1e-300, lambda: -1e-300)
    return PolynomialTarget(n, tuple((e, pool[rng.integers(len(pool))]()) for e in exps))


RANDOM = [_random_polynomial(np.random.default_rng(seed)) for seed in range(240)]


def _assert_bit_identical(target):
    g, h = target.grad0(), target.hessian0()
    want_g, want_h = grad0_by_monomials(target), hessian0_by_monomials(target)
    assert np.array_equal(g, want_g) and np.array_equal(np.signbit(g), np.signbit(want_g)), target.monomials
    assert np.array_equal(h, want_h) and np.array_equal(np.signbit(h), np.signbit(want_h)), target.monomials
    assert h.flags.c_contiguous


def test_suite_polynomials_read_the_monomial_sums_bit_for_bit():
    suite = _suite_polynomials()
    assert len(suite) >= 100
    for target in suite:
        _assert_bit_identical(target)


def test_random_polynomials_read_the_monomial_sums_bit_for_bit():
    kinds = Counter()
    for target in RANDOM:
        _assert_bit_identical(target)
        for exps, coef in target.monomials:
            kinds["constant"] += sum(exps) == 0
            kinds["linear"] += sum(exps) == 1
            kinds["mixed"] += sum(e > 0 for e in exps) > 1
            kinds["high-degree"] += sum(exps) >= 9
            kinds["negative"] += coef < 0
            kinds["-0.0"] += coef == 0.0 and np.signbit(coef)
        kinds["repeated"] += len({e for e, _ in target.monomials}) < len(target.monomials)
        kinds["nonzero gradient"] += bool(np.any(target.grad0()))
    assert len(RANDOM) >= 200
    assert min(kinds.values()) >= 20, kinds


# (build, exception type, message): refusals of the polynomial reader that
# the CLI's bad-input table does not reach; the last keeps inf * 0 out of
# the jets grad0 and hessian0 read
_REFUSALS = [
    (lambda: PolynomialTarget(2, (((2,), 1.0),)), ValueError, "bad exponent vector (2,)"),
    (lambda: PolynomialTarget(2, (((2, -1), 1.0),)), ValueError, "bad exponent vector (2, -1)"),
    (lambda: PolynomialTarget(1, (((4,), 1e308),)), ValueError,
     "coefficient 1e+308 times exponent 4 is beyond a float's range"),
]


@pytest.mark.parametrize("build, error, message", _REFUSALS)
def test_polynomial_refusals(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
