"""Truncated univariate Taylor series (jets) at t = 0.

A Jet holds coefficients c[..., 0..M] of a series truncated at order M.
Leading axes batch independent series of the same order: the energy code
keeps the squared-length jets of all edges of a framework as one Jet with
an (E, M+1) coefficient array, and every operation then acts on all rows at
once.  A scalar or an array over the leading axes acts per series.  Ring
operations and the composition helpers sqrt, exp, reciprocal and integer
powers are exact on polynomial inputs up to the truncation order (up to
rounding), which is what makes high-order differentiation of energies along
polynomial trajectories exact.

The recurrences themselves (Cauchy product, composition, reciprocal,
sqrt, exp) are plain functions on coefficient arrays, vectorized over the
leading axes; Jet's methods call them, so each is written once.
Composition, series_compose, is Horner's scheme on the shifted series, one
Cauchy product per derivative; (E, m+1) derivatives compose one function
per row.  The energy gradient calls it on plain coefficient arrays, since it
needs no magnitudes.

Every jet also carries a running magnitude vector: the same recurrences
applied to absolute values.  For the ring operations these are the
operations on the magnitudes themselves.  For reciprocal, sqrt and exp the
value recurrence runs once more, in the same call, on the magnitudes with
the signs set so that every term of the recurrence adds in absolute value:
1/g on (|g0|, -mag_1, -mag_2, ...), sqrt(g) on (g0, -mag_1, ...) with the
tail of the result negated, and exp(g) on (g0, mag_1, ...).  The ratio
mag[i] / |c[i]| estimates how much cancellation went into coefficient i,
i.e. how many digits of it can be trusted; it is reported, not asserted
against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_ORDER = 64


# ---------------------------------------------------------------------------
# recurrences on coefficient arrays (last axis = Taylor order)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MAX_ORDER + 1)
def _lag_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and 0/1 mask that turn a coefficient row b into the upper
    triangular Toeplitz matrix T[j, k] = b[k - j] (0 for k < j)."""
    lag = np.arange(n)[None, :] - np.arange(n)[:, None]
    idx, mask = np.maximum(lag, 0), (lag >= 0).astype(float)
    idx.setflags(write=False)
    mask.setflags(write=False)
    return idx, mask


def series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of two coefficient arrays, truncated at their shared
    order; leading axes broadcast.  One batched matmul; its summation order
    is the BLAS kernel's, which can depend on the operands' memory layout,
    so a row may differ from the same product taken alone by rounding."""
    idx, mask = _lag_gather(a.shape[-1])
    return (a[..., None, :] @ (b[..., idx] * mask))[..., 0, :]


def series_compose(f_derivs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coefficients of f(g(t)) given derivatives f(g0), ..., f^(m)(g0) along
    the last axis of f_derivs, whose leading axes broadcast against g's.
    Evaluates the Taylor polynomial of f around g0 at the shifted series
    g - g0 by Horner's scheme, one series_mul per derivative."""
    f_derivs = np.asarray(f_derivs, dtype=float)
    shifted = np.array(g, dtype=float)
    shifted[..., 0] = 0.0
    coeffs = f_derivs / np.cumprod(np.concatenate(([1.0], np.arange(1.0, f_derivs.shape[-1]))))
    h = np.zeros(coeffs.shape[:-1] + (g.shape[-1],))
    h[..., 0] = coeffs[..., -1]
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        h = series_mul(h, shifted)
        h[..., 0] += coeffs[..., k]
    return h


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def series_reciprocal(g: np.ndarray) -> np.ndarray:
    """Coefficients of 1/g."""
    g0 = g[..., 0]
    if np.any(g0 == 0.0):
        raise ZeroDivisionError("jet reciprocal with zero constant term")
    h = np.zeros(g.shape)
    h[..., 0] = 1.0 / g0
    for k in range(1, g.shape[-1]):
        h[..., k] = -_dot(g[..., 1 : k + 1], h[..., k - 1 :: -1]) / g0
    return h


def series_sqrt(g: np.ndarray) -> np.ndarray:
    """Coefficients of sqrt(g)."""
    if np.any(g[..., 0] <= 0.0):
        raise ValueError("jet sqrt needs a positive constant term")
    h = np.zeros(g.shape)
    h0 = np.sqrt(g[..., 0])
    h[..., 0] = h0
    for k in range(1, g.shape[-1]):
        h[..., k] = (g[..., k] - _dot(h[..., 1:k], h[..., k - 1 : 0 : -1])) / (2.0 * h0)
    return h


def series_exp(g: np.ndarray) -> np.ndarray:
    """Coefficients of exp(g)."""
    h = np.zeros(g.shape)
    h[..., 0] = np.exp(g[..., 0])
    ks = np.arange(g.shape[-1], dtype=float)
    for k in range(1, g.shape[-1]):
        h[..., k] = _dot(ks[1 : k + 1] * g[..., 1 : k + 1], h[..., k - 1 :: -1]) / k
    return h


# ---------------------------------------------------------------------------
# the jet type
# ---------------------------------------------------------------------------

class Jet:
    """Immutable truncated Taylor series sum_i c[..., i] t^i, i <= order."""

    __slots__ = ("c", "mag")
    # make `ndarray * jet` and friends defer to the jet's reflected operators
    __array_ufunc__ = None

    def __init__(self, coeffs, mag=None):
        c = np.array(coeffs, dtype=float)
        if c.ndim < 1 or c.shape[-1] < 1:
            raise ValueError("jet coefficients need a last axis of length >= 1")
        if c.shape[-1] - 1 > MAX_ORDER:
            raise ValueError(f"jet order {c.shape[-1] - 1} exceeds the cap {MAX_ORDER}")
        c.setflags(write=False)
        self.c = c
        m = np.abs(c) if mag is None else np.array(mag, dtype=float)
        m.setflags(write=False)
        self.mag = m

    @property
    def order(self) -> int:
        return self.c.shape[-1] - 1

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        """Constant series; an array value gives one series per entry."""
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (order + 1,))
        c[..., 0] = value
        return cls(c)

    def condition(self) -> np.ndarray:
        """Per-coefficient cancellation estimate mag[i] / |c[i]| (inf where
        the coefficient is an exact zero amid nonzero magnitude)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(self.mag == 0.0, 1.0, self.mag / np.abs(self.c))
        return out

    def sum(self, axis: int = 0) -> "Jet":
        """Sum of the series along a leading (batch) axis."""
        if not 0 <= axis < self.c.ndim - 1:
            raise ValueError("a jet sums over its leading axes only")
        return Jet(np.sum(self.c, axis=axis), np.sum(self.mag, axis=axis))

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet orders differ")
            return other
        return Jet.constant(other, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.c + o.c, self.mag + o.mag)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c, self.mag)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            s = np.asarray(other, dtype=float)[..., None]
            return Jet(self.c * s, self.mag * np.abs(s))
        o = self._coerce(other)
        return Jet(series_mul(self.c, o.c), series_mul(self.mag, o.mag))

    __rmul__ = __mul__

    def power(self, n: int) -> "Jet":
        if n < 0:
            return self.reciprocal().power(-n)
        out = Jet.constant(1.0, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    __pow__ = power

    # -- composition helpers ------------------------------------------------

    def reciprocal(self) -> "Jet":
        twin = -self.mag
        twin[..., 0] = np.abs(self.c[..., 0])
        return Jet(*series_reciprocal(np.stack([self.c, twin])))

    def sqrt(self) -> "Jet":
        twin = -self.mag
        twin[..., 0] = self.c[..., 0]
        h, hm = series_sqrt(np.stack([self.c, twin]))
        hm[..., 1:] *= -1.0
        return Jet(h, hm)

    def exp(self) -> "Jet":
        twin = self.mag.copy()
        twin[..., 0] = self.c[..., 0]
        return Jet(*series_exp(np.stack([self.c, twin])))

    def __repr__(self):
        return f"Jet({self.c.tolist()})"

