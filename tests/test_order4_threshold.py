"""The order-4 tests' threshold tol_eff = tol (1 + scale) is a property of
the quartic forms: scale = max(||M||_F, ||B||_F), with M the symmetric
4-tensor of mu, is the same in every orthonormal basis of the kernel, and
by Cauchy-Schwarz it bounds |mu| and |B(y^4)| on the whole kernel sphere,
not only at the points a search visits.  The cubic screen's scale, ||T||_F
of the cubic kernel form, is the same in every basis too."""

import dataclasses

import numpy as np
import pytest

from rigidkit import (
    EnergySpec,
    PolynomialTarget,
    fourth_derivative_test,
    kernel_decomposition,
    pin_with_permutation,
    rigidity_matrix,
    second_order_rigidity_test,
)
from rigidkit.critpoint import _assemble_quartic_forms
from oracles import FrameworkEnergyTarget, kernel_terms
from test_quartic_assembly import midpoint_strip

N_BASES = 5


def _orthogonal(rng, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def _strip(m: int, family: str):
    pf, _, _ = pin_with_permutation(midpoint_strip(40, m))
    kd = kernel_decomposition(rigidity_matrix(pf))
    assert kd.dim_K == m
    return pf, kd, EnergySpec.for_framework(pf.base, family)


@pytest.mark.parametrize("family", ["harmonic", "morse"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_second_order_scale_does_not_depend_on_the_kernel_basis(m, family):
    pf, kd, spec = _strip(m, family)
    rep = second_order_rigidity_test(pf, spec, kd)
    rng = np.random.default_rng(m)
    for _ in range(N_BASES):
        turned = dataclasses.replace(kd, K_basis=kd.K_basis @ _orthogonal(rng, m))
        other = second_order_rigidity_test(pf, spec, turned)
        assert other.classification == rep.classification
        assert other.scale == pytest.approx(rep.scale, rel=1e-12, abs=0.0)


@dataclasses.dataclass(frozen=True, eq=False)
class _Rotated:
    """g(z) = f(R z) for an orthogonal R: the same critical point as f, seen
    in turned coordinates, so its Hessian kernel comes in another basis."""

    f: PolynomialTarget
    R: np.ndarray

    @property
    def dim(self) -> int:
        return self.f.dim

    def grad0(self) -> np.ndarray:
        return self.R.T @ self.f.grad0()

    def hessian0(self) -> np.ndarray:
        return self.R.T @ self.f.hessian0() @ self.R

    def gradient_jet_along(self, rows, order: int) -> np.ndarray:
        # grad g(v) = R' grad f(R v) along v(t) = sum_l rows[l-1] t^l
        jets = self.f.gradient_jet_along(np.asarray(rows, dtype=float) @ self.R.T, order)
        return np.einsum("ji,...jk->...ik", self.R, jets)


# x0^2 + y1^4 + y2^4 + 2 y3^4 + 1/2 y1^2 y2^2 + 0.3 x0 y1 y2: a strict minimum
# with a three-dimensional Hessian kernel
_QUARTIC = PolynomialTarget(4, (((2, 0, 0, 0), 1.0), ((0, 4, 0, 0), 1.0), ((0, 0, 4, 0), 1.0),
                                ((0, 0, 0, 4), 2.0), ((0, 2, 2, 0), 0.5), ((1, 1, 1, 0), 0.3)))


def test_fourth_derivative_scale_does_not_depend_on_the_kernel_basis():
    rep = fourth_derivative_test(_QUARTIC)
    assert (rep.classification, rep.nullity) == ("strict-min", 3)
    rng = np.random.default_rng(4)
    for _ in range(N_BASES):
        other = fourth_derivative_test(_Rotated(_QUARTIC, _orthogonal(rng, 4)))
        assert (other.classification, other.nullity) == ("strict-min", 3)
        assert other.scale == pytest.approx(rep.scale, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("family", ["harmonic", "lj"])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_scale_bounds_mu_and_the_quartic_on_the_whole_sphere(m, family):
    pf, kd, spec = _strip(m, family)
    rep = second_order_rigidity_test(pf, spec, kd)
    target = FrameworkEnergyTarget(spec, pf)
    forms = _assemble_quartic_forms(target, kd.Kbar_basis, kd.K_basis, target.hessian0())
    ys = np.random.default_rng(m).standard_normal((4000, m))
    ys /= np.linalg.norm(ys, axis=1)[:, None]
    c, b3 = kernel_terms(forms, ys)
    quartic = np.sum(b3 * ys, axis=1)
    mu = quartic - 0.5 * np.sum(c * np.linalg.solve(forms.Hxx, c.T).T, axis=1)
    # the bound is exact; the slack covers rounding in this other route to mu
    assert rep.scale * (1.0 + 1e-12) >= max(np.max(np.abs(mu)), np.max(np.abs(quartic)))


# x0^2 + y1^3 + 1/2 y1 y2^2 + y1^4 + y2^4: a saddle by its cubic kernel form
# T(y, y, y) = y1^3 + 1/2 y1 y2^2, whose ||T||_F = sqrt(1 + 3 / 36)
_CUBIC = PolynomialTarget(3, (((2, 0, 0), 1.0), ((0, 3, 0), 1.0), ((0, 1, 2), 0.5),
                              ((0, 4, 0), 1.0), ((0, 0, 4), 1.0)))


def test_cubic_screen_scale_does_not_depend_on_the_kernel_basis():
    rep = fourth_derivative_test(_CUBIC)
    assert (rep.classification, rep.resolved_by, rep.nullity) == ("saddle", "cubic", 2)
    assert rep.scale == pytest.approx(np.sqrt(1.0 + 3.0 / 36.0), rel=1e-12, abs=0.0)
    rng = np.random.default_rng(3)
    for _ in range(N_BASES):
        other = fourth_derivative_test(_Rotated(_CUBIC, _orthogonal(rng, 3)))
        assert (other.classification, other.resolved_by, other.nullity) == ("saddle", "cubic", 2)
        assert other.scale == pytest.approx(rep.scale, rel=1e-12, abs=0.0)
