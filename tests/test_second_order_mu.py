"""second_order_rigidity_test evaluates mu(y) = B(y^4) - 1/2 c(y)' Hxx^-1 c(y)
through the m^2 x m^2 form G = C_flat' Hxx^-1 C_flat; the reported minimum
and its K-bar part must agree with the explicit-inverse formula."""

import numpy as np
import pytest

from rigidkit import (
    FAMILIES,
    EnergySpec,
    Framework,
    FrameworkEnergyTarget,
    kernel_decomposition,
    pin_with_permutation,
    rigidity_matrix,
    second_order_rigidity_test,
)
from rigidkit.critpoint import _assemble_quartic_forms
from oracles import kernel_terms


def _triangle_with_two_midpoints():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.7], [1.0, 0.0], [1.5, 0.85]])
    return Framework(2, pts, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4)])


def _collinear_chain():
    return Framework(2, np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]]),
                     [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.mark.parametrize("build", [_triangle_with_two_midpoints, _collinear_chain])
@pytest.mark.parametrize("family", FAMILIES)
def test_mu_minimum_matches_explicit_inverse(build, family):
    pf, _, _ = pin_with_permutation(build())
    kd = kernel_decomposition(rigidity_matrix(pf))
    assert kd.dim_K == 2
    spec = EnergySpec.for_framework(pf.base, family)
    rep = second_order_rigidity_test(pf, spec, kd)
    assert rep.classification == "strict-min"

    target = FrameworkEnergyTarget(spec, pf)
    X, Y = kd.Kbar_basis, kd.K_basis
    forms = _assemble_quartic_forms(target, X, Y, target.hessian0())
    # the reported velocity is Y y / sqrt(1 + |x|^2) with |y| = 1
    vel_norm = np.linalg.norm(rep.arg_min_velocity)
    y = Y.T @ rep.arg_min_velocity / vel_norm
    c, b3 = kernel_terms(forms, y[None, :])
    x = -np.linalg.inv(forms.Hxx) @ c[0]
    mu = float(b3[0] @ y) - 0.5 * float(c[0] @ (np.linalg.inv(forms.Hxx) @ c[0]))
    assert rep.a_min == pytest.approx(mu, rel=1e-12)
    np.testing.assert_allclose(X.T @ rep.arg_min_curvature / vel_norm, x, rtol=1e-10, atol=1e-12)
