"""rigidkit: rigidity orders of bar-and-joint frameworks.

Decides and quantifies the rigidity of a framework (a graph with a point
configuration and rigid bars) by computing its rigidity order: the linear
flex-ladder algorithm when the nontrivial first-order flex space is
1-dimensional, an energy-based 4th-derivative test otherwise, with
cross-validation against empirical energy-growth probing over several
stiff-bar energy families.
"""

from .corpus import CORPUS_NAMES, EXPECTED_ORDERS, load_corpus
from .critpoint import (
    CritReport,
    FrameworkEnergyTarget,
    PolynomialTarget,
    fourth_derivative_test,
    order2k_family_test,
    polynomial_from_monomial_list,
    second_order_rigidity_test,
)
from .energy import (
    FAMILIES,
    EnergySpec,
    energy_along_trajectory,
    energy_gap_and_grad,
    energy_value_grad_hess,
    gradient_along_trajectory,
)
from .errors import (
    DegenerateFit,
    DegenerateLeadingVertices,
    DimKNotOne,
    FrameworkValidationError,
    NotACriticalPoint,
    RigidkitError,
    ZeroLengthEdge,
)
from .framework import (
    Framework,
    Isometry,
    PinnedFramework,
    affine_span_dimension,
    find_pinnable_permutation,
    framework_from_dict,
    framework_to_dict,
    load_framework,
    permute_framework,
    pin,
    pin_with_permutation,
    save_framework,
)
from .growth import GrowthFit, fit_growth_order
from .jets import Jet
from .ladder import (
    OrderReport,
    PolyTrajectory,
    flex_rhs,
    rigidity_order,
    solve_ladder,
)
from .linear import (
    KernelDecomposition,
    kernel_decomposition,
    rigidity_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CORPUS_NAMES", "EXPECTED_ORDERS", "load_corpus",
    "CritReport", "FrameworkEnergyTarget", "PolynomialTarget",
    "fourth_derivative_test", "order2k_family_test",
    "polynomial_from_monomial_list", "second_order_rigidity_test",
    "FAMILIES", "EnergySpec", "energy_along_trajectory", "energy_gap_and_grad",
    "energy_value_grad_hess", "gradient_along_trajectory",
    "DegenerateFit", "DegenerateLeadingVertices", "DimKNotOne",
    "FrameworkValidationError", "NotACriticalPoint", "RigidkitError",
    "ZeroLengthEdge",
    "Framework", "Isometry", "PinnedFramework", "affine_span_dimension",
    "find_pinnable_permutation", "framework_from_dict", "framework_to_dict",
    "load_framework", "permute_framework", "pin", "pin_with_permutation",
    "save_framework",
    "GrowthFit", "fit_growth_order",
    "Jet",
    "OrderReport", "PolyTrajectory", "flex_rhs", "rigidity_order", "solve_ladder",
    "KernelDecomposition", "kernel_decomposition", "rigidity_matrix",
]
