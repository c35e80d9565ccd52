"""Truth labels of the benchmark's generators, checked at small size.

    python3 -m pytest bench/test_generators.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from generators import henneberg_grow, strip_minus_edge, strip_with_midpoints  # noqa: E402
from rigidkit import (  # noqa: E402
    CORPUS_NAMES,
    framework_to_dict,
    kernel_decomposition,
    pin_with_permutation,
    rigidity_matrix,
    solve_ladder,
)


def _kd(fw):
    pf, _, _ = pin_with_permutation(fw)
    return pf, kernel_decomposition(rigidity_matrix(pf))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("base", CORPUS_NAMES)
def test_henneberg_growth_keeps_the_base_order(base, seed):
    g = henneberg_grow(base, 30, np.random.default_rng(seed))
    assert g.framework.n_vertices == 30
    pf, kd = _kd(g.framework)
    assert kd.dim_K == g.truth.dim_K == 1
    rep = solve_ladder(pf, kd)
    assert (rep.verdict, rep.order) == (g.truth.verdict, g.truth.order)


@pytest.mark.parametrize("n, m", [(16, 2), (24, 3), (28, 2)])
def test_midpoint_strip_has_dim_k_m(n, m):
    g = strip_with_midpoints(n, m, np.random.default_rng(n + m))
    _, kd = _kd(g.framework)
    assert kd.dim_K == g.truth.dim_K == m
    assert (g.truth.order, g.truth.method) == (2, "order4-energy")


@pytest.mark.parametrize("n", [10, 20, 30])
def test_strip_minus_edge_is_a_one_dof_mechanism(n):
    g = strip_minus_edge(n, np.random.default_rng(n))
    pf, kd = _kd(g.framework)
    assert kd.dim_K == g.truth.dim_K == 1
    assert solve_ladder(pf, kd).verdict == g.truth.verdict == "flex-found"


def test_same_seed_same_frameworks():
    def build(seed):
        rng = np.random.default_rng(seed)
        return [framework_to_dict(g.framework) for g in (
            henneberg_grow("k33", 20, rng), strip_minus_edge(20, rng),
            strip_with_midpoints(20, 2, rng))]

    assert build(5) == build(5)
    assert build(5) != build(6)


# Known defect, ROADMAP item 3: the ladder's threshold tol * (1 + |rhs|) has an
# absolute floor, and the residuals of a grown framework shrink below it as it
# grows.  These grown frameworks keep their base order, yet the ladder reports
# flex-found.  strict=True turns the test red once the defect is fixed, so the
# marker has to go and these sizes can return to the scale_k1 workload.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: absolute ladder threshold")
@pytest.mark.parametrize("base, n", [("leonardo3", 150), ("coned_prism", 200),
                                     ("half_flat_prism", 600)])
def test_grown_framework_keeps_the_base_order_at_scale(base, n):
    g = henneberg_grow(base, n, np.random.default_rng(0))
    pf, kd = _kd(g.framework)
    assert kd.dim_K == g.truth.dim_K == 1
    rep = solve_ladder(pf, kd)
    assert (rep.verdict, rep.order) == (g.truth.verdict, g.truth.order)
