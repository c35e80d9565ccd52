import numpy as np
import pytest

from rigidkit import (
    EnergySpec,
    Framework,
    kernel_decomposition,
    pin,
    pin_with_permutation,
    rigidity_matrix,
    solve_ladder,
)
from oracles import corpus_items


@pytest.fixture(scope="session")
def triangle():
    return Framework(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]), [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="session")
def triangle_pinned(triangle):
    pf, _ = pin(triangle)
    return pf


@pytest.fixture(scope="session")
def square():
    return Framework(
        2, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


@pytest.fixture(scope="session")
def square_pinned(square):
    pf, _ = pin(square)
    return pf


@pytest.fixture(scope="session")
def corpus_analysis():
    """name -> dict(framework, pf, kd, ladder report, expected order),
    computed once per session."""
    out = {}
    for name, fw, expected in corpus_items():
        pf, _, perm = pin_with_permutation(fw)
        kd = kernel_decomposition(rigidity_matrix(pf))
        report = solve_ladder(pf, kd, max_k=16)
        out[name] = {
            "framework": fw,
            "pf": pf,
            "kd": kd,
            "report": report,
            "expected": expected,
            "perm": perm,
        }
    return out


@pytest.fixture(scope="session")
def harmonic_specs(corpus_analysis):
    return {
        name: EnergySpec.for_framework(item["framework"], "harmonic")
        for name, item in corpus_analysis.items()
    }
