"""Bundled example frameworks with known rigidity orders.

Eight frameworks ship with the package: five planar (half_flat_prism,
leonardo3, flipped_prism, asym_flipped_prism, k33) and three spatial
(sphere_packing_1, sphere_packing_2, coned_prism).  All have a
1-dimensional nontrivial first-order flex space, so the flex ladder decides
their rigidity orders, recorded in EXPECTED_ORDERS.
"""

from __future__ import annotations

import json
from importlib import resources

from ..framework import Framework, framework_from_dict

EXPECTED_ORDERS: dict[str, int] = {
    "half_flat_prism": 4,
    "leonardo3": 8,
    "flipped_prism": 4,
    "asym_flipped_prism": 3,
    "k33": 3,
    "sphere_packing_1": 3,
    "sphere_packing_2": 3,
    "coned_prism": 4,
}

CORPUS_NAMES = tuple(sorted(EXPECTED_ORDERS))


def load_corpus(name: str) -> Framework:
    if name not in EXPECTED_ORDERS:
        raise KeyError(f"unknown corpus framework {name!r}; have {CORPUS_NAMES}")
    text = resources.files(__package__).joinpath(f"{name}.json").read_text("utf-8")
    return framework_from_dict(json.loads(text))
