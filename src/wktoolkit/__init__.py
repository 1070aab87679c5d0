"""Desk-scale computations around weakly Krull semigroup rings: numerical
monoids and their ideals, factorization length invariants, zero-sum block
monoids, class groups of numerical semigroup rings over prime fields,
torsion-free group type tests, and the decision rules tying them together.

Importing the package puts every layer in ``sys.modules`` but compiles and
runs none of them: each layer loads at its first attribute access
(``importlib.util.LazyLoader``) and pulls in the layers it imports itself,
so a ``wkt`` process pays only for the modules its answer touches.
``errors`` loads eagerly.
"""

import importlib.util
import sys

__version__ = "0.3.0"

from . import errors


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


affine, blocks, classgrp, decide, factor, groups, hilbertian, numon = map(
    _lazy, ("affine", "blocks", "classgrp", "decide", "factor", "groups", "hilbertian", "numon")
)

__all__ = [
    "affine",
    "blocks",
    "classgrp",
    "decide",
    "errors",
    "factor",
    "groups",
    "hilbertian",
    "numon",
    "__version__",
]
