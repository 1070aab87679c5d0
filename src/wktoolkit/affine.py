"""Finite direct sums of numerical monoids.

Elements are integer vectors, one coordinate per component, membership
checked componentwise.  The atoms are exactly the embedded atoms of the
components, so factorization questions decompose coordinatewise; that is
exercised and verified in the factorization module.  Structural facts about
a sum (weakly Krull, UMT, generalized Krull) are the decision engine's:
``decide.affine_monoid_descriptor`` derives them and ``decide.RULES`` cites
them.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .numon import NumericalMonoid


class AffineSumMonoid(NamedTuple):
    components: tuple[NumericalMonoid, ...]

    @property
    def rank(self) -> int:
        return len(self.components)

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.rank:
            raise InputError(f"vector {vec!r} has wrong length for {self.rank} components")
        return all(s.contains(v) for s, v in zip(self.components, vec))

    __contains__ = contains

    def to_json(self) -> dict:
        return {"components": [s.to_json() for s in self.components]}

    def __str__(self) -> str:
        return " (+) ".join(str(s) for s in self.components)


def direct_sum(monoids: Iterable[NumericalMonoid]) -> AffineSumMonoid:
    comps = tuple(monoids)
    if not comps:
        raise InputError("direct sum of no components")
    return AffineSumMonoid(comps)


def atoms(gamma: AffineSumMonoid) -> list[tuple[int, ...]]:
    """Embedded atoms e_i(a) with a an atom of the i-th component."""
    out = []
    for i, s in enumerate(gamma.components):
        for a in s.atoms:
            vec = [0] * gamma.rank
            vec[i] = a
            out.append(tuple(vec))
    return out
