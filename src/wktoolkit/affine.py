"""Finite direct sums of numerical monoids.

Elements are integer vectors, one coordinate per component, membership
checked componentwise.  The atoms are exactly the embedded atoms of the
components, so factorization questions decompose coordinatewise; that is
exercised and verified in the factorization module.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyList, InputError
from .numon import NumericalMonoid, is_seminormal


class AffineSumMonoid(NamedTuple):
    components: tuple[NumericalMonoid, ...]

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def has_proper_component(self) -> bool:
        return any(not s.is_free for s in self.components)

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
        raise EmptyList("direct sum of no components")
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


def properties_report(gamma: AffineSumMonoid) -> dict:
    """Structural facts about the sum, with the rules that supply them.

    Weak Krullness and the UMT property hold for every such sum: each
    component is primary with divisorial maximal ideal, and localizations
    at the maximal t-ideals have discrete valuation root closures.  The
    root closure is the free monoid on the rank, hence factorial.
    """
    seminormal = all(is_seminormal(s)[0] for s in gamma.components)
    report = {
        "rank": gamma.rank,
        "has_proper_component": gamma.has_proper_component,
        "weakly_krull": True,
        "umt": True,
        "seminormal": seminormal,
        "root_closure": f"free monoid of rank {gamma.rank}",
        "root_closure_factorial": True,
        "generalized_krull": not gamma.has_proper_component,
        "rules": [
            "affine-sum-weakly-krull",
            "weakly-krull-affine-monoid-is-umt",
            "root-closure-of-sum-is-free",
        ],
    }
    return report
