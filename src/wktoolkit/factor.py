"""Factorizations and length invariants for numerical and affine-sum monoids.

``factorizations`` enumerates every way to write an element as a
nonnegative combination of the atoms, in lexicographic order of exponent
vectors, so output is deterministic and byte-stable.  Length sets, distance
sets and the unions U_k derive from it.

Distance sets and U_k of a whole monoid are genuinely infinite unions, so
the monoid-level operations take an explicit element bound and return a
``BoundedResult`` flagged as an under-approximation.  The reported
``atom_gap_gcd`` is the gcd of consecutive atom differences, which equals
min Δ(S) (Bowles, Chapman, Kaplan & Reiser, *J. Algebra Appl.* 5, 2006).
Whether a given element bound has already reached it is still the bound's
question, so the flag stays on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .affine import AffineSumMonoid
from .errors import BoundTooSmall, InputError, NotInMonoid
from .numon import NumericalMonoid


@dataclass(frozen=True)
class Factorization:
    """Exponent vector over the atom tuple of the ambient monoid."""

    exponents: tuple[int, ...]

    @property
    def length(self) -> int:
        return sum(self.exponents)

    def evaluate(self, atoms: Sequence[int]) -> int:
        return sum(x * a for x, a in zip(self.exponents, atoms))


@dataclass(frozen=True)
class BoundedResult:
    """A set-valued result computed only up to a stated cap."""

    values: tuple[int, ...]
    cap: int
    complete: bool = False
    note: str = ""
    atom_gap_gcd: int | None = None

    def to_json(self) -> dict:
        out = {"values": list(self.values), "cap": self.cap, "complete": self.complete}
        if self.note:
            out["note"] = self.note
        if self.atom_gap_gcd is not None:
            out["atom_gap_gcd"] = self.atom_gap_gcd
        return out


def factorizations(s: NumericalMonoid, n: int) -> list[Factorization]:
    """All solutions of sum(x_i * atom_i) = n with x >= 0, lexicographic."""
    if not s.contains(n):
        raise NotInMonoid(f"{n} is not in {s}")
    atoms = s.atoms
    out: list[Factorization] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(atoms) - 1:
            q, r = divmod(remaining, atoms[i])
            if r == 0:
                out.append(Factorization(prefix + (q,)))
            return
        for x in range(remaining // atoms[i] + 1):
            rec(i + 1, remaining - x * atoms[i], prefix + (x,))

    rec(0, n, ())
    return out


def length_set(s: NumericalMonoid, n: int) -> tuple[int, ...]:
    return tuple(sorted({f.length for f in factorizations(s, n)}))


def affine_length_set(gamma: AffineSumMonoid, vec: Sequence[int]) -> tuple[int, ...]:
    """Length set of a vector in a direct sum: the sumset of the component
    length sets, since every atom lives in a single component."""
    if not gamma.contains(vec):
        raise NotInMonoid(f"{tuple(vec)} is not in {gamma}")
    parts = [set(length_set(s, v)) for s, v in zip(gamma.components, vec)]
    total = reduce(lambda acc, part: {a + b for a in acc for b in part}, parts, {0})
    return tuple(sorted(total))


def delta_of(lengths: Sequence[int]) -> tuple[int, ...]:
    """Successive gaps of a sorted set of lengths."""
    ls = sorted(set(lengths))
    return tuple(sorted({b - a for a, b in zip(ls, ls[1:])}))


def _atom_gap_gcd(s: NumericalMonoid) -> int | None:
    diffs = [b - a for a, b in zip(s.atoms, s.atoms[1:])]
    if not diffs:
        return None
    return math.gcd(*diffs)


def delta_monoid_bounded(s: NumericalMonoid, bound: int) -> BoundedResult:
    """Union of the distance sets of all elements up to ``bound``; an
    under-approximation of the distance set of the monoid."""
    if bound < s.conductor:
        raise BoundTooSmall(f"bound {bound} is below the conductor {s.conductor}")
    values: set[int] = set()
    for n in s.elements_up_to(bound):
        values.update(delta_of(length_set(s, n)))
    return BoundedResult(
        values=tuple(sorted(values)),
        cap=bound,
        complete=False,
        note="union over elements up to the bound only",
        atom_gap_gcd=_atom_gap_gcd(s),
    )


def uk_bounded(s: NumericalMonoid, k: int, bound: int) -> BoundedResult:
    """Union of the length sets containing k, over elements up to ``bound``."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    values: set[int] = set()
    for n in s.elements_up_to(bound):
        ls = length_set(s, n)
        if k in ls:
            values.update(ls)
    return BoundedResult(
        values=tuple(sorted(values)),
        cap=bound,
        complete=False,
        note="union over elements up to the bound only",
    )
