"""Numerical monoids and their fractional-ideal machinery.

A numerical monoid S is a cofinite additive submonoid of the nonnegative
integers.  It is stored by its atoms and its Apéry set with respect to the
multiplicity m: ``apery[r]`` is the least member of S congruent to r mod m.
The rest follows from these m integers (Rosales & García-Sánchez,
*Numerical Semigroups*, 2009): n belongs iff n >= apery[n mod m], the
Frobenius number is max(apery) - m, and the gaps are the n < apery[n mod m],
so there are sum(apery[r] // m) of them (the genus, Selmer 1977).

Fractional ideals are nonempty subsets I of the integers with I + S
contained in I and a minimum element.  Such an I is closed under + m, so it
is stored the way S is: ``mins[r]`` is the least member of I congruent to r
mod m, and I is the union of the rays mins[r] + mN.  Membership, the dual,
sums and the generated ideal are then closed formulas over the m residues.
The v- and t-operations coincide here: every ideal of this shape is the
v-closure of a finitely generated one, and t is the directed union of v
over finitely generated subideals.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import CapError, InputError

# largest multiplicity from_generators and largest modulus apery_set accept; an Apéry set has that many entries
MULTIPLICITY_CAP = 10**5
# largest number of gaps NumericalMonoid.gaps lists
GAPS_CAP = 10**6


class NumericalMonoid(namedtuple("NumericalMonoid", "atoms apery")):
    """``atoms`` ascending; ``apery[r]`` is the least member congruent to r
    mod the multiplicity."""

    # no __slots__: the cached properties live in the instance __dict__,
    # and this keeps every attribute, cached or not, from being assigned
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable NumericalMonoid")

    @property
    def multiplicity(self) -> int:
        return self.atoms[0]

    @cached_property
    def frobenius(self) -> int:
        return max(self.apery) - self.multiplicity

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        m = self.multiplicity
        # the genus: apery[r] // m gaps lie in the class of r (Selmer)
        genus = sum(w // m for w in self.apery)
        if genus > GAPS_CAP:
            raise CapError(f"{genus} gaps exceed the cap {GAPS_CAP}")
        return tuple(sorted(n for r, w in enumerate(self.apery) for n in range(r, w, m)))

    @property
    def is_free(self) -> bool:
        """True exactly for the full monoid of nonnegative integers."""
        return self.conductor == 0

    def contains(self, n: int) -> bool:
        # a negative n lies below apery[n % m] >= 0
        return n >= self.apery[n % self.atoms[0]]

    __contains__ = contains

    def elements_up_to(self, bound: int) -> Iterator[int]:
        ap, m = self.apery, self.multiplicity
        return (n for n in range(0, bound + 1) if n >= ap[n % m])

    def to_json(self) -> dict:
        return {"atoms": list(self.atoms)}

    def __str__(self) -> str:
        return "<" + ",".join(str(a) for a in self.atoms) + ">"


def _from_apery(apery: list[int], candidates: Iterable[int]) -> NumericalMonoid:
    """The monoid with Apéry set ``apery`` (indexed by residue mod m = len(apery)),
    given members above m, in increasing order, that generate it with m.  A
    reducible c = x + y lies above an earlier atom a <= x in the ≤_S order,
    so c is an atom iff c - a is a gap for every atom a kept so far."""
    m = len(apery)
    atoms = [m]
    for c in candidates:
        if not any(c - a >= apery[(c - a) % m] for a in atoms):
            atoms.append(c)
    return NumericalMonoid(atoms=tuple(atoms), apery=tuple(apery))


def from_generators(gens: Iterable[int]) -> NumericalMonoid:
    """Numerical monoid generated by ``gens`` (gcd must be 1).

    The Apéry set of the least generator m holds the shortest paths from 0
    over the residues mod m, with an edge r -> r + g of weight g for every
    generator g.  The round-robin search of Böcker & Lipták (*Algorithmica*
    48, 2007) adds one generator at a time: along each cycle of + g mod m it
    starts at the cheapest residue and needs a single pass.
    """
    gen_list = sorted({int(g) for g in gens})
    if not gen_list:
        raise InputError("no generators given")
    if gen_list[0] <= 0:
        raise InputError(f"generator {gen_list[0]} is not positive")
    if math.gcd(*gen_list) != 1:
        raise InputError(f"gcd of {gen_list} is {math.gcd(*gen_list)}, not 1")
    m = gen_list[0]
    if m > MULTIPLICITY_CAP:
        raise CapError(f"multiplicity {m} exceeds the cap {MULTIPLICITY_CAP}")

    apery = [0] + [math.inf] * (m - 1)
    for g in gen_list[1:]:
        d = math.gcd(g, m)
        for start in range(d):
            r = min(range(start, m, d), key=apery.__getitem__)
            for _ in range(m // d - 1):
                w = apery[r] + g
                r = (r + g) % m
                if w < apery[r]:
                    apery[r] = w
    return _from_apery(apery, gen_list[1:])


def _closure_violation(gapset: set[int]) -> tuple[int, int] | None:
    """Members x <= y whose sum is a gap, or None if the complement of the
    positive integers ``gapset`` is closed under addition."""
    frobenius = max(gapset, default=-1)
    members = [n for n in range(1, frobenius + 1) if n not in gapset]
    for i, x in enumerate(members):
        for y in members[i:]:
            if x + y > frobenius:
                break
            if x + y in gapset:
                return x, y
    return None


def from_gaps(gaps: Iterable[int]) -> NumericalMonoid:
    """Numerical monoid with the given gap set; the complement must be closed
    under addition."""
    gapset = {int(g) for g in gaps}
    if gapset and min(gapset) < 1:
        raise InputError("gaps must be positive")
    violation = _closure_violation(gapset)
    if violation:
        x, y = violation
        raise InputError(f"complement not closed: {x} + {y} = {x + y} is a gap")
    m = next(n for n in itertools.count(1) if n not in gapset)
    apery = [next(n for n in itertools.count(r, m) if n not in gapset) for r in range(m)]
    return _from_apery(apery, sorted(apery[1:]))


def enumerate_numerical_monoids(max_frobenius: int) -> Iterator[NumericalMonoid]:
    """All numerical monoids with Frobenius number <= max_frobenius,
    the full monoid first, by exhausting admissible gap sets."""
    for mask in range(1 << max_frobenius):
        gapset = {i + 1 for i in range(max_frobenius) if mask >> i & 1}
        if _closure_violation(gapset) is None:
            yield from_gaps(gapset)


def apery_set(s: NumericalMonoid, n: int) -> tuple[int, ...]:
    """The least member of s in each residue class mod n, sorted.

    A member w is in it iff w - n is a gap.  In the class of r mod m the
    members run from apery[r] by steps of m, and w - n is a gap iff
    w < apery[(r - n) % m] + n.
    """
    if n == 0 or not s.contains(n):
        raise InputError(f"{n} is not a nonzero element of {s}")
    if n > MULTIPLICITY_CAP:
        raise CapError(f"an Apéry set of {n} entries exceeds the cap {MULTIPLICITY_CAP}")
    ap, m = s.apery, s.multiplicity
    return tuple(sorted(w for r in range(m) for w in range(ap[r], ap[(r - n) % m] + n, m)))


def is_seminormal(s: NumericalMonoid) -> tuple[bool, int | None]:
    """Whether 2x, 3x in s forces x in s; the witness is the least gap
    violating it."""
    for g in s.gaps:
        if s.contains(2 * g) and s.contains(3 * g):
            return False, g
    return True, None


def is_valuation(s: NumericalMonoid) -> bool:
    """Divisibility is a total order iff s is the full monoid, so this is
    ``s.is_free`` under the name the generalized-Krull rule reads."""
    return s.is_free


# ---------------------------------------------------------------------------
# fractional ideals


class MonoidIdeal(NamedTuple):
    """Fractional ideal of a numerical monoid: ``mins[r]`` is its least
    member congruent to r mod the multiplicity m, and the ideal is the union
    of the rays mins[r] + mN.

    Its largest non-member is max(mins) - m, so ``threshold`` is the least
    integer from which on everything belongs, and ``window`` lists the
    members below it.
    """

    owner: NumericalMonoid
    mins: tuple[int, ...]

    @property
    def min_element(self) -> int:
        return min(self.mins)

    @property
    def threshold(self) -> int:
        return max(self.mins) - len(self.mins) + 1

    @property
    def window(self) -> tuple[int, ...]:
        return tuple(self.elements_below(self.threshold))

    def contains(self, n: int) -> bool:
        return n >= self.mins[n % len(self.mins)]

    __contains__ = contains

    def elements_below(self, bound: int) -> list[int]:
        m = len(self.mins)
        return sorted(n for w in self.mins for n in range(w, bound, m))

    def to_json(self) -> dict:
        return {"window": list(self.window), "threshold": self.threshold}

    def __str__(self) -> str:
        parts = [str(w) for w in self.window] + [f"[{self.threshold}..)"]
        return "{" + ", ".join(parts) + "}"


def make_ideal(owner: NumericalMonoid, elements: Iterable[int], threshold: int) -> MonoidIdeal:
    """The ideal holding ``elements`` below ``threshold`` and every integer
    from it on; the set must be closed under the monoid action."""
    t = int(threshold)
    window = sorted({int(x) for x in elements if x < t})
    members = set(window)
    for w in window:
        for a in owner.atoms:
            if w + a < t and w + a not in members:
                raise InputError(f"{w} + {a} missing: not closed under the monoid action")
    m = owner.multiplicity
    mins = [t + (r - t) % m for r in range(m)]
    for w in window:
        mins[w % m] = min(mins[w % m], w)
    return MonoidIdeal(owner, tuple(mins))


def ideal_from_generators(owner: NumericalMonoid, gens: Iterable[int]) -> MonoidIdeal:
    """The fractional ideal generated by finitely many integers: the union
    of the translates g + owner, whose least member ≡ r is g + apery[(r - g) % m]."""
    gen_list = sorted({int(g) for g in gens})
    if not gen_list:
        raise InputError("an ideal needs at least one generator")
    ap, m = owner.apery, owner.multiplicity
    return MonoidIdeal(owner, tuple(min(g + ap[(r - g) % m] for g in gen_list) for r in range(m)))


def principal_ideal(owner: NumericalMonoid, g: int) -> MonoidIdeal:
    return ideal_from_generators(owner, [g])


def monoid_as_ideal(owner: NumericalMonoid) -> MonoidIdeal:
    return principal_ideal(owner, 0)


def unique_maximal_ideal(s: NumericalMonoid) -> MonoidIdeal:
    """The set of nonzero elements, which is the unique nonempty prime: the
    Apéry set with m in place of 0."""
    return MonoidIdeal(s, (s.multiplicity,) + s.apery[1:])


def ideal_dual(i: MonoidIdeal) -> MonoidIdeal:
    """The dual { x : x + i is contained in the monoid }.

    Since the monoid is closed under + m, x + i lies in it iff x + w does
    for every w in i.mins, that is iff x >= apery[(x + w) % m] - w; each of
    these bounds is congruent to x mod m, so their maximum is the least
    member of the dual in that class.
    """
    ap = i.owner.apery
    m = len(ap)
    return MonoidIdeal(i.owner, tuple(max(ap[(r + w) % m] - w for w in i.mins) for r in range(m)))


def v_closure(i: MonoidIdeal) -> MonoidIdeal:
    """The divisorial closure, the dual of the dual.  For ideals in this
    representation the t-closure agrees with it."""
    return ideal_dual(ideal_dual(i))


def ideal_add(i: MonoidIdeal, j: MonoidIdeal) -> MonoidIdeal:
    """The sum i + j, the union of the rays a + b + mN over a in i.mins and
    b in j.mins: a min-plus convolution over the residues."""
    if i.owner != j.owner:
        raise InputError("ideals of different monoids")
    m = len(i.mins)
    mins = (min(a + j.mins[(r - ra) % m] for ra, a in enumerate(i.mins)) for r in range(m))
    return MonoidIdeal(i.owner, tuple(mins))


def is_t_invertible(i: MonoidIdeal) -> bool:
    """Whether the v-closure of i + dual(i) is the whole monoid."""
    return v_closure(ideal_add(i, ideal_dual(i))) == monoid_as_ideal(i.owner)
