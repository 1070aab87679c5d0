"""Factorizations and length invariants for numerical and affine-sum monoids.

``factorizations`` enumerates every way to write an element as a
nonnegative combination of the atoms, in lexicographic order of exponent
vectors, so output is deterministic and byte-stable; it counts them first
and refuses more than ``FACTORIZATIONS_CAP``.  Length sets do not
enumerate: ``length_masks`` holds them as bitmasks, computed bottom-up for
all elements up to a bound, with its size capped before it allocates.
``delta_union`` and ``uk_union`` read distance sets and U_k off the masks,
for the block monoids too.

Distance sets and U_k of a whole monoid are unions over every element, so
the monoid-level operations take an explicit element bound and return a
``BoundedResult``.  U_k is complete once the bound reaches k * max(atoms),
since k in L(n) forces n to be at most that; a distance set stays flagged
as an under-approximation.  Its ``atom_gap_gcd`` is the gcd of consecutive
atom differences, which equals min Δ(S) (Bowles, Chapman, Kaplan & Reiser,
*J. Algebra Appl.* 5, 2006), whether or not the bound has reached it.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import CapError, InputError

if TYPE_CHECKING:
    from .affine import AffineSumMonoid
    from .numon import NumericalMonoid

CELLS_CAP = 10**6
WINDOW_CAP = 10**8
FACTORIZATIONS_CAP = 10**5


class Factorization(NamedTuple):
    """Exponent vector over the atom tuple of the ambient monoid."""

    exponents: tuple[int, ...]

    @property
    def length(self) -> int:
        return sum(self.exponents)

    def evaluate(self, atoms: Sequence[int]) -> int:
        return sum(x * a for x, a in zip(self.exponents, atoms))


class BoundedResult(NamedTuple):
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


def _factorization_count(s: NumericalMonoid, n: int) -> int:
    """The number of factorizations of n, counted one atom at a time
    (coin change): taking atom a turns the counts of each residue class
    mod a into their running sums.  Refused past ``CELLS_CAP`` cells."""
    atoms = s.atoms
    if (n + 1) * len(atoms) > CELLS_CAP:
        raise CapError(f"{(n + 1) * len(atoms)} factorization-count cells exceed the cap {CELLS_CAP}")
    ways = [1] + [0] * n
    for a in atoms:
        for r in range(min(a, n + 1)):
            ways[r::a] = accumulate(ways[r::a])
    return ways[n]


def factorizations(s: NumericalMonoid, n: int) -> list[Factorization]:
    """All solutions of sum(x_i * atom_i) = n with x >= 0, lexicographic;
    refused before listing when there are more than ``FACTORIZATIONS_CAP``."""
    if not s.contains(n):
        raise InputError(f"{n} is not in {s}")
    count = _factorization_count(s, n)
    if count > FACTORIZATIONS_CAP:
        raise CapError(f"{count} factorizations exceed the cap {FACTORIZATIONS_CAP}")
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


def _least_length(s: NumericalMonoid, n: int) -> int:
    # no factorization of n has fewer than n / max(atoms) atoms
    return -(-n // s.atoms[-1])


def length_masks(s: NumericalMonoid, bound: int) -> Iterator[tuple[int, int]]:
    """``(n, mask)`` for n = 0..bound, where bit l of ``mask`` is set iff n
    is a sum of lo(n) + l atoms, lo(n) = ``_least_length(s, n)``.  This is
    L(n) = U_a (L(n - a) + 1) (Barron, O'Neill & Pelayo, *Math. Comp.* 86,
    2017) stored from the least possible length, so a mask is at most
    n // m - lo(n) + 1 bits wide: mask(0) = 1 and mask(n) is the OR of
    mask(n - a) << (1 + lo(n - a) - lo(n)), a shift that is 1 exactly when
    a <= (n - 1) % max(atoms).  Only the last min(max(atoms), bound + 1)
    masks are kept."""
    atoms = s.atoms
    top = atoms[-1]
    size = min(top, bound + 1)
    width = bound // atoms[0] - _least_length(s, bound) + 1
    if (bound + 1) * len(atoms) > CELLS_CAP:
        raise CapError(f"{(bound + 1) * len(atoms)} length-set cells exceed the cap {CELLS_CAP}")
    if size * width > WINDOW_CAP:
        raise CapError(f"a window of {size * width} bits exceeds the cap {WINDOW_CAP}")
    window = [0] * size
    for n in range(bound + 1):
        r = (n - 1) % top
        mask = 1 if n == 0 else reduce(or_, [window[(n - a) % size] << (a <= r) for a in atoms if a <= n], 0)
        window[n % size] = mask
        yield n, mask


def lengths_of(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending."""
    return tuple(i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


def delta_union(masks: Iterable[int]) -> tuple[int, ...]:
    """Union of the distance sets of the length sets held in ``masks``.
    ``rest`` holds the lengths above the least whose predecessor is not yet
    found, so the loop runs up to the largest distance, not over the bits."""
    values: set[int] = set()
    for mask in masks:
        rest, d = mask & (mask - 1), 1
        while rest:
            behind = mask << d
            if rest & behind:
                values.add(d)
            rest &= ~behind
            d += 1
    return tuple(sorted(values))


def uk_union(masks: Iterable[int], k: int) -> tuple[int, ...]:
    """Union of the length sets held in ``masks`` that contain k."""
    return lengths_of(reduce(or_, (mask for mask in masks if mask >> k & 1), 0))


def _mask(s: NumericalMonoid, n: int) -> int:
    if not s.contains(n):
        raise InputError(f"{n} is not in {s}")
    for _, mask in length_masks(s, n):
        pass
    return mask << _least_length(s, n)


def length_set(s: NumericalMonoid, n: int) -> tuple[int, ...]:
    return lengths_of(_mask(s, n))


def affine_length_set(gamma: AffineSumMonoid, vec: Sequence[int]) -> tuple[int, ...]:
    """Length set of a vector in a direct sum: the sumset of the component
    length sets, since every atom lives in a single component."""
    if not gamma.contains(vec):
        raise InputError(f"{tuple(vec)} is not in {gamma}")
    total = 1
    for s, v in zip(gamma.components, vec):
        part = _mask(s, v)
        total = reduce(or_, (part << shift for shift in lengths_of(total)))
    return lengths_of(total)


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
        raise InputError(f"bound {bound} is below the conductor {s.conductor}")
    return BoundedResult(
        values=delta_union(mask for _, mask in length_masks(s, bound)),
        cap=bound,
        complete=False,
        note="union over elements up to the bound only",
        atom_gap_gcd=_atom_gap_gcd(s),
    )


def uk_bounded(s: NumericalMonoid, k: int, bound: int) -> BoundedResult:
    """Union of the length sets containing k, over elements up to ``bound``."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if bound < 0:
        raise InputError(f"bound must be >= 0, got {bound}")
    # k lies in L(n) only if n <= k * max(atoms), so no mask past that is
    # computed, and the size caps apply to the elements actually swept
    top = k * s.atoms[-1]
    masks = (mask << _least_length(s, n) for n, mask in length_masks(s, min(bound, top)))
    complete = bound >= top
    if complete:
        note = f"complete: k in L(n) forces n <= k * max(atoms) = {top}"
    else:
        note = "union over elements up to the bound only"
    return BoundedResult(values=uk_union(masks, k), cap=bound, complete=complete, note=note)
