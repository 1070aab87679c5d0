"""Zero-sum sequences over finite abelian groups and T-block monoids.

A block over a subset G0 of a finite abelian group is a multiset of
elements summing to zero; blocks form a monoid under multiset union whose
atoms are the minimal zero-sum sequences.  Minimal sequences have length
at most the group order: a longer one has two equal prefix sums, hence a
proper nonempty zero-sum infix, contradicting minimality.  That bound caps
every search here.

T-blocks pair a zero-sum-defect multiset with a vector t from a finite
product of reduced numerical monoids D_1 x ... x D_n, where a fixed group
element g_i is attached to each component and iota(t) = sum(t_i * g_i).
A pair is valid when the multiset sum plus iota(t) vanishes.  This family
realizes the pairing construction concretely while staying enumerable;
inputs are user-supplied surrogates and results say so.

Length sets never list factorizations.  One memoized recursion, the mask
of x being the OR over the atoms a dividing x of the mask of x - a shifted
by one, serves single blocks, the monoid-level sweeps (atoms up to the
length cap found once, one memo per sweep, refused up front past
SWEEP_CAP steps) and T-blocks.  Distance and U_k sets are read off the
masks as in the factorization module and reported as capped
under-approximations.  Length sets and factorizations of one element are
exact: every atom in a factorization divides the element, so the element
bounds the search.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceeded, GroupTooLarge, InputError, NotZeroSum
from .factor import BoundedResult, delta_union, lengths_of, uk_union
from .groups import FiniteAbelianGroup
from .numon import NumericalMonoid

GROUP_CAP = 64
SWEEP_CAP = 10**6

Element = tuple[int, ...]


@dataclass(frozen=True)
class Block:
    """Zero-sum multiset over a finite abelian group, in canonical sorted form."""

    group: FiniteAbelianGroup
    elements: tuple[Element, ...]

    @staticmethod
    def make(group: FiniteAbelianGroup, elements: Iterable[Sequence[int]]) -> "Block":
        elems = tuple(sorted(group.reduce(e) for e in elements))
        total = group.zero()
        for e in elems:
            total = group.add(total, e)
        if total != group.zero():
            raise NotZeroSum(f"elements sum to {total}, not zero")
        return Block(group, elems)

    @property
    def length(self) -> int:
        return len(self.elements)

    def multiplicities(self) -> dict[Element, int]:
        out: dict[Element, int] = {}
        for e in self.elements:
            out[e] = out.get(e, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "group": list(self.group.invariant_factors),
            "multiplicities": {
                ":".join(str(c) for c in e): m for e, m in sorted(self.multiplicities().items())
            },
        }


def _check_group(group: FiniteAbelianGroup) -> None:
    if group.order > GROUP_CAP:
        raise GroupTooLarge(f"group of order {group.order} exceeds cap {GROUP_CAP}")


def _normalize_g0(group: FiniteAbelianGroup, g0: Iterable[Sequence[int]] | None) -> list[Element]:
    if g0 is None:
        return sorted(group.elements())
    return sorted({group.reduce(e) for e in g0})


def minimal_zero_sum_atoms(
    group: FiniteAbelianGroup,
    g0: Iterable[Sequence[int]] | None = None,
    max_length: int | None = None,
) -> list[Block]:
    """All minimal zero-sum sequences over g0 (default: the whole group),
    of length at most ``max_length`` when it is given.

    Depth-first search over nondecreasing sequences; a branch dies as soon
    as some proper nonempty sub-multiset sums to zero, because that
    sub-multiset survives in every extension.  Depth is capped at the
    group order by the distinct-prefix-sum argument, or at ``max_length``.
    """
    _check_group(group)
    support = _normalize_g0(group, g0)
    zero = group.zero()
    atoms: list[Block] = []
    cap = group.order if max_length is None else min(group.order, max_length)

    def rec(start: int, seq: list[Element], total: Element, proper_sums: frozenset[Element]):
        if seq:
            if total == zero and zero not in proper_sums:
                atoms.append(Block(group, tuple(seq)))
                return  # extensions would contain this zero-sum properly
            if zero in proper_sums:
                return
        if len(seq) >= cap:
            return
        for idx in range(start, len(support)):
            g = support[idx]
            if seq:
                new_sums = frozenset(
                    itertools.chain(
                        proper_sums,
                        (total,),
                        (g,),
                        (group.add(q, g) for q in proper_sums),
                    )
                )
            else:
                new_sums = frozenset()
            seq.append(g)
            rec(idx, seq, group.add(total, g), new_sums)
            seq.pop()

    rec(0, [], zero, frozenset())
    atoms.sort(key=lambda b: (b.length, b.elements))
    return atoms


def davenport_constant(group: FiniteAbelianGroup) -> int:
    """Longest minimal zero-sum sequence over the nonzero elements; 0 for
    the trivial group."""
    _check_group(group)
    if group.order == 1:
        return 0
    nonzero = [e for e in group.elements() if e != group.zero()]
    return max(b.length for b in minimal_zero_sum_atoms(group, nonzero))


def _packing(elements: Sequence[Element], max_count: int) -> tuple[Callable, Callable]:
    """Multisets over ``elements`` with multiplicities up to ``max_count`` as
    integers, one field per element with a guard bit on top.  ``pack``
    encodes a multiset; ``minus(x, a)`` is x - a, or None when a does not
    divide x, seen as a field of (x | guard) - a that lost its guard bit."""
    width = max_count.bit_length() + 1
    shift = {e: width * i for i, e in enumerate(elements)}
    guard = sum(1 << (s + width - 1) for s in shift.values())

    def pack(multiset: Iterable[Element]) -> int:
        return sum(1 << shift[e] for e in multiset)

    def minus(x: int, a: int) -> int | None:
        return x - a if ((x | guard) - a) & guard == guard else None

    return pack, minus


def _packed_atoms(
    group: FiniteAbelianGroup,
    g0: Iterable[Sequence[int]] | None,
    block: Block | Iterable[Sequence[int]],
) -> tuple[int, list[Block], list[int], Callable]:
    """The packed block, the atoms over g0 (default: the block's support)
    that divide it, the packed atoms and their ``minus``."""
    _check_group(group)
    if not isinstance(block, Block):
        block = Block.make(group, block)
    support = _normalize_g0(group, block.elements if g0 is None else g0)
    for e in block.elements:
        if e not in support:
            raise InputError(f"block element {e} lies outside g0")
    pack, minus = _packing(support, max(block.length, group.order))
    x = pack(block.elements)
    atoms = [a for a in minimal_zero_sum_atoms(group, support, block.length) if minus(x, pack(a.elements)) is not None]
    return x, atoms, [pack(a.elements) for a in atoms], minus


def block_factorizations(
    group: FiniteAbelianGroup,
    g0: Iterable[Sequence[int]] | None,
    block: Block | Iterable[Sequence[int]],
) -> list[tuple[Block, ...]]:
    """All decompositions of a block into atoms, as canonically ordered
    atom tuples.  Exact: only atoms dividing the block can appear."""
    x, atoms, packed, minus = _packed_atoms(group, g0, block)
    results: list[tuple[Block, ...]] = []

    def rec(remaining: int, start: int, chosen: list[Block]):
        if not remaining:
            results.append(tuple(chosen))
            return
        for j in range(start, len(atoms)):
            rest = minus(remaining, packed[j])
            if rest is not None:
                chosen.append(atoms[j])
                rec(rest, j, chosen)
                chosen.pop()

    rec(x, 0, [])
    return results


def _length_mask(x, atoms: Sequence, remainder: Callable, memo: dict) -> int:
    """Bit l set iff x is a product of l atoms: the OR, over the atoms a
    dividing x, of the mask of x - a shifted by one.  ``remainder(x, a)``
    is x - a, or None when a does not divide x; ``memo`` starts as
    {identity: 1} and keeps every mask found."""
    mask = memo.get(x)
    if mask is None:
        mask = 0
        for a in atoms:
            rest = remainder(x, a)
            if rest is not None:
                mask |= _length_mask(rest, atoms, remainder, memo)
        mask <<= 1
        memo[x] = mask
    return mask


def block_length_set(
    group: FiniteAbelianGroup,
    g0: Iterable[Sequence[int]] | None,
    block: Block | Iterable[Sequence[int]],
) -> tuple[int, ...]:
    x, _, packed, minus = _packed_atoms(group, g0, block)
    return lengths_of(_length_mask(x, packed, minus, {0: 1}))


def _sweep_masks(group: FiniteAbelianGroup, length_cap: int) -> Iterator[int]:
    """Length masks of all blocks of length at most the cap, with the atoms
    found once and one memo shared by the whole sweep.  Refused up front
    when the C(|G| + cap, cap) multisets times their length exceed
    SWEEP_CAP; the atom search visits no more multisets than that."""
    _check_group(group)
    if length_cap < 0:
        raise InputError(f"length cap must be >= 0, got {length_cap}")
    steps = math.comb(group.order + length_cap, length_cap) * length_cap
    if steps > SWEEP_CAP:
        raise CapExceeded(f"{steps} sweep steps up to length {length_cap} exceed the cap {SWEEP_CAP}")
    elems = sorted(group.elements())
    pack, minus = _packing(elems, length_cap)
    atoms = [pack(a.elements) for a in minimal_zero_sum_atoms(group, None, length_cap)]
    memo = {0: 1}
    zero = group.zero()
    for k in range(length_cap + 1):
        for combo in itertools.combinations_with_replacement(elems, k):
            if reduce(group.add, combo, zero) == zero:
                yield _length_mask(pack(combo), atoms, minus, memo)


def delta_block_monoid(group: FiniteAbelianGroup, length_cap: int) -> BoundedResult:
    """Union of distance sets over all blocks of length at most the cap."""
    return BoundedResult(
        values=delta_union(_sweep_masks(group, length_cap)),
        cap=length_cap,
        complete=False,
        note="block-monoid surrogate; union over blocks up to the length cap only",
    )


def uk_block_monoid(group: FiniteAbelianGroup, k: int, length_cap: int) -> BoundedResult:
    """Union of the length sets containing k, over blocks up to the cap."""
    _check_group(group)
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return BoundedResult(
        values=uk_union(_sweep_masks(group, length_cap), k),
        cap=length_cap,
        complete=False,
        note="block-monoid surrogate; union over blocks up to the length cap only",
    )


# ---------------------------------------------------------------------------
# T-blocks


@dataclass(frozen=True)
class TBlockSpec:
    """Ambient data of a T-block monoid: group, support g0, and components
    (D_i, g_i) defining iota(t) = sum(t_i * g_i)."""

    group: FiniteAbelianGroup
    g0: tuple[Element, ...]
    components: tuple[tuple[NumericalMonoid, Element], ...]

    @staticmethod
    def make(
        group: FiniteAbelianGroup,
        g0: Iterable[Sequence[int]],
        components: Iterable[tuple[NumericalMonoid, Sequence[int]]],
    ) -> "TBlockSpec":
        g0_norm = tuple(sorted({group.reduce(e) for e in g0}))
        comps = tuple((d, group.reduce(g)) for d, g in components)
        return TBlockSpec(group, g0_norm, comps)

    def iota(self, t: Sequence[int]) -> Element:
        if len(t) != len(self.components):
            raise InputError("t has wrong number of coordinates")
        total = self.group.zero()
        for ti, (_, gi) in zip(t, self.components):
            total = self.group.add(total, self.group.scale(ti, gi))
        return total


@dataclass(frozen=True)
class TBlockElement:
    """A multiset over g0 paired with a vector t, t_i in D_i."""

    elements: tuple[Element, ...]
    t: tuple[int, ...]

    @staticmethod
    def make(spec: TBlockSpec, elements: Iterable[Sequence[int]], t: Sequence[int]) -> "TBlockElement":
        elems = tuple(sorted(spec.group.reduce(e) for e in elements))
        return TBlockElement(elems, tuple(int(x) for x in t))

    @property
    def is_identity(self) -> bool:
        return not self.elements and not any(self.t)

    def block_multiplicities(self) -> dict[Element, int]:
        out: dict[Element, int] = {}
        for e in self.elements:
            out[e] = out.get(e, 0) + 1
        return out


def tblock_validate(spec: TBlockSpec, e: TBlockElement) -> bool:
    """Exact validity check: support, component membership, and the
    zero-sum condition sigma(block) + iota(t) = 0."""
    if len(e.t) != len(spec.components):
        return False
    if any(x not in spec.g0 for x in e.elements):
        return False
    if any(ti < 0 or ti not in d for ti, (d, _) in zip(e.t, spec.components)):
        return False
    total = spec.group.zero()
    for x in e.elements:
        total = spec.group.add(total, x)
    total = spec.group.add(total, spec.iota(e.t))
    return total == spec.group.zero()


def _t_vectors(spec: TBlockSpec, caps: Sequence[int]):
    ranges = []
    for (d, _), cap in zip(spec.components, caps):
        ranges.append([v for v in range(cap + 1) if d.contains(v)])
    return itertools.product(*ranges)


def _proper_divisors(spec: TBlockSpec, e: TBlockElement):
    """All valid sub-elements (b', t') of e other than the identity and e."""
    mult = e.block_multiplicities()
    support = sorted(mult)
    count_ranges = [range(mult[g] + 1) for g in support]
    t_choices = []
    for ti, (d, _) in zip(e.t, spec.components):
        t_choices.append([v for v in range(ti + 1) if d.contains(v) and d.contains(ti - v)])
    for counts in itertools.product(*count_ranges):
        sub_elems = []
        for g, c in zip(support, counts):
            sub_elems.extend([g] * c)
        for t_sub in itertools.product(*t_choices):
            cand = TBlockElement(tuple(sub_elems), t_sub)
            if cand.is_identity:
                continue
            if cand.elements == e.elements and cand.t == e.t:
                continue
            if tblock_validate(spec, cand):
                yield cand


def _is_tblock_atom(spec: TBlockSpec, e: TBlockElement) -> bool:
    if e.is_identity:
        return False
    for _ in _proper_divisors(spec, e):
        return False
    return True


@dataclass(frozen=True)
class TBlockAtomsResult:
    atoms: tuple[TBlockElement, ...]
    block_cap: int
    t_caps: tuple[int, ...]
    complete: bool = False
    note: str = "atoms found within the stated caps only"


def tblock_atoms_bounded(spec: TBlockSpec, block_cap: int, t_caps: Sequence[int]) -> TBlockAtomsResult:
    """Atoms of the T-block monoid with block length and t-coordinates capped."""
    _check_group(spec.group)
    if len(t_caps) != len(spec.components):
        raise InputError("one t-cap per component is required")
    atoms = []
    for k in range(block_cap + 1):
        for combo in itertools.combinations_with_replacement(spec.g0, k):
            for t in _t_vectors(spec, t_caps):
                cand = TBlockElement(tuple(combo), t)
                if cand.is_identity:
                    continue
                if tblock_validate(spec, cand) and _is_tblock_atom(spec, cand):
                    atoms.append(cand)
    atoms.sort(key=lambda a: (len(a.elements) + sum(a.t), a.elements, a.t))
    return TBlockAtomsResult(tuple(atoms), block_cap, tuple(int(c) for c in t_caps))


@dataclass(frozen=True)
class TBlockLengthResult:
    values: tuple[int, ...]
    complete: bool = True
    note: str = "exact: atoms in any factorization divide the element itself"


def tblock_length_set(
    spec: TBlockSpec,
    e: TBlockElement,
    block_cap: int | None = None,
    t_caps: Sequence[int] | None = None,
) -> TBlockLengthResult:
    """Lengths of all factorizations of a valid element into atoms.

    Exact regardless of caps: every atom of a factorization is a divisor
    of the element, so the element bounds the search.  The optional caps
    only reject oversized inputs.
    """
    _check_group(spec.group)
    if not tblock_validate(spec, e):
        raise NotZeroSum("element is not a valid T-block")
    if block_cap is not None and len(e.elements) > block_cap:
        raise CapExceeded(f"block length {len(e.elements)} exceeds cap {block_cap}")
    if t_caps is not None and any(ti > c for ti, c in zip(e.t, t_caps)):
        raise CapExceeded("a t-coordinate exceeds its cap")
    divisor_atoms = [d for d in _proper_divisors(spec, e) if _is_tblock_atom(spec, d)]
    if _is_tblock_atom(spec, e):
        divisor_atoms.append(e)

    def remainder(big: TBlockElement, small: TBlockElement) -> TBlockElement | None:
        left = Counter(big.elements)
        left.subtract(small.elements)
        t_rest = tuple(b - s for b, s in zip(big.t, small.t))
        if min(left.values(), default=0) < 0 or any(x < 0 or x not in d for x, (d, _) in zip(t_rest, spec.components)):
            return None
        return TBlockElement(tuple(sorted(left.elements())), t_rest)

    identity = TBlockElement((), (0,) * len(e.t))
    return TBlockLengthResult(values=lengths_of(_length_mask(e, divisor_atoms, remainder, {identity: 1})))
