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

Blocks and T-blocks are packed into integers, one guarded field per
element and per t-coordinate.  Length sets never list factorizations: one
kernel pushes length masks up from the empty element in order of size,
ORing the mask of y shifted by one into y + a for each atom a whose lowest
set bit is no higher than that of y.  The length set of one element
streams it up to the element through the element's divisors only
(refused up front past SWEEP_CAP sub-multisets); the monoid-level sweeps
take every block up to the length cap (refused up front past SWEEP_CAP
steps).  The factorizations of one block are counted by coin change over
its divisors, and listed, without recursion, by walking the divisor sets
that count leaves.  T-block atoms come from one sieve over candidates in
order of size.
Distance and U_k sets are read off the masks as in the factorization
module and reported as capped under-approximations.  Length sets and
factorizations of one element are exact: every atom of a factorization
divides the element.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import CapError, InputError
from .factor import CELLS_CAP, FACTORIZATIONS_CAP, BoundedResult, delta_union, lengths_of, uk_union
from .groups import FiniteAbelianGroup

if TYPE_CHECKING:
    from .numon import NumericalMonoid

GROUP_CAP = 64
SWEEP_CAP = 10**6

Element = tuple[int, ...]


class Block(NamedTuple):
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
            raise InputError(f"elements sum to {total}, not zero")
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
        raise CapError(f"group of order {group.order} exceeds cap {GROUP_CAP}")


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


def _packing(elements: Sequence[Element], max_count: int, t_fields: Sequence = ()) -> tuple[Callable, Callable]:
    """Pack a multiset over ``elements`` (multiplicities up to
    ``max_count``) and a vector t (t_i <= cap_i for each (D_i, cap_i) in
    ``t_fields``) into one integer, a field per element and per t_i, each
    with a guard bit on top.  Returns ``pack(multiset, t)`` and the
    remainder: x - a, or None when a does not divide x, seen as a field of
    (x | guard) - a that lost its guard bit or a t-field of x - a outside
    its D_i."""
    offsets, guard = [], 0
    for cap in [max_count] * len(elements) + [cap for _, cap in t_fields]:
        offsets.append(guard.bit_length())
        guard |= 1 << (offsets[-1] + cap.bit_length())
    shift = dict(zip(elements, offsets))
    t_read = [(s, (1 << cap.bit_length()) - 1, d) for s, (d, cap) in zip(offsets[len(elements):], t_fields)]

    def pack(multiset: Iterable[Element], t: Sequence[int] = ()) -> int:
        return sum(1 << shift[e] for e in multiset) + sum(ti << s for ti, (s, _, _) in zip(t, t_read))

    def minus(x: int, a: int) -> int | None:
        return x - a if ((x | guard) - a) & guard == guard else None

    def remainder(x: int, a: int) -> int | None:
        rest = minus(x, a)
        return rest if rest is not None and all(d.contains(rest >> s & m) for s, m, d in t_read) else None

    return pack, remainder if t_fields else minus


def _packed_atoms(
    group: FiniteAbelianGroup,
    g0: Iterable[Sequence[int]] | None,
    block: Block | Iterable[Sequence[int]],
) -> tuple[int, int, list[Block], list[int], Callable]:
    """The packed block and its length, the atoms over g0 (default: the
    block's support) that divide it, the packed atoms and their ``minus``."""
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
    return x, block.length, atoms, [pack(a.elements) for a in atoms], minus


def _factorization_count(x: int, packed: list[int], minus: Callable) -> tuple[int, list[set[int]]]:
    """The number of factorizations of the packed block x, counted one atom
    at a time (coin change over the divisors of x that are sums of the
    atoms taken so far): taking atom a turns the counts along each chain
    y, y + a, y + 2a, ... into their running sums.  Also returns those
    divisor sets, one per atom prefix ``packed[:i + 1]``.  Refused once the
    divisors times the atoms pass ``CELLS_CAP`` cells."""
    ways = {0: 1}
    prefixes = []
    for a in packed:
        divisors = set(ways)
        for y in ways:
            z = y + a
            while z not in divisors and minus(x, z) is not None:
                divisors.add(z)
                z += a
            if len(divisors) * len(packed) > CELLS_CAP:
                raise CapError(f"{len(divisors) * len(packed)} factorization-count cells exceed the cap {CELLS_CAP}")
        chained: dict[int, int] = {}
        for y in sorted(divisors):
            rest = minus(y, a)
            chained[y] = ways.get(y, 0) + (0 if rest is None else chained.get(rest, 0))
        ways = chained
        prefixes.append(divisors)
    return ways.get(x, 0), prefixes


def block_factorizations(
    group: FiniteAbelianGroup,
    g0: Iterable[Sequence[int]] | None,
    block: Block | Iterable[Sequence[int]],
) -> list[tuple[Block, ...]]:
    """All decompositions of a block into atoms, as canonically ordered
    atom tuples.  Exact: only atoms dividing the block can appear.  They
    are counted first and refused before listing past ``FACTORIZATIONS_CAP``.

    The listing walks the count's divisor sets from the last atom down:
    c copies of atom i are taken only when what is left is a sum of the
    earlier atoms, so no branch is dead, and the first atom's count is the
    quotient of what is left.  Exponent vectors in descending order are
    the atom tuples in ascending order."""
    x, _, atoms, packed, minus = _packed_atoms(group, g0, block)
    count, prefixes = _factorization_count(x, packed, minus)
    if count > FACTORIZATIONS_CAP:
        raise CapError(f"{count} factorizations exceed the cap {FACTORIZATIONS_CAP}")
    if not packed:  # only the empty block has no atom dividing it
        return [()]
    found = []
    stack = [(len(packed) - 1, x, ())]
    while stack:
        i, rest, tail = stack.pop()
        if i == 0:
            found.append((rest // packed[0],) + tail)
            continue
        c, left = 0, rest
        while left is not None:
            if left in prefixes[i - 1]:
                stack.append((i - 1, left, (c,) + tail))
            c, left = c + 1, minus(left, packed[i])
    return [tuple(a for a, c in zip(atoms, cs) for _ in range(c)) for cs in sorted(found, reverse=True)]


def _masks(atoms: Iterable[tuple[int, int]], top: int, fits: Callable[[int], bool] | None) -> Iterator[tuple[int, int]]:
    """Every sum y of the packed ``atoms``, given as (size, atom) pairs
    with sizes of at least 1, of size at most ``top`` whose partial sums
    all pass ``fits`` (None passes all), with its length mask: bit l set
    iff y is a sum of l atoms.

    Masks are pushed, not pulled: from the empty sum, in order of size,
    each y is yielded and ``mask << 1`` is ORed into y + a.  Only atoms
    with a & -a <= y & -y are tried from y != 0.  That is exact: in a
    factorization of x, let a be an atom of lowest lowest set bit; the
    other atoms are multiples of a & -a, hence so is their sum y = x - a,
    and x is reached from y by a.  A size level is made when first
    reached and dropped once visited, so one length set keeps only its
    frontier.

    The callers' ``fits`` test divisibility of an element x with ``minus``
    from ``_packing``; it is only asked about y + a where y and a each lie
    fieldwise below x, so no field of y + a exceeds twice its field in x,
    and (x | guard) - (y + a) never borrows across fields."""
    order = sorted((a & -a, size, a) for size, a in atoms)
    levels = {0: {0: 1}}
    for size in range(top + 1):
        for y, mask in levels.pop(size, {}).items():
            yield y, mask
            low = y & -y
            for least, step, a in order:
                if y and least > low:
                    break
                if size + step <= top and (fits is None or fits(y + a)):
                    level = levels.setdefault(size + step, {})
                    level[y + a] = level.get(y + a, 0) | mask << 1


def block_length_set(
    group: FiniteAbelianGroup,
    g0: Iterable[Sequence[int]] | None,
    block: Block | Iterable[Sequence[int]],
) -> tuple[int, ...]:
    """Lengths of all factorizations of a block.  The walk visits the
    block's divisors, so it is refused up front when the sub-multisets of
    the block, the product of (multiplicity + 1) over its elements, pass
    ``SWEEP_CAP``, as the T-block walk is."""
    _check_group(group)
    if not isinstance(block, Block):
        block = Block.make(group, block)
    walk = math.prod(c + 1 for c in block.multiplicities().values())
    if walk > SWEEP_CAP:
        raise CapError(f"{walk} sub-multisets of the block exceed the cap {SWEEP_CAP}")
    x, length, atoms, packed, minus = _packed_atoms(group, g0, block)
    masks = _masks(((a.length, p) for a, p in zip(atoms, packed)), length, lambda z: minus(x, z) is not None)
    return lengths_of(next(mask for y, mask in masks if y == x))


def _sweep_masks(group: FiniteAbelianGroup, length_cap: int) -> Iterator[int]:
    """Length masks of all blocks of length at most the cap, one per block,
    the empty block first, pushed from the atoms up to the cap by
    ``_masks``.  Refused up front when the C(|G| + cap, cap) multisets
    times their length exceed SWEEP_CAP."""
    _check_group(group)
    if length_cap < 0:
        raise InputError(f"length cap must be >= 0, got {length_cap}")
    steps = math.comb(group.order + length_cap, length_cap) * length_cap
    if steps > SWEEP_CAP:
        raise CapError(f"{steps} sweep steps up to length {length_cap} exceed the cap {SWEEP_CAP}")
    pack, _ = _packing(sorted(group.elements()), length_cap)
    atoms = [(a.length, pack(a.elements)) for a in minimal_zero_sum_atoms(group, None, length_cap)]
    return (mask for _, mask in _masks(atoms, length_cap, None))


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


class TBlockSpec(NamedTuple):
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


class TBlockElement(NamedTuple):
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


def _tblock_atoms(spec: TBlockSpec, count_vectors: Iterable, n_vectors: int, max_count: int, t_caps: Sequence[int]):
    """The packing's ``pack`` and ``remainder`` and the atoms, packed atom
    to atom, among the valid pairs of a multiset over g0, given by its
    multiplicities in ``count_vectors`` (each at most ``max_count``), and
    a vector t <= ``t_caps``: a set closed under taking divisors.  Walked
    in order of size |b| + sum(t), a pair is an atom iff no atom kept so
    far divides it: the monoid is reduced and atomic, and a proper divisor
    is strictly smaller.  Refused up front past SWEEP_CAP candidate pairs."""
    walk = n_vectors * math.prod(max(cap + 1, 0) for cap in t_caps)
    if walk > SWEEP_CAP:
        raise CapError(f"{walk} T-block candidates exceed the cap {SWEEP_CAP}")
    t_fields = [(d, cap) for (d, _), cap in zip(spec.components, t_caps)]
    pack, remainder = _packing(spec.g0, max_count, t_fields)
    t_of_iota: dict[Element, list[tuple[int, ...]]] = {}
    for t in itertools.product(*([v for v in range(cap + 1) if d.contains(v)] for d, cap in t_fields)):
        t_of_iota.setdefault(spec.iota(t), []).append(t)
    group, unit = spec.group, [pack((g,)) for g in spec.g0]
    candidates = []
    for cs in count_vectors:
        total = reduce(group.add, (group.scale(c, g) for g, c in zip(spec.g0, cs) if c), group.zero())
        x = sum(map(operator.mul, cs, unit))
        for t in t_of_iota.get(group.neg(total), ()):
            if any(cs) or any(t):
                candidates.append((sum(cs) + sum(t), x + pack((), t), cs, t))
    atoms: dict[int, TBlockElement] = {}
    for _, x, cs, t in sorted(candidates):
        if all(remainder(x, a) is None for a in atoms):
            atoms[x] = TBlockElement(tuple(itertools.chain.from_iterable(map(itertools.repeat, spec.g0, cs))), t)
    return pack, remainder, atoms


class TBlockAtomsResult(NamedTuple):
    atoms: tuple[TBlockElement, ...]
    block_cap: int
    t_caps: tuple[int, ...]
    complete: bool = False
    note: str = "atoms found within the stated caps only"


def tblock_atoms_bounded(spec: TBlockSpec, block_cap: int, t_caps: Sequence[int]) -> TBlockAtomsResult:
    """Atoms of the T-block monoid with block length and t-coordinates
    capped, sieved from every valid element within the caps."""
    _check_group(spec.group)
    if len(t_caps) != len(spec.components):
        raise InputError("one t-cap per component is required")
    count_vectors = (
        tuple(map(combo.count, spec.g0))
        for k in range(block_cap + 1)
        for combo in itertools.combinations_with_replacement(spec.g0, k)
    )
    n_vectors = math.comb(len(spec.g0) + block_cap, block_cap) if block_cap >= 0 else 0
    _, _, found = _tblock_atoms(spec, count_vectors, n_vectors, block_cap, t_caps)
    atoms = sorted(found.values(), key=lambda a: (len(a.elements) + sum(a.t), a.elements, a.t))
    return TBlockAtomsResult(tuple(atoms), block_cap, tuple(int(c) for c in t_caps))


class TBlockLengthResult(NamedTuple):
    values: tuple[int, ...]
    complete: bool = True
    note: str = "exact: atoms in any factorization divide the element itself"


def tblock_length_set(spec: TBlockSpec, e: TBlockElement) -> TBlockLengthResult:
    """Lengths of all factorizations of a valid element into atoms.

    Exact: every atom of a factorization lies below the element, so the
    atoms are sieved from the valid elements below it.
    """
    _check_group(spec.group)
    if not tblock_validate(spec, e):
        raise InputError("element is not a valid T-block")
    counts = tuple(map(e.elements.count, spec.g0))
    count_vectors = itertools.product(*(range(c + 1) for c in counts))
    pack, remainder, atoms = _tblock_atoms(spec, count_vectors, math.prod(c + 1 for c in counts), len(e.elements), e.t)
    x = pack(e.elements, e.t)
    sized = [(len(a.elements) + sum(a.t), p) for p, a in atoms.items()]
    masks = _masks(sized, len(e.elements) + sum(e.t), lambda z: remainder(x, z) is not None)
    return TBlockLengthResult(values=lengths_of(next(mask for y, mask in masks if y == x)))
