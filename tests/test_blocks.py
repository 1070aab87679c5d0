import itertools
import json
import math
import pathlib
import random
import sys
from collections import Counter

import pytest
from tests_support_tblock import tblock_atoms_by_definition, tblock_lengths_by_recursion

from wktoolkit import cli
from wktoolkit.blocks import (
    SWEEP_CAP,
    Block,
    TBlockElement,
    TBlockSpec,
    block_factorizations,
    block_length_set,
    davenport_constant,
    delta_block_monoid,
    minimal_zero_sum_atoms,
    tblock_atoms_bounded,
    tblock_length_set,
    tblock_validate,
    uk_block_monoid,
)
from wktoolkit.blocks import _packing, _sweep_masks
from wktoolkit.errors import CapError, CapExceeded, GroupTooLarge, InputError, NotZeroSum
from wktoolkit.factor import delta_of, delta_union, uk_union
from wktoolkit.groups import FiniteAbelianGroup, cyclic
from wktoolkit.numon import from_generators


def _elems(block):
    return block.elements


def _oracle_minimal_zero_sums(group, g0, max_len):
    # independent enumeration: all zero-sum multisets, minimality by
    # checking every proper nonempty sub-multiset
    zero = group.zero()
    out = []
    for k in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(sorted(g0), k):
            total = zero
            for e in combo:
                total = group.add(total, e)
            if total != zero:
                continue
            minimal = True
            for size in range(1, k):
                for sub in set(itertools.combinations(combo, size)):
                    t = zero
                    for e in sub:
                        t = group.add(t, e)
                    if t == zero:
                        minimal = False
                        break
                if not minimal:
                    break
            if minimal:
                out.append(combo)
    return sorted(out, key=lambda c: (len(c), c))


def test_atoms_contract_examples():
    c2 = cyclic(2)
    atoms = minimal_zero_sum_atoms(c2)
    assert [
        _elems(b) for b in atoms
    ] == [((0,),), ((1,), (1,))]

    c3 = cyclic(3)
    atoms3 = minimal_zero_sum_atoms(c3)
    assert len(atoms3) == 4
    assert [_elems(b) for b in atoms3] == [
        ((0,),),
        ((1,), (2,)),
        ((1,), (1,), (1,)),
        ((2,), (2,), (2,)),
    ]

    trivial = cyclic(1)
    assert [_elems(b) for b in minimal_zero_sum_atoms(trivial)] == [(((),))]


def test_atoms_match_oracle_on_small_groups():
    for facs in ((2,), (3,), (4,), (5,), (2, 2), (6,), (2, 4)):
        g = FiniteAbelianGroup(facs)
        got = [_elems(b) for b in minimal_zero_sum_atoms(g)]
        expected = _oracle_minimal_zero_sums(g, list(g.elements()), g.order)
        assert got == expected


def test_atom_length_bounded_by_group_order():
    for facs in ((2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (7,), (8,), (2, 2, 2), (3, 3), (2, 6), (9,), (10,), (11,), (12,)):
        g = FiniteAbelianGroup(facs)
        if g.order > 12:
            continue
        atoms = minimal_zero_sum_atoms(g)
        assert max(b.length for b in atoms) <= g.order


def test_group_cap():
    with pytest.raises(GroupTooLarge):
        minimal_zero_sum_atoms(cyclic(65))


def test_davenport_contract_examples():
    assert davenport_constant(cyclic(3)) == 3
    assert davenport_constant(FiniteAbelianGroup((2, 2))) == 3
    assert davenport_constant(cyclic(1)) == 0


def test_davenport_known_values():
    # cyclic groups have constant n; rank-two groups d1 + d2 - 1
    assert davenport_constant(cyclic(6)) == 6
    assert davenport_constant(FiniteAbelianGroup((2, 4))) == 5
    assert davenport_constant(FiniteAbelianGroup((3, 3))) == 5


def test_block_lengths_contract_examples():
    c3 = cyclic(3)
    b = Block.make(c3, [(1,), (1,), (1,), (2,), (2,), (2,)])
    facs = block_factorizations(c3, None, b)
    shapes = sorted(tuple(sorted(a.elements for a in f)) for f in facs)
    assert len(facs) == 2
    assert block_length_set(c3, None, b) == (2, 3)

    assert block_length_set(c3, None, Block.make(c3, [])) == (0,)

    c2 = cyclic(2)
    b4 = Block.make(c2, [(1,), (1,), (1,), (1,)])
    assert block_length_set(c2, None, b4) == (2,)

    with pytest.raises(NotZeroSum):
        Block.make(c3, [(1,)])


def test_block_factorizations_cover_multiset():
    c4 = cyclic(4)
    b = Block.make(c4, [(1,), (1,), (3,), (3,), (2,), (2,)])
    for f in block_factorizations(c4, None, b):
        merged = []
        for a in f:
            merged.extend(a.elements)
        assert tuple(sorted(merged)) == b.elements


def test_divisor_closed_restriction():
    # blocks supported in a subset have all their divisors there too, so
    # their length sets agree over the subset and over the full group; in
    # particular every length set over the subset occurs over the group
    c4 = cyclic(4)
    sub = [(2,), (1,), (3,)]
    for elems in ([(2,), (2,)], [(1,), (1,), (2,)], [(1,), (1,), (3,), (3,)]):
        b = Block.make(c4, elems)
        inner = block_length_set(c4, sub, b)
        outer = block_length_set(c4, None, b)
        assert inner == outer


def test_delta_block_monoid_contract_examples():
    assert delta_block_monoid(cyclic(2), 12).values == ()
    assert delta_block_monoid(cyclic(3), 9).values == (1,)
    assert delta_block_monoid(cyclic(4), 12).values == (1, 2)
    res = delta_block_monoid(cyclic(3), 9)
    assert res.complete is False and res.cap == 9


def test_half_factorial_dichotomy_on_surrogates():
    # distance sets: empty for C2, minimum 1 for C3..C6 within caps
    assert delta_block_monoid(cyclic(2), 10).values == ()
    for n, cap in ((3, 8), (4, 8), (5, 8), (6, 7)):
        vals = delta_block_monoid(cyclic(n), cap).values
        assert vals and min(vals) == 1


def test_uk_block_monoid_contract_examples():
    res = uk_block_monoid(cyclic(3), 2, 12)
    assert res.values == (2, 3)
    vals = res.values
    assert vals == tuple(range(vals[0], vals[-1] + 1))


def test_uk_block_monoid_intervals():
    for n in (3, 4, 5, 6):
        for k in (2, 3, 4):
            vals = uk_block_monoid(cyclic(n), k, 8).values
            assert vals == tuple(range(vals[0], vals[-1] + 1))
            assert k in vals


# ---------------------------------------------------------------------------
# T-blocks


def _c2_spec():
    c2 = cyclic(2)
    return TBlockSpec.make(c2, [(1,)], [(from_generators([2, 3]), (1,))])


def test_tblock_validate_contract_examples():
    spec = _c2_spec()
    assert tblock_validate(spec, TBlockElement.make(spec, [(1,)], (3,)))
    assert tblock_validate(spec, TBlockElement.make(spec, [], (0,)))
    assert not tblock_validate(spec, TBlockElement.make(spec, [(1,)], (2,)))
    assert not tblock_validate(spec, TBlockElement.make(spec, [(1,)], (1,)))  # 1 not in <2,3>
    assert tblock_validate(spec, TBlockElement.make(spec, [(1,), (1,)], (0,)))


def test_tblock_atoms_bounded():
    spec = _c2_spec()
    res = tblock_atoms_bounded(spec, 4, (6,))
    atoms = {(a.elements, a.t) for a in res.atoms}
    assert atoms == {
        ((), (2,)),
        (((1,), (1,)), (0,)),
        (((1,),), (3,)),
    }
    assert res.complete is False


def test_tblock_length_set_contract_examples():
    spec = _c2_spec()
    assert tblock_length_set(spec, TBlockElement.make(spec, [(1,), (1,)], (0,))).values == (1,)
    assert tblock_length_set(spec, TBlockElement.make(spec, [], (0,))).values == (0,)
    assert tblock_length_set(spec, TBlockElement.make(spec, [(1,)], (3,))).values == (1,)
    # ([1], 5) = ([1], 3) + ((), 2) only
    assert tblock_length_set(spec, TBlockElement.make(spec, [(1,)], (5,))).values == (2,)
    with pytest.raises(NotZeroSum):
        tblock_length_set(spec, TBlockElement.make(spec, [(1,)], (2,)))


def test_tblock_atoms_match_definition_oracle():
    # oracle straight from the definition: enumerate valid pairs within the
    # caps and call a pair an atom when no two valid non-identity pairs
    # compose to it
    spec = _c2_spec()
    block_cap, t_cap = 4, 6
    valid = []
    for k in range(block_cap + 1):
        for t in range(t_cap + 1):
            e = TBlockElement.make(spec, [(1,)] * k, (t,))
            if tblock_validate(spec, e):
                valid.append(e)
    non_identity = [e for e in valid if not e.is_identity]
    atoms = set()
    for e in non_identity:
        decomposable = False
        for e1 in non_identity:
            if len(e1.elements) > len(e.elements) or e1.t[0] > e.t[0]:
                continue
            rest_elems = list(e.elements)
            for x in e1.elements:
                rest_elems.remove(x)
            e2 = TBlockElement.make(spec, rest_elems, (e.t[0] - e1.t[0],))
            if not e2.is_identity and tblock_validate(spec, e2):
                decomposable = True
                break
        if not decomposable:
            atoms.add((e.elements, e.t))
    got = tblock_atoms_bounded(spec, block_cap, (t_cap,))
    assert {(a.elements, a.t) for a in got.atoms} == atoms


def test_davenport_rank_three():
    assert davenport_constant(FiniteAbelianGroup((2, 2, 2))) == 4


def test_tblock_zero_t_agrees_with_plain_blocks():
    c3 = cyclic(3)
    spec = TBlockSpec.make(c3, list(c3.elements()), [(from_generators([2, 3]), (1,))])
    for elems in ([(1,), (1,), (1,)], [(1,), (2,)], [(1,), (1,), (1,), (2,), (2,), (2,)]):
        e = TBlockElement.make(spec, elems, (0,))
        assert tblock_length_set(spec, e).values == block_length_set(c3, None, elems)
    res = tblock_atoms_bounded(spec, 3, (0,))
    plain = minimal_zero_sum_atoms(c3)
    assert {a.elements for a in res.atoms} == {b.elements for b in plain}


def test_tblock_caps():
    spec = _c2_spec()
    from wktoolkit.errors import CapExceeded

    with pytest.raises(CapExceeded):
        tblock_length_set(spec, TBlockElement.make(spec, [(1,)], (3,)), block_cap=0)
    with pytest.raises(InputError):
        tblock_atoms_bounded(spec, 2, (1, 2))
    for t_caps in ((), (3, 3)):  # one cap per component, as for the atoms
        with pytest.raises(InputError):
            tblock_length_set(spec, TBlockElement.make(spec, [(1,)], (3,)), t_caps=t_caps)


def _random_block(rng, group, support, max_len):
    elems = [rng.choice(support) for _ in range(rng.randint(0, max_len))]
    total = group.zero()
    for e in elems:
        total = group.add(total, e)
    return elems + [group.scale(-1, total)]


def _enumerated_block_length_set(group, g0, elems):
    # the oracle: every factorization listed, only the lengths kept
    return tuple(sorted({len(f) for f in block_factorizations(group, g0, elems)}))


def test_block_length_set_matches_factorization_oracle():
    # blocks with no field slack: a count above half its packed field, so
    # that y + a reaches the field's guard bit, or a whole field (7 copies
    # in a field of 3 bits)
    c2, c3, c7 = cyclic(2), cyclic(3), cyclic(7)
    for g, g0, elems in (
        (c2, None, [(0,)] + [(1,)] * 6),
        (c2, None, [(0,)] * 7),
        (c3, None, [(0,)] + [(1,)] * 6),
        (c3, [(1,), (2,)], [(1,)] * 5 + [(2,)] * 2),
        (c7, None, [(1,)] * 7),
        (c2, [(1,)], [(1,)] * 14),
        (c3, [(1,), (2,)], [(1,)] * 12 + [(2,)] * 3),
    ):
        assert block_length_set(g, g0, elems) == _enumerated_block_length_set(g, g0, elems), (g, g0, elems)
    rng = random.Random(8)
    for facs in ((1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)):
        g = cyclic(facs[0]) if len(facs) == 1 else FiniteAbelianGroup(facs)
        elements = sorted(g.elements())
        for _ in range(12):
            elems = _random_block(rng, g, elements, 9)
            assert block_length_set(g, None, elems) == _enumerated_block_length_set(g, None, elems), (facs, elems)
            g0 = sorted(set(g.reduce(e) for e in elems) | set(rng.sample(elements, 2 if len(elements) > 1 else 1)))
            assert block_length_set(g, g0, elems) == _enumerated_block_length_set(g, g0, elems), (facs, elems)


def test_block_sweeps_match_per_block_oracle():
    for facs, cap in (((2,), 8), ((3,), 7), ((4,), 6), ((2, 2), 6), ((5,), 5), ((6,), 5)):
        g = FiniteAbelianGroup(facs)
        per_block = []
        for k in range(cap + 1):
            for combo in itertools.combinations_with_replacement(sorted(g.elements()), k):
                total = g.zero()
                for e in combo:
                    total = g.add(total, e)
                if total == g.zero():
                    per_block.append(_enumerated_block_length_set(g, None, combo))
        deltas = set()
        for ls in per_block:
            deltas.update(delta_of(ls))
        assert delta_block_monoid(g, cap).values == tuple(sorted(deltas)), facs
        for k in range(1, cap + 1):
            union = set()
            for ls in per_block:
                if k in ls:
                    union.update(ls)
            assert uk_block_monoid(g, k, cap).values == tuple(sorted(union)), (facs, k)


def _length_mask(x, atoms, remainder, memo):
    # the pull kernel the push kernel replaced: bit l set iff packed x is a
    # product of l atoms, the OR over the atoms a dividing x of the mask of
    # x - a shifted by one; memo starts as {0: 1} and keeps every mask
    rests_of = {}
    todo = [x]
    while todo:
        y = todo.pop()
        if y not in memo and y not in rests_of:
            rests_of[y] = [rest for a in atoms if (rest := remainder(y, a)) is not None]
            todo.extend(rests_of[y])
    for y in sorted(rests_of):  # every x - a is smaller than x
        mask = 0
        for rest in rests_of[y]:
            mask |= memo[rest]
        memo[y] = mask << 1
    return memo[x]


def _walk_oracle_masks(group, cap):
    # the walk the sweep replaced: every multiset up to the cap, the
    # zero-sum ones by summing coordinates, and one mask per block
    elems = sorted(group.elements())
    pack, minus = _packing(elems, cap)
    atoms = [pack(a.elements) for a in minimal_zero_sum_atoms(group, None, cap)]
    memo = {0: 1}
    for k in range(cap + 1):
        for combo in itertools.combinations_with_replacement(elems, k):
            if all(sum(coords) % n == 0 for coords, n in zip(zip(*combo), group.invariant_factors)):
                yield _length_mask(pack(combo), atoms, minus, memo)


def _chains(limit):
    # every invariant-factor chain d1 | d2 | ... of order at most the limit, the trivial group first
    chains, todo = [], [((), 1)]
    while todo:
        chain, order = todo.pop()
        chains.append(chain)
        todo.extend((chain + (d,), order * d) for d in range(2, limit // order + 1) if not chain or d % chain[-1] == 0)
    return sorted(chains, key=lambda c: (math.prod(c), c))


def test_block_sweep_matches_walk_oracle(monkeypatch):
    swept = 0
    oracle = {}
    for facs in _chains(12):
        g = FiniteAbelianGroup(facs)
        for cap in range(9):
            if math.comb(g.order + cap, cap) * cap > SWEEP_CAP:
                continue
            oracle[facs, cap] = Counter(_walk_oracle_masks(g, cap))
            assert Counter(_sweep_masks(g, cap)) == oracle[facs, cap], (facs, cap)
            swept += 1
    assert swept == 151
    # the rungs of U_k that set the benchmark's bounded-sweeps median; perfbench/ is read, not edited
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import UK_RUNGS

    assert len(UK_RUNGS) == 12
    for group, cap in UK_RUNGS:
        facs = tuple(map(int, group.split(",")))
        masks = list(oracle[facs, cap].elements())
        g = FiniteAbelianGroup(facs)
        assert delta_block_monoid(g, cap).values == delta_union(masks), (facs, cap)
        for k in range(1, 8):
            assert uk_block_monoid(g, k, cap).values == uk_union(masks, k), (facs, cap, k)


def _depth():
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_caps_need_no_recursion(capsys):
    cases = (((), 999), ((2,), 124), ((3,), 45))
    expected = {(facs, cap): Counter(_walk_oracle_masks(FiniteAbelianGroup(facs), cap)) for facs, cap in cases}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 50)
    try:
        for facs, cap in cases:
            g = FiniteAbelianGroup(facs)
            assert Counter(_sweep_masks(g, cap)) == expected[facs, cap], (facs, cap)
            masks = list(expected[facs, cap].elements())
            assert delta_block_monoid(g, cap).values == delta_union(masks)
            assert uk_block_monoid(g, 1, cap).values == uk_union(masks, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert uk_block_monoid(FiniteAbelianGroup(()), 1, 999).values == (1,)
    assert cli.run(["blocks", "delta", "--group", "2", "--cap", "125"]) == 3
    assert capsys.readouterr().out == '{"error":"1000125 sweep steps up to length 125 exceed the cap 1000000","kind":"cap"}\n'


def test_block_sweep_cap():
    # C(|G| + cap, cap) multisets of length up to cap: C(16, 8) * 8 = 102,960 steps for C8 at cap 8
    with pytest.raises(CapExceeded):
        delta_block_monoid(cyclic(64), 50)
    with pytest.raises(CapExceeded):
        uk_block_monoid(cyclic(16), 2, 16)  # C(32, 16) * 16 > 10**6
    with pytest.raises(CapExceeded):
        delta_block_monoid(cyclic(1), 999999)  # 10**6 multisets, but 10**12 steps
    assert math.comb(16, 8) * 8 <= SWEEP_CAP < math.comb(32, 16) * 16
    assert delta_block_monoid(cyclic(2), 0).values == ()
    assert uk_block_monoid(cyclic(2), 1, 0).values == ()
    for sweep in (lambda: delta_block_monoid(cyclic(2), -1), lambda: uk_block_monoid(cyclic(3), 2, -1)):
        with pytest.raises(InputError):  # a negative cap is refused, not swept as empty
            sweep()


def test_block_sweeps_search_only_atoms_up_to_the_cap():
    # the whole-group atom search of C64 runs to depth 64; the sweep stops at the cap
    assert delta_block_monoid(cyclic(64), 2).values == ()
    assert uk_block_monoid(cyclic(64), 2, 2).values == (2,)
    assert uk_block_monoid(cyclic(5), 1, 1).values == (1,)  # the atom 0 is as long as the cap
    c8 = cyclic(8)
    short = minimal_zero_sum_atoms(c8, None, 3)
    assert short == [b for b in minimal_zero_sum_atoms(c8) if b.length <= 3]
    assert max(b.length for b in short) == 3


def test_tblock_length_set_matches_recursion_oracle():
    rng = random.Random(12)
    checked = 0
    for facs, comps in (
        ((2,), [([2, 3], (1,))]),
        ((3,), [([2, 5], (1,))]),
        ((4,), [([2, 3], (1,)), ([3, 4], (2,))]),
        ((2, 2), [([2, 3], (1, 0)), ([2, 5], (0, 1))]),
    ):
        g = FiniteAbelianGroup(facs)
        spec = TBlockSpec.make(g, list(g.elements()), [(from_generators(d), gi) for d, gi in comps])
        drawn = 0
        while drawn < 15:
            elems = [rng.choice(spec.g0) for _ in range(rng.randint(0, 5))]
            t = [rng.randint(0, 8) for _ in spec.components]
            e = TBlockElement.make(spec, elems, t)
            if not tblock_validate(spec, e):
                continue
            drawn += 1
            assert tblock_length_set(spec, e).values == tblock_lengths_by_recursion(spec, e), (facs, elems, t)
            checked += len(tblock_length_set(spec, e).values) > 1
    assert checked  # some drawn element has more than one length
    # t-coordinates of 2**k - 1 fill their packed fields
    spec = TBlockSpec.make(cyclic(2), [(1,)], [(from_generators([2, 3]), (1,)), (from_generators([3, 4]), (0,))])
    for elems, t in (([(1,)], (3, 7)), ([(1,)] * 7, (15, 0)), ([], (0, 15)), ([(1,)] * 3, (7, 31))):
        e = TBlockElement.make(spec, elems, t)
        assert tblock_validate(spec, e)
        assert tblock_length_set(spec, e).values == tblock_lengths_by_recursion(spec, e), (elems, t)


def _random_tblock_spec(rng):
    facs = rng.choice(((1,), (2,), (3,), (4,), (5,), (6,), (2, 2)))
    g = cyclic(facs[0]) if len(facs) == 1 else FiniteAbelianGroup(facs)
    elements = sorted(g.elements())
    g0 = rng.sample(elements, rng.randint(1, len(elements)))
    gens = ([1], [2, 3], [2, 5], [3, 4], [3, 5], [3, 7], [4, 5, 6])
    comps = [(from_generators(rng.choice(gens)), rng.choice(elements)) for _ in range(rng.randint(1, 2))]
    return TBlockSpec.make(g, g0, comps)


def test_tblock_atoms_match_definition_oracle_on_random_specs():
    rng = random.Random(41)
    found = 0
    for _ in range(40):
        spec = _random_tblock_spec(rng)
        block_cap = rng.randint(0, 5)
        t_caps = [rng.randint(0, 8) for _ in spec.components]
        got = tblock_atoms_bounded(spec, block_cap, t_caps).atoms
        assert list(got) == tblock_atoms_by_definition(spec, block_cap, t_caps), (spec, block_cap, t_caps)
        found += len(got)
    assert found > 100


def test_tblock_length_set_matches_recursion_oracle_on_random_specs():
    rng = random.Random(43)
    drawn, several = 0, 0
    while drawn < 80:
        spec = _random_tblock_spec(rng)
        elems = [rng.choice(spec.g0) for _ in range(rng.randint(0, 5))]
        e = TBlockElement.make(spec, elems, [rng.randint(0, 8) for _ in spec.components])
        if not tblock_validate(spec, e):
            continue
        drawn += 1
        values = tblock_length_set(spec, e).values
        assert values == tblock_lengths_by_recursion(spec, e), (spec, e)
        several += len(values) > 1
    assert several  # some drawn element has more than one length


def test_deep_elements_need_no_recursion():
    assert block_length_set(cyclic(2), None, [(1,)] * 2400) == (1200,)
    spec = _c2_spec()
    assert tblock_length_set(spec, TBlockElement.make(spec, [(1,)] * 2400, (0,))).values == (1200,)


def test_tblock_walk_past_the_sweep_cap_is_refused_at_once():
    c6 = cyclic(6)
    spec = TBlockSpec.make(c6, list(c6.elements()), [(from_generators([2, 3]), (1,))])
    with pytest.raises(CapError):
        tblock_atoms_bounded(spec, 30, (10**9,))  # C(36, 30) multisets times 10**9 + 1 vectors
    with pytest.raises(CapError):
        tblock_length_set(spec, TBlockElement.make(spec, [], (6 * 10**9,)))  # 6 * 10**9 + 1 vectors
    assert len(tblock_atoms_bounded(spec, 3, (5,)).atoms) > 0  # C(9, 3) * 6 candidates: well under the cap


def test_pool_tblock_answers_match_their_references(monkeypatch):
    # perfbench/pool.json holds the benchmark's questions with reference answers; it is read, not edited
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import check
    import worker

    pool = json.loads((bench / "pool.json").read_text())
    queries = [q for qs in pool["classes"].values() for q in qs if q.get("lib") in ("tblock_lengths", "tblock_atoms")]
    assert sorted(q["lib"] for q in queries) == ["tblock_atoms"] * 10 + ["tblock_lengths"] * 10
    for query in queries:
        code, out, err = worker.answer(query)
        assert check.check(query, code, out, err) is None, query["args"]
