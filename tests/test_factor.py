import itertools
import json
import random

import pytest

from tests_support_random import random_numerical_monoid

from wktoolkit import blocks, factor
from wktoolkit.affine import direct_sum
from wktoolkit.errors import CapError, InputError
from wktoolkit.factor import (
    CELLS_CAP,
    FACTORIZATIONS_CAP,
    WINDOW_CAP,
    _factorization_count,
    affine_length_set,
    delta_monoid_bounded,
    delta_of,
    factorizations,
    length_masks,
    length_set,
    lengths_of,
    uk_bounded,
)
from wktoolkit.groups import cyclic
from wktoolkit.numon import from_generators


def _oracle_factorizations(atoms, n):
    # independent enumeration by plain nested search over bounded boxes
    out = []
    ranges = [range(n // a + 1) for a in atoms]
    for combo in itertools.product(*ranges):
        if sum(x * a for x, a in zip(combo, atoms)) == n:
            out.append(combo)
    return sorted(out)


def test_factorizations_contract_examples():
    s = from_generators([2, 3])
    facs = [f.exponents for f in factorizations(s, 6)]
    assert facs == [(0, 2), (3, 0)]
    assert set(facs) == set(_oracle_factorizations((2, 3), 6))

    assert [f.exponents for f in factorizations(s, 0)] == [(0, 0)]

    s35 = from_generators([3, 5])
    facs15 = [f.exponents for f in factorizations(s35, 15)]
    assert set(facs15) == {(5, 0), (0, 3)}
    assert set(facs15) == set(_oracle_factorizations((3, 5), 15))

    with pytest.raises(InputError, match=r"^1 is not in <2,3>$"):
        factorizations(s, 1)


def test_factorizations_order_and_evaluation():
    s = from_generators([3, 4, 5])
    for n in (12, 17, 23):
        facs = factorizations(s, n)
        exps = [f.exponents for f in facs]
        assert exps == sorted(exps)  # lexicographic, deterministic
        assert exps == _oracle_factorizations((3, 4, 5), n)
        for f in facs:
            assert f.evaluate(s.atoms) == n
            assert f.length == sum(f.exponents)


def test_length_set_contract_examples():
    assert length_set(from_generators([2, 3]), 6) == (2, 3)
    assert length_set(from_generators([3, 5]), 15) == (3, 5)


def test_affine_length_set_contract_example():
    g = direct_sum([from_generators([2, 3]), from_generators([3, 5])])
    assert affine_length_set(g, (6, 15)) == (5, 6, 7, 8)
    with pytest.raises(InputError, match=r"^\(1, 0\) is not in <2,3> \(\+\) <3,5>$"):
        affine_length_set(g, (1, 0))


def test_affine_length_set_sumset_vs_brute_force():
    rng = random.Random(31)
    pool = [[2, 3], [3, 5], [2, 5], [3, 4, 5], [1]]
    for _ in range(200):
        comps = [from_generators(rng.choice(pool)) for _ in range(rng.randint(1, 3))]
        g = direct_sum(comps)
        vec = []
        for s in comps:
            n = rng.randint(0, 20)
            while not s.contains(n):
                n = rng.randint(0, 20)
            vec.append(n)
        got = affine_length_set(g, tuple(vec))
        # oracle: cartesian product of component factorizations
        lengths = {0}
        for s, v in zip(comps, vec):
            part = {sum(c) for c in _oracle_factorizations(s.atoms, v)}
            lengths = {a + b for a in lengths for b in part}
        assert got == tuple(sorted(lengths))


def test_delta_of_contract_examples():
    assert delta_of((2, 3)) == (1,)
    assert delta_of((3, 5)) == (2,)
    assert delta_of((4,)) == ()
    assert delta_of(()) == ()


def test_delta_monoid_bounded_contract_examples():
    res = delta_monoid_bounded(from_generators([2, 3]), 30)
    assert res.values == (1,)
    assert res.complete is False and res.cap == 30
    assert res.atom_gap_gcd == 1

    res0 = delta_monoid_bounded(from_generators([1]), 10)
    assert res0.values == ()
    assert res0.atom_gap_gcd is None

    res35 = delta_monoid_bounded(from_generators([3, 5]), 60)
    assert res35.values == (2,)
    assert res35.atom_gap_gcd == 2

    with pytest.raises(InputError, match=r"^bound 5 is below the conductor 8$"):
        delta_monoid_bounded(from_generators([3, 5]), 5)


def test_min_delta_matches_atom_gap_gcd_at_large_bounds():
    # experimental bound: four times the squared largest atom
    for gens in ([2, 3], [3, 5], [2, 5], [3, 4], [4, 5, 6]):
        s = from_generators(gens)
        bound = 4 * s.atoms[-1] ** 2
        res = delta_monoid_bounded(s, bound)
        if res.values:
            assert min(res.values) == res.atom_gap_gcd


def test_uk_bounded_contract_examples():
    assert uk_bounded(from_generators([1]), 3, 20).values == (3,)

    res = uk_bounded(from_generators([2, 3]), 2, 40)
    vals = res.values
    assert set((2, 3)) <= set(vals)
    assert vals == tuple(range(vals[0], vals[-1] + 1))  # an interval

    res35 = uk_bounded(from_generators([3, 5]), 3, 60)
    assert {3, 5} <= set(res35.values)

    with pytest.raises(InputError):
        uk_bounded(from_generators([2, 3]), 0, 10)


def test_every_element_has_finite_nonempty_length_set():
    for gens in ([2, 3], [3, 5, 7], [4, 6, 9]):
        s = from_generators(gens)
        for n in s.elements_up_to(40):
            ls = length_set(s, n)
            assert ls
            assert ls == (0,) if n == 0 else 0 not in ls


def test_enumeration_byte_stable():
    s = from_generators([3, 4, 5])
    first = json.dumps([f.exponents for f in factorizations(s, 30)])
    second = json.dumps([f.exponents for f in factorizations(s, 30)])
    assert first == second


def _enumerated_length_set(s, n):
    # the oracle: every factorization listed, only the lengths kept
    return tuple(sorted({f.length for f in factorizations(s, n)}))


def test_length_masks_match_factorization_oracle():
    rng = random.Random(2017)
    for _ in range(200):
        s = random_numerical_monoid(rng)
        top = s.conductor + 40
        for n, mask in length_masks(s, top):
            if s.contains(n):
                assert length_set(s, n) == _enumerated_length_set(s, n), (s.atoms, n)
                # masks start at the least possible length, ceil(n / max(atoms))
                assert lengths_of(mask << -(-n // s.atoms[-1])) == length_set(s, n), (s.atoms, n)
            else:
                assert mask == 0, (s.atoms, n)


def test_bounded_unions_match_per_element_oracle():
    rng = random.Random(2006)
    for _ in range(60):
        s = random_numerical_monoid(rng)
        bound = s.conductor + rng.randint(0, 40)
        per_element = [_enumerated_length_set(s, n) for n in s.elements_up_to(bound)]
        deltas = set()
        for ls in per_element:
            deltas.update(delta_of(ls))
        assert delta_monoid_bounded(s, bound).values == tuple(sorted(deltas)), s.atoms
        for k in range(1, 7):
            union = set()
            for ls in per_element:
                if k in ls:
                    union.update(ls)
            assert uk_bounded(s, k, bound).values == tuple(sorted(union)), (s.atoms, k)


def test_uk_is_complete_from_k_times_the_largest_atom():
    # k in L(n) forces n <= k * max(atoms), so no larger bound adds a length
    rng = random.Random(2015)
    for _ in range(60):
        s = random_numerical_monoid(rng)
        k = rng.randint(1, 6)
        top = k * s.atoms[-1]
        bound = top + rng.randint(0, 40)
        at_top, at_bound, at_twice = (uk_bounded(s, k, b) for b in (top, bound, 2 * bound))
        assert at_top.values == at_bound.values == at_twice.values, (s.atoms, k)
        assert at_top.complete and at_bound.complete and at_twice.complete
        assert uk_bounded(s, k, top - 1).complete is False
    assert uk_bounded(from_generators([2, 3]), 2, 6).to_json() == {
        "values": [2, 3],
        "cap": 6,
        "complete": True,
        "note": "complete: k in L(n) forces n <= k * max(atoms) = 6",
    }


def test_affine_length_set_matches_brute_force_on_larger_elements():
    rng = random.Random(61)
    for _ in range(60):
        comps = [random_numerical_monoid(rng, 4) for _ in range(rng.randint(1, 3))]
        g = direct_sum(comps)
        vec = [rng.choice(list(s.elements_up_to(45))) for s in comps]
        lengths = {0}
        for s, v in zip(comps, vec):
            part = {sum(c) for c in _oracle_factorizations(s.atoms, v)}
            lengths = {a + b for a in lengths for b in part}
        assert affine_length_set(g, tuple(vec)) == tuple(sorted(lengths)), (g, vec)


def test_length_invariants_never_enumerate_factorizations(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated every factorization")

    monkeypatch.setattr(factor, "factorizations", refuse)
    monkeypatch.setattr(blocks, "block_factorizations", refuse)
    s = from_generators([3, 5, 7])
    assert length_set(s, 15) == (3, 5)
    assert affine_length_set(direct_sum([from_generators([2, 3]), s]), (6, 15)) == (5, 6, 7, 8)
    assert delta_monoid_bounded(from_generators([3, 5]), 60).values == (2,)
    assert uk_bounded(from_generators([3, 5]), 3, 60).values == (3, 5)
    c3 = cyclic(3)
    assert blocks.block_length_set(c3, None, [(1,)] * 3 + [(2,)] * 3) == (2, 3)
    assert blocks.delta_block_monoid(c3, 9).values == (1,)
    assert blocks.uk_block_monoid(c3, 2, 12).values == (2, 3)


def test_length_dp_caps(monkeypatch):
    # cells: (bound + 1) * len(atoms); window: min(max(atoms), bound + 1) masks
    # of bound // m - ceil(bound / max(atoms)) + 1 bits each
    with pytest.raises(CapError, match=r"^1000002 length-set cells exceed the cap 1000000$"):
        length_set(from_generators([2, 3]), CELLS_CAP // 2)
    with pytest.raises(CapError, match=r"^2000000002 length-set cells exceed the cap 1000000$"):
        delta_monoid_bounded(from_generators([2, 3]), 10**9)
    wide = from_generators([2, 200001])
    assert (300000 + 1) * 2 <= CELLS_CAP < WINDOW_CAP < 200001 * (300000 // 2 - 2 + 1)
    with pytest.raises(CapError, match=r"^a window of 29999949999 bits exceeds the cap 100000000$"):
        uk_bounded(wide, 2, 300000)
    with pytest.raises(InputError, match=r"^199999 is not in <2,200001>$"):  # membership is checked before the caps
        length_set(wide, 199999)
    # the window holds min(max(atoms), bound + 1) masks: 11 here, not 10**9 + 1
    assert length_set(from_generators([2, 10**9 + 1]), 10) == (5,)
    monkeypatch.setattr(factor, "CELLS_CAP", 20)
    assert length_set(from_generators([2, 3]), 9) == (3, 4)
    with pytest.raises(CapError, match=r"^22 length-set cells exceed the cap 20$"):
        length_set(from_generators([2, 3]), 10)
    monkeypatch.setattr(factor, "WINDOW_CAP", 5)
    assert length_set(from_generators([2, 3]), 7) == (3,)  # 3 * (3 - 3 + 1) bits
    with pytest.raises(CapError, match=r"^a window of 6 bits exceeds the cap 5$"):
        length_set(from_generators([2, 3]), 8)  # 3 * (4 - 3 + 1) bits


def test_factorization_count_matches_the_listing():
    rng = random.Random(1995)
    for _ in range(60):
        s = random_numerical_monoid(rng)
        for n in range(s.conductor + 30):
            if s.contains(n):
                assert _factorization_count(s, n)[0] == len(factorizations(s, n)), (s.atoms, n)


def _factorizations_by_recursion(atoms, n):
    # the recursive search the table walk replaced: one level per atom,
    # every exponent tried, lexicographic by construction
    out = []

    def rec(i, remaining, prefix):
        if i == len(atoms) - 1:
            q, r = divmod(remaining, atoms[i])
            if r == 0:
                out.append(prefix + (q,))
            return
        for x in range(remaining // atoms[i] + 1):
            rec(i + 1, remaining - x * atoms[i], prefix + (x,))

    rec(0, n, ())
    return out


def test_factorization_walk_matches_the_recursive_oracle():
    rng = random.Random(2022)
    drawn = 0
    while drawn < 60:
        try:
            s = from_generators(rng.sample(range(4, 31), rng.randint(3, 5)))
        except InputError:  # generators with a common divisor
            continue
        if not 3 <= len(s.atoms) <= 5:
            continue
        drawn += 1
        for n in rng.sample(range(3 * s.conductor + 100), 16):
            if s.contains(n):
                listed = [f.exponents for f in factorizations(s, n)]
                assert listed == _factorizations_by_recursion(s.atoms, n), (s.atoms, n)
                assert _factorization_count(s, n)[0] == len(listed), (s.atoms, n)


def test_a_listing_with_long_dead_branches_walks_only_live_ones():
    # the recursive search tries some 6 * 10**7 exponent triples of 84, 85
    # and 86; every node of the walk leads to a factorization
    s = from_generators([84, 85, 86, 3527])
    listed = factorizations(s, 60000)
    assert len(listed) == _factorization_count(s, 60000)[0] == 18297
    assert all(f.evaluate(s.atoms) == 60000 for f in listed)
    exponents = [f.exponents for f in listed]
    assert exponents == sorted(set(exponents))


def test_factorization_listing_is_capped_before_it_lists():
    s = from_generators([3, 5, 7])
    assert _factorization_count(s, 4576)[0] == 100040 > FACTORIZATIONS_CAP
    with pytest.raises(CapError, match=r"^100040 factorizations exceed the cap 100000$"):
        factorizations(s, 4576)
    with pytest.raises(CapError, match=r"^1000002 factorization-count cells exceed the cap 1000000$"):  # (n + 1) * len(atoms) count cells
        factorizations(s, CELLS_CAP // 3)
    with pytest.raises(InputError, match=r"^1 is not in <2,3>$"):  # membership is checked before the caps
        factorizations(from_generators([2, 3]), 1)
    # just under the cap the listing is the plain lexicographic nested search
    n = 4575
    expected = [
        (x, y, (n - 3 * x - 5 * y) // 7)
        for x in range(n // 3 + 1)
        for y in range((n - 3 * x) // 5 + 1)
        if (n - 3 * x - 5 * y) % 7 == 0
    ]
    assert len(expected) == 99997
    assert [f.exponents for f in factorizations(s, n)] == expected


def test_length_masks_hold_only_the_possible_lengths():
    # every element of <1> has the single length n, so every mask is one bit
    assert {mask for _, mask in length_masks(from_generators([1]), 5000)} == {1}
    assert length_set(from_generators([1]), CELLS_CAP - 1) == (CELLS_CAP - 1,)
    # lengths of n in <3, 5> lie in [ceil(n / 5), n // 3]
    for n, mask in length_masks(from_generators([3, 5]), 300):
        assert mask.bit_length() <= n // 3 - -(-n // 5) + 1, n