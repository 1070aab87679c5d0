"""Acceptance suite: one test per criterion, each printing a pass/fail line
(visible with ``pytest -s``).  Every derived expectation is recomputed here
by an independent oracle before being asserted against the library.
"""

import contextlib
import itertools
import json
import random

from wktoolkit import cli
from wktoolkit.affine import direct_sum
from wktoolkit.blocks import (
    Block,
    block_length_set,
    davenport_constant,
    delta_block_monoid,
    minimal_zero_sum_atoms,
    uk_block_monoid,
)
from wktoolkit.classgrp import cv_numerical_ring
from wktoolkit.decide import (
    custom_domain,
    custom_monoid,
    decide_generalized_krull,
    decide_weakly_krull,
    decide_wfd,
    kg_weakly_krull,
    numerical_monoid_descriptor,
    prime_field,
    read_domain,
)
from wktoolkit.factor import affine_length_set, delta_of, length_set
from wktoolkit.groups import (
    INF,
    FiniteAbelianGroup,
    Rank1GroupDescriptor,
    SymbolicPrimeClass,
    TorsionFreeGroupDescriptor,
    cyclic,
    integers,
    is_type_000,
    is_type_000_except_p,
    prime_power_union,
    satisfies_i_prime,
)
from wktoolkit.hilbertian import find_irreducible_with_prefix
from wktoolkit.numon import (
    apery_set,
    enumerate_numerical_monoids,
    from_generators,
    ideal_from_generators,
    is_seminormal,
    is_t_invertible,
    principal_ideal,
    unique_maximal_ideal,
    v_closure,
)
from tests_support_trial_division import trial_division_irreducible


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _oracle_solutions(atoms, n):
    out = []
    for combo in itertools.product(*(range(n // a + 1) for a in atoms)):
        if sum(x * a for x, a in zip(combo, atoms)) == n:
            out.append(combo)
    return sorted(out)


def test_criterion_1_numerical_monoid_suite():
    with criterion("1 numerical-monoid suite"):
        s23 = from_generators([2, 3])
        assert s23.frobenius == 1
        assert s23.gaps == (1,)
        assert apery_set(s23, 2) == (0, 3)
        oracle6 = {sum(c) for c in _oracle_solutions((2, 3), 6)}
        assert oracle6 == {2, 3}
        assert length_set(s23, 6) == (2, 3)

        s35 = from_generators([3, 5])
        oracle15 = {sum(c) for c in _oracle_solutions((3, 5), 15)}
        assert oracle15 == {3, 5}
        assert length_set(s35, 15) == (3, 5)
        assert delta_of(length_set(s35, 15)) == (2,)


def test_criterion_2_ideal_machinery():
    with criterion("2 ideal machinery"):
        for s in enumerate_numerical_monoids(15):
            m = unique_maximal_ideal(s)
            assert v_closure(m) == m  # divisorial
            assert is_t_invertible(m) == s.is_free
        sample = [from_generators(g) for g in ([2, 3], [3, 5], [2, 7], [3, 4, 5], [4, 6, 9])]
        for s in sample:
            for g in (-4, 0, 6):
                p = principal_ideal(s, g)
                assert v_closure(p) == p
        rng = random.Random(101)
        monoids = list(enumerate_numerical_monoids(9))
        for _ in range(500):
            s = rng.choice(monoids)
            gens = [rng.randint(-8, 20) for _ in range(rng.randint(1, 4))]
            i = ideal_from_generators(s, gens)
            v = v_closure(i)
            assert v_closure(v) == v
            for x in i.elements_below(i.threshold + 1):
                assert v.contains(x)


def test_criterion_3_seminormality_collapse():
    with criterion("3 seminormality collapse"):
        for s in enumerate_numerical_monoids(15):
            ok, witness = is_seminormal(s)
            assert ok == (s.gaps == ())
            if not ok:
                assert s.contains(2 * witness) and s.contains(3 * witness)


def test_criterion_4_block_monoid_suite():
    with criterion("4 block-monoid suite"):
        c2, c3, c4 = cyclic(2), cyclic(3), cyclic(4)
        assert len(minimal_zero_sum_atoms(c3)) == 4
        b = Block.make(c3, [(1,), (1,), (1,), (2,), (2,), (2,)])
        assert block_length_set(c3, None, b) == (2, 3)
        assert davenport_constant(c3) == 3
        assert davenport_constant(FiniteAbelianGroup((2, 2))) == 3
        assert delta_block_monoid(c2, 12).values == ()
        assert delta_block_monoid(c3, 12).values == (1,)
        assert delta_block_monoid(c4, 12).values == (1, 2)
        u2 = uk_block_monoid(c3, 2, 12).values
        assert u2 == (2, 3)
        assert u2 == tuple(range(u2[0], u2[-1] + 1))  # an interval


def _oracle_unit_quotient(p, c, members):
    # independent full coset enumeration of the truncated unit quotient
    def mul(u, v):
        full = [0] * c
        a, b = (1,) + u, (1,) + v
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i + j < c:
                    full[i + j] = (full[i + j] + ai * bj) % p
        return tuple(full[1:])

    elements = list(itertools.product(range(p), repeat=c - 1))
    gens = [
        tuple(alpha if k == s - 1 else 0 for k in range(c - 1))
        for s in members
        for alpha in range(1, p)
    ]
    sub = {tuple([0] * (c - 1))}
    frontier = list(sub)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                x = mul(h, g)
                if x not in sub:
                    sub.add(x)
                    nxt.append(x)
        frontier = nxt
    cosets, reps = {}, []
    for e in elements:
        if e in cosets:
            continue
        cid = len(reps)
        reps.append(e)
        for h in sub:
            cosets[mul(e, h)] = cid
    ident = cosets[tuple([0] * (c - 1))]
    orders = []
    for r in reps:
        y, k = r, 1
        while cosets[y] != ident:
            y, k = mul(y, r), k + 1
        orders.append(k)
    return len(reps), sorted(orders)


def test_criterion_5_class_groups():
    with criterion("5 class groups"):
        for p in (2, 3, 5):
            res = cv_numerical_ring(p, from_generators([2, 3]))
            order, orders = _oracle_unit_quotient(p, 2, [])
            assert order == p and max(orders) == p  # cyclic of order p
            assert res.group == FiniteAbelianGroup((p,))
        res25 = cv_numerical_ring(2, from_generators([2, 5]))
        order, orders = _oracle_unit_quotient(2, 4, [2])
        assert order == 4 and max(orders) == 2  # Klein four group
        assert res25.group == FiniteAbelianGroup((2, 2))


def test_criterion_6_group_types():
    with criterion("6 group types"):
        assert is_type_000(integers())[0]
        g2 = prime_power_union(2)
        ok, witness = is_type_000(g2)
        assert not ok and witness.prime == 2
        assert is_type_000_except_p(g2, 2)[0]
        ok3, witness3 = is_type_000_except_p(g2, 3)
        assert not ok3 and witness3.prime == 2
        remark2 = TorsionFreeGroupDescriptor(
            (Rank1GroupDescriptor(((2, INF),), SymbolicPrimeClass(3, complement_infinite=True)),)
        )
        assert is_type_000_except_p(remark2, 2)[0]
        assert not satisfies_i_prime(remark2)


def test_criterion_7_decision_engine():
    with criterion("7 decision engine"):
        z = read_domain("z")
        for s in enumerate_numerical_monoids(12):
            assert decide_weakly_krull(z, numerical_monoid_descriptor(s)).answer is True

        m23 = numerical_monoid_descriptor(from_generators([2, 3]))
        m469 = numerical_monoid_descriptor(from_generators([4, 6, 9]))
        n0 = numerical_monoid_descriptor(from_generators([1]))
        g2 = prime_power_union(2)
        custom2 = custom_monoid(g2, weakly_krull=True, umt=True)

        scenarios = [
            (z, m23, decide_weakly_krull, True),
            (z, n0, decide_wfd, True),
            (z, m23, decide_wfd, False),
            (prime_field(3), n0, decide_generalized_krull, True),
            (prime_field(3), m23, decide_generalized_krull, False),
            (prime_field(2), custom2, decide_weakly_krull, True),
            (read_domain("field:char=0"), custom2, decide_weakly_krull, False),
            (read_domain("order"), m23, decide_weakly_krull, True),
            (z, m469, decide_weakly_krull, True),
            (custom_domain(characteristic=0), n0, decide_wfd, None),
        ]
        assert len(scenarios) >= 8
        for d, m, op, expected in scenarios:
            verdict = op(d, m)
            assert verdict.answer is expected
            # monotone consistency: a true verdict forces the group lemma
            if verdict.answer is True and d.characteristic is not None:
                assert kg_weakly_krull(d.characteristic, m.group).answer is True

        wfd_false = decide_wfd(z, m23)
        gcd_steps = [s for s in wfd_false.certificate if s.rule == "monoid-gcd-iff-root-closed"]
        assert gcd_steps and "witness gap 1" in gcd_steps[0].outcome

        from tests_support_random import random_domain, random_monoid

        rng = random.Random(211)
        hits = 0
        for _ in range(200):
            d = random_domain(rng)
            m = random_monoid(rng)
            if decide_wfd(d, m).answer is True:
                hits += 1
                assert decide_weakly_krull(d, m).answer is True
        assert hits > 0


def test_criterion_8_sumset_law():
    with criterion("8 sumset law"):
        rng = random.Random(77)
        pool = [[2, 3], [3, 5], [2, 5], [3, 4, 5], [1]]
        for _ in range(200):
            comps = [from_generators(rng.choice(pool)) for _ in range(rng.randint(1, 3))]
            g = direct_sum(comps)
            vec = []
            for s in comps:
                n = rng.randint(0, 18)
                while not s.contains(n):
                    n = rng.randint(0, 18)
                vec.append(n)
            got = affine_length_set(g, tuple(vec))
            lengths = {0}
            for s, v in zip(comps, vec):
                part = {sum(c) for c in _oracle_solutions(s.atoms, v)}
                lengths = {a + b for a in lengths for b in part}
            assert got == tuple(sorted(lengths))


def test_criterion_9_pseudo_hilbertian_witnesses():
    with criterion("9 pseudo-Hilbertian witnesses"):
        for p in (2, 3, 5):
            prefixes = []
            for length in (1, 2, 3):
                for tail in itertools.product(range(p), repeat=length - 1):
                    for a0 in range(1, p):
                        prefixes.append((a0,) + tail)
            for pre in prefixes:
                w = find_irreducible_with_prefix(p, pre, 12)
                assert w is not None, (p, pre)
                assert w.degree <= 12
                assert w.coefficients[: len(pre)] == pre
                assert trial_division_irreducible(w)  # independent oracle


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion("10 determinism"):
        invocations = [
            ["numon", "info", "--gens", "4,6,9"],
            ["affine", "info", "--gens", "2,3;3,5"],
            ["factor", "lengths", "--gens", "2,3", "--element", "6"],
            ["blocks", "delta", "--group", "4", "--cap", "10"],
            ["classgroup", "numerical", "--p", "2", "--gens", "2,5"],
            ["decide", "weakly-krull", "--domain", "z", "--monoid", "numerical:2,3"],
            ["hilbertian", "find", "--p", "3", "--prefix", "1,0", "--max-degree", "6"],
            ["groups", "type000-except", "--desc", "2^inf", "--p", "2"],
        ]
        for argv in invocations:
            code1 = cli.run(argv)
            out1 = capsys.readouterr().out
            code2 = cli.run(argv)
            out2 = capsys.readouterr().out
            assert (code1, out1) == (code2, out2)

            cached = argv + ["--cache-dir", str(tmp_path)]
            code3 = cli.run(cached)
            out3 = capsys.readouterr().out
            code4 = cli.run(cached)  # warm hit
            out4 = capsys.readouterr().out
            assert out3 == out1  # cache does not change payloads
            assert (code3, out3) == (code4, out4)
            json.loads(out1)
