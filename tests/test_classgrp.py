import itertools
import random

import pytest
from tests_support_random import random_numerical_monoid

from wktoolkit.classgrp import (
    ClassGroupResult,
    DirectSumClassGroup,
    _denominator,
    _extend,
    cv_direct_sum,
    cv_numerical_ring,
    truncated_unit_group,
)
from wktoolkit.decide import custom_domain, prime_field, read_domain
from wktoolkit.errors import CapError, InputError
from wktoolkit.groups import FiniteAbelianGroup, smith_normal_form
from wktoolkit.numon import enumerate_numerical_monoids, from_generators


def _oracle_unit_quotient(p, c, monoid_members):
    """Independent coset enumeration with its own polynomial arithmetic.

    Returns (quotient order, multiset of coset orders).
    """

    def mul(u, v):
        full = [0] * c
        a = (1,) + u
        b = (1,) + v
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i + j < c:
                    full[i + j] = (full[i + j] + ai * bj) % p
        return tuple(full[1:])

    elements = list(itertools.product(range(p), repeat=c - 1))
    gens = []
    for s in monoid_members:
        if 0 < s < c:
            for alpha in range(1, p):
                u = [0] * (c - 1)
                u[s - 1] = alpha
                gens.append(tuple(u))
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
    cosets = {}
    reps = []
    for e in elements:
        if e in cosets:
            continue
        cid = len(reps)
        reps.append(e)
        for h in sub:
            cosets[mul(e, h)] = cid
    ident_cid = cosets[tuple([0] * (c - 1))]
    orders = []
    for r in reps:
        y = r
        k = 1
        while cosets[y] != ident_cid:
            y = mul(y, r)
            k += 1
        orders.append(k)
    return len(reps), sorted(orders)


def _closure(op, seed):
    """Breadth-first closure of ``seed`` under ``op``: in a finite group, the
    subgroup the seed generates (empty for an empty seed)."""
    gens = list(seed)
    out = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = op(x, g)
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


def _generators_by_closure(u, units):
    """The quotient generators picked as ``cv_numerical_ring`` picks them,
    first element of the unit group outside the subgroup so far, with the
    subgroup closed off again over all units and picks after every pick."""
    current = _closure(u.op, units) if units else {u.identity}
    chosen, descriptions = [], []
    for cand in u.elements:
        if len(current) == u.order:
            break
        if cand not in current:
            chosen.append(cand)
            descriptions.append(u.describe(cand))
            current = _closure(u.op, units + chosen)
    return tuple(descriptions)


def test_extend_matches_the_closure_oracle_on_finite_abelian_groups():
    rng = random.Random(20)
    for factors in ((2, 4), (3, 9), (2, 2, 4)):
        group = FiniteAbelianGroup(factors)
        elems = list(group.elements())
        for _ in range(40):
            seed = rng.sample(elems, rng.randint(1, 3))
            sub = _closure(group.add, seed)
            grown = {group.zero()}
            for x in seed:
                grown = _extend(group.add, grown, x)
            assert grown == sub, (factors, seed)
            g = rng.choice(elems)
            assert _extend(group.add, sub, g) == _closure(group.add, seed + [g]), (factors, seed, g)
            assert _extend(group.add, sub, rng.choice(sorted(sub))) is sub


def test_denominator_and_generators_match_the_closure_oracle():
    # one monoid from each point-queries class-group band (F_2 at conductor
    # 12, F_3 and F_5 at 6, F_2 at 10), then random ones with p^(c - 1) <= 5000
    cases = [(2, [3, 13, 14]), (3, [3, 4]), (5, [3, 4]), (2, [4, 6, 11, 13])]
    rng = random.Random(20)
    while len(cases) < 24:
        p, s = rng.choice((2, 3, 5, 7)), random_numerical_monoid(rng)
        if s.conductor and p ** (s.conductor - 1) <= 5000:
            cases.append((p, list(s.atoms)))
    for p, atoms in cases:
        s = from_generators(atoms)
        u = truncated_unit_group(p, s.conductor)
        units, denom = _denominator(u, s)
        members = [t for t in range(1, s.conductor) if s.contains(t)]
        assert units == [u.unit_with_term(alpha, t) for t in members for alpha in range(1, p)]
        assert denom == (_closure(u.op, units) if units else {u.identity}), (p, atoms)
        assert cv_numerical_ring(p, s).generators == _generators_by_closure(u, units), (p, atoms)


def test_truncated_unit_group_contract_examples():
    u = truncated_unit_group(2, 2)
    assert u.order == 2
    assert truncated_unit_group(3, 1).order == 1
    assert truncated_unit_group(3, 3).order == 9
    with pytest.raises(CapError, match=r"^unit group of order 2\^21 exceeds cap 1000000$"):
        truncated_unit_group(2, 22)
    with pytest.raises(InputError):
        truncated_unit_group(4, 2)


def test_unit_group_cap_is_checked_before_the_power():
    class Prime(int):
        def __pow__(self, exponent):
            raise AssertionError(f"computed p^{exponent}")

    # at conductor 999,000 the power over 10^16 + 61 has about 53 million bits
    message = r"^unit group of order 10000000000000061\^998999 exceeds cap 1000000$"
    with pytest.raises(CapError, match=message):
        truncated_unit_group(Prime(10000000000000061), 999_000)
    with pytest.raises(CapError, match=message):
        cv_numerical_ring(10000000000000061, from_generators([1000, 1001]))
    # at the cap's bit length the power itself decides
    assert truncated_unit_group(2, 20).order == 2**19
    with pytest.raises(CapError, match=r"^unit group of order 2\^20 exceeds cap 1000000$"):
        truncated_unit_group(2, 21)


def test_truncated_unit_group_is_a_group():
    u = truncated_unit_group(3, 3)
    elems = u.elements
    ident = u.identity
    # closure plus an identity plus inverses via finiteness
    for a in elems:
        assert u.op(a, ident) == a
        assert any(u.op(a, b) == ident for b in elems)


def test_cv_cusp_contract_examples():
    for p in (2, 3, 5):
        res = cv_numerical_ring(p, from_generators([2, 3]))
        assert res.group == FiniteAbelianGroup((p,))
        assert res.order == p
        order, orders = _oracle_unit_quotient(p, 2, [])
        assert order == p
        assert max(orders) == p  # cyclic


def test_cv_2_5_contract_example():
    res = cv_numerical_ring(2, from_generators([2, 5]))
    assert res.group == FiniteAbelianGroup((2, 2))
    order, orders = _oracle_unit_quotient(2, 4, [2])
    assert order == 4
    assert max(orders) == 2  # no element of order 4: C2 x C2


def test_cv_free_monoid_trivial():
    res = cv_numerical_ring(7, from_generators([1]))
    assert res.group == FiniteAbelianGroup(())
    assert not res.infinite


def test_cv_order_divides_unit_group_order():
    for p in (2, 3):
        for gens in ([2, 3], [2, 5], [3, 4, 5], [3, 5]):
            s = from_generators(gens)
            res = cv_numerical_ring(p, s)
            assert p ** (max(s.conductor, 1) - 1) % res.order == 0


def test_cv_order_is_p_to_the_gap_count():
    # the denominator subgroup consists of 1 + (span of monoid monomials
    # below the conductor), so the quotient order is p to the number of
    # gaps; a sharp structural law the coset enumeration must reproduce
    for p in (2, 3):
        for gens in ([2, 3], [2, 5], [3, 4, 5], [3, 5], [2, 7]):
            s = from_generators(gens)
            res = cv_numerical_ring(p, s)
            assert res.order == p ** len(s.gaps)
    # one larger conductor, kept to the fast prime
    s = from_generators([4, 6, 9])
    assert cv_numerical_ring(2, s).order == 2 ** len(s.gaps)


def test_cv_matches_oracle_on_family():
    for p, gens in ((2, [2, 7]), (3, [2, 5]), (2, [3, 4, 5]), (5, [2, 3])):
        s = from_generators(gens)
        res = cv_numerical_ring(p, s)
        members = [n for n in range(1, s.conductor) if s.contains(n)]
        order, orders = _oracle_unit_quotient(p, s.conductor, members)
        assert res.order == order
        # exponent of the quotient equals the largest invariant factor
        exponent = max(orders)
        assert (res.group.invariant_factors or (1,))[-1] == exponent


def _discrete_log(p, c, u):
    """Coordinates b_m (p not dividing m < c) of u = 1 + u_1 X + ... in
    1 + X F_p[X]/(X^c), where u = prod (1 - X^m)^(b_m).  The lowest term
    a X^k, k = m p^j, is peeled off by multiplying by (1 - X^m)^(a p^j),
    which is (1 - X^k)^a in characteristic p."""
    v, log = [1, *u], {m: 0 for m in range(1, c) if m % p}
    for k in range(1, c):
        a = v[k]
        for _ in range(a):  # v *= 1 - X^k, truncated
            for i in range(c - 1, k - 1, -1):
                v[i] = (v[i] - v[i - k]) % p
        m, pj = k, 1
        while m % p == 0:
            m, pj = m // p, pj * p
        log[m] -= a * pj
    return log


def _class_group_by_discrete_logs(p, s):
    """The invariant factors of the unit quotient by Smith normal form: the
    generator 1 - X^m has order p^(e_m), e_m least with m p^e >= c, and the
    relations are the logs of 1 + alpha X^t for t in s, 0 < t < c."""
    c = s.conductor
    ms = [m for m in range(1, c) if m % p]
    rows = []
    for i, m in enumerate(ms):
        e = 0
        while m * p**e < c:
            e += 1
        rows.append([p**e if j == i else 0 for j in range(len(ms))])
    for t in range(1, c):
        if s.contains(t):
            for alpha in range(1, p):
                log = _discrete_log(p, c, [alpha if i == t else 0 for i in range(1, c)])
                rows.append([log[m] for m in ms])
    return smith_normal_form(rows, len(ms)).invariant_factors


def test_discrete_log_oracle_reads_the_coordinates():
    # (1 - X)^3 (1 - X^2) over F_5 mod X^4 is 1 + 2X + 2X^2 + 2X^3; each
    # 1 - X^m has order 5 there
    log = _discrete_log(5, 4, [2, 2, 2])
    assert {m: b % 5 for m, b in log.items()} == {1: 3, 2: 1, 3: 0}
    # over F_2 mod X^4, 1 - X^2 = (1 - X)^2, where 1 - X has order 4
    log = _discrete_log(2, 4, [0, 1, 0])
    assert (log[1] % 4, log[3] % 2) == (2, 0)


def test_cv_invariant_factors_match_discrete_log_oracle():
    # every monoid with Frobenius number <= 9 whose unit group p^(c - 1) has at most 128 elements
    cases = 0
    for s in enumerate_numerical_monoids(9):
        for p in (2, 3, 5):
            if s.conductor and p ** (s.conductor - 1) <= 128:
                cases += 1
                expected = _class_group_by_discrete_logs(p, s)
                assert cv_numerical_ring(p, s).group.invariant_factors == expected, (p, s)
    assert cases == 36


def test_class_group_result_validation():
    with pytest.raises(InputError):
        ClassGroupResult(group=None, infinite=False, method="x")
    with pytest.raises(InputError):
        ClassGroupResult(group=None, infinite=True, method="x", citation=None)
    with pytest.raises(InputError):
        ClassGroupResult(group=FiniteAbelianGroup(()), infinite=True, method="x", citation="rule")


def test_cv_direct_sum_contract_examples():
    q = read_domain("q")
    # one proper component over an infinite pseudo-Hilbertian field
    single = cv_direct_sum([from_generators([2, 3])], q)
    assert isinstance(single, ClassGroupResult)
    assert single.infinite and single.citation

    # two free components stay trivial
    free = from_generators([1])
    both = cv_direct_sum([free, free], prime_field(3))
    assert isinstance(both, DirectSumClassGroup)
    assert not both.is_infinite
    assert both.combined_finite_group() == FiniteAbelianGroup(())

    # proper plus free over a function field: INFINITE (+) trivial
    mixed = cv_direct_sum([from_generators([2, 3]), free], q)
    assert mixed.is_infinite
    assert [c.infinite for c in mixed.components] == [True, False]
    assert str(mixed) == "INFINITE (+) trivial"


def test_cv_direct_sum_marks_infinite_even_over_finite_ground_field():
    # with two summands the components are read over a function field,
    # which is infinite and pseudo-Hilbertian whatever the ground field
    comp = from_generators([2, 3])
    res = cv_direct_sum([comp, comp], prime_field(2))
    assert res.is_infinite
    assert all(c.infinite for c in res.components)


def test_cv_direct_sum_single_prime_field_computes():
    res = cv_direct_sum([from_generators([2, 3])], prime_field(5))
    assert res.group == FiniteAbelianGroup((5,))
    assert res == cv_numerical_ring(5, from_generators([2, 3]))


def test_cv_direct_sum_identity_and_errors():
    with pytest.raises(InputError, match=r"^direct sum of no components$"):
        cv_direct_sum([], prime_field(2))
    # a free monoid has a polynomial ring, trivial class group, over any domain
    assert cv_direct_sum([from_generators([1])], read_domain("z")).group == FiniteAbelianGroup(())
    # INFINITE needs a field known to be infinite and pseudo-Hilbertian:
    # neither an order nor Z is a field, and a custom domain says nothing
    # about being one unless its flags do
    proper = from_generators([2, 3])
    for domain in (
        read_domain("order"),
        read_domain("z"),
        custom_domain(infinite=True, pseudo_hilbertian=True),
        read_domain("field:char=0"),
    ):
        with pytest.raises(InputError, match=domain.name):
            cv_direct_sum([proper], domain)
    field = custom_domain(is_field=True, infinite=True, pseudo_hilbertian=True)
    assert cv_direct_sum([proper], field).infinite
