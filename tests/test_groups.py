import itertools
import math
import random

import pytest

from wktoolkit.errors import CapError, InputError
from wktoolkit.groups import (
    INF,
    PRIME_TEST_CAP,
    FiniteAbelianGroup,
    Rank1GroupDescriptor,
    SymbolicPrimeClass,
    TorsionFreeGroupDescriptor,
    cyclic,
    integers,
    is_prime,
    is_type_000,
    read_descriptor,
    is_type_000_except_p,
    prime_power_union,
    quotient_structure,
    satisfies_i_prime,
    smith_normal_form,
)
from tests_support_trial_division import trial_division_is_prime


# ---------------------------------------------------------------------------
# finite abelian groups


def test_invariant_factor_validation():
    FiniteAbelianGroup((2, 4))
    with pytest.raises(InputError):
        FiniteAbelianGroup((1,))
    with pytest.raises(InputError):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(InputError):
        FiniteAbelianGroup((2, 3))


def test_group_arithmetic():
    g = FiniteAbelianGroup((2, 4))
    assert g.order == 8
    assert g.zero() == (0, 0)
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 3)) == (1, 1)
    assert g.scale(3, (1, 2)) == (1, 2)
    assert len(list(g.elements())) == 8
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 1)) == 4
    assert str(g) == "C2 x C4"
    assert str(cyclic(1)) == "trivial"


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_contract_examples():
    # identity relations present the trivial group
    res = smith_normal_form([[1, 0], [0, 1]])
    assert res.invariant_factors == () and res.free_rank == 0
    # diag(2,3) presents C6; derived by brute-force enumeration below
    res = smith_normal_form([[2, 0], [0, 3]])
    assert res.invariant_factors == (6,) and res.free_rank == 0
    # no relations leave a free group
    res = smith_normal_form([[0, 0]])
    assert res.invariant_factors == () and res.free_rank == 2
    res = smith_normal_form([], generators=3)
    assert res.invariant_factors == () and res.free_rank == 3
    # diagonal relations that are no divisibility chain
    for diagonal, factors in (((2, 3, 4, 6), (2, 6, 12)), ((4, 6, 9), (6, 36)), ((6, 10, 15), (30, 30))):
        rows = [[d if i == j else 0 for j in range(len(diagonal))] for i, d in enumerate(diagonal)]
        assert smith_normal_form(rows).invariant_factors == factors


def _brute_force_quotient_order(rows, n, modulus):
    # oracle for a finite quotient Z^n / <rows>: the row lattice contains
    # modulus * Z^n whenever modulus kills the quotient, so the quotient is
    # (Z/modulus)^n divided by the subgroup generated by the rows mod
    # modulus, whose size a plain closure walk counts
    zero = (0,) * n
    gens = [tuple(x % modulus for x in r) for r in rows]
    sub = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for r in gens:
                w = tuple((a + b) % modulus for a, b in zip(v, r))
                if w not in sub:
                    sub.add(w)
                    nxt.append(w)
        frontier = nxt
    total = modulus ** n
    assert total % len(sub) == 0
    return total // len(sub)


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_snf_random_full_rank_matches_determinant():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = _det(m)
        if d == 0:
            continue
        res = smith_normal_form(m)
        assert res.free_rank == 0
        assert math.prod(res.invariant_factors) == abs(d)
        for a, b in zip(res.invariant_factors, res.invariant_factors[1:]):
            assert b % a == 0


def test_snf_divisibility_chain_on_rectangles():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(m)
        for a, b in zip(res.invariant_factors, res.invariant_factors[1:]):
            assert b % a == 0
        assert 0 <= res.free_rank <= cols


def test_snf_brute_force_small_quotients():
    # A * adj(A) = det(A) * I puts det(A) * Z^n inside the row lattice, so
    # |det| is a valid modulus for the finite-quotient oracle.
    rng = random.Random(29)
    cases = [[[2, 0], [0, 3]], [[2, 1], [0, 2]], [[3, 0], [0, 3]]]
    for _ in range(40):
        n = rng.choice([1, 2])
        cases.append([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
    for rows in cases:
        n = len(rows[0])
        d = abs(_det(rows))
        if d == 0:
            continue
        res = smith_normal_form(rows)
        assert res.free_rank == 0
        assert math.prod(res.invariant_factors) == _brute_force_quotient_order(rows, n, d)


# ---------------------------------------------------------------------------
# quotient structure


def _cyclic_carrier(n):
    return [(i,) for i in range(n)], lambda a, b: ((a[0] + b[0]) % n,)


def test_quotient_contract_examples():
    c4, op4 = _cyclic_carrier(4)
    assert quotient_structure(c4, op4, [(2,)]) == FiniteAbelianGroup((2,))
    elems = list(itertools.product(range(2), repeat=2))
    op22 = lambda a, b: tuple((x + y) % 2 for x, y in zip(a, b))
    assert quotient_structure(elems, op22, [(1, 1)]) == FiniteAbelianGroup((2,))
    # quotient by the whole carrier is trivial
    assert quotient_structure(c4, op4, [(1,)]) == FiniteAbelianGroup(())


def test_quotient_order_invariant():
    rng = random.Random(3)
    for _ in range(25):
        facs = rng.choice([(4,), (2, 2), (2, 4), (6,), (2, 6), (8,), (3, 3)])
        g = FiniteAbelianGroup(facs)
        elems = list(g.elements())
        gens = [rng.choice(elems) for _ in range(rng.randint(0, 2))]
        q = quotient_structure(elems, g.add, gens)
        sub = {g.zero()}
        frontier = [g.zero()]
        while frontier:
            nxt = []
            for h in frontier:
                for x in gens:
                    y = g.add(h, x)
                    if y not in sub:
                        sub.add(y)
                        nxt.append(y)
            frontier = nxt
        assert q.order * len(sub) == g.order


def test_quotient_full_structure_identification():
    g = FiniteAbelianGroup((2, 4))
    q = quotient_structure(list(g.elements()), g.add, [])
    assert q == g
    # C2 x C2 x C3 as a raw carrier; its invariant factors are (2, 6)
    mods = (2, 2, 3)
    elems = list(itertools.product(*(range(m) for m in mods)))
    add = lambda a, b: tuple((x + y) % m for x, y, m in zip(a, b, mods))
    q2 = quotient_structure(elems, add, [])
    assert q2 == FiniteAbelianGroup((2, 6))


def test_quotient_structure_agrees_with_presentation_route():
    # independent route: G = (+) Z/d_i modulo <gens> is presented by the
    # rows diag(d_i) plus the generators, so its structure also falls out
    # of the Smith normal form
    rng = random.Random(37)
    for _ in range(40):
        facs = rng.choice([(2,), (4,), (2, 2), (2, 4), (6,), (3, 3), (8,), (2, 6)])
        g = FiniteAbelianGroup(facs)
        elems = list(g.elements())
        gens = [rng.choice(elems) for _ in range(rng.randint(0, 3))]
        via_cosets = quotient_structure(elems, g.add, gens)
        rows = [
            [facs[i] if i == j else 0 for j in range(len(facs))] for i in range(len(facs))
        ] + [list(v) for v in gens]
        via_snf = smith_normal_form(rows)
        assert via_snf.free_rank == 0
        assert via_cosets.invariant_factors == via_snf.invariant_factors


def test_quotient_errors():
    c4, op4 = _cyclic_carrier(4)
    with pytest.raises(InputError, match=r"^product of \(1,\) and \(1,\) left the carrier$"):
        quotient_structure([(0,), (1,)], op4, [])  # not closed under mod-4 addition
    with pytest.raises(InputError, match=r"^subgroup generator \(7,\) is not in the carrier$"):
        quotient_structure(c4, op4, [(7,)])  # generator outside carrier
    with pytest.raises(CapError, match=r"^carrier of size 1000001 exceeds cap 1000000$"):
        quotient_structure(range(10 ** 6 + 1), lambda a, b: a, [])


# ---------------------------------------------------------------------------
# torsion-free descriptors


def test_descriptor_validation():
    with pytest.raises(InputError):
        Rank1GroupDescriptor(((4, 1),))  # 4 is not prime
    with pytest.raises(InputError):
        SymbolicPrimeClass(0)
    with pytest.raises(InputError):
        TorsionFreeGroupDescriptor(())


def test_repeated_exception_prime_is_refused():
    # the last entry used to win silently, so 2^inf,2^0 read as the integers
    for exceptions in (((2, INF), (2, 0)), ((3, 1), (2, 1), (3, 1))):
        with pytest.raises(InputError, match="repeated exception prime"):
            Rank1GroupDescriptor(exceptions)
    assert Rank1GroupDescriptor(((5, 1), (2, INF))).exceptions == ((2, INF), (5, 1))


def test_type_000_contract_examples():
    ok, witness = is_type_000(integers())
    assert ok and witness is None
    ok, witness = is_type_000(prime_power_union(2))
    assert not ok
    assert witness.prime == 2 and witness.reason == "prime-with-infinite-cap"
    # exceptions {3: 2, 5: 1} denote (1/45)Z, which is cyclic
    g = TorsionFreeGroupDescriptor((Rank1GroupDescriptor(((3, 2), (5, 1))),))
    ok, witness = is_type_000(g)
    assert ok and witness is None


def test_type_000_except_p_contract_examples():
    g2 = prime_power_union(2)
    ok, witness = is_type_000_except_p(g2, 2)
    assert ok and witness is None
    ok, witness = is_type_000_except_p(g2, 3)
    assert not ok
    assert witness.reason == "condition-ii-failed" and witness.prime == 2
    # symbolic class with finite cap and infinite complement, plus p itself
    # unbounded: the weakened conditions hold at p
    remark2 = TorsionFreeGroupDescriptor(
        (Rank1GroupDescriptor(((2, INF),), SymbolicPrimeClass(3, complement_infinite=True)),)
    )
    ok, witness = is_type_000_except_p(remark2, 2)
    assert ok and witness is None
    assert not satisfies_i_prime(remark2)


def test_i_prime_contract_examples():
    assert satisfies_i_prime(integers())
    assert satisfies_i_prime(prime_power_union(2))
    sym = TorsionFreeGroupDescriptor((Rank1GroupDescriptor((), SymbolicPrimeClass(1)),))
    assert not satisfies_i_prime(sym)


def test_condition_i_fails_when_complement_finite():
    g = TorsionFreeGroupDescriptor(
        (Rank1GroupDescriptor((), SymbolicPrimeClass(2, complement_infinite=False)),)
    )
    ok, witness = is_type_000_except_p(g, 5)
    assert not ok and witness.reason == "condition-i-failed"


def _random_descriptor(rng):
    comps = []
    for _ in range(rng.randint(1, 3)):
        primes = rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 3))
        exceptions = tuple((p, rng.choice([0, 1, 2, INF])) for p in primes)
        symbolic = None
        if rng.random() < 0.4:
            symbolic = SymbolicPrimeClass(rng.choice([1, 3, INF]), rng.random() < 0.7)
        comps.append(Rank1GroupDescriptor(exceptions, symbolic))
    return TorsionFreeGroupDescriptor(tuple(comps))


def test_type_000_implies_except_p_for_all_p():
    rng = random.Random(17)
    for _ in range(300):
        g = _random_descriptor(rng)
        if is_type_000(g)[0]:
            for p in (2, 3, 5, 7, 11):
                assert is_type_000_except_p(g, p)[0]


def test_i_prime_with_ii_implies_i():
    # condition (i') plus (ii) is stronger than (i) plus (ii): whenever a
    # random descriptor satisfies (i') the complement condition (i) holds
    rng = random.Random(19)
    for _ in range(300):
        g = _random_descriptor(rng)
        if satisfies_i_prime(g):
            assert all(c.complement_of_divisible_primes_infinite() for c in g.components)


def test_descriptor_json_round_trip():
    rng = random.Random(23)
    for _ in range(50):
        g = _random_descriptor(rng)
        assert TorsionFreeGroupDescriptor.from_json(g.to_json()) == g


# ---------------------------------------------------------------------------
# primality


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**5 + 1) if is_prime(n)] == [
        n for n in range(10**5 + 1) if trial_division_is_prime(n)
    ]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2, ..., 31
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n) and not trial_division_is_prime(n)
    # a strong pseudoprime to the bases 2, ..., 37 (= 399165290221 *
    # 798330580441), caught by the 13th base, 41
    assert not is_prime(318665857834031151167461)
    assert is_prime(10**12 + 39) and trial_division_is_prime(10**12 + 39)


def test_is_prime_is_fast_on_large_input_and_refuses_past_its_exact_range():
    # trial division alone took about 8 s on the last of these
    for n in (10**14 + 31, 10**16 + 61, 2**61 - 1):
        assert is_prime(n)
    assert not is_prime((10**16 + 61) * (10**6 + 3))
    with pytest.raises(CapError):
        is_prime(2**89 - 1)  # prime, but past PRIME_TEST_CAP
    # the cap is a composite that passes the strong test to all 13 bases
    assert PRIME_TEST_CAP == 1287836182261 * 2575672364521
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        d, s = PRIME_TEST_CAP - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        x = pow(a, d, PRIME_TEST_CAP)
        assert x in (1, PRIME_TEST_CAP - 1) or PRIME_TEST_CAP - 1 in (pow(x, 2**r, PRIME_TEST_CAP) for r in range(s))
    with pytest.raises(CapError):
        is_prime(PRIME_TEST_CAP)


def test_read_descriptor_reads_the_grammar():
    assert read_descriptor("z") == integers()
    assert read_descriptor("z+z") == integers(2)
    assert read_descriptor("2^inf") == prime_power_union(2)
    assert read_descriptor("3^2, 2^inf ,sym^inf~fin") == TorsionFreeGroupDescriptor(
        (Rank1GroupDescriptor(((2, INF), (3, 2)), SymbolicPrimeClass(INF, complement_infinite=False)),)
    )
    for bad in ("2", "x^1", "2^x", "sym^0", "4^1"):
        with pytest.raises(InputError):
            read_descriptor(bad)
