import json
import math
import random

import pytest

from wktoolkit import numon
from wktoolkit.errors import CapError, InputError
from wktoolkit.numon import (
    MULTIPLICITY_CAP,
    MonoidIdeal,
    apery_set,
    enumerate_numerical_monoids,
    from_gaps,
    from_generators,
    ideal_add,
    ideal_dual,
    ideal_from_generators,
    is_seminormal,
    is_t_invertible,
    is_valuation,
    make_ideal,
    monoid_as_ideal,
    principal_ideal,
    unique_maximal_ideal,
    v_closure,
)


def _brute_force_membership(gens, n, depth=None):
    # oracle: n is in <gens> iff n = 0 or n - g is for some generator
    if n < 0:
        return False
    if n == 0:
        return True
    return any(_brute_force_membership(gens, n - g) for g in gens)


# ---------------------------------------------------------------------------
# construction


def test_from_generators_contract_examples():
    s = from_generators([2, 3])
    assert s.atoms == (2, 3)
    assert s.frobenius == 1
    assert s.gaps == (1,)
    assert s.conductor == 2

    n0 = from_generators([1])
    assert n0.atoms == (1,)
    assert n0.frobenius == -1
    assert n0.gaps == ()
    assert n0.conductor == 0

    s469 = from_generators([4, 6, 9])
    assert s469.atoms == (4, 6, 9)
    assert s469.frobenius == 11
    # cross-check by membership scan against the recursive oracle
    for n in range(0, 30):
        assert s469.contains(n) == _brute_force_membership([4, 6, 9], n)


def test_from_generators_drops_redundant_generators():
    s = from_generators([2, 4, 3, 6])
    assert s.atoms == (2, 3)


def test_sieve_bound_extension_regression():
    # the product of the two smallest generators is NOT a safe bound here;
    # the verified-run sieve must extend past it
    s = from_generators([4, 6, 101])
    assert s.frobenius == 103
    assert not s.contains(103)
    assert all(s.contains(n) for n in range(104, 140))


def _atoms_from_reach(reach, multiplicity: int, conductor: int) -> tuple[int, ...]:
    # an atom n > multiplicity satisfies n < conductor + multiplicity,
    # since otherwise n - multiplicity >= conductor is a nonzero member
    hi = conductor + multiplicity - 1
    atoms = []
    for n in range(multiplicity, hi + 1):
        if not reach[n]:
            continue
        if any(reach[x] and reach[n - x] for x in range(multiplicity, n - multiplicity + 1)):
            continue
        atoms.append(n)
    return tuple(atoms)


def _sieve_reference(gens):
    """Oracle: atoms, Frobenius number, gaps and the membership table of
    <gens> by sieving the representable integers.  The sieve runs until the
    top min(gens) consecutive integers are all representable; past such a
    run everything is representable."""
    gen_list = sorted(set(gens))
    if gen_list[0] == 1:
        return (1,), -1, (), bytearray([1])
    a = gen_list[0]
    bound = gen_list[0] * gen_list[1] + gen_list[-1] + 1
    while True:
        reach = bytearray(bound + 1)
        reach[0] = 1
        for n in range(gen_list[0], bound + 1):
            for g in gen_list:
                if g > n:
                    break
                if reach[n - g]:
                    reach[n] = 1
                    break
        if all(reach[bound - a + 1 : bound + 1]):
            break
        bound *= 2
    frobenius = max(n for n in range(bound + 1) if not reach[n])
    gaps = tuple(n for n in range(1, frobenius + 1) if not reach[n])
    return _atoms_from_reach(reach, a, frobenius + 1), frobenius, gaps, reach


def test_apery_construction_matches_sieve_oracle():
    rng = random.Random(2007)
    for _ in range(200):
        m = rng.randint(1, 40)
        gens = [m]
        while math.gcd(*gens) != 1 or len(gens) < 2:
            gens.append(rng.randint(m + 1, 3 * m + 20))
        # redundant generators: sums of two generators and multiples of m
        gens += [rng.choice(gens) + rng.choice(gens) for _ in range(rng.randint(0, 2))]
        gens += [m * rng.randint(2, 4) for _ in range(rng.randint(0, 1))]
        rng.shuffle(gens)
        s = from_generators(gens)
        atoms, frobenius, gaps, reach = _sieve_reference(gens)
        assert s.atoms == atoms, gens
        assert (s.frobenius, s.conductor) == (frobenius, frobenius + 1), gens
        assert s.gaps == gaps, gens
        top = s.conductor + m
        assert [n for n in range(top + 1) if s.contains(n)] == [
            n for n in range(top + 1) if n >= len(reach) or reach[n]
        ], gens
        assert from_gaps(s.gaps) == s, gens


def test_multiplicity_cap():
    with pytest.raises(CapError, match=r"^multiplicity 100001 exceeds the cap 100000$"):
        from_generators([MULTIPLICITY_CAP + 1, MULTIPLICITY_CAP + 2])
    s = from_generators([MULTIPLICITY_CAP, MULTIPLICITY_CAP + 1])
    assert s.frobenius == MULTIPLICITY_CAP * (MULTIPLICITY_CAP + 1) - 2 * MULTIPLICITY_CAP - 1


def test_gap_cap(monkeypatch):
    # <a,b> has (a-1)(b-1)/2 gaps; the cap is checked on that count before listing
    monkeypatch.setattr(numon, "GAPS_CAP", 6)
    assert len(from_generators([4, 5]).gaps) == 6
    with pytest.raises(CapError, match=r"^9 gaps exceed the cap 6$"):
        from_generators([4, 7]).gaps


def test_from_generators_errors():
    with pytest.raises(InputError, match=r"^no generators given$"):
        from_generators([])
    with pytest.raises(InputError, match=r"^gcd of \[4, 6\] is 2, not 1$"):
        from_generators([4, 6])
    with pytest.raises(InputError, match=r"^generator 0 is not positive$"):
        from_generators([0, 3])


def test_contains_contract_examples():
    s = from_generators([2, 3])
    assert not s.contains(1)
    assert s.contains(0)
    assert not s.contains(-5)
    s35 = from_generators([3, 5])
    assert not s35.contains(7)
    assert s35.contains(8)


def test_from_gaps_round_trip():
    for s in enumerate_numerical_monoids(8):
        again = from_generators(s.atoms)
        assert again == s
    with pytest.raises(InputError):
        from_gaps([2])  # 1+1=2 would be a gap while 1 is a member


def test_enumeration_counts():
    # numbers of numerical monoids by Frobenius number, a small well-known
    # table recomputed here by gap-set closure
    by_frob = {}
    for s in enumerate_numerical_monoids(7):
        by_frob[s.frobenius] = by_frob.get(s.frobenius, 0) + 1
    assert by_frob[-1] == 1
    assert by_frob[1] == 1
    assert by_frob[2] == 1
    assert by_frob[3] == 2
    assert by_frob[4] == 2
    assert by_frob[5] == 5
    assert by_frob[6] == 4
    assert by_frob[7] == 11


# ---------------------------------------------------------------------------
# invariants of the monoid


def test_apery_contract_examples():
    assert apery_set(from_generators([2, 3]), 2) == (0, 3)
    assert apery_set(from_generators([1]), 1) == (0,)
    assert apery_set(from_generators([3, 5]), 3) == (0, 5, 10)
    with pytest.raises(InputError, match=r"^1 is not a nonzero element of <2,3>$"):
        apery_set(from_generators([2, 3]), 1)
    with pytest.raises(InputError, match=r"^0 is not a nonzero element of <2,3>$"):
        apery_set(from_generators([2, 3]), 0)


def test_apery_modulus_cap():
    s = from_generators([2, 3])
    assert len(apery_set(s, MULTIPLICITY_CAP)) == MULTIPLICITY_CAP
    with pytest.raises(CapError, match=r"^an Apéry set of 100001 entries exceeds the cap 100000$"):
        apery_set(s, MULTIPLICITY_CAP + 1)
    with pytest.raises(CapError, match=r"^an Apéry set of 1000000000 entries exceeds the cap 100000$"):
        apery_set(s, 10**9)


def test_apery_one_per_residue_class():
    for s in enumerate_numerical_monoids(9):
        for n in s.atoms:
            ap = apery_set(s, n)
            assert len(ap) == n
            assert sorted(a % n for a in ap) == list(range(n))
            for a in ap:
                assert s.contains(a)
                assert not s.contains(a - n)


def test_seminormal_contract_examples():
    assert is_seminormal(from_generators([1])) == (True, None)
    assert is_seminormal(from_generators([2, 3])) == (False, 1)
    assert is_seminormal(from_generators([3, 4, 5])) == (False, 2)


def test_seminormal_collapses_to_no_gaps():
    # the Frobenius number F has 2F and 3F past the conductor, so any
    # proper monoid fails; exhaustive up to Frobenius 15
    for s in enumerate_numerical_monoids(15):
        ok, witness = is_seminormal(s)
        assert ok == (s.gaps == ())
        if not ok:
            g = witness
            assert g in s.gaps and s.contains(2 * g) and s.contains(3 * g)


def test_is_valuation_contract_examples():
    assert is_valuation(from_generators([1]))
    assert not is_valuation(from_generators([2, 3]))
    assert not is_valuation(from_generators([3, 5, 7]))


# ---------------------------------------------------------------------------
# ideals


def _dual_oracle(i: MonoidIdeal, probe_pad: int = 64) -> list[int]:
    # independent dual computation on a window: check x + i inside the
    # monoid directly against a generous list of ideal elements
    s = i.owner
    m = i.min_element
    hi = s.conductor - m
    probe = i.elements_below(s.conductor + m + probe_pad)
    return [x for x in range(-m - 5, hi + 5) if all(s.contains(x + w) for w in probe)] + [
        x for x in range(hi + 5, hi + 8)
    ]


def test_ideal_dual_contract_examples():
    s = from_generators([2, 3])
    m = unique_maximal_ideal(s)
    assert ideal_dual(m) == make_ideal(s, [], 0)  # the full nonnegative ray
    ideal_s = monoid_as_ideal(s)
    assert ideal_dual(ideal_s) == ideal_s
    p5 = principal_ideal(s, 5)
    assert ideal_dual(p5) == ideal_from_generators(s, [-5])


def test_ideal_dual_matches_brute_force():
    rng = random.Random(5)
    monoids = [from_generators(g) for g in ([2, 3], [3, 5], [3, 4, 5], [4, 6, 9], [2, 5])]
    for _ in range(60):
        s = rng.choice(monoids)
        gens = [rng.randint(-8, 20) for _ in range(rng.randint(1, 4))]
        i = ideal_from_generators(s, gens)
        dual = ideal_dual(i)
        oracle = _dual_oracle(i)
        window_hi = s.conductor - i.min_element + 8
        got = [x for x in range(-i.min_element - 5, window_hi) if dual.contains(x)]
        expected = [x for x in oracle if x < window_hi]
        assert got == expected


def test_v_closure_contract_examples():
    s = from_generators([2, 3])
    m = unique_maximal_ideal(s)
    assert v_closure(m) == m  # divisorial
    p = principal_ideal(s, 4)
    assert v_closure(p) == p
    s35 = from_generators([3, 5])
    i = ideal_from_generators(s35, [3, 5])
    v = v_closure(i)
    assert v_closure(v) == v  # idempotent
    for x in range(-2, 20):
        if i.contains(x):
            assert v.contains(x)  # extensive


def test_t_invertibility_contract_examples():
    s = from_generators([2, 3])
    assert is_t_invertible(principal_ideal(s, 7))
    assert not is_t_invertible(unique_maximal_ideal(s))
    n0 = from_generators([1])
    rng = random.Random(9)
    for _ in range(20):
        gens = [rng.randint(-5, 15) for _ in range(rng.randint(1, 3))]
        assert is_t_invertible(ideal_from_generators(n0, gens))


def test_unique_maximal_ideal_contract_examples():
    s = from_generators([2, 3])
    m = unique_maximal_ideal(s)
    assert [x for x in range(-2, 8) if m.contains(x)] == [2, 3, 4, 5, 6, 7]
    n0 = from_generators([1])
    m0 = unique_maximal_ideal(n0)
    assert [x for x in range(-2, 5) if m0.contains(x)] == [1, 2, 3, 4]
    s35 = from_generators([3, 5])
    m35 = unique_maximal_ideal(s35)
    assert [x for x in range(0, 12) if m35.contains(x)] == [3, 5, 6, 8, 9, 10, 11]


def test_make_ideal_rejects_non_ideals():
    s = from_generators([2, 3])
    with pytest.raises(InputError):
        make_ideal(s, [3], 10)  # 3 + 2 = 5 missing


def test_ideal_add_and_shift():
    s = from_generators([3, 5])
    a = principal_ideal(s, 2)
    b = principal_ideal(s, -7)
    assert ideal_add(a, b) == principal_ideal(s, -5)
    m = unique_maximal_ideal(s)
    assert ideal_add(m, monoid_as_ideal(s)) == m


def test_v_closure_idempotent_on_random_ideals():
    rng = random.Random(13)
    monoids = [from_generators(g) for g in ([2, 3], [3, 5], [2, 7], [4, 5, 6], [3, 7, 8])]
    for _ in range(120):
        s = rng.choice(monoids)
        gens = [rng.randint(-10, 25) for _ in range(rng.randint(1, 4))]
        i = ideal_from_generators(s, gens)
        v = v_closure(i)
        assert v_closure(v) == v
        for x in i.elements_below(i.threshold + 1):
            assert v.contains(x)


def test_principal_ideals_divisorial_and_t_invertible_exhaustive():
    for s in enumerate_numerical_monoids(9):
        for g in (-3, 0, 4):
            p = principal_ideal(s, g)
            assert v_closure(p) == p
            assert is_t_invertible(p)


def test_maximal_ideal_t_invertible_iff_free_exhaustive():
    for s in enumerate_numerical_monoids(9):
        m = unique_maximal_ideal(s)
        assert v_closure(m) == m
        assert is_t_invertible(m) == s.is_free


# ---------------------------------------------------------------------------
# oracle: ideals in window-plus-threshold form, by scanning the integers up
# to the conductor, and Apéry sets by walking each residue class mod n


class _WindowIdeal:
    """``window`` holds the members strictly below ``threshold``; every
    integer at or above the threshold belongs.  The threshold is minimal."""

    def __init__(self, owner, window, threshold):
        self.owner, self.window, self.threshold = owner, tuple(window), threshold
        self._windowset = frozenset(window)

    @property
    def min_element(self):
        return self.window[0] if self.window else self.threshold

    def contains(self, n):
        return n >= self.threshold or n in self._windowset

    def elements_below(self, bound):
        out = [w for w in self.window if w < bound]
        out.extend(range(self.threshold, bound))
        return out

    def to_json(self):
        return {"window": list(self.window), "threshold": self.threshold}

    def __eq__(self, other):
        return (self.owner, self.window, self.threshold) == (other.owner, other.window, other.threshold)


def _oracle_make_ideal(owner, elements, threshold):
    t = int(threshold)
    elems = sorted({int(x) for x in elements if x < t})
    while elems and elems[-1] == t - 1:
        t -= 1
        elems.pop()
    ideal = _WindowIdeal(owner, elems, t)
    for w in ideal.window:
        for a in owner.atoms:
            if not ideal.contains(w + a):
                raise InputError(f"{w} + {a} missing: not closed under the monoid action")
    return ideal


def _oracle_from_generators(owner, gens):
    gen_list = sorted({int(g) for g in gens})
    threshold = gen_list[-1] + owner.conductor
    elems = set()
    for g in gen_list:
        elems.update(g + s for s in owner.elements_up_to(threshold - g))
    return _oracle_make_ideal(owner, elems, threshold)


def _oracle_dual(i):
    s = i.owner
    c = s.conductor
    m = i.min_element
    hi = c - m  # every x >= hi translates all of i past the conductor
    probe = i.elements_below(c + m)
    window = [x for x in range(-m, hi) if all(s.contains(x + w) for w in probe)]
    return _oracle_make_ideal(s, window, hi)


def _oracle_add(i, j):
    threshold = i.threshold + j.threshold
    sums = set()
    for a in i.elements_below(threshold - j.min_element):
        for b in j.elements_below(threshold - a):
            sums.add(a + b)
    return _oracle_make_ideal(i.owner, sums, threshold)


def _oracle_t_invertible(i):
    vv = _oracle_dual(_oracle_dual(_oracle_add(i, _oracle_dual(i))))
    return vv == _oracle_from_generators(i.owner, [0])


def _oracle_apery_set(s, n):
    out = []
    for r in range(n):
        m = r
        while not s.contains(m):
            m += n
        out.append(m)
    return tuple(sorted(out))


def _same(ideal, oracle):
    return json.dumps(ideal.to_json()) == json.dumps(oracle.to_json())


def test_ideals_match_window_oracle():
    rng = random.Random(2009)
    monoids = list(enumerate_numerical_monoids(9))
    for _ in range(500):
        s = rng.choice(monoids)
        gens = [rng.randint(-8, 20) for _ in range(rng.randint(1, 4))]
        i, oi = ideal_from_generators(s, gens), _oracle_from_generators(s, gens)
        assert _same(i, oi), (s, gens)
        assert str(i) == "{" + ", ".join([str(w) for w in oi.window] + [f"[{oi.threshold}..)"]) + "}"
        assert i.min_element == oi.min_element
        assert [x for x in range(-10, oi.threshold + 3) if i.contains(x)] == oi.elements_below(oi.threshold + 3)
        d, od = ideal_dual(i), _oracle_dual(oi)
        assert _same(d, od), (s, gens)
        assert _same(v_closure(i), _oracle_dual(od)), (s, gens)
        other = [rng.randint(-8, 20) for _ in range(rng.randint(1, 3))]
        j = ideal_from_generators(s, other)
        assert _same(ideal_add(i, j), _oracle_add(oi, _oracle_from_generators(s, other))), (s, gens, other)
        assert _same(ideal_add(i, d), _oracle_add(oi, od)), (s, gens)
        assert is_t_invertible(i) == _oracle_t_invertible(oi), (s, gens)


def test_make_ideal_matches_window_oracle():
    rng = random.Random(1977)
    monoids = list(enumerate_numerical_monoids(9))
    accepted = rejected = 0
    for _ in range(500):
        s = rng.choice(monoids)
        i = ideal_from_generators(s, [rng.randint(-8, 20) for _ in range(rng.randint(1, 3))])
        t = i.threshold + rng.randint(-3, 4)
        elements = i.elements_below(t) + [t + rng.randint(0, 5)]
        if rng.random() < 0.5 and elements[:-1]:
            elements.remove(rng.choice(elements[:-1]))
        elements += [rng.randint(i.min_element - 5, t + 5) for _ in range(rng.randint(0, 1))]
        try:
            expected = _oracle_make_ideal(s, elements, t)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                make_ideal(s, elements, t)
            assert str(got.value) == str(exc)
            rejected += 1
        else:
            assert _same(make_ideal(s, elements, t), expected), (s, elements, t)
            accepted += 1
    assert accepted > 100 and rejected > 100


def test_apery_set_matches_walk():
    for s in enumerate_numerical_monoids(9):
        m = s.multiplicity
        for n in range(1, s.conductor + 2 * m + 1):
            if s.contains(n):
                assert apery_set(s, n) == _oracle_apery_set(s, n), (s, n)


def test_unique_maximal_ideal_is_prime_exhaustive():
    # every atom lies in M, and M is closed under the atoms
    for s in enumerate_numerical_monoids(12):
        m = unique_maximal_ideal(s)
        assert not m.contains(0)
        assert [x for x in range(1, s.conductor + 1) if m.contains(x)] == list(s.elements_up_to(s.conductor))[1:]
        for a in s.atoms:
            assert m.contains(a)
            for x in s.elements_up_to(s.conductor + 1):
                assert m.contains(a + x)


def test_a_monoid_is_an_immutable_value():
    # the cached properties need an instance __dict__; no attribute may be assigned
    s = from_generators([3, 5])
    assert s.frobenius == 7 and s.gaps == (1, 2, 4, 7)
    for name in ("atoms", "apery", "frobenius", "gaps", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
    assert s.frobenius == 7
    assert s == from_generators([5, 3]) and hash(s) == hash(from_generators([5, 3]))
    assert repr(s) == "NumericalMonoid(atoms=(3, 5), apery=(0, 10, 5))"
