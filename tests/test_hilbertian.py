import itertools

import pytest

from wktoolkit.errors import CapError, InputError
from wktoolkit.hilbertian import (
    CANDIDATES_CAP,
    POWER_TEST_CAP,
    PrimePolynomial,
    find_irreducible_with_prefix,
    is_irreducible,
    poly_gcd,
    poly_mod,
    poly_mul,
)
from wktoolkit.hilbertian import _tails
from tests_support_trial_division import trial_division_irreducible


def test_polynomial_validation():
    f = PrimePolynomial(2, (1, 1, 1))
    assert f.degree == 2
    assert str(f) == "X^2 + X + 1"
    with pytest.raises(InputError):
        PrimePolynomial(2, (1, 2))
    with pytest.raises(InputError):
        PrimePolynomial(2, (1, 0))
    with pytest.raises(InputError):
        PrimePolynomial(4, (1, 1))


def test_poly_arithmetic():
    # (X+1)^2 = X^2 + 1 over F_2
    assert poly_mul((1, 1), (1, 1), 2) == (1, 0, 1)
    assert poly_mod((1, 0, 1), (1, 1), 2) == ()
    assert poly_mod((1, 1, 1), (1, 1), 2) == (1,)
    assert poly_gcd((1, 0, 1), (1, 1), 2) == (1, 1)


def test_is_irreducible_contract_examples():
    assert is_irreducible(PrimePolynomial(2, (1, 1, 1)))  # no roots in F_2
    assert not is_irreducible(PrimePolynomial(2, (1, 0, 1)))  # (X+1)^2
    assert is_irreducible(PrimePolynomial(3, (0, 1)))  # degree one
    with pytest.raises(InputError, match=r"^irreducibility is about polynomials of degree >= 1$"):
        is_irreducible(PrimePolynomial(3, (2,)))


def test_oracles_agree_exhaustively():
    # every polynomial of degree <= 6 over F_2 and degree <= 4 over F_3
    for p, dmax in ((2, 6), (3, 4)):
        for deg in range(1, dmax + 1):
            for body in itertools.product(range(p), repeat=deg):
                for lead in range(1, p):
                    f = PrimePolynomial(p, body + (lead,))
                    assert is_irreducible(f) == trial_division_irreducible(f), f


def test_known_irreducible_counts():
    # the number of monic irreducibles of degree n over F_p is
    # (1/n) * sum_{d | n} mu(d) p^(n/d); spot-check small cases
    counts = {}
    for deg in (1, 2, 3, 4):
        c = 0
        for body in itertools.product(range(2), repeat=deg):
            f = PrimePolynomial(2, body + (1,))
            if is_irreducible(f):
                c += 1
        counts[deg] = c
    assert counts == {1: 2, 2: 1, 3: 2, 4: 3}


def test_find_irreducible_contract_examples():
    w = find_irreducible_with_prefix(2, (1, 1), 4)
    assert w.coefficients == (1, 1, 1)
    w1 = find_irreducible_with_prefix(2, (1,), 1)
    assert w1.coefficients == (1, 1)
    w3 = find_irreducible_with_prefix(3, (1, 0, 0), 6)
    assert w3 is not None
    assert w3.coefficients[:3] == (1, 0, 0)
    assert is_irreducible(w3) and trial_division_irreducible(w3)


def test_find_irreducible_not_found_is_not_a_disproof():
    # prefix (1, 0) over F_2 admits no irreducible of degree exactly 2
    # (the only candidate is (X+1)^2), but degree 3 works
    assert find_irreducible_with_prefix(2, (1, 0), 2) is None
    w = find_irreducible_with_prefix(2, (1, 0), 3)
    assert w is not None and w.degree == 3


def test_find_irreducible_errors():
    with pytest.raises(InputError, match=r"^the constant term of the prefix must be nonzero$"):
        find_irreducible_with_prefix(2, (0, 1), 4)
    with pytest.raises(InputError, match=r"^max_degree 1 does not exceed the prefix degree 1$"):
        find_irreducible_with_prefix(2, (1, 1), 1)
    with pytest.raises(InputError):
        find_irreducible_with_prefix(6, (1,), 3)
    with pytest.raises(InputError):
        find_irreducible_with_prefix(3, (1, 5), 4)


def test_find_irreducible_deterministic():
    a = find_irreducible_with_prefix(5, (2, 3), 6)
    b = find_irreducible_with_prefix(5, (2, 3), 6)
    assert a == b
    # lexicographically first hit: no smaller matching tail is irreducible
    tail_len = a.degree - 1
    for tail in itertools.product(range(5), repeat=tail_len):
        if tail[-1] == 0:
            continue
        if tail >= a.coefficients[2:]:
            break
        assert not is_irreducible(PrimePolynomial(5, (2, 3) + tail))


def test_degrees_past_the_cap_are_refused_before_any_arithmetic():
    # the cap admits degree 200 over F_2 and F_3, where bits(p) = 2, and no more
    assert 200**3 * 2**2 <= POWER_TEST_CAP < 201**3 * 2**2
    too_long = PrimePolynomial(2, (1,) * 202)
    assert too_long.degree == 201
    with pytest.raises(CapError, match=r"^degree 201 over F_2 costs 32482404 = degree\^3 \* bits\(p\)\^2, past"):
        is_irreducible(too_long)
    with pytest.raises(CapError, match=r"^max_degree 201 over F_2 costs 32482404 "):
        find_irreducible_with_prefix(2, (1,), 201)
    # a prefix no shorter than max_degree is still the input error it was
    with pytest.raises(InputError, match=r"^max_degree 201 does not exceed the prefix degree 201$"):
        find_irreducible_with_prefix(2, (1,) * 202, 201)
    # the cost grows with the bit length of p: 23^3 * 54^2 > POWER_TEST_CAP >= 22^3 * 54^2
    p = 10000000000000061
    with pytest.raises(CapError, match=r"^degree 23 over F_10000000000000061 costs "):
        is_irreducible(PrimePolynomial(p, (1,) * 24))
    assert find_irreducible_with_prefix(p, (1, 1), 22).degree == 2


def test_tails_are_walked_in_lexicographic_order_without_listing_the_field():
    # at p = 5 the walk is the one itertools.product gives, zero leads skipped
    for k in (1, 2, 3):
        walked = list(_tails(5, k))
        assert walked == [t for t in itertools.product(range(5), repeat=k) if t[-1]], k
    # at a large p the first tail comes at once
    assert next(_tails(10000000000000061, 3)) == (0, 0, 1)


def test_a_search_without_a_witness_is_refused_after_the_candidate_cap():
    # for p = 2 mod 3 every element is a cube, so no a X^3 + 1 is irreducible
    p = 10000000000000061
    assert p % 3 == 2
    with pytest.raises(CapError, match=f"^no witness among the first {CANDIDATES_CAP} candidates, the search's cap$"):
        find_irreducible_with_prefix(p, (1, 0, 0), 3)
    # a search whose candidates run out first still reports no witness
    assert find_irreducible_with_prefix(2, (1, 0), 2) is None
