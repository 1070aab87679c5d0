"""Irreducible polynomials over prime fields with prescribed low-order
coefficients.

A field is pseudo-Hilbertian when every coefficient prefix a_0, ..., a_n
with a_0 nonzero extends to an irreducible polynomial.  For prime fields
this module searches constructively: candidate higher coefficients are
enumerated degree by degree in lexicographic order, so a run is
reproducible byte for byte, and a miss within ``max_degree`` only means no
witness that small, never a disproof.  The search refuses once
``CANDIDATES_CAP`` candidates gave no witness, and every test refuses a
degree past ``POWER_TEST_CAP`` for its p.

Polynomials are coefficient tuples, constant term first, entries reduced
mod p, leading coefficient nonzero.  Irreducibility is decided by the
finite-field power test (Rabin, *SIAM J. Comput.* 9, 1980): f of degree n is
irreducible iff X^(p^n) is congruent to X mod f and gcd(X^(p^(n/q)) - X, f)
is trivial for every prime q dividing n.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator

from .errors import CapError, InputError
from .groups import _factorint, is_prime

Coeffs = tuple[int, ...]

# largest cost degree^3 * bits(p)^2 the power test takes, refused before any
# arithmetic: degree 200 over F_2 and F_3, 152 over F_7, 32 over 10^9+7 and
# 22 over 10^16+61.  Each runs every step within 4 s on a 2-vCPU VM; the
# slowest, degree 200 over F_3, took 3.8 s, and degree 200 over F_2 1.4 s.
POWER_TEST_CAP = 200**3 * 2**2
# most candidates find_irreducible_with_prefix tests without a witness
CANDIDATES_CAP = 1000


class PrimePolynomial(namedtuple("PrimePolynomial", "p coefficients")):
    __slots__ = ()

    def __new__(cls, p: int, coefficients: Coeffs):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        cs = tuple(int(c) for c in coefficients)
        if not cs:
            raise InputError("empty coefficient list")
        if any(c < 0 or c >= p for c in cs):
            raise InputError(f"coefficients must lie in [0, {p})")
        if cs[-1] == 0:
            raise InputError("leading coefficient must be nonzero")
        return super().__new__(cls, p, cs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                coef = "" if c == 1 else str(c)
                terms.append(f"{coef}X" if i == 1 else f"{coef}X^{i}")
        return " + ".join(terms) if terms else "0"


# low-level arithmetic on coefficient tuples (constant first, trimmed)


def _trim(cs: list[int]) -> Coeffs:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_mul(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_mod(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = pow(b[-1], -1, p)
    rem = list(a)
    while rem and rem[-1] == 0:
        rem.pop()
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] * lead_inv % p
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def poly_pow_mod(base: Coeffs, exp: int, mod: Coeffs, p: int) -> Coeffs:
    result: Coeffs = (1,)
    base = poly_mod(base, mod, p)
    while exp:
        if exp & 1:
            result = poly_mod(poly_mul(result, base, p), mod, p)
        base = poly_mod(poly_mul(base, base, p), mod, p)
        exp >>= 1
    return result


def poly_gcd(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    while b:
        a, b = b, poly_mod(a, b, p)
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def is_irreducible(f: PrimePolynomial) -> bool:
    """The finite-field power test."""
    if f.degree == 0:
        raise InputError("irreducibility is about polynomials of degree >= 1")
    n = f.degree
    p = f.p
    _check_cost(f"degree {n}", n, p)
    x: Coeffs = (0, 1)
    mod = f.coefficients
    for q in _factorint(n):
        h = poly_pow_mod(x, p ** (n // q), mod, p)
        diff = _poly_sub(h, x, p)
        g = poly_gcd(mod, diff, p)
        if len(g) != 1:
            return False
    return poly_pow_mod(x, p ** n, mod, p) == poly_mod(x, mod, p)


def _check_cost(what: str, n: int, p: int) -> None:
    cost = n**3 * p.bit_length() ** 2
    if cost > POWER_TEST_CAP:
        raise CapError(
            f"{what} over F_{p} costs {cost} = degree^3 * bits(p)^2, past the power test's cap {POWER_TEST_CAP}"
        )


def _poly_sub(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _trim(out)


def find_irreducible_with_prefix(
    p: int, prefix: tuple[int, ...] | list[int], max_degree: int
) -> PrimePolynomial | None:
    """First irreducible polynomial matching the prefix, by degree then by
    lexicographic order of the higher coefficients; None when no witness of
    degree at most ``max_degree`` exists."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    pre = tuple(int(a) for a in prefix)
    if not pre:
        raise InputError("empty prefix")
    if any(a < 0 or a >= p for a in pre):
        raise InputError(f"prefix entries must lie in [0, {p})")
    if pre[0] == 0:
        raise InputError("the constant term of the prefix must be nonzero")
    n = len(pre) - 1
    if max_degree <= n:
        raise InputError(f"max_degree {max_degree} does not exceed the prefix degree {n}")
    _check_cost(f"max_degree {max_degree}", max_degree, p)
    tested = 0
    for d in range(n + 1, max_degree + 1):
        for tail in _tails(p, d - n):
            if tested == CANDIDATES_CAP:
                raise CapError(f"no witness among the first {CANDIDATES_CAP} candidates, the search's cap")
            tested += 1
            cand = PrimePolynomial(p, pre + tail)
            if is_irreducible(cand):
                return cand
    return None


def _tails(p: int, k: int) -> Iterator[Coeffs]:
    """The k-tuples over range(p) with a nonzero last entry, in lexicographic
    order, without listing range(p) as ``itertools.product`` would."""
    if k == 1:
        yield from ((c,) for c in range(1, p))
        return
    for c in range(p):
        for rest in _tails(p, k - 1):
            yield (c, *rest)
