"""Trial division, the oracle for two fast tests: irreducibility, against
the power test in ``wktoolkit.hilbertian`` (f is irreducible iff no monic
polynomial of degree at most deg(f)/2 divides it), and primality, against
the strong probable-prime test in ``wktoolkit.groups`` (n is prime iff no
integer from 2 to sqrt(n) divides it)."""

import itertools
import math

from wktoolkit.errors import InputError
from wktoolkit.hilbertian import PrimePolynomial, poly_mod


def trial_division_irreducible(f: PrimePolynomial) -> bool:
    if f.degree == 0:
        raise InputError("irreducibility is about polynomials of degree >= 1")
    p = f.p
    for d in range(1, f.degree // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            if not poly_mod(f.coefficients, lower + (1,), p):
                return False
    return True


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
