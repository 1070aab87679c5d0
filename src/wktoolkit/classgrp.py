"""Class groups of numerical semigroup rings over prime fields.

For a numerical monoid S with conductor c, the subring of the polynomial
ring spanned by the monomials X^s, s in S, shares the ideal generated by
X^c with the full polynomial ring.  The class group of the subring is the
quotient of the truncated unit group 1 + X*F_p[X]/(X^c) by the subgroup
generated by the units 1 + alpha*X^s with s in S, 0 < s < c and alpha
nonzero: the standard conductor-square computation for one-dimensional
orders.  This module computes that quotient by full coset enumeration.
The denominator is grown from {1} one generating unit at a time: since the
unit group is finite abelian, adding a unit g to a subgroup H gives the
union of the cosets H g^k for k below the order of g modulo H, built in as
many products as the new subgroup has elements.  The quotient's generators
are picked the same way: the first unit, in coefficient order, outside the
subgroup grown so far is recorded and added to it, until every unit lies
in it.

For direct sums of numerical monoids the class group decomposes into
component class groups over a rational function field in one variable
fewer than the number of summands.  Those base fields are infinite and
pseudo-Hilbertian, so a proper component contributes an infinite class
group; infinitude is a cited rule here, never a computation, and the
result says which rule supplied it.  A single summand is read over the
domain itself, given as the decision engine's ``DomainDescriptor``: its
flags decide whether that rule applies, and only over a prime field is the
class group computed.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import CapError, InputError
from .groups import FiniteAbelianGroup, is_prime, quotient_structure
from .numon import NumericalMonoid

if TYPE_CHECKING:
    from .decide import DomainDescriptor

SIZE_CAP = 10 ** 6

RULE_PIC_INFINITE = (
    "picard-group-infinite: a numerical semigroup ring with a proper monoid over an "
    "infinite pseudo-Hilbertian field has infinite class group"
)
RULE_FUNCTION_FIELD = (
    "rational-function-fields-are-infinite-and-pseudo-hilbertian"
)


class TruncatedUnitGroup(NamedTuple):
    """Units 1 + a_1 X + ... + a_{c-1} X^{c-1} modulo X^c over F_p.

    Elements are the coefficient tuples (a_1, ..., a_{c-1}); the constant
    term 1 is implicit.  Order p^(c-1).
    """

    p: int
    c: int

    @property
    def order(self) -> int:
        return self.p ** (self.c - 1)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * (self.c - 1)

    @property
    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.p), repeat=self.c - 1))

    def op(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        p, c = self.p, self.c  # read once: a field read is a descriptor call
        a = (1,) + tuple(u)
        b = (1,) + tuple(v)
        res = [0] * c
        for i, ai in enumerate(a):
            if ai:
                for j in range(c - i):
                    res[i + j] = (res[i + j] + ai * b[j]) % p
        return tuple(res[1:])

    def unit_with_term(self, alpha: int, s: int) -> tuple[int, ...]:
        coeffs = [0] * (self.c - 1)
        coeffs[s - 1] = alpha % self.p
        return tuple(coeffs)

    def describe(self, u: Sequence[int]) -> str:
        terms = ["1"]
        for i, a in enumerate(u, start=1):
            if not a:
                continue
            coef = "" if a == 1 else str(a)
            terms.append(f"{coef}X" if i == 1 else f"{coef}X^{i}")
        return " + ".join(terms)


def truncated_unit_group(p: int, c: int) -> TruncatedUnitGroup:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if c < 1:
        raise InputError(f"conductor {c} must be >= 1")
    # p >= 2, so past SIZE_CAP's bit length p^(c - 1) exceeds the cap
    # without computing the power
    if c - 1 > SIZE_CAP.bit_length() or p ** (c - 1) > SIZE_CAP:
        raise CapError(f"unit group of order {p}^{c - 1} exceeds cap {SIZE_CAP}")
    return TruncatedUnitGroup(p, c)


class ClassGroupResult(namedtuple("ClassGroupResult", "group infinite method citation generators")):
    """Either a verified finite group or the symbol INFINITE with the rule
    that justifies it."""

    __slots__ = ()

    def __new__(
        cls,
        group: FiniteAbelianGroup | None,
        infinite: bool,
        method: str,
        citation: str | None = None,
        generators: tuple[str, ...] = (),
    ):
        if infinite:
            if group is not None:
                raise InputError("infinite results carry no computed group")
            if not citation:
                raise InputError("infinite results need a citation rule")
        else:
            if group is None:
                raise InputError("finite results need a computed group")
        return super().__new__(cls, group, infinite, method, citation, generators)

    @property
    def order(self) -> int | None:
        return None if self.infinite else self.group.order

    def to_json(self) -> dict:
        if self.infinite:
            return {"infinite": True, "method": self.method, "citation": self.citation}
        return {
            "infinite": False,
            "invariant_factors": list(self.group.invariant_factors),
            "order": self.group.order,
            "method": self.method,
            "generators": list(self.generators),
        }

    def __str__(self) -> str:
        return "INFINITE" if self.infinite else str(self.group)


_TRIVIAL = ClassGroupResult(
    group=FiniteAbelianGroup(()),
    infinite=False,
    method="polynomial-ring-trivial-class-group",
)
_INFINITE = ClassGroupResult(group=None, infinite=True, method="cited-rule", citation=RULE_PIC_INFINITE)


def _extend(op: Callable, subgroup: set, g) -> set:
    """The subgroup generated by ``subgroup`` and ``g`` in a finite abelian
    group: the union of the cosets subgroup * g^k for k below the order of g
    modulo the subgroup, in as many products as it has elements.  The
    subgroup itself comes back when it contains g."""
    if g in subgroup:
        return subgroup
    out = set(subgroup)
    power = g
    while power not in subgroup:
        out.update(op(h, power) for h in subgroup)
        power = op(power, g)
    return out


def _denominator(u: TruncatedUnitGroup, s: NumericalMonoid) -> tuple[list, set]:
    """The units 1 + alpha X^t with t in s, 0 < t < c and alpha nonzero,
    and the subgroup they generate, grown from {1} one unit at a time."""
    gens = [
        u.unit_with_term(alpha, t)
        for t in range(1, u.c)
        if s.contains(t)
        for alpha in range(1, u.p)
    ]
    denom = {u.identity}
    for g in gens:
        denom = _extend(u.op, denom, g)
    return gens, denom


def cv_numerical_ring(p: int, s: NumericalMonoid) -> ClassGroupResult:
    """Class group of the semigroup ring of s over the prime field F_p,
    by the conductor-square unit quotient."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    c = s.conductor
    if c == 0:
        return _TRIVIAL
    u = truncated_unit_group(p, c)
    gens, denom = _denominator(u, s)
    # explicit subgroup verification before quotienting
    if len(denom) ** 2 <= 4 * SIZE_CAP:
        for h1 in denom:
            for h2 in denom:
                if u.op(h1, h2) not in denom:
                    raise AssertionError("denominator set is not closed")
    if u.identity not in denom:
        raise AssertionError("denominator subgroup misses the identity")

    quotient = quotient_structure(u.elements, u.op, gens)
    if quotient.order * len(denom) != u.order:
        raise AssertionError("coset count does not match the subgroup index")

    descriptions = []
    current = denom
    if quotient.order > 1:
        for cand in u.elements:
            if cand not in current:
                descriptions.append(u.describe(cand))
                current = _extend(u.op, current, cand)
            if len(current) == u.order:
                break
    return ClassGroupResult(
        group=quotient,
        infinite=False,
        method="conductor-square-unit-quotient",
        generators=tuple(descriptions),
    )


class DirectSumClassGroup(NamedTuple):
    """Formal direct sum of component class groups."""

    components: tuple[ClassGroupResult, ...]
    note: str

    @property
    def is_infinite(self) -> bool:
        return any(c.infinite for c in self.components)

    def combined_finite_group(self) -> FiniteAbelianGroup | None:
        # ``cv_direct_sum`` makes each component trivial or infinite, so a
        # finite sum is trivial
        return None if self.is_infinite else FiniteAbelianGroup(())

    def to_json(self) -> dict:
        out = {
            "components": [c.to_json() for c in self.components],
            "infinite": self.is_infinite,
            "note": self.note,
        }
        combined = self.combined_finite_group()
        if combined is not None:
            out["invariant_factors"] = list(combined.invariant_factors)
            out["order"] = combined.order
        return out

    def __str__(self) -> str:
        return " (+) ".join(str(c) for c in self.components)


def cv_direct_sum(
    monoids: Sequence[NumericalMonoid], domain: DomainDescriptor
) -> ClassGroupResult | DirectSumClassGroup:
    """Class group of the semigroup ring of a direct sum of numerical
    monoids over ``domain``, as a formal sum of component class groups.

    With one monoid the bare component is returned: trivial if the monoid
    is free, INFINITE by the cited rule if the domain is an infinite
    pseudo-Hilbertian field, computed if it is a prime field, and refused
    otherwise.  With n >= 2 monoids every component is read over a rational
    function field in n - 1 variables, which is infinite and
    pseudo-Hilbertian whatever the domain, so proper components come out
    INFINITE.
    """
    comps = tuple(monoids)
    if not comps:
        raise InputError("direct sum of no components")
    n = len(comps)
    if n == 1:
        s = comps[0]
        if s.is_free:
            return _TRIVIAL
        if all(domain.flag(f).truth for f in ("is_field", "infinite", "pseudo_hilbertian")):
            return _INFINITE
        if domain.kind == "prime-field":
            return cv_numerical_ring(domain.characteristic, s)
        raise InputError(
            f"{domain.name} is neither a prime field nor known to be an infinite pseudo-Hilbertian field"
        )
    variables = "one variable" if n == 2 else f"{n - 1} variables"
    return DirectSumClassGroup(
        components=tuple(_TRIVIAL if s.is_free else _INFINITE for s in comps),
        note=f"components read over a function field in {variables} ({RULE_FUNCTION_FIELD})",
    )
