"""Class groups of numerical semigroup rings over prime fields.

For a numerical monoid S with conductor c, the subring of the polynomial
ring spanned by the monomials X^s, s in S, shares the ideal generated by
X^c with the full polynomial ring.  The class group of the subring is the
quotient of the truncated unit group 1 + X*F_p[X]/(X^c) by the subgroup
generated by the units 1 + alpha*X^s with s in S, 0 < s < c and alpha
nonzero: the standard conductor-square computation for one-dimensional
orders.  This module computes that quotient by full coset enumeration.

For direct sums of numerical monoids the class group decomposes into
component class groups over a rational function field in one variable
fewer than the number of summands.  Those base fields are infinite and
pseudo-Hilbertian, so a proper component contributes an infinite class
group; infinitude is a cited rule here, never a computation, and the
result says which rule supplied it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import EmptyList, InputError, SizeCapExceeded
from .groups import (
    FiniteAbelianGroup,
    combine_invariant_factors,
    is_prime,
    quotient_structure,
)
from .numon import NumericalMonoid

SIZE_CAP = 10 ** 6

RULE_PIC_INFINITE = (
    "picard-group-infinite: a numerical semigroup ring with a proper monoid over an "
    "infinite pseudo-Hilbertian field has infinite class group"
)
RULE_FUNCTION_FIELD = (
    "rational-function-fields-are-infinite-and-pseudo-hilbertian"
)


@dataclass(frozen=True)
class TruncatedUnitGroup:
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
        a = (1,) + tuple(u)
        b = (1,) + tuple(v)
        res = [0] * self.c
        for i, ai in enumerate(a):
            if ai:
                for j in range(self.c - i):
                    res[i + j] = (res[i + j] + ai * b[j]) % self.p
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
    if p ** (c - 1) > SIZE_CAP:
        raise SizeCapExceeded(f"unit group of order {p}^{c - 1} exceeds cap {SIZE_CAP}")
    return TruncatedUnitGroup(p, c)


@dataclass(frozen=True)
class ClassGroupResult:
    """Either a verified finite group or the symbol INFINITE with the rule
    that justifies it."""

    group: FiniteAbelianGroup | None
    infinite: bool
    method: str
    citation: str | None = None
    generators: tuple[str, ...] = ()

    def __post_init__(self):
        if self.infinite:
            if self.group is not None:
                raise InputError("infinite results carry no computed group")
            if not self.citation:
                raise InputError("infinite results need a citation rule")
        else:
            if self.group is None:
                raise InputError("finite results need a computed group")

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


def _closure(op: Callable, seed: Iterable) -> set:
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


def cv_numerical_ring(p: int, s: NumericalMonoid) -> ClassGroupResult:
    """Class group of the semigroup ring of s over the prime field F_p,
    by the conductor-square unit quotient."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    c = s.conductor
    if c == 0:
        return ClassGroupResult(
            group=FiniteAbelianGroup(()),
            infinite=False,
            method="polynomial-ring-trivial-class-group",
        )
    u = truncated_unit_group(p, c)
    gens = [
        u.unit_with_term(alpha, t)
        for t in range(1, c)
        if s.contains(t)
        for alpha in range(1, p)
    ]
    denom = _closure(u.op, gens) if gens else {u.identity}
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
    chosen: list[tuple[int, ...]] = []
    current = set(denom)
    if quotient.order > 1:
        for cand in u.elements:
            if cand not in current:
                chosen.append(cand)
                descriptions.append(u.describe(cand))
                current = _closure(u.op, gens + chosen)
            if len(current) == u.order:
                break
    return ClassGroupResult(
        group=quotient,
        infinite=False,
        method="conductor-square-unit-quotient",
        generators=tuple(descriptions),
    )


@dataclass(frozen=True)
class BaseField:
    """The facts about a base field that the symbolic formulas consume."""

    prime: int | None = None
    infinite: bool | None = None
    pseudo_hilbertian: bool | None = None

    def __post_init__(self):
        if self.prime is not None and not is_prime(self.prime):
            raise InputError(f"{self.prime} is not prime")

    @staticmethod
    def prime_field(p: int) -> "BaseField":
        # finite fields are pseudo-Hilbertian
        return BaseField(prime=p, infinite=False, pseudo_hilbertian=True)

    @staticmethod
    def infinite_pseudo_hilbertian() -> "BaseField":
        return BaseField(infinite=True, pseudo_hilbertian=True)


@dataclass(frozen=True)
class SymbolicComponent:
    """A summand S_i together with the base field it should be read over."""

    monoid: NumericalMonoid
    base: BaseField


@dataclass(frozen=True)
class DirectSumClassGroup:
    """Formal direct sum of component class groups."""

    components: tuple[ClassGroupResult, ...]
    note: str

    @property
    def is_infinite(self) -> bool:
        return any(c.infinite for c in self.components)

    def combined_finite_group(self) -> FiniteAbelianGroup | None:
        if self.is_infinite:
            return None
        return FiniteAbelianGroup(
            combine_invariant_factors(*(c.group.invariant_factors for c in self.components))
        )

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


def _resolve_component(entry, base_override: BaseField | None) -> ClassGroupResult:
    if isinstance(entry, ClassGroupResult):
        return entry
    if not isinstance(entry, SymbolicComponent):
        raise InputError(f"cannot interpret component {entry!r}")
    base = base_override if base_override is not None else entry.base
    s = entry.monoid
    if s.is_free:
        return ClassGroupResult(
            group=FiniteAbelianGroup(()),
            infinite=False,
            method="polynomial-ring-trivial-class-group",
        )
    if base.infinite and base.pseudo_hilbertian:
        return ClassGroupResult(
            group=None,
            infinite=True,
            method="cited-rule",
            citation=RULE_PIC_INFINITE,
        )
    if base.prime is not None:
        return cv_numerical_ring(base.prime, s)
    raise InputError(
        "base field underdetermined: need a prime field or an infinite pseudo-Hilbertian field"
    )


def cv_direct_sum(entries: Sequence) -> ClassGroupResult | DirectSumClassGroup:
    """Class group of a direct sum of numerical monoids as a formal sum.

    With one entry the bare component is returned.  With n >= 2 entries
    every symbolic component is read over a rational function field in
    n - 1 variables, which is infinite and pseudo-Hilbertian whatever the
    ground field, so proper components come out INFINITE.
    """
    items = list(entries)
    if not items:
        raise EmptyList("direct sum of no components")
    n = len(items)
    if n == 1:
        return _resolve_component(items[0], None)
    base = BaseField.infinite_pseudo_hilbertian()
    resolved = tuple(_resolve_component(e, base) for e in items)
    variables = "one variable" if n == 2 else f"{n - 1} variables"
    return DirectSumClassGroup(
        components=resolved,
        note=f"components read over a function field in {variables} ({RULE_FUNCTION_FIELD})",
    )
