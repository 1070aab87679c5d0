"""Finite abelian groups and torsion-free group descriptors.

Two unrelated kinds of groups live here because both are consumed by the
rest of the toolkit:

* ``FiniteAbelianGroup`` is a concrete group given by its invariant
  factors d1 | d2 | ... | dr (each >= 2).  Elements are integer tuples,
  component i reduced mod d_i.  These are the targets of class-group
  computations and the ambient groups of zero-sum blocks.

* ``TorsionFreeGroupDescriptor`` describes a finite direct sum of rank-one
  subgroups of the rationals.  A rank-one component is the group
  { a / prod p_i^{e_i} : e_i <= cap(p_i) } and is encoded by a finite map
  of exceptional primes to caps plus a default class.  The default is
  either "all other primes have cap 0" or a symbolic infinite class of
  primes sharing one cap.  The symbolic class carries only the
  cardinality facts (the class is infinite; its complement is or is not
  infinite) because the divisibility-type checks below consume nothing
  else.

The type checks decide, per component, whether the denoted group has the
ascending chain condition on cyclic subgroups ("type (0,0,0,...)"), or
satisfies the weakened conditions at a single prime p ("type (0,0,0,...)
except p"): (i) infinitely many primes divide no nonzero element, and
(ii) every prime q != p divides each nonzero element only finitely often.
Direct sums are checked componentwise; an element supported in one
component has exactly that component's divisibility, so each condition
quantified over all nonzero g reduces to all components.

``read_descriptor`` reads a descriptor from text: components joined by
``+``; a component is ``z`` or a nonempty comma list of ``prime^cap``
entries (cap an integer or ``inf``), optionally including ``sym^cap`` for
the symbolic infinite class (append ``~fin`` for a finite complement),
e.g. ``2^inf`` or ``2^inf,sym^3``.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import CapError, InputError

INF = float("inf")

CARRIER_CAP = 10 ** 6
# Full n^2 closure verification only below this carrier size; above it,
# every product the algorithms actually form is still checked.
_FULL_CLOSURE_LIMIT = 600


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# No composite below this bound passes strong probable-prime tests to the
# first 13 prime bases, 2 to 41 (Sorenson & Webster, "Strong pseudoprimes
# to twelve prime bases", Math. Comp. 86, 2017); the bound is itself a composite
# that passes all 13
PRIME_TEST_CAP = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality below ``PRIME_TEST_CAP``: trial division by the
    primes up to 37, which settles every n < 41^2, then a strong
    probable-prime test to each of the bases 2, 3, ..., 41.  A larger n is
    refused rather than guessed."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    if n >= PRIME_TEST_CAP:
        raise CapError(f"primality of {n} is decided only below {PRIME_TEST_CAP}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES + (41,):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# concrete finite abelian groups


class FiniteAbelianGroup(namedtuple("FiniteAbelianGroup", "invariant_factors")):
    """Finite abelian group in invariant-factor form.

    ``invariant_factors`` is an ascending divisibility chain d1 | d2 | ...
    with every d_i >= 2; the empty tuple is the trivial group.  Elements
    are tuples of the same length, component i reduced mod d_i.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors: tuple[int, ...]):
        facs = tuple(int(d) for d in invariant_factors)
        for d in facs:
            if d < 2:
                raise InputError(f"invariant factor {d} < 2")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise InputError(f"invariant factors {a}, {b} break the divisibility chain")
        return super().__new__(cls, facs)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.rank:
            raise InputError(f"element {vec!r} has wrong rank for {self}")
        return tuple(int(v) % d for v, d in zip(vec, self.invariant_factors))

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariant_factors))

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.invariant_factors))

    def scale(self, k: int, a: Sequence[int]) -> tuple[int, ...]:
        return tuple((k * x) % d for x, d in zip(a, self.invariant_factors))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def element_order(self, a: Sequence[int]) -> int:
        a = self.reduce(a)
        return math.lcm(1, *(d // math.gcd(d, x) for x, d in zip(a, self.invariant_factors)))

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"C{d}" for d in self.invariant_factors)


def cyclic(n: int) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(() if n == 1 else (n,))


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Smith normal form


class SmithResult(NamedTuple):
    invariant_factors: tuple[int, ...]
    free_rank: int


def smith_normal_form(relations: Sequence[Sequence[int]], generators: int | None = None) -> SmithResult:
    """Structure of the abelian group presented by integer relation rows.

    Rows are relations among ``generators`` unknowns (inferred from the row
    length when rows are present).  Returns the invariant factors >= 2 of
    the torsion part together with the free rank; an empty matrix presents
    a free group.
    """
    a = [[int(x) for x in row] for row in relations]
    if a:
        ncols = len(a[0])
        if any(len(row) != ncols for row in a):
            raise InputError("relation rows have unequal lengths")
        if generators is not None and generators != ncols:
            raise InputError("generator count does not match row length")
    else:
        ncols = 0 if generators is None else int(generators)
        if ncols < 0:
            raise InputError("negative generator count")
    nrows = len(a)
    diag: list[int] = []
    t = 0
    while t < nrows and t < ncols:
        if not _snf_step(a, t, nrows, ncols):
            break
        diag.append(abs(a[t][t]))
        t += 1
    for x, y in zip(diag, diag[1:]):
        if y % x:  # pragma: no cover - guaranteed by the divisibility pass
            raise AssertionError("smith normal form lost the divisibility chain")
    factors = tuple(d for d in diag if d > 1)
    return SmithResult(factors, ncols - len(diag))


def _snf_step(a: list[list[int]], t: int, nrows: int, ncols: int) -> bool:
    # Brings the minimal nonzero entry of the trailing submatrix to (t, t),
    # clears its row and column, and makes it divide the rest.
    while True:
        pi = pj = -1
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    pi, pj, best = i, j, v
        if best is None:
            return False
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        d = a[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                q = a[i][t] // d
                for j in range(t, ncols):
                    a[i][j] -= q * a[t][j]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // d
                for i in range(t, nrows):
                    a[i][j] -= q * a[i][t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        bad_row = None
        for i in range(t + 1, nrows):
            if any(a[i][j] % d for j in range(t + 1, ncols)):
                bad_row = i
                break
        if bad_row is None:
            return True
        for j in range(t, ncols):
            a[t][j] += a[bad_row][j]


# ---------------------------------------------------------------------------
# quotient structure by coset enumeration and torsion counting


def quotient_structure(
    carrier: Iterable,
    op: Callable,
    subgroup_generators: Iterable,
) -> FiniteAbelianGroup:
    """Invariant factors of (carrier) / <subgroup_generators>.

    The carrier is a finite abelian group given by an element list and a
    composition rule; elements must be hashable.  The subgroup generated
    by the given elements is closed off, the cosets are enumerated, and
    the quotient's structure is recovered from the multiset of coset
    orders (torsion counting).  Closure is verified exhaustively for
    small carriers and on every product formed otherwise.
    """
    elems = list(carrier)
    if len(elems) > CARRIER_CAP:
        raise CapError(f"carrier of size {len(elems)} exceeds cap {CARRIER_CAP}")
    eset = set(elems)
    if len(eset) != len(elems):
        raise InputError("carrier contains repeated elements")

    def checked(x, y):
        r = op(x, y)
        if r not in eset:
            raise InputError(f"product of {x!r} and {y!r} left the carrier")
        return r

    if len(elems) <= _FULL_CLOSURE_LIMIT:
        for x in elems:
            for y in elems:
                checked(x, y)

    ident = None
    for x in elems:
        if op(x, x) == x:
            ident = x
            break
    if ident is None:
        raise InputError("carrier has no identity element")

    gens = list(subgroup_generators)
    for g in gens:
        if g not in eset:
            raise InputError(f"subgroup generator {g!r} is not in the carrier")

    sub = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                x = checked(h, g)
                if x not in sub:
                    sub.add(x)
                    nxt.append(x)
        frontier = nxt
    if len(eset) % len(sub):
        raise InputError("subgroup order does not divide carrier order")

    coset_of: dict = {}
    reps = []
    for x in elems:
        if x in coset_of:
            continue
        cid = len(reps)
        reps.append(x)
        for h in sub:
            y = checked(x, h)
            prev = coset_of.get(y)
            if prev is not None and prev != cid:
                raise InputError("cosets overlap; carrier is not a group")
            coset_of[y] = cid
    m = len(reps)
    if m * len(sub) != len(eset):
        raise InputError("coset sizes are not uniform")

    id_cid = coset_of[ident]
    orders = []
    for r in reps:
        y = r
        k = 1
        while coset_of[y] != id_cid:
            y = checked(y, r)
            k += 1
            if k > m:
                raise InputError("element order exceeds quotient order")
        orders.append(k)
    return FiniteAbelianGroup(_invariant_factors_from_orders(orders))


def _invariant_factors_from_orders(orders: list[int]) -> tuple[int, ...]:
    m = len(orders)
    if m == 1:
        return ()
    exps: dict[int, list[int]] = {}
    for p in _factorint(m):
        # f(k) = number of elements killed by p^k; the ratios f(k)/f(k-1)
        # are p^{a_k} with a_k the number of cyclic p-factors of exponent >= k.
        counts = [sum(1 for o in orders if o == 1)]
        k = 1
        while True:
            pk = p ** k
            f = sum(1 for o in orders if pk % o == 0)
            counts.append(f)
            if f == counts[k - 1]:
                break
            k += 1
        heights = []
        for k in range(1, len(counts)):
            ratio, rem = divmod(counts[k], counts[k - 1])
            if rem:
                raise InputError("torsion counts are inconsistent; carrier is not a group")
            a_k = 0
            while ratio % p == 0:
                ratio //= p
                a_k += 1
            if ratio != 1:
                raise InputError("torsion counts are not p-power ratios; carrier is not a group")
            if a_k:
                heights.append(a_k)
        lam = [sum(1 for a in heights if a >= j) for j in range(1, (heights and max(heights) or 0) + 1)]
        # lam is the descending exponent list of cyclic p-power factors
        if lam:
            exps[p] = lam
    width = max((len(v) for v in exps.values()), default=0)
    descending = []
    for j in range(width):
        d = 1
        for p, lam in exps.items():
            if j < len(lam):
                d *= p ** lam[j]
        descending.append(d)
    factors = tuple(reversed(descending))
    if math.prod(factors) != m:
        raise InputError("torsion counting does not account for the quotient order")
    return factors


# ---------------------------------------------------------------------------
# torsion-free descriptors


class SymbolicPrimeClass(namedtuple("SymbolicPrimeClass", "cap complement_infinite")):
    """An infinite class of primes sharing one cap.

    ``complement_infinite`` records whether infinitely many primes lie
    outside the class (those outside, and outside the exception map, have
    cap 0).  Only these cardinality facts enter the type checks.
    """

    __slots__ = ()

    def __new__(cls, cap: int | float, complement_infinite: bool = True):
        if cap != INF:
            cap = int(cap)
            if cap < 1:
                raise InputError("symbolic prime class needs cap >= 1")
        return super().__new__(cls, cap, complement_infinite)


class Rank1GroupDescriptor(namedtuple("Rank1GroupDescriptor", "exceptions symbolic")):
    """A rank-one subgroup of the rationals, up to isomorphism.

    ``exceptions`` maps finitely many primes to caps (0, positive, or
    INF); all other primes take the default: cap 0 when ``symbolic`` is
    None, else membership in the symbolic class.
    """

    __slots__ = ()

    def __new__(
        cls, exceptions: tuple[tuple[int, int | float], ...] = (), symbolic: SymbolicPrimeClass | None = None
    ):
        norm = []
        for p, cap in sorted(exceptions):
            p = int(p)
            if not is_prime(p):
                raise InputError(f"exception key {p} is not prime")
            if norm and norm[-1][0] == p:
                raise InputError(f"repeated exception prime {p}")
            if cap != INF:
                cap = int(cap)
                if cap < 0:
                    raise InputError("caps must be >= 0")
            norm.append((p, cap))
        return super().__new__(cls, tuple(norm), symbolic)

    def finitely_many_divisible_primes(self) -> bool:
        # primes with cap >= 1 form a finite set iff there is no symbolic class
        return self.symbolic is None

    def complement_of_divisible_primes_infinite(self) -> bool:
        if self.symbolic is None:
            return True
        return self.symbolic.complement_infinite

    def infinite_cap_primes(self) -> list[int]:
        return [p for p, cap in self.exceptions if cap == INF]

    def to_json(self) -> dict:
        out: dict = {
            "exceptions": {str(p): ("inf" if cap == INF else cap) for p, cap in self.exceptions}
        }
        if self.symbolic is not None:
            out["symbolic"] = {
                "cap": "inf" if self.symbolic.cap == INF else self.symbolic.cap,
                "complement_infinite": self.symbolic.complement_infinite,
            }
        return out


class TorsionFreeGroupDescriptor(namedtuple("TorsionFreeGroupDescriptor", "components")):
    """Finite direct sum of rank-one descriptors; the integers are
    ``Rank1GroupDescriptor()`` and ZZ^n is n copies of it."""

    __slots__ = ()

    def __new__(cls, components: tuple[Rank1GroupDescriptor, ...]):
        comps = tuple(components)
        if not comps:
            raise InputError("descriptor needs at least one component (group must be nonzero)")
        return super().__new__(cls, comps)

    @property
    def rank(self) -> int:
        return len(self.components)

    def to_json(self) -> dict:
        return {"components": [c.to_json() for c in self.components]}

    @staticmethod
    def from_json(data: dict) -> "TorsionFreeGroupDescriptor":
        """The descriptor whose ``to_json`` is ``data``."""
        comps = []
        for c in data["components"]:
            exceptions = []
            for p, cap in c.get("exceptions", {}).items():
                exceptions.append((int(p), INF if cap == "inf" else int(cap)))
            sym = None
            if "symbolic" in c:
                s = c["symbolic"]
                cap = INF if s["cap"] == "inf" else int(s["cap"])
                sym = SymbolicPrimeClass(cap, bool(s["complement_infinite"]))
            comps.append(Rank1GroupDescriptor(tuple(exceptions), sym))
        return TorsionFreeGroupDescriptor(tuple(comps))

    def __str__(self) -> str:
        return f"torsion-free group of rank {self.rank}"


def _read_cap(text: str) -> int | float:
    if text == "inf":
        return INF
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"cap must be an integer or 'inf', got {text!r}") from exc


def read_descriptor(text: str) -> TorsionFreeGroupDescriptor:
    """The descriptor a text names, in the grammar of the module docstring."""
    comps = []
    for part in text.split("+"):
        part = part.strip()
        if part == "z":
            comps.append(Rank1GroupDescriptor())
            continue
        exceptions = []
        symbolic = None
        for tok in part.split(","):
            tok = tok.strip()
            if not tok:
                continue
            head, sep, cap_text = tok.partition("^")
            if not sep:
                raise InputError(f"descriptor token {tok!r} needs the form prime^cap or sym^cap")
            if head == "sym":
                if symbolic is not None:
                    raise InputError(f"repeated sym^ entry in {part!r}")
                complement_infinite = not cap_text.endswith("~fin")
                symbolic = SymbolicPrimeClass(_read_cap(cap_text.removesuffix("~fin")), complement_infinite)
            else:
                try:
                    prime = int(head)
                except ValueError as exc:
                    raise InputError(f"descriptor token {tok!r}: {head!r} is not an integer") from exc
                exceptions.append((prime, _read_cap(cap_text)))
        if not exceptions and symbolic is None:
            raise InputError(f"empty component in descriptor {text!r} (Z is written z)")
        comps.append(Rank1GroupDescriptor(tuple(exceptions), symbolic))
    return TorsionFreeGroupDescriptor(tuple(comps))


def integers(rank: int = 1) -> TorsionFreeGroupDescriptor:
    return TorsionFreeGroupDescriptor(tuple(Rank1GroupDescriptor() for _ in range(rank)))


def prime_power_union(p: int, cap: int | float = INF) -> TorsionFreeGroupDescriptor:
    """The group of rationals with denominator a power of p (cap bounds the exponent)."""
    return TorsionFreeGroupDescriptor((Rank1GroupDescriptor(((p, cap),)),))


class TypeWitness(NamedTuple):
    """Why a type check failed: the offending component plus a chain scheme."""

    component: int
    reason: str
    prime: int | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {"component": self.component, "reason": self.reason, "detail": self.detail}
        if self.prime is not None:
            out["prime"] = self.prime
        return out


def is_type_000(g: TorsionFreeGroupDescriptor) -> tuple[bool, TypeWitness | None]:
    """ACC on cyclic subgroups: every component cyclic (finitely many
    divisible primes, all caps finite)."""
    for i, comp in enumerate(g.components):
        if comp.symbolic is not None:
            return False, TypeWitness(
                i,
                "infinitely-many-divisible-primes",
                detail="the symbolic prime class gives a strictly ascending chain of cyclic subgroups "
                "through ever more primes",
            )
        bad = comp.infinite_cap_primes()
        if bad:
            p = bad[0]
            return False, TypeWitness(
                i,
                "prime-with-infinite-cap",
                prime=p,
                detail=f"the chain generated by 1/{p}^n ascends strictly",
            )
    return True, None


def is_type_000_except_p(g: TorsionFreeGroupDescriptor, p: int) -> tuple[bool, TypeWitness | None]:
    """Conditions (i) and (ii) at the prime p, checked componentwise.

    (i): the set of primes dividing some nonzero element has infinite
    complement.  (ii): every prime q != p has finite cap.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    for i, comp in enumerate(g.components):
        if not comp.complement_of_divisible_primes_infinite():
            return False, TypeWitness(
                i,
                "condition-i-failed",
                detail="all but finitely many primes divide; the complement of the divisible primes is finite",
            )
        for q, cap in comp.exceptions:
            if q != p and cap == INF:
                return False, TypeWitness(
                    i,
                    "condition-ii-failed",
                    prime=q,
                    detail=f"prime {q} != {p} has cap infinity",
                )
        if comp.symbolic is not None and comp.symbolic.cap == INF:
            return False, TypeWitness(
                i,
                "condition-ii-failed",
                detail="the symbolic prime class has cap infinity, so some prime q != p does too",
            )
    return True, None


def satisfies_i_prime(g: TorsionFreeGroupDescriptor) -> bool:
    """Strengthened condition (i'): only finitely many primes divide any
    nonzero element, in every component."""
    return all(comp.finitely_many_divisible_primes() for comp in g.components)
