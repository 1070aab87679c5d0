"""Decision procedures for weakly Krull, weakly factorial and generalized
Krull semigroup rings, with certificate traces.

The engine composes three ingredients: structural flags of the coefficient
domain, structural flags of the exponent monoid, and a divisibility-type
test on the monoid's quotient group that depends only on the
characteristic.  Verdicts use three-valued logic; an unknown flag
propagates to an unknown answer, never to a guess.  Attested flags are
accepted and surfaced verbatim in the certificate: whether an arbitrary
domain is weakly Krull or UMT is not decidable from any finite descriptor,
so the engine's value is correct composition of the rules, not
omniscience.

Certificates are ordered lists of rule applications with their inputs and
outcomes.  ``RULES`` is the one place where a rule's logic is written: it
maps each rule name to its statement and to a function from the recorded
inputs to the outcome (plus the witness, where the certificate records
one).  Deciding a question evaluates those functions on the inputs it
records, and ``replay_step`` evaluates the same function on the inputs a
certificate recorded: monoid rules rebuild the monoids from the recorded
components, group rules re-run the type test on the recorded group, and flag
steps return the recorded flag.

Convention, used in exactly one rule: a field counts as trivially weakly
Krull and UMT (it has no height-one primes).  Each certificate that relies
on it says so.

Every domain descriptor is built by ``custom_domain``, the one place that
checks the characteristic and applies the field convention.  The text
grammars, read by ``read_domain`` and ``read_monoid``:

* domains:  ``z`` | ``q`` | ``order`` (an order in a number field) |
  ``fp:P`` | ``field:char=C,infinite=F,ph=F`` (``ph``: pseudo-Hilbertian) |
  ``custom:char=C;FLAG=F;...`` with FLAG one of ``is_field``,
  ``weakly_krull``, ``umt``, ``gcd``, ``weakly_factorial``,
  ``generalized_krull``, ``infinite``, ``pseudo_hilbertian``; C is an
  integer or ``none``, F one of ``true``, ``false``, ``attested-true``,
  ``attested-false``, ``unknown``, ``yes``, ``no``, ``1`` and ``0``, and
  any entry may be left out
* monoids:  ``numerical:2,3`` | ``affine:2,3;3,5`` |
  ``custom:group=DESC;FLAG=F;...`` with DESC a torsion-free descriptor
  (``groups.read_descriptor``) and FLAG one of ``weakly_krull``, ``umt``,
  ``gcd``, ``weakly_factorial``, ``generalized_krull``
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import groups as grp
from .errors import InputError
from .groups import TorsionFreeGroupDescriptor, TypeWitness, is_prime
from .numon import NumericalMonoid, from_generators, is_valuation

if TYPE_CHECKING:
    from .affine import AffineSumMonoid


class Flag(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    ATTESTED_TRUE = "attested-true"
    ATTESTED_FALSE = "attested-false"
    UNKNOWN = "unknown"

    @property
    def truth(self) -> bool | None:
        if self in (Flag.TRUE, Flag.ATTESTED_TRUE):
            return True
        if self in (Flag.FALSE, Flag.ATTESTED_FALSE):
            return False
        return None


# every value a flag may be given as: a Flag, its text, None (unknown), a
# bool, or one of the texts yes, no, 1 and 0
_FLAG_VALUES = {
    **{f: f for f in Flag},
    **{f.value: f for f in Flag},
    None: Flag.UNKNOWN,
    True: Flag.TRUE,
    False: Flag.FALSE,
    "yes": Flag.TRUE,
    "1": Flag.TRUE,
    "no": Flag.FALSE,
    "0": Flag.FALSE,
}


def _read_flags(values: dict, names: tuple[str, ...], owner: str) -> dict[str, Flag]:
    """The one flag reader: the flags ``values`` gives, each key one of
    ``names`` and each value one of ``_FLAG_VALUES``."""
    flags = {}
    for key, value in values.items():
        if key not in names:
            raise InputError(f"unknown {owner} flag {key!r}")
        try:
            flags[key] = _FLAG_VALUES[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise InputError(f"cannot read flag value {value!r}") from None
    return flags


def _pairs(text: str, sep: str) -> dict[str, str]:
    """``key=value`` entries joined by ``sep``; a key may appear once."""
    out: dict[str, str] = {}
    for tok in text.split(sep):
        tok = tok.strip()
        if not tok:
            continue
        key, eq, value = tok.partition("=")
        if not eq:
            raise InputError(f"expected key=value, got {tok!r}")
        key = key.strip()
        if key in out:
            raise InputError(f"repeated key {key!r} in {text!r}")
        out[key] = value.strip()
    return out


class CertStep(NamedTuple):
    """One rule application: name, human statement, inputs used, outcome."""

    rule: str
    statement: str
    inputs: dict
    outcome: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "statement": self.statement,
            "inputs": self.inputs,
            "outcome": self.outcome,
        }


class Verdict(NamedTuple):
    answer: bool | None
    certificate: tuple[CertStep, ...] = ()

    def to_json(self) -> dict:
        return {
            "answer": self.answer,
            "certificate": [s.to_json() for s in self.certificate],
        }


# ---------------------------------------------------------------------------
# descriptors

_DOMAIN_FLAGS = (
    "is_field",
    "weakly_krull",
    "umt",
    "gcd",
    "weakly_factorial",
    "generalized_krull",
)


class DomainDescriptor(NamedTuple):
    kind: str
    name: str
    characteristic: int | None
    is_field: Flag = Flag.UNKNOWN
    weakly_krull: Flag = Flag.UNKNOWN
    umt: Flag = Flag.UNKNOWN
    gcd: Flag = Flag.UNKNOWN
    weakly_factorial: Flag = Flag.UNKNOWN
    generalized_krull: Flag = Flag.UNKNOWN
    infinite: Flag = Flag.UNKNOWN
    pseudo_hilbertian: Flag = Flag.UNKNOWN

    def flag(self, name: str) -> Flag:
        return getattr(self, name)


_DOMAIN_FACTS = _DOMAIN_FLAGS + ("infinite", "pseudo_hilbertian")

_DOMAIN_CLOSURE_RULES = (
    # (premise flag, consequence flag): standard implications applied to
    # explicit descriptors so attested inputs stay coherent
    ("weakly_factorial", "weakly_krull"),
    ("gcd", "umt"),
    ("generalized_krull", "weakly_krull"),
)


def _close_flags(values: dict) -> None:
    for premise, consequence in _DOMAIN_CLOSURE_RULES:
        if values[premise].truth:
            if values[consequence].truth is False:
                raise InputError(
                    f"inconsistent flags: {premise} implies {consequence}, which is attested false"
                )
            if values[consequence] is Flag.UNKNOWN:
                values[consequence] = Flag.TRUE


def custom_domain(
    characteristic: int | None = None, name: str = "custom domain", kind: str = "custom", **flags
) -> DomainDescriptor:
    """Every domain descriptor is built here.  The characteristic is 0, a
    prime or unknown (None), and flags not given stay unknown.  A field has
    no height-one primes and no nonzero nonunits, so every structural flag
    of a field holds vacuously (the one-rule convention).  Known
    implications (weakly factorial implies weakly Krull, GCD implies UMT,
    generalized Krull implies weakly Krull) are closed off so descriptors
    cannot contradict the theorems the engine composes."""
    if characteristic not in (None, 0) and not is_prime(characteristic):
        raise InputError(f"characteristic {characteristic} is neither 0 nor prime")
    values = {**dict.fromkeys(_DOMAIN_FACTS, Flag.UNKNOWN), **_read_flags(flags, _DOMAIN_FACTS, "domain")}
    if values["is_field"].truth:
        for k in _DOMAIN_FLAGS:
            if values[k].truth is False:
                raise InputError(f"inconsistent flags: a field cannot have {k} false")
            if values[k] is Flag.UNKNOWN:
                values[k] = Flag.TRUE
    _close_flags(values)
    return DomainDescriptor(kind, name, characteristic, **values)


def prime_field(p: int) -> DomainDescriptor:
    """F_p, the domain ``fp:P`` names."""
    return read_domain(f"fp:{p}")


# the domains named by one word: text -> (kind, name, characteristic, flags)
_PROFILES = {
    # a principal ideal domain: Krull, weakly factorial, GCD, generalized
    # Krull and UMT (the closure adds weakly Krull and UMT)
    "z": ("integers", "Z", 0, dict(
        is_field=False, gcd=True, weakly_factorial=True, generalized_krull=True, infinite=True
    )),
    "q": ("symbolic-field", "Q", 0, dict(is_field=True, infinite=True, pseudo_hilbertian=True)),
    # attested: noetherian, weakly Krull and UMT because the integral
    # closures of its localizations at maximal t-ideals are one-dimensional
    # Krull, hence Pruefer
    "order": ("order-in-number-field", "order in a number field", 0, dict(
        is_field=False, weakly_krull="attested-true", umt="attested-true", infinite=True, pseudo_hilbertian=True
    )),
}


def _read_char(text: str | None) -> int | None:
    if text in (None, "none"):
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"cannot read characteristic {text!r}") from exc


def read_domain(text: str, char: int | None = None) -> DomainDescriptor:
    """The domain a text names, in the grammar of the module docstring.
    ``char`` supplies a characteristic the text leaves out and must agree
    with one it gives."""
    head, sep, rest = text.partition(":")
    if text in _PROFILES:
        kind, name, characteristic, flags = _PROFILES[text]
    elif head == "fp" and sep:
        try:
            characteristic = int(rest)
        except ValueError as exc:
            raise InputError(f"bad prime in {text!r}") from exc
        if not is_prime(characteristic):
            raise InputError(f"{characteristic} is not prime")
        # a finite field is pseudo-Hilbertian
        kind, name = "prime-field", f"F_{characteristic}"
        flags = dict(is_field=True, infinite=False, pseudo_hilbertian=True)
    elif head == "field" and sep:
        pairs = _pairs(rest, ",")
        characteristic = _read_char(pairs.pop("char", None))
        facts = _read_flags(pairs, ("infinite", "ph"), "field")
        kind, name = "symbolic-field", None  # named below, by its characteristic
        flags = dict(is_field=True, infinite=facts.get("infinite"), pseudo_hilbertian=facts.get("ph"))
    elif head == "custom" and sep:
        pairs = _pairs(rest, ";")
        characteristic = _read_char(pairs.pop("char", None))
        # read here, so that no key reaches the constructor's own parameters
        kind, name, flags = "custom", "custom domain", _read_flags(pairs, _DOMAIN_FACTS, "domain")
    else:
        raise InputError(f"cannot read domain {text!r}")
    if char is not None:
        if characteristic is not None and characteristic != char:
            raise InputError(f"--char {char} contradicts the domain's characteristic {characteristic}")
        characteristic = char
    if name is None:
        name = "field of " + ("unknown characteristic" if characteristic is None else f"characteristic {characteristic}")
    return custom_domain(characteristic, name, kind, **flags)


_MONOID_FLAGS = ("weakly_krull", "umt", "gcd", "weakly_factorial", "generalized_krull")


class MonoidDescriptor(NamedTuple):
    kind: str
    name: str
    group: TorsionFreeGroupDescriptor
    components: tuple[NumericalMonoid, ...] = ()  # empty for a custom monoid
    weakly_krull: Flag = Flag.UNKNOWN
    umt: Flag = Flag.UNKNOWN
    gcd: Flag = Flag.UNKNOWN
    weakly_factorial: Flag = Flag.UNKNOWN
    generalized_krull: Flag = Flag.UNKNOWN

    def flag(self, name: str) -> Flag:
        return getattr(self, name)


def _sum_descriptor(components: tuple[NumericalMonoid, ...]) -> MonoidDescriptor:
    """A finite direct sum of numerical monoids, all flags derived; a
    numerical monoid is the sum of one.

    Each component is primary (its nonzero elements are its only nonempty
    prime) with root closure the full discrete valuation monoid, so the sum
    is weakly Krull, weakly factorial and UMT.  It is a GCD monoid iff it is
    root closed, and generalized Krull iff each component is a valuation
    monoid; both hold iff no component has gaps.
    """
    free = Flag.TRUE if all(s.is_free for s in components) else Flag.FALSE
    return MonoidDescriptor(
        kind="affine-sum",
        name=" (+) ".join(map(str, components)),
        group=grp.integers(len(components)),
        components=components,
        weakly_krull=Flag.TRUE,
        umt=Flag.TRUE,
        gcd=free,
        weakly_factorial=Flag.TRUE,
        generalized_krull=free,
    )


def numerical_monoid_descriptor(s: NumericalMonoid) -> MonoidDescriptor:
    return _sum_descriptor((s,))


def affine_monoid_descriptor(gamma: AffineSumMonoid) -> MonoidDescriptor:
    return _sum_descriptor(gamma.components)


def custom_monoid(
    group: TorsionFreeGroupDescriptor, name: str = "custom monoid", **flags
) -> MonoidDescriptor:
    values = {**dict.fromkeys(_MONOID_FLAGS, Flag.UNKNOWN), **_read_flags(flags, _MONOID_FLAGS, "monoid")}
    _close_flags(values)
    return MonoidDescriptor(kind="custom", name=name, group=group, **values)


def _ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise InputError(f"cannot read integer list {text!r}") from exc


def read_monoid(text: str) -> MonoidDescriptor:
    """The monoid a text names, in the grammar of the module docstring."""
    head, sep, rest = text.partition(":")
    if head == "numerical" and sep:
        return _sum_descriptor((from_generators(_ints(rest)),))
    if head == "affine" and sep:
        components = tuple(from_generators(_ints(part)) for part in rest.split(";") if part != "")
        if not components:
            raise InputError("direct sum of no components")
        return _sum_descriptor(components)
    if head == "custom" and sep:
        pairs = _pairs(rest, ";")
        if "group" not in pairs:
            raise InputError("custom monoid needs group=<descriptor>")
        group = grp.read_descriptor(pairs.pop("group"))
        # read here, so that no key reaches the constructor's own parameters
        return custom_monoid(group, **_read_flags(pairs, _MONOID_FLAGS, "monoid"))
    raise InputError(f"cannot read monoid {text!r}")


# ---------------------------------------------------------------------------
# rules


class Rule(NamedTuple):
    """A rule's statement, formatted with the recorded inputs, and its one
    evaluator: recorded inputs -> (outcome, witness inputs to record)."""

    statement: str
    evaluate: Callable[[dict], tuple[str, dict]]


def _type_test(test: Callable[..., tuple[bool, TypeWitness | None]], group: dict, *args) -> tuple[str, dict]:
    ok, witness = test(TorsionFreeGroupDescriptor.from_json(group), *args)
    return "true" if ok else "false", {"witness": None if witness is None else witness.to_json()}


def _monoids(inputs: dict) -> list[NumericalMonoid]:
    """The components of the recorded sum; atoms that generate no numerical
    monoid raise InputError."""
    return [from_generators(atoms) for atoms in inputs["components"]]


def _gcd_iff_root_closed(inputs: dict) -> tuple[str, dict]:
    bad = next((s for s in _monoids(inputs) if not s.is_free), None)
    if bad is None:
        return "true", {}
    gap = next(n for n in itertools.count(1) if n not in bad)
    return f"false (witness gap {gap})", {"witness_gap": gap}


def _generalized_krull_iff_valuation(inputs: dict) -> tuple[str, dict]:
    bad = next((s for s in _monoids(inputs) if not is_valuation(s)), None)
    if bad is None:
        return "true", {}
    pair = (bad.atoms[0], bad.atoms[1])
    return f"false (neither of {pair} divides the other)", {"witness_pair": list(pair)}


def _check_monoids(inputs: dict) -> tuple[str, dict]:
    _monoids(inputs)
    return "true", {}


_FLAG_RULE = Rule("descriptor flag {flag} of {owner}", lambda i: (i["value"], {}))

# rule name (for descriptor flags, the part before ":") -> Rule
RULES: dict[str, Rule] = {
    "domain-flag": _FLAG_RULE,
    "monoid-flag": _FLAG_RULE,
    "field-trivial-case": Rule(
        "a field has no height-one primes and no nonzero nonunits; "
        "the required domain properties hold vacuously",
        lambda i: ("true", {}),
    ),
    "group-algebra-weakly-krull-char-zero": Rule(
        "K[G] is weakly Krull iff G has ACC on cyclic subgroups (type (0,0,0,...))",
        lambda i: _type_test(grp.is_type_000, i["group"]),
    ),
    "group-algebra-weakly-krull-char-p": Rule(
        "K[G] is weakly Krull iff G is of type (0,0,0,...) except p = char K",
        lambda i: _type_test(grp.is_type_000_except_p, i["group"], i["characteristic"]),
    ),
    "group-algebra-weakly-krull-criterion": Rule(
        "the divisibility-type test needs the characteristic of the domain",
        lambda i: ("unknown", {}),
    ),
    "affine-sum-weakly-krull-umt": Rule(
        "a finite direct sum of numerical monoids is a weakly Krull "
        "affine monoid, and every weakly Krull affine monoid is a UMT-monoid",
        _check_monoids,
    ),
    "primary-components-weakly-factorial": Rule(
        "every element splits into embedded components, each primary, "
        "so the monoid is weakly factorial",
        lambda i: ("true", {}),
    ),
    "monoid-gcd-iff-root-closed": Rule(
        "a GCD monoid is root closed; these monoids are root closed iff they have no gaps",
        _gcd_iff_root_closed,
    ),
    "monoid-generalized-krull-iff-valuation": Rule(
        "these primary monoids are generalized Krull iff they are "
        "valuation monoids, i.e. divisibility is total",
        _generalized_krull_iff_valuation,
    ),
}


def _rule(name: str) -> Rule:
    rule = RULES.get(name.partition(":")[0])
    if rule is None:
        raise InputError(f"no replay rule for {name!r}")
    return rule


def _step(name: str, inputs: dict) -> CertStep:
    rule = _rule(name)
    outcome, witness = rule.evaluate(inputs)
    return CertStep(name, rule.statement.format(**inputs), {**inputs, **witness}, outcome)


def replay_step(step: CertStep) -> str:
    """Recompute a certificate step's outcome from its recorded inputs."""
    return _rule(step.rule).evaluate(step.inputs)[0]


# ---------------------------------------------------------------------------
# questions


class _Question(NamedTuple):
    flags: tuple[str, ...]  # required of the domain and of a custom monoid
    steps: tuple[tuple[str, tuple[str, ...]], ...]  # (rule, recorded inputs) per sum step


_MONOID_INPUTS = {
    "monoid": lambda m: m.name,
    "components": lambda m: [list(s.atoms) for s in m.components],
}

_QUESTIONS = {
    "group-algebra": _Question((), ()),
    "weakly-krull": _Question(("weakly_krull", "umt"), (("affine-sum-weakly-krull-umt", ("components",)),)),
    "wfd": _Question(
        ("weakly_factorial", "gcd"),
        (
            ("primary-components-weakly-factorial", ("monoid",)),
            ("monoid-gcd-iff-root-closed", ("monoid", "components")),
        ),
    ),
    "generalized-krull": _Question(
        ("generalized_krull",), (("monoid-generalized-krull-iff-valuation", ("monoid", "components")),)
    ),
}


def _flag_step(side: str, owner_name: str, flag_name: str, f: Flag) -> CertStep:
    return _step(f"{side}-flag:{flag_name}", {"owner": owner_name, "flag": flag_name, "value": f.value})


def _decide(question: str, d: DomainDescriptor, m: MonoidDescriptor) -> Verdict:
    """All steps the question needs, in order: the domain side, the monoid
    side, then the type test on the quotient group.  A false step makes the
    answer false; otherwise an unknown step makes it unknown."""
    q = _QUESTIONS[question]
    if d.is_field.truth:
        steps = [_step("field-trivial-case", {"domain": d.name, "flags": list(q.flags)})]
    else:
        steps = [_flag_step("domain", d.name, n, d.flag(n)) for n in q.flags]
    if m.kind == "custom":
        steps += [_flag_step("monoid", m.name, n, m.flag(n)) for n in q.flags]
    else:
        steps += [_step(rule, {k: _MONOID_INPUTS[k](m) for k in keys}) for rule, keys in q.steps]
    group_rule = {None: "criterion", 0: "char-zero"}.get(d.characteristic, "char-p")
    steps.append(
        _step(
            f"group-algebra-weakly-krull-{group_rule}",
            {"characteristic": d.characteristic, "group": m.group.to_json()},
        )
    )
    truths = [Flag(s.outcome.split()[0]).truth for s in steps]
    answer = False if False in truths else None if None in truths else True
    return Verdict(answer=answer, certificate=tuple(steps))


def kg_weakly_krull(characteristic: int, group: TorsionFreeGroupDescriptor) -> Verdict:
    """Whether the group algebra of the quotient group over a field of the
    given characteristic is weakly Krull: in characteristic 0 the group
    must be of type (0,0,0,...), in characteristic p of that type except p.
    """
    return _decide("group-algebra", custom_domain(characteristic), custom_monoid(group))


def decide_weakly_krull(d: DomainDescriptor, m: MonoidDescriptor) -> Verdict:
    """The semigroup ring is weakly Krull iff the domain is a weakly Krull
    UMT-domain, the monoid is a weakly Krull UMT-monoid, and the quotient
    group passes the characteristic-dependent type test."""
    return _decide("weakly-krull", d, m)


def decide_wfd(d: DomainDescriptor, m: MonoidDescriptor) -> Verdict:
    """The semigroup ring is weakly factorial iff both sides are weakly
    factorial GCD-structures and the group type test passes."""
    return _decide("wfd", d, m)


def decide_generalized_krull(d: DomainDescriptor, m: MonoidDescriptor) -> Verdict:
    """The semigroup ring is generalized Krull iff both sides are
    generalized Krull and the group type test passes."""
    return _decide("generalized-krull", d, m)
