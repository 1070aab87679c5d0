"""Random descriptor generators shared by the decide tests and the
acceptance suite.  Contradictory flag draws are rejected by the factories,
so the generators simply redraw."""

from wktoolkit.affine import direct_sum
from wktoolkit.decide import (
    affine_monoid_descriptor,
    custom_domain,
    custom_monoid,
    numerical_monoid_descriptor,
    prime_field,
    read_domain,
)
from wktoolkit.errors import InputError
from wktoolkit.groups import (
    INF,
    Rank1GroupDescriptor,
    SymbolicPrimeClass,
    TorsionFreeGroupDescriptor,
)
from wktoolkit.numon import from_generators

_FLAG_NAMES = ("weakly_krull", "umt", "gcd", "weakly_factorial", "generalized_krull")


def random_group(rng):
    comps = []
    for _ in range(rng.randint(1, 2)):
        primes = rng.sample([2, 3, 5, 7], rng.randint(0, 2))
        exceptions = tuple((p, rng.choice([0, 1, INF])) for p in primes)
        symbolic = (
            SymbolicPrimeClass(rng.choice([1, INF]), rng.random() < 0.5)
            if rng.random() < 0.3
            else None
        )
        comps.append(Rank1GroupDescriptor(exceptions, symbolic))
    return TorsionFreeGroupDescriptor(tuple(comps))


def random_domain(rng):
    while True:
        choice = rng.random()
        if choice < 0.2:
            return read_domain("z")
        if choice < 0.4:
            return prime_field(rng.choice([2, 3, 5]))
        if choice < 0.5:
            return read_domain(f"field:char={rng.choice([0, 2, 3])}")
        flags = {
            name: rng.choice([True, False, None, "attested-true", "attested-false"])
            for name in _FLAG_NAMES
        }
        try:
            return custom_domain(characteristic=rng.choice([0, 2, 5, None]), **flags)
        except InputError:
            continue


def random_monoid(rng):
    while True:
        choice = rng.random()
        if choice < 0.35:
            return numerical_monoid_descriptor(
                from_generators(rng.choice([[1], [2, 3], [3, 5], [4, 6, 9]]))
            )
        if choice < 0.5:
            comps = [from_generators(rng.choice([[1], [2, 3], [3, 5]])) for _ in range(rng.randint(1, 3))]
            return affine_monoid_descriptor(direct_sum(comps))
        flags = {name: rng.choice([True, False, None]) for name in _FLAG_NAMES}
        try:
            return custom_monoid(random_group(rng), **flags)
        except InputError:
            continue


def random_numerical_monoid(rng, max_multiplicity=6):
    """A numerical monoid of multiplicity at most ``max_multiplicity`` from
    up to four generators, some of which may be redundant."""
    while True:
        m = rng.randint(1, max_multiplicity)
        gens = [m] + [rng.randint(m + 1, 3 * m + 4) for _ in range(rng.randint(1, 3))]
        try:
            return from_generators(gens)
        except InputError:
            continue
