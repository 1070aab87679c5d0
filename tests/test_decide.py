import random

import pytest

from wktoolkit.affine import direct_sum
from wktoolkit.decide import (
    Flag,
    affine_monoid_descriptor,
    custom_domain,
    custom_monoid,
    decide_generalized_krull,
    decide_weakly_krull,
    decide_wfd,
    kg_weakly_krull,
    numerical_monoid_descriptor,
    prime_field,
    read_domain,
    read_monoid,
    replay_step,
)
from wktoolkit.errors import InputError
from wktoolkit.groups import integers, prime_power_union
from wktoolkit.numon import enumerate_numerical_monoids, from_generators


def test_kg_weakly_krull_contract_examples():
    assert kg_weakly_krull(0, integers()).answer is True
    assert kg_weakly_krull(2, prime_power_union(2)).answer is True
    assert kg_weakly_krull(0, prime_power_union(2)).answer is False
    with pytest.raises(InputError):
        kg_weakly_krull(4, integers())


def test_decide_weakly_krull_contract_examples():
    z = read_domain("z")
    m23 = numerical_monoid_descriptor(from_generators([2, 3]))
    v = decide_weakly_krull(z, m23)
    assert v.answer is True
    assert any(s.rule == "affine-sum-weakly-krull-umt" for s in v.certificate)

    g2 = prime_power_union(2)
    custom = custom_monoid(g2, weakly_krull=True, umt=True)
    assert decide_weakly_krull(prime_field(2), custom).answer is True
    assert decide_weakly_krull(read_domain("field:char=0"), custom).answer is False


def test_decide_weakly_krull_field_convention_cited():
    f2 = prime_field(2)
    m = numerical_monoid_descriptor(from_generators([2, 3]))
    v = decide_weakly_krull(f2, m)
    assert v.answer is True
    assert any(s.rule == "field-trivial-case" for s in v.certificate)


def test_decide_wfd_contract_examples():
    z = read_domain("z")
    n0 = numerical_monoid_descriptor(from_generators([1]))
    assert decide_wfd(z, n0).answer is True

    v = decide_wfd(z, numerical_monoid_descriptor(from_generators([2, 3])))
    assert v.answer is False
    gcd_steps = [s for s in v.certificate if s.rule == "monoid-gcd-iff-root-closed"]
    assert gcd_steps and "witness gap 1" in gcd_steps[0].outcome

    unknown = custom_domain(characteristic=0)
    assert decide_wfd(unknown, n0).answer is None


def test_decide_generalized_krull_contract_examples():
    f3 = prime_field(3)
    n0 = numerical_monoid_descriptor(from_generators([1]))
    m23 = numerical_monoid_descriptor(from_generators([2, 3]))
    assert decide_generalized_krull(f3, n0).answer is True
    v = decide_generalized_krull(f3, m23)
    assert v.answer is False
    steps = [s for s in v.certificate if s.rule == "monoid-generalized-krull-iff-valuation"]
    assert steps and steps[0].inputs["witness_pair"] == [2, 3]

    attested = custom_domain(characteristic=0, generalized_krull="attested-true")
    assert decide_generalized_krull(attested, n0).answer is True


def test_weakly_krull_true_on_exhaustive_numerical_family():
    z = read_domain("z")
    for s in enumerate_numerical_monoids(12):
        v = decide_weakly_krull(z, numerical_monoid_descriptor(s))
        assert v.answer is True


def test_decide_true_implies_group_test_true():
    z = read_domain("z")
    f5 = prime_field(5)
    cases = [
        (z, numerical_monoid_descriptor(from_generators([2, 3]))),
        (f5, numerical_monoid_descriptor(from_generators([3, 5]))),
        (f5, affine_monoid_descriptor(direct_sum([from_generators([2, 3]), from_generators([1])]))),
        (prime_field(2), custom_monoid(prime_power_union(2), weakly_krull=True, umt=True)),
    ]
    for d, m in cases:
        v = decide_weakly_krull(d, m)
        if v.answer is True:
            assert kg_weakly_krull(d.characteristic, m.group).answer is True


def test_affine_descriptor_flags():
    g = direct_sum([from_generators([2, 3]), from_generators([3, 5])])
    m = affine_monoid_descriptor(g)
    assert m.weakly_krull is Flag.TRUE
    assert m.umt is Flag.TRUE
    assert m.gcd is Flag.FALSE
    assert m.generalized_krull is Flag.FALSE
    free = affine_monoid_descriptor(direct_sum([from_generators([1]), from_generators([1])]))
    assert free.gcd is Flag.TRUE
    assert free.generalized_krull is Flag.TRUE
    assert decide_weakly_krull(read_domain("z"), m).answer is True


def test_order_in_number_field_profile():
    d = read_domain("order")
    m = numerical_monoid_descriptor(from_generators([2, 3]))
    v = decide_weakly_krull(d, m)
    assert v.answer is True
    attested_steps = [s for s in v.certificate if "attested" in s.outcome]
    assert attested_steps  # the attestations are surfaced, not hidden


def test_wfd_implies_weakly_krull_on_random_pairs():
    from tests_support_random import random_domain, random_monoid

    rng = random.Random(47)
    hits = 0
    for _ in range(200):
        d = random_domain(rng)
        m = random_monoid(rng)
        if decide_wfd(d, m).answer is True:
            hits += 1
            assert decide_weakly_krull(d, m).answer is True
    assert hits > 0  # the sample does exercise the implication


def test_certificates_replay():
    scenarios = [
        decide_weakly_krull(read_domain("z"), numerical_monoid_descriptor(from_generators([2, 3]))),
        decide_wfd(read_domain("z"), numerical_monoid_descriptor(from_generators([2, 3]))),
        decide_wfd(read_domain("z"), numerical_monoid_descriptor(from_generators([1]))),
        decide_generalized_krull(prime_field(3), numerical_monoid_descriptor(from_generators([2, 3]))),
        decide_weakly_krull(
            prime_field(2), custom_monoid(prime_power_union(2), weakly_krull=True, umt=True)
        ),
        decide_weakly_krull(
            read_domain("field:char=0"), custom_monoid(prime_power_union(2), weakly_krull=True, umt=True)
        ),
        decide_weakly_krull(
            read_domain("z"),
            affine_monoid_descriptor(direct_sum([from_generators([2, 3]), from_generators([3, 5])])),
        ),
        decide_wfd(
            read_domain("z"),
            affine_monoid_descriptor(direct_sum([from_generators([2, 3]), from_generators([3, 5])])),
        ),
        decide_generalized_krull(
            prime_field(2),
            affine_monoid_descriptor(direct_sum([from_generators([3, 5]), from_generators([1])])),
        ),
        decide_wfd(custom_domain(characteristic=0), numerical_monoid_descriptor(from_generators([1]))),
    ]
    for verdict in scenarios:
        for step in verdict.certificate:
            assert replay_step(step) == step.outcome


def test_certificates_replay_on_random_pairs():
    from tests_support_random import random_domain, random_monoid

    rng = random.Random(53)
    for _ in range(200):
        d = random_domain(rng)
        m = random_monoid(rng)
        for decide in (decide_weakly_krull, decide_wfd, decide_generalized_krull):
            for step in decide(d, m).certificate:
                assert replay_step(step) == step.outcome, step


def test_replay_recomputes_from_tampered_inputs():
    wfd = decide_wfd(read_domain("z"), numerical_monoid_descriptor(from_generators([2, 3])))
    gcd_step = next(s for s in wfd.certificate if s.rule == "monoid-gcd-iff-root-closed")
    assert gcd_step.outcome == "false (witness gap 1)"
    tampered = gcd_step._replace(inputs={**gcd_step.inputs, "components": [[1]]})
    assert replay_step(tampered) == "true"

    wk = decide_weakly_krull(read_domain("z"), numerical_monoid_descriptor(from_generators([2, 3])))
    umt_step = next(s for s in wk.certificate if s.rule == "affine-sum-weakly-krull-umt")
    with pytest.raises(InputError):  # gcd 2: no numerical monoid
        replay_step(umt_step._replace(inputs={"components": [[2, 4]]}))


def test_a_numerical_monoid_is_decided_as_the_sum_of_one():
    domains = [read_domain(text) for text in ("z", "fp:2", "q", "order", "custom:char=3;weakly_krull=true;umt=false")]
    monoids = list(enumerate_numerical_monoids(10))
    assert len(monoids) == 80  # 1, 1, 1, 2, 2, 5, 4, 11, 10, 21, 22 with Frobenius number 0..10
    for s in monoids:
        one, summed = numerical_monoid_descriptor(s), affine_monoid_descriptor(direct_sum([s]))
        assert one == summed
        for d in domains:
            for decide in (decide_weakly_krull, decide_wfd, decide_generalized_krull):
                verdict = decide(d, one)
                assert verdict == decide(d, summed)
                for step in verdict.certificate:
                    assert replay_step(step) == step.outcome, step
                    if step.rule in ("monoid-gcd-iff-root-closed", "monoid-generalized-krull-iff-valuation"):
                        assert (step.outcome == "true") == (s.gaps == ())


def test_unknown_never_guessed():
    d = custom_domain(characteristic=None, weakly_krull=True, umt=True)
    m = numerical_monoid_descriptor(from_generators([2, 3]))
    v = decide_weakly_krull(d, m)
    assert v.answer is None  # characteristic unknown blocks the group test
    d2 = custom_domain(characteristic=0, weakly_krull=True)
    assert decide_weakly_krull(d2, m).answer is None  # umt unknown


def test_flag_closure_rules():
    d = custom_domain(characteristic=0, weakly_factorial=True)
    assert d.weakly_krull is Flag.TRUE
    d2 = custom_domain(characteristic=0, gcd=True)
    assert d2.umt is Flag.TRUE
    d3 = custom_domain(characteristic=0, is_field=True)
    assert d3.weakly_krull is Flag.TRUE and d3.gcd is Flag.TRUE
    with pytest.raises(InputError):
        custom_domain(characteristic=0, bogus=True)


def test_contradictory_attestations_rejected():
    with pytest.raises(InputError):
        custom_domain(characteristic=0, weakly_factorial=True, weakly_krull=False)
    with pytest.raises(InputError):
        custom_monoid(integers(), gcd=True, umt=False)
    with pytest.raises(InputError):
        custom_domain(characteristic=0, is_field=True, gcd=False)
    with pytest.raises(InputError):
        custom_domain(characteristic=6)


def test_one_flag_reader_for_field_and_custom_facts():
    # field: facts once read only true/false/yes/no/1/0, custom: facts only
    # the Flag values; both now read every spelling
    assert read_domain("custom:char=0;infinite=yes").infinite is Flag.TRUE
    assert read_domain("field:char=0,infinite=attested-true").infinite is Flag.ATTESTED_TRUE
    assert read_domain("field:char=0,ph=unknown") == read_domain("field:char=0")
    spellings = {Flag.TRUE: ("true", "yes", "1"), Flag.FALSE: ("false", "no", "0")}
    for flag, words in spellings.items():
        for template in ("field:char=2,infinite={}", "custom:char=2;infinite={}", "custom:weakly_krull={};umt=true"):
            read = [read_domain(template.format(word)) for word in words]
            assert read == [read[0]] * len(words), template
        monoids = [read_monoid(f"custom:group=z;umt={word}") for word in words]
        assert monoids == [custom_monoid(integers(), umt=flag)] * len(words)
    for bad in ("field:infinite=maybe", "custom:umt=True", "custom:umt=2"):
        with pytest.raises(InputError, match="cannot read flag value"):
            read_domain(bad)


def test_every_domain_descriptor_comes_from_the_one_constructor():
    # the named domains keep the kinds and names certificates print
    for text, kind, name in (
        ("z", "integers", "Z"),
        ("q", "symbolic-field", "Q"),
        ("order", "order-in-number-field", "order in a number field"),
        ("fp:5", "prime-field", "F_5"),
        ("field:char=3", "symbolic-field", "field of characteristic 3"),
        ("field:infinite=true", "symbolic-field", "field of unknown characteristic"),
        ("custom:umt=true", "custom", "custom domain"),
    ):
        d = read_domain(text)
        assert (d.kind, d.name) == (kind, name)
        flags = {k: v for k, v in d._asdict().items() if isinstance(v, Flag)}
        assert d == custom_domain(d.characteristic, d.name, d.kind, **flags)
    z = read_domain("z")
    assert (z.characteristic, z.is_field, z.pseudo_hilbertian) == (0, Flag.FALSE, Flag.UNKNOWN)
    assert all(z.flag(n) is Flag.TRUE for n in ("weakly_krull", "umt", "gcd", "weakly_factorial", "generalized_krull"))
    assert prime_field(7) == read_domain("fp:7")
    assert prime_field(7).infinite is Flag.FALSE and prime_field(7).pseudo_hilbertian is Flag.TRUE
    # a char given apart from the text fills a characteristic it leaves out
    assert read_domain("field:infinite=true", char=2) == read_domain("field:char=2,infinite=true")
    assert read_domain("z", char=0) == read_domain("z")


def test_the_characteristic_is_checked_once_with_one_message():
    message = "characteristic 4 is neither 0 nor prime"
    for text, char in (("field:char=4", None), ("custom:char=4", None), ("custom:umt=true", 4), ("field:ph=true", 4)):
        with pytest.raises(InputError, match=message):
            read_domain(text, char)
    with pytest.raises(InputError, match=message):
        custom_domain(4)
    for p in (0, 4, -3):
        with pytest.raises(InputError, match=f"{p} is not prime"):
            prime_field(p)
    with pytest.raises(InputError, match="contradicts"):
        read_domain("fp:3", char=5)


def test_text_keys_never_reach_the_constructor_parameters():
    # a custom: key once landed on custom_domain's own parameters: name=
    # renamed the domain and characteristic= raised a TypeError
    for key in ("name", "kind", "characteristic"):
        with pytest.raises(InputError, match=f"unknown domain flag {key!r}"):
            read_domain(f"custom:{key}=3")
    with pytest.raises(InputError, match="unknown monoid flag 'name'"):
        read_monoid("custom:group=z;name=foo")
