import itertools
import json
import random

import pytest

from wktoolkit import cli
from wktoolkit.affine import AffineSumMonoid, atoms, direct_sum
from wktoolkit.errors import InputError
from wktoolkit.numon import from_generators


def test_direct_sum_contract_examples():
    g = direct_sum([from_generators([2, 3]), from_generators([1])])
    assert g.rank == 2
    single = direct_sum([from_generators([1])])
    assert single.rank == 1
    both = direct_sum([from_generators([2, 3]), from_generators([3, 5])])
    assert both.contains((2, 3)) and both.contains((0, 0))
    assert not both.contains((1, 3))
    assert not both.contains((2, 4))
    with pytest.raises(InputError, match=r"^direct sum of no components$"):
        direct_sum([])
    with pytest.raises(InputError):
        both.contains((1, 2, 3))


def test_atoms_are_embedded_component_atoms():
    g = direct_sum([from_generators([2, 3]), from_generators([2, 3])])
    assert set(atoms(g)) == {(2, 0), (3, 0), (0, 2), (0, 3)}
    free2 = direct_sum([from_generators([1]), from_generators([1])])
    assert set(atoms(free2)) == {(1, 0), (0, 1)}
    single = direct_sum([from_generators([3, 5])])
    assert set(atoms(single)) == {(3,), (5,)}


def _is_atom_brute_force(g: AffineSumMonoid, vec, box):
    # oracle: nonzero member with no splitting into two nonzero members
    if not g.contains(vec) or not any(vec):
        return False
    for parts in itertools.product(*(range(v + 1) for v in vec)):
        rest = tuple(v - p for v, p in zip(vec, parts))
        if not any(parts) or not any(rest):
            continue
        if g.contains(parts) and g.contains(rest):
            return False
    return True


def test_atoms_brute_force_minimality():
    g = direct_sum([from_generators([2, 3]), from_generators([3, 5])])
    declared = set(atoms(g))
    box = 11
    found = {
        vec
        for vec in itertools.product(range(box), repeat=2)
        if _is_atom_brute_force(g, vec, box)
    }
    assert found == {v for v in declared if all(x < box for x in v)}


def test_membership_decomposes_componentwise():
    rng = random.Random(21)
    comps = [from_generators([2, 3]), from_generators([3, 4, 5])]
    g = direct_sum(comps)
    for _ in range(200):
        vec = (rng.randint(-2, 12), rng.randint(-2, 12))
        assert g.contains(vec) == all(s.contains(v) for s, v in zip(comps, vec))


def _properties(capsys, gens):
    assert cli.run(["affine", "info", "--gens", gens]) == 0
    return json.loads(capsys.readouterr().out)["properties"]


def test_properties_report(capsys):
    # the flags are the decision engine's, read off affine_monoid_descriptor
    rep = _properties(capsys, "2,3;3,5")
    assert rep["weakly_krull"] is True
    assert rep["umt"] is True
    assert rep["seminormal"] is False
    assert rep["root_closure_factorial"] is True
    assert rep["generalized_krull"] is False
    assert rep["has_proper_component"] is True
    assert rep["rules"] == ["affine-sum-weakly-krull-umt", "monoid-generalized-krull-iff-valuation"]

    rep_free = _properties(capsys, "1;1")
    assert rep_free["seminormal"] is True
    assert rep_free["generalized_krull"] is True
    assert rep_free["has_proper_component"] is False

    rep_single = _properties(capsys, "2,3")
    assert rep_single["rank"] == 1
    assert rep_single["weakly_krull"] is True
    assert rep_single["seminormal"] is False


def test_json_shape():
    g = direct_sum([from_generators([2, 3]), from_generators([3, 5])])
    assert g.to_json() == {"components": [{"atoms": [2, 3]}, {"atoms": [3, 5]}]}
