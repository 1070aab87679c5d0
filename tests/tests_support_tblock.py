"""T-block atoms and length sets straight from the definitions, kept as
oracles for the atom sieve and the length kernel of ``wktoolkit.blocks``.

An element is an atom when it has no valid proper divisor other than the
identity; ``_proper_divisors`` lists every valid sub-element of an element
whose complement is valid too.  The length walk takes the atoms dividing
the element in a fixed order, peels them off one at a time without ever
going back to an earlier atom, and records the number of atoms whenever
the identity is reached."""

import itertools
from collections import Counter

from wktoolkit.blocks import TBlockElement, TBlockSpec, tblock_validate


def _proper_divisors(spec: TBlockSpec, e: TBlockElement):
    """All valid sub-elements (b', t') of e other than the identity and e."""
    mult = Counter(e.elements)
    support = sorted(mult)
    count_ranges = [range(mult[g] + 1) for g in support]
    t_choices = []
    for ti, (d, _) in zip(e.t, spec.components):
        t_choices.append([v for v in range(ti + 1) if d.contains(v) and d.contains(ti - v)])
    for counts in itertools.product(*count_ranges):
        sub_elems = []
        for g, c in zip(support, counts):
            sub_elems.extend([g] * c)
        for t_sub in itertools.product(*t_choices):
            cand = TBlockElement(tuple(sub_elems), t_sub)
            if cand.is_identity:
                continue
            if cand.elements == e.elements and cand.t == e.t:
                continue
            if tblock_validate(spec, cand):
                yield cand


def _is_tblock_atom(spec: TBlockSpec, e: TBlockElement) -> bool:
    if e.is_identity:
        return False
    for _ in _proper_divisors(spec, e):
        return False
    return True


def _sub_multiset(inner, outer):
    return all(outer.get(e, 0) >= m for e, m in inner.items())


def _subtract(outer, inner):
    out = dict(outer)
    for e, m in inner.items():
        out[e] -= m
        if not out[e]:
            del out[e]
    return out


def tblock_lengths_by_recursion(spec, e):
    if e.is_identity:
        return (0,)
    divisor_atoms = [d for d in _proper_divisors(spec, e) if _is_tblock_atom(spec, d)]
    if _is_tblock_atom(spec, e):
        divisor_atoms.append(e)
    divisor_atoms.sort(key=lambda a: (a.elements, a.t))
    lengths = set()

    def remainder(big, small):
        bm, sm = Counter(big.elements), Counter(small.elements)
        if not _sub_multiset(sm, bm):
            return None
        t_rest = tuple(b - s for b, s in zip(big.t, small.t))
        if any(x < 0 or x not in d for x, (d, _) in zip(t_rest, spec.components)):
            return None
        rest = _subtract(bm, sm)
        elems = []
        for g, c in sorted(rest.items()):
            elems.extend([g] * c)
        return TBlockElement(tuple(elems), t_rest)

    def rec(current, start, count):
        if current.is_identity:
            lengths.add(count)
            return
        for j in range(start, len(divisor_atoms)):
            rest = remainder(current, divisor_atoms[j])
            if rest is not None:
                rec(rest, j, count + 1)

    rec(e, 0, 0)
    return tuple(sorted(lengths))


def tblock_atoms_by_definition(spec, block_cap, t_caps):
    """Every valid element within the caps that has no valid proper divisor,
    in the order of the atom sort key."""
    t_ranges = [[v for v in range(cap + 1) if v in d] for (d, _), cap in zip(spec.components, t_caps)]
    atoms = []
    for k in range(block_cap + 1):
        for combo in itertools.combinations_with_replacement(spec.g0, k):
            for t in itertools.product(*t_ranges):
                cand = TBlockElement(combo, t)
                if tblock_validate(spec, cand) and _is_tblock_atom(spec, cand):
                    atoms.append(cand)
    return sorted(atoms, key=lambda a: (len(a.elements) + sum(a.t), a.elements, a.t))
