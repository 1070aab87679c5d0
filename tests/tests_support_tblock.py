"""The T-block length set by a depth-first walk over every factorization,
kept as the oracle for the memoized length kernel of ``tblock_length_set``.

The walk takes the atoms dividing the element in a fixed order, peels them
off one at a time without ever going back to an earlier atom, and records
the number of atoms whenever the identity is reached."""

from collections import Counter

from wktoolkit.blocks import TBlockElement, _is_tblock_atom, _proper_divisors


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
