"""Answer checks: exit code, one JSON document, and the mathematical fields.

Every query carries a reference stored in ``pool.json`` (the exit code, the
error kind for rejected input, and the mathematical fields of the answer,
long ones as a SHA-256 of their canonical JSON).  Where an independent
oracle is cheap, it recomputes the answer as well; the oracles here share
no code with ``wktoolkit``:

* numerical monoids: the Apéry set of the multiplicity by a shortest-path
  search over residues (Nijenhuis), which gives membership, the Frobenius
  number, the gaps and the atoms; two generators also give ab - a - b;
* length sets and bounded Δ / U_k unions: the dynamic program
  L(n) = ⋃_a (L(n - a) + 1) over integer bitmasks;
* Davenport constants: D(C_n) = n and Olson's 1 + Σ(d_i - 1) for p-groups
  and rank at most 2;
* class groups over F_p: the order is p^#gaps.

The class-group ``generators`` strings are never compared: they are a
choice, not an invariant.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math


def digest(value) -> str:
    canon = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode()).hexdigest()


def without_generators(value):
    """``value`` with every ``generators`` key removed, at any depth."""
    if isinstance(value, dict):
        return {k: without_generators(v) for k, v in value.items() if k != "generators"}
    if isinstance(value, list):
        return [without_generators(v) for v in value]
    return value


def field(doc, path: str):
    for part in path.split("."):
        if not isinstance(doc, dict) or part not in doc:
            raise KeyError(path)
        doc = doc[part]
    return without_generators(doc)


def stored_form(value):
    """What a reference keeps of a field: short values verbatim, long ones
    as a digest."""
    return value if len(json.dumps(value)) <= 120 else digest(value)


# ---------------------------------------------------------------------------
# independent oracles


class Monoid:
    """A numerical monoid from its generators, via the Apéry set of the
    smallest generator (shortest paths over the residues mod it)."""

    def __init__(self, gens):
        gens = sorted(set(gens))
        self.m = m = gens[0]
        dist = [math.inf] * m
        dist[0] = 0
        heap = [(0, 0)]
        while heap:
            d, r = heapq.heappop(heap)
            if d > dist[r]:
                continue
            for g in gens[1:]:
                nd, nr = d + g, (r + g) % m
                if nd < dist[nr]:
                    dist[nr] = nd
                    heapq.heappush(heap, (nd, nr))
        self.apery = dist
        self.frobenius = max(dist) - m
        self.atoms = [g for g in gens if not any(self.has(x) and self.has(g - x) for x in range(1, g // 2 + 1))]

    def has(self, n: int) -> bool:
        return n >= 0 and n >= self.apery[n % self.m]

    @property
    def gaps(self) -> list[int]:
        return [n for n in range(1, self.frobenius + 1) if not self.has(n)]


def length_masks(atoms, bound: int) -> list[int]:
    """Bit l of masks[n] is set iff n has a factorization of length l."""
    masks = [0] * (bound + 1)
    masks[0] = 1
    for n in range(1, bound + 1):
        acc = 0
        for a in atoms:
            if a <= n:
                acc |= masks[n - a] << 1
        masks[n] = acc
    return masks


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def deltas(lengths) -> list[int]:
    return sorted({b - a for a, b in zip(lengths, lengths[1:])})


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _oracle_numon_info(argv, doc):
    s = Monoid(_ints(_flag(argv, "--gens")))
    want = {"atoms": s.atoms, "frobenius": s.frobenius, "conductor": s.frobenius + 1, "gaps": s.gaps}
    gens = sorted(set(_ints(_flag(argv, "--gens"))))
    if len(gens) == 2:
        a, b = gens
        want["frobenius"] = a * b - a - b
    for key, value in want.items():
        if doc.get(key) != value:
            return f"oracle: {key} differs"
    return None


def _oracle_lengths(argv, doc):
    comps = [_ints(c) for c in _flag(argv, "--gens").split(";") if c]
    elems = _ints(_flag(argv, "--element"))
    total = 1
    for gens, n in zip(comps, elems):
        mask = length_masks(Monoid(gens).atoms, n)[n]
        acc = 0
        for l in bits(mask):  # sumset of the component length sets
            acc |= total << l
        total = acc
    lengths = bits(total)
    if doc.get("lengths") != lengths:
        return "oracle: lengths differ"
    if "delta" in doc and doc["delta"] != deltas(lengths):
        return "oracle: delta differs"
    return None


def _oracle_sweep(argv, doc):
    s = Monoid(_ints(_flag(argv, "--gens")))
    bound = int(_flag(argv, "--bound"))
    masks = length_masks(s.atoms, bound)
    values: set[int] = set()
    k = int(_flag(argv, "--k")) if "--k" in argv else None
    for n in range(bound + 1):
        if not s.has(n):
            continue
        ls = bits(masks[n])
        if k is None:
            values.update(deltas(ls))
        elif k in ls:
            values.update(ls)
    return None if doc.get("values") == sorted(values) else "oracle: values differ"


def _oracle_davenport(argv, doc):
    factors = [d for d in _ints(_flag(argv, "--group")) if d != 1]
    order = math.prod(factors)
    primes = {p for p in range(2, order + 1) if order % p == 0 and all(p % q for q in range(2, p))}
    if not factors:
        want = 0
    elif len(factors) <= 2 or len(primes) == 1:
        want = 1 + sum(d - 1 for d in factors)
    else:
        return None
    return None if doc.get("davenport_constant") == want else "oracle: Davenport constant differs"


def _oracle_class_group_order(argv, doc):
    p = int(_flag(argv, "--p"))
    want = p ** len(Monoid(_ints(_flag(argv, "--gens"))).gaps)
    return None if doc.get("class_group", {}).get("order") == want else "oracle: class group order differs"


ORACLES = {
    "numon info": _oracle_numon_info,
    "factor lengths": _oracle_lengths,
    "factor delta": _oracle_sweep,
    "factor uk": _oracle_sweep,
    "blocks davenport": _oracle_davenport,
    "classgroup numerical": _oracle_class_group_order,
}


# ---------------------------------------------------------------------------
# the check


def check(query: dict, exit_code: int | None, out: str, err: str) -> str | None:
    """None when the answer is right, else the reason it is wrong.

    ``exit_code`` is None for a query that timed out.
    """
    ref = query["ref"]
    if exit_code is None:
        return "timeout"
    if "Traceback" in err:
        return "traceback on stderr"
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, expected {ref['exit']}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not exactly one JSON document"
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    if "kind" in ref:
        if "error" not in doc or doc.get("kind") != ref["kind"]:
            return f"expected an error document of kind {ref['kind']!r}"
        return None
    for path, want in ref["fields"].items():
        try:
            got = field(doc, path)
        except KeyError:
            return f"field {path} missing"
        if (digest(got) if isinstance(want, str) and want.startswith("sha256:") else got) != want:
            return f"field {path} differs from the reference"
    argv = query.get("argv")
    if argv and exit_code == 0:
        oracle = ORACLES.get(" ".join(argv[:2]))
        if oracle is not None:
            return oracle(argv, doc)
    return None
