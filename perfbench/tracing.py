"""Spans around wktoolkit's public functions, and per-layer metrics from them.

The tracer measures the package only from outside: it replaces every
module-level binding of each public function of each layer module with a
wrapper that records a span (function, start, end, parent span, query id)
and, for a few functions, a count taken from the arguments or the result.
A function imported into another module (``classgrp.quotient_structure``,
``decide.is_valuation``) is the same object under a second name, so every
binding of it across ``wktoolkit``'s modules is replaced.  Nothing under
``src/`` is edited.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "numon", "affine", "factor", "blocks", "groups", "classgrp", "decide", "hilbertian")

IDEAL_FUNCTIONS = frozenset(
    "numon." + n
    for n in (
        "make_ideal",
        "ideal_from_generators",
        "principal_ideal",
        "monoid_as_ideal",
        "unique_maximal_ideal",
        "ideal_dual",
        "v_closure",
        "ideal_add",
        "is_t_invertible",
    )
)
TBLOCK_FUNCTIONS = frozenset(("blocks.tblock_validate", "blocks.tblock_atoms_bounded", "blocks.tblock_length_set"))
TYPE_TESTS = frozenset(("groups.is_type_000", "groups.is_type_000_except_p", "groups.satisfies_i_prime"))


def _g0_key(args, kwargs):
    group = args[0] if args else kwargs.get("group")
    g0 = args[1] if len(args) > 1 else kwargs.get("g0")
    if g0 is None:
        support = None
    elif isinstance(g0, (list, tuple)):
        support = tuple(sorted(tuple(e) for e in g0))
    else:  # an iterator would be consumed by looking at it
        support = ("iterator", id(g0))
    return repr((group.invariant_factors, support))


def _unit_group_elems(args, kwargs):
    p = args[0] if args else kwargs["p"]
    s = args[1] if len(args) > 1 else kwargs["s"]
    return p ** (s.conductor - 1) if s.conductor > 0 else 1


# Counts recorded at the function boundary: name -> f(args, kwargs, result) -> dict.
NOTES = {
    "cli.cache_get": lambda a, k, r: {"hit": int(r is not None)},
    "numon.from_generators": lambda a, k, r: {"gaps": len(r.gaps)},
    "factor.factorizations": lambda a, k, r: {"count": len(r)},
    "factor.length_set": lambda a, k, r: {"lengths": len(r)},
    "blocks.minimal_zero_sum_atoms": lambda a, k, r: {"atoms": len(r), "key": _g0_key(a, k)},
    "blocks.block_factorizations": lambda a, k, r: {"count": len(r)},
    "groups.quotient_structure": lambda a, k, r: {
        "carrier": len(a[0]) if a and hasattr(a[0], "__len__") else 0
    },
    "classgrp.cv_numerical_ring": lambda a, k, r: {
        "unit_elems": _unit_group_elems(a, k),
        "order": r.order or 0,
    },
    "hilbertian.find_irreducible_with_prefix": lambda a, k, r: {"found": int(r is not None)},
}
for _name in ("decide_weakly_krull", "decide_wfd", "decide_generalized_krull"):
    NOTES["decide." + _name] = lambda a, k, r: {"steps": len(r.certificate)}


def public_functions(module):
    """Public functions defined in ``module`` itself, by name."""
    return {
        name: value
        for name, value in vars(module).items()
        if inspect.isfunction(value) and not name.startswith("_") and value.__module__ == module.__name__
    }


class Tracer:
    """Records spans while installed; ``spans[i] = [name_id, start, end, parent, qid]``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.notes: dict[int, dict] = {}
        self.qid = -1
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []
        self._wrappers: dict[int, tuple] = {}  # id(function) -> (function, wrapper)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.qid]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "wktoolkit") -> None:
        """Wrap every public function of every layer module, under every
        name any module of ``package`` binds it to."""
        if self._saved:
            return
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        wrappers = self._wrappers
        if not wrappers:
            for layer in LAYERS:
                module = sys.modules[f"{package}.{layer}"]
                for name, fn in public_functions(module).items():
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((namespace, attr, value))
                    namespace[attr] = hit[1]

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._saved):
            namespace[attr] = original
        self._saved.clear()

    def window(self, start: int, end: int):
        """Spans ``start:end`` with parents and notes renumbered from 0; a
        window that starts between queries holds whole span trees."""
        spans = [[n, t0, t1, p - start if p >= start else -1, q] for n, t0, t1, p, q in self.spans[start:end]]
        notes = {i - start: v for i, v in self.notes.items() if start <= i < end}
        return spans, notes


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    do not overlap each other; their sum is the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def _outermost(spans, member) -> list[bool]:
    """For each span: it is a member and no ancestor is a member.

    A parent always precedes its children, so one forward pass suffices.
    """
    inside = [False] * len(spans)
    out = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        enclosed = parent >= 0 and (member[parent] or inside[parent])
        inside[i] = enclosed
        out[i] = member[i] and not enclosed
    return out


def function_report(names, spans) -> dict[str, dict]:
    """calls, total ms (calls not nested in a call of the same function)
    and self ms, per function."""
    selfs = self_times(spans)
    report: dict[str, dict] = {}
    for i, s in enumerate(spans):
        row = report.setdefault(names[s[0]], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += selfs[i] * 1000
        p = s[3]
        while p >= 0 and names[spans[p][0]] != names[s[0]]:
            p = spans[p][3]
        if p < 0:
            row["ms"] += (s[2] - s[1]) * 1000
    return report


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(names, spans, notes) -> dict[str, float]:
    """The per-layer metrics measured from spans (one pass of queries).

    ``notes`` maps a span's index in ``spans`` to the counts taken at its
    boundary.  Metrics measured outside the spans (import time, the
    interpreter floor, bytes written) are added by the caller.
    """
    span_names = [names[s[0]] for s in spans]
    selfs = self_times(spans)

    def calls(name):
        return sum(1 for n in span_names if n == name)

    def self_ms(name):
        return sum(t for n, t in zip(span_names, selfs) if n == name) * 1000

    def group(pred):
        member = [pred(n) for n in span_names]
        top = _outermost(spans, member)
        return [i for i, m in enumerate(top) if m]

    def ms(pred):
        return sum(spans[i][2] - spans[i][1] for i in group(pred)) * 1000

    def note_sum(name, key):
        return sum(notes[i][key] for i, n in enumerate(span_names) if n == name and i in notes)

    def named(name):
        return lambda n: n == name

    def layer(prefix):
        return lambda n: n.startswith(prefix + ".")

    lookups = calls("cli.cache_get")
    atom_keys = {notes[i]["key"] for i, n in enumerate(span_names) if n == "blocks.minimal_zero_sum_atoms" and i in notes}
    atom_searches = calls("blocks.minimal_zero_sum_atoms")
    find_spans = set(group(named("hilbertian.find_irreducible_with_prefix")))
    candidates = 0
    parents = [s[3] for s in spans]
    for i, n in enumerate(span_names):
        if n != "hilbertian.is_irreducible":
            continue
        p = parents[i]
        while p >= 0 and p not in find_spans:
            p = parents[p]
        candidates += p >= 0
    decide_top = group(layer("decide"))
    unit_elems = note_sum("classgrp.cv_numerical_ring", "unit_elems")

    return {
        "cli.run.self_ms": self_ms("cli.run"),
        "cli.cache_get.ms": ms(named("cli.cache_get")),
        "cli.cache_put.ms": ms(named("cli.cache_put")),
        "cli.cache_hit_ratio": _ratio(note_sum("cli.cache_get", "hit"), lookups),
        "numon.from_generators.calls": calls("numon.from_generators"),
        "numon.from_generators.self_ms": self_ms("numon.from_generators"),
        "numon.gaps_built": note_sum("numon.from_generators", "gaps"),
        "numon.apery_set.ms": ms(named("numon.apery_set")),
        "numon.ideals.ms": ms(lambda n: n in IDEAL_FUNCTIONS),
        "affine.calls": len(group(layer("affine"))),
        "affine.ms": ms(layer("affine")),
        "factor.factorizations.calls": calls("factor.factorizations"),
        "factor.factorizations.count": note_sum("factor.factorizations", "count"),
        "factor.length_set.calls": calls("factor.length_set"),
        "factor.length_set.self_ms": self_ms("factor.length_set"),
        "factor.delta_monoid_bounded.ms": ms(named("factor.delta_monoid_bounded")),
        "factor.uk_bounded.ms": ms(named("factor.uk_bounded")),
        "factor.affine_length_set.ms": ms(named("factor.affine_length_set")),
        "factor.lengths_per_factorization": _ratio(
            note_sum("factor.length_set", "lengths"), note_sum("factor.factorizations", "count")
        ),
        "blocks.minimal_zero_sum_atoms.calls": atom_searches,
        "blocks.minimal_zero_sum_atoms.self_ms": self_ms("blocks.minimal_zero_sum_atoms"),
        "blocks.atoms_found": note_sum("blocks.minimal_zero_sum_atoms", "atoms"),
        "blocks.atom_search_reuse": _ratio(len(atom_keys), atom_searches),
        "blocks.block_factorizations.calls": calls("blocks.block_factorizations"),
        "blocks.block_factorizations.count": note_sum("blocks.block_factorizations", "count"),
        "blocks.delta_block_monoid.ms": ms(named("blocks.delta_block_monoid")),
        "blocks.uk_block_monoid.ms": ms(named("blocks.uk_block_monoid")),
        "blocks.davenport_constant.ms": ms(named("blocks.davenport_constant")),
        "blocks.tblock.ms": ms(lambda n: n in TBLOCK_FUNCTIONS),
        "groups.quotient_structure.ms": ms(named("groups.quotient_structure")),
        "groups.quotient_structure.carrier_elems": note_sum("groups.quotient_structure", "carrier"),
        "groups.smith_normal_form.ms": ms(named("groups.smith_normal_form")),
        "groups.type_tests.calls": sum(1 for n in span_names if n in TYPE_TESTS),
        "classgrp.cv_numerical_ring.calls": calls("classgrp.cv_numerical_ring"),
        "classgrp.cv_numerical_ring.self_ms": self_ms("classgrp.cv_numerical_ring"),
        "classgrp.unit_group_elems": unit_elems,
        "classgrp.quotient_to_carrier": _ratio(note_sum("classgrp.cv_numerical_ring", "order"), unit_elems),
        "decide.calls": len(decide_top),
        "decide.ms": ms(layer("decide")),
        "decide.certificate_steps": sum(notes[i]["steps"] for i in decide_top if i in notes),
        "hilbertian.find.ms": ms(named("hilbertian.find_irreducible_with_prefix")),
        "hilbertian.candidates_tested": candidates,
        "hilbertian.irreducible_ratio": _ratio(
            note_sum("hilbertian.find_irreducible_with_prefix", "found"), candidates
        ),
        "hilbertian.power_test.calls": calls("hilbertian.power_irreducibility_test"),
    }
