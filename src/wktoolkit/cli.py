"""Command-line front end with deterministic JSON output and a result cache.

Every invocation prints exactly one JSON document with sorted keys and no
timestamps, so equal inputs produce identical bytes.  Results that depend
on a search cap say so via ``"complete": false`` plus the cap.  Exit
codes: 0 success, 2 input error, 3 cap exceeded, 4 not-found outcome.

``ACTIONS`` is the one place that says which action reads which flag: one
row per ``(subcommand, action)`` names the flags the action requires, the
flags it accepts, and the function that builds its payload.  The command
line is read off the row, as ``--flag value`` or ``--flag=value`` (a value
may start with ``-``), so a missing flag, a flag the action does not read
and a non-integer value of an integer flag exit 2 with the usage on
stderr; ``wkt SUB ACTION --help`` prints an action's usage line.

The cache is an append-only file of one JSON record per line, holding the
key, the payload and the exit code; the key is the canonical serialized
request plus the package version.  Corrupt lines are skipped with a
warning; an unwritable cache directory disables caching but never the
computation.  The directory comes from ``--cache-dir`` or, when
absent, the WKT_CACHE_DIR environment variable; with neither, no cache is
used.

Input grammars (shared by several subcommands):

* generators:  ``--gens 2,3`` and, for direct sums, ``--gens "2,3;3,5"``
* finite abelian groups:  ``--group 4`` or ``--group 2,2`` (invariant factors)
* group elements:  ``1`` for rank one, ``1:0`` for higher rank; blocks are
  comma-separated elements, e.g. ``--element 1,1,2`` or ``--element 1:0,0:1``
* descriptors, domains and monoids:  read by ``groups.read_descriptor``,
  ``decide.read_domain`` and ``decide.read_monoid``, whose modules give the grammars
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__
from . import affine, blocks, classgrp, decide, factor, groups, hilbertian, numon
from .errors import CapError, InputError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NOT_FOUND = 4

CACHE_ENV = "WKT_CACHE_DIR"
CACHE_FILE = "wkt-cache.jsonl"


# ---------------------------------------------------------------------------
# input grammars


def parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"cannot read {what} {text!r}") from exc


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise InputError(f"cannot read integer list {text!r}") from exc


def parse_components(text: str) -> list[list[int]]:
    return [parse_int_list(part) for part in text.split(";") if part != ""]


def parse_group(text: str) -> groups.FiniteAbelianGroup:
    # factors of 1 are legal input for the trivial group
    return groups.FiniteAbelianGroup(tuple(d for d in parse_int_list(text) if d != 1))


def parse_element(text: str) -> tuple[int, ...]:
    """Coordinates separated by ':'; the empty text is the element of the
    trivial group, which has none."""
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise InputError(f"cannot read group element {text!r}") from exc


def parse_block(text: str) -> list[tuple[int, ...]]:
    if not text:
        return []
    return [parse_element(tok) for tok in text.split(",")]


# ---------------------------------------------------------------------------
# payload builders; each reads only the flags its ACTIONS row declares


def _numon_info(args) -> dict:
    gens = parse_int_list(args.gens)
    s = numon.from_generators(gens)
    seminormal, witness = numon.is_seminormal(s)
    return {
        "input": {"generators": gens},
        "atoms": list(s.atoms),
        "frobenius": s.frobenius,
        "conductor": s.conductor,
        "gaps": list(s.gaps),
        "seminormal": seminormal,
        "seminormal_witness_gap": witness,
        "valuation": s.is_free,
    }


def _numon_apery(args) -> dict:
    s = numon.from_generators(parse_int_list(args.gens))
    n = parse_int(args.element, "element")
    return {
        "input": {"generators": list(s.atoms), "modulus": n},
        "apery": list(numon.apery_set(s, n)),
    }


def _affine_info(args) -> dict:
    gamma = affine.direct_sum([numon.from_generators(g) for g in parse_components(args.gens)])
    m = decide.affine_monoid_descriptor(gamma)
    return {
        "input": gamma.to_json(),
        "atoms": [list(a) for a in affine.atoms(gamma)],
        "properties": {
            "rank": gamma.rank,
            "has_proper_component": not m.generalized_krull.truth,
            "weakly_krull": m.weakly_krull.truth,
            "umt": m.umt.truth,
            "seminormal": all(numon.is_seminormal(s)[0] for s in gamma.components),
            # each component's root closure is N, so the sum's is N^rank, factorial
            "root_closure": f"free monoid of rank {gamma.rank}",
            "root_closure_factorial": True,
            "generalized_krull": m.generalized_krull.truth,
            # the decide rules whose replay on the components gives these flags
            "rules": ["affine-sum-weakly-krull-umt", "monoid-generalized-krull-iff-valuation"],
        },
    }


def _factor_target(args):
    comps = parse_components(args.gens)
    if len(comps) == 1:
        return numon.from_generators(comps[0]), False
    return affine.direct_sum([numon.from_generators(g) for g in comps]), True


def _factor_factorizations(args) -> dict:
    target, is_affine = _factor_target(args)
    if is_affine:
        raise InputError("factorization listing is for numerical monoids; use lengths for sums")
    n = parse_int(args.element, "element")
    facs = factor.factorizations(target, n)
    return {
        "input": {"generators": list(target.atoms), "element": n},
        "atoms": list(target.atoms),
        "factorizations": [list(f.exponents) for f in facs],
        "lengths": sorted({f.length for f in facs}),
    }


def _factor_lengths(args) -> dict:
    target, is_affine = _factor_target(args)
    if is_affine:
        element = parse_int_list(args.element)
        lengths = factor.affine_length_set(target, element)
    else:
        element = parse_int(args.element, "element")
        lengths = factor.length_set(target, element)
    return {
        "input": {"monoid": target.to_json(), "element": element},
        "lengths": list(lengths),
        "delta": list(factor.delta_of(lengths)),
    }


def _factor_delta(args) -> dict:
    target, is_affine = _factor_target(args)
    if is_affine:
        raise InputError("bounded delta is for numerical monoids")
    res = factor.delta_monoid_bounded(target, args.bound)
    return {"input": {"monoid": target.to_json(), "bound": args.bound}, **res.to_json()}


def _factor_uk(args) -> dict:
    target, is_affine = _factor_target(args)
    if is_affine:
        raise InputError("bounded U_k is for numerical monoids")
    res = factor.uk_bounded(target, args.k, args.bound)
    return {"input": {"monoid": target.to_json(), "k": args.k, "bound": args.bound}, **res.to_json()}


def _g0(args):
    return None if args.g0 is None else parse_block(args.g0)


def _blocks_atoms(args) -> dict:
    g = parse_group(args.group)
    atoms = blocks.minimal_zero_sum_atoms(g, _g0(args))
    return {
        "input": {"group": list(g.invariant_factors)},
        "atoms": [b.to_json()["multiplicities"] for b in atoms],
        "count": len(atoms),
    }


def _blocks_davenport(args) -> dict:
    g = parse_group(args.group)
    return {
        "input": {"group": list(g.invariant_factors)},
        "davenport_constant": blocks.davenport_constant(g),
    }


def _blocks_lengths(args) -> dict:
    g = parse_group(args.group)
    g0 = _g0(args)
    block = blocks.Block.make(g, parse_block(args.element))
    return {"input": block.to_json(), "lengths": list(blocks.block_length_set(g, g0, block))}


def _blocks_factorizations(args) -> dict:
    g = parse_group(args.group)
    g0 = _g0(args)
    block = blocks.Block.make(g, parse_block(args.element))
    facs = blocks.block_factorizations(g, g0, block)
    return {
        "input": block.to_json(),
        "factorizations": [[a.to_json()["multiplicities"] for a in f] for f in facs],
        "lengths": sorted({len(f) for f in facs}),
    }


def _blocks_delta(args) -> dict:
    g = parse_group(args.group)
    res = blocks.delta_block_monoid(g, args.cap)
    return {"input": {"group": list(g.invariant_factors)}, **res.to_json()}


def _blocks_uk(args) -> dict:
    g = parse_group(args.group)
    res = blocks.uk_block_monoid(g, args.k, args.cap)
    return {"input": {"group": list(g.invariant_factors), "k": args.k}, **res.to_json()}


def _classgroup_numerical(args) -> dict:
    s = numon.from_generators(parse_int_list(args.gens))
    result = classgrp.cv_numerical_ring(args.p, s)
    return {"input": {"p": args.p, "monoid": s.to_json()}, "class_group": result.to_json()}


def _classgroup_direct_sum(args) -> dict:
    comps = [numon.from_generators(g) for g in parse_components(args.gens)]
    domain = decide.prime_field(args.p) if args.domain is None else decide.read_domain(args.domain)
    return {
        "input": {
            "components": [s.to_json() for s in comps],
            "domain": args.domain or "fp/function-field default",
        },
        "class_group": classgrp.cv_direct_sum(comps, domain).to_json(),
    }


def _decide(args, question) -> dict:
    d = decide.read_domain(args.domain, args.char)
    m = decide.read_monoid(args.monoid)
    return {
        "input": {"domain": args.domain, "monoid": args.monoid, "question": args.action},
        **question(d, m).to_json(),
    }


def _hilbertian_irreducible(args) -> dict:
    coeffs = parse_int_list(args.prefix)
    f = hilbertian.PrimePolynomial(args.p, tuple(coeffs))
    return {
        "input": {"p": args.p, "coefficients": coeffs},
        "polynomial": str(f),
        "irreducible": hilbertian.is_irreducible(f),
    }


def _hilbertian_find(args) -> dict:
    coeffs = parse_int_list(args.prefix)
    witness = hilbertian.find_irreducible_with_prefix(args.p, tuple(coeffs), args.max_degree)
    base = {"input": {"p": args.p, "prefix": coeffs, "max_degree": args.max_degree}}
    if witness is None:
        return {**base, "found": False, "note": "no witness within max_degree; not a disproof"}
    return {
        **base,
        "found": True,
        "coefficients": list(witness.coefficients),
        "degree": witness.degree,
        "polynomial": str(witness),
    }


def _groups_type000(args) -> dict:
    g = groups.read_descriptor(args.desc)
    ok, witness = groups.is_type_000(g)
    return {
        "input": {"descriptor": g.to_json()},
        "type_000": ok,
        "witness": None if witness is None else witness.to_json(),
    }


def _groups_type000_except(args) -> dict:
    g = groups.read_descriptor(args.desc)
    ok, witness = groups.is_type_000_except_p(g, args.p)
    return {
        "input": {"descriptor": g.to_json(), "p": args.p},
        "type_000_except_p": ok,
        "witness": None if witness is None else witness.to_json(),
    }


def _groups_iprime(args) -> dict:
    g = groups.read_descriptor(args.desc)
    return {"input": {"descriptor": g.to_json()}, "satisfies_i_prime": groups.satisfies_i_prime(g)}


def _groups_snf(args) -> dict:
    rows = parse_components(args.matrix)
    res = groups.smith_normal_form(rows)
    return {
        "input": {"matrix": rows},
        "invariant_factors": list(res.invariant_factors),
        "free_rank": res.free_rank,
    }


# ---------------------------------------------------------------------------
# the action table


class Action(NamedTuple):
    """One ``wkt SUB ACTION``: the flags it requires (a tuple of flags
    stands for exactly one of them), the flags it also accepts, and its
    payload.  A payload with ``"found": false`` is a not-found outcome."""

    required: tuple
    optional: tuple
    payload: Callable[[SimpleNamespace], dict]


# flags read as integers; every other flag is text for the grammars above
INT_FLAGS = frozenset({"p", "k", "bound", "cap", "max_degree", "char"})

# the decide lambdas look their procedure up at call time, so a rebinding
# of ``decide.decide_*`` (as a tracer does) is seen
ACTIONS: dict[tuple[str, str], Action] = {
    ("numon", "info"): Action(("gens",), (), _numon_info),
    ("numon", "apery"): Action(("gens", "element"), (), _numon_apery),
    ("affine", "info"): Action(("gens",), (), _affine_info),
    ("factor", "factorizations"): Action(("gens", "element"), (), _factor_factorizations),
    ("factor", "lengths"): Action(("gens", "element"), (), _factor_lengths),
    ("factor", "delta"): Action(("gens", "bound"), (), _factor_delta),
    ("factor", "uk"): Action(("gens", "k", "bound"), (), _factor_uk),
    ("blocks", "atoms"): Action(("group",), ("g0",), _blocks_atoms),
    ("blocks", "davenport"): Action(("group",), (), _blocks_davenport),
    ("blocks", "lengths"): Action(("group", "element"), ("g0",), _blocks_lengths),
    ("blocks", "factorizations"): Action(("group", "element"), ("g0",), _blocks_factorizations),
    ("blocks", "delta"): Action(("group", "cap"), (), _blocks_delta),
    ("blocks", "uk"): Action(("group", "k", "cap"), (), _blocks_uk),
    ("classgroup", "numerical"): Action(("p", "gens"), (), _classgroup_numerical),
    ("classgroup", "direct-sum"): Action(("gens", ("domain", "p")), (), _classgroup_direct_sum),
    ("decide", "weakly-krull"): Action(
        ("domain", "monoid"), ("char",), lambda args: _decide(args, decide.decide_weakly_krull)
    ),
    ("decide", "wfd"): Action(("domain", "monoid"), ("char",), lambda args: _decide(args, decide.decide_wfd)),
    ("decide", "generalized-krull"): Action(
        ("domain", "monoid"), ("char",), lambda args: _decide(args, decide.decide_generalized_krull)
    ),
    ("hilbertian", "find"): Action(("p", "prefix", "max_degree"), (), _hilbertian_find),
    ("hilbertian", "irreducible"): Action(("p", "prefix"), (), _hilbertian_irreducible),
    ("groups", "type000"): Action(("desc",), (), _groups_type000),
    ("groups", "type000-except"): Action(("desc", "p"), (), _groups_type000_except),
    ("groups", "iprime"): Action(("desc",), (), _groups_iprime),
    ("groups", "snf"): Action(("matrix",), (), _groups_snf),
}


# ---------------------------------------------------------------------------
# cache


def _cache_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, CACHE_FILE)


def request_key(subcommand: str, args_dict: dict) -> str:
    """The request's canonical JSON text: equal requests give equal keys."""
    return json.dumps(
        {"op": subcommand, "input": args_dict, "version": __version__},
        sort_keys=True,
        separators=(",", ":"),
    )


def cache_get(cache_dir: str, key: str) -> dict | None:
    path = _cache_path(cache_dir)
    if not os.path.exists(path):
        return None
    hit = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    print("warning: skipping corrupt cache line", file=sys.stderr)
                    continue
                if record.get("key") == key and "payload" in record:
                    hit = record
    except OSError as exc:
        print(f"warning: cache unreadable ({exc}); continuing without it", file=sys.stderr)
        return None
    return hit


def cache_put(cache_dir: str, key: str, payload: dict, exit_code: int) -> None:
    record = {"key": key, "payload": payload, "exit_code": exit_code}
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(_cache_path(cache_dir), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    except OSError as exc:
        print(f"warning: cache unwritable ({exc}); result not cached", file=sys.stderr)


# ---------------------------------------------------------------------------
# driver


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _flags(row: Action) -> list[str]:
    return [f for e in row.required + row.optional + ("cache_dir",) for f in (e if isinstance(e, tuple) else (e,))]


def _choices(names: tuple[str, ...]) -> dict:
    return dict.fromkeys(key[len(names)] for key in ACTIONS if key[: len(names)] == names)


def _usage(names: tuple[str, ...]) -> str:
    """argparse's usage line, unwrapped, for ``wkt`` followed by ``names``."""
    if len(names) < 2:
        return " ".join(["usage: wkt", *names, "[-h]", "{" + ",".join(_choices(names)) + "}", "..."])
    row = ACTIONS[names]
    shown = {f: f"{_flag(f)} {f.upper()}" for f in _flags(row)}
    parts = [f"({' | '.join(map(shown.get, e))})" if isinstance(e, tuple) else shown[e] for e in row.required]
    parts += [f"[{shown[f]}]" for f in row.optional + ("cache_dir",)]
    return " ".join(["usage: wkt", *names, "[-h]", *parts, "[--no-cache]", "[--pretty]"])


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``argv`` says: ``subcommand``, ``action``, ``no_cache``, ``pretty``
    and every flag of the ACTIONS row (None when absent), or None when
    ``--help`` printed the usage.  A refusal prints the usage of the longest
    known prefix on stderr and raises ``InputError``."""
    names: tuple[str, ...] = ()
    seen: dict = {"no_cache": False, "pretty": False}

    def refuse(message: str):
        print(_usage(names), file=sys.stderr)
        raise InputError(" ".join(["wkt", *names]) + ": " + message)

    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            print(_usage(names) + ("" if names or not __doc__ else "\n\n" + __doc__))
            return None
        if len(names) < 2:
            if word not in _choices(names):
                refuse(f"argument {('subcommand', 'action')[len(names)]}: invalid choice: {word!r}")
            names += (word,)
        elif word in ("--no-cache", "--pretty"):
            seen[word[2:].replace("-", "_")] = True
        else:
            name, eq, value = word.partition("=")
            flag = {_flag(f): f for f in _flags(ACTIONS[names])}.get(name)
            if flag is None:
                refuse(f"unrecognized argument {word!r}")
            if not eq:
                value = next(words, None)
                if value is None:
                    refuse(f"argument {name}: expected one argument")
            if flag in INT_FLAGS:
                try:
                    value = int(value)
                except ValueError:
                    refuse(f"argument {name}: invalid int value: {value!r}")
            seen[flag] = value
    if len(names) < 2:
        refuse(f"the following arguments are required: {('subcommand', 'action')[len(names)]}")
    row = ACTIONS[names]
    values = {**dict.fromkeys(_flags(row)), **seen}
    missing = [_flag(e) for e in row.required if not isinstance(e, tuple) and values[e] is None]
    if missing:
        refuse("the following arguments are required: " + ", ".join(missing))
    for entry in row.required:
        if isinstance(entry, tuple) and sum(values[f] is not None for f in entry) != 1:
            refuse(f"exactly one of the arguments {' '.join(map(_flag, entry))} is required")
    return SimpleNamespace(subcommand=names[0], action=names[1], **values)


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def run(argv: list[str]) -> int:
    try:
        args = _read_args(argv)
    except InputError as exc:
        _emit({"error": str(exc), "kind": "input"}, False)
        return EXIT_INPUT
    if args is None:  # --help printed the usage
        return EXIT_OK

    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    use_cache = bool(cache_dir) and not args.no_cache

    if use_cache:
        request = {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("cache_dir", "no_cache", "pretty") and value is not None
        }
        key = request_key(args.subcommand, request)
        hit = cache_get(cache_dir, key)
        if hit is not None:
            _emit(hit["payload"], args.pretty)
            return int(hit.get("exit_code", EXIT_OK))

    try:
        payload = ACTIONS[args.subcommand, args.action].payload(args)
    except InputError as exc:
        _emit({"error": str(exc), "kind": "input"}, args.pretty)
        return EXIT_INPUT
    except CapError as exc:
        _emit({"error": str(exc), "kind": "cap"}, args.pretty)
        return EXIT_CAP
    except MemoryError:
        _emit({"error": "input too large: out of memory", "kind": "cap"}, args.pretty)
        return EXIT_CAP
    except ValueError as exc:
        _emit({"error": str(exc), "kind": "input"}, args.pretty)
        return EXIT_INPUT

    code = EXIT_NOT_FOUND if payload.get("found") is False else EXIT_OK
    if use_cache:
        cache_put(cache_dir, key, payload, code)
    _emit(payload, args.pretty)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
