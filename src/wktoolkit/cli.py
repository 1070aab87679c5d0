"""Command-line front end with deterministic JSON output and a result cache.

Every invocation prints exactly one JSON document with sorted keys and no
timestamps, so equal inputs produce identical bytes.  Results that depend
on a search cap say so via ``"complete": false`` plus the cap.  Exit
codes: 0 success, 2 input error, 3 cap exceeded, 4 not-found outcome.

The cache is an append-only file of one JSON record per line, keyed by the
canonical serialized request plus the package version.  Corrupt lines are
skipped with a warning; an unwritable cache directory disables caching but
never the computation.  The directory comes from ``--cache-dir`` or, when
absent, the WKT_CACHE_DIR environment variable; with neither, no cache is
used.

Input grammars (shared by several subcommands):

* generators:  ``--gens 2,3`` and, for direct sums, ``--gens "2,3;3,5"``
* finite abelian groups:  ``--group 4`` or ``--group 2,2`` (invariant factors)
* group elements:  ``1`` for rank one, ``1:0`` for higher rank; blocks are
  comma-separated elements, e.g. ``--element 1,1,2`` or ``--element 1:0,0:1``
* torsion-free descriptors:  components joined by ``+``; a component is
  ``z`` or a comma list of ``prime^cap`` entries (cap an integer or
  ``inf``), optionally including ``sym^cap`` for the symbolic infinite
  class (append ``~fin`` for a finite complement), e.g. ``2^inf`` or
  ``2^inf,sym^3``
* domains:  ``z`` | ``fp:P`` | ``q`` | ``field:char=0,infinite=true,ph=true``
  | ``order`` | ``custom:char=0;weakly_krull=true;...``; for ``decide``,
  ``--char`` supplies a characteristic the domain text omitted

* monoids:  ``numerical:2,3`` | ``affine:2,3;3,5`` |
  ``custom:group=2^inf;weakly_krull=true;umt=true``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from . import affine, blocks, classgrp, decide, factor, groups, hilbertian, numon
from .errors import CapError, InputError, ToolkitError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NOT_FOUND = 4

CACHE_ENV = "WKT_CACHE_DIR"
CACHE_FILE = "wkt-cache.jsonl"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit directly
        raise InputError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# input grammars


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
    try:
        return tuple(int(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise InputError(f"cannot read group element {text!r}") from exc


def parse_block(text: str) -> list[tuple[int, ...]]:
    if not text:
        return []
    return [parse_element(tok) for tok in text.split(",")]


def _parse_cap(text: str) -> int | float:
    if text == "inf":
        return groups.INF
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"cap must be an integer or 'inf', got {text!r}") from exc


def parse_group_descriptor(text: str) -> groups.TorsionFreeGroupDescriptor:
    comps = []
    for part in text.split("+"):
        part = part.strip()
        if part == "z":
            comps.append(groups.Rank1GroupDescriptor())
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
                complement_infinite = True
                if cap_text.endswith("~fin"):
                    complement_infinite = False
                    cap_text = cap_text[: -len("~fin")]
                symbolic = groups.SymbolicPrimeClass(_parse_cap(cap_text), complement_infinite)
            else:
                try:
                    prime = int(head)
                except ValueError as exc:
                    raise InputError(f"descriptor token {tok!r}: {head!r} is not an integer") from exc
                exceptions.append((prime, _parse_cap(cap_text)))
        comps.append(groups.Rank1GroupDescriptor(tuple(exceptions), symbolic))
    return groups.TorsionFreeGroupDescriptor(tuple(comps))


def _parse_bool(text: str) -> bool:
    if text in ("true", "yes", "1"):
        return True
    if text in ("false", "no", "0"):
        return False
    raise InputError(f"cannot read boolean {text!r}")


def parse_domain(text: str) -> decide.DomainDescriptor:
    if text == "z":
        return decide.integers_z()
    if text == "q":
        return decide.symbolic_field(0, infinite=True, pseudo_hilbertian=True, name="Q")
    if text == "order":
        return decide.order_in_number_field()
    head, sep, rest = text.partition(":")
    if head == "fp" and sep:
        try:
            return decide.prime_field(int(rest))
        except ValueError as exc:
            raise InputError(f"bad prime in {text!r}") from exc
    if head == "field" and sep:
        kv = _parse_kv(rest, sep=",")
        char = kv.pop("char", None)
        char_val = None if char in (None, "none") else int(char)
        infinite = _parse_bool(kv.pop("infinite")) if "infinite" in kv else None
        ph = _parse_bool(kv.pop("ph")) if "ph" in kv else None
        if kv:
            raise InputError(f"unknown field facts {sorted(kv)} in {text!r}")
        return decide.symbolic_field(char_val, infinite=infinite, pseudo_hilbertian=ph)
    if head == "custom" and sep:
        kv = _parse_kv(rest, sep=";")
        char = kv.pop("char", None)
        char_val = None if char in (None, "none") else int(char)
        return decide.custom_domain(characteristic=char_val, **kv)
    raise InputError(f"cannot read domain {text!r}")


def _parse_kv(text: str, sep: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in text.split(sep):
        tok = tok.strip()
        if not tok:
            continue
        key, eq, value = tok.partition("=")
        if not eq:
            raise InputError(f"expected key=value, got {tok!r}")
        out[key.strip()] = value.strip()
    return out


def parse_monoid(text: str) -> decide.MonoidDescriptor:
    head, sep, rest = text.partition(":")
    if head == "numerical" and sep:
        return decide.numerical_monoid_descriptor(numon.from_generators(parse_int_list(rest)))
    if head == "affine" and sep:
        comps = [numon.from_generators(g) for g in parse_components(rest)]
        return decide.affine_monoid_descriptor(affine.direct_sum(comps))
    if head == "custom" and sep:
        kv = _parse_kv(rest, sep=";")
        if "group" not in kv:
            raise InputError("custom monoid needs group=<descriptor>")
        group = parse_group_descriptor(kv.pop("group"))
        return decide.custom_monoid(group, **kv)
    raise InputError(f"cannot read monoid {text!r}")


# ---------------------------------------------------------------------------
# payload builders, one per subcommand action


def _monoid_from_args(args) -> numon.NumericalMonoid:
    if args.gens is None:
        raise InputError("--gens is required")
    return numon.from_generators(parse_int_list(args.gens))


def _numon_payload(args) -> dict:
    if args.action == "info":
        s = _monoid_from_args(args)
        seminormal, witness = numon.is_seminormal(s)
        return {
            "input": {"generators": parse_int_list(args.gens)},
            "atoms": list(s.atoms),
            "frobenius": s.frobenius,
            "conductor": s.conductor,
            "gaps": list(s.gaps),
            "seminormal": seminormal,
            "seminormal_witness_gap": witness,
            "valuation": numon.is_valuation(s),
        }
    if args.action == "apery":
        s = _monoid_from_args(args)
        if args.element is None:
            raise InputError("--element is required")
        n = int(args.element)
        return {
            "input": {"generators": list(s.atoms), "modulus": n},
            "apery": list(numon.apery_set(s, n)),
        }
    raise InputError(f"unknown numon action {args.action!r}")


def _affine_payload(args) -> dict:
    if args.action != "info":
        raise InputError(f"unknown affine action {args.action!r}")
    if args.gens is None:
        raise InputError("--gens is required")
    gamma = affine.direct_sum([numon.from_generators(g) for g in parse_components(args.gens)])
    return {
        "input": gamma.to_json(),
        "atoms": [list(a) for a in affine.atoms(gamma)],
        "properties": affine.properties_report(gamma),
    }


def _factor_target(args):
    if args.gens is None:
        raise InputError("--gens is required")
    comps = parse_components(args.gens)
    if len(comps) == 1:
        return numon.from_generators(comps[0]), False
    return affine.direct_sum([numon.from_generators(g) for g in comps]), True


def _factor_payload(args) -> dict:
    target, is_affine = _factor_target(args)
    if args.action == "factorizations":
        if is_affine:
            raise InputError("factorization listing is for numerical monoids; use lengths for sums")
        if args.element is None:
            raise InputError("--element is required")
        n = int(args.element)
        facs = factor.factorizations(target, n)
        return {
            "input": {"generators": list(target.atoms), "element": n},
            "atoms": list(target.atoms),
            "factorizations": [list(f.exponents) for f in facs],
            "lengths": sorted({f.length for f in facs}),
        }
    if args.action == "lengths":
        if args.element is None:
            raise InputError("--element is required")
        if is_affine:
            vec = parse_int_list(args.element)
            lengths = factor.affine_length_set(target, vec)
            return {
                "input": {"monoid": target.to_json(), "element": vec},
                "lengths": list(lengths),
                "delta": list(factor.delta_of(lengths)),
            }
        n = int(args.element)
        lengths = factor.length_set(target, n)
        return {
            "input": {"monoid": target.to_json(), "element": n},
            "lengths": list(lengths),
            "delta": list(factor.delta_of(lengths)),
        }
    if args.action == "delta":
        if is_affine:
            raise InputError("bounded delta is for numerical monoids")
        if args.bound is None:
            raise InputError("--bound is required")
        res = factor.delta_monoid_bounded(target, int(args.bound))
        return {"input": {"monoid": target.to_json(), "bound": int(args.bound)}, **res.to_json()}
    if args.action == "uk":
        if is_affine:
            raise InputError("bounded U_k is for numerical monoids")
        if args.k is None or args.bound is None:
            raise InputError("--k and --bound are required")
        res = factor.uk_bounded(target, int(args.k), int(args.bound))
        return {
            "input": {"monoid": target.to_json(), "k": int(args.k), "bound": int(args.bound)},
            **res.to_json(),
        }
    raise InputError(f"unknown factor action {args.action!r}")


def _blocks_payload(args) -> dict:
    if args.group is None:
        raise InputError("--group is required")
    g = parse_group(args.group)
    g0 = None if args.g0 is None else parse_block(args.g0)
    if args.action == "atoms":
        atoms = blocks.minimal_zero_sum_atoms(g, g0)
        return {
            "input": {"group": list(g.invariant_factors)},
            "atoms": [b.to_json()["multiplicities"] for b in atoms],
            "count": len(atoms),
        }
    if args.action == "davenport":
        return {
            "input": {"group": list(g.invariant_factors)},
            "davenport_constant": blocks.davenport_constant(g),
        }
    if args.action in ("lengths", "factorizations"):
        if args.element is None:
            raise InputError("--element is required")
        block = blocks.Block.make(g, parse_block(args.element))
        payload = {"input": block.to_json()}
        if args.action == "factorizations":
            facs = blocks.block_factorizations(g, g0, block)
            payload["factorizations"] = [
                [a.to_json()["multiplicities"] for a in f] for f in facs
            ]
            payload["lengths"] = sorted({len(f) for f in facs})
        else:
            payload["lengths"] = list(blocks.block_length_set(g, g0, block))
        return payload
    if args.action == "delta":
        if args.cap is None:
            raise InputError("--cap is required")
        res = blocks.delta_block_monoid(g, int(args.cap))
        return {"input": {"group": list(g.invariant_factors)}, **res.to_json()}
    if args.action == "uk":
        if args.cap is None or args.k is None:
            raise InputError("--k and --cap are required")
        res = blocks.uk_block_monoid(g, int(args.k), int(args.cap))
        return {
            "input": {"group": list(g.invariant_factors), "k": int(args.k)},
            **res.to_json(),
        }
    raise InputError(f"unknown blocks action {args.action!r}")


def _classgroup_payload(args) -> dict:
    if args.action == "numerical":
        if args.p is None or args.gens is None:
            raise InputError("--p and --gens are required")
        s = numon.from_generators(parse_int_list(args.gens))
        result = classgrp.cv_numerical_ring(int(args.p), s)
        return {"input": {"p": int(args.p), "monoid": s.to_json()}, "class_group": result.to_json()}
    if args.action == "direct-sum":
        if args.gens is None:
            raise InputError("--gens is required (components separated by ';')")
        comps = [numon.from_generators(g) for g in parse_components(args.gens)]
        base = _base_field_from_args(args)
        entries = [classgrp.SymbolicComponent(s, base) for s in comps]
        result = classgrp.cv_direct_sum(entries)
        return {
            "input": {
                "components": [s.to_json() for s in comps],
                "domain": args.domain or "fp/function-field default",
            },
            "class_group": result.to_json(),
        }
    raise InputError(f"unknown classgroup action {args.action!r}")


def _base_field_from_args(args) -> classgrp.BaseField:
    if args.domain is None:
        if args.p is not None:
            return classgrp.BaseField.prime_field(int(args.p))
        raise InputError("--domain or --p is required")
    d = parse_domain(args.domain)
    if d.kind == "prime-field":
        return classgrp.BaseField.prime_field(d.characteristic)
    return classgrp.BaseField(
        prime=None,
        infinite=d.infinite.truth,
        pseudo_hilbertian=d.pseudo_hilbertian.truth,
    )


def _apply_char_override(d: decide.DomainDescriptor, char_text: str | None) -> decide.DomainDescriptor:
    if char_text is None:
        return d
    import dataclasses

    char = int(char_text)
    if char != 0 and not groups.is_prime(char):
        raise InputError(f"--char must be 0 or prime, got {char}")
    if d.characteristic is not None and d.characteristic != char:
        raise InputError(f"--char {char} contradicts the domain's characteristic {d.characteristic}")
    return dataclasses.replace(d, characteristic=char)


def _decide_payload(args) -> dict:
    if args.domain is None or args.monoid is None:
        raise InputError("--domain and --monoid are required")
    d = _apply_char_override(parse_domain(args.domain), args.char)
    m = parse_monoid(args.monoid)
    ops = {
        "weakly-krull": decide.decide_weakly_krull,
        "wfd": decide.decide_wfd,
        "generalized-krull": decide.decide_generalized_krull,
    }
    if args.action not in ops:
        raise InputError(f"unknown decide action {args.action!r}")
    verdict = ops[args.action](d, m)
    return {
        "input": {"domain": args.domain, "monoid": args.monoid, "question": args.action},
        **verdict.to_json(),
    }


def _hilbertian_payload(args) -> tuple[dict, int]:
    if args.p is None or args.prefix is None:
        raise InputError("--p and --prefix are required")
    p = int(args.p)
    coeffs = parse_int_list(args.prefix)
    if args.action == "irreducible":
        f = hilbertian.PrimePolynomial(p, tuple(coeffs))
        return (
            {
                "input": {"p": p, "coefficients": coeffs},
                "polynomial": str(f),
                "irreducible": hilbertian.is_irreducible(f),
            },
            EXIT_OK,
        )
    if args.action == "find":
        if args.max_degree is None:
            raise InputError("--max-degree is required")
        witness = hilbertian.find_irreducible_with_prefix(p, tuple(coeffs), int(args.max_degree))
        base = {"input": {"p": p, "prefix": coeffs, "max_degree": int(args.max_degree)}}
        if witness is None:
            base.update({"found": False, "note": "no witness within max_degree; not a disproof"})
            return base, EXIT_NOT_FOUND
        base.update(
            {
                "found": True,
                "coefficients": list(witness.coefficients),
                "degree": witness.degree,
                "polynomial": str(witness),
            }
        )
        return base, EXIT_OK
    raise InputError(f"unknown hilbertian action {args.action!r}")


def _groups_payload(args) -> dict:
    if args.action == "snf":
        if args.matrix is None:
            raise InputError("--matrix is required, rows separated by ';'")
        rows = parse_components(args.matrix)
        res = groups.smith_normal_form(rows)
        return {
            "input": {"matrix": rows},
            "invariant_factors": list(res.invariant_factors),
            "free_rank": res.free_rank,
        }
    if args.desc is None:
        raise InputError("--desc is required")
    g = parse_group_descriptor(args.desc)
    if args.action == "type000":
        ok, witness = groups.is_type_000(g)
        return {
            "input": {"descriptor": g.to_json()},
            "type_000": ok,
            "witness": None if witness is None else witness.to_json(),
        }
    if args.action == "type000-except":
        if args.p is None:
            raise InputError("--p is required")
        ok, witness = groups.is_type_000_except_p(g, int(args.p))
        return {
            "input": {"descriptor": g.to_json(), "p": int(args.p)},
            "type_000_except_p": ok,
            "witness": None if witness is None else witness.to_json(),
        }
    if args.action == "iprime":
        return {
            "input": {"descriptor": g.to_json()},
            "satisfies_i_prime": groups.satisfies_i_prime(g),
        }
    raise InputError(f"unknown groups action {args.action!r}")


# ---------------------------------------------------------------------------
# cache


def _cache_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, CACHE_FILE)


def request_key(subcommand: str, args_dict: dict) -> str:
    canon = json.dumps(
        {"op": subcommand, "input": args_dict, "version": __version__},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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
    import time

    record = {
        "key": key,
        "payload": payload,
        "exit_code": exit_code,
        "provenance": {"tool": "wkt", "version": __version__},
        "timestamp": time.time(),
    }
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(_cache_path(cache_dir), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    except OSError as exc:
        print(f"warning: cache unwritable ({exc}); result not cached", file=sys.stderr)


# ---------------------------------------------------------------------------
# driver


def _build_parser() -> _Parser:
    parser = _Parser(prog="wkt", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="subcommand")
    specs = {
        "numon": ["info", "apery"],
        "affine": ["info"],
        "factor": ["factorizations", "lengths", "delta", "uk"],
        "blocks": ["atoms", "davenport", "lengths", "factorizations", "delta", "uk"],
        "classgroup": ["numerical", "direct-sum"],
        "decide": ["weakly-krull", "wfd", "generalized-krull"],
        "hilbertian": ["find", "irreducible"],
        "groups": ["type000", "type000-except", "iprime", "snf"],
    }
    for name, actions in specs.items():
        p = sub.add_parser(name)
        p.add_argument("action", choices=actions)
        p.add_argument("--gens")
        p.add_argument("--element")
        p.add_argument("--group")
        p.add_argument("--g0")
        p.add_argument("--bound")
        p.add_argument("--cap")
        p.add_argument("--k")
        p.add_argument("--p")
        p.add_argument("--prefix")
        p.add_argument("--max-degree", dest="max_degree")
        p.add_argument("--domain")
        p.add_argument("--monoid")
        p.add_argument("--char")
        p.add_argument("--desc")
        p.add_argument("--matrix")
        p.add_argument("--cache-dir", dest="cache_dir")
        p.add_argument("--no-cache", dest="no_cache", action="store_true")
        p.add_argument("--pretty", action="store_true")
    return parser


_HANDLERS = {
    "numon": _numon_payload,
    "affine": _affine_payload,
    "factor": _factor_payload,
    "blocks": _blocks_payload,
    "classgroup": _classgroup_payload,
    "decide": _decide_payload,
    "groups": _groups_payload,
}


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise InputError("wkt: a subcommand is required")
    except InputError as exc:
        _emit({"error": str(exc), "kind": "input"}, False)
        print(parser.format_usage().strip(), file=sys.stderr)
        return EXIT_INPUT

    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    use_cache = bool(cache_dir) and not args.no_cache

    request = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("cache_dir", "no_cache", "pretty") and value is not None
    }
    key = request_key(args.subcommand, request)

    if use_cache:
        hit = cache_get(cache_dir, key)
        if hit is not None:
            _emit(hit["payload"], args.pretty)
            return int(hit.get("exit_code", EXIT_OK))

    try:
        if args.subcommand == "hilbertian":
            payload, code = _hilbertian_payload(args)
        else:
            payload = _HANDLERS[args.subcommand](args)
            code = EXIT_OK
    except InputError as exc:
        _emit({"error": str(exc), "kind": "input"}, args.pretty)
        return EXIT_INPUT
    except CapError as exc:
        _emit({"error": str(exc), "kind": "cap"}, args.pretty)
        return EXIT_CAP
    except RecursionError:
        # numerical length sets are iterative; the factorization listing recurses
        # once per atom, block and T-block length sets once per atom taken off
        _emit({"error": "input too large: recursion depth exceeded", "kind": "cap"}, args.pretty)
        return EXIT_CAP
    except MemoryError:
        _emit({"error": "input too large: out of memory", "kind": "cap"}, args.pretty)
        return EXIT_CAP
    except ToolkitError as exc:
        _emit({"error": str(exc), "kind": "error"}, args.pretty)
        return EXIT_INPUT
    except ValueError as exc:
        _emit({"error": str(exc), "kind": "input"}, args.pretty)
        return EXIT_INPUT

    if use_cache:
        cache_put(cache_dir, key, payload, code)
    _emit(payload, args.pretty)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
