"""Build ``pool.json``: the benchmark's candidate queries with stored answers.

Run from the repository root:  python3 perfbench/make_pool.py

For each query class it draws candidates from a fixed random stream and
keeps those whose size lies in the class's band, so that every seed draws
comparable load.  A band is set on the size that drives the cost, never on
a measured time: prime and conductor for class groups, gap count or
generator size for numerical monoids, the lattice points a factorization
enumeration visits for length questions and bounded sweeps, group, length
cap and block length for block questions.  The same commit therefore
always builds the same pool.  The stored reference is the exit code and
the mathematical fields of the answer at the commit that built the pool;
every candidate that has an independent oracle in ``check.py`` must pass it
before it is kept.  Later commits are checked against these references.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import check  # noqa: E402
from run import commit  # noqa: E402
from worker import answer  # noqa: E402
from workloads import LENGTH_RUNGS, ORDER_15_16_RUNGS, SWEEP_MONOID, SWEEP_RUNGS, UK_RUNGS, WORKLOADS  # noqa: E402

# The mathematical fields compared for each action; everything else in a
# payload (notes, echoed input, class-group generator strings) is not.
FIELDS = {
    "numon info": ["atoms", "frobenius", "conductor", "gaps", "seminormal", "seminormal_witness_gap", "valuation"],
    "numon apery": ["apery"],
    "affine info": ["atoms", "properties.rank", "properties.seminormal", "properties.generalized_krull"],
    "factor factorizations": ["factorizations", "lengths"],
    "factor lengths": ["lengths", "delta"],
    "factor delta": ["values"],
    "factor uk": ["values"],
    "blocks atoms": ["atoms", "count"],
    "blocks davenport": ["davenport_constant"],
    "blocks lengths": ["lengths"],
    "blocks factorizations": ["factorizations", "lengths"],
    "blocks delta": ["values"],
    "blocks uk": ["values"],
    "classgroup numerical": ["class_group"],
    "classgroup direct-sum": ["class_group"],
    "decide weakly-krull": ["answer"],
    "decide wfd": ["answer"],
    "decide generalized-krull": ["answer"],
    "hilbertian find": ["found", "coefficients", "degree"],
    "hilbertian irreducible": ["irreducible"],
    "groups type000": ["type_000"],
    "groups type000-except": ["type_000_except_p"],
    "groups iprime": ["satisfies_i_prime"],
    "groups snf": ["invariant_factors", "free_rank"],
    "lib ideal_dual": ["window", "threshold"],
    "lib v_closure": ["window", "threshold"],
    "lib t_invertible": ["t_invertible"],
    "lib tblock_lengths": ["values"],
    "lib tblock_atoms": ["atoms", "count"],
}


def action(query: dict) -> str:
    return " ".join(query["argv"][:2]) if "argv" in query else "lib " + query["lib"]


def reference(query: dict, code: int, out: str) -> dict:
    doc = json.loads(out)
    if "error" in doc:
        return {"exit": code, "kind": doc["kind"]}
    fields = {}
    for path in FIELDS[action(query)]:
        try:
            fields[path] = check.stored_form(check.field(doc, path))
        except KeyError:  # e.g. "coefficients" of a search that found nothing
            continue
    return {"exit": code, "fields": fields}


# ---------------------------------------------------------------------------
# candidate inputs


def gens_text(gens) -> str:
    return ",".join(str(g) for g in gens)


def rand_gens(rng, lo, hi, k):
    while True:
        gens = sorted(rng.sample(range(lo, hi + 1), k))
        if math.gcd(*gens) == 1:
            return gens


def rand_atoms(rng, lo, hi, k):
    """k generators that are all atoms."""
    while True:
        gens = rand_gens(rng, lo, hi, k)
        if len(check.Monoid(gens).atoms) == k:
            return gens


def counts(atoms, bound: int) -> list[int]:
    """counts[n] = the number of ways to write n with ``atoms``."""
    ways = [1] + [0] * bound
    for a in atoms:
        for n in range(a, bound + 1):
            ways[n] += ways[n - a]
    return ways


def lattice_points(gens, elements) -> int:
    """Size of a factorization enumeration over ``elements``: for each n,
    the multiplicity vectors of all atoms but the largest with weight at
    most n, which are the leaves the enumeration visits."""
    atoms = check.Monoid(gens).atoms
    bound = max(elements)
    below, total = [], 0
    for ways in counts(atoms[:-1], bound):
        total += ways
        below.append(total)
    return sum(below[n] for n in elements)


def sweep_size(gens, bound: int) -> int:
    s = check.Monoid(gens)
    return lattice_points(gens, [n for n in range(bound + 1) if s.has(n)])


def member(gens, lo, hi, rng) -> int:
    s = check.Monoid(gens)
    while True:
        n = rng.randint(lo, hi)
        if s.has(n):
            return n


def zero_sum_block(rng, n, length) -> str:
    elems = [rng.randrange(1, n) for _ in range(length - 1)]
    last = -sum(elems) % n
    if last:
        elems.append(last)
    return ",".join(str(e) for e in sorted(elems))


def monoid_with_conductor(rng, c, lo=2, hi=20):
    while True:
        gens = rand_gens(rng, lo, hi, rng.randint(2, 5))
        s = check.Monoid(gens)
        if s.frobenius + 1 == c:
            return s.atoms


DESCRIPTORS = ["z", "2^inf", "2^3,3^inf", "2^inf+z", "sym^inf", "2^1,sym^3", "sym^inf~fin", "3^2,5^inf,sym^1"]
DOMAINS = ["z", "q", "fp:2", "fp:3", "order", "field:char=0,infinite=true,ph=true"]
MONOIDS = ["numerical:2,3", "numerical:1", "numerical:3,5,7", "affine:2,3;1", "affine:1;1",
           "custom:group=2^inf;weakly_krull=true;umt=true", "custom:group=z;weakly_krull=true;umt=true"]
SMALL_GROUPS = ["2", "3", "4", "5", "6", "2,2", "7"]


def desk(rng) -> dict:
    """Small inputs for every subcommand and action of the CLI."""
    g = lambda: rand_gens(rng, 3, 20, rng.randint(2, 4))  # noqa: E731
    small = lambda: rand_gens(rng, 3, 10, rng.randint(2, 3))  # noqa: E731

    def numon_apery():
        gens = g()
        return ["numon", "apery", "--gens", gens_text(gens), "--element", str(rng.choice(check.Monoid(gens).atoms))]

    def factorizations():
        gens = small()
        return ["factor", "factorizations", "--gens", gens_text(gens), "--element", str(member(gens, 15, 45, rng))]

    def lengths():
        gens = rand_gens(rng, 3, 15, rng.randint(2, 4))
        return ["factor", "lengths", "--gens", gens_text(gens), "--element", str(member(gens, 20, 80, rng))]

    def lengths_affine():
        a, b = small(), small()
        vec = f"{member(a, 10, 40, rng)},{member(b, 10, 40, rng)}"
        return ["factor", "lengths", "--gens", f"{gens_text(a)};{gens_text(b)}", "--element", vec]

    def delta():
        gens = small()
        return ["factor", "delta", "--gens", gens_text(gens), "--bound", str(check.Monoid(gens).frobenius + rng.randint(10, 50))]

    def uk():
        return ["factor", "uk", "--gens", gens_text(small()), "--k", str(rng.randint(2, 4)), "--bound", str(rng.randint(30, 80))]

    def block(action):
        n = rng.randint(3, 6)
        return ["blocks", action, "--group", str(n), "--element", zero_sum_block(rng, n, rng.randint(3, 7))]

    def classgroup():
        p, c = rng.choice([(2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (5, 3)])
        return ["classgroup", "numerical", "--p", str(p), "--gens", gens_text(monoid_with_conductor(rng, c))]

    def direct_sum():
        comps = f"{gens_text(small())};{rng.choice(['1', gens_text(small())])}"
        tail = rng.choice([["--domain", "q"], ["--domain", "z"], ["--p", "2"], ["--p", "3"]])
        return ["classgroup", "direct-sum", "--gens", comps] + tail

    def decide(question):
        return ["decide", question, "--domain", rng.choice(DOMAINS), "--monoid", rng.choice(MONOIDS)]

    def find():
        p = rng.choice([2, 3, 5, 7])
        prefix = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 2))]
        return ["hilbertian", "find", "--p", str(p), "--prefix", gens_text(prefix), "--max-degree", str(len(prefix) + rng.randint(0, 3))]

    def irreducible():
        p = rng.choice([2, 3, 5])
        coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 5))] + [rng.randrange(1, p)]
        return ["hilbertian", "irreducible", "--p", str(p), "--prefix", gens_text(coeffs)]

    def snf():
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        matrix = ";".join(gens_text(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rows))
        return ["groups", "snf", "--matrix", matrix]

    return {
        "d.numon_info": lambda: ["numon", "info", "--gens", gens_text(g())],
        "d.numon_apery": numon_apery,
        "d.affine_info": lambda: ["affine", "info", "--gens", f"{gens_text(small())};{gens_text(small())}"],
        "d.factor_factorizations": factorizations,
        "d.factor_lengths": lengths,
        "d.factor_lengths_affine": lengths_affine,
        "d.factor_delta": delta,
        "d.factor_uk": uk,
        "d.blocks_atoms": lambda: ["blocks", "atoms", "--group", rng.choice(SMALL_GROUPS)],
        "d.blocks_davenport": lambda: ["blocks", "davenport", "--group", rng.choice(SMALL_GROUPS + ["8", "2,4", "3,3"])],
        "d.blocks_lengths": lambda: block("lengths"),
        "d.blocks_factorizations": lambda: block("factorizations"),
        "d.blocks_delta": lambda: ["blocks", "delta", "--group", rng.choice(["2", "3", "4", "5", "2,2"]), "--cap", str(rng.randint(4, 6))],
        "d.blocks_uk": lambda: ["blocks", "uk", "--group", rng.choice(["2", "3", "4", "5", "2,2"]), "--k", str(rng.randint(2, 3)), "--cap", str(rng.randint(4, 6))],
        "d.classgroup_numerical": classgroup,
        "d.classgroup_direct_sum": direct_sum,
        "d.decide_weakly_krull": lambda: decide("weakly-krull"),
        "d.decide_wfd": lambda: decide("wfd"),
        "d.decide_generalized_krull": lambda: decide("generalized-krull"),
        "d.hilbertian_find": find,
        "d.hilbertian_irreducible": irreducible,
        "d.groups_type000": lambda: ["groups", "type000", "--desc", rng.choice(DESCRIPTORS)],
        "d.groups_type000_except": lambda: ["groups", "type000-except", "--desc", rng.choice(DESCRIPTORS), "--p", str(rng.choice([2, 3, 5]))],
        "d.groups_iprime": lambda: ["groups", "iprime", "--desc", rng.choice(DESCRIPTORS)],
        "d.groups_snf": snf,
    }


def desk_malformed(rng) -> list[list[str]]:
    """Input a user gets wrong or that exceeds a cap: exit 2 or 3 with one
    JSON error document."""
    k = rng.randint(2, 9)
    return [
        ["numon", "info", "--gens", f"{2 * k},{4 * k + 2}"],
        ["numon", "info", "--gens", f"{k + 2},x"],
        ["numon", "apery", "--gens", "3,5", "--element", str(rng.choice([1, 2, 4, 7]))],
        ["factor", "lengths", "--gens", f"3,{3 * k + 1}"],
        ["factor", "lengths", "--gens", "3,5", "--element", str(rng.choice([1, 2, 4, 7]))],
        ["factor", "delta", "--gens", f"5,{5 * k + 1}", "--bound", "3"],
        ["blocks", "atoms", "--group", str(rng.randint(65, 99))],
        ["blocks", "davenport", "--group", f"{k},{k + 1}"],
        ["classgroup", "numerical", "--p", "2", "--gens", f"{20 + k},{31 + 2 * k}"],
        ["hilbertian", "find", "--p", "3", "--prefix", f"0,{k % 3}", "--max-degree", "4"],
        ["hilbertian", "find", "--p", str(rng.choice([4, 6, 9])), "--prefix", "1", "--max-degree", "3"],
        ["blocks", "lengths", "--group", "4", "--element", f"1,{k % 2 + 1}"],
    ]


def point(rng) -> dict:
    """Mid-to-large single questions."""

    def info(lo, hi, gaps_lo, gaps_hi):
        # the gap count sets the payload size and the worker's peak memory
        def make():
            while True:
                gens = rand_gens(rng, lo, hi, 3)
                s = check.Monoid(gens)
                if gaps_lo <= sum(w // s.m for w in s.apery) <= gaps_hi:
                    return ["numon", "info", "--gens", gens_text(gens)]
        return make

    def ideal(op):
        def make():
            gens = rand_gens(rng, 17, 29, 3)
            ideal_gens = sorted(rng.sample(range(0, 24), rng.randint(2, 3)))
            return {"lib": op, "args": {"gens": gens, "ideal": ideal_gens}}
        return make

    def apery():
        # the multiplicity (the size of the Apéry set) sets the cost
        gens = rand_gens(rng, 420, 480, 3)
        return ["numon", "apery", "--gens", gens_text(gens), "--element", str(gens[0])]

    def lengths(n):
        return lambda: ["factor", "lengths", "--gens", "7,11,13,17,19", "--element", str(rng.randint(n, n + 9))]

    def factorizations():
        while True:
            gens = rand_atoms(rng, 9, 19, 3)
            n = member(gens, 4200, 5600, rng)
            if 80_000 <= lattice_points(gens, [n]) <= 130_000:
                return ["factor", "factorizations", "--gens", gens_text(gens), "--element", str(n)]

    def affine_lengths():
        a, b = rand_gens(rng, 5, 13, 3), rand_gens(rng, 5, 13, 3)
        vec = f"{member(a, 120, 160, rng)},{member(b, 120, 160, rng)}"
        return ["factor", "lengths", "--gens", f"{gens_text(a)};{gens_text(b)}", "--element", vec]

    def affine_info():
        return ["affine", "info", "--gens", ";".join(gens_text(rand_gens(rng, 60, 90, 3)) for _ in range(3))]

    def classgroup(p, c, gaps=(0, math.inf)):
        # the cost is set by p and the conductor c and, at fixed c, grows with
        # the gap count
        from wktoolkit import numon

        monoids = [
            list(s.atoms)
            for s in numon.enumerate_numerical_monoids(c - 1)
            if s.conductor == c and gaps[0] <= len(s.gaps) <= gaps[1]
        ]
        rng.shuffle(monoids)
        return lambda: ["classgroup", "numerical", "--p", str(p), "--gens", gens_text(monoids.pop())]

    def long_block():
        # C7, 17 to 19 elements, every nonzero residue present, 120 to 160
        # factorizations: the factorization count sets the cost
        while True:
            element = zero_sum_block(rng, 7, rng.randint(18, 19))
            if len(set(element.split(","))) < 6:
                continue
            argv = ["blocks", "factorizations", "--group", "7", "--element", element]
            if 120 <= len(json.loads(answer({"argv": argv}, cache_dir=None)[1])["factorizations"]) <= 160:
                return argv

    def tblock():
        n = rng.choice([3, 4])
        spec = {"group": [n], "g0": [[e] for e in range(1, n)], "components": [[[2, 3], [1]]]}
        while True:
            elems = [[rng.randrange(1, n)] for _ in range(rng.randint(5, 7))]
            t = rng.randint(4, 9)
            if t != 1 and (sum(e[0] for e in elems) + t) % n == 0:
                return {"lib": "tblock_lengths", "args": {"spec": spec, "elements": elems, "t": [t]}}

    def find():
        p = rng.choice([2, 3, 5])
        prefix = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(3, 5))]
        return ["hilbertian", "find", "--p", str(p), "--prefix", gens_text(prefix), "--max-degree", str(len(prefix) + 4)]

    def irreducible():
        p = rng.choice([3, 5])
        coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(6, 8))] + [1]
        return ["hilbertian", "irreducible", "--p", str(p), "--prefix", gens_text(coeffs)]

    return {
        "p.numon_info_xl": info(990, 1030, 100_000, 105_000),
        "p.numon_info_l": info(480, 520, 15_000, 21_000),
        "p.numon_apery": apery,
        "p.ideal_dual": ideal("ideal_dual"),
        "p.v_closure": ideal("v_closure"),
        "p.t_invertible": ideal("t_invertible"),
        **{f"p.factor_lengths_{n}": lengths(n) for n in LENGTH_RUNGS},
        "p.factor_factorizations": factorizations,
        "p.affine_lengths": affine_lengths,
        "p.affine_info": affine_info,
        "p.classgroup_f2": classgroup(2, 12, gaps=(8, 8)),
        "p.classgroup_f3": classgroup(3, 6),
        "p.classgroup_f5": classgroup(5, 6, gaps=(3, 4)),
        "p.classgroup_f2_xl": classgroup(2, 10, gaps=(6, 7)),
        "p.blocks_factorizations": long_block,
        "p.tblock_lengths": tblock,
        "p.hilbertian_find": find,
        "p.hilbertian_irreducible": irreducible,
    }


# (group, length cap) of the small U_k sweeps, and the groups of the small
# atom and Davenport searches: groups of order at most 12
SMALL_UK = [("4", 8), ("5", 6), ("5", 7), ("5", 8), ("6", 6), ("6", 7), ("2,2", 8)]
SMALL_GROUPS_9_12 = ["9", "10", "11", "12", "2,6"]


def sweeps(rng) -> dict:
    """Monoid-level capped unions."""

    def factor(action, k_lo, k_hi, size_lo, size_hi):
        # the lattice points set the time, the factorization count of the
        # largest element the worker's peak memory
        def make():
            while True:
                gens = rand_atoms(rng, 5, 19, rng.randint(k_lo, k_hi))
                bound = max(rng.randint(200, 400), check.Monoid(gens).frobenius + 1)
                if size_lo <= sweep_size(gens, bound) <= size_hi and max(counts(gens, bound)) <= 2000:
                    break
            argv = ["factor", action, "--gens", gens_text(gens)]
            if action == "uk":
                argv += ["--k", str(rng.randint(2, 4))]
            return argv + ["--bound", str(bound)]
        return make

    def sweep_rung(action, b):
        # one monoid and a bound from b to b + 4: the same cost for every seed
        def make():
            argv = ["factor", action, "--gens", gens_text(SWEEP_MONOID)]
            if action == "uk":
                argv += ["--k", str(rng.randint(2, 4))]
            return argv + ["--bound", str(rng.randint(b, b + 4))]
        return make

    def order_rung(group):
        return lambda: ["blocks", rng.choice(["atoms", "davenport"]), "--group", group]

    def small_uk():
        group, cap = rng.choice(SMALL_UK)
        return ["blocks", "uk", "--group", group, "--k", str(rng.randint(2, 4)), "--cap", str(cap)]

    def uk_over(group, cap):
        ks = list(range(1, cap + 1))
        rng.shuffle(ks)
        return lambda: ["blocks", "uk", "--group", group, "--k", str(ks.pop()), "--cap", str(cap)]

    big_deltas = [["7", "8"], ["8", "7"], ["2,2,2", "8"]]
    rng.shuffle(big_deltas)

    def tblock_atoms():
        n = rng.choice([3, 4])
        d = rand_gens(rng, 2, 5, 2)
        spec = {"group": [n], "g0": [[e] for e in range(1, n)], "components": [[d, [rng.randrange(1, n)]]]}
        return {"lib": "tblock_atoms", "args": {"spec": spec, "block_cap": rng.randint(5, 6), "t_caps": [rng.randint(8, 14)]}}

    return {
        "s.factor_delta": factor("delta", 3, 4, 60_000, 150_000),
        "s.factor_uk": factor("uk", 3, 4, 60_000, 150_000),
        **{f"s.factor_{action}_{rung}": sweep_rung(action, b) for rung, b in SWEEP_RUNGS.items() for action in ("delta", "uk")},
        "s.blocks_delta_l": lambda: (lambda g, c: ["blocks", "delta", "--group", g, "--cap", c])(*big_deltas.pop()),
        "s.blocks_uk": small_uk,
        **{f"s.blocks_uk_{group}_cap{cap}": uk_over(group, cap) for group, cap in UK_RUNGS},
        "s.blocks_atoms": lambda: ["blocks", "atoms", "--group", rng.choice(SMALL_GROUPS_9_12)],
        "s.blocks_davenport": lambda: ["blocks", "davenport", "--group", rng.choice(SMALL_GROUPS_9_12)],
        **{f"s.blocks_order_{group}": order_rung(group) for group in ORDER_15_16_RUNGS},
        "s.tblock_atoms": tblock_atoms,
    }


PER_CLASS = 10
MALFORMED = 24


def timed(query: dict) -> tuple[float, int, str, str]:
    t0 = time.perf_counter()
    code, out, err = answer(query, cache_dir=None)
    return (time.perf_counter() - t0) * 1000, code, out, err


def collect(name: str, make, tries: int = 400) -> list[dict]:
    items, times, seen = [], [], set()
    for _ in range(tries):
        try:
            made = make()
        except IndexError:  # a class drawn from a finite list ran out
            break
        query = {"argv": made} if isinstance(made, list) else made
        key = json.dumps(query, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        ms, code, out, err = timed(query)
        if code not in (0, 4) or "Traceback" in err:
            continue
        query["ref"] = reference(query, code, out)
        reason = check.check(query, code, out, err)
        if reason:
            raise SystemExit(f"{name}: {query} fails its own oracle: {reason}")
        items.append(query)
        times.append(ms)
        if len(items) == PER_CLASS:
            break
    times = times or [0]
    print(f"{name:28s} {len(items):3d}  ms {min(times):8.1f} .. {max(times):8.1f}", file=sys.stderr)
    return items


def main() -> None:
    rng = random.Random(20261017)
    classes = {name: collect(name, make) for family in (desk, point, sweeps) for name, make in family(rng).items()}
    bad, seen = [], set()
    for _ in range(MALFORMED // 12):
        for argv in desk_malformed(rng):
            if tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            query = {"argv": argv}
            ms, code, out, err = timed(query)
            if code not in (2, 3):
                raise SystemExit(f"malformed query {argv} exited {code}")
            query["ref"] = reference(query, code, out)
            bad.append(query)
    classes["d.malformed"] = bad
    write(os.path.join(HERE, "pool.json"), classes)


def check_sizes(classes: dict) -> None:
    for w in WORKLOADS.values():
        for cls in set(w.slots):
            if len(classes.get(cls, [])) < max(2, w.slots.count(cls)):
                raise SystemExit(f"{cls}: only {len(classes.get(cls, []))} candidates; draw more")


def write(path: str, classes: dict) -> None:
    used = {cls for w in WORKLOADS.values() for cls in w.slots}
    classes = {name: items for name, items in classes.items() if name in used}
    pool = {"references_from_commit": commit(os.getcwd()), "classes": classes}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    check_sizes(classes)


if __name__ == "__main__":
    main()
