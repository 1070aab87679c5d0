"""The three workloads and their seeded query lists.

A workload is a fixed list of query slots, each naming a class of the
stored pool (``pool.json``).  The seed picks which candidates of each class
fill the slots and in what order; every candidate of a class falls in the
same size band, so another seed gives comparable load.  The program under
test receives only the generated queries.

Why these workloads:

* ``desk-session`` is how a CLI user works: a fresh ``python -m
  wktoolkit.cli`` process per question, small inputs across every
  subcommand and action, a tenth of them malformed or over a cap, and a
  third repeating an earlier question so that the result cache is read as
  well as appended to.  Interpreter start and imports dominate; kernel
  changes should not move it.
* ``point-queries`` is one warm interpreter answering one question per
  object on mid-to-large inputs, where ``numon``, ``classgrp``/``groups``
  and ``hilbertian`` do most of the work, and ``factor``/``blocks`` are used
  one element at a time, so a whole-monoid kernel that slows single
  answers shows here.
* ``bounded-sweeps`` is the same warm setup running monoid-level capped
  unions, where ``factor`` and ``blocks`` repeat thousands of length-set
  and atom searches and ``numon``/``classgrp`` do almost nothing.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass

POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "process": one fresh CLI process per query; "worker": one warm interpreter
    slots: tuple[str, ...]  # pool class per query slot of one pass
    repeats: int  # extra slots that repeat an earlier valid query of the pass
    tail: float  # the latency percentile reported as latency_tail_ms
    min_samples: int  # samples needed so that ten lie beyond the tail percentile
    timeout_s: float  # per query; the process or worker is killed past it


def _slots(**counts: int) -> tuple[str, ...]:
    return tuple(name for name, n in counts.items() for _ in range(n))


# This machine class alternates between a fast and a slow mode, nearly a
# factor 2 apart, within seconds.  A quantile that falls on many queries of
# one cost jumps between the modes with the share of time spent in each, so
# the median and the tail percentile of the warm workloads fall on ladders
# of queries whose costs differ from rung to rung but not from seed to seed.
# Each rung is its own pool class: one monoid and ten elements from n
# (cost about n^4) for length sets, one group and length cap for U_k (k,
# drawn by the seed, only filters), one group for atoms or the Davenport
# constant (the seed picks which question), and one monoid and a bound from
# b to b + 4 for the 5-generator Delta and U_k sweeps (cost about b^5).
LENGTH_RUNGS = (250, 280, 310, 340, 370)
UK_RUNGS = (
    ("5", 8), ("7", 6), ("2,2,2", 6), ("6", 8), ("2,4", 6), ("8", 6),
    ("2,2,2", 7), ("7", 7), ("2,4", 7), ("2,2,2", 8), ("8", 7), ("7", 8),
)  # fmt: skip
ORDER_15_16_RUNGS = ("4,4", "2,8", "15", "16")
SWEEP_MONOID = (7, 11, 13, 17, 19)
SWEEP_RUNGS = {"m": 248, "l": 276}


DESK = Workload(
    name="desk-session",
    mode="process",
    slots=tuple(
        "d." + c
        for c in (
            "numon_info numon_info numon_apery affine_info factor_factorizations factor_lengths "
            "factor_lengths_affine factor_delta factor_uk blocks_atoms blocks_davenport blocks_lengths "
            "blocks_factorizations blocks_delta blocks_uk classgroup_numerical classgroup_numerical "
            "classgroup_direct_sum decide_weakly_krull decide_weakly_krull decide_wfd "
            "decide_generalized_krull hilbertian_find hilbertian_find hilbertian_irreducible "
            "groups_type000 groups_type000_except groups_iprime groups_snf malformed malformed "
            "malformed malformed malformed"
        ).split()
    ),
    repeats=17,
    tail=0.90,
    min_samples=100,
    timeout_s=20.0,
)

POINT = Workload(
    name="point-queries",
    mode="worker",
    slots=tuple(
        "p." + c
        for c in _slots(
            # under 15 ms
            ideal_dual=2,
            v_closure=2,
            t_invertible=2,
            affine_lengths=2,
            affine_info=1,
            hilbertian_find=3,
            hilbertian_irreducible=3,
            tblock_lengths=2,
        )
        # 7-35 ms: the median, with as many queries below it as above
        + tuple(f"factor_lengths_{n}" for n in LENGTH_RUNGS)
        + _slots(
            # over 45 ms
            numon_apery=3,
            factor_factorizations=3,
            blocks_factorizations=3,
            numon_info_l=2,
            # 250-550 ms: the p90
            classgroup_f5=1,
            classgroup_f3=2,
            classgroup_f2=1,
            numon_info_xl=1,
            # about 2 s
            classgroup_f2_xl=1,
        )
    ),
    repeats=0,
    tail=0.90,
    min_samples=100,
    timeout_s=30.0,
)

SWEEPS = Workload(
    name="bounded-sweeps",
    mode="worker",
    slots=tuple(
        "s." + c
        for c in _slots(
            # under 100 ms
            blocks_atoms=2,
            blocks_uk=2,
            blocks_davenport=2,
            tblock_atoms=2,
            factor_delta=1,
            factor_uk=1,
        )
        # 95-1300 ms, every rung's cost the same for every seed: the median
        # and the p75
        + tuple(f"blocks_uk_{group}_cap{cap}" for group, cap in UK_RUNGS)
        + tuple(f"blocks_order_{group}" for group in ORDER_15_16_RUNGS)
        + tuple(f"factor_{action}_{rung}" for rung in SWEEP_RUNGS for action in ("delta", "uk"))
        + _slots(blocks_delta_l=1)
    ),
    repeats=0,
    tail=0.75,
    min_samples=40,
    timeout_s=30.0,
)

WORKLOADS = {w.name: w for w in (DESK, POINT, SWEEPS)}


def load_pool(path: str = POOL_PATH) -> dict[str, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["classes"]


def generate(workload: Workload, seed: int, pool: dict[str, list[dict]]) -> list[dict]:
    """One pass of queries for ``seed``: the same seed gives the same list."""
    rng = random.Random(f"{workload.name}/{seed}")
    queries = []
    for cls, n in sorted(Counter(workload.slots).items()):
        queries.extend(rng.sample(pool[cls], n))
    rng.shuffle(queries)
    for _ in range(workload.repeats):
        valid = [i for i, q in enumerate(queries) if "kind" not in q["ref"]]
        i = rng.choice(valid)
        queries.insert(rng.randint(i + 1, len(queries)), queries[i])
    return [dict(q, argv=q["argv"] + ["--cache-dir", "{cache}"]) if workload.mode == "process" else q for q in queries]
