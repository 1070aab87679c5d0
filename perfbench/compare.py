"""Compare a parent checkout against a change, workload by workload.

    python3 perfbench/compare.py --parent ../parent --change . [--workload W ...]

Both sides run this copy of the benchmark (identical benchmark code and
settings) from the root of their own checkout, with ``--trace 0`` and the
``run_seconds`` of ``BENCHMARK.json``.  Each workload gets ten pairs of
runs; pair i uses seed ``1000 + i`` on both sides and alternates which side
runs first.
For every workload and end-to-end metric it prints each side's median and
quartiles and the share of pairs the change won (ties count for neither),
and a verdict under the metric's bound from ``BENCHMARK.json``:

* ``unresolved``: a side's quartile spread is wider than the bound, unless
  every change run beats every parent run;
* ``regression``: the change's median is worse by more than the bound;
* ``gain``: the change won at least nine tenths of the pairs and the medians
  differ by more than the parent's own quartile spread;
* ``no regression`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
PAIRS = 10
FIRST_SEED = 1000


def load_benchmark() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_side(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(r.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, share of pairs won by the change)."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change)) / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    every_run_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if spread > bound and not every_run_better:
        return "unresolved", wins
    if -sign * (cm - pm) / pm > bound:
        return "regression", wins
    if wins >= 0.9 and sign * (cm - pm) > p3 - p1:
        return "gain", wins
    return "no regression", wins


def main(argv=None) -> int:
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="root of the parent commit's checkout")
    ap.add_argument("--change", required=True, help="root of the change's checkout")
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]

    print(f"{'workload':16s} {'metric':16s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s} {'won':>5s}  verdict")
    for workload in names:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(getattr(args, side), workload, FIRST_SEED + i, bench["run_seconds"]))
        for side, results in runs.items():
            failed = sum(r["failed"] for r in results)
            if failed or not all(r["correct"] for r in results):
                print(f"{workload:16s} {side} answered {failed} queries wrong")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            result, wins = verdict(parent, change, metric["better"], metric["bound"])
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(
                f"{workload:16s} {name:16s} {pm:12.4f} [{p1:.4f}, {p3:.4f}] {cm:12.4f} [{c1:.4f}, {c3:.4f}]"
                f" {wins:5.0%}  {result} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
