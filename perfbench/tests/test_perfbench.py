"""Tests of the benchmark itself: inputs, checker, timeouts, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os

import pytest

import check
import run
import tracing
import workloads
from worker import answer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
POOL = workloads.load_pool()


def test_same_seed_same_queries_and_other_seeds_differ():
    for w in workloads.WORKLOADS.values():
        a = workloads.generate(w, 7, POOL)
        assert a == workloads.generate(w, 7, POOL)
        assert a != workloads.generate(w, 8, POOL)
        assert len(a) == len(w.slots) + w.repeats


def test_desk_session_mix():
    queries = workloads.generate(workloads.DESK, 3, POOL)
    keys = [json.dumps(q["argv"]) for q in queries]
    malformed = sum("kind" in q["ref"] for q in queries)
    repeats = len(keys) - len(set(keys))
    assert 0.08 <= malformed / len(queries) <= 0.12
    assert 0.30 <= repeats / len(queries) <= 0.36
    actions = {tuple(q["argv"][:2]) for q in queries if "kind" not in q["ref"]}
    assert len(actions) == 24  # every subcommand and action of the CLI


def _answered(query):
    code, out, err = answer(query)
    assert check.check(query, code, out, err) is None
    return code, out, err


def test_checker_accepts_the_right_answer_and_rejects_a_corrupted_one():
    query = POOL["d.numon_info"][0]
    code, out, err = _answered(query)
    doc = json.loads(out)
    doc["frobenius"] += 1
    assert "frobenius" in check.check(query, code, json.dumps(doc), err)
    doc = json.loads(out)
    doc["gaps"] = doc["gaps"][:-1]
    assert check.check(query, code, json.dumps(doc), err) is not None
    assert check.check(query, code, out + out, err) == "stdout is not exactly one JSON document"
    assert check.check(query, code, out, "Traceback (most recent call last):\n") is not None


def test_checker_rejects_a_wrong_exit_code():
    query = POOL["d.malformed"][0]
    code, out, err = _answered(query)
    assert code in (2, 3)
    assert check.check(query, 0, out, err).startswith("exit code 0")
    good = POOL["d.groups_snf"][0]
    code, out, err = _answered(good)
    assert check.check(good, 1, out, err).startswith("exit code 1")


def test_oracle_catches_a_wrong_length_set_the_reference_missed():
    query = POOL["p.factor_lengths_310"][0]
    code, out, err = _answered(query)
    doc = json.loads(out)
    doc["lengths"] = doc["lengths"][1:]
    doc["delta"] = check.deltas(doc["lengths"])
    stale = dict(query, ref={"exit": 0, "fields": {}})  # a reference that checks nothing
    assert check.check(stale, code, json.dumps(doc), err) == "oracle: lengths differ"


def test_oracles_agree_with_closed_forms():
    s = check.Monoid([5, 7])
    assert s.frobenius == 5 * 7 - 5 - 7 and len(s.gaps) == (5 - 1) * (7 - 1) // 2
    assert check.Monoid([6, 9, 20]).frobenius == 43
    assert check.Monoid([2, 3, 4]).atoms == [2, 3]
    masks = check.length_masks([2, 3], 12)
    assert check.bits(masks[12]) == [4, 5, 6]


def test_timeout_counts_as_a_failure(tmp_path):
    slow = {"argv": ["classgroup", "numerical", "--p", "2", "--gens", "5,6,7"], "ref": {"exit": 0, "fields": {}}}
    src = os.path.join(ROOT, "src")
    worker = run.Worker(src, str(tmp_path / "worker.log"))
    try:
        assert worker.call({"op": "run", "query": slow}, 0.05) is None
        assert not worker.alive
    finally:
        worker.close()
    code, out, err = run.cli_process(src, slow["argv"], 0.05)
    assert code is None
    assert check.check(slow, code, out.decode(), err.decode()) == "timeout"


def _slow_last_query(tmp_path, monkeypatch):
    """A worker workload whose pass ends with a query that runs past its
    timeout, answered from a checkout at ``tmp_path``."""
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    fast = POOL["p.ideal_dual"][0]
    slow = {"argv": ["classgroup", "numerical", "--p", "2", "--gens", "5,6,7"], "ref": {"exit": 0, "fields": {}}}
    monkeypatch.setattr(workloads, "generate", lambda w, seed, pool: [fast, slow])
    return dataclasses.replace(workloads.POINT, timeout_s=0.5, min_samples=1)


def test_a_timed_out_last_query_is_a_failure_of_a_finished_run(tmp_path, monkeypatch):
    workload = _slow_last_query(tmp_path, monkeypatch)
    metrics, info = run.measure(workload, 1, 0, str(tmp_path))
    assert (info["attempted"], info["failed"]) == (2, 1)
    assert info["failures"][0].endswith("timeout")
    assert metrics["peak_rss_mb"] > 0 and max(info["latencies_ms"]) >= 500


def test_a_timeout_in_a_traced_pass_stops_the_traced_run(tmp_path, monkeypatch):
    workload = _slow_last_query(tmp_path, monkeypatch)
    with pytest.raises(SystemExit, match="timed out"):
        run.measure_traced(workload, 1, 0, str(tmp_path))


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]
    spans = [[0, 0.0, 10.0, -1, 0], [1, 1.0, 4.0, 0, 0], [2, 5.0, 9.0, 0, 0], [3, 6.0, 7.0, 2, 0]]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    names = ["cli.run", "numon.from_generators", "factor.length_set", "factor.factorizations"]
    report = tracing.function_report(names, spans)
    assert report["cli.run"] == {"calls": 1, "ms": 10000.0, "self_ms": 3000.0}
    assert report["factor.length_set"]["self_ms"] == 3000.0
    metrics = tracing.layer_metrics(names, spans, {1: {"gaps": 4}, 3: {"count": 6}})
    assert metrics["cli.run.self_ms"] == 3000.0
    assert metrics["numon.from_generators.self_ms"] == 3000.0
    assert metrics["numon.gaps_built"] == 4
    assert metrics["factor.factorizations.count"] == 6


def test_tracer_wraps_every_binding_and_restores_them():
    import wktoolkit.cli  # noqa: F401
    from wktoolkit import classgrp, decide, groups, numon

    originals = (groups.quotient_structure, numon.is_valuation)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert classgrp.quotient_structure is groups.quotient_structure is not originals[0]
        assert decide.is_valuation is numon.is_valuation is not originals[1]
        tracer.qid = 5
        classgrp.cv_numerical_ring(2, numon.from_generators([2, 5]))
    finally:
        tracer.uninstall()
    assert (groups.quotient_structure, numon.is_valuation) == originals
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert "groups.quotient_structure" in names and all(s[4] == 5 for s in tracer.spans)
    parent = tracer.spans[names.index("groups.quotient_structure")][3]
    assert names[parent] == "classgrp.cv_numerical_ring"


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layers = run.load_layers()
    assert bench["per_layer"] == [{"name": n, "unit": v["unit"], "better": v["better"]} for n, v in layers.items()]
    measured = set(tracing.layer_metrics([], [], {})) | {
        "cli.import_ms", "cli.python_floor_ms", "cli.stdout_bytes", "cli.cache_file_bytes", "trace.overhead_ratio"
    }
    assert measured == set(layers)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_harrell_davis_quantiles():
    assert abs(run.quantile(range(1, 10), 0.5) - 5) < 1e-9
    xs = [10.0] * 50 + [20.0] * 50  # two modes of equal weight
    assert 14 < run.quantile(xs, 0.5) < 16
    assert run.quantile(xs, 0.25) < run.quantile(xs, 0.5) < run.quantile(xs, 0.9) <= 20


def test_one_slow_answer_or_pass_moves_neither_median_nor_tail():
    ladder = [float(ms) for ms in range(10, 110, 10)]  # one pass: ten queries, 10..100 ms
    steady = run.latency_quantiles([ladder] * 3, 0.9)
    spiked = [ladder, [500.0] + ladder[1:], ladder]  # the cheapest query once slow
    slow_pass = [ladder, [2 * x for x in ladder], ladder]  # a slow spell over one pass
    assert run.latency_quantiles(spiked, 0.9) == steady
    assert run.latency_quantiles(slow_pass, 0.9) == steady
