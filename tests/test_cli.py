import json

import pytest

from wktoolkit import cli
from wktoolkit.errors import InputError


def _run(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_factor_lengths_example(capsys):
    code, out = _run(capsys, ["factor", "lengths", "--gens", "2,3", "--element", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lengths"] == [2, 3]


def test_decide_example(capsys):
    code, out = _run(
        capsys, ["decide", "weakly-krull", "--domain", "z", "--monoid", "numerical:2,3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is True
    assert payload["certificate"]


def test_numon_info_example(capsys):
    code, out = _run(capsys, ["numon", "info", "--gens", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["frobenius"] == -1
    assert payload["gaps"] == []


def test_all_subcommands_byte_deterministic(capsys):
    invocations = [
        ["numon", "info", "--gens", "4,6,9"],
        ["numon", "apery", "--gens", "3,5", "--element", "3"],
        ["affine", "info", "--gens", "2,3;3,5"],
        ["factor", "factorizations", "--gens", "2,3", "--element", "12"],
        ["factor", "lengths", "--gens", "2,3;3,5", "--element", "6,15"],
        ["factor", "delta", "--gens", "3,5", "--bound", "40"],
        ["factor", "uk", "--gens", "2,3", "--k", "2", "--bound", "30"],
        ["blocks", "atoms", "--group", "4"],
        ["blocks", "davenport", "--group", "2,2"],
        ["blocks", "lengths", "--group", "3", "--element", "1,1,1,2,2,2"],
        ["blocks", "delta", "--group", "3", "--cap", "8"],
        ["blocks", "uk", "--group", "3", "--k", "2", "--cap", "8"],
        ["classgroup", "numerical", "--p", "2", "--gens", "2,5"],
        ["classgroup", "direct-sum", "--gens", "2,3;1", "--domain", "q"],
        ["decide", "wfd", "--domain", "z", "--monoid", "numerical:2,3"],
        ["decide", "generalized-krull", "--domain", "fp:3", "--monoid", "numerical:1"],
        ["decide", "weakly-krull", "--domain", "fp:2", "--monoid", "custom:group=2^inf;weakly_krull=true;umt=true"],
        ["hilbertian", "find", "--p", "2", "--prefix", "1,1", "--max-degree", "4"],
        ["hilbertian", "irreducible", "--p", "2", "--prefix", "1,1,1"],
        ["groups", "type000", "--desc", "2^inf"],
        ["groups", "type000-except", "--desc", "2^inf", "--p", "2"],
        ["groups", "iprime", "--desc", "2^inf,sym^3"],
        ["groups", "snf", "--matrix", "2,0;0,3"],
    ]
    for argv in invocations:
        code1, out1 = _run(capsys, argv)
        code2, out2 = _run(capsys, argv)
        assert code1 == code2
        assert out1 == out2, argv
        assert code1 == 0, argv
        json.loads(out1)  # a single JSON document


def test_capped_results_carry_flags(capsys):
    code, out = _run(capsys, ["factor", "delta", "--gens", "3,5", "--bound", "40"])
    payload = json.loads(out)
    assert payload["complete"] is False
    assert payload["cap"] == 40


def test_exit_codes(capsys):
    code, out = _run(capsys, ["numon", "info", "--gens", "4,6"])
    assert code == 2  # gcd not one
    code, out = _run(capsys, ["hilbertian", "find", "--p", "2", "--prefix", "1,0", "--max-degree", "2"])
    assert code == 4  # not found
    code, out = _run(capsys, ["blocks", "atoms", "--group", "65"])
    assert code == 3  # group cap
    code, _ = _run(capsys, ["numon", "apery", "--gens", "2,3", "--element", "1"])
    assert code == 2  # not in monoid
    assert cli.run(["bogus"]) == 2
    assert cli.run([]) == 2


def test_classgroup_numerical_checks_the_prime_first(capsys):
    # the free monoid <1> has conductor 0 and a trivial class group, but p must still be prime
    for p in ("4", "-3"):
        code, out = _run(capsys, ["classgroup", "numerical", "--p", p, "--gens", "1"])
        assert code == 2
        assert json.loads(out)["error"] == f"{p} is not prime"
    code, out = _run(capsys, ["classgroup", "numerical", "--p", "4", "--gens", "2,3"])
    assert (code, json.loads(out)["error"]) == (2, "4 is not prime")


def test_multiplicity_cap_exits_before_allocating(capsys):
    # the Apéry set would hold one entry per residue mod 1000003
    code, out = _run(capsys, ["numon", "info", "--gens", "1000003,1000033"])
    assert code == 3
    assert json.loads(out)["kind"] == "cap"


def test_gap_cap_exits_before_allocating(capsys):
    # <30011,30013> passes the multiplicity cap but has 450,330,060 gaps:
    # listing them is capped before the list is built, deciding needs none
    gens = "30011,30013"
    code, out = _run(capsys, ["numon", "info", "--gens", gens])
    assert code == 3
    assert json.loads(out)["kind"] == "cap"
    code, out = _run(capsys, ["decide", "wfd", "--domain", "z", "--monoid", "numerical:" + gens])
    assert code == 3  # the wfd certificate records the gap list
    assert json.loads(out)["kind"] == "cap"
    code, out = _run(capsys, ["decide", "weakly-krull", "--domain", "z", "--monoid", "numerical:" + gens])
    assert code == 0
    assert json.loads(out)["answer"] is True


def test_parse_errors_end_in_one_json_document(capsys):
    for argv in (["bogus"], ["numon", "bogus"], [], ["numon", "info", "--bogus", "1"]):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert json.loads(captured.out)["kind"] == "input", argv
        assert "usage: wkt" in captured.err, argv


def test_recursion_depth_is_a_cap(capsys):
    ones = ",".join(["1"] * 2400)
    gens = ",".join(str(g) for g in range(1000, 2000))
    for argv in (
        ["blocks", "factorizations", "--group", "2", "--element", ones],
        ["factor", "lengths", "--gens", gens, "--element", "3001"],
    ):
        code, out = _run(capsys, argv)
        assert code == 3, argv[:2]
        assert json.loads(out)["kind"] == "cap"


def test_block_lengths_of_a_deep_block_answer(capsys):
    # 1200 atoms deep: the length kernel fills its states bottom-up, without recursion
    code, out = _run(capsys, ["blocks", "lengths", "--group", "2", "--element", ",".join(["1"] * 2400)])
    assert code == 0
    assert json.loads(out)["lengths"] == [1200]


def test_help_returns_in_process(capsys):
    # argparse ends --help with SystemExit; run returns 0 instead, so an in-process caller goes on
    assert cli.run(["numon", "info", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: wkt numon info [-h] --gens GENS")
    assert cli.run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: wkt [-h]")


def test_apery_modulus_cap_exits_before_allocating(capsys):
    code, out = _run(capsys, ["numon", "apery", "--gens", "2,3", "--element", "1000000000"])
    assert code == 3
    assert json.loads(out)["kind"] == "cap"


def test_length_dp_caps_exit_before_allocating(capsys):
    # (bound + 1) * len(atoms) cells and max(atoms) * (bound // m + 1) window bits
    for argv in (
        ["factor", "delta", "--gens", "2,3", "--bound", "1000000000"],
        ["factor", "uk", "--gens", "2,3", "--k", "2", "--bound", "1000000000"],
        ["factor", "lengths", "--gens", "2,3", "--element", "1000000"],
        ["factor", "lengths", "--gens", "2,200001", "--element", "400002"],
        ["factor", "lengths", "--gens", "2,3;2,3", "--element", "6,1000000"],
    ):
        code, out = _run(capsys, argv)
        assert code == 3, argv
        assert json.loads(out)["kind"] == "cap"
    # membership comes first: a non-member past the window cap is an input error
    code, out = _run(capsys, ["factor", "lengths", "--gens", "2,200001", "--element", "199999"])
    assert code == 2
    assert json.loads(out)["kind"] == "input"


def test_block_sweep_cap_exits_at_once(capsys):
    # C(|G| + cap, cap) multisets of length up to cap would be swept
    for argv in (
        ["blocks", "delta", "--group", "64", "--cap", "50"],
        ["blocks", "uk", "--group", "64", "--k", "2", "--cap", "50"],
        ["blocks", "delta", "--group", "1", "--cap", "999999"],
    ):
        code, out = _run(capsys, argv)
        assert code == 3, argv
        assert json.loads(out)["kind"] == "cap"


def test_short_sweeps_over_large_groups_answer(capsys):
    # C(66, 2) = 2145 multisets; only atoms of length <= 2 are searched
    code, out = _run(capsys, ["blocks", "delta", "--group", "64", "--cap", "2"])
    assert code == 0
    assert json.loads(out)["values"] == []
    code, out = _run(capsys, ["blocks", "uk", "--group", "2,2,2,2,2,2", "--k", "2", "--cap", "3"])
    assert code == 0
    assert json.loads(out)["values"] == [2]


def test_point_query_of_the_free_monoid_near_the_cell_cap(capsys):
    # every mask of <1> is one bit wide, so the pass is linear in the element
    code, out = _run(capsys, ["factor", "lengths", "--gens", "1", "--element", "999999"])
    assert code == 0
    assert json.loads(out)["lengths"] == [999999]


def test_memory_error_is_a_cap(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    row = ("factor", "lengths")
    monkeypatch.setitem(cli.ACTIONS, row, cli.ACTIONS[row]._replace(payload=exhausted))
    code, out = _run(capsys, ["factor", "lengths", "--gens", "2,3", "--element", "6"])
    assert code == 3
    assert json.loads(out) == {"error": "input too large: out of memory", "kind": "cap"}


def test_pretty_flag(capsys):
    code, out = _run(capsys, ["numon", "info", "--gens", "2,3", "--pretty"])
    assert code == 0
    assert "\n  " in out
    assert json.loads(out)["atoms"] == [2, 3]


def test_cache_round_trip(tmp_path, capsys):
    argv = ["factor", "lengths", "--gens", "2,3", "--element", "6", "--cache-dir", str(tmp_path)]
    code1, out1 = _run(capsys, argv)
    cache_file = tmp_path / cli.CACHE_FILE
    assert cache_file.exists()
    record = json.loads(cache_file.read_text().strip())
    assert record["payload"]["lengths"] == [2, 3]
    code2, out2 = _run(capsys, argv)  # served from cache
    assert (code1, out1) == (code2, out2)
    # cache must not change payloads versus a cold run
    code3, out3 = _run(capsys, argv[:-2] + ["--no-cache"])
    assert out3 == out1


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    _run(capsys, ["numon", "info", "--gens", "2,3"])
    assert (tmp_path / cli.CACHE_FILE).exists()


def test_cache_flag_wins_over_env(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    env_dir.mkdir()
    monkeypatch.setenv(cli.CACHE_ENV, str(env_dir))
    _run(capsys, ["numon", "info", "--gens", "2,3", "--cache-dir", str(flag_dir)])
    assert (flag_dir / cli.CACHE_FILE).exists()
    assert not (env_dir / cli.CACHE_FILE).exists()


def test_cache_corrupt_line_skipped(tmp_path, capsys):
    argv = ["numon", "info", "--gens", "2,3", "--cache-dir", str(tmp_path)]
    code1, out1 = _run(capsys, argv)
    cache_file = tmp_path / cli.CACHE_FILE
    text = cache_file.read_text()
    cache_file.write_text("{corrupt json\n" + text)
    code2, out2 = _run(capsys, argv)
    assert out2 == out1 and code2 == code1


def test_cache_unwritable_directory_warns_but_computes(capsys, monkeypatch):
    code, out = _run(
        capsys,
        ["numon", "info", "--gens", "2,3", "--cache-dir", "/proc/definitely-not-writable/x"],
    )
    assert code == 0
    assert json.loads(out)["atoms"] == [2, 3]


def test_cache_key_separates_operations():
    k1 = cli.request_key("numon", {"gens": "2,3"})
    k2 = cli.request_key("factor", {"gens": "2,3"})
    k3 = cli.request_key("numon", {"gens": "2,5"})
    assert len({k1, k2, k3}) == 3


def test_char_override(capsys):
    code, out = _run(
        capsys,
        [
            "decide", "weakly-krull",
            "--domain", "custom:weakly_krull=true;umt=true",
            "--char", "0",
            "--monoid", "custom:group=2^inf;weakly_krull=true;umt=true",
        ],
    )
    assert code == 0
    assert json.loads(out)["answer"] is False  # char 0 kills the 2-divisible group
    code, out = _run(
        capsys,
        [
            "decide", "weakly-krull",
            "--domain", "custom:weakly_krull=true;umt=true",
            "--char", "2",
            "--monoid", "custom:group=2^inf;weakly_krull=true;umt=true",
        ],
    )
    assert json.loads(out)["answer"] is True
    code, _ = _run(capsys, ["decide", "weakly-krull", "--domain", "z", "--char", "2", "--monoid", "numerical:2,3"])
    assert code == 2  # contradicts the integers' characteristic


def test_trivial_group_on_cli(capsys):
    code, out = _run(capsys, ["blocks", "davenport", "--group", "1"])
    assert code == 0
    assert json.loads(out)["davenport_constant"] == 0


def test_missing_element_is_input_error(capsys):
    code, _ = _run(capsys, ["factor", "factorizations", "--gens", "2,3"])
    assert code == 2


def test_block_element_with_rank_two_group(capsys):
    code, out = _run(
        capsys,
        ["blocks", "lengths", "--group", "2,2", "--element", "1:0,1:0,0:1,0:1"],
    )
    assert code == 0
    assert json.loads(out)["lengths"] == [2]


# one valid value per flag of the action table
_FLAG_VALUES = {
    "gens": "2,3",
    "element": "6",
    "group": "3",
    "g0": "1",
    "bound": "40",
    "cap": "4",
    "k": "2",
    "p": "2",
    "prefix": "1,1",
    "max_degree": "3",
    "domain": "z",
    "monoid": "numerical:2,3",
    "char": "0",
    "desc": "2^inf",
    "matrix": "2,0;0,3",
}


def _flags(entries):
    """Flag names of a row's required or optional entries, alternatives included."""
    return [flag for entry in entries for flag in (entry if isinstance(entry, tuple) else (entry,))]


def _argv(row, flags):
    argv = list(row)
    for flag in flags:
        argv += ["--" + flag.replace("_", "-"), _FLAG_VALUES[flag]]
    return argv


def _input_error(capsys, argv):
    code, out = _run(capsys, argv)
    return code == 2 and json.loads(out)["kind"] == "input"


def test_action_table_drives_the_parser(capsys):
    every_flag = {flag for row in cli.ACTIONS.values() for flag in _flags(row.required + row.optional)}
    assert every_flag == set(_FLAG_VALUES)
    assert cli.INT_FLAGS <= every_flag
    for row, action in cli.ACTIONS.items():
        # the first alternative stands for a one-of requirement
        required = [entry[0] if isinstance(entry, tuple) else entry for entry in action.required]
        args = cli._build_parser().parse_args(_argv(row, required))
        assert (args.subcommand, args.action) == row
        for flag in required:
            assert isinstance(getattr(args, flag), int) == (flag in cli.INT_FLAGS)
        for i, entry in enumerate(action.required):
            missing = [f for j, f in enumerate(required) if j != i]
            assert _input_error(capsys, _argv(row, missing)), (row, entry)
            if isinstance(entry, tuple):  # exactly one of the alternatives
                assert _input_error(capsys, _argv(row, missing + list(entry))), row
        for flag in sorted(every_flag - set(_flags(action.required + action.optional))):
            assert _input_error(capsys, _argv(row, required + [flag])), (row, flag)
        for flag in sorted(set(required) & cli.INT_FLAGS):
            argv = _argv(row, required)
            argv[argv.index("--" + flag.replace("_", "-")) + 1] = "x"
            assert _input_error(capsys, argv), (row, flag)


def test_every_pool_argv_parses():
    # perfbench/pool.json holds the benchmark's questions; it is read, not edited
    import pathlib

    pool = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"
    parser = cli._build_parser()
    parsed, refused = 0, 0
    for queries in json.loads(pool.read_text())["classes"].values():
        for query in queries:
            if "argv" not in query:
                continue
            try:
                args = parser.parse_args(query["argv"])
            except InputError:
                # only questions whose reference is already an input error
                assert query["ref"] == {"exit": 2, "kind": "input"}, query["argv"]
                refused += 1
                continue
            assert (args.subcommand, args.action) in cli.ACTIONS
            parsed += 1
    assert (parsed, refused) == (597, 2)  # the two refused lack the required --element


def test_an_unread_flag_leaves_one_cache_record(tmp_path, capsys):
    base = ["numon", "info", "--gens", "2,3", "--cache-dir", str(tmp_path)]
    code, first = _run(capsys, base)
    assert code == 0
    for extra in (["--bound", "5"], ["--matrix", "junk"]):
        assert _input_error(capsys, base + extra), extra
    assert _run(capsys, base) == (0, first)
    assert len((tmp_path / cli.CACHE_FILE).read_text().splitlines()) == 1


def test_import_loads_every_layer():
    # perfbench/tracing.py Tracer.install reads sys.modules["wktoolkit.<layer>"]
    # for every layer after importing only wktoolkit.cli; a lazy import of the
    # layers has to land together with a change to the tracer
    import os
    import subprocess
    import sys

    import wktoolkit

    layers = ("cli", "numon", "affine", "factor", "blocks", "groups", "classgrp", "decide", "hilbertian")
    script = (
        "import sys, wktoolkit.cli; "
        f"print(all('wktoolkit.' + m in sys.modules for m in {layers!r}))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wktoolkit.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "True", done.stderr


def test_repeated_entries_are_input_errors(capsys):
    for bad in ("2^inf,2^0", "sym^3,sym^inf", "z+3^1,sym^2,3^inf"):
        with pytest.raises(InputError, match="repeated"):
            cli.parse_group_descriptor(bad)
    with pytest.raises(InputError, match="repeated key"):
        cli.parse_domain("custom:char=0;weakly_krull=true;char=2")
    with pytest.raises(InputError, match="repeated key"):
        cli.parse_domain("field:infinite=true,infinite=false")
    with pytest.raises(InputError, match="repeated key"):
        cli.parse_monoid("custom:group=2^inf;umt=true;umt=false")
    decide_argv = ["decide", "weakly-krull", "--domain", "q", "--monoid"]
    code, out = _run(capsys, decide_argv + ["custom:group=2^inf;weakly_krull=true;umt=true"])
    assert code == 0 and json.loads(out)["answer"] is False
    assert _input_error(capsys, decide_argv + ["custom:group=2^inf,2^0;weakly_krull=true;umt=true"])


def test_negative_sweep_caps_are_input_errors(capsys):
    assert _input_error(capsys, ["blocks", "delta", "--group", "3", "--cap", "-1"])
    assert _input_error(capsys, ["blocks", "uk", "--group", "3", "--k", "2", "--cap", "-1"])
    code, out = _run(capsys, ["blocks", "delta", "--group", "3", "--cap", "0"])
    assert code == 0 and json.loads(out)["values"] == []
