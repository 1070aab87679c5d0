import argparse
import functools
import json
import sys

import pytest

from wktoolkit import __version__, cli, decide, groups
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


def test_one_summand_is_read_over_the_domain_itself(capsys):
    argv = ["classgroup", "direct-sum", "--gens", "2,3"]
    # INFINITE is cited only over a field known to be infinite and pseudo-Hilbertian
    for domain in ("q", "field:char=3,infinite=true,ph=true"):
        code, out = _run(capsys, argv + ["--domain", domain])
        group = json.loads(out)["class_group"]
        assert code == 0 and group["infinite"] is True and group["citation"].startswith("picard-group-infinite")
    # an order in a number field, Z, and a custom domain with no is_field flag are not known fields
    for domain, name in (
        ("order", "order in a number field"),
        ("z", "Z"),
        ("custom:infinite=true;pseudo_hilbertian=true", "custom domain"),
    ):
        code, out = _run(capsys, argv + ["--domain", domain])
        assert code == 2 and json.loads(out) == {
            "error": f"{name} is neither a prime field nor known to be an infinite pseudo-Hilbertian field",
            "kind": "input",
        }, domain
    # over a prime field the class group is computed
    for extra in (["--domain", "fp:5"], ["--p", "5"]):
        code, out = _run(capsys, argv + extra)
        group = json.loads(out)["class_group"]
        assert code == 0 and group["invariant_factors"] == [5] and group["method"] == "conductor-square-unit-quotient"
    # the free monoid is trivial over any domain, the prime is still checked
    code, out = _run(capsys, ["classgroup", "direct-sum", "--gens", "1", "--domain", "order"])
    assert code == 0 and json.loads(out)["class_group"]["order"] == 1
    code, out = _run(capsys, ["classgroup", "direct-sum", "--gens", "1", "--p", "4"])
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
    assert code == 0 and len(out) < 2048  # the certificate records atoms, not gaps
    payload = json.loads(out)
    assert payload["answer"] is False
    gcd_step = next(s for s in payload["certificate"] if s["rule"] == "monoid-gcd-iff-root-closed")
    assert gcd_step["inputs"]["witness_gap"] == 1
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


def test_deep_listings_answer_and_the_cells_cap_holds(capsys):
    # the listings walk their count tables without recursion: 991 is an atom
    # of <990, ..., 1979>, and 2400 ones or 1200 zeros in C2 have one factorization
    gens = ",".join(str(g) for g in range(990, 1980))
    for argv, lengths in (
        (["factor", "factorizations", "--gens", gens, "--element", "991"], [1]),
        (["blocks", "factorizations", "--group", "2", "--element", ",".join(["1"] * 2400)], [1200]),
        (["blocks", "factorizations", "--group", "2", "--element", ",".join(["0"] * 1200)], [1200]),
    ):
        code, out = _run(capsys, argv)
        assert code == 0, argv[:2]
        doc = json.loads(out)
        assert len(doc["factorizations"]) == 1 and doc["lengths"] == lengths, argv[:2]
    code, out = _run(capsys, ["factor", "lengths", "--gens", ",".join(str(g) for g in range(1000, 2000)), "--element", "3001"])
    assert code == 3
    assert json.loads(out) == {"error": "3002000 length-set cells exceed the cap 1000000", "kind": "cap"}


def test_block_lengths_of_a_deep_block_answer(capsys):
    # 1200 atoms deep: the length kernel fills its states bottom-up, without recursion
    code, out = _run(capsys, ["blocks", "lengths", "--group", "2", "--element", ",".join(["1"] * 2400)])
    assert code == 0
    assert json.loads(out)["lengths"] == [1200]


def test_help_returns_in_process(capsys):
    # --help prints the usage and run returns 0, so an in-process caller goes on
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
        ["factor", "uk", "--gens", "2,3", "--k", "1000000000", "--bound", "1000000000"],
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


def test_uk_sweeps_only_up_to_k_times_the_largest_atom(capsys):
    # the caps apply to min(bound, k * max(atoms)), the last element that can hold k
    answer = {"values": [2, 3], "complete": True, "note": "complete: k in L(n) forces n <= k * max(atoms) = 6"}
    for bound in ("6", "1000000000"):
        code, out = _run(capsys, ["factor", "uk", "--gens", "2,3", "--k", "2", "--bound", bound])
        assert code == 0
        assert {key: json.loads(out)[key] for key in answer} == answer
    code, out = _run(capsys, ["factor", "uk", "--gens", "2,3", "--k", "99999999999999999999", "--bound", "5"])
    assert code == 0
    assert json.loads(out)["values"] == [] and json.loads(out)["complete"] is False
    code, out = _run(capsys, ["factor", "uk", "--gens", "2,3", "--k", "2", "--bound", "0"])
    assert code == 0 and json.loads(out)["values"] == []


def test_factorization_listing_cap_exits_before_listing(capsys):
    # 1,613,645 factorizations of 2000 in <4, 5, 6, 7>, counted and refused
    for argv in (
        ["factor", "factorizations", "--gens", "4,5,6,7", "--element", "2000"],
        ["factor", "factorizations", "--gens", "3,5,7", "--element", "400000"],
    ):
        code, out = _run(capsys, argv)
        assert code == 3, argv
        assert json.loads(out)["kind"] == "cap"


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


def test_a_digest_keyed_cache_line_is_a_silent_miss(tmp_path, capsys):
    # earlier releases keyed a record by the SHA-256 hex digest of the request
    # text; such a record matches no key now, so the answer is computed again
    import hashlib

    argv = ["numon", "info", "--gens", "2,3", "--cache-dir", str(tmp_path)]
    request = {"action": "info", "gens": "2,3", "subcommand": "numon"}
    key = cli.request_key("numon", request)
    assert json.loads(key) == {"input": request, "op": "numon", "version": __version__}
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    # records of earlier releases, keyed by the same request under their versions
    old_keys = [key.replace(f'"version":"{__version__}"', f'"version":"{v}"') for v in ("0.1.0", "0.2.0")]
    assert key not in old_keys
    cache_file = tmp_path / cli.CACHE_FILE
    cache_file.write_text(
        "".join(
            json.dumps({"key": k, "payload": {"stale": True}, "exit_code": 0}) + "\n" for k in [digest, *old_keys]
        )
    )
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["atoms"] == [2, 3] and err == ""
    records = [json.loads(line) for line in cache_file.read_text().splitlines()]
    assert [r["key"] for r in records] == [digest, *old_keys, key]
    assert _run(capsys, argv) == (0, out)


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


def test_trivial_group_element_reads_back(capsys):
    # the one atom of the trivial group prints as {"": 1}; its empty token reads back
    code, out = _run(capsys, ["blocks", "atoms", "--group", "1"])
    assert code == 0 and json.loads(out)["atoms"] == [{"": 1}]
    assert cli.parse_element("") == ()
    code, out = _run(capsys, ["blocks", "lengths", "--group", "1", "--element", ","])
    assert code == 0
    assert json.loads(out)["lengths"] == [2]
    # over a non-trivial group an empty token has the wrong rank
    code, out = _run(capsys, ["blocks", "lengths", "--group", "2", "--element", "1,,1"])
    assert code == 2
    assert json.loads(out)["kind"] == "input"


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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit directly
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def _add_flag(parser, flag, required=False):
    parser.add_argument(
        "--" + flag.replace("_", "-"), dest=flag, required=required, type=int if flag in cli.INT_FLAGS else str
    )


@functools.cache
def _oracle():
    """The oracle for ``cli._read_args``: an argparse parser tree built from
    the same ACTIONS rows, one sub-parser per subcommand and per action."""
    parser = _Parser(prog="wkt")
    subcommands = parser.add_subparsers(dest="subcommand", required=True)
    actions_of = {}
    for (name, action), row in cli.ACTIONS.items():
        if name not in actions_of:
            actions_of[name] = subcommands.add_parser(name).add_subparsers(dest="action", required=True)
        p = actions_of[name].add_parser(action)
        for flag in row.required:
            if isinstance(flag, tuple):
                one_of = p.add_mutually_exclusive_group(required=True)
                for alternative in flag:
                    _add_flag(one_of, alternative)
            else:
                _add_flag(p, flag, required=True)
        for flag in row.optional:
            _add_flag(p, flag)
        p.add_argument("--cache-dir", dest="cache_dir")
        p.add_argument("--no-cache", dest="no_cache", action="store_true")
        p.add_argument("--pretty", action="store_true")
    return parser


def _both(argv):
    """What the reader and the argparse oracle read from ``argv``: the
    fields of each namespace, or None where it refuses."""
    read = []
    for parse in (cli._read_args, _oracle().parse_args):
        try:
            read.append(vars(parse(argv)))
        except InputError:
            read.append(None)
    return read


def _refused(capsys, argv):
    # an input error from run, and a refusal by the reader and by the oracle
    return _input_error(capsys, argv) and _both(argv) == [None, None]


def test_action_table_drives_the_parser(capsys):
    every_flag = {flag for row in cli.ACTIONS.values() for flag in _flags(row.required + row.optional)}
    assert every_flag == set(_FLAG_VALUES)
    assert cli.INT_FLAGS <= every_flag
    for row, action in cli.ACTIONS.items():
        # the first alternative stands for a one-of requirement
        required = [entry[0] if isinstance(entry, tuple) else entry for entry in action.required]
        args = cli._read_args(_argv(row, required))
        assert (args.subcommand, args.action) == row
        for flag in required:
            assert isinstance(getattr(args, flag), int) == (flag in cli.INT_FLAGS)
        assert _both(_argv(row, required)) == [vars(args)] * 2
        for i, entry in enumerate(action.required):
            missing = [f for j, f in enumerate(required) if j != i]
            assert _refused(capsys, _argv(row, missing)), (row, entry)
            if isinstance(entry, tuple):  # exactly one of the alternatives
                assert _refused(capsys, _argv(row, missing + list(entry))), row
        for flag in sorted(every_flag - set(_flags(action.required + action.optional))):
            assert _refused(capsys, _argv(row, required + [flag])), (row, flag)
        for flag in sorted(set(required) & cli.INT_FLAGS):
            argv = _argv(row, required)
            argv[argv.index("--" + flag.replace("_", "-")) + 1] = "x"
            assert _refused(capsys, argv), (row, flag)


def test_every_pool_argv_parses():
    # perfbench/pool.json holds the benchmark's questions; it is read, not edited
    import pathlib

    pool = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"
    parsed, refused = 0, 0
    for queries in json.loads(pool.read_text())["classes"].values():
        for query in queries:
            if "argv" not in query:
                continue
            read, oracle = _both(query["argv"])
            assert read == oracle, query["argv"]
            try:
                args = cli._read_args(query["argv"])
            except InputError:
                # only questions whose reference is already an input error
                assert query["ref"] == {"exit": 2, "kind": "input"}, query["argv"]
                refused += 1
                continue
            assert (args.subcommand, args.action) in cli.ACTIONS
            parsed += 1
    assert (parsed, refused) == (597, 2)  # the two refused lack the required --element


def test_every_cited_rule_replays_to_the_reported_value(capsys):
    # each rule a payload cites is a decide.RULES row, and replaying it on the
    # recorded inputs gives what the payload reports: the certificates of the
    # three questions over every domain and monoid the pool asks about, and
    # the rules of every affine info in the pool
    import pathlib

    pool = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"
    argvs = [q["argv"] for qs in json.loads(pool.read_text())["classes"].values() for q in qs if "argv" in q]
    domains = {a[a.index("--domain") + 1] for a in argvs if a[0] == "decide"}
    monoids = {a[a.index("--monoid") + 1] for a in argvs if a[0] == "decide"}
    steps = 0
    for question in ("weakly-krull", "wfd", "generalized-krull"):
        for domain in sorted(domains):
            for monoid in sorted(monoids):
                code, out = _run(capsys, ["decide", question, "--domain", domain, "--monoid", monoid])
                assert code == 0, (question, domain, monoid)
                for step in json.loads(out)["certificate"]:
                    assert step["rule"].partition(":")[0] in decide.RULES, step["rule"]
                    assert decide.replay_step(decide.CertStep(**step)) == step["outcome"], step
                    steps += 1
    assert steps > 0
    reported = {
        "affine-sum-weakly-krull-umt": ("weakly_krull", "umt"),
        "monoid-generalized-krull-iff-valuation": ("generalized_krull",),
    }
    affine = [a for a in argvs if a[:2] == ["affine", "info"]]
    assert len(affine) == 20
    for argv in affine:
        code, out = _run(capsys, argv)
        payload = json.loads(out)
        properties = payload["properties"]
        assert code == 0 and sorted(properties["rules"]) == sorted(reported), argv
        inputs = {
            "monoid": argv[-1],
            "components": [c["atoms"] for c in payload["input"]["components"]],
        }
        for rule in properties["rules"]:
            outcome = decide.replay_step(decide.CertStep(rule, "", inputs, ""))
            for key in reported[rule]:
                assert outcome.split()[0] == str(properties[key]).lower(), (argv, rule, key)


def test_the_reader_reads_what_argparse_reads():
    info = ["numon", "info", "--gens", "3,5"]
    for argv in (
        info + ["--gens", "2,3"],  # a repeated flag keeps its last value
        info + ["--pretty", "--no-cache", "--cache-dir", "c"],
        ["numon", "info", "--cache-dir=c", "--gens=3,5"],
        ["numon", "info", "--gens="],
        ["classgroup", "direct-sum", "--p", "2", "--gens", "2,3", "--p", "3"],
        ["hilbertian", "find", "--p", "2", "--prefix", "1", "--max-degree", " 3"],
    ):
        read, oracle = _both(argv)
        assert read == oracle and read is not None, argv
    for argv in (
        [],
        ["numon"],
        ["nomon", "info"],
        ["numon", "infos", "--gens", "3,5"],
        info + ["extra"],
        info + ["--gens"],
        info + ["--pretty=1"],
        ["hilbertian", "find", "--p", "2", "--prefix", "1", "--max_degree", "3"],
        ["hilbertian", "find", "--p", "2", "--prefix", "1", "--max-degree", "3.0"],
    ):
        assert _both(argv) == [None, None], argv


def test_the_reader_departs_from_argparse_where_listed(capsys):
    # a flag is named in full: argparse also took a prefix such as --gen
    assert _oracle().parse_args(["numon", "info", "--gen", "3,5"]).gens == "3,5"
    assert _input_error(capsys, ["numon", "info", "--gen", "3,5"])
    # a value may start with "-"; argparse expected one argument there
    code, out = _run(capsys, ["groups", "snf", "--matrix", "-1,2;3,4"])
    assert code == 0 and json.loads(out)["invariant_factors"] == [10]
    code, out = _run(capsys, ["numon", "info", "--gens", "-3,5"])
    assert code == 2 and json.loads(out) == {"error": "generator -3 is not positive", "kind": "input"}
    # the one-of message, for neither and for both
    for extra in ([], ["--p", "2", "--domain", "q"]):
        code, out = _run(capsys, ["classgroup", "direct-sum", "--gens", "2,3"] + extra)
        assert json.loads(out)["error"] == (
            "wkt classgroup direct-sum: exactly one of the arguments --domain --p is required"
        )
    # unknown words, and the usage of the longest known prefix on one line of stderr
    assert cli.run(["numon", "infos"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == "wkt numon: argument action: invalid choice: 'infos'"
    assert err == "usage: wkt numon [-h] {info,apery} ...\n"
    assert cli.run(["numon", "info", "--gens", "3,5", "--bound", "4"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == "wkt numon info: unrecognized argument '--bound'"
    assert err == "usage: wkt numon info [-h] --gens GENS [--cache-dir CACHE_DIR] [--no-cache] [--pretty]\n"
    assert cli.run(["classgroup", "direct-sum", "-h"]) == 0
    assert capsys.readouterr().out == (
        "usage: wkt classgroup direct-sum [-h] --gens GENS (--domain DOMAIN | --p P)"
        " [--cache-dir CACHE_DIR] [--no-cache] [--pretty]\n"
    )


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
    # for every layer after importing only wktoolkit.cli; the package registers
    # every layer there, and a layer not yet loaded loads when it is read
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
            groups.read_descriptor(bad)
    with pytest.raises(InputError, match="repeated key"):
        decide.read_domain("custom:char=0;weakly_krull=true;char=2")
    with pytest.raises(InputError, match="repeated key"):
        decide.read_domain("field:infinite=true,infinite=false")
    with pytest.raises(InputError, match="repeated key"):
        decide.read_monoid("custom:group=2^inf;umt=true;umt=false")
    decide_argv = ["decide", "weakly-krull", "--domain", "q", "--monoid"]
    code, out = _run(capsys, decide_argv + ["custom:group=2^inf;weakly_krull=true;umt=true"])
    assert code == 0 and json.loads(out)["answer"] is False
    assert _input_error(capsys, decide_argv + ["custom:group=2^inf,2^0;weakly_krull=true;umt=true"])


def test_an_empty_descriptor_component_is_an_input_error(capsys):
    # Z is written z; an empty component once read as a silent copy of Z
    for bad in ("", "2^inf+", "+z", "2^inf+ +3^1", "2^inf+,"):
        with pytest.raises(InputError, match="empty component"):
            groups.read_descriptor(bad)
    for argv in (
        ["groups", "type000", "--desc", ""],
        ["groups", "type000-except", "--desc", "2^inf+", "--p", "2"],
        ["groups", "iprime", "--desc", "z+"],
        ["decide", "weakly-krull", "--domain", "q", "--monoid", "custom:group=;weakly_krull=true;umt=true"],
        ["decide", "wfd", "--domain", "z", "--monoid", "custom:group=2^inf+;weakly_krull=true"],
    ):
        assert _input_error(capsys, argv), argv
    code, out = _run(capsys, ["groups", "type000", "--desc", "z+2^inf"])
    assert code == 0 and len(json.loads(out)["input"]["descriptor"]["components"]) == 2


def test_non_integer_text_is_an_input_error_naming_the_value(capsys):
    decide_argv = ["decide", "weakly-krull", "--monoid", "numerical:2,3", "--domain"]
    for argv, message in (
        (decide_argv + ["field:char=x,infinite=true"], "cannot read characteristic 'x'"),
        (decide_argv + ["custom:char=x;weakly_krull=true"], "cannot read characteristic 'x'"),
        (["numon", "apery", "--gens", "2,3", "--element", "x"], "cannot read element 'x'"),
        (["factor", "factorizations", "--gens", "2,3", "--element", "x"], "cannot read element 'x'"),
        (["factor", "lengths", "--gens", "2,3", "--element", "x"], "cannot read element 'x'"),
    ):
        code, out = _run(capsys, argv)
        assert code == 2 and json.loads(out) == {"error": message, "kind": "input"}, argv


def test_unread_domain_flags_are_unknown(capsys):
    for flag in ("mori", "conductor_nonzero"):
        argv = ["decide", "wfd", "--monoid", "numerical:1", "--domain", f"custom:char=0;{flag}=true"]
        code, out = _run(capsys, argv)
        assert code == 2 and json.loads(out) == {"error": f"unknown domain flag {flag!r}", "kind": "input"}


def test_negative_sweep_caps_are_input_errors(capsys):
    assert _input_error(capsys, ["blocks", "delta", "--group", "3", "--cap", "-1"])
    assert _input_error(capsys, ["blocks", "uk", "--group", "3", "--k", "2", "--cap", "-1"])
    assert _input_error(capsys, ["factor", "uk", "--gens", "2,3", "--k", "2", "--bound", "-5"])
    code, out = _run(capsys, ["blocks", "delta", "--group", "3", "--cap", "0"])
    assert code == 0 and json.loads(out)["values"] == []


def _fresh(script):
    # run ``script`` in a fresh interpreter and return its last stdout line
    import os
    import subprocess
    import sys

    import wktoolkit

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wktoolkit.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


# the wktoolkit modules whose code has run: a layer not yet loaded is still
# the lazy loader's module subclass
_EXECUTED = (
    "sorted(n for n, m in sys.modules.items() if n.startswith('wktoolkit.') and type(m) is types.ModuleType)"
)


def test_a_query_runs_only_the_layers_it_touches():
    script = (
        "import sys, types; from wktoolkit import cli; cli.run(['numon', 'info', '--gens', '3,5']); "
        f"print([{_EXECUTED}, 'argparse' in sys.modules, 'gettext' in sys.modules])"
    )
    assert _fresh(script) == str([["wktoolkit.cli", "wktoolkit.errors", "wktoolkit.numon"], False, False])


def test_affine_and_classgroup_queries_read_their_facts_from_decide():
    # affine info reads its flags off decide's descriptor, and classgroup
    # direct-sum --p reads the prime field as decide's DomainDescriptor
    runs = {}
    for argv in (
        ["affine", "info", "--gens", "2,3;3,5"],
        ["classgroup", "direct-sum", "--gens", "2,3", "--p", "3"],
    ):
        script = f"import sys, types; from wktoolkit import cli; cli.run({argv!r}); print({_EXECUTED})"
        runs[argv[0]] = _fresh(script)
    layers = ["wktoolkit.cli", "wktoolkit.decide", "wktoolkit.errors", "wktoolkit.groups", "wktoolkit.numon"]
    assert runs == {
        "affine": str(sorted(layers + ["wktoolkit.affine"])),
        "classgroup": str(sorted(layers + ["wktoolkit.classgrp"])),
    }


def test_a_malformed_query_runs_no_layer():
    script = (
        "import sys, types; from wktoolkit import cli; cli.run(['numon', 'info']); "
        f"print([{_EXECUTED}, [m in sys.modules for m in ('dataclasses', 'hashlib', 'argparse', 'gettext')]])"
    )
    assert _fresh(script) == str([["wktoolkit.cli", "wktoolkit.errors"], [False] * 4])


def test_a_blocks_query_runs_only_the_layers_it_touches():
    # blocks and factor name numon and affine only in annotations
    script = (
        "import sys, types; from wktoolkit import cli; "
        "cli.run(['blocks', 'delta', '--group', '3', '--cap', '5']); "
        f"print({_EXECUTED})"
    )
    assert _fresh(script) == str(
        ["wktoolkit.blocks", "wktoolkit.cli", "wktoolkit.errors", "wktoolkit.factor", "wktoolkit.groups"]
    )


def test_no_action_loads_dataclasses_inspect_or_hashlib(tmp_path):
    # one well-formed desk argv of the pool per ACTIONS row, each asked twice
    # (a cache miss, then a hit) in one fresh interpreter: sys.modules only
    # grows, so none of these modules loaded for any of the answers
    import pathlib

    pool = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"
    argvs = {}
    for name, queries in sorted(json.loads(pool.read_text())["classes"].items()):
        for query in queries:
            if name.startswith("d.") and name != "d.malformed" and "argv" in query:
                argvs.setdefault(tuple(query["argv"][:2]), query["argv"])
    assert set(argvs) == set(cli.ACTIONS)
    cache = ["--cache-dir", str(tmp_path)]
    script = (
        "import sys; from wktoolkit import cli; "
        f"codes = [cli.run(argv + {cache!r}) for argv in {list(argvs.values())!r} for _ in range(2)]; "
        "print([codes[::2] == codes[1::2], [m for m in ('dataclasses', 'inspect', 'hashlib') if m in sys.modules]])"
    )
    assert _fresh(script) == str([True, []])


def test_every_layer_shows_its_public_functions_when_read():
    # the read Tracer.install makes: vars() of each layer after importing only
    # the CLI holds every public function the layer holds when imported here
    import importlib
    import inspect

    layers = ("cli", "numon", "affine", "factor", "blocks", "groups", "classgrp", "decide", "hilbertian")
    script = (
        "import inspect, sys, wktoolkit.cli; "
        "print({m: sorted(n for n, v in vars(sys.modules['wktoolkit.' + m]).items() "
        f"if inspect.isfunction(v) and not n.startswith('_')) for m in {layers!r}}})"
    )
    expected = {
        m: sorted(
            n
            for n, v in vars(importlib.import_module("wktoolkit." + m)).items()
            if inspect.isfunction(v) and not n.startswith("_")
        )
        for m in layers
    }
    assert all(expected.values())
    assert _fresh(script) == str(expected)


def test_field_and_custom_domains_read_the_same_flag_values(capsys):
    # field: facts once read only true/false/yes/no/1/0, and custom: facts
    # only true/false/attested-true/attested-false/unknown
    for domain in (
        "field:char=0,infinite=true,ph=true",
        "field:char=0,infinite=attested-true,ph=yes",
        "custom:char=0;is_field=1;infinite=yes;pseudo_hilbertian=attested-true",
    ):
        code, out = _run(capsys, ["classgroup", "direct-sum", "--gens", "2,3", "--domain", domain])
        assert code == 0 and json.loads(out)["class_group"]["infinite"] is True, domain


def test_a_characteristic_neither_0_nor_prime_has_one_message(capsys):
    expected = {"error": "characteristic 4 is neither 0 nor prime", "kind": "input"}
    for domain, extra in (("field:char=4", []), ("custom:char=4", []), ("custom:umt=true", ["--char", "4"])):
        argv = ["decide", "weakly-krull", "--domain", domain, "--monoid", "numerical:2,3"] + extra
        code, out = _run(capsys, argv)
        assert code == 2 and json.loads(out) == expected, argv


def test_large_primes_answer_at_once(capsys):
    p = "10000000000000061"
    code, out = _run(capsys, ["groups", "type000-except", "--desc", "2^inf", "--p", p])
    assert code == 0 and json.loads(out)["type_000_except_p"] is False
    code, out = _run(capsys, ["decide", "weakly-krull", "--domain", "fp:" + p, "--monoid", "numerical:2,3"])
    assert code == 0 and json.loads(out)["answer"] is True
    code, out = _run(capsys, ["groups", "type000-except", "--desc", "2^inf", "--p", str(2**89 - 1)])
    assert code == 3 and json.loads(out)["kind"] == "cap"


def test_irreducibility_degree_cap_exits_at_once(capsys):
    # degree 201 over F_2 is the first past the power test's cost cap
    prefix = ",".join(["1"] * 202)
    code, out = _run(capsys, ["hilbertian", "irreducible", "--p", "2", "--prefix", prefix])
    assert code == 3 and json.loads(out)["kind"] == "cap"
    code, out = _run(capsys, ["hilbertian", "find", "--p", "2", "--prefix", "1", "--max-degree", "201"])
    assert code == 3 and json.loads(out)["kind"] == "cap"
    # a search with no witness among its first candidates is refused, not run to the end
    argv = ["hilbertian", "find", "--p", "10000000000000061", "--prefix", "1,0,0", "--max-degree", "3"]
    code, out = _run(capsys, argv)
    assert code == 3 and json.loads(out) == {
        "error": "no witness among the first 1000 candidates, the search's cap",
        "kind": "cap",
    }


def test_the_library_defines_one_error_per_exit_code():
    import ast
    import pathlib

    from wktoolkit import errors

    defined = {name for name, v in vars(errors).items() if isinstance(v, type) and issubclass(v, BaseException)}
    assert defined == {"ToolkitError", "InputError", "CapError"}
    assert errors.InputError.__bases__ == errors.CapError.__bases__ == (errors.ToolkitError,)
    # no module of the package defines an exception class of its own
    found = set()
    for path in sorted(pathlib.Path(errors.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in getattr(node, "bases", ())]
            if isinstance(node, ast.ClassDef) and any(b.endswith(("Error", "Exception")) for b in bases):
                found.add((path.name, node.name))
    assert found == {("errors.py", "ToolkitError"), ("errors.py", "InputError"), ("errors.py", "CapError")}
