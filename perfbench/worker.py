"""Warm worker: one interpreter that answers benchmark queries over pipes.

Started as ``python perfbench/worker.py SRC_DIR`` with ``SRC_DIR`` first on
``sys.path``.  Each request is one JSON line on stdin.  Each reply is one
JSON header line ``{"exit": int, "out": n, "err": m, ...}`` on stdout,
followed by exactly ``n`` bytes of the query's stdout and ``m`` bytes of its
stderr.

Requests:
  {"op": "run", "query": {...}, "cache_dir": str | null, "qid": int}
                                               answer one query
  {"op": "trace", "on": bool}                  install or remove the tracer
  {"op": "mark"}                               reply with the span count so far
  {"op": "finish", "windows": [[a, b], ...], "spans_path": str}
                                               per-layer metrics per window of
                                               spans, and a dump of all spans

CLI queries run through ``wktoolkit.cli.run`` with stdout and stderr
captured, so argument parsing and JSON emit count.  Library queries (ideals
and T-blocks exist only in the library) call the public functions and emit
the result as one JSON document in the CLI's format.
"""

from __future__ import annotations

import sys
import time


def _json_doc(payload: dict) -> str:
    import json

    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _tblock_spec(blocks, groups, numon, spec: dict):
    group = groups.FiniteAbelianGroup(tuple(spec["group"]))
    comps = [(numon.from_generators(gens), tuple(g)) for gens, g in spec["components"]]
    return blocks.TBlockSpec.make(group, [tuple(e) for e in spec["g0"]], comps)


def run_library(op: str, args: dict) -> dict:
    """Answer a library-only question; the functions are looked up at call
    time, so a tracer's wrappers see the calls."""
    from wktoolkit import blocks, groups, numon

    if op in ("ideal_dual", "v_closure", "t_invertible"):
        s = numon.from_generators(args["gens"])
        ideal = numon.ideal_from_generators(s, args["ideal"])
        if op == "t_invertible":
            return {"t_invertible": numon.is_t_invertible(ideal)}
        result = numon.ideal_dual(ideal) if op == "ideal_dual" else numon.v_closure(ideal)
        return result.to_json()
    if op == "tblock_lengths":
        spec = _tblock_spec(blocks, groups, numon, args["spec"])
        element = blocks.TBlockElement.make(spec, [tuple(e) for e in args["elements"]], args["t"])
        return {"values": list(blocks.tblock_length_set(spec, element).values)}
    if op == "tblock_atoms":
        spec = _tblock_spec(blocks, groups, numon, args["spec"])
        res = blocks.tblock_atoms_bounded(spec, args["block_cap"], args["t_caps"])
        atoms = [[[list(e) for e in a.elements], list(a.t)] for a in res.atoms]
        return {"atoms": atoms, "count": len(atoms), "complete": res.complete}
    raise ValueError(f"unknown library op {op!r}")


def answer(query: dict, cache_dir: str | None = None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one query, as the CLI would give them."""
    import io
    import traceback

    from wktoolkit import cli
    from wktoolkit.errors import CapError, ToolkitError

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        if "argv" in query:
            argv = [cache_dir if a == "{cache}" else a for a in query["argv"]]
            code = cli.run(argv)
        else:
            try:
                out.write(_json_doc(run_library(query["lib"], query["args"])))
                code = cli.EXIT_OK
            except CapError as exc:
                out.write(_json_doc({"error": str(exc), "kind": "cap"}))
                code = cli.EXIT_CAP
            except ToolkitError as exc:
                out.write(_json_doc({"error": str(exc), "kind": "input"}))
                code = cli.EXIT_INPUT
    except Exception:  # a traceback is an answer the checker must see
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    src = sys.argv[1]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import wktoolkit.cli  # noqa: F401  (timed: the import a CLI call pays)

    import_ms = (time.perf_counter() - t0) * 1000

    import json
    import os

    import tracing

    wire_in, wire_out = sys.stdin.buffer, sys.stdout.buffer

    def reply(header: dict, out: bytes = b"", err: bytes = b"") -> None:
        header = dict(header, out=len(out), err=len(err))
        wire_out.write(json.dumps(header).encode() + b"\n" + out + err)
        wire_out.flush()

    package_file = os.path.realpath(sys.modules["wktoolkit"].__file__)
    reply({"exit": 0, "import_ms": import_ms, "package": package_file})
    tracer = tracing.Tracer()
    for line in wire_in:
        req = json.loads(line)
        op = req["op"]
        if op == "run":
            tracer.qid = req.get("qid", -1)
            code, out, err = answer(req["query"], req.get("cache_dir"))
            reply({"exit": code}, out.encode(), err.encode())
        elif op == "trace":
            if req["on"]:
                tracer.install()
            else:
                tracer.uninstall()
            reply({"exit": 0})
        elif op == "mark":
            reply({"exit": 0, "spans": len(tracer.spans)})
        elif op == "finish":
            tracer.uninstall()
            windows = []
            for start, end in req["windows"]:
                spans, notes = tracer.window(start, end)
                windows.append(
                    {
                        "metrics": tracing.layer_metrics(tracer.names, spans, notes),
                        "functions": tracing.function_report(tracer.names, spans),
                        "spans": len(spans),
                    }
                )
            with open(req["spans_path"], "w", encoding="utf-8") as fh:
                json.dump({"names": tracer.names, "spans": tracer.spans}, fh, separators=(",", ":"))
            reply({"exit": 0, "windows": windows})
        else:
            reply({"exit": 2, "error": f"unknown op {op!r}"})


if __name__ == "__main__":
    main()
