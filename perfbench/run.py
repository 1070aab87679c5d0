"""wktoolkit benchmark: closed-loop workloads, answers checked, layers traced.

Run from the root of a checkout (the program is built from ``src/`` there):

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One client sends the next query only after the previous reply arrived.
A run sets up seven times (input generation, loading the stored
references, starting the worker or the cache directory, one warm-up query),
four times before the timed passes and three times after them, and reports
the median as ``setup_s``.  The timed passes are whole passes of the
workload's query list; the run stops at the pass end nearest to
``--seconds`` once the tail percentile has ten samples beyond it.  Latency
runs from sending a query to receiving its whole reply; every reply is
checked after timing stops.

``--trace 1`` is a separate run: in one warm worker it answers one warm-up
pass, then alternates untraced and traced passes of the same queries, and
reports the per-layer metrics of the traced passes and the tracing overhead
against the untraced ones.  End-to-end
numbers come only from ``--trace 0``.

The last line of stdout is the result; the line before it describes the run
(commit, Python version, CPUs, interpreter floor, samples, error rate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
WARMUP = {"argv": ["numon", "info", "--gens", "3,5"]}
SETUPS = 7
FLOOR_RUNS = 5
# No query starts past this many seconds after start-up, so that a run ends
# within 180 s even when its last query runs into its timeout.
RUN_BUDGET_S = 120.0
STARTED = time.perf_counter()

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_layers() -> dict[str, dict]:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# statistics


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 1982).

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights, integrated numerically.  Timings on a shared machine come in a
    fast and a slow mode; the sample quantile of queries of equal cost jumps
    between the modes from run to run, this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16
    total = weights = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += w * x
        weights += w
    return total / weights


def latency_quantiles(pass_ms: list[list[float]], tail: float) -> tuple[float, float]:
    """(median, tail quantile) of a run's latencies, given per pass in query
    order: both are taken over each query's median latency across passes.

    A slow spell of the machine, or one slow answer, hits one pass of a
    query and fattens the tail of the answers more than it moves their
    median; and the median sits on a ladder of query costs, where one slow
    answer below it would shift it a whole rung.  A query's median across
    passes absorbs both.
    """
    per_query = [statistics.median(p[i] for p in pass_ms if i < len(p)) for i in range(len(pass_ms[0]))]
    return quantile(per_query, 0.5), quantile(per_query, tail)


# ---------------------------------------------------------------------------
# the program under test


class Worker:
    """A warm ``worker.py`` interpreter; see that file for the protocol."""

    def __init__(self, src: str, log_path: str, timeout_s: float = 60.0):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, src],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(src),
        )
        self._buf = bytearray()
        self.hello = self._read(time.monotonic() + timeout_s)[0]

    def _fill(self, deadline: float) -> None:
        fd = self.proc.stdout.fileno()
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            raise TimeoutError
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            raise EOFError("worker exited")
        self._buf += chunk

    def _read(self, deadline: float):
        while (nl := self._buf.find(b"\n")) < 0:
            self._fill(deadline)
        header = json.loads(self._buf[:nl])
        del self._buf[: nl + 1]
        need = header["out"] + header["err"]
        while len(self._buf) < need:
            self._fill(deadline)
        out, err = bytes(self._buf[: header["out"]]), bytes(self._buf[header["out"] : need])
        del self._buf[:need]
        return header, out, err

    def call(self, request: dict, timeout_s: float):
        """The reply, or None when the worker is gone or late (a late one is
        killed)."""
        if not self.alive:
            return None
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
            self.proc.stdin.flush()
            return self._read(time.monotonic() + timeout_s)
        except (TimeoutError, EOFError, BrokenPipeError):
            self.proc.kill()
            self.close()
            return None

    def close(self) -> None:
        """End the worker (EOF on stdin ends its loop) and release the pipes."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass
        self._log.close()

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("WKT_CACHE_DIR", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_process(src: str, argv: list[str], timeout_s: float):
    """(exit, stdout, stderr) of a fresh ``python -m wktoolkit.cli`` process;
    exit is None when it ran past the timeout and was killed."""
    try:
        r = subprocess.run(
            [sys.executable, "-m", "wktoolkit.cli", *argv],
            env=child_env(src),
            capture_output=True,
            timeout=timeout_s,
        )
        return r.returncode, r.stdout, r.stderr
    except subprocess.TimeoutExpired:
        return None, b"", b""


def python_floor_ms() -> float:
    times = []
    for _ in range(FLOOR_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# a run


class Run:
    def __init__(self, workload: workloads.Workload, seed: int, root: str):
        self.w = workload
        self.seed = seed
        self.src = os.path.join(root, "src")
        self.dir = os.path.join(root, ".perfbench_work", f"{workload.name}-seed{seed}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.worker: Worker | None = None
        self.queries: list[dict] = []
        self.replies: list[list] = []  # per pass, per query: (exit, stdout, stderr)
        self.latencies: list[float] = []
        self.passes = 0
        self.cache_bytes = 0  # size of the result cache after the last whole pass

    # set-up ------------------------------------------------------------

    def setup(self, use_worker: bool) -> float:
        t0 = time.perf_counter()
        self.queries = workloads.generate(self.w, self.seed, workloads.load_pool())
        if use_worker:
            if self.worker is not None:
                self.worker.close()
            self.worker = Worker(self.src, os.path.join(self.dir, "worker.log"))
            package = os.path.realpath(self.worker.hello["package"])
            if not package.startswith(os.path.realpath(self.src) + os.sep):
                raise SystemExit(f"perfbench: worker imported {package}, not the checkout's src/")
            self.worker.call({"op": "run", "query": WARMUP}, self.w.timeout_s)
        else:
            cache = self.fresh_cache()
            cli_process(self.src, WARMUP["argv"] + ["--cache-dir", cache], self.w.timeout_s)
        return time.perf_counter() - t0

    def fresh_cache(self) -> str:
        path = os.path.join(self.dir, f"cache-{self.passes}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - STARTED)

    # answering ---------------------------------------------------------

    def live_worker(self) -> Worker:
        """The worker, restarted if a timeout killed it."""
        if not self.worker.alive:
            self.worker = Worker(self.src, os.path.join(self.dir, "worker.log"))
        return self.worker

    def ask(self, query: dict, cache: str | None, qid: int):
        if self.worker is None:
            argv = [cache if a == "{cache}" else a for a in query["argv"]]
            return cli_process(self.src, argv, self.w.timeout_s)
        request = {"op": "run", "query": query, "cache_dir": cache, "qid": qid}
        reply = self.live_worker().call(request, self.w.timeout_s)
        if reply is None:
            return None, b"", b""
        header, out, err = reply
        return header["exit"], out, err

    def one_pass(self) -> tuple[float, list[float]]:
        """Answer the query list once; returns the pass's wall time and its
        latencies."""
        cache = self.fresh_cache() if self.w.mode == "process" else None
        replies = []
        n0 = len(self.latencies)
        t_pass = time.perf_counter()
        for i, query in enumerate(self.queries):
            if self.remaining() <= 0:
                break
            t0 = time.perf_counter()
            reply = self.ask(query, cache, qid=self.passes * 1000 + i)
            self.latencies.append(time.perf_counter() - t0)
            replies.append(reply)
        self.replies.append(replies)
        self.passes += 1
        if cache is not None and len(replies) == len(self.queries):
            self.cache_bytes = os.path.getsize(os.path.join(cache, "wkt-cache.jsonl"))
            shutil.rmtree(cache, ignore_errors=True)
        return time.perf_counter() - t_pass, self.latencies[n0:]

    # checking ----------------------------------------------------------

    def check_all(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, reasons): first answers against the references,
        later passes byte for byte against the first."""
        attempted = failed = 0
        reasons = []
        for p, replies in enumerate(self.replies):
            for i, (code, out, err) in enumerate(replies):
                attempted += 1
                first = self.replies[0][i]
                if p == 0:
                    reason = check.check(self.queries[i], code, out.decode(), err.decode())
                elif code is None or b"Traceback" in err:
                    reason = "timeout" if code is None else "traceback on stderr"
                else:
                    reason = None if (code, out) == first[:2] else "answer differs from the first pass"
                if reason:
                    failed += 1
                    reasons.append(f"pass {p} query {i} {self.queries[i].get('argv') or self.queries[i]['lib']}: {reason}")
        return attempted, failed, reasons

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()


def measure(workload: workloads.Workload, seed: int, seconds: float, root: str) -> tuple[dict, dict]:
    run = Run(workload, seed, root)
    try:
        floor = python_floor_ms()
        use_worker = workload.mode == "worker"
        setups = [run.setup(use_worker) for _ in range(SETUPS - SETUPS // 2)]
        t0 = time.perf_counter()
        elapsed = 0.0
        pass_ms = []  # per pass, its latencies in ms
        while run.remaining() > 0:
            wall, lat = run.one_pass()
            if lat:  # empty when the run's budget ran out as the pass began
                pass_ms.append([x * 1000 for x in lat])
            elapsed = time.perf_counter() - t0
            # whole passes only; stop where the next pass would end further
            # past --seconds than stopping now falls short of it
            if len(run.latencies) >= workload.min_samples and elapsed + wall / 2 >= seconds:
                break
        # the other set-ups follow the timed passes, so that their median
        # samples the machine at both ends of the run
        setups += [run.setup(use_worker) for _ in range(SETUPS // 2)]
    finally:
        run.close()
    # every process this run started has been waited for: the largest of them
    # is the worker, or the largest CLI child
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    attempted, failed, reasons = run.check_all()
    lat_ms = [x * 1000 for x in run.latencies]
    p50, tail = latency_quantiles(pass_ms, workload.tail)
    metrics = {
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "queries_per_s": (attempted - failed) / elapsed,
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setups),
    }
    info = {
        "passes": run.passes,
        "samples": len(lat_ms),
        "tail_percentile": workload.tail,
        "error_rate": failed / attempted,
        "setups_s": setups,
        "failures": reasons[:10],
        "cli.python_floor_ms": floor,
        "latencies_ms": lat_ms,
    }
    return metrics, info | {"attempted": attempted, "failed": failed}


def control(worker: Worker, request: dict) -> dict:
    """The reply header of a control request to the traced worker."""
    reply = worker.call(request, 30)
    if reply is None:
        raise SystemExit(f"perfbench: the traced worker did not answer {request['op']!r}")
    return reply[0]


def overhead(untraced: list[list[float]], traced: list[list[float]]) -> float:
    """Tracing overhead: the median over queries of a query's median traced
    latency over its median untraced latency, minus 1.  Per query, so that
    a slow spell of the machine during one pass moves it little."""
    ratios = [
        statistics.median(p[i] for p in traced) / statistics.median(p[i] for p in untraced)
        for i in range(min(map(len, untraced + traced)))
    ]
    return statistics.median(ratios) - 1


def measure_traced(workload: workloads.Workload, seed: int, seconds: float, root: str) -> tuple[dict, dict]:
    run = Run(workload, seed, root)
    walls = {"untraced": [], "traced": []}
    latencies = {"untraced": [], "traced": []}  # per pass, per query
    windows, stdout_bytes, cache_bytes = [], [], []
    try:
        floor = python_floor_ms()
        run.setup(use_worker=True)
        import_ms = run.worker.hello["import_ms"]
        t0 = time.perf_counter()
        run.one_pass()
        while run.remaining() > 0:
            wall, lat = run.one_pass()
            walls["untraced"].append(wall)
            latencies["untraced"].append(lat)
            if run.remaining() <= 0:
                break
            worker = run.live_worker()
            control(worker, {"op": "trace", "on": True})
            start = control(worker, {"op": "mark"})["spans"]
            wall, lat = run.one_pass()
            walls["traced"].append(wall)
            latencies["traced"].append(lat)
            if run.worker is not worker or not worker.alive:
                raise SystemExit("perfbench: a traced query timed out; the spans of its worker are lost")
            end = control(worker, {"op": "mark"})["spans"]
            control(worker, {"op": "trace", "on": False})
            windows.append([start, end])
            stdout_bytes.append(sum(len(r[1]) for r in run.replies[-1]))
            cache_bytes.append(run.cache_bytes)
            if time.perf_counter() - t0 >= seconds:
                break
        if not windows:
            raise SystemExit("perfbench: no traced pass within the time budget")
        spans_path = os.path.join(run.dir, "spans.json")
        finish = control(run.worker, {"op": "finish", "windows": windows, "spans_path": spans_path})
    finally:
        run.close()
    attempted, failed, reasons = run.check_all()
    per_window = [w["metrics"] for w in finish["windows"]]
    metrics = {name: statistics.median(m[name] for m in per_window) for name in per_window[0]}
    metrics.update(
        {
            "cli.import_ms": import_ms,
            "cli.python_floor_ms": floor,
            "cli.stdout_bytes": statistics.median(stdout_bytes),
            "cli.cache_file_bytes": statistics.median(cache_bytes),
            "trace.overhead_ratio": overhead(latencies["untraced"], latencies["traced"]),
        }
    )
    functions = finish["windows"][0]["functions"]
    info = {
        "passes": run.passes,
        "traced_passes": len(windows),
        "spans_per_pass": finish["windows"][0]["spans"],
        "pass_wall_s": walls,
        "error_rate": failed / attempted,
        "failures": reasons[:10],
        "cli.python_floor_ms": floor,
        "functions": dict(sorted(functions.items(), key=lambda kv: -kv[1]["self_ms"])),
    }
    return metrics, info | {"attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------
# reporting


def source_digest(src: str) -> str:
    """SHA-256 over the package sources, naming the code under test where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "wktoolkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit(root: str) -> str:
    """The git commit checked out at ``root``; outside git, ``src-sha256:``
    and a digest of the package sources."""
    try:
        r = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:  # no git
        pass
    return "src-sha256:" + source_digest(os.path.join(root, "src"))


def environment(root: str) -> dict:
    return {
        "commit": commit(root),
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def print_table(rows: list[tuple[str, str, float, str]]) -> None:
    for workload, name, value, unit in rows:
        print(f"{workload:16s} {name:40s} {value:14.4f} {unit}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wktoolkit", "cli.py")):
        print("perfbench: run from the root of a wktoolkit checkout (no src/wktoolkit here)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)

    workload = workloads.WORKLOADS[args.workload]
    layers = load_layers()
    if args.trace:
        values, info = measure_traced(workload, args.seed, args.seconds, root)
        units = {name: spec["unit"] for name, spec in layers.items()}
    else:
        values, info = measure(workload, args.seed, args.seconds, root)
        units = END_TO_END_UNITS
    attempted, failed = info.pop("attempted"), info.pop("failed")
    latencies = info.pop("latencies_ms", None)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    description = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(root),
        **info,
    }
    with open(os.path.join(root, ".perfbench_work", f"{workload.name}-seed{args.seed}", "result.json"), "w") as fh:
        record = {"run": description, "metrics": metrics, "attempted": attempted, "failed": failed}
        json.dump(record | {"latencies_ms": latencies}, fh, indent=1)
    print_table([(workload.name, n, m["value"], m["unit"]) for n, m in metrics.items()])
    print_table([(workload.name, "error_rate", info["error_rate"], "ratio")])
    for reason in info["failures"]:
        print("FAILED", reason, file=sys.stderr)
    print(json.dumps({"run": description}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, root: str) -> int:
    """Every workload in turn, each in its own process, and one table of the
    end-to-end metrics with their units, error_rate included."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        result_line = r.stdout.strip().splitlines()[-1]
        result = json.loads(result_line)
        rows.extend((name, m, v["value"], v["unit"]) for m, v in result["metrics"].items())
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
    for workload, name, value, unit in rows:
        print(f"{workload:16s} {name:40s} {value:14.4f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
