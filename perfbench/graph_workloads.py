"""``graph`` and ``cli``: the algorithms the queue serves, in-process and cold.

Both generate undirected graphs with 16-bit weights from the seed.  A
spanning path of random tree edges comes first, so every graph is connected
and every vertex is reached from ``v0``.  The checks use a second copy of
each graph built edge by edge with ``Graph.add_edge``, so a parser fault
cannot hide behind a reference computed on the parser's own output.

Every package call or command is timed next to its counterpart in
``reference.py``; the end-to-end figures are the ratios of the two.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Callable

import reference
from common import (SETUP_REPEATS, Context, GcMonitor, Result, Timings, peak_rss_mb,
                    time_ref, timed_setup)
from spans import Tracer

from prefixpq import graphs, mst, oracles, paths
from prefixpq.fixtures import fixture_text
from prefixpq.graphs import Graph

SOURCE = "v0"
WEIGHT_BITS = 16
EDGES_PER_VERTEX = 5
# Reference runs on each side of a package call in ``graph``: the package
# takes several times as long, and a longer reference stretch shrinks the
# share of its own jitter in the ratio.
REF_REPEAT = 2

# Vertices of the generated graphs, full and tiny.
GRAPH_VERTICES = {False: 6_000, True: 200}
CLI_SSSP_VERTICES = {False: 1_000, True: 60}
CLI_TRACE_VERTICES = {False: 150, True: 30}
# Untraced and traced in-process sessions, alternated, in the traced cli run.
IN_PROCESS_PAIRS = 3


class GeneratedGraph:
    """Seeded edge list, its text form and an independently built Graph."""

    def __init__(self, seed: int, n: int) -> None:
        rng = random.Random(seed)
        bits = rng.getrandbits
        edges = [(rng.randrange(i), i, bits(WEIGHT_BITS)) for i in range(1, n)]
        while len(edges) < EDGES_PER_VERTEX * n:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, bits(WEIGHT_BITS)))
        self.n = n
        self.edges = edges
        lines = [f"v v{i}" for i in range(n)]
        lines += [f"e v{u} v{v} {w}" for u, v, w in edges]
        self.text = "\n".join(lines) + "\n"

    def reference_graph(self) -> Graph:
        g = Graph()
        for i in range(self.n):
            g.add_vertex(f"v{i}")
        for u, v, w in self.edges:
            g.add_edge(f"v{u}", f"v{v}", w)
        return g


class References:
    """Oracle answers for one generated graph, each oracle timed once.

    The answers of the timing references in ``reference.py`` are checked
    against the same oracles, so a ratio never rests on a wrong reference.
    """

    def __init__(self, gen: GeneratedGraph, res: Result) -> None:
        self.graph = gen.reference_graph()
        t0 = time.perf_counter()
        self.dist = oracles.dijkstra_heap(self.graph, SOURCE)
        t1 = time.perf_counter()
        self.mst_weight = oracles.kruskal_component_weight(self.graph, SOURCE)
        t2 = time.perf_counter()
        self.dijkstra_s = t1 - t0
        self.kruskal_s = t2 - t1
        labels, adj = reference.parse(gen.text)
        ref_dist = {labels[v]: d for v, d in enumerate(reference.dijkstra(adj, 0)) if d >= 0}
        res.check(ref_dist == self.dist and reference.prim(adj, 0) == self.mst_weight,
                  "reference solvers disagree with the oracles")

    def pushes(self, settled) -> int:
        """Queue entries a lazy-deletion run pushes: every out-arc of every
        settled vertex, since the run drains its queue to empty."""
        return sum(len(self.graph.arcs_from(v)) for v in settled)

    def metrics(self) -> dict[str, float]:
        return {"ref.dijkstra_heap_s": self.dijkstra_s, "ref.kruskal_s": self.kruskal_s}


def _reject_ratio(pushed: int, accepted: int) -> float:
    return (pushed - accepted) / pushed if pushed else 0.0


# ------------------------------------------------------------------ graph


def _between(ref: Callable[..., Any], args: tuple, prog: Callable[..., Any],
             *prog_args: Any) -> tuple[Any, int, Any, int]:
    """Time ``prog`` between two stretches of ``REF_REPEAT`` reference runs.

    Returns the package's result and time, then the reference's result and
    its mean time per run, in ns.
    """
    def stretch() -> Any:
        for _ in range(REF_REPEAT):
            got = ref(*args)
        return got

    _, r0 = time_ref(stretch)
    t0 = time.perf_counter_ns()
    got = prog(*prog_args)
    dt = time.perf_counter_ns() - t0
    ref_got, r1 = time_ref(stretch)
    return got, dt, ref_got, (r0 + r1) // (2 * REF_REPEAT)


def _solve(gen: GeneratedGraph, refs: References, res: Result) -> tuple[list[int], int]:
    """One round of parse, sssp and mst_prim, each between two references.

    Returns the three package times and the total reference time, in ns.
    The package's answers are checked after the round, untimed.
    """
    g, t_parse, (_, adj), r_parse = _between(reference.parse, (gen.text,),
                                             graphs.parse_graph, gen.text)
    tree, t_sssp, _, r_sssp = _between(reference.dijkstra, (adj, 0), paths.sssp, g, SOURCE)
    span, t_mst, _, r_mst = _between(reference.prim, (adj, 0), mst.mst_prim, g, SOURCE)
    res.check(g.vertex_count == gen.n and g.arc_count == 2 * len(gen.edges),
              f"parse_graph: {g.vertex_count} vertices, {g.arc_count} arcs")
    res.check(tree.dist == refs.dist, "sssp distances differ from dijkstra_heap")
    res.check(span.total_weight == refs.mst_weight and span.spans_all
              and len(span.edges) == gen.n - 1,
              f"mst_prim weight {span.total_weight} vs kruskal {refs.mst_weight}")
    return [t_parse, t_sssp, t_mst], r_parse + r_sssp + r_mst


def _rounds(gen: GeneratedGraph, refs: References, res: Result, seconds: float,
            count: int = 0, each: Callable[[int], None] | None = None
            ) -> tuple[Timings, list[list[int]]]:
    """Solve rounds until ``seconds`` of package time, or ``count`` rounds."""
    tm = Timings()
    stages: list[list[int]] = []

    def more() -> bool:
        if count:
            return len(stages) < count
        return tm.prog_ns < seconds * 1e9 or not stages

    while more():
        if each is not None:
            each(len(stages))
        try:
            prog, ref_ns = _solve(gen, refs, res)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res.check(False, "graph round raised")
            break
        stages.append(prog)
        tm.add(1, sum(prog), ref_ns)
    return tm, stages


def run_graph(ctx: Context) -> Result:
    n = GRAPH_VERTICES[ctx.tiny]
    res = Result()
    if not ctx.trace:
        gen, setup_s = timed_setup(lambda: GeneratedGraph(ctx.seed, n), SETUP_REPEATS)
        refs = References(gen, res)
        tm, _ = _rounds(gen, refs, res, ctx.seconds)
        res.metrics["setup_s"] = ctx.import_s + setup_s
        res.metrics["peak_rss_mb"] = peak_rss_mb()
        res.metrics.update(tm.end_to_end())
        return res

    gen = GeneratedGraph(ctx.seed, n)
    refs = References(gen, res)
    with GcMonitor() as gcm:
        tm, stages = _rounds(gen, refs, res, ctx.seconds)
    res.metrics.update(gcm.metrics())
    res.metrics.update(tm.absolute())
    res.metrics["ref.dijkstra_heap_s"] = refs.dijkstra_s
    res.metrics["ref.kruskal_s"] = refs.kruskal_s
    for i, name in enumerate(("load_s", "sssp_s", "mst_s")):
        res.metrics[name] = statistics.median(r[i] for r in stages) / 1e9
    res.metrics["sssp.vs_heap"] = res.metrics["sssp_s"] / refs.dijkstra_s
    tree = paths.sssp(refs.graph, SOURCE)
    span = mst.mst_prim(refs.graph, SOURCE)
    res.metrics["paths.sssp.reject_ratio"] = _reject_ratio(refs.pushes(tree.dist), len(tree.dist) - 1)
    res.metrics["mst.reject_ratio"] = _reject_ratio(refs.pushes(span.spanned), len(span.edges))
    del tree, span

    tracer = Tracer()

    def steps_in_first_round(i: int) -> None:
        tracer.record_steps = i == 0

    with tracer:
        traced, _ = _rounds(gen, refs, res, 0.0, len(stages), steps_in_first_round)
    res.metrics.update(tracer.span_metrics(traced.prog_ns))
    res.metrics["trace.untraced_s"] = tm.prog_ns / 1e9
    res.metrics["trace.traced_s"] = traced.prog_ns / 1e9
    res.metrics["trace.overhead_s"] = (traced.prog_ns - tm.prog_ns) / 1e9
    return res


# -------------------------------------------------------------------- cli


class CliInputs:
    """Graph files for the cold commands, written under the work directory."""

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.sssp = GeneratedGraph(seed, CLI_SSSP_VERTICES[tiny])
        self.trace = GeneratedGraph(seed + 1, CLI_TRACE_VERTICES[tiny])
        self.sssp_path = os.path.join(workdir, "sssp.g")
        self.trace_path = os.path.join(workdir, "trace.g")
        for path, gen in ((self.sssp_path, self.sssp), (self.trace_path, self.trace)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.text)

    def commands(self) -> list[tuple[str, list[str], list[str]]]:
        """(metric, CLI arguments, ``reference.py`` arguments) per command.

        Reference repeats are sized so each reference process runs about as
        long as its command.
        """
        return [
            ("cli_mst_s", ["mst", "--input", "fig4.g", "--root", "A"],
             ["mst", self.trace_path, "1"]),
            ("cli_sssp_json_s", ["sssp", "--input", self.sssp_path, "--source", SOURCE, "--json"],
             ["sssp", self.sssp_path, "10"]),
            ("cli_trace_s", ["trace", "--input", self.trace_path, "--source", SOURCE],
             ["trace", self.trace_path, "12"]),
        ]


def _in_process(argv: list[str]) -> tuple[int, str]:
    # imported here so the graph workload never loads cli's dependencies
    from prefixpq import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _expected_outputs(inputs: CliInputs, res: Result) -> dict[str, str]:
    """In-process output of each command, itself checked against oracles."""
    expected = {}
    for name, argv, _ in inputs.commands():
        code, out = _in_process(argv)
        res.check(code == 0, f"in-process {argv[0]} exited {code}")
        expected[name] = out
    fig4 = graphs.parse_graph(fixture_text("fig4.g"))
    total = f"total {oracles.kruskal_component_weight(fig4, 'A')}\n"
    res.check(total in expected["cli_mst_s"], "cli mst total differs from kruskal")
    dist = oracles.dijkstra_heap(inputs.sssp.reference_graph(), SOURCE)
    payload = json.loads(expected["cli_sssp_json_s"])
    got = {v: rec["dist"] for v, rec in payload["vertices"].items() if rec["reachable"]}
    res.check(got == dist, "cli sssp --json distances differ from dijkstra_heap")
    n = inputs.trace.n
    accepts = expected["cli_trace_s"].count(" accept\n")
    res.check(accepts == n - 1 and f"settled {n} of {n}\n" in expected["cli_trace_s"],
              f"cli trace accepted {accepts} of {n - 1}")
    return expected


class Cold:
    """Runs one child process at a time and measures it from outside."""

    def __init__(self, root: str, workdir: str) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cwd = workdir
        self.err_path = os.path.join(workdir, "stderr.txt")
        self.reference = os.path.join(root, "perfbench", "reference.py")

    def run(self, args: list[str]) -> tuple[int, int, str, str, float]:
        """``python ARGS``: (ns, exit code, stdout, stderr, peak RSS in MB)."""
        with open(self.err_path, "w+", encoding="utf-8") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen([sys.executable, *args], env=self.env, cwd=self.cwd,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter_ns() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return dt, proc.returncode, out, err.read(), usage.ru_maxrss / 1024.0


class Session:
    """The three cold commands, each between two runs of its reference."""

    def __init__(self, cold: Cold, inputs: CliInputs, expected: dict[str, str]) -> None:
        self.cold = cold
        self.inputs = inputs
        self.expected = expected
        self.peak_rss_mb = 0.0

    def run(self, res: Result) -> tuple[dict[str, int], int]:
        """Package time per command and the total reference time, in ns."""
        times = {}
        ref_ns = 0
        for name, argv, ref_args in self.inputs.commands():
            ref_ns += self._reference(ref_args, res)
            dt, code, out, err, rss = self.cold.run(["-m", "prefixpq", *argv])
            res.check(code == 0 and out == self.expected[name],
                      f"cold {argv[0]} exited {code}, stdout "
                      f"{'matches' if out == self.expected[name] else 'differs'}; {err[-300:]}")
            times[name] = dt
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            ref_ns += self._reference(ref_args, res)
        return times, ref_ns // 2

    def _reference(self, args: list[str], res: Result) -> int:
        dt, code, _, err, _ = self.cold.run([self.cold.reference, *args])
        res.check(code == 0, f"reference {args[0]} exited {code}: {err[-300:]}")
        return dt


def _import_times(cold: Cold) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``, in seconds."""
    wanted = {"prefixpq.cli": "import.prefixpq_cli_s", "numpy": "import.numpy_s",
              "jsonschema": "import.jsonschema_s"}
    samples: dict[str, list[float]] = {m: [] for m in wanted.values()}
    for _ in range(3):
        err = cold.run(["-X", "importtime", "-c", "import prefixpq.cli"])[3]
        seen = dict.fromkeys(wanted.values(), 0.0)
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in wanted:
                try:
                    seen[wanted[fields[2].strip()]] = int(fields[1]) / 1e6
                except ValueError:
                    continue
        for k, v in seen.items():
            samples[k].append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def _check_in_process(inputs: CliInputs, expected: dict[str, str],
                      got: list[tuple[int, str]], res: Result, what: str) -> None:
    for (name, _, _), (code, out) in zip(inputs.commands(), got):
        res.check(code == 0 and out == expected[name], f"{what} in-process {name} differs")


def run_cli(ctx: Context) -> Result:
    res = Result()
    workdir = os.path.join(ctx.root, "perfbench", ".work", f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run_cli(ctx, workdir, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_cli(ctx: Context, workdir: str, res: Result) -> Result:
    cold = Cold(ctx.root, workdir)
    inputs, setup_s = timed_setup(lambda: CliInputs(ctx.seed, ctx.tiny, workdir),
                                  1 if ctx.trace else SETUP_REPEATS)
    session = Session(cold, inputs, _expected_outputs(inputs, res))
    tm = Timings()
    per_command: list[dict[str, int]] = []
    while tm.prog_ns < ctx.seconds * 1e9 or not per_command:
        times, ref_ns = session.run(res)
        per_command.append(times)
        tm.add(1, sum(times.values()), ref_ns)
    if not ctx.trace:
        res.metrics["setup_s"] = ctx.import_s + setup_s
        res.metrics["peak_rss_mb"] = session.peak_rss_mb
        res.metrics.update(tm.end_to_end())
        return res

    res.metrics.update(tm.absolute())
    for name, _, _ in inputs.commands():
        res.metrics[name] = statistics.median(t[name] for t in per_command) / 1e9
    res.metrics.update(_import_times(cold))
    res.metrics["ref.python_start_s"] = statistics.median(
        cold.run(["-c", "pass"])[0] for _ in range(5)) / 1e9
    refs = References(inputs.sssp, res)
    res.metrics["ref.dijkstra_heap_s"] = refs.dijkstra_s
    res.metrics["ref.kruskal_s"] = refs.kruskal_s
    tree = paths.sssp(refs.graph, SOURCE)
    res.metrics["paths.sssp.reject_ratio"] = _reject_ratio(refs.pushes(tree.dist), len(tree.dist) - 1)
    res.metrics["paths.trace.snapshot_entries"] = sum(
        len(ev.queue) for ev in paths.sssp_trace(inputs.trace.reference_graph(), SOURCE)[1])

    # The traced sessions call cli.main in-process; the same session run
    # untraced just before each gives the tracing overhead.
    tracer = Tracer()
    gcm = GcMonitor()
    untraced_s = traced_s = 0.0
    for i in range(IN_PROCESS_PAIRS):
        gc.collect()
        with gcm:
            t0 = time.perf_counter()
            untraced = [_in_process(argv) for _, argv, _ in inputs.commands()]
            untraced_s += time.perf_counter() - t0
        _check_in_process(inputs, session.expected, untraced, res, "untraced")
        del untraced
        gc.collect()
        with tracer:
            tracer.record_steps = i == 0
            t0 = time.perf_counter()
            traced = [_in_process(argv) for _, argv, _ in inputs.commands()]
            traced_s += time.perf_counter() - t0
        _check_in_process(inputs, session.expected, traced, res, "traced")
        del traced
    res.metrics.update(gcm.metrics())
    res.metrics.update(tracer.span_metrics(int(traced_s * 1e9)))
    res.metrics["trace.untraced_s"] = untraced_s
    res.metrics["trace.traced_s"] = traced_s
    res.metrics["trace.overhead_s"] = traced_s - untraced_s
    return res
