"""Command-line front end.

Subcommands::

    mst      minimum spanning tree of a graph file
    sssp     shortest paths from one source
    sdsp     shortest paths into one destination
    trace    sssp with a per-extraction queue log
    bench    operation-count benchmarks
    analyze  expected vs observed layer occupancy

``--input`` takes a filesystem path first; a bare name that matches a
packaged fixture (fig1.g, fig4.g, fig6.g, demo.g) resolves to the shipped
copy.  ``--json`` switches any subcommand to a canonical JSON payload on
stdout; given identical inputs and seeds the bytes are identical run to
run.

Exit codes: 0 success, 1 usage error, 2 input error (missing or malformed
graph, unknown vertex), 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable

from . import analysis, bench, schemas
from .fixtures import FIXTURE_NAMES, fixture_path
from .graphs import Graph, GraphError, load_graph
from .mst import mst_prim
from .paths import (
    format_trace_event,
    format_walk,
    sdsp,
    sssp,
    sssp_trace,
    walk,
)
from .ptrie import PTrieConfig

USAGE_ERROR = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract above (usage errors exit 1)."""

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _resolve_input(path: str) -> str:
    if os.path.exists(path):
        return path
    if path in FIXTURE_NAMES:
        return fixture_path(path)
    raise FileNotFoundError(f"no such graph file or fixture: {path}")


def _load(path: str, word_bits: int) -> Graph:
    return load_graph(_resolve_input(path), word_bits)


def _config(args: argparse.Namespace) -> PTrieConfig:
    return PTrieConfig(word_bits=args.m, stride_bits=args.k)


def _add_common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=32, metavar="BITS",
                   help="key width in bits (default 32)")
    p.add_argument("--k", type=int, default=4, metavar="BITS",
                   help="chunk width in bits, divides --m (default 4)")
    p.add_argument("--json", action="store_true", help="emit a JSON payload")


def _emit(args: argparse.Namespace, payload: dict[str, Any],
          text: Callable[[], str]) -> None:
    if args.json:
        sys.stdout.write(schemas.dump_payload(payload))
    else:
        sys.stdout.write(text())


def _cmd_mst(args: argparse.Namespace) -> int:
    g = _load(args.input, args.m)
    result = mst_prim(g, args.root, _config(args))

    def text() -> str:
        lines = [f"mst root={result.root}"]
        lines += [f"edge {t} {h} {w}" for t, h, w in result.edges]
        lines.append(f"total {result.total_weight}")
        lines.append(f"spans_all {'true' if result.spans_all else 'false'}")
        return "\n".join(lines) + "\n"

    _emit(args, schemas.mst_to_dict(result), text)
    return 0


def _tree_text(tree, g: Graph, walk_from: str | None) -> str:
    lines = [f"source {tree.source}"]
    for v in g.vertices():
        if not tree.is_reachable(v):
            lines.append(f"vertex {v} unreachable")
            continue
        ba = tree.back[v]
        back = "-" if ba is None else f"{ba[0]} {ba[1]}"
        lines.append(
            f"vertex {v} dist={tree.dist[v]} hops={tree.hops[v]} back={back}"
        )
    if walk_from is not None:
        steps = walk(tree, walk_from)
        if steps is None:
            lines.append(f"walk {walk_from}: unreachable")
        else:
            lines.append(f"walk {format_walk(steps)}")
    return "\n".join(lines) + "\n"


def _cmd_paths(args: argparse.Namespace) -> int:
    g = _load(args.input, args.m)
    if args.walk is not None and args.walk not in g:
        raise GraphError(f"unknown vertex {args.walk!r}")
    if args.command == "sssp":
        tree = sssp(g, args.source, _config(args))
    else:
        tree = sdsp(g, args.dest, _config(args))
    _emit(args, schemas.path_tree_to_dict(tree, g),
          lambda: _tree_text(tree, g, args.walk))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    g = _load(args.input, args.m)
    tree, events = sssp_trace(g, args.source, _config(args))

    def text() -> str:
        lines = [format_trace_event(ev, args.verbose) for ev in events]
        lines.append(f"settled {len(tree.dist)} of {g.vertex_count}")
        return "\n".join(lines) + "\n"

    _emit(args, schemas.trace_to_dict(args.source, events), text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.mode == "workload":
        report = bench.run_pq_workload(
            args.n, args.queue, args.m, args.k, args.seed
        )

        def text() -> str:
            r = report
            rate = r.inserts + r.extractions
            rate = rate / r.elapsed_s if r.elapsed_s > 0 else float("inf")
            return (
                f"queue={r.queue} n={r.n} seed={r.seed}\n"
                f"inserts={r.inserts} extractions={r.extractions}\n"
                f"max_insert_steps={r.max_insert_steps} "
                f"max_extract_steps={r.max_extract_steps} "
                f"max_layers_visited={r.max_layers_visited}\n"
                f"mean_steps={r.mean_steps:.4f}\n"
                f"drain_checksum={r.drain_checksum}\n"
                f"throughput={rate:.0f} ops/s (informational)\n"
            )

    elif args.mode == "scaling":
        report = bench.scaling_sweep(
            tuple(args.sizes), args.m, args.k, args.seed
        )

        def text() -> str:
            lines = ["size      mean_steps  max_ins  max_ext"]
            for r in report.reports:
                lines.append(
                    f"{r.n:<9} {r.mean_steps:<11.4f} "
                    f"{r.max_insert_steps:<8} {r.max_extract_steps}"
                )
            lines.append(f"flatness_ratio {report.flatness_ratio:.4f}")
            return "\n".join(lines) + "\n"

    else:
        report = bench.run_dijkstra_bench(
            args.vertices, args.arcs, args.queue, args.seed
        )

        def text() -> str:
            r = report
            return (
                f"queue={r.queue} vertices={r.n_vertices} arcs={r.n_arcs} "
                f"seed={r.seed}\n"
                f"reached={r.reached} agrees_with_heap={r.agrees_with_heap}\n"
                f"dist_checksum={r.dist_checksum}\n"
                f"elapsed={r.elapsed_s:.3f}s (informational)\n"
            )

    _emit(args, report.to_dict(), text)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    cfg = PTrieConfig(word_bits=args.m, stride_bits=args.k)
    levels = args.levels if args.levels is not None else cfg.depth_max
    if levels < 1 or levels > cfg.depth_max:
        raise ValueError(f"--levels must be in 1..{cfg.depth_max}")
    obs = analysis.monte_carlo_layer_counts(args.n, cfg, args.trials, args.seed)
    mass = sum(analysis.occupancy_distribution(args.n, cfg.degree, 1))
    payload = schemas.analysis_to_dict(obs, mass)
    payload["levels"] = payload["levels"][:levels]

    def text() -> str:
        lines = [
            f"n={args.n} degree={cfg.degree} trials={args.trials} "
            f"seed={args.seed}",
            "level  expected      observed      3*SE",
        ]
        for lvl in range(levels):
            se3 = 3.0 * obs.std_bound[lvl] / (args.trials ** 0.5)
            lines.append(
                f"{lvl:<6} {obs.expected[lvl]:<13.6f} "
                f"{obs.observed_mean[lvl]:<13.6f} {se3:.6f}"
            )
        lines.append(
            f"total  {obs.expected_total:<13.6f} "
            f"{obs.observed_total_mean:<13.6f}"
        )
        lines.append(f"prob_mass_check {mass!r}")
        return "\n".join(lines) + "\n"

    _emit(args, payload, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prefixpq",
        description="Prefix-tree priority queue toolkit: spanning trees, "
        "shortest paths, benchmarks and occupancy analysis.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command",
                            parser_class=_Parser)

    p = sub.add_parser("mst",
                       help="minimum spanning tree via Prim")
    p.add_argument("--input", required=True, help="graph file or fixture name")
    p.add_argument("--root", required=True, help="vertex to grow the tree from")
    _add_common_options(p)
    p.set_defaults(func=_cmd_mst)

    p = sub.add_parser("sssp",
                       help="shortest paths from a source")
    p.add_argument("--input", required=True, help="graph file or fixture name")
    p.add_argument("--source", required=True, help="source vertex")
    p.add_argument("--walk", metavar="VERTEX",
                   help="also print the back-chain from this vertex")
    _add_common_options(p)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("sdsp",
                       help="shortest paths into a destination")
    p.add_argument("--input", required=True, help="graph file or fixture name")
    p.add_argument("--dest", required=True, help="destination vertex")
    p.add_argument("--walk", metavar="VERTEX",
                   help="also print the back-chain from this vertex")
    _add_common_options(p)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("trace",
                       help="sssp with a per-extraction log")
    p.add_argument("--input", required=True, help="graph file or fixture name")
    p.add_argument("--source", required=True, help="source vertex")
    p.add_argument("--verbose", action="store_true",
                   help="include the queue snapshot under every step")
    _add_common_options(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("bench",
                       help="operation-count benchmarks")
    p.add_argument("--mode", choices=("workload", "scaling", "dijkstra"),
                   default="workload")
    p.add_argument("--n", type=int, default=100_000,
                   help="keys for the workload mode (default 100000)")
    p.add_argument("--queue", choices=("ptrie", "oracle"), default="ptrie")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[1_000, 10_000, 100_000, 1_000_000],
                   help="sweep sizes for the scaling mode")
    p.add_argument("--vertices", type=int, default=2_000,
                   help="graph size for the dijkstra mode")
    p.add_argument("--arcs", type=int, default=10_000,
                   help="arc count for the dijkstra mode")
    _add_common_options(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("analyze",
                       help="expected vs observed layers per level")
    p.add_argument("--n", type=int, required=True,
                   help="number of random keys per trial")
    p.add_argument("--levels", type=int, default=None,
                   help="levels to report (default: all)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    _add_common_options(p)
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except (OSError, GraphError) as exc:
        print(f"prefixpq: input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except ValueError as exc:
        print(f"prefixpq: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"prefixpq: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
