"""Every metric the benchmark can print: name, unit and which way is better.

``BENCHMARK.json`` at the repository root mirrors these tables; the
self-test fails when the two disagree.  Regenerate the file with

    python3 perfbench/metrics.py > BENCHMARK.json
"""

from __future__ import annotations

import json

# Package time over the time of a reference doing the same job beside it
# (see reference.py): on a shared machine absolute times swing too much to
# hold a bound.  An op is a queue call (hold, churn), a parse-sssp-mst
# round (graph) or a session of three cold commands (cli).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "time.vs_ref": ("ratio", "lower", 0.2),
    "op_p50.vs_ref": ("ratio", "lower", 0.2),
}

WORKLOADS = {
    "hold": "delete_min then insert(key + small increment) on ~1e4 entries: the "
    "Dijkstra/event-set pattern, duplicate keys, a shallow cache-resident trie",
    "churn": "~3e5 distinct 32-bit keys with inserts, removes, searches and "
    "delete_min, a quarter signed: deep tries, big working set, GC pressure",
    "graph": "parse_graph, sssp and mst_prim on a 6e3-vertex 3e4-edge random "
    "graph: the algorithms the queue serves, checked against heap Dijkstra "
    "and Kruskal",
    "cli": "cold `prefixpq mst`, `sssp --json` and `trace` subprocesses: import "
    "cost, schema validation and trace snapshots, almost no queue work",
}

# Functions the traced run wraps: (module, attribute path, metric prefix).
# A metric prefix's first component names the layer.
TRACED = (
    ("prefixpq.ptrie", "PTrie.insert", "ptrie.insert"),
    ("prefixpq.ptrie", "PTrie.delete_min", "ptrie.delete_min"),
    ("prefixpq.ptrie", "PTrie.remove", "ptrie.remove"),
    ("prefixpq.ptrie", "PTrie.search", "ptrie.search"),
    ("prefixpq.ptrie", "PTrie.minimum", "ptrie.minimum"),
    ("prefixpq.ptrie", "PTrie.maximum", "ptrie.maximum"),
    ("prefixpq.keycodec", "SignedPTrie.insert", "keycodec.SignedPTrie.insert"),
    ("prefixpq.keycodec", "SignedPTrie.delete_min", "keycodec.SignedPTrie.delete_min"),
    ("prefixpq.keycodec", "SignedPTrie.minimum", "keycodec.SignedPTrie.minimum"),
    ("prefixpq.graphs", "parse_graph", "graphs.parse_graph"),
    ("prefixpq.graphs", "Graph.arcs_from", "graphs.Graph.arcs_from"),
    ("prefixpq.paths", "sssp", "paths.sssp"),
    ("prefixpq.paths", "sssp_trace", "paths.sssp_trace"),
    ("prefixpq.mst", "mst_prim", "mst.mst_prim"),
    ("prefixpq.schemas", "validate_payload", "schemas.validate_payload"),
    ("prefixpq.schemas", "dump_payload", "schemas.dump_payload"),
    ("prefixpq.schemas", "path_tree_to_dict", "schemas.path_tree_to_dict"),
    ("prefixpq.cli", "main", "cli.main"),
    ("prefixpq.analysis", "count_layers_per_level", "analysis.count_layers_per_level"),
)

# Spans the traced run reports per function; the traversal in analysis is
# reported by self time only.
_SPAN_FIELDS = {"calls": ("count", "higher"), "self_s": ("s", "lower"),
                "ns_p50": ("ns", "lower")}


def _per_layer() -> dict[str, tuple[str, str]]:
    out: dict[str, tuple[str, str]] = {}
    for _, _, prefix in TRACED:
        fields = ("self_s",) if prefix.startswith("analysis.") else _SPAN_FIELDS
        for f in fields:
            out[f"{prefix}.{f}"] = _SPAN_FIELDS[f]
    out.update({
        "ptrie.insert.dup_ratio": ("ratio", "higher"),
        "ptrie.remove.miss_ratio": ("ratio", "lower"),
        "ptrie.search.hit_ratio": ("ratio", "higher"),
        "ptrie.self_share": ("ratio", "lower"),
        "ptrie.bytes_per_key": ("B", "lower"),
        "ptrie.steps.mean": ("steps", "lower"),
        "ptrie.steps.max": ("steps", "lower"),
        "ptrie.layers_live": ("count", "lower"),
        "paths.sssp.reject_ratio": ("ratio", "lower"),
        "paths.trace.snapshot_entries": ("count", "lower"),
        "mst.reject_ratio": ("ratio", "lower"),
        "ops_per_s": ("1/s", "higher"),
        "op_us.p50": ("us", "lower"),
        "op_us.p99": ("us", "lower"),
        "op_us.samples": ("count", "higher"),
        "load_s": ("s", "lower"),
        "sssp_s": ("s", "lower"),
        "mst_s": ("s", "lower"),
        "cli_mst_s": ("s", "lower"),
        "cli_sssp_json_s": ("s", "lower"),
        "cli_trace_s": ("s", "lower"),
        "import.prefixpq_cli_s": ("s", "lower"),
        "import.numpy_s": ("s", "lower"),
        "import.jsonschema_s": ("s", "lower"),
        "gc.pause_s": ("s", "lower"),
        "gc.collections.gen0": ("count", "lower"),
        "gc.collections.gen1": ("count", "lower"),
        "gc.collections.gen2": ("count", "lower"),
        "ref.heapq_ops_per_s": ("1/s", "higher"),
        "ref.dijkstra_heap_s": ("s", "lower"),
        "ref.kruskal_s": ("s", "lower"),
        "ref.python_start_s": ("s", "lower"),
        "ptrie.vs_heapq": ("ratio", "lower"),
        "sssp.vs_heap": ("ratio", "lower"),
        "trace.untraced_s": ("s", "lower"),
        "trace.traced_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "failed_frac": ("ratio", "lower"),
    })
    return out


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
