"""Stable prefix-tree priority queue with graph algorithms built on it.

Public surface:

* ``PTrie`` / ``PTrieConfig`` -- the queue over fixed-width unsigned keys.
* ``SignedPTrie`` -- signed integer keys on one biased trie.
* ``Graph`` and the ``.g`` file format -- weighted digraphs with stable
  adjacency order.
* ``mst_prim``, ``sssp``, ``sdsp``, ``sssp_trace``, ``walk`` -- the
  algorithms the queue was built to serve.
* ``analysis`` -- closed-form occupancy model plus Monte Carlo checks.
* ``oracles`` -- slow independent references used for verification.
"""

from .analysis import (
    expected_layers_at_level,
    monte_carlo_layer_counts,
    occupancy_distribution,
    prob_exact_occupancy,
)
from .graphs import (
    Arc,
    Graph,
    GraphError,
    GraphParseError,
    load_graph,
    parse_graph,
    save_graph,
    serialize_graph,
)
from .keycodec import SignedPTrie
from .mst import MstResult, mst_prim
from .paths import (
    PathTree,
    TraceEvent,
    format_trace_event,
    format_walk,
    sdsp,
    sssp,
    sssp_trace,
    walk,
)
from .ptrie import (
    ABSENT,
    LeafNode,
    Layer,
    OpStats,
    PTrie,
    PTrieConfig,
    ValidationReport,
)

__version__ = "0.1.0"

__all__ = [
    "ABSENT",
    "Arc",
    "Graph",
    "GraphError",
    "GraphParseError",
    "Layer",
    "LeafNode",
    "MstResult",
    "OpStats",
    "PTrie",
    "PTrieConfig",
    "PathTree",
    "SignedPTrie",
    "TraceEvent",
    "ValidationReport",
    "expected_layers_at_level",
    "format_trace_event",
    "format_walk",
    "load_graph",
    "monte_carlo_layer_counts",
    "mst_prim",
    "occupancy_distribution",
    "parse_graph",
    "prob_exact_occupancy",
    "save_graph",
    "sdsp",
    "serialize_graph",
    "sssp",
    "sssp_trace",
    "walk",
]
