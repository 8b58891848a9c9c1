"""JSON forms of the result types, plus the schemas that pin them down.

Every CLI ``--json`` payload is produced by a converter here and must
validate against the matching schema; the test suite checks that, the CLI
does not.  Converters are deterministic: no timestamps, no wall-clock
readings, no unordered container iteration, so equal inputs yield equal
bytes once serialized with sorted keys.
"""

from __future__ import annotations

import json
from typing import Any

from .analysis import LayerCountObservation
from .graphs import Graph
from .mst import MstResult
from .paths import PathTree, TraceEvent

_ARC_TRIPLE = {
    "type": "array",
    "prefixItems": [
        {"type": "string"},
        {"type": "string"},
        {"type": "integer", "minimum": 0},
    ],
    "minItems": 3,
    "maxItems": 3,
}

MST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "mst-result",
    "type": "object",
    "required": ["root", "total_weight", "edges", "spanned", "spans_all"],
    "additionalProperties": False,
    "properties": {
        "root": {"type": "string"},
        "total_weight": {"type": "integer", "minimum": 0},
        "edges": {"type": "array", "items": _ARC_TRIPLE},
        "spanned": {"type": "array", "items": {"type": "string"}},
        "spans_all": {"type": "boolean"},
    },
}

_BACK_ARC = {
    "oneOf": [
        {"type": "null"},
        {
            "type": "object",
            "required": ["parent", "weight"],
            "additionalProperties": False,
            "properties": {
                "parent": {"type": "string"},
                "weight": {"type": "integer", "minimum": 0},
            },
        },
    ]
}

PATH_TREE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "path-tree",
    "type": "object",
    "required": ["source", "vertices"],
    "additionalProperties": False,
    "properties": {
        "source": {"type": "string"},
        "vertices": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["reachable", "dist", "hops", "back"],
                "additionalProperties": False,
                "properties": {
                    "reachable": {"type": "boolean"},
                    "dist": {"type": ["integer", "null"], "minimum": 0},
                    "hops": {"type": ["integer", "null"], "minimum": 0},
                    "back": _BACK_ARC,
                },
            },
        },
    },
}

_QUEUE_ENTRY = {
    "type": "object",
    "required": ["tail", "head", "weight", "pathWeight"],
    "additionalProperties": False,
    "properties": {
        "tail": {"type": "string"},
        "head": {"type": "string"},
        "weight": {"type": "integer", "minimum": 0},
        "pathWeight": {"type": "integer", "minimum": 0},
    },
}

TRACE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "sssp-trace",
    "type": "object",
    "required": ["source", "events"],
    "additionalProperties": False,
    "properties": {
        "source": {"type": "string"},
        "events": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "step",
                    "tail",
                    "head",
                    "pathWeight",
                    "rejected",
                    "queue",
                ],
                "additionalProperties": False,
                "properties": {
                    "step": {"type": "integer", "minimum": 1},
                    "tail": {"type": "string"},
                    "head": {"type": "string"},
                    "pathWeight": {"type": "integer", "minimum": 0},
                    "rejected": {"type": "boolean"},
                    "queue": {"type": "array", "items": _QUEUE_ENTRY},
                },
            },
        },
    },
}

_PQ_REPORT = {
    "type": "object",
    "required": [
        "queue",
        "n",
        "word_bits",
        "stride_bits",
        "seed",
        "inserts",
        "extractions",
        "max_insert_steps",
        "max_extract_steps",
        "mean_steps",
        "max_layers_visited",
        "drain_checksum",
    ],
    "additionalProperties": False,
    "properties": {
        "queue": {"type": "string"},
        "n": {"type": "integer", "minimum": 0},
        "word_bits": {"type": "integer", "minimum": 1},
        "stride_bits": {"type": "integer", "minimum": 1, "maximum": 8},
        "seed": {"type": "integer"},
        "inserts": {"type": "integer", "minimum": 0},
        "extractions": {"type": "integer", "minimum": 0},
        "max_insert_steps": {"type": "integer", "minimum": 0},
        "max_extract_steps": {"type": "integer", "minimum": 0},
        "mean_steps": {"type": "number", "minimum": 0},
        "max_layers_visited": {"type": "integer", "minimum": 0},
        "drain_checksum": {"type": "integer", "minimum": 0},
    },
}

BENCH_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "bench-report",
    "oneOf": [
        _PQ_REPORT,
        {
            "type": "object",
            "required": ["sizes", "mean_steps", "flatness_ratio", "reports"],
            "additionalProperties": False,
            "properties": {
                "sizes": {"type": "array", "items": {"type": "integer"}},
                "mean_steps": {"type": "array", "items": {"type": "number"}},
                "flatness_ratio": {"type": "number"},
                "reports": {"type": "array", "items": _PQ_REPORT},
            },
        },
        {
            "type": "object",
            "required": [
                "queue",
                "n_vertices",
                "n_arcs",
                "seed",
                "reached",
                "dist_checksum",
                "agrees_with_heap",
            ],
            "additionalProperties": False,
            "properties": {
                "queue": {"type": "string"},
                "n_vertices": {"type": "integer", "minimum": 0},
                "n_arcs": {"type": "integer", "minimum": 0},
                "seed": {"type": "integer"},
                "reached": {"type": "integer", "minimum": 0},
                "dist_checksum": {"type": "integer", "minimum": 0},
                "agrees_with_heap": {"type": "boolean"},
            },
        },
    ],
}

ANALYZE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "occupancy-analysis",
    "type": "object",
    "required": [
        "n",
        "degree",
        "trials",
        "levels",
        "expected_total",
        "observed_total_mean",
        "prob_mass_check",
    ],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 0},
        "degree": {"type": "integer", "minimum": 2},
        "trials": {"type": "integer", "minimum": 1},
        "levels": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["level", "expected", "observed_mean", "std_bound"],
                "additionalProperties": False,
                "properties": {
                    "level": {"type": "integer", "minimum": 0},
                    "expected": {"type": "number"},
                    "observed_mean": {"type": "number"},
                    "std_bound": {"type": "number"},
                },
            },
        },
        "expected_total": {"type": "number"},
        "observed_total_mean": {"type": "number"},
        "prob_mass_check": {"type": "number"},
    },
}

SCHEMAS = {
    "mst": MST_SCHEMA,
    "path-tree": PATH_TREE_SCHEMA,
    "trace": TRACE_SCHEMA,
    "bench": BENCH_SCHEMA,
    "analyze": ANALYZE_SCHEMA,
}


def validate_payload(kind: str, payload: dict[str, Any]) -> None:
    """Raise jsonschema.ValidationError unless ``payload`` fits ``kind``."""
    # jsonschema is a test dependency: only the test suite calls this
    import jsonschema

    jsonschema.validate(payload, SCHEMAS[kind])


def dump_payload(payload: dict[str, Any]) -> str:
    """Canonical serialization used by every ``--json`` code path."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def mst_to_dict(result: MstResult) -> dict[str, Any]:
    return {
        "root": result.root,
        "total_weight": result.total_weight,
        "edges": [[t, h, w] for t, h, w in result.edges],
        "spanned": sorted(result.spanned),
        "spans_all": result.spans_all,
    }


def path_tree_to_dict(tree: PathTree, g: Graph) -> dict[str, Any]:
    vertices: dict[str, Any] = {}
    for label in g.vertices():
        if label in tree.dist:
            ba = tree.back[label]
            vertices[label] = {
                "reachable": True,
                "dist": tree.dist[label],
                "hops": tree.hops[label],
                "back": None if ba is None else {"parent": ba[0], "weight": ba[1]},
            }
        else:
            vertices[label] = {
                "reachable": False,
                "dist": None,
                "hops": None,
                "back": None,
            }
    return {"source": tree.source, "vertices": vertices}


def trace_to_dict(source: str, events: list[TraceEvent]) -> dict[str, Any]:
    out = []
    for ev in events:
        pw, arc = ev.entry
        out.append({
            "step": ev.step,
            "tail": arc.tail,
            "head": arc.head,
            "pathWeight": pw,
            "rejected": ev.rejected,
            "queue": [
                {
                    "tail": qa.tail,
                    "head": qa.head,
                    "weight": qa.weight,
                    "pathWeight": qpw,
                }
                for qpw, qa in ev.queue
            ],
        })
    return {"source": source, "events": out}


def analysis_to_dict(
    obs: LayerCountObservation, prob_mass_check: float
) -> dict[str, Any]:
    return {
        "n": obs.n_keys,
        "degree": obs.degree,
        "trials": obs.trials,
        "levels": [
            {
                "level": lvl,
                "expected": round(obs.expected[lvl], 9),
                "observed_mean": round(obs.observed_mean[lvl], 9),
                "std_bound": round(obs.std_bound[lvl], 9),
            }
            for lvl in range(len(obs.expected))
        ],
        "expected_total": round(obs.expected_total, 9),
        "observed_total_mean": round(obs.observed_total_mean, 9),
        "prob_mass_check": prob_mass_check,
    }
