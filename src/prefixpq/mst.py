"""Minimum spanning tree by Prim's method on the trie queue.

Arcs are queued keyed by their raw weight.  Extraction accepts an arc only
when its head is still outside the tree (lazy deletion of the rest), then
queues each out-arc of the freshly attached vertex whose head is outside
the tree; an arc into the tree could only be rejected.  On an undirected
graph, stored as symmetric arc pairs, the accepted arcs form a minimum
spanning tree of the root's component; equal-weight choices follow queue
FIFO order, so the result is deterministic for a given adjacency order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Arc, Graph, GraphError
from .ptrie import PTrie, PTrieConfig


@dataclass(frozen=True)
class MstResult:
    """Accepted arcs in acceptance order, their weight sum, and the span."""

    root: str
    edges: tuple[Arc, ...]
    total_weight: int
    spanned: frozenset[str]
    spans_all: bool


def mst_prim(g: Graph, root: str, config: PTrieConfig | None = None) -> MstResult:
    """Grow a spanning tree from ``root``; spans the root's component."""
    if root not in g:
        raise GraphError(f"unknown vertex {root!r}")
    queue = PTrie(config)
    in_tree = {root}
    edges: list[Arc] = []
    total = 0
    insert = queue.insert
    delete_min = queue.delete_min
    try:
        for out in g.arcs_from(root):
            if out.head not in in_tree:
                insert(out.weight, out)
        while queue.count:
            weight, arc = delete_min()
            head = arc.head
            if head in in_tree:
                continue
            in_tree.add(head)
            edges.append(arc)
            total += weight
            for out in g.arcs_from(head):
                if out.head not in in_tree:
                    insert(out.weight, out)
    except ValueError:
        # only an insert raises: the graph's key width is wider than the
        # queue's, and this arc's weight does not fit the queue
        m = queue.config.word_bits
        raise GraphError(
            f"arc weight {out.weight} exceeds the {m}-bit key range (--m {m})"
        ) from None
    return MstResult(
        root=root,
        edges=tuple(edges),
        total_weight=total,
        spanned=frozenset(in_tree),
        spans_all=len(in_tree) == g.vertex_count,
    )
