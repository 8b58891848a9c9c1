"""Independent reference implementations used to cross-check the package.

Everything here is deliberately built on different machinery than the
modules it audits: the stable queue is a sorted list managed with bisect,
shortest paths use a binary heap, the spanning tree oracle is Kruskal on
union-find, and the path oracle enumerates simple paths outright.  None of
them import the trie.  They are slow and obviously correct, which is the
point: a disagreement indicts the fast path.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Iterable

from .graphs import Graph


class _AbsentMark:
    __slots__ = ()

    def __repr__(self) -> str:
        return "ORACLE_ABSENT"


ORACLE_ABSENT = _AbsentMark()


class StableListPQ:
    """Sorted-list priority queue, FIFO at equal keys.

    Items live in one list of ``(key, seq, payload)`` triples kept sorted
    by ``(key, seq)`` with a monotone ``seq`` counter, so equal keys order
    by arrival.  Every operation is a bisect plus a list edit.
    """

    __slots__ = ("_items", "_seq")

    def __init__(self) -> None:
        self._items: list[tuple[int, int, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._items)

    def insert(self, key: int, payload: Any = None) -> None:
        insort(self._items, (key, self._seq, payload))
        self._seq += 1

    def minimum(self) -> tuple[int, Any] | None:
        if not self._items:
            return None
        key, _, payload = self._items[0]
        return (key, payload)

    def maximum(self) -> tuple[int, Any] | None:
        """Largest key with its oldest payload (FIFO front, like minimum)."""
        if not self._items:
            return None
        top = self._items[-1][0]
        i = bisect_left(self._items, (top, -1, None))
        return (top, self._items[i][2])

    def delete_min(self) -> tuple[int, Any] | None:
        if not self._items:
            return None
        key, _, payload = self._items.pop(0)
        return (key, payload)

    def remove(self, key: int) -> Any:
        """Oldest payload stored under ``key``, or the absent mark."""
        i = bisect_left(self._items, (key, -1, None))
        if i == len(self._items) or self._items[i][0] != key:
            return ORACLE_ABSENT
        return self._items.pop(i)[2]

    def search(self, key: int) -> bool:
        i = bisect_left(self._items, (key, -1, None))
        return i < len(self._items) and self._items[i][0] == key

    def drain(self) -> list[tuple[int, Any]]:
        out = [(k, p) for k, _, p in self._items]
        self._items.clear()
        return out


def dijkstra_heap(g: Graph, source: str) -> dict[str, int]:
    """Textbook heap Dijkstra; returns distances for reached vertices."""
    dist: dict[str, int] = {}
    heap: list[tuple[int, int, str]] = [(0, 0, source)]
    seq = 1
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for arc in g.arcs_from(v):
            if arc.head not in dist:
                heapq.heappush(heap, (d + arc.weight, seq, arc.head))
                seq += 1
    return dist


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, items: Iterable[str]) -> None:
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in self.parent}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def kruskal(g: Graph) -> int:
    """Minimum spanning forest weight, treating each arc as undirected.

    Symmetric arc pairs are harmless: the second copy of an edge closes a
    cycle and is skipped, so graphs built from undirected edges weigh the
    same as their one-copy-per-edge equivalents.
    """
    edges = sorted((a.weight, a.tail, a.head) for a in g.arcs())
    uf = _UnionFind(g.vertices())
    total = 0
    for w, u, v in edges:
        if uf.union(u, v):
            total += w
    return total


def kruskal_component_weight(g: Graph, root: str) -> int:
    """Spanning-forest weight restricted to ``root``'s component."""
    edges = sorted((a.weight, a.tail, a.head) for a in g.arcs())
    uf = _UnionFind(g.vertices())
    picked: list[tuple[str, str, int]] = []
    for w, u, v in edges:
        if uf.union(u, v):
            picked.append((u, v, w))
    anchor = uf.find(root)
    return sum(w for u, v, w in picked if uf.find(u) == anchor)


def brute_force_best_path(
    g: Graph, source: str, target: str, max_vertices: int = 12
) -> tuple[int, int] | None:
    """Cheapest simple path by exhaustive enumeration.

    Returns ``(weight, hops)`` minimizing weight first, hop count second,
    or None when no path exists.  Nonnegative weights guarantee some
    cheapest path is simple, so the enumeration is exhaustive for the
    metric.  Guarded to tiny graphs; the search is exponential.
    """
    if g.vertex_count > max_vertices:
        raise ValueError(
            f"brute force limited to {max_vertices} vertices, "
            f"graph has {g.vertex_count}"
        )
    if source not in g or target not in g:
        return None
    best: tuple[int, int] | None = None
    on_path = {source}

    def explore(v: str, weight: int, hops: int) -> None:
        nonlocal best
        if v == target:
            cand = (weight, hops)
            if best is None or cand < best:
                best = cand
            # a prefix of a simple path could still re-reach the target
            # only with extra weight/hops, so stop here
            return
        for arc in g.arcs_from(v):
            if arc.head in on_path:
                continue
            if best is not None and weight + arc.weight > best[0]:
                continue
            on_path.add(arc.head)
            explore(arc.head, weight + arc.weight, hops + 1)
            on_path.discard(arc.head)

    if source == target:
        return (0, 0)
    explore(source, 0, 0)
    return best


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of a differential run: clean, or the first divergence."""

    matched: bool
    checked_ops: int
    first_divergence: str = ""

    def __bool__(self) -> bool:
        return self.matched
