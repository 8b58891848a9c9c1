"""Single-source and single-destination shortest paths on the trie queue.

The solver is Dijkstra with lazy deletion and no DecreaseKey: settling a
vertex queues each of its out-arcs whose head is not yet settled, keyed by
the path weight it would realize, and an entry whose head was settled
meanwhile is rejected at extraction time.  An arc into an already settled
vertex is never queued, since it could only be rejected.  The queue's FIFO
behavior at equal keys makes the whole run deterministic given the graph's
adjacency order: among equal path weights, the entry inserted first is
served first, so tie-breaking needs no extra bookkeeping.

The run starts by seeding the source's out-arcs, with the source itself
settled at distance 0.  Settling an entry records its arc as the back edge:
``back[head] = (tail, arc weight)``, so the back chain retraces one
minimum-weight path to the source in reverse.  ``sdsp`` answers "everyone to
one destination" by running the same solver on the reversed graph.

``sssp_trace`` runs its own loop, which queues every out-arc of a settled
vertex (settled heads included) as a ``(path weight, arc)`` pair and logs
one event per extraction, each with the queue's full pre-extraction content
in drain order.  That makes the scheduling of every accept and reject
reproducible and inspectable; its tree equals the one ``sssp`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Arc, Graph, GraphError
from .ptrie import PTrie, PTrieConfig


@dataclass
class PathTree:
    """Shortest-path tree out of (or into) one vertex.

    ``back`` maps each settled vertex to its tree arc as ``(parent, arc
    weight)``; the source maps to None.  Unreached vertices are absent
    from all three maps.
    """

    source: str
    dist: dict[str, int] = field(default_factory=dict)
    hops: dict[str, int] = field(default_factory=dict)
    back: dict[str, tuple[str, int] | None] = field(default_factory=dict)

    def is_reachable(self, v: str) -> bool:
        return v in self.dist

    def distance(self, v: str) -> int | None:
        return self.dist.get(v)


@dataclass(frozen=True)
class TraceEvent:
    """One extraction: the served entry, its fate, and the queue before it.

    Each entry is the ``(path weight, arc)`` pair that was queued.
    ``queue`` lists every entry in drain order at the moment of service;
    the served entry is its first element.  ``step`` is 1-based.
    """

    step: int
    entry: tuple[int, Arc]
    rejected: bool
    queue: tuple[tuple[int, Arc], ...]


def _start(
    g: Graph, source: str, config: PTrieConfig | None
) -> tuple[PTrie, PathTree]:
    """An empty queue and a tree holding only the settled source."""
    if source not in g:
        raise GraphError(f"unknown vertex {source!r}")
    tree = PathTree(source=source)
    tree.dist[source] = 0
    tree.hops[source] = 0
    tree.back[source] = None
    return PTrie(config), tree


def _key_overflow(queue: PTrie, path_weight: int) -> GraphError:
    # only an insert raises ValueError inside the solver loops: its path sum
    # outgrew the key width, which no single arc weight check can rule out,
    # or a source arc's weight is wider than a narrower queue config
    m = queue.config.word_bits
    return GraphError(
        f"path weight {path_weight} exceeds the {m}-bit key range (--m {m})"
    )


def sssp(g: Graph, source: str, config: PTrieConfig | None = None) -> PathTree:
    """Shortest paths from ``source`` to every reachable vertex."""
    queue, tree = _start(g, source, config)
    back = tree.back
    dist = tree.dist
    hops = tree.hops
    insert = queue.insert
    delete_min = queue.delete_min
    try:
        for arc in g.arcs_from(source):
            if arc.head not in back:
                pw = arc.weight
                insert(pw, arc)
        while queue.count:
            base, arc = delete_min()
            head = arc.head
            if head in back:
                continue
            back[head] = (arc.tail, arc.weight)
            dist[head] = base
            hops[head] = hops[arc.tail] + 1
            for out in g.arcs_from(head):
                if out.head not in back:
                    pw = base + out.weight
                    insert(pw, out)
    except ValueError:
        raise _key_overflow(queue, pw) from None
    return tree


def sssp_trace(
    g: Graph, source: str, config: PTrieConfig | None = None
) -> tuple[PathTree, list[TraceEvent]]:
    """Like ``sssp`` but also return the full extraction log."""
    queue, tree = _start(g, source, config)
    back = tree.back
    dist = tree.dist
    hops = tree.hops
    events: list[TraceEvent] = []
    try:
        for arc in g.arcs_from(source):
            pw = arc.weight
            queue.insert(pw, (pw, arc))
        while queue.count:
            # the queued pairs themselves: tuple(queue) would build a fresh
            # pair per entry per step for the collector to walk
            snapshot = tuple(entry for _, entry in queue)
            _, entry = queue.delete_min()
            base, arc = entry
            head = arc.head
            rejected = head in back
            if not rejected:
                back[head] = (arc.tail, arc.weight)
                dist[head] = base
                hops[head] = hops[arc.tail] + 1
                for out in g.arcs_from(head):
                    pw = base + out.weight
                    queue.insert(pw, (pw, out))
            events.append(TraceEvent(len(events) + 1, entry, rejected, snapshot))
    except ValueError:
        raise _key_overflow(queue, pw) from None
    return tree, events


def sdsp(g: Graph, dest: str, config: PTrieConfig | None = None) -> PathTree:
    """Shortest paths from every vertex into ``dest``.

    Runs ``sssp`` on the reversed graph, so ``dist[v]`` is the
    weight of a lightest v-to-dest path and the back chain from ``v``
    walks that path's vertices toward ``dest`` (arcs reversed).
    """
    return sssp(g.reverse(), dest, config)


def walk(tree: PathTree, v: str) -> list[tuple[str, int | None]] | None:
    """Back-chain from ``v`` to the tree's source.

    Returns ``[(v, w0), (p1, w1), ..., (source, None)]`` where each weight
    is the arc weight linking that vertex to the next in the list, or None
    when ``v`` was never reached.
    """
    if v not in tree.back:
        return None
    steps: list[tuple[str, int | None]] = []
    cur = v
    while True:
        ba = tree.back[cur]
        if ba is None:
            steps.append((cur, None))
            return steps
        steps.append((cur, ba[1]))
        cur = ba[0]


def format_walk(steps: list[tuple[str, int | None]]) -> str:
    """Render a walk as ``[E]--(0)->[G]--(1)->[F]`` style text."""
    parts: list[str] = []
    for label, weight in steps:
        parts.append(f"[{label}]")
        if weight is not None:
            parts.append(f"--({weight})->")
    return "".join(parts)


def format_trace_event(ev: TraceEvent, verbose: bool = False) -> str:
    """One log line per extraction, plus the queue snapshot when verbose."""
    fate = "reject" if ev.rejected else "accept"
    pw, arc = ev.entry
    line = f"step={ev.step} extract={arc.tail}->{arc.head} w={pw} {fate}"
    if not verbose:
        return line
    body = [line]
    for pw, arc in ev.queue:
        body.append(f"    queued w={pw} {arc.tail}->{arc.head}")
    return "\n".join(body)
