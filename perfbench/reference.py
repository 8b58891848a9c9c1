"""Reference solvers on the standard library only, timed beside the package.

On a shared virtual machine the speed can swing by up to 2x over a few
seconds, so a time taken alone varies from run to run by far more than the
changes the benchmark must detect.  Each workload therefore times every package call next to a
reference doing the same job, within a fraction of a second of it, and
reports the ratio of the two times; the swing cancels in the ratio.  The
references live here, outside the package, so no change to the package can
move them.

The heaps here sift in Python bytecode rather than in the C ``heapq``:
interpreted code slows down differently from C code when the machine gets
busy, and the package is interpreted, so an interpreted reference keeps the
ratio steadier.  A graph is held as one ``array`` of (head, weight) pairs
per vertex.
"""

from __future__ import annotations

import json
import sys
from array import array
from typing import Any


def heappush(heap: list, item: Any) -> None:
    """Push ``item`` onto the binary min-heap ``heap``."""
    heap.append(item)
    pos = len(heap) - 1
    while pos:
        parent = (pos - 1) >> 1
        if item < heap[parent]:
            heap[pos] = heap[parent]
            pos = parent
        else:
            break
    heap[pos] = item


def heappop(heap: list) -> Any:
    """Pop the smallest item of the non-empty binary min-heap ``heap``."""
    last = heap.pop()
    if not heap:
        return last
    top = heap[0]
    n = len(heap)
    pos = 0
    child = 1
    while child < n:
        if child + 1 < n and heap[child + 1] < heap[child]:
            child += 1
        if heap[child] < last:
            heap[pos] = heap[child]
            pos = child
            child = 2 * pos + 1
        else:
            break
    heap[pos] = last
    return top


def parse(text: str) -> tuple[list[str], list[array]]:
    """Vertex labels and adjacency of ``v``/``e`` graph text."""
    labels: list[str] = []
    index: dict[str, int] = {}
    adj: list[array] = []
    for line in text.splitlines():
        f = line.split()
        if not f or f[0].startswith("#"):
            continue
        if f[0] == "v":
            index[f[1]] = len(labels)
            labels.append(f[1])
            adj.append(array("q"))
        else:
            u, v, w = index[f[1]], index[f[2]], int(f[3])
            adj[u].extend((v, w))
            if f[0] == "e":
                adj[v].extend((u, w))
    return labels, adj


def dijkstra(adj: list[array], source: int) -> list[int]:
    """Lazy-deletion heap Dijkstra; -1 marks an unreached vertex."""
    dist = [-1] * len(adj)
    heap = [(0, 0, source)]
    seq = 1
    while heap:
        d, _, v = heappop(heap)
        if dist[v] >= 0:
            continue
        dist[v] = d
        a = adj[v]
        for i in range(0, len(a), 2):
            if dist[a[i]] < 0:
                heappush(heap, (d + a[i + 1], seq, a[i]))
                seq += 1
    return dist


def prim(adj: list[array], root: int) -> int:
    """Weight of a minimum spanning tree of ``root``'s component."""
    in_tree = bytearray(len(adj))
    heap = [(0, 0, root)]
    seq = 1
    total = 0
    while heap:
        w, _, v = heappop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = 1
        total += w
        a = adj[v]
        for i in range(0, len(a), 2):
            if not in_tree[a[i]]:
                heappush(heap, (a[i + 1], seq, a[i]))
                seq += 1
    return total


def trace_lines(adj: list[array], labels: list[str], source: int) -> list[str]:
    """One line per extraction, each after a copy of the whole queue."""
    settled = bytearray(len(adj))
    settled[source] = 1
    heap: list[tuple[int, int, int, int]] = []
    seq = 0
    a = adj[source]
    for i in range(0, len(a), 2):
        heap.append((a[i + 1], seq, source, a[i]))
        seq += 1
    heap.sort()
    lines = []
    step = 0
    while heap:
        snapshot = tuple(e for e in heap)
        d, _, tail, head = heappop(heap)
        step += 1
        fate = "reject" if settled[head] else "accept"
        lines.append(f"step={step} extract={labels[tail]}->{labels[head]} "
                     f"w={d} {fate} queued={len(snapshot)}")
        if settled[head]:
            continue
        settled[head] = 1
        a = adj[head]
        for i in range(0, len(a), 2):
            heappush(heap, (d + a[i + 1], seq, head, a[i]))
            seq += 1
    return lines


def main(argv: list[str]) -> int:
    """Cold-process counterpart of one CLI command: ``MODE FILE REPEAT``.

    It imports the package's third-party dependencies as of when this
    benchmark was written, so its start-up costs what the command's did
    then, and does the job ``REPEAT`` times; the output is written once.
    """
    try:
        import jsonschema  # noqa: F401
        import numpy  # noqa: F401
    except ImportError:
        pass
    mode, path, repeat = argv[0], argv[1], int(argv[2])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for _ in range(repeat):
        labels, adj = parse(text)
        if mode == "mst":
            out = f"total {prim(adj, 0)}\n"
        elif mode == "sssp":
            dist = dijkstra(adj, 0)
            out = json.dumps({"source": labels[0], "vertices": {
                labels[v]: {"reachable": d >= 0, "dist": d if d >= 0 else None}
                for v, d in enumerate(dist)}}, indent=2, sort_keys=True) + "\n"
        else:
            out = "\n".join(trace_lines(adj, labels, 0)) + "\n"
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
