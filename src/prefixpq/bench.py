"""Operation-count benchmarks for the queue and its Dijkstra consumer.

The interesting metric is not wall-clock time but the instrumented step
count per operation: layers visited plus the charged ordered-set work (see
``OpStats``).  The step bound is a constant fixed by the configuration, so
the headline check is flatness -- mean steps per operation must stay in a
narrow band while the workload size sweeps orders of magnitude.

Reports are plain dataclasses whose ``to_dict`` output is fully determined
by the workload parameters and seed.  Wall-clock throughput is measured
too, but kept out of the deterministic dictionary so identical runs emit
identical report bytes; text renderers may show it as an aside.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from typing import Any

from .graphs import Graph
from .oracles import StableListPQ, dijkstra_heap
from .paths import sssp
from .ptrie import PTrie, PTrieConfig


@dataclass(frozen=True)
class PqBenchReport:
    """Insert-all / drain-all workload summary for one queue kind."""

    queue: str
    n: int
    word_bits: int
    stride_bits: int
    seed: int
    inserts: int
    extractions: int
    max_insert_steps: int
    max_extract_steps: int
    mean_steps: float
    max_layers_visited: int
    drain_checksum: int
    elapsed_s: float

    def to_dict(self) -> dict[str, Any]:
        d = _deterministic_fields(self)
        d["mean_steps"] = round(self.mean_steps, 6)
        return d


def _deterministic_fields(report: Any) -> dict[str, Any]:
    """The report's fields minus ``elapsed_s``: equal runs, equal bytes."""
    d = asdict(report)
    del d["elapsed_s"]
    return d


def _require(name: str, value: int, least: int = 0) -> None:
    """Reject a size or seed below ``least`` with a ValueError naming it."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _seeded(seed: int) -> random.Random:
    # random.Random seeds with abs(seed); rejecting negatives keeps every
    # seed its own stream
    _require("seed", seed)
    return random.Random(seed)


def _random_keys(n: int, word_bits: int, seed: int) -> list[int]:
    rng = _seeded(seed)
    return [rng.getrandbits(word_bits) for _ in range(n)]


_CHECKSUM_MOD = (1 << 61) - 1


def _fold(checksum: int, value: int) -> int:
    """Fold one value into an order-sensitive checksum."""
    return (checksum * 1315423911 + value + 1) % _CHECKSUM_MOD


def run_pq_workload(
    n: int,
    queue: str = "ptrie",
    word_bits: int = 32,
    stride_bits: int = 4,
    seed: int = 0,
) -> PqBenchReport:
    """Insert ``n`` uniform random keys, then drain to empty.

    ``queue`` selects "ptrie" or the sorted-list reference ("oracle");
    the reference reports zero step counts since it has no layer model.
    The drain checksum folds every extracted key in order, so two queue
    kinds agree on it exactly when their drain orders agree on keys.
    """
    _require("n", n)
    keys = _random_keys(n, word_bits, seed)
    checksum = 0
    extracted = 0
    total_steps = 0
    max_ins = 0
    max_ext = 0
    max_layers = 0
    t0 = time.perf_counter()
    if queue == "ptrie":
        trie = PTrie(PTrieConfig(word_bits, stride_bits))
        st = trie.last_op_stats
        k = stride_bits
        for key in keys:
            trie.insert(key)
            steps = st.layers_visited + k * st.index_ops
            total_steps += steps
            if steps > max_ins:
                max_ins = steps
            if st.layers_visited > max_layers:
                max_layers = st.layers_visited
        while trie.count:
            key, _ = trie.delete_min()
            steps = st.layers_visited + k * st.index_ops
            total_steps += steps
            if steps > max_ext:
                max_ext = steps
            if st.layers_visited > max_layers:
                max_layers = st.layers_visited
            checksum = _fold(checksum, key)
            extracted += 1
    elif queue == "oracle":
        pq = StableListPQ()
        for key in keys:
            pq.insert(key)
        while len(pq):
            key, _ = pq.delete_min()
            checksum = _fold(checksum, key)
            extracted += 1
    else:
        raise ValueError(f"unknown queue kind {queue!r}")
    elapsed = time.perf_counter() - t0
    return PqBenchReport(
        queue=queue,
        n=n,
        word_bits=word_bits,
        stride_bits=stride_bits,
        seed=seed,
        inserts=n,
        extractions=extracted,
        max_insert_steps=max_ins,
        max_extract_steps=max_ext,
        mean_steps=total_steps / max(1, n + extracted),
        max_layers_visited=max_layers,
        drain_checksum=checksum,
        elapsed_s=elapsed,
    )


@dataclass(frozen=True)
class ScalingReport:
    """Flatness of mean steps per op across workload sizes."""

    sizes: tuple[int, ...]
    reports: tuple[PqBenchReport, ...]

    @property
    def mean_steps(self) -> tuple[float, ...]:
        return tuple(r.mean_steps for r in self.reports)

    @property
    def flatness_ratio(self) -> float:
        """max mean / min mean across the size sweep."""
        means = self.mean_steps
        return max(means) / min(means)

    def to_dict(self) -> dict[str, Any]:
        return {
            "sizes": list(self.sizes),
            "mean_steps": [round(m, 6) for m in self.mean_steps],
            "flatness_ratio": round(self.flatness_ratio, 6),
            "reports": [r.to_dict() for r in self.reports],
        }


def scaling_sweep(
    sizes: tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000),
    word_bits: int = 32,
    stride_bits: int = 4,
    seed: int = 0,
) -> ScalingReport:
    """Run the insert/drain workload at each size with derived seeds."""
    for n in sizes:
        _require("scaling size", n, 1)
    reports = tuple(
        run_pq_workload(n, "ptrie", word_bits, stride_bits, seed + i)
        for i, n in enumerate(sizes)
    )
    return ScalingReport(sizes=tuple(sizes), reports=reports)


@dataclass(frozen=True)
class DijkstraBenchReport:
    """One full shortest-path run on a generated graph."""

    queue: str
    n_vertices: int
    n_arcs: int
    seed: int
    reached: int
    dist_checksum: int
    agrees_with_heap: bool
    elapsed_s: float

    def to_dict(self) -> dict[str, Any]:
        return _deterministic_fields(self)


def random_graph(
    n_vertices: int, n_arcs: int, max_weight: int = 1 << 16, seed: int = 0
) -> Graph:
    """Seeded random digraph with numeric labels v0..v{n-1}."""
    _require("n_vertices", n_vertices)
    _require("n_arcs", n_arcs)
    rng = _seeded(seed)
    g = Graph()
    labels = [f"v{i}" for i in range(n_vertices)]
    for lb in labels:
        g.add_vertex(lb)
    for _ in range(n_arcs):
        t = rng.randrange(n_vertices)
        h = rng.randrange(n_vertices)
        g.add_arc(labels[t], labels[h], rng.randrange(max_weight))
    return g


def run_dijkstra_bench(
    n_vertices: int = 2_000,
    n_arcs: int = 10_000,
    queue: str = "ptrie",
    seed: int = 0,
    config: PTrieConfig | None = None,
) -> DijkstraBenchReport:
    """Shortest paths from v0 on a seeded random graph, checked vs the heap.

    ``config`` is the trie geometry ``sssp`` runs on; the heap reference
    ignores it.
    """
    _require("n_vertices", n_vertices, 1)  # the source v0 must exist
    g = random_graph(n_vertices, n_arcs, seed=seed)
    reference = dijkstra_heap(g, "v0")
    t0 = time.perf_counter()
    if queue == "ptrie":
        dist = sssp(g, "v0", config).dist
    elif queue == "oracle":
        dist = dijkstra_heap(g, "v0")
    else:
        raise ValueError(f"unknown queue kind {queue!r}")
    elapsed = time.perf_counter() - t0
    checksum = 0
    for v in sorted(dist):
        checksum = _fold(checksum, dist[v])
    return DijkstraBenchReport(
        queue=queue,
        n_vertices=n_vertices,
        n_arcs=n_arcs,
        seed=seed,
        reached=len(dist),
        dist_checksum=checksum,
        agrees_with_heap=dist == reference,
        elapsed_s=elapsed,
    )
