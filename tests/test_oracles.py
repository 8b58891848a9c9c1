"""The reference implementations must themselves be trustworthy."""

import itertools

import pytest

from prefixpq import Graph, parse_graph
from prefixpq.fixtures import fixture_text
from prefixpq.oracles import (
    ORACLE_ABSENT,
    OracleVerdict,
    StableListPQ,
    brute_force_best_path,
    dijkstra_heap,
    kruskal,
    kruskal_component_weight,
)


def graph_from_code(n_vertices, digits):
    """Digit vector over {0..3} per ordered pair: 0 = no arc, d = weight d-1."""
    g = Graph()
    labels = [chr(ord("a") + i) for i in range(n_vertices)]
    for lb in labels:
        g.add_vertex(lb)
    pairs = [(i, j) for i in range(n_vertices) for j in range(n_vertices) if i != j]
    for (i, j), d in zip(pairs, digits):
        if d:
            g.add_arc(labels[i], labels[j], d - 1)
    return g


def all_digit_vectors(length):
    return itertools.product(range(4), repeat=length)


class TestStableListPQ:
    def test_fifo_and_order(self):
        pq = StableListPQ()
        for k, p in [(7, "a"), (3, "b"), (7, "c")]:
            pq.insert(k, p)
        assert pq.minimum() == (3, "b")
        assert pq.maximum() == (7, "a")
        assert pq.delete_min() == (3, "b")
        assert pq.delete_min() == (7, "a")
        assert pq.delete_min() == (7, "c")
        assert pq.delete_min() is None

    def test_remove_and_search(self):
        pq = StableListPQ()
        pq.insert(5, "x")
        pq.insert(5, "y")
        assert pq.search(5) and not pq.search(6)
        assert pq.remove(6) is ORACLE_ABSENT
        assert pq.remove(5) == "x"
        assert pq.remove(5) == "y"
        assert pq.remove(5) is ORACLE_ABSENT
        assert len(pq) == 0

    def test_drain(self):
        pq = StableListPQ()
        for k in (9, 2, 9, 1):
            pq.insert(k, k)
        assert pq.drain() == [(1, 1), (2, 2), (9, 9), (9, 9)]
        assert len(pq) == 0


class TestDijkstraHeap:
    def test_unreachable_vertices_are_absent(self):
        g = parse_graph("v A\nv B\nv C\na A B 1\n")
        dist = dijkstra_heap(g, "A")
        assert dist == {"A": 0, "B": 1}

    def test_exhaustive_three_vertex_sweep(self):
        # all 4**6 assignments of {absent, w0, w1, w2} to ordered pairs
        for digits in all_digit_vectors(6):
            g = graph_from_code(3, digits)
            dist = dijkstra_heap(g, "a")
            for v in g.vertices():
                best = brute_force_best_path(g, "a", v)
                if best is None:
                    assert v not in dist
                else:
                    assert dist[v] == best[0]

    def test_sampled_four_and_five_vertex_sweep(self):
        # deterministic stride through the 4**12 and 4**20 spaces
        for n_vertices, stride, count in ((4, 9973, 1500), (5, 10**9 + 7, 800)):
            pairs = n_vertices * (n_vertices - 1)
            space = 4**pairs
            for idx in range(count):
                code = (idx * stride) % space
                digits = [(code // 4**p) % 4 for p in range(pairs)]
                g = graph_from_code(n_vertices, digits)
                dist = dijkstra_heap(g, "a")
                for v in g.vertices():
                    best = brute_force_best_path(g, "a", v)
                    assert (best is None) == (v not in dist)
                    if best is not None:
                        assert dist[v] == best[0]


class TestBruteForce:
    def test_source_equals_target(self):
        g = parse_graph("v A\n")
        assert brute_force_best_path(g, "A", "A") == (0, 0)

    def test_prefers_fewer_hops_at_equal_weight(self):
        g = parse_graph(
            "v A\nv B\nv C\na A C 2\na A B 1\na B C 1\n"
        )
        assert brute_force_best_path(g, "A", "C") == (2, 1)

    def test_zero_weight_cycles_are_no_trap(self):
        g = parse_graph("v A\nv B\na A B 0\na B A 0\n")
        assert brute_force_best_path(g, "A", "B") == (0, 1)

    def test_guard_on_large_graphs(self):
        g = Graph()
        for i in range(13):
            g.add_vertex(str(i))
        with pytest.raises(ValueError):
            brute_force_best_path(g, "0", "1")


class TestKruskal:
    def test_fixture_totals(self):
        assert kruskal(parse_graph(fixture_text("fig1.g"))) == 8
        assert kruskal(parse_graph(fixture_text("fig4.g"))) == 19

    def test_forest_weight_on_disconnected(self):
        g = parse_graph("v A\nv B\nv C\nv D\ne A B 5\ne C D 1\n")
        assert kruskal(g) == 6
        assert kruskal_component_weight(g, "A") == 5
        assert kruskal_component_weight(g, "D") == 1

    def test_duplicate_edges_do_not_double_count(self):
        g = parse_graph("v A\nv B\ne A B 4\ne A B 7\n")
        assert kruskal(g) == 4


class TestVerdict:
    def test_truthiness(self):
        assert OracleVerdict(True, 10)
        assert not OracleVerdict(False, 3, "boom")
