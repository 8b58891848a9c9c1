"""Shortest-path solver: frozen fixture results, oracles, trace contract."""

import random

import pytest

from prefixpq import (
    GraphError,
    Graph,
    PTrieConfig,
    format_trace_event,
    format_walk,
    mst_prim,
    parse_graph,
    sdsp,
    sssp,
    sssp_trace,
    walk,
)
from prefixpq.cli import main
from prefixpq.fixtures import fixture_text
from prefixpq.oracles import StableListPQ, brute_force_best_path, dijkstra_heap
from prefixpq.schemas import trace_to_dict, validate_payload


@pytest.fixture(scope="module")
def demo():
    return parse_graph(fixture_text("demo.g"))


@pytest.fixture(scope="module")
def fig6():
    return parse_graph(fixture_text("fig6.g"))


def random_digraph(rng, n_vertices, n_arcs, max_weight):
    g = Graph()
    labels = [f"v{i}" for i in range(n_vertices)]
    for lb in labels:
        g.add_vertex(lb)
    for _ in range(n_arcs):
        g.add_arc(
            rng.choice(labels), rng.choice(labels), rng.randrange(max_weight + 1)
        )
    return g


def prim_queueing_every_arc(g, root):
    """Prim that queues every out-arc and rejects settled heads at extraction."""
    queue = StableListPQ()
    in_tree = {root}
    edges = []
    for arc in g.arcs_from(root):
        queue.insert(arc.weight, arc)
    while len(queue):
        _, arc = queue.delete_min()
        if arc.head not in in_tree:
            in_tree.add(arc.head)
            edges.append((arc.tail, arc.head, arc.weight))
            for out in g.arcs_from(arc.head):
                queue.insert(out.weight, out)
    return tuple(edges)


class TestFig6:
    def test_distance_and_hop_table(self, fig6):
        tree = sssp(fig6, "A")
        expect = {"B": (1, 1), "C": (2, 1), "D": (4, 2), "E": (3, 2)}
        for v, (d, h) in expect.items():
            assert tree.dist[v] == d
            assert tree.hops[v] == h
        assert tree.dist["A"] == 0 and tree.hops["A"] == 0

    def test_every_vertex_reached(self, fig6):
        tree = sssp(fig6, "A")
        assert all(tree.is_reachable(v) for v in fig6.vertices())


class TestDemoTrace:
    EXPECTED = [
        ("A", "D", 1, False),
        ("D", "B", 2, False),
        ("A", "B", 3, True),
        ("D", "F", 3, False),
        ("B", "A", 3, True),
        ("D", "B", 4, True),
        ("F", "C", 4, False),
        ("F", "G", 4, False),
        ("G", "E", 4, False),
        ("A", "C", 5, True),
        ("C", "A", 5, True),
        ("C", "F", 5, True),
        ("B", "E", 6, True),
        ("E", "D", 6, True),
        ("E", "G", 7, True),
        ("D", "E", 8, True),
    ]

    def test_exact_extraction_sequence(self, demo):
        _, events = sssp_trace(demo, "A")
        got = [
            (arc.tail, arc.head, pw, e.rejected)
            for e in events
            for pw, arc in [e.entry]
        ]
        assert got == self.EXPECTED

    def test_steps_are_one_based_and_contiguous(self, demo):
        _, events = sssp_trace(demo, "A")
        assert [e.step for e in events] == list(range(1, len(events) + 1))

    def test_snapshots_lead_with_served_entry(self, demo):
        _, events = sssp_trace(demo, "A")
        for ev in events:
            assert ev.queue[0] == ev.entry
            weights = [pw for pw, _ in ev.queue]
            assert weights == sorted(weights)

    def test_second_step_snapshot(self, demo):
        _, events = sssp_trace(demo, "A")
        snap = [(pw, arc.tail, arc.head) for pw, arc in events[1].queue]
        assert snap == [
            (2, "D", "B"),
            (3, "A", "B"),
            (3, "D", "F"),
            (4, "D", "B"),
            (5, "A", "C"),
            (8, "D", "E"),
        ]

    def test_result_table(self, demo):
        tree, _ = sssp_trace(demo, "A")
        assert tree.dist == {
            "A": 0, "D": 1, "B": 2, "F": 3, "C": 4, "G": 4, "E": 4,
        }
        assert tree.hops == {
            "A": 0, "D": 1, "B": 2, "F": 2, "C": 3, "G": 3, "E": 4,
        }

    def test_back_map(self, demo):
        tree = sssp(demo, "A")
        assert tree.back == {
            "A": None,
            "D": ("A", 1),
            "B": ("D", 1),
            "F": ("D", 2),
            "C": ("F", 1),
            "G": ("F", 1),
            "E": ("G", 0),
        }

    def test_trace_is_deterministic(self, demo):
        a = sssp_trace(demo, "A")[1]
        b = sssp_trace(demo, "A")[1]
        assert a == b

    def test_trace_json_payload_validates(self, demo):
        _, events = sssp_trace(demo, "A")
        payload = trace_to_dict("A", events)
        validate_payload("trace", payload)
        assert payload["events"][0] == {
            "step": 1,
            "tail": "A",
            "head": "D",
            "pathWeight": 1,
            "rejected": False,
            "queue": [
                {"tail": "A", "head": "D", "weight": 1, "pathWeight": 1},
                {"tail": "A", "head": "B", "weight": 3, "pathWeight": 3},
                {"tail": "A", "head": "C", "weight": 5, "pathWeight": 5},
            ],
        }

    def test_format_trace_event(self, demo):
        _, events = sssp_trace(demo, "A")
        assert format_trace_event(events[0]) == "step=1 extract=A->D w=1 accept"
        assert format_trace_event(events[2]) == "step=3 extract=A->B w=3 reject"
        verbose = format_trace_event(events[0], verbose=True).splitlines()
        assert verbose[0] == "step=1 extract=A->D w=1 accept"
        assert verbose[1:] == [
            "    queued w=1 A->D",
            "    queued w=3 A->B",
            "    queued w=5 A->C",
        ]


class TestWalk:
    def test_walk_to_source(self, demo):
        tree = sssp(demo, "A")
        assert walk(tree, "E") == [
            ("E", 0), ("G", 1), ("F", 2), ("D", 1), ("A", None),
        ]
        assert format_walk(walk(tree, "E")) == (
            "[E]--(0)->[G]--(1)->[F]--(2)->[D]--(1)->[A]"
        )

    def test_walk_of_source_is_trivial(self, demo):
        tree = sssp(demo, "A")
        assert walk(tree, "A") == [("A", None)]
        assert format_walk(walk(tree, "A")) == "[A]"

    def test_walk_unreachable_is_none(self):
        g = parse_graph("v A\nv B\nv Z\na A B 1\n")
        tree = sssp(g, "A")
        assert walk(tree, "Z") is None

    def test_walk_weights_sum_to_distance(self, demo):
        tree = sssp(demo, "A")
        for v in demo.vertices():
            steps = walk(tree, v)
            assert sum(w for _, w in steps if w is not None) == tree.dist[v]


class TestSdsp:
    def test_single_arc_asymmetry(self):
        g = parse_graph("v A\nv B\na A B 5\n")
        into_b = sdsp(g, "B")
        assert into_b.dist["A"] == 5 and into_b.dist["B"] == 0
        into_a = sdsp(g, "A")
        assert not into_a.is_reachable("B")
        assert into_a.dist["A"] == 0

    def test_equals_sssp_on_reversed(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_digraph(rng, rng.randrange(2, 20), rng.randrange(1, 60), 15)
            dest = rng.choice(g.vertices())
            assert sdsp(g, dest).dist == sssp(g.reverse(), dest).dist

    def test_demo_into_d(self, demo):
        tree = sdsp(demo, "D")
        # cheapest A-to-D path is the direct arc of weight 1
        assert tree.dist["A"] == 1
        assert tree.dist["E"] == 2  # E->D directly
        assert tree.dist["G"] == 2  # G->E->D


class TestAgainstOracles:
    def test_matches_heap_dijkstra_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_digraph(rng, rng.randrange(2, 30), rng.randrange(1, 120), 15)
            src = rng.choice(g.vertices())
            assert sssp(g, src).dist == dijkstra_heap(g, src)

    def test_matches_brute_force_on_tiny_graphs(self):
        rng = random.Random(31)
        for _ in range(80):
            g = random_digraph(rng, rng.randrange(1, 5), rng.randrange(0, 10), 2)
            src = g.vertices()[0]
            tree = sssp(g, src)
            for v in g.vertices():
                best = brute_force_best_path(g, src, v)
                if best is None:
                    assert not tree.is_reachable(v)
                else:
                    assert tree.dist[v] == best[0]

    @pytest.mark.parametrize("m,k", [(32, 4), (16, 4)])
    def test_skipping_settled_heads_changes_no_answer(self, m, k):
        # weights in {0, 1, 2}, parallel arcs and self-loops make many ties;
        # sssp_trace still queues every out-arc, settled heads included
        rng = random.Random(4000 + m)
        cfg = PTrieConfig(m, k)
        for _ in range(60):
            g = random_digraph(rng, rng.randrange(1, 25), rng.randrange(0, 100), 2)
            v = rng.choice(g.vertices())
            fast, (slow, _) = sssp(g, v, cfg), sssp_trace(g, v, cfg)
            assert (fast.dist, fast.hops, fast.back) == (slow.dist, slow.hops, slow.back)
            into, (rev, _) = sdsp(g, v, cfg), sssp_trace(g.reverse(), v, cfg)
            assert (into.dist, into.hops, into.back) == (rev.dist, rev.hops, rev.back)
            span = mst_prim(g, v, cfg)
            assert span.edges == prim_queueing_every_arc(g, v)
            assert span.total_weight == sum(w for _, _, w in span.edges)

    def test_fixture_hop_counts_are_minimal_among_cheapest(self, demo, fig6):
        for g, src in ((demo, "A"), (fig6, "A")):
            tree = sssp(g, src)
            for v in g.vertices():
                weight, hops = brute_force_best_path(g, src, v)
                assert tree.dist[v] == weight
                assert tree.hops[v] == hops


class TestErrors:
    def test_unknown_source(self, demo):
        with pytest.raises(GraphError):
            sssp(demo, "Q")
        with pytest.raises(GraphError):
            sdsp(demo, "Q")
        with pytest.raises(GraphError):
            sssp_trace(demo, "Q")

    def test_source_only_graph(self):
        g = parse_graph("v A\n")
        tree = sssp(g, "A")
        assert tree.dist == {"A": 0}
        assert walk(tree, "A") == [("A", None)]


class TestPathSumsAtTheKeyWidth:
    @pytest.mark.parametrize("m,k", [(16, 4), (32, 4)])
    def test_sums_up_to_the_top_key_solve(self, m, k):
        top = (1 << m) - 1
        g = parse_graph(
            f"v A\nv B\nv C\nv D\na A B {top - 3}\na B C 2\na C D 1\n"
            f"a A D {top}\na D A 0\n",
            m,
        )
        tree = sssp(g, "A", PTrieConfig(m, k))
        assert tree.dist == dijkstra_heap(g, "A")
        assert tree.dist["D"] == top
        assert tree.back["D"] == ("A", top)  # queued first among the ties

    @pytest.mark.parametrize("m,k", [(16, 4), (32, 4)])
    def test_sum_past_the_top_key_is_a_graph_error(self, m, k):
        top = (1 << m) - 1
        g = parse_graph(f"v A\nv B\nv C\na A B {top}\na B C 1\n", m)
        cfg = PTrieConfig(m, k)
        message = rf"path weight {top + 1} exceeds the {m}-bit key range \(--m {m}\)"
        for solve in (
            lambda: sssp(g, "A", cfg),
            lambda: sssp_trace(g, "A", cfg),
            lambda: sdsp(g, "C", cfg),
        ):
            with pytest.raises(GraphError, match=message):
                solve()

    @pytest.mark.parametrize("solve", [sssp, sssp_trace, mst_prim])
    def test_arc_weight_wider_than_the_queue_is_a_graph_error(self, solve):
        # the graph parses at 32 bits; the weight fails on the 16-bit queue
        # when the source's own arcs are queued
        g = parse_graph("v A\nv B\nv C\na A B 70000\na B C 70000\n")
        cfg = PTrieConfig(16, 4)
        with pytest.raises(GraphError, match=r"70000 .*\(--m 16\)"):
            solve(g, "A", cfg)
        assert sdsp(g, "A", cfg).dist == dijkstra_heap(g.reverse(), "A")

    @pytest.mark.parametrize("m,k", [(16, 4), (32, 4)])
    def test_sum_past_the_top_key_into_a_settled_vertex(
        self, m, k, tmp_path, capsys
    ):
        # B->A sums to top + 1, but A is settled before B: sssp and sdsp
        # never queue that arc, the trace queues it and cannot key it
        top = (1 << m) - 1
        text = f"v A\nv B\na A B {top}\na B A 1\n"
        g = parse_graph(text, m)
        cfg = PTrieConfig(m, k)
        assert sssp(g, "A", cfg).dist == dijkstra_heap(g, "A") == {"A": 0, "B": top}
        for dest in ("A", "B"):
            assert sdsp(g, dest, cfg).dist == dijkstra_heap(g.reverse(), dest)
        message = rf"path weight {top + 1} exceeds the {m}-bit key range \(--m {m}\)"
        with pytest.raises(GraphError, match=message):
            sssp_trace(g, "A", cfg)
        path = tmp_path / "settled.g"
        path.write_text(text)
        argv = ["--input", str(path), "--source", "A", "--m", str(m), "--k", str(k)]
        assert main(["sssp", *argv]) == 0
        assert main(["trace", *argv]) == 2
        assert f"path weight {top + 1}" in capsys.readouterr().err
