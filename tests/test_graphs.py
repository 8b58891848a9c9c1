"""Graph container semantics and the text format round trip."""

import random

import pytest

from prefixpq import (
    Arc,
    Graph,
    GraphError,
    GraphParseError,
    load_graph,
    parse_graph,
    save_graph,
    serialize_graph,
)
from prefixpq.fixtures import FIXTURE_NAMES, fixture_text


class TestGraphContainer:
    def test_vertex_and_arc_order_is_insertion_order(self):
        g = Graph()
        for v in ("C", "A", "B"):
            g.add_vertex(v)
        g.add_arc("C", "A", 5)
        g.add_arc("C", "B", 1)
        g.add_arc("A", "B", 2)
        assert g.vertices() == ["C", "A", "B"]
        assert [a.head for a in g.arcs_from("C")] == ["A", "B"]
        assert [(a.tail, a.head) for a in g.arcs()] == [
            ("C", "A"), ("C", "B"), ("A", "B"),
        ]
        assert g.vertex_count == 3 and g.arc_count == 3

    def test_duplicate_vertex_rejected(self):
        g = Graph()
        g.add_vertex("X")
        with pytest.raises(GraphError):
            g.add_vertex("X")

    def test_unknown_endpoints_rejected(self):
        g = Graph()
        g.add_vertex("A")
        with pytest.raises(GraphError):
            g.add_arc("A", "B", 1)
        with pytest.raises(GraphError):
            g.add_arc("B", "A", 1)
        with pytest.raises(GraphError):
            g.arcs_from("B")

    def test_weight_bounds(self):
        g = Graph()
        g.add_vertex("A")
        g.add_vertex("B")
        g.add_arc("A", "B", 0)
        g.add_arc("A", "B", 2**32 - 1)
        with pytest.raises(GraphError):
            g.add_arc("A", "B", -1)
        with pytest.raises(GraphError):
            g.add_arc("A", "B", 2**32)
        with pytest.raises(GraphError):
            g.add_arc("A", "B", 1.5)

    def test_weight_bound_follows_word_bits(self):
        g = Graph(word_bits=8)
        g.add_vertex("A")
        g.add_vertex("B")
        g.add_arc("A", "B", 255)
        with pytest.raises(GraphError):
            g.add_arc("A", "B", 256)

    def test_add_edge_expands_to_both_arcs(self):
        g = Graph()
        g.add_vertex("U")
        g.add_vertex("V")
        fwd, bwd = g.add_edge("U", "V", 9)
        assert fwd == Arc("U", "V", 9)
        assert bwd == Arc(tail="V", head="U", weight=9)
        assert [a for a in g.arcs()] == [fwd, bwd]
        assert repr(fwd) == "Arc(tail='U', head='V', weight=9)"
        with pytest.raises(AttributeError):
            fwd.weight = 1

    def test_parallel_arcs_allowed(self):
        g = Graph()
        g.add_vertex("A")
        g.add_vertex("B")
        g.add_arc("A", "B", 3)
        g.add_arc("A", "B", 1)
        assert [a.weight for a in g.arcs_from("A")] == [3, 1]

    def test_contains(self):
        g = Graph()
        g.add_vertex("A")
        assert "A" in g and "B" not in g


class TestReverse:
    def test_single_arc(self):
        g = Graph()
        g.add_vertex("A")
        g.add_vertex("B")
        g.add_arc("A", "B", 4)
        r = g.reverse()
        assert [(a.tail, a.head, a.weight) for a in r.arcs()] == [("B", "A", 4)]
        assert r.vertices() == ["A", "B"]

    def test_reverse_preserves_arc_multiset(self):
        rng = random.Random(0)
        g = Graph()
        labels = [f"n{i}" for i in range(12)]
        for lb in labels:
            g.add_vertex(lb)
        for _ in range(60):
            g.add_arc(rng.choice(labels), rng.choice(labels), rng.randrange(100))
        r = g.reverse()
        fwd = sorted((a.tail, a.head, a.weight) for a in g.arcs())
        bwd = sorted((a.head, a.tail, a.weight) for a in r.arcs())
        assert fwd == bwd
        assert r.vertices() == g.vertices()

    def test_reverse_is_deterministic(self):
        g = parse_graph(fixture_text("demo.g"))
        a = [(x.tail, x.head, x.weight) for x in g.reverse().arcs()]
        b = [(x.tail, x.head, x.weight) for x in g.reverse().arcs()]
        assert a == b


class TestParsing:
    def test_basic_document(self):
        g = parse_graph(
            """
            # heading comment
            v A
            v B

            a A B 3
            e A B 7
            """
        )
        assert g.vertices() == ["A", "B"]
        assert [(a.tail, a.head, a.weight) for a in g.arcs()] == [
            ("A", "B", 3), ("A", "B", 7), ("B", "A", 7),
        ]

    def test_edge_expansion_order(self):
        g = parse_graph("v U\nv V\ne U V 2\n")
        assert [(a.tail, a.head) for a in g.arcs()] == [("U", "V"), ("V", "U")]

    @pytest.mark.parametrize(
        "text,line_no",
        [
            ("v A\nv A\n", 2),
            ("x A B\n", 1),
            ("v A\na A B 1\n", 2),
            ("v A\nv B\na A B\n", 3),
            ("v A\nv B\na A B ten\n", 3),
            ("v A\nv B\na A B -2\n", 3),
            ("v A\nv B\na A B 1_000\n", 3),
            ("v A\nv B\na A B +7\n", 3),
            ("v A\nv B\na A B \uff11\uff12\n", 3),  # full-width digits
            ("v A\nv B\n\n# c\na A B 99999999999\n", 5),
            ("v\n", 1),
            ("v A B\n", 1),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line_no):
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert err.value.line_no == line_no
        assert f"line {line_no}:" in str(err.value)

    def test_weight_limit_follows_word_bits_param(self):
        parse_graph("v A\nv B\na A B 255\n", word_bits=8)
        with pytest.raises(GraphParseError):
            parse_graph("v A\nv B\na A B 256\n", word_bits=8)

    def test_fixtures_parse(self):
        sizes = {}
        for name in FIXTURE_NAMES:
            g = parse_graph(fixture_text(name))
            sizes[name] = (g.vertex_count, g.arc_count)
        assert sizes["demo.g"] == (7, 16)
        assert sizes["fig6.g"] == (5, 10)
        assert sizes["fig1.g"] == (7, 22)   # 11 undirected edges
        assert sizes["fig4.g"] == (11, 42)  # 21 undirected edges

    def test_demo_adjacency_order_is_pinned(self):
        g = parse_graph(fixture_text("demo.g"))
        assert [a.head for a in g.arcs_from("F")] == ["C", "G"]
        assert [a.head for a in g.arcs_from("C")] == ["A", "F"]
        assert [(a.head, a.weight) for a in g.arcs_from("A")] == [
            ("D", 1), ("C", 5), ("B", 3),
        ]


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_round_trips(self, name):
        g1 = parse_graph(fixture_text(name))
        text = serialize_graph(g1)
        g2 = parse_graph(text)
        assert g2.vertices() == g1.vertices()
        assert [(a.tail, a.head, a.weight) for a in g2.arcs()] == [
            (a.tail, a.head, a.weight) for a in g1.arcs()
        ]
        # serialization of a parse of a serialization is a fixed point
        assert serialize_graph(g2) == text

    def test_empty_graph(self):
        assert serialize_graph(Graph()) == ""
        g = parse_graph("")
        assert g.vertex_count == 0 and g.arc_count == 0

    def test_file_round_trip(self, tmp_path):
        g = parse_graph(fixture_text("fig6.g"))
        path = tmp_path / "copy.g"
        save_graph(g, str(path))
        g2 = load_graph(str(path))
        assert [(a.tail, a.head, a.weight) for a in g2.arcs()] == [
            (a.tail, a.head, a.weight) for a in g.arcs()
        ]

    def test_random_graph_round_trip(self):
        rng = random.Random(42)
        g = Graph()
        labels = [f"x{i}" for i in range(20)]
        for lb in labels:
            g.add_vertex(lb)
        for _ in range(100):
            g.add_arc(
                rng.choice(labels), rng.choice(labels), rng.randrange(2**32)
            )
        g2 = parse_graph(serialize_graph(g))
        assert g2.vertices() == g.vertices()
        assert [(a.tail, a.head, a.weight) for a in g2.arcs()] == [
            (a.tail, a.head, a.weight) for a in g.arcs()
        ]
