"""Directed graphs with nonnegative integer arc weights, plus their file form.

The text format is line oriented and whitespace delimited:

    # comment                 ignored, as are blank lines
    v <label>                 declare a vertex
    a <tail> <head> <weight>  directed arc
    e <u> <v> <weight>        undirected edge, expands to u->v then v->u

Vertices must be declared before arcs mention them.  Weights are plain
ASCII digits (no sign, underscore or other script's digits) and must fit
the graph's key width so they can serve directly as queue keys.  Parsing
and serialization round-trip: vertex order, arc order and weights all
survive, and adjacency lists iterate in exactly that order, which pins
down tie-breaking in every consumer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


class GraphError(Exception):
    """Structural misuse: duplicate vertex, unknown endpoint, bad weight."""


class GraphParseError(GraphError):
    """Malformed graph text; carries the 1-based source line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Arc(NamedTuple):
    """One directed arc.  ``weight`` is the raw arc weight, not a path sum."""

    tail: str
    head: str
    weight: int


class Graph:
    """Adjacency-list digraph keeping insertion order everywhere."""

    __slots__ = ("word_bits", "_adj", "_arc_count")

    def __init__(self, word_bits: int = 32) -> None:
        if word_bits < 1:
            raise ValueError(f"word_bits must be positive, got {word_bits}")
        self.word_bits = word_bits
        self._adj: dict[str, list[Arc]] = {}
        self._arc_count = 0

    @property
    def max_weight(self) -> int:
        return (1 << self.word_bits) - 1

    def add_vertex(self, label: str) -> str:
        if not label:
            raise GraphError("vertex label must be non-empty")
        if label in self._adj:
            raise GraphError(f"duplicate vertex {label!r}")
        self._adj[label] = []
        return label

    def add_arc(self, tail: str, head: str, weight: int) -> Arc:
        if tail not in self._adj:
            raise GraphError(f"unknown vertex {tail!r}")
        if head not in self._adj:
            raise GraphError(f"unknown vertex {head!r}")
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise GraphError(f"weight must be an int, got {type(weight).__name__}")
        if weight < 0 or weight > self.max_weight:
            raise GraphError(
                f"weight {weight} outside 0..{self.max_weight} "
                f"({self.word_bits}-bit keys)"
            )
        arc = Arc(tail, head, weight)
        self._adj[tail].append(arc)
        self._arc_count += 1
        return arc

    def add_edge(self, u: str, v: str, weight: int) -> tuple[Arc, Arc]:
        """Undirected edge as an arc pair, u->v first."""
        return (self.add_arc(u, v, weight), self.add_arc(v, u, weight))

    def __contains__(self, label: str) -> bool:
        return label in self._adj

    def vertices(self) -> list[str]:
        return list(self._adj)

    def arcs_from(self, label: str) -> list[Arc]:
        if label not in self._adj:
            raise GraphError(f"unknown vertex {label!r}")
        return self._adj[label]

    def arcs(self) -> Iterator[Arc]:
        """All arcs, grouped by tail in vertex order, file order within."""
        for out in self._adj.values():
            yield from out

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def arc_count(self) -> int:
        return self._arc_count

    def out_degree(self, label: str) -> int:
        return len(self.arcs_from(label))

    def reverse(self) -> "Graph":
        """Same vertices, every arc flipped; orders stay deterministic."""
        rev = Graph(self.word_bits)
        for label in self._adj:
            rev.add_vertex(label)
        for arc in self.arcs():
            rev.add_arc(arc.head, arc.tail, arc.weight)
        return rev

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, arcs={self._arc_count})"


def parse_graph(text: str | Iterable[str], word_bits: int = 32) -> Graph:
    """Build a Graph from format text; errors carry the offending line."""
    g = Graph(word_bits)
    lines = text.splitlines() if isinstance(text, str) else text
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "v":
            if len(fields) != 2:
                raise GraphParseError(line_no, "vertex line needs exactly one label")
            try:
                g.add_vertex(fields[1])
            except GraphError as exc:
                raise GraphParseError(line_no, str(exc)) from None
        elif kind in ("a", "e"):
            if len(fields) != 4:
                raise GraphParseError(
                    line_no, f"{kind!r} line needs tail, head and weight"
                )
            w = fields[3]
            try:
                if not (w.isascii() and w.isdigit()):
                    raise ValueError(w)
                weight = int(w)  # also ValueError past int()'s digit limit
            except ValueError:
                raise GraphParseError(
                    line_no, f"weight {w!r} is not a decimal integer"
                ) from None
            try:
                if kind == "a":
                    g.add_arc(fields[1], fields[2], weight)
                else:
                    g.add_edge(fields[1], fields[2], weight)
            except GraphError as exc:
                raise GraphParseError(line_no, str(exc)) from None
        else:
            raise GraphParseError(line_no, f"unknown directive {kind!r}")
    return g


def load_graph(path: str, word_bits: int = 32) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the valid prefix, numbered the way parse_graph numbers lines
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise GraphParseError(line_no, "not UTF-8 text") from None
    return parse_graph(text, word_bits)


def serialize_graph(g: Graph) -> str:
    """Emit format text that parses back to an identical graph.

    Undirected input survives as its two arcs; the ``e`` shorthand is not
    reconstructed, so a parse/serialize/parse cycle is a fixed point.
    """
    out = [f"v {label}" for label in g.vertices()]
    out.extend(f"a {a.tail} {a.head} {a.weight}" for a in g.arcs())
    return "\n".join(out) + "\n" if out else ""


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(g))
