"""Shared machinery for the test suite: op scripts, differential runs, and
the one window onto ``PTrie``'s internal leaves and layers."""

from __future__ import annotations

import random
from typing import Any

from prefixpq import ABSENT, PTrie, PTrieConfig
from prefixpq.oracles import ORACLE_ABSENT, OracleVerdict, StableListPQ
from prefixpq.ptrie import Layer, LeafNode

_GONE = object()  # common "not there" marker for comparing the two queues


def _norm(value: Any) -> Any:
    if value is ABSENT or value is ORACLE_ABSENT:
        return _GONE
    return value


def op_script(
    rng: random.Random,
    n_ops: int,
    key_bits: int = 16,
    weights: tuple[float, ...] = (0.45, 0.2, 0.15, 0.1, 0.05, 0.05),
) -> list[tuple]:
    """Random op sequence hitting every queue entry point.

    Op kinds, in ``weights`` order: insert, delete_min, remove, search,
    minimum, maximum.  Remove and search mostly target keys that were
    inserted at some point, so collisions with live keys are common.
    """
    ops: list[tuple] = []
    seen: list[int] = []
    space = 1 << key_bits
    kinds = ("insert", "delete_min", "remove", "search", "minimum", "maximum")
    for i in range(n_ops):
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "insert" or not seen:
            key = rng.randrange(space)
            seen.append(key)
            ops.append(("insert", key, i))
        elif kind in ("remove", "search"):
            key = rng.choice(seen) if rng.random() < 0.7 else rng.randrange(space)
            ops.append((kind, key))
        else:
            ops.append((kind,))
    return ops


def run_differential(
    seed: int,
    n_ops: int = 1000,
    word_bits: int = 16,
    stride_bits: int = 4,
    validate_every: int = 0,
) -> OracleVerdict:
    """Replay one random script on the trie and the sorted-list reference.

    Compares the result of every observable op, plus a final structural
    validation and a final drain comparison.  ``validate_every`` > 0 also
    audits the trie every that-many ops.
    """
    rng = random.Random(seed)
    ops = op_script(rng, n_ops, key_bits=word_bits)
    trie = PTrie(PTrieConfig(word_bits, stride_bits))
    oracle = StableListPQ()
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "insert":
            trie.insert(op[1], op[2])
            oracle.insert(op[1], op[2])
            got = exp = None
        elif kind == "delete_min":
            got, exp = trie.delete_min(), oracle.delete_min()
        elif kind == "remove":
            got, exp = _norm(trie.remove(op[1])), _norm(oracle.remove(op[1]))
        elif kind == "search":
            got, exp = trie.search(op[1]), oracle.search(op[1])
        elif kind == "minimum":
            got, exp = trie.minimum(), oracle.minimum()
        else:
            got, exp = trie.maximum(), oracle.maximum()
        if got != exp:
            return OracleVerdict(
                False, i + 1,
                f"seed={seed} op#{i} {op!r}: trie={got!r} oracle={exp!r}",
            )
        if len(trie) != len(oracle):
            return OracleVerdict(
                False, i + 1,
                f"seed={seed} op#{i} {op!r}: len {len(trie)} != {len(oracle)}",
            )
        if validate_every and (i + 1) % validate_every == 0:
            report = trie.validate()
            if not report.ok:
                return OracleVerdict(
                    False, i + 1, f"seed={seed} op#{i}: {report.error}"
                )
    report = trie.validate()
    if not report.ok:
        return OracleVerdict(False, len(ops), f"seed={seed} final: {report.error}")
    drained = [(k, p) for k, p in trie]
    expected = oracle.drain()
    if drained != expected:
        return OracleVerdict(
            False, len(ops),
            f"seed={seed} drain mismatch: {drained[:5]!r} vs {expected[:5]!r}",
        )
    return OracleVerdict(True, len(ops))


# ------------------------------------------------------------ trie internals
# The structural tests and the validate() corruption tests inspect and
# break the trie through these alone, so a change of layout is mended here.


def root(t: PTrie) -> Layer:
    """The root layer."""
    return t._root


def head(t: PTrie) -> LeafNode | None:
    """The smallest-key leaf, first in the linked list."""
    return t._head


def leaf(t: PTrie, key: int) -> LeafNode | None:
    """The leaf storing ``key``, or None.

    It runs the trie's own lookup, so it refreshes ``last_op_stats`` as a
    ``search`` would.
    """
    return t._find(key)


def layers(t: PTrie) -> list[Layer]:
    """Every non-root layer, level by level."""
    out, frontier = [], [t._root]
    while frontier:
        frontier = [s for ly in frontier for s in ly.slots if is_layer(s)]
        out += frontier
    return out


def is_layer(slot: Any) -> bool:
    """Whether a slot holds a deeper layer (not a leaf, not empty)."""
    return type(slot) is Layer


def chunk(t: PTrie, key: int, depth: int) -> int:
    """The slot index ``key`` takes in a layer at ``depth``."""
    return (key >> t._shifts[depth]) & t._chunk_mask


def free_leaves(t: PTrie) -> list[LeafNode]:
    """The trie's free list of leaves itself, not a copy."""
    return t._free_leaves


def free_layers(t: PTrie) -> list[Layer]:
    """The trie's free list of layers itself, not a copy."""
    return t._free_layers


def cleared_leaf() -> LeafNode:
    """A leaf in the state the free list keeps: no payload, no links."""
    return LeafNode(0, None)
