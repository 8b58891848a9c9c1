"""Stable multilevel prefix-tree priority queue over fixed-width integer keys.

A ``PTrie`` stores unsigned integers of ``word_bits`` bits and serves them in
ascending key order.  The key space is cut into MSB-first chunks of
``stride_bits`` bits; each chunk indexes a slot in a layer of degree
``2**stride_bits``.  A slot is empty, holds a leaf, or holds a deeper layer.
Layers exist only where at least two distinct stored keys share the chunk
prefix leading to them, so the structure stays shallow for clustered keys and
never exceeds ``word_bits // stride_bits`` levels below the root.

Each distinct key owns one leaf carrying a FIFO queue of payloads, so equal
keys drain in insertion order (the queue is stable).  The oldest payload is
stored inline in the leaf; an overflow ``deque`` holds the later ones and
exists only while the key has two or more payloads, so the common
one-payload key costs a single small object.  ``LeafNode.queue`` returns a
tuple snapshot of the whole FIFO for readers; the queue operations use the
inline fields directly.  Each leaf also records the depth of the layer it is
filed in, which lets ``delete_min`` pop a payload from the head leaf without
descending.  All leaves are threaded into a doubly linked list in ascending
key order, which makes ``minimum``, ``maximum`` and neighbor iteration O(1)
and lets a full drain run in O(n) list traversals plus the per-extraction
trie maintenance.

Per-layer bookkeeping kept alongside the slot array:

* ``occupied`` -- an integer bitmask over slot indexes, the "which slots are
  in use" ordered set.  Predecessor/successor slot queries are bit scans.
* ``min_leaf`` / ``max_leaf`` -- the extreme leaves of the whole subtree,
  maintained on every mutation so that splicing a new leaf next to a
  neighboring subtree needs no descent.

A layer stores no level of its own: its depth is the number of slots
followed from the root to reach it.  Lookups make one descent, in
``find_node``; ``search`` and ``remove`` both start from it, and ``insert``
keeps its own descent because it pushes residents down as it goes.

Emptied leaves and layers are recycled: each trie keeps one free list of
leaves and one of layers, each capped at ``FREE_LIST_CAP`` objects.  When
``remove`` or ``delete_min`` takes a key's last payload, the leaf and the
single-slot chain of layers that dropped with it are cleared and pushed;
``insert`` pops from them before it allocates.  A queue whose size holds
steady therefore allocates no trie objects, and the cyclic collector,
which a flood of short-lived container objects keeps triggering, stays
quiet.  Free objects hold no payload and no link, so they keep nothing
alive.  A ``LeafNode`` handed out by ``first_node``, ``last_node`` or
``find_node`` is only valid while its key is stored: once the key's last
payload is removed, the same object may be filed again under another key.

Every mutating or searching operation, ``find_node`` included, refreshes
``last_op_stats`` with the number of layers it touched and the number of
ordered-set operations it charged; ``OpStats.primitive_steps`` folds those
into the cost model used by the benchmark (each ordered-set operation costs
``stride_bits`` comparisons).  For any legal configuration the step count of
a single operation is bounded by ``word_bits // stride_bits + stride_bits``.

The structure is single-writer: no locking, and mutating it from concurrent
threads or from inside an iteration is unsupported.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator


class _Absent:
    """Sentinel distinguishing "key not present" from a stored None payload."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ABSENT"


ABSENT = _Absent()

# Most emptied leaves, and most emptied layers, that one trie keeps for
# reuse: enough to absorb the churn of a steady-state queue, small enough
# that a drained trie holds on to little memory.
FREE_LIST_CAP = 1024

# Trail or order items hashed per ``sha256.update`` in ``validate``, so the
# audit holds a bounded number of them, not one per key.
_HASH_BATCH = 4096


@dataclass(frozen=True)
class PTrieConfig:
    """Shape of a trie: key width and per-level chunk width, both in bits.

    ``stride_bits`` must divide ``word_bits`` evenly and lie in 1..8, so a
    layer's slot array has at most 256 entries and the deepest possible
    layer sits ``word_bits // stride_bits - 1`` levels below the root.
    """

    word_bits: int = 32
    stride_bits: int = 4

    def __post_init__(self) -> None:
        if self.word_bits < 1:
            raise ValueError(f"word_bits must be positive, got {self.word_bits}")
        if not 1 <= self.stride_bits <= 8:
            raise ValueError(f"stride_bits must be in 1..8, got {self.stride_bits}")
        if self.word_bits % self.stride_bits != 0:
            raise ValueError(
                f"stride_bits {self.stride_bits} does not divide "
                f"word_bits {self.word_bits}"
            )

    @property
    def degree(self) -> int:
        """Slots per layer."""
        return 1 << self.stride_bits

    @property
    def depth_max(self) -> int:
        """Number of chunk levels; the root is level 1."""
        return self.word_bits // self.stride_bits

    @property
    def key_mask(self) -> int:
        return (1 << self.word_bits) - 1


class LeafNode:
    """One distinct key plus the FIFO queue of payloads filed under it.

    The oldest payload sits inline in ``first``; later ones wait in the
    ``rest`` deque, which exists only while the key holds two or more
    payloads, so a key stored once costs no deque.  ``depth`` is the
    0-based index of the layer the leaf is filed in (0 for the root).
    ``prev`` / ``next`` are the ascending-key linked-list neighbors; they
    are the O(1) iterator steps.  A leaf is valid until its key's last
    payload is removed; the trie then clears it (no payload, no links) and
    may file the same object under a later key.
    """

    __slots__ = ("key", "first", "rest", "depth", "prev", "next")

    def __init__(self, key: int, payload: Any, depth: int = 0) -> None:
        self.key = key
        self.first = payload
        self.rest: deque[Any] | None = None
        self.depth = depth
        self.prev: LeafNode | None = None
        self.next: LeafNode | None = None

    @property
    def queue(self) -> tuple[Any, ...]:
        """Snapshot of the payloads in FIFO order; not a live view."""
        if self.rest is None:
            return (self.first,)
        return (self.first, *self.rest)

    def __repr__(self) -> str:
        return f"LeafNode(key={self.key:#x}, depth_of_queue={_queued(self)})"


def _queued(leaf: LeafNode) -> int:
    """Payloads filed under ``leaf``."""
    return 1 if leaf.rest is None else 1 + len(leaf.rest)


class Layer:
    """One slot array plus its occupancy bitmask and subtree extrema."""

    __slots__ = ("slots", "occupied", "min_leaf", "max_leaf")

    def __init__(self, degree: int) -> None:
        self.slots: list[Any] = [None] * degree
        self.occupied = 0
        self.min_leaf: LeafNode | None = None
        self.max_leaf: LeafNode | None = None

    def __repr__(self) -> str:
        return f"Layer(occupied={self.occupied:#x})"


class OpStats:
    """Instrumentation for the most recent operation.

    ``layers_visited`` counts layers touched on the descent (the root
    included); ``index_ops`` counts charged ordered-set operations on a
    layer's occupancy set -- at most one per insert (the placement
    neighbor query) and one per remove (clearing the branch-point slot).
    ``nodes_spliced`` counts linked-list splice/unsplice events; every leaf
    created or dropped is exactly one splice and one ordered-set operation,
    so it is read-only and equals ``index_ops``.

    ``primitive_steps`` is the benchmark cost: one step per layer visited
    plus ``stride_bits`` steps per ordered-set operation, since a scan of a
    ``2**stride_bits``-slot mask resolves in at most ``stride_bits``
    word-sized probes.
    """

    __slots__ = ("stride_bits", "layers_visited", "index_ops")

    def __init__(self, stride_bits: int) -> None:
        self.stride_bits = stride_bits
        self.layers_visited = 0
        self.index_ops = 0

    @property
    def nodes_spliced(self) -> int:
        return self.index_ops

    @property
    def primitive_steps(self) -> int:
        return self.layers_visited + self.stride_bits * self.index_ops

    def snapshot(self) -> "OpStats":
        dup = OpStats(self.stride_bits)
        dup.layers_visited = self.layers_visited
        dup.index_ops = self.index_ops
        return dup

    def __repr__(self) -> str:
        return (
            f"OpStats(layers_visited={self.layers_visited}, "
            f"index_ops={self.index_ops}, nodes_spliced={self.nodes_spliced}, "
            f"primitive_steps={self.primitive_steps})"
        )


class _Corrupt(Exception):
    """A broken invariant found part-way through ``PTrie.validate``."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural audit plus a structure fingerprint."""

    ok: bool
    error: str | None
    fingerprint: str


class PTrie:
    """The queue itself.  See the module docstring for the data layout.

    >>> t = PTrie()
    >>> t.insert(7, "a"); t.insert(3, "b"); t.insert(7, "c")
    >>> t.delete_min()
    (3, 'b')
    >>> t.delete_min(), t.delete_min()
    ((7, 'a'), (7, 'c'))
    """

    __slots__ = (
        "config",
        "root",
        "head",
        "tail",
        "count",
        "last_op_stats",
        "_shifts",
        "_chunk_mask",
        "_key_mask",
        "_degree",
        "_depth_max",
        "_path",
        "_free_leaves",
        "_free_layers",
    )

    def __init__(self, config: PTrieConfig | None = None) -> None:
        self.config = config if config is not None else PTrieConfig()
        cfg = self.config
        self._degree = cfg.degree
        self._depth_max = cfg.depth_max
        self._key_mask = cfg.key_mask
        self._chunk_mask = self._degree - 1
        # shift per depth, MSB-first: depth 0 reads the top chunk
        self._shifts = tuple(
            cfg.word_bits - cfg.stride_bits * (d + 1) for d in range(cfg.depth_max)
        )
        self.root = Layer(self._degree)
        self.head: LeafNode | None = None
        self.tail: LeafNode | None = None
        self.count = 0
        self.last_op_stats = OpStats(cfg.stride_bits)
        # reusable insert-descent buffer, safe under the single-writer contract
        self._path: list[Layer] = [self.root] * self._depth_max
        # cleared leaves and layers awaiting reuse, each at most FREE_LIST_CAP
        self._free_leaves: list[LeafNode] = []
        self._free_layers: list[Layer] = []

    # ------------------------------------------------------------------ core

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def _check_key(self, key: int) -> None:
        if not isinstance(key, int) or isinstance(key, bool):
            raise TypeError(f"key must be an int, got {type(key).__name__}")
        if key < 0 or key > self._key_mask:
            raise ValueError(
                f"key {key} outside the {self.config.word_bits}-bit unsigned range"
            )

    def insert(self, key: int, payload: Any = None) -> None:
        """File ``payload`` under ``key``; equal keys keep arrival order."""
        if type(key) is not int or not 0 <= key <= self._key_mask:
            self._check_key(key)
        shifts = self._shifts
        cmask = self._chunk_mask
        path = self._path  # path[0] is always the root
        layer = self.root
        depth = 0
        while True:
            c = (key >> shifts[depth]) & cmask
            slot = layer.slots[c]
            if type(slot) is Layer:
                layer = slot
                depth += 1
                path[depth] = layer
                continue
            if slot is None:
                self._place(layer, c, key, payload, path, depth)
                index_ops = 1
            elif slot.key == key:
                rest = slot.rest
                if rest is None:
                    slot.rest = deque((payload,))
                else:
                    rest.append(payload)
                index_ops = 0
            else:
                # occupied by a different key: push the resident one level
                # down and retry there
                if depth + 1 >= self._depth_max:
                    raise RuntimeError("distinct keys collide at maximum depth")
                free = self._free_layers
                child = free.pop() if free else Layer(self._degree)
                oc = (slot.key >> shifts[depth + 1]) & cmask
                child.slots[oc] = slot
                child.occupied = 1 << oc
                child.min_leaf = slot
                child.max_leaf = slot
                slot.depth += 1
                layer.slots[c] = child
                layer = child
                depth += 1
                path[depth] = layer
                continue
            st = self.last_op_stats
            st.layers_visited = depth + 1
            st.index_ops = index_ops
            self.count += 1
            return

    def _place(
        self,
        layer: Layer,
        c: int,
        key: int,
        payload: Any,
        path: list[Layer],
        depth: int,
    ) -> None:
        """Put a fresh leaf into empty slot ``c`` and splice it into the list.

        The linked-list neighbor comes from the nearest occupied slot on
        either side: everything under a lower slot sorts below ``key`` and
        everything under a higher slot sorts above it, so the predecessor
        subtree's ``max_leaf`` (or the successor subtree's ``min_leaf``) is
        the exact splice point.  A lower neighbor sits in every subtree on
        the path, so no ``min_leaf`` there can change; a layer gains the
        new leaf as ``max_leaf`` exactly when its ``max_leaf`` was ``left``,
        and since deeper subtrees nest in shallower ones the refresh stops
        at the first layer, walking up, where it was not.  A higher
        neighbor is the mirror case.

        The leaf comes off the free list when one waits there; a free leaf
        has no payload and no links, and the splice sets both links.
        """
        free = self._free_leaves
        if free:
            leaf = free.pop()
            leaf.key = key
            leaf.first = payload
            leaf.depth = depth
        else:
            leaf = LeafNode(key, payload, depth)
        occ = layer.occupied
        lower = occ & ((1 << c) - 1)
        if lower:
            nb = layer.slots[lower.bit_length() - 1]
            left = nb if type(nb) is LeafNode else nb.max_leaf
            leaf.prev = left
            leaf.next = left.next
            if left.next is None:
                self.tail = leaf
            else:
                left.next.prev = leaf
            left.next = leaf
            for d in range(depth, -1, -1):
                ly = path[d]
                if ly.max_leaf is not left:
                    break
                ly.max_leaf = leaf
        else:
            higher = occ >> (c + 1)
            if higher:
                s = c + 1 + (higher & -higher).bit_length() - 1
                nb = layer.slots[s]
                right = nb if type(nb) is LeafNode else nb.min_leaf
                leaf.next = right
                leaf.prev = right.prev
                if right.prev is None:
                    self.head = leaf
                else:
                    right.prev.next = leaf
                right.prev = leaf
                for d in range(depth, -1, -1):
                    ly = path[d]
                    if ly.min_leaf is not right:
                        break
                    ly.min_leaf = leaf
            else:
                # only an empty trie reaches here: non-root layers are
                # created around a displaced resident
                self.head = leaf
                self.tail = leaf
                layer.min_leaf = leaf
                layer.max_leaf = leaf
        layer.slots[c] = leaf
        layer.occupied = occ | (1 << c)

    def remove(self, key: int) -> Any:
        """Dequeue the oldest payload filed under ``key``.

        Returns ``ABSENT`` when the key is not stored.  The lookup is
        ``find_node``'s descent, so a miss or a pop from a multi-payload
        leaf charges exactly what that descent charged.  When the dequeue
        empties the leaf, the leaf is unlinked and one walk from the root
        along its key refreshes the subtree extrema it held and finds the
        deepest layer with two or more occupied slots (or the root); that
        branch point's slot is cleared, and the leaf and the single-slot
        chain of layers hanging below it go to the free lists.
        """
        leaf = self.find_node(key)
        if leaf is None:
            return ABSENT
        payload = leaf.first
        self.count -= 1
        rest = leaf.rest
        if rest is not None:
            leaf.first = rest.popleft()
            if not rest:
                leaf.rest = None
            return payload
        self.last_op_stats.index_ops = 1
        prv = leaf.prev
        nxt = leaf.next
        if prv is None:
            self.head = nxt
        else:
            prv.next = nxt
        if nxt is None:
            self.tail = prv
        else:
            nxt.prev = prv
        shifts = self._shifts
        cmask = self._chunk_mask
        depth = leaf.depth
        layer = branch = self.root
        c = bc = (key >> shifts[0]) & cmask
        d = 0
        while True:
            if layer.min_leaf is leaf:
                layer.min_leaf = nxt
            if layer.max_leaf is leaf:
                layer.max_leaf = prv
            occ = layer.occupied
            if occ & (occ - 1):
                branch = layer
                bc = c
            if d == depth:
                break
            layer = layer.slots[c]
            d += 1
            c = (key >> shifts[d]) & cmask
        branch.occupied &= ~(1 << bc)
        node = branch.slots[bc]
        branch.slots[bc] = None
        # recycle the chain below the branch point: the walk above has
        # visited and charged each of its layers
        free = self._free_layers
        while node is not leaf and len(free) < FREE_LIST_CAP:
            oc = node.occupied.bit_length() - 1
            below = node.slots[oc]
            node.slots[oc] = None
            node.occupied = 0
            node.min_leaf = node.max_leaf = None
            free.append(node)
            node = below
        free = self._free_leaves
        if len(free) < FREE_LIST_CAP:
            leaf.first = leaf.prev = leaf.next = None
            free.append(leaf)
        return payload

    def search(self, key: int) -> bool:
        """Pure membership probe; touches nothing but ``last_op_stats``."""
        return self.find_node(key) is not None

    def minimum(self) -> tuple[int, Any] | None:
        """Smallest key and its oldest payload, or None when empty.  O(1)."""
        h = self.head
        if h is None:
            return None
        return (h.key, h.first)

    def maximum(self) -> tuple[int, Any] | None:
        """Largest key and its oldest payload, or None when empty.  O(1)."""
        t = self.tail
        if t is None:
            return None
        return (t.key, t.first)

    def delete_min(self) -> tuple[int, Any] | None:
        """Extract the minimum; equivalent to ``remove(minimum().key)``.

        The head leaf's stored depth gives the step count without a
        descent when the leaf keeps payloads.  When it empties, one descent
        along its key finds the deepest branch point: the head is the
        smallest leaf of every subtree on its path, so each of those layers
        takes ``next`` as its ``min_leaf``, and it is never their
        ``max_leaf`` unless it was the last leaf of the whole trie.  The
        leaf and the layers below the branch point are recycled as in
        ``remove``.
        """
        h = self.head
        if h is None:
            return None
        st = self.last_op_stats
        depth = h.depth
        st.layers_visited = depth + 1
        self.count -= 1
        key = h.key
        payload = h.first
        rest = h.rest
        if rest is not None:
            h.first = rest.popleft()
            if not rest:
                h.rest = None
            st.index_ops = 0
            return (key, payload)
        st.index_ops = 1
        nxt = h.next
        self.head = nxt
        if nxt is None:
            self.tail = None
        else:
            nxt.prev = None
        shifts = self._shifts
        cmask = self._chunk_mask
        layer = branch = self.root
        c = bc = (key >> shifts[0]) & cmask
        d = 0
        while True:
            layer.min_leaf = nxt
            occ = layer.occupied
            if occ & (occ - 1):
                branch = layer
                bc = c
            if d == depth:
                break
            layer = layer.slots[c]
            d += 1
            c = (key >> shifts[d]) & cmask
        branch.occupied &= ~(1 << bc)
        node = branch.slots[bc]
        branch.slots[bc] = None
        if nxt is None:
            self.root.max_leaf = None
        free = self._free_layers
        while node is not h and len(free) < FREE_LIST_CAP:
            oc = node.occupied.bit_length() - 1
            below = node.slots[oc]
            node.slots[oc] = None
            node.occupied = 0
            node.min_leaf = node.max_leaf = None
            free.append(node)
            node = below
        free = self._free_leaves
        if len(free) < FREE_LIST_CAP:
            h.first = h.next = None
            free.append(h)
        return (key, payload)

    # ------------------------------------------------------------- iteration

    def first_node(self) -> LeafNode | None:
        """Leaf with the smallest key; ``node.next`` walks ascending keys.

        The leaf is valid while its key is stored: after the key's last
        payload is removed the object may be reused for another key.
        """
        return self.head

    def last_node(self) -> LeafNode | None:
        """Leaf with the largest key; ``node.prev`` walks descending keys.

        Valid for as long as ``first_node``'s leaf is.
        """
        return self.tail

    def find_node(self, key: int) -> LeafNode | None:
        """The leaf storing ``key``, or None.

        This is the trie's one lookup descent; ``search`` and ``remove``
        both run it.  It refreshes ``last_op_stats`` like any other
        operation: one layer visited per level descended, no ordered-set
        operation charged.  The leaf is valid while ``key`` is stored, as
        for ``first_node``.
        """
        if type(key) is not int or not 0 <= key <= self._key_mask:
            self._check_key(key)
        shifts = self._shifts
        cmask = self._chunk_mask
        layer = self.root
        depth = 0
        while True:
            slot = layer.slots[(key >> shifts[depth]) & cmask]
            if type(slot) is not Layer:
                break
            layer = slot
            depth += 1
        st = self.last_op_stats
        st.layers_visited = depth + 1
        st.index_ops = 0
        if slot is None or slot.key != key:
            return None
        return slot

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        """Yield ``(key, payload)`` pairs in exact drain order."""
        node = self.head
        while node is not None:
            key = node.key
            yield (key, node.first)
            if node.rest is not None:
                for payload in node.rest:
                    yield (key, payload)
            node = node.next

    def keys(self) -> Iterator[int]:
        """Distinct keys in ascending order."""
        node = self.head
        while node is not None:
            yield node.key
            node = node.next

    # ------------------------------------------------------------ validation

    def validate(self) -> ValidationReport:
        """Audit every structural invariant; O(size), not for hot paths.

        Checks, in order: the free lists are within ``FREE_LIST_CAP``, hold
        no object twice and hold only cleared objects (a free leaf has no
        payload, overflow deque or link; a free layer has no occupied slot
        and no extrema); then, in a walk of the trie, no free object is
        reachable from the root, depth bounds, every leaf sits on its key's
        chunk path and records the depth it is filed at, no overflow deque
        is left empty, occupancy masks match slot contents, no empty
        non-root layer, subtree ``min_leaf``/``max_leaf`` caches are exact;
        then the linked list is doubly consistent, ascends strictly by key,
        agrees with the trie's left-to-right leaf order, and ``count``
        equals the payload total.

        The fingerprint hashes the audited shape (the free lists are not
        part of it) and is stable across processes for equal structures.
        The audit holds a bounded number of objects at a time, however
        large the trie.
        """
        return _Audit(self).run()

    def stats(self) -> OpStats:
        """Copy of the most recent operation's instrumentation."""
        return self.last_op_stats.snapshot()

    def __repr__(self) -> str:
        return (
            f"PTrie(word_bits={self.config.word_bits}, "
            f"stride_bits={self.config.stride_bits}, count={self.count})"
        )


class _Audit:
    """One run of ``PTrie.validate``, in memory independent of the size.

    The fingerprint is the sha256 of ``b"|".join(trail) + b"#" +
    b",".join(order)``: ``trail`` has ``L<level>:<mask>`` for each layer
    and ``K<key>:<payloads>`` for each leaf in walk order, ``order`` has
    each key along the linked list.  Both are fed to the hash in batches
    of about ``_HASH_BATCH`` items.  Each layer's walk returns the extreme
    leaves of its subtree for the ``min_leaf``/``max_leaf`` checks, and a
    cursor follows the linked list as leaves turn up in trie order, so the
    list walk can report the first node where the two orders part.
    """

    __slots__ = ("trie", "free", "digest", "batch", "fed", "cursor", "leaves",
                 "mismatch")

    def __init__(self, trie: PTrie) -> None:
        self.trie = trie
        self.free: set[LeafNode | Layer] = set()
        self.digest = hashlib.sha256()
        self.batch: list[bytes] = []
        self.fed = False  # whether this part of the hash has items yet
        self.cursor = trie.head  # list node due at the next trie-order leaf
        self.leaves = 0  # leaves met in trie order so far
        self.mismatch = -1  # first trie-order index the list disagrees at

    def run(self) -> ValidationReport:
        err = self.free_lists() or self.trie_order() or self.list_order()
        if err is not None:
            return ValidationReport(False, err, "")
        return ValidationReport(True, None, self.digest.hexdigest())

    def feed(self, sep: bytes) -> None:
        """Hash the batched items, ``sep``-joined onto what came before."""
        batch = self.batch
        if batch:
            if self.fed:
                self.digest.update(sep)
            self.digest.update(sep.join(batch))
            self.fed = True
            batch.clear()

    def free_lists(self) -> str | None:
        t = self.trie
        leaves, layers = t._free_leaves, t._free_layers
        for kind, pool in (("leaf", leaves), ("layer", layers)):
            if len(pool) > FREE_LIST_CAP:
                return (f"free {kind} list holds {len(pool)} objects, "
                        f"cap is {FREE_LIST_CAP}")
        free = self.free
        free.update(leaves)
        free.update(layers)
        if len(free) != len(leaves) + len(layers):
            return "an object sits on the free lists twice"
        for leaf in leaves:
            if type(leaf) is not LeafNode or not (
                leaf.first is None and leaf.rest is None
                and leaf.prev is None and leaf.next is None
            ):
                return f"free leaf not cleared: {leaf!r}"
        degree = t._degree
        for ly in layers:
            if type(ly) is not Layer or not (
                ly.occupied == 0 and ly.min_leaf is None and ly.max_leaf is None
                and len(ly.slots) == degree and ly.slots.count(None) == degree
            ):
                return f"free layer not cleared: {ly!r}"
        return None

    def trie_order(self) -> str | None:
        try:
            self.walk(self.trie.root, 0)
        except _Corrupt as err:
            return str(err)
        self.feed(b"|")
        self.digest.update(b"#")
        self.fed = False
        return None

    def walk(self, layer: Layer, depth: int) -> tuple[LeafNode | None, LeafNode | None]:
        """Audit ``layer``'s subtree and return its smallest and largest leaf."""
        t = self.trie
        level = depth + 1
        if depth >= t._depth_max:
            raise _Corrupt(f"layer deeper than depth_max at level {level}")
        if len(layer.slots) != t._degree:
            raise _Corrupt(f"slot array of wrong degree at level {level}")
        shift = t._shifts[depth]
        cmask = t._chunk_mask
        free = self.free
        batch = self.batch
        occ = 0
        lo = hi = None
        batch.append(b"L%d:%x" % (level, layer.occupied))
        for c, slot in enumerate(layer.slots):
            if slot is None:
                continue
            occ |= 1 << c
            if slot in free:
                raise _Corrupt(f"free {type(slot).__name__} reachable from the "
                               f"root in slot {c} at level {level}")
            if type(slot) is LeafNode:
                if (slot.key >> shift) & cmask != c:
                    raise _Corrupt(f"leaf {slot.key:#x} filed in slot {c} at "
                                   f"level {level}")
                if slot.depth != depth:
                    raise _Corrupt(f"leaf {slot.key:#x} records depth "
                                   f"{slot.depth}, filed at depth {depth}")
                if slot.rest is not None and not slot.rest:
                    raise _Corrupt(f"empty overflow deque at key {slot.key:#x}")
                batch.append(b"K%x:%d" % (slot.key, _queued(slot)))
                if self.mismatch < 0:
                    if self.cursor is slot:
                        self.cursor = slot.next
                    else:
                        self.mismatch = self.leaves
                self.leaves += 1
                first = last = slot
            else:
                first, last = self.walk(slot, depth + 1)
            if lo is None:
                lo = first
            hi = last
        if len(batch) >= _HASH_BATCH:
            self.feed(b"|")
        if occ != layer.occupied:
            raise _Corrupt(f"occupancy mask {layer.occupied:#x} != contents "
                           f"{occ:#x} at level {level}")
        if occ == 0 and layer is not t.root:
            raise _Corrupt(f"empty layer at level {level}")
        if layer.min_leaf is not lo:
            raise _Corrupt(f"min_leaf mismatch at level {level}")
        if layer.max_leaf is not hi:
            raise _Corrupt(f"max_leaf mismatch at level {level}")
        return lo, hi

    def list_order(self) -> str | None:
        t = self.trie
        batch = self.batch
        leaves, mismatch = self.leaves, self.mismatch
        node = t.head
        seen = 0
        payloads = 0
        prev: LeafNode | None = None
        while node is not None:
            if node.prev is not prev:
                return f"broken prev link at key {node.key:#x}"
            if prev is not None and prev.key >= node.key:
                return f"list not ascending: {prev.key:#x} before {node.key:#x}"
            if seen >= leaves or seen == mismatch:
                return f"list order diverges from trie at key {node.key:#x}"
            batch.append(b"%x" % node.key)
            if len(batch) >= _HASH_BATCH:
                self.feed(b",")
            payloads += _queued(node)
            prev = node
            node = node.next
            seen += 1
        if seen != leaves:
            return f"list has {seen} leaves, trie has {leaves}"
        if t.tail is not prev:
            return "tail does not end the list"
        if payloads != t.count:
            return f"count {t.count} != stored payloads {payloads}"
        self.feed(b",")
        return None

