"""Core queue behavior: ordering, stability, structure, instrumentation."""

import hashlib
import random
import tracemalloc
import weakref
from collections import deque

import pytest

import prefixpq
from helpers import (
    chunk,
    cleared_leaf,
    free_layers,
    free_leaves,
    head,
    is_layer,
    layers,
    leaf,
    root,
    run_differential,
)
from prefixpq import ABSENT, PTrie, PTrieConfig
from prefixpq.analysis import count_layers_per_level
from prefixpq.oracles import StableListPQ
from prefixpq.ptrie import FREE_LIST_CAP


def make(word_bits=32, stride_bits=4):
    return PTrie(PTrieConfig(word_bits, stride_bits))


class TestConfig:
    def test_defaults(self):
        t = PTrie()
        assert t.config.word_bits == 32
        assert t.config.stride_bits == 4
        assert t.config.degree == 16
        assert t.config.depth_max == 8

    def test_single_level_config(self):
        # an 8/8 trie is one 256-slot table
        t = make(8, 8)
        assert t.config.degree == 256
        assert t.config.depth_max == 1
        for k in (0, 255, 17, 17):
            t.insert(k, k)
        assert count_layers_per_level(t) == [1]
        assert not any(is_layer(s) for s in root(t).slots)
        assert [k for k, _ in t] == [0, 17, 17, 255]
        assert t.validate().ok

    @pytest.mark.parametrize(
        "m,k", [(32, 5), (32, 0), (32, 9), (0, 4), (7, 2), (12, 8)]
    )
    def test_bad_config_rejected(self, m, k):
        with pytest.raises(ValueError):
            PTrieConfig(m, k)

    def test_wide_config(self):
        t = make(64, 8)
        big = (1 << 64) - 1
        t.insert(big, "top")
        t.insert(0, "bottom")
        assert t.minimum() == (0, "bottom")
        assert t.maximum() == (big, "top")
        assert t.validate().ok


class TestSurface:
    def test_nodes_stay_internal(self):
        assert "LeafNode" not in prefixpq.__all__
        assert "Layer" not in prefixpq.__all__
        t = make()
        t.insert(5, "a")
        for name in ("first_node", "last_node", "find_node",
                     "root", "head", "tail"):
            assert not hasattr(t, name), name


class TestInsert:
    def test_fifo_at_equal_keys(self):
        t = make()
        for key, payload in [(7, "a"), (3, "b"), (7, "c")]:
            t.insert(key, payload)
        assert [t.delete_min() for _ in range(3)] == [
            (3, "b"), (7, "a"), (7, "c"),
        ]

    def test_duplicate_insert_grows_queue_not_structure(self):
        t = make()
        t.insert(42, 1)
        fp_before = t.validate().fingerprint
        t.insert(42, 2)
        assert t.count == 2
        st = t.stats()
        assert st.index_ops == 0
        assert st.nodes_spliced == 0
        # same leaves, deeper queue
        assert [p for _, p in t] == [1, 2]
        fp_after = t.validate().fingerprint
        assert fp_before != fp_after  # queue depth is part of the shape

    def test_shared_prefix_pushdown(self):
        # 0x10 and 0x1F share the top nibble at 8/4: one child layer,
        # leaves in its slots 0x0 and 0xF
        t = make(8, 4)
        t.insert(0x10, "x")
        t.insert(0x1F, "y")
        child = root(t).slots[0x1]
        assert is_layer(child) and count_layers_per_level(t) == [1, 1]
        assert child.slots[0x0].key == 0x10
        assert child.slots[0xF].key == 0x1F
        assert t.minimum()[0] == 0x10 and t.maximum()[0] == 0x1F
        assert t.validate().ok

    def test_deep_prefix_pushdown_to_last_level(self):
        t = make()
        t.insert(0x1234ABCD, 1)
        t.insert(0x1234ABCE, 2)
        layer, depth = root(t), 1
        while is_layer(layer.slots[chunk(t, 0x1234ABCD, depth - 1)]):
            layer = layer.slots[chunk(t, 0x1234ABCD, depth - 1)]
            depth += 1
        assert depth == 8  # both leaves live at the deepest level
        assert layer.slots[0xD].key == 0x1234ABCD
        assert layer.slots[0xE].key == 0x1234ABCE
        assert [k for k, _ in t] == [0x1234ABCD, 0x1234ABCE]
        assert t.validate().ok

    def test_interleaved_inserts_link_in_key_order(self):
        t = make(16, 4)
        keys = [0x8000, 0x0001, 0xFFFF, 0x8001, 0x7FFF, 0x8000]
        for i, k in enumerate(keys):
            t.insert(k, i)
        assert list(t.keys()) == [0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF]
        assert [p for _, p in t] == [1, 4, 0, 5, 3, 2]
        assert t.validate().ok

    @pytest.mark.parametrize("key", [-1, 1 << 32, 1 << 40])
    def test_insert_rejects_out_of_range(self, key):
        with pytest.raises(ValueError):
            make().insert(key)

    def test_insert_rejects_non_int(self):
        with pytest.raises(TypeError):
            make().insert("7")
        with pytest.raises(TypeError):
            make().insert(True)

    def test_int_subclass_key_takes_the_checked_path(self):
        class Key(int):
            pass

        t = make(8, 4)
        t.insert(Key(7), "a")
        assert t.minimum() == (7, "a")
        with pytest.raises(ValueError, match="outside the 8-bit unsigned range"):
            t.insert(Key(256))

    def test_none_payload_is_storable(self):
        t = make()
        t.insert(5, None)
        assert t.minimum() == (5, None)
        assert t.remove(5) is None
        assert t.remove(5) is ABSENT


class TestRemove:
    def test_remove_absent_returns_sentinel(self):
        t = make()
        assert t.remove(9) is ABSENT
        t.insert(9, "here")
        assert t.remove(10) is ABSENT
        assert t.remove(9) == "here"
        assert t.remove(9) is ABSENT

    def test_remove_dequeues_fifo(self):
        t = make()
        for p in "abc":
            t.insert(4, p)
        assert [t.remove(4) for _ in range(3)] == ["a", "b", "c"]

    def test_remove_snips_dead_chain(self):
        # deep shared prefix, then remove one of the pair: the chain of
        # single-slot layers below the branch disappears from the root
        t = make(8, 4)
        t.insert(0x10, "x")
        t.insert(0x1F, "y")
        assert t.remove(0x10) == "x"
        child = root(t).slots[0x1]
        assert is_layer(child)
        assert child.occupied == 1 << 0xF
        assert t.minimum() == (0x1F, "y")
        assert t.validate().ok

    def test_remove_last_leaf_under_root(self):
        t = make()
        t.insert(123, "only")
        assert t.remove(123) == "only"
        assert t.count == 0
        assert t.minimum() is None and t.maximum() is None
        assert root(t).occupied == 0
        assert t.validate().ok

    def test_min_max_caches_repair_on_remove(self):
        t = make(16, 4)
        keys = [0x1111, 0x1112, 0x1120, 0x2000]
        for k in keys:
            t.insert(k, k)
        assert t.remove(0x1111) == 0x1111  # was the global minimum
        assert t.minimum() == (0x1112, 0x1112)
        assert t.remove(0x2000) == 0x2000  # was the global maximum
        assert t.maximum() == (0x1120, 0x1120)
        assert t.validate().ok

    def test_delete_min_equals_remove_of_minimum(self):
        t1, t2 = make(16, 4), make(16, 4)
        import random
        rng = random.Random(7)
        keys = [rng.randrange(1 << 16) for _ in range(500)]
        for i, k in enumerate(keys):
            t1.insert(k, i)
            t2.insert(k, i)
        while t1.count:
            key, _ = t1.minimum()
            assert t1.delete_min() == (key, t2.remove(key))
        assert t2.count == 0

    def test_delete_min_on_empty(self):
        assert make().delete_min() is None


class TestIteration:
    def test_node_walk_both_directions(self):
        t = make(16, 4)
        for i, k in enumerate([9, 1, 500, 3, 9]):
            t.insert(k, i)
        assert list(t.keys()) == [1, 3, 9, 500]
        assert list(reversed(t)) == [(500, 2), (9, 4), (9, 0), (3, 3), (1, 1)]
        # the backward walk stays the forward one reversed while keys come,
        # drain and go, duplicates included
        for m, k in [(8, 4), (16, 2), (32, 4), (32, 8)]:
            rng = random.Random(m * 10 + k)
            t = make(m, k)
            pool = [rng.getrandbits(m) for _ in range(12)]
            for i in range(600):
                r = rng.random()
                if r < 0.55:
                    t.insert(rng.choice(pool), i)
                elif r < 0.75:
                    t.delete_min()
                else:
                    t.remove(rng.choice(pool))
                assert list(reversed(t)) == list(t)[::-1]

    def test_iter_yields_drain_order(self):
        t = make()
        pairs = [(5, "a"), (2, "b"), (5, "c"), (1, "d")]
        for k, p in pairs:
            t.insert(k, p)
        assert list(t) == [(1, "d"), (2, "b"), (5, "a"), (5, "c")]
        # iteration is pure
        assert t.count == 4

    def test_find_node(self):
        t = make()
        t.insert(77, "p")
        assert leaf(t, 77).key == 77
        assert leaf(t, 78) is None


class TestSearch:
    def test_membership(self):
        t = make()
        t.insert(100, 1)
        t.insert(0xFFFFFFFF, 2)
        assert t.search(100)
        assert t.search(0xFFFFFFFF)
        assert not t.search(101)
        assert not t.search(0)

    def test_search_is_pure(self):
        t = make()
        for k in [3, 3, 99, 0x12345678, 0x12345679]:
            t.insert(k, k)
        before = t.validate()
        for probe in [3, 4, 99, 0x12345678, 0x00345678, 0]:
            t.search(probe)
        after = t.validate()
        assert after.ok
        assert after.fingerprint == before.fingerprint


class TestInstrumentation:
    def test_step_bound_on_deep_collision(self):
        t = make()  # 32/4: bound is 8 + 4 = 12
        t.insert(0x1234ABCD, 1)
        t.insert(0x1234ABCE, 2)
        st = t.stats()
        assert st.layers_visited == 8
        assert st.index_ops == 1
        assert st.primitive_steps == 12
        t.remove(0x1234ABCE)
        st = t.stats()
        assert st.layers_visited == 8
        assert st.primitive_steps == 12

    def test_search_charges_no_index_ops(self):
        t = make()
        t.insert(0xDEADBEEF, 1)
        t.search(0xDEADBEEF)
        st = t.stats()
        assert st.index_ops == 0
        assert st.nodes_spliced == 0
        assert 1 <= st.layers_visited <= 8

    def test_shallow_ops_are_cheap(self):
        t = make()
        t.insert(0, "a")
        assert t.stats().primitive_steps == 1 + 4  # root visit + one index op
        t.insert(1 << 31, "b")  # lands in a different root slot
        assert t.stats().layers_visited == 1

    def test_stats_snapshot_is_independent(self):
        t = make()
        t.insert(1)
        snap = t.stats()
        t.insert(0x0FFFFFFF)
        assert snap.layers_visited == 1

    def test_bound_holds_for_8_8(self):
        t = make(8, 8)  # bound is 1 + 8 = 9
        for k in range(256):
            t.insert(k)
            assert t.stats().primitive_steps <= 9
        while t.count:
            t.delete_min()
            assert t.stats().primitive_steps <= 9


class TestValidate:
    def test_empty_trie_validates(self):
        rep = make().validate()
        assert rep.ok and rep.error is None
        assert rep.fingerprint

    def test_fingerprint_deterministic(self):
        def build():
            t = make()
            for k in [5, 1, 5, 0xABCDEF, 3]:
                t.insert(k, "p")
            return t
        assert build().validate().fingerprint == build().validate().fingerprint

    def test_detects_bad_occupancy_mask(self):
        t = make()
        t.insert(10)
        root(t).occupied = 0
        rep = t.validate()
        assert not rep.ok
        assert "occupancy mask" in rep.error

    def test_detects_stale_min_cache(self):
        t = make(8, 4)
        t.insert(0x10)
        t.insert(0x1F)
        root(t).slots[1].min_leaf = root(t).slots[1].max_leaf
        rep = t.validate()
        assert not rep.ok
        assert "min_leaf mismatch" in rep.error

    def test_detects_broken_list(self):
        t = make()
        t.insert(1)
        t.insert(2)
        head(t).next = None  # tail now unreachable from head
        rep = t.validate()
        assert not rep.ok

    def test_detects_count_drift(self):
        t = make()
        t.insert(1)
        t.count = 5
        rep = t.validate()
        assert not rep.ok
        assert "count" in rep.error

    def test_detects_stale_leaf_depth(self):
        t = make(8, 4)
        t.insert(0x10)
        t.insert(0x1F)  # pushes 0x10 one level down
        leaf(t, 0x10).depth = 0
        rep = t.validate()
        assert not rep.ok
        assert "records depth 0, filed at depth 1" in rep.error

    def test_detects_empty_overflow_deque(self):
        t = make()
        t.insert(4, "a")
        leaf(t, 4).rest = deque()
        rep = t.validate()
        assert not rep.ok
        assert "empty overflow deque" in rep.error

    def test_audit_memory_is_bounded(self):
        # the audit feeds its hash in batches and keeps no per-leaf list
        t = make()
        rng = random.Random(11)
        for i in range(50_000):
            t.insert(rng.getrandbits(32), i)
        tracemalloc.start()
        try:
            rep = t.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok
        assert peak < 1 << 20

    def _with_free_objects(self):
        t = make(8, 4)
        for key in (0x10, 0x1F, 0x20):
            t.insert(key, key)
        t.remove(0x1F)  # its layer still holds 0x10
        t.remove(0x10)  # the leaf and the layer under root slot 1 go free
        assert (len(free_leaves(t)), len(free_layers(t))) == (2, 1)
        assert t.validate().ok
        return t

    def test_detects_dirty_free_leaf(self):
        t = self._with_free_objects()
        free_leaves(t)[0].first = "stale"
        rep = t.validate()
        assert not rep.ok
        assert "free leaf not cleared" in rep.error

    def test_detects_dirty_free_layer(self):
        t = self._with_free_objects()
        free_layers(t)[0].occupied = 1
        rep = t.validate()
        assert not rep.ok
        assert "free layer not cleared" in rep.error

    def test_detects_live_or_doubled_free_objects(self):
        t = make()
        t.insert(5)  # no payload and no neighbors: looks cleared
        free_leaves(t).append(leaf(t, 5))
        rep = t.validate()
        assert not rep.ok
        assert "free LeafNode reachable from the root" in rep.error
        dup = cleared_leaf()
        free_leaves(t)[:] = [dup, dup]
        assert "twice" in t.validate().error

    def test_detects_free_list_over_cap(self):
        t = make()
        free_leaves(t).extend(cleared_leaf() for _ in range(FREE_LIST_CAP + 1))
        rep = t.validate()
        assert not rep.ok
        assert f"cap is {FREE_LIST_CAP}" in rep.error


class TestLeafNode:
    def test_constructs_at_depth_zero(self):
        t = make()
        t.insert(9, "p")
        node = leaf(t, 9)
        assert (node.key, node.first, node.rest, node.depth) == (9, "p", None, 0)

    def test_overflow_deque_only_while_duplicated(self):
        t = make()
        t.insert(4, "a")
        node = leaf(t, 4)
        assert node.rest is None
        t.insert(4, "b")
        t.insert(4, "c")
        assert list(t) == [(4, "a"), (4, "b"), (4, "c")]
        assert t.delete_min() == (4, "a")
        assert t.remove(4) == "b"
        assert node.rest is None and list(t) == [(4, "c")]
        assert t.validate().ok

    def test_depth_tracks_pushdown(self):
        t = make()
        t.insert(0x1234ABCD)
        assert leaf(t, 0x1234ABCD).depth == 0
        t.insert(0x1234ABCE)  # shares seven chunks: both end at depth 7
        assert leaf(t, 0x1234ABCD).depth == 7
        assert leaf(t, 0x1234ABCE).depth == 7

    @pytest.mark.parametrize("payload", [None, (), (1, 2), deque(), deque([1])])
    def test_container_payloads_round_trip(self, payload):
        # payloads that look like the inline/overflow storage come back
        # as the same objects, alone and behind another payload
        t = make()
        t.insert(3, payload)
        t.insert(3, payload)
        t.insert(3, "z")
        assert [p for _, p in t] == [payload, payload, "z"]
        assert t.delete_min()[1] is payload
        assert t.remove(3) is payload
        assert t.delete_min() == (3, "z")
        t.insert(5, payload)
        assert t.minimum()[1] is payload and t.maximum()[1] is payload
        assert list(t) == [(5, payload)]
        assert t.delete_min()[1] is payload
        assert t.count == 0 and t.validate().ok


class _Payload:
    """A payload that can be weakly referenced."""


class TestRecycling:
    @pytest.mark.parametrize("m,k", [(8, 4), (32, 4)])
    def test_free_lists_keep_no_payload_alive(self, m, k):
        rng = random.Random(m * 10 + k)
        t = make(m, k)
        refs = []
        for _ in range(300):
            p = _Payload()
            refs.append(weakref.ref(p))
            t.insert(rng.getrandbits(m), p)
        del p
        key, p = t.delete_min()
        r = weakref.ref(p)
        del p
        assert r() is None
        key = t.maximum()[0]
        r = weakref.ref(t.remove(key))
        assert r() is None
        while t:
            t.delete_min()
        assert free_leaves(t) and not any(r() for r in refs)
        assert t.validate().ok

    def test_emptied_leaves_and_layers_are_refiled(self):
        rng = random.Random(3)
        t = make(16, 4)
        first = rng.sample(range(1 << 16), 200)
        for key in first:
            t.insert(key)
        leaves = [leaf(t, key) for key in first]
        old_layers = layers(t)
        for key in first[:100]:
            t.remove(key)
        while t:
            t.delete_min()
        second = rng.sample(range(1 << 16), 200)
        for key in second:
            t.insert(key)
        # the test holds every old object, so no id can be reused
        assert {id(leaf(t, key)) for key in second} == {id(x) for x in leaves}
        shared = {id(x) for x in layers(t)} & {id(x) for x in old_layers}
        assert len(shared) == min(len(old_layers), len(layers(t))) > 0
        assert t.validate().ok

    @pytest.mark.parametrize("m,k", [(8, 4), (16, 2), (32, 4), (32, 8)])
    def test_drain_and_refill_across_the_cap(self, m, k):
        # a twin that never reuses an object must take the same steps and
        # reach the same shapes; the sorted list fixes the drain order
        rng = random.Random(m * 10 + k)
        t, twin, ref = make(m, k), make(m, k), StableListPQ()
        seq = 0
        for n in (300, 1500, 40, 2500):
            keys = [rng.getrandbits(m) for _ in range(n)]
            spare = len(free_leaves(t))
            for key in keys:
                t.insert(key, seq)
                twin.insert(key, seq)
                ref.insert(key, seq)
                seq += 1
                assert _op_triple(t) == _op_triple(twin)
                free_leaves(twin).clear()
                free_layers(twin).clear()
            assert t.validate().fingerprint == twin.validate().fingerprint
            while t:
                if rng.random() < 0.5:
                    got, want = t.delete_min(), ref.delete_min()
                    assert twin.delete_min() == got
                else:
                    key = rng.choice(keys)
                    got, want = t.remove(key), ref.remove(key)
                    assert twin.remove(key) == got
                    if got is ABSENT:
                        got = want = None
                assert got == want
                assert _op_triple(t) == _op_triple(twin)
                free_leaves(twin).clear()
                free_layers(twin).clear()
            assert len(ref) == 0
            rep = t.validate()
            assert rep.ok and rep.fingerprint == twin.validate().fingerprint
            # the refill took spare leaves first; the drain freed one per key
            distinct = len(set(keys))
            assert len(free_leaves(t)) == min(FREE_LIST_CAP, max(spare, distinct))
            assert len(free_layers(t)) <= FREE_LIST_CAP
        if m > 8:
            assert len(free_leaves(t)) == FREE_LIST_CAP


def _op_triple(t):
    st = t.last_op_stats
    return (st.layers_visited, st.index_ops, st.nodes_spliced)


class TestDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sorted_list_reference(self, seed):
        verdict = run_differential(seed, n_ops=2000, word_bits=16)
        assert verdict.matched, verdict.first_divergence

    def test_small_words_stress_pushdown(self):
        # 8-bit keys collide constantly; every structural path gets hit
        for seed in range(6):
            verdict = run_differential(
                seed, n_ops=1500, word_bits=8, stride_bits=2,
                validate_every=250,
            )
            assert verdict.matched, verdict.first_divergence

    @pytest.mark.parametrize("m,k", [(8, 1), (8, 8), (16, 2), (32, 8), (64, 8)])
    def test_other_geometries(self, m, k):
        verdict = run_differential(99, n_ops=1200, word_bits=m, stride_bits=k)
        assert verdict.matched, verdict.first_divergence


# Pinned digest of the cost-model script below: every result, every
# (layers_visited, index_ops, nodes_spliced) triple and a validate()
# fingerprint every 100 ops.  A change to drain order, step counts or
# trie shape changes it.
_COST_MODEL_DIGEST = (
    "4d84f50d62d57bd3c6fada8d5f74aee24f5207a42f4ce048ac9e444fe6562119"
)
_COST_MODEL_GEOMETRIES = [(8, 4), (16, 2), (32, 4), (32, 8), (64, 8), (12, 3)]


def _cost_model_digest(n_ops=3000):
    h = hashlib.sha256()
    for m, k in _COST_MODEL_GEOMETRIES:
        rng = random.Random(m * 100 + k)
        t = make(m, k)
        # few distinct keys, half of them sharing a long prefix, so leaves
        # hold long FIFOs at every depth
        base = rng.getrandbits(m)
        pool = [rng.getrandbits(m) for _ in range(8)]
        pool += [base ^ rng.getrandbits(min(m, 5)) for _ in range(8)]
        for i in range(n_ops):
            r = rng.random()
            if r < 0.45:
                res = t.insert(rng.choice(pool), i)
            elif r < 0.65:
                res = t.delete_min()
            elif r < 0.85:
                hit = rng.random() < 0.7
                res = t.remove(rng.choice(pool) if hit else rng.getrandbits(m))
            else:
                hit = rng.random() < 0.5
                res = t.search(rng.choice(pool) if hit else rng.getrandbits(m))
            st = t.last_op_stats
            assert st.nodes_spliced == st.index_ops
            h.update(b"%r|%d,%d,%d;" % (
                res, st.layers_visited, st.index_ops, st.nodes_spliced))
            if i % 100 == 0:
                h.update(t.validate().fingerprint.encode())
        h.update(t.validate().fingerprint.encode())
    return h.hexdigest()


class TestCostModel:
    def test_script_digest_and_find_node_stats(self):
        assert _cost_model_digest() == _COST_MODEL_DIGEST
        # search runs the lookup descent that remove shares, and reports
        # that descent alone
        t = make(8, 4)
        for key in (0x10, 0x1F, 0xA0):
            t.insert(key)
        st = t.last_op_stats
        for key, visited in [(0x10, 2), (0x1E, 2), (0xA0, 1), (0x50, 1)]:
            st.layers_visited = st.index_ops = -1
            t.search(key)
            assert (st.layers_visited, st.index_ops) == (visited, 0)
