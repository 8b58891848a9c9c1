"""Property-based checks: the trie against simple executable models."""

import random

from hypothesis import example, given, settings, strategies as st

from helpers import run_differential
from prefixpq import ABSENT, PTrie, PTrieConfig, SignedPTrie
from prefixpq.oracles import ORACLE_ABSENT, StableListPQ

_key16 = st.integers(min_value=0, max_value=(1 << 16) - 1)
_key32 = st.integers(min_value=0, max_value=(1 << 32) - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(_key32, max_size=200))
def test_drain_is_stable_sort(keys):
    t = PTrie()
    for i, k in enumerate(keys):
        t.insert(k, i)
    drained = [t.delete_min() for _ in range(len(keys))]
    expected = sorted(((k, i) for i, k in enumerate(keys)), key=lambda kv: kv[0])
    assert drained == expected
    assert t.count == 0 and t.minimum() is None


@settings(max_examples=60, deadline=None)
@given(st.lists(_key16, max_size=150), st.randoms(use_true_random=False))
def test_mixed_ops_match_reference(keys, rng):
    t = PTrie(PTrieConfig(16, 4))
    ref = StableListPQ()
    live = list(keys)
    for i, k in enumerate(keys):
        t.insert(k, i)
        ref.insert(k, i)
        if rng.random() < 0.4 and live:
            probe = rng.choice(live)
            got, exp = t.remove(probe), ref.remove(probe)
            assert (got is ABSENT) == (exp is ORACLE_ABSENT)
            if got is not ABSENT:
                assert got == exp
        if rng.random() < 0.2:
            assert t.delete_min() == ref.delete_min()
        assert t.minimum() == ref.minimum()
        assert t.maximum() == ref.maximum()
        assert len(t) == len(ref)
    assert t.validate().ok
    assert [kv for kv in t] == ref.drain()


@settings(max_examples=40, deadline=None)
@given(st.lists(_key16, min_size=1, max_size=100))
def test_structure_validates_after_every_insert(keys):
    t = PTrie(PTrieConfig(16, 4))
    for k in keys:
        t.insert(k)
        report = t.validate()
        assert report.ok, report.error


@settings(max_examples=40, deadline=None)
@given(st.lists(_key16, min_size=1, max_size=100), st.integers(0, 2**32))
def test_structure_validates_while_draining(keys, seed):
    rng = random.Random(seed)
    t = PTrie(PTrieConfig(16, 4))
    for k in keys:
        t.insert(k)
    while t.count:
        if rng.random() < 0.5:
            t.delete_min()
        else:
            t.remove(rng.choice(keys))
        report = t.validate()
        assert report.ok, report.error


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([(8, 4), (16, 2), (32, 4), (32, 8)]),
       st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=8, max_size=8),
       st.lists(st.tuples(st.sampled_from(("insert", "insert", "delete_min",
                                           "remove")),
                          st.integers(min_value=0, max_value=7)),
                max_size=150))
@example((16, 2), [(i * 0x9E3779B97F4A7C15) % 2**64 for i in range(8)],
         [("insert", 0)] * 4 + [("insert", 5)] * 3
         + [("remove", 0), ("delete_min", 0), ("insert", 0), ("insert", 5)])
def test_forward_and_backward_walks_agree(geometry, spread, ops):
    m, k = geometry
    keys = [x >> (64 - m) for x in spread]
    t, ref = PTrie(PTrieConfig(m, k)), StableListPQ()
    for i, (kind, ix) in enumerate(ops):
        if kind == "insert":
            t.insert(keys[ix], i)
            ref.insert(keys[ix], i)
        elif kind == "delete_min":
            assert t.delete_min() == ref.delete_min()
        else:
            t.remove(keys[ix])
            ref.remove(keys[ix])
        assert list(reversed(t)) == list(t)[::-1]
    forward = list(t)
    assert list(t.keys()) == sorted({key for key, _ in forward})
    assert forward == ref.drain()


@settings(max_examples=50, deadline=None)
@given(st.lists(_key32, max_size=120))
def test_fingerprint_is_a_function_of_history(keys):
    def build():
        t = PTrie()
        for i, k in enumerate(keys):
            t.insert(k, i)
        return t.validate()
    a, b = build(), build()
    assert a.ok and b.ok
    assert a.fingerprint == b.fingerprint


_SIGNED_GEOMETRIES = [(8, 4), (16, 2), (32, 4), (32, 8)]
# clamped to +-(2**(M-1)-1) in the test, so these are each geometry's extremes
_SIGNED_EXTREMES = [2**31 - 1, -(2**31) + 1, 0, -(2**31) + 1, 2**31 - 1, 1]


@settings(max_examples=240, deadline=None)
@given(st.sampled_from(_SIGNED_GEOMETRIES),
       st.lists(st.integers(min_value=-(2**31) + 1, max_value=2**31 - 1),
                max_size=150))
@example((8, 4), _SIGNED_EXTREMES)
@example((16, 2), _SIGNED_EXTREMES)
@example((32, 4), _SIGNED_EXTREMES)
@example((32, 8), _SIGNED_EXTREMES)
def test_signed_drain_is_stable_sort(geometry, values):
    m, k = geometry
    limit = 2 ** (m - 1) - 1
    values = [max(-limit, min(limit, v)) for v in values]
    q = SignedPTrie(PTrieConfig(m, k))
    for i, v in enumerate(values):
        q.insert(v, i)
    drained = []
    while len(q):
        drained.append(q.delete_min())
    expected = sorted(((v, i) for i, v in enumerate(values)),
                      key=lambda vi: vi[0])
    assert drained == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_differential_runner_accepts_random_seeds(seed):
    verdict = run_differential(seed, n_ops=300, word_bits=12, stride_bits=4)
    assert verdict.matched, verdict.first_divergence


def _op_triple(t):
    st = t.last_op_stats
    return (st.layers_visited, st.index_ops, st.nodes_spliced)


# few distinct keys, spread over the whole key space, so leaves hold long
# FIFO queues and still sit at every depth
_dup_ops = st.lists(
    st.tuples(st.sampled_from(("insert", "insert", "delete_min")),
              st.integers(min_value=0, max_value=7)),
    max_size=250,
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(8, 4), (16, 2), (32, 4), (32, 8)]),
       st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=8, max_size=8),
       _dup_ops)
def test_delete_min_steps_match_remove_of_minimum(geometry, spread, ops):
    m, k = geometry
    keys = [x >> (64 - m) for x in spread]
    t, twin = PTrie(PTrieConfig(m, k)), PTrie(PTrieConfig(m, k))
    ref = StableListPQ()
    for i, (kind, ix) in enumerate(ops):
        if kind == "insert":
            t.insert(keys[ix], i)
            twin.insert(keys[ix], i)
            ref.insert(keys[ix], i)
            continue
        expect = ref.delete_min()
        got = t.delete_min()
        if expect is None:
            assert got is None
            continue
        assert got == expect
        assert twin.remove(got[0]) == got[1]
        assert _op_triple(t) == _op_triple(twin)
    while t.count:
        got = t.delete_min()
        assert got == ref.delete_min()
        assert twin.remove(got[0]) == got[1]
        assert _op_triple(t) == _op_triple(twin)
    assert t.validate().ok and twin.validate().ok
