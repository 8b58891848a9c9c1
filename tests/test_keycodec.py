"""Signed keys on one biased trie."""

import random

import pytest

from prefixpq import PTrieConfig, SignedPTrie


class TestSignedPTrie:
    def test_drain_crosses_zero_in_order(self):
        q = SignedPTrie()
        for v in (5, -3, 0, -7, 5):
            q.insert(v, v)
        assert [q.delete_min()[0] for _ in range(5)] == [-7, -3, 0, 5, 5]

    def test_exhaustive_order_embedding_at_8_bits(self):
        # every representable value once, shuffled; drain must sort them
        cfg = PTrieConfig(8, 4)
        values = list(range(-127, 128))
        rng = random.Random(0)
        rng.shuffle(values)
        q = SignedPTrie(cfg)
        for v in values:
            q.insert(v, v)
        drained = [q.delete_min()[0] for _ in range(len(values))]
        assert drained == list(range(-127, 128))

    def test_encode_is_monotone_within_each_trie(self):
        q = SignedPTrie(PTrieConfig(8, 4))
        assert [q.encode(v) for v in range(-127, 128)] == list(range(1, 256))

    def test_decode_round_trip(self):
        q = SignedPTrie()
        for v in (-(2**31) + 1, -1, 0, 1, 2**31 - 1):
            assert q.decode(q.encode(v)) == v

    @pytest.mark.parametrize("value", [2**31, -(2**31), 2**40])
    def test_magnitude_limit(self, value):
        with pytest.raises(ValueError):
            SignedPTrie().insert(value)

    def test_magnitude_limit_small_word(self):
        q = SignedPTrie(PTrieConfig(8, 4))
        q.insert(127)
        q.insert(-127)
        with pytest.raises(ValueError):
            q.insert(128)
        with pytest.raises(ValueError):
            q.insert(-128)

    def test_fifo_stability_per_value(self):
        q = SignedPTrie()
        for tag in "abc":
            q.insert(-9, f"n{tag}")
            q.insert(9, f"p{tag}")
        out = [q.delete_min() for _ in range(6)]
        assert out == [
            (-9, "na"), (-9, "nb"), (-9, "nc"),
            (9, "pa"), (9, "pb"), (9, "pc"),
        ]

    def test_minimum_maximum_and_len(self):
        q = SignedPTrie()
        assert q.minimum() is None and q.maximum() is None
        assert len(q) == 0 and not q
        q.insert(4, "p")
        assert q.minimum() == (4, "p") and q.maximum() == (4, "p")
        q.insert(-6, "n")
        assert q.minimum() == (-6, "n")
        assert q.maximum() == (4, "p")
        q.insert(-2, "m")
        assert q.minimum() == (-6, "n")
        assert len(q) == 3 and q
        only_neg = SignedPTrie()
        only_neg.insert(-5, "x")
        only_neg.insert(-1, "y")
        assert only_neg.maximum() == (-1, "y")

    def test_delete_min_empty(self):
        assert SignedPTrie().delete_min() is None

    def test_sub_tries_validate(self):
        q = SignedPTrie()
        rng = random.Random(3)
        for i in range(400):
            q.insert(rng.randrange(-(2**20), 2**20), i)
        for _ in range(150):
            q.delete_min()
        assert q.trie.validate().ok
