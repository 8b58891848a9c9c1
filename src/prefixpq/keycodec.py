"""Signed integer keys on the unsigned trie.

The trie compares raw unsigned bit patterns, so signed values have to be
embedded order-preservingly first.  ``SignedPTrie`` files value ``v`` under
the biased key ``v + 2**(M-1)``: the signed range ``|v| <= 2**(M-1)-1`` fills
keys ``1 .. 2**M-1`` in value order, so one trie drains, peeks and bounds the
signed values exactly as it does unsigned keys.
"""

from __future__ import annotations

from typing import Any

from .ptrie import PTrie, PTrieConfig


class SignedPTrie:
    """Stable priority queue over signed integers of magnitude < 2**(M-1).

    >>> q = SignedPTrie()
    >>> for v in (5, -3, 0, -7, 5):
    ...     q.insert(v, v)
    >>> [q.delete_min()[0] for _ in range(len(q))]
    [-7, -3, 0, 5, 5]
    """

    __slots__ = ("config", "trie", "_bias")

    def __init__(self, config: PTrieConfig | None = None) -> None:
        self.config = config if config is not None else PTrieConfig()
        self.trie = PTrie(self.config)
        self._bias = 1 << (self.config.word_bits - 1)

    def encode(self, value: int) -> int:
        """Trie key of ``value``; key order mirrors value order."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"value must be an int, got {type(value).__name__}")
        limit = self._bias - 1
        if value > limit or -value > limit:
            raise ValueError(
                f"magnitude of {value} exceeds the signed "
                f"{self.config.word_bits}-bit limit {limit}"
            )
        return value + self._bias

    def decode(self, key: int) -> int:
        """The signed value filed under trie ``key``; inverts ``encode``."""
        return key - self._bias

    def insert(self, value: int, payload: Any = None) -> None:
        self.trie.insert(self.encode(value), payload)

    def delete_min(self) -> tuple[int, Any] | None:
        """Extract the smallest signed value, FIFO among equal values."""
        got = self.trie.delete_min()
        if got is None:
            return None
        return (got[0] - self._bias, got[1])

    def minimum(self) -> tuple[int, Any] | None:
        got = self.trie.minimum()
        if got is None:
            return None
        return (got[0] - self._bias, got[1])

    def maximum(self) -> tuple[int, Any] | None:
        got = self.trie.maximum()
        if got is None:
            return None
        return (got[0] - self._bias, got[1])

    def __len__(self) -> int:
        return self.trie.count

    def __bool__(self) -> bool:
        return self.trie.count > 0

    def __repr__(self) -> str:
        return (
            f"SignedPTrie(word_bits={self.config.word_bits}, "
            f"stride_bits={self.config.stride_bits}, count={len(self)})"
        )
