"""Tour of the priority queue: ordering, stability, iterators, auditing.

Run:  python3 demos/queue_tour.py
"""

from itertools import groupby
from operator import itemgetter

from prefixpq import ABSENT, PTrie, PTrieConfig, SignedPTrie


def section(title):
    print(f"\n=== {title} ===")


section("keys drain in ascending order")
queue = PTrie()
for key in (90, 3, 2**31, 11, 3):
    queue.insert(key)
print("inserted 90, 3, 2**31, 11, 3")
print("drained:", [key for key, _ in iter(queue.delete_min, None)])

section("equal keys keep arrival order (FIFO)")
queue = PTrie()
for tag in "first", "second", "third":
    queue.insert(7, tag)
queue.insert(3, "smaller")
while queue:
    print(" ", queue.delete_min())

section("payload queue per key; remove() serves the oldest")
queue = PTrie()
queue.insert(42, "a")
queue.insert(42, "b")
print("remove(42) ->", queue.remove(42))
print("remove(42) ->", queue.remove(42))
print("remove(42) ->", queue.remove(42), "   (the key is gone)")
assert queue.remove(42) is ABSENT

section("minimum / maximum / search are cheap peeks")
queue = PTrie()
for key in (500, 1, 500, 77):
    queue.insert(key, f"p{key}")
print("minimum:", queue.minimum())
print("maximum:", queue.maximum())
print("search(77):", queue.search(77), "  search(78):", queue.search(78))

section("leaf list is a doubly linked iterator")
chain = [f"{key}(x{len(list(run))})" for key, run in groupby(queue, itemgetter(0))]
print("ascending leaves:", " -> ".join(chain))

section("every operation reports its instrumented cost")
queue = PTrie()  # 32-bit keys, 4-bit chunks: at most 8 + 4 = 12 steps
queue.insert(0x1234ABCD)
queue.insert(0x1234ABCE)  # 7 shared chunks force the deepest descent
stats = queue.stats()
print(
    f"deep insert: layers={stats.layers_visited} "
    f"index_ops={stats.index_ops} steps={stats.primitive_steps}"
)

section("validate() audits the whole structure")
report = queue.validate()
print("ok:", report.ok, " fingerprint:", report.fingerprint[:16], "...")

section("signed values ride on one biased trie")
signed = SignedPTrie(PTrieConfig(32, 4))
for v in (10, -4, 0, -4, 9):
    signed.insert(v, f"got {v}")
print("minimum:", signed.minimum())
while signed:
    print(" ", signed.delete_min())
