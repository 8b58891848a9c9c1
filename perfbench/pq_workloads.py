"""``hold`` and ``churn``: closed-loop queue workloads with one caller.

Each workload is a stream of queue calls generated from the seed by a model
queue built on ``heapq`` with a FIFO of payloads per key.  The model runs
ahead of the program: it decides every call and the result the call must
return.  Calls go to the program in chunks; each chunk is generated, then
replayed through the program in timed batches of ``BATCH`` consecutive
calls, then its results are compared with the model's, so neither
generation nor checking is timed.  Each batch then goes through a second
model queue that sifts its heap in Python, timed with the collector
paused; that time is the reference the package's time is divided by (see
``reference.py`` for why).  The traced run replays the C ``heapq`` model
instead, as the ``ref.heapq_ops_per_s`` control.
"""

from __future__ import annotations

import gc
import heapq
import random
import sys
import time
import traceback
from array import array
from collections import deque
from typing import Any, Callable

import reference
from common import (SETUP_REPEATS, Context, GcMonitor, Result, Timings, peak_rss_mb,
                    rss_bytes, time_ref, timed_setup)
from spans import Tracer

from prefixpq import analysis
from prefixpq.keycodec import SignedPTrie
from prefixpq.ptrie import ABSENT, PTrie

# Call kinds: the first four go to the unsigned queue, the S_ ones to the
# signed one.
INSERT, DELETE_MIN, REMOVE, SEARCH, S_INSERT, S_DELETE_MIN, S_MINIMUM = range(7)

# Calls per latency sample: long enough that the clock reads are noise,
# short enough that a collector pause lands in few samples.
BATCH = 100

# (queue entries at the start, calls per generated chunk), full and tiny.
SIZES = {
    "hold": {False: (10_000, 20_000), True: (500, 2_000)},
    "churn": {False: (300_000, 20_000), True: (3_000, 2_000)},
}

HOLD_KEY_BITS = 10
SIGNED_LIMIT = (1 << 31) - 1


class HeapModel:
    """Stable min-queue on heapq, keyed by int, payloads ints.

    The heap holds keys only; ``fifo`` maps each live key to its payload, or
    to a deque of payloads once the key repeats.  A key removed from the
    middle leaves its heap entry behind, and extraction skips entries whose
    key is no longer live.
    """

    __slots__ = ("heap", "fifo", "count", "stale")
    push = staticmethod(heapq.heappush)
    pop = staticmethod(heapq.heappop)

    def __init__(self) -> None:
        self.heap: list[int] = []
        self.fifo: dict[int, Any] = {}
        self.count = 0
        self.stale = 0

    def insert(self, key: int, payload: int) -> None:
        cur = self.fifo.get(key)
        if cur is None:
            self.fifo[key] = payload
            self.push(self.heap, key)
        elif type(cur) is deque:
            cur.append(payload)
        else:
            self.fifo[key] = deque((cur, payload))
        self.count += 1

    def _top(self) -> int | None:
        heap, fifo = self.heap, self.fifo
        while heap:
            if heap[0] in fifo:
                return heap[0]
            self.pop(heap)
        return None

    def _take(self, key: int) -> int:
        cur = self.fifo[key]
        self.count -= 1
        if type(cur) is deque:
            payload = cur.popleft()
            if cur:
                return payload
        else:
            payload = cur
        del self.fifo[key]
        return payload

    def minimum(self) -> tuple[int, int] | None:
        key = self._top()
        if key is None:
            return None
        cur = self.fifo[key]
        return (key, cur[0] if type(cur) is deque else cur)

    def delete_min(self) -> tuple[int, int] | None:
        key = self._top()
        if key is None:
            return None
        payload = self._take(key)
        if key not in self.fifo:
            self.pop(self.heap)
        return (key, payload)

    def remove(self, key: int) -> Any:
        if key not in self.fifo:
            return ABSENT
        payload = self._take(key)
        if key not in self.fifo:
            self.stale += 1
            if self.stale > len(self.fifo):
                # rebuild so memory tracks the live size, not the history
                self.heap = sorted(self.fifo)
                self.stale = 0
        return payload

    def search(self, key: int) -> bool:
        return key in self.fifo


class PyHeapModel(HeapModel):
    """``HeapModel`` sifting in Python: the reference timed beside the package."""

    __slots__ = ()
    push = staticmethod(reference.heappush)
    pop = staticmethod(reference.heappop)


class Chunk:
    """Calls and their expected results, in arrays the collector ignores.

    Call ``i`` is ``ops[i]`` with arguments taken from ``keys[i]`` and
    ``pays[i]``.  Its expected result is encoded in ``want_key[i]`` and
    ``want_pay[i]`` as ``expected`` decodes it.
    """

    __slots__ = ("ops", "keys", "pays", "want_key", "want_pay")

    def __init__(self) -> None:
        self.ops = array("b")
        self.keys = array("q")
        self.pays = array("q")
        self.want_key = array("q")
        self.want_pay = array("q")

    def add(self, op: int, key: int = 0, pay: int = 0, want: Any = None) -> None:
        self.ops.append(op)
        self.keys.append(key)
        self.pays.append(pay)
        if want is None or want is ABSENT:
            self.want_key.append(0)
            self.want_pay.append(-1)
        elif type(want) is tuple:
            self.want_key.append(want[0])
            self.want_pay.append(want[1])
        else:
            self.want_key.append(0)
            self.want_pay.append(int(want))

    def expected(self, i: int) -> Any:
        op = self.ops[i]
        if op == INSERT or op == S_INSERT:
            return None
        if op == REMOVE:
            p = self.want_pay[i]
            return ABSENT if p < 0 else p
        if op == SEARCH:
            return bool(self.want_pay[i])
        return (self.want_key[i], self.want_pay[i])

    def __len__(self) -> int:
        return len(self.ops)


class HoldStream:
    """Jones's hold model: delete_min, then insert(key + uniform increment).

    Keys start uniform in ``[0, 2**HOLD_KEY_BITS)`` and increments are
    uniform in the same range, so the live keys span about that many values
    and each key carries about ``size / 2**HOLD_KEY_BITS`` payloads.
    """

    def __init__(self, seed: int, size: int) -> None:
        self.rng = random.Random(seed)
        bits = self.rng.getrandbits
        self.unsigned = array("q", (bits(HOLD_KEY_BITS) for _ in range(size)))
        self.signed = array("q")
        self.model = HeapModel()
        for p, k in enumerate(self.unsigned):
            self.model.insert(k, p)
        self.payload = size
        self.inserts = 0
        self.dup_inserts = 0

    def chunk(self, n: int) -> Chunk:
        c = Chunk()
        model = self.model
        bits = self.rng.getrandbits
        p = self.payload
        dups = 0
        for _ in range(n // 2):
            got = model.delete_min()
            c.add(DELETE_MIN, want=got)
            key = got[0] + bits(HOLD_KEY_BITS)
            dups += key in model.fifo
            model.insert(key, p)
            c.add(INSERT, key, p)
            p += 1
        self.inserts += p - self.payload
        self.dup_inserts += dups
        self.payload = p
        return c

    def ratios(self) -> dict[str, float]:
        return {"ptrie.insert.dup_ratio": self.dup_inserts / max(1, self.inserts)}


class ChurnStream:
    """Distinct uniform 32-bit keys, touched everywhere, plus a signed share.

    Three quarters of the calls go to a ``PTrie``: insert a key that is not
    live, remove a live key chosen uniformly, remove an absent key, search
    a live key, search an absent key, delete_min.  Inserts balance the two
    kinds of removal, so the size stays near its start.  The remaining
    quarter goes to a ``SignedPTrie``: insert, delete_min, minimum.
    """

    # Cumulative thresholds over one uniform draw.  Signed quarter: 40%
    # insert, 40% delete_min, 20% minimum.  Unsigned three quarters: 30%
    # insert, 15% remove live, 10% remove absent, 15% search hit, 15% search
    # miss, 15% delete_min.
    T_S_INSERT, T_S_DELETE_MIN, T_SIGNED = 0.10, 0.20, 0.25
    T_INSERT, T_REMOVE, T_REMOVE_ABSENT, T_SEARCH, T_SEARCH_ABSENT = (
        0.25 + 0.75 * t for t in (0.30, 0.45, 0.55, 0.70, 0.85))

    def __init__(self, seed: int, size: int) -> None:
        self.rng = random.Random(seed)
        bits = self.rng.getrandbits
        n_unsigned = size * 3 // 4
        self.live: list[int] = []
        self.pos: dict[int, int] = {}
        while len(self.live) < n_unsigned:
            k = bits(32)
            if k not in self.pos:
                self.pos[k] = len(self.live)
                self.live.append(k)
        self.unsigned = array("q", self.live)
        self.signed = array("q", (self.rng.randint(-SIGNED_LIMIT, SIGNED_LIMIT)
                                  for _ in range(size - n_unsigned)))
        self.model = HeapModel()
        self.smodel = HeapModel()
        _fill(self, self.model, self.smodel)
        self.payload = size
        self.removes = self.remove_misses = 0
        self.searches = self.search_hits = 0

    def _drop_live(self, key: int) -> None:
        i = self.pos.pop(key)
        last = self.live.pop()
        if last != key:
            self.live[i] = last
            self.pos[last] = i

    def _absent_key(self) -> int:
        while True:
            k = self.rng.getrandbits(32)
            if k not in self.pos:
                return k

    def _live_key(self) -> int:
        return self.live[self.rng.randrange(len(self.live))]

    def chunk(self, n: int) -> Chunk:
        c = Chunk()
        rng = self.rng
        model, smodel = self.model, self.smodel
        for _ in range(n):
            r = rng.random()
            if r < self.T_SIGNED:
                if r < self.T_S_INSERT or not smodel.count:
                    v = rng.randint(-SIGNED_LIMIT, SIGNED_LIMIT)
                    smodel.insert(v, self.payload)
                    c.add(S_INSERT, v, self.payload)
                    self.payload += 1
                elif r < self.T_S_DELETE_MIN:
                    c.add(S_DELETE_MIN, want=smodel.delete_min())
                else:
                    c.add(S_MINIMUM, want=smodel.minimum())
            elif r < self.T_INSERT or not self.live:
                k = self._absent_key()
                self.pos[k] = len(self.live)
                self.live.append(k)
                model.insert(k, self.payload)
                c.add(INSERT, k, self.payload)
                self.payload += 1
            elif r < self.T_REMOVE_ABSENT:
                if r < self.T_REMOVE:
                    k = self._live_key()
                    self._drop_live(k)
                else:
                    k = self._absent_key()
                    self.remove_misses += 1
                self.removes += 1
                c.add(REMOVE, k, want=model.remove(k))
            elif r < self.T_SEARCH_ABSENT:
                if r < self.T_SEARCH:
                    k = self._live_key()
                    self.search_hits += 1
                else:
                    k = self._absent_key()
                self.searches += 1
                c.add(SEARCH, k, want=model.search(k))
            else:
                got = model.delete_min()
                self._drop_live(got[0])
                c.add(DELETE_MIN, want=got)
        return c

    def ratios(self) -> dict[str, float]:
        return {
            "ptrie.remove.miss_ratio": self.remove_misses / max(1, self.removes),
            "ptrie.search.hit_ratio": self.search_hits / max(1, self.searches),
        }


STREAMS = {"hold": HoldStream, "churn": ChurnStream}


def _fill(stream: Any, unsigned: Any, signed: Any) -> tuple[Any, Any]:
    """Insert the stream's initial entries; payload ``p`` is entry ``p``."""
    for p, k in enumerate(stream.unsigned):
        unsigned.insert(k, p)
    base = len(stream.unsigned)
    if signed is not None:
        for p, v in enumerate(stream.signed, base):
            signed.insert(v, p)
    return unsigned, signed


def _program(stream: Any) -> tuple[PTrie, SignedPTrie | None]:
    return _fill(stream, PTrie(), SignedPTrie() if stream.signed else None)


def _reference(stream: Any, model: type[HeapModel] = PyHeapModel) -> tuple[HeapModel, HeapModel]:
    return _fill(stream, model(), model())


def _replay(queues: tuple[Any, Any], c: Chunk, lo: int, hi: int, out: list) -> None:
    """Make calls ``lo..hi-1`` of ``c``, appending each result to ``out``."""
    u, s = queues
    ins, dm, rem, sea = u.insert, u.delete_min, u.remove, u.search
    if s is not None:
        s_ins, s_dm, s_min = s.insert, s.delete_min, s.minimum
    ops, keys, pays = c.ops, c.keys, c.pays
    append = out.append
    for i in range(lo, hi):
        op = ops[i]
        if op == DELETE_MIN:
            append(dm())
        elif op == INSERT:
            append(ins(keys[i], pays[i]))
        elif op == REMOVE:
            append(rem(keys[i]))
        elif op == SEARCH:
            append(sea(keys[i]))
        elif op == S_INSERT:
            append(s_ins(keys[i], pays[i]))
        elif op == S_DELETE_MIN:
            append(s_dm())
        else:
            append(s_min())


def _run_pass(kind: str, stream: Any, queues: tuple, ref: tuple | None, chunk_ops: int,
              res: Result, stop: Callable[[Timings, int], bool],
              after_chunk: Callable[[], None] | None = None) -> tuple[Timings, int]:
    """Generate and replay chunks until ``stop``; time and check each batch.

    Each batch goes through the program, then through ``ref`` when given.
    Returns the timings and the number of chunks replayed.
    """
    tm = Timings()
    chunks = 0
    perf = time.perf_counter_ns
    out: list[Any] = []
    while not stop(tm, chunks):
        c = stream.chunk(chunk_ops)
        n = len(c)
        for lo in range(0, n, BATCH):
            hi = min(n, lo + BATCH)
            out.clear()
            t0 = perf()
            try:
                _replay(queues, c, lo, hi, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                res.check(False, f"{kind} call {tm.ops + len(out)} raised")
                return tm, chunks
            dt = perf() - t0
            res.check_many(out, [c.expected(i) for i in range(lo, hi)],
                           f"{kind} calls from {tm.ops}")
            ref_ns = time_ref(_replay, ref, c, lo, hi, out)[1] if ref is not None else 0
            tm.add(hi - lo, dt, ref_ns)
        chunks += 1
        if after_chunk is not None:
            after_chunk()
    return tm, chunks


def _tries(q: Any) -> list[PTrie]:
    """``q`` itself, or the tries a wrapper such as ``SignedPTrie`` holds."""
    if isinstance(q, PTrie):
        return [q]
    slots = getattr(type(q), "__slots__", ())
    return [v for v in (getattr(q, a, None) for a in slots) if isinstance(v, PTrie)]


def _validate(queues: tuple, res: Result) -> None:
    for q in queues:
        if q is None:
            continue
        for t in _tries(q):
            rep = t.validate()
            res.check(rep.ok, f"validate(): {rep.error}")


def run(kind: str, ctx: Context) -> Result:
    size, chunk_ops = SIZES[kind][ctx.tiny]
    res = Result()
    seconds_ns = ctx.seconds * 1e9

    def build() -> tuple[Any, tuple, float]:
        stream = STREAMS[kind](ctx.seed, size)
        r0 = rss_bytes()
        queues = _program(stream)
        return stream, queues, (rss_bytes() - r0) / size

    def timed_out(tm: Timings, chunks: int) -> bool:
        return tm.prog_ns >= seconds_ns

    if not ctx.trace:
        (stream, queues, _), setup_s = timed_setup(build, SETUP_REPEATS)
        tm, _ = _run_pass(kind, stream, queues, _reference(stream), chunk_ops, res, timed_out)
        _validate(queues, res)
        res.metrics["setup_s"] = ctx.import_s + setup_s
        res.metrics["peak_rss_mb"] = peak_rss_mb()
        res.metrics.update(tm.end_to_end())
        return res

    # Traced run: the untraced pass, then the same chunks again on a fresh
    # build with spans recorded.
    stream, queues, bytes_per_key = build()
    with GcMonitor() as gcm:
        tm, chunks = _run_pass(kind, stream, queues, _reference(stream, HeapModel), chunk_ops,
                               res, timed_out)
    _validate(queues, res)
    res.metrics.update(gcm.metrics())
    res.metrics.update(stream.ratios())
    res.metrics.update(tm.absolute())
    res.metrics["ref.heapq_ops_per_s"] = tm.ops / (tm.ref_ns / 1e9)
    res.metrics["ptrie.vs_heapq"] = tm.prog_ns / tm.ref_ns
    res.metrics["ptrie.bytes_per_key"] = bytes_per_key
    del stream, queues
    gc.collect()

    stream, queues, _ = build()
    tracer = Tracer()
    with tracer:
        res.metrics["ptrie.layers_live"] = sum(analysis.count_layers_per_level(queues[0]))
        tracer.record_steps = True

        def first_chunk_only() -> None:
            tracer.record_steps = False

        traced, _ = _run_pass(kind, stream, queues, None, chunk_ops, res,
                              lambda t, c: c >= chunks, after_chunk=first_chunk_only)
    res.metrics.update(tracer.span_metrics(traced.prog_ns))
    res.metrics["trace.untraced_s"] = tm.prog_ns / 1e9
    res.metrics["trace.traced_s"] = traced.prog_ns / 1e9
    res.metrics["trace.overhead_s"] = (traced.prog_ns - tm.prog_ns) / 1e9
    return res
