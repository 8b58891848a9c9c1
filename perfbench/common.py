"""Shared pieces of the workloads: run context, result tally and timers."""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Set-up is repeated this many times per run and its median reported, so a
# single slow allocation or page-in does not decide ``setup_s``.
SETUP_REPEATS = 3


@dataclass
class Context:
    root: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    import_s: float


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked result; report a mismatch on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: check failed: {what}", file=sys.stderr)

    def check_many(self, got: list, expect: list, what: str) -> None:
        """Count ``len(expect)`` checked results, mismatches among them."""
        self.attempted += len(expect)
        bad = len(expect) - len(got)
        first = None
        for i, (g, e) in enumerate(zip(got, expect)):
            if g != e:
                bad += 1
                if first is None:
                    first = f"{what}[{i}]: got {g!r}, expected {e!r}"
        if bad:
            self.failed += bad
            print(f"perfbench: {bad} mismatches in {what}; first: "
                  f"{first or 'results missing'}", file=sys.stderr)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q`` quantile by nearest rank of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Timings:
    """Per-op times of the package and of the reference beside it, in ns.

    Sample ``i`` of both lists covers the same calls: a batch of queue
    calls, a graph round or a CLI session.
    """

    def __init__(self) -> None:
        self.ops = 0
        self.prog: list[float] = []
        self.ref: list[float] = []
        self.prog_ns = 0
        self.ref_ns = 0

    def add(self, ops: int, prog_ns: int, ref_ns: int) -> None:
        self.ops += ops
        self.prog_ns += prog_ns
        self.ref_ns += ref_ns
        self.prog.append(prog_ns / ops)
        self.ref.append(ref_ns / ops)

    def end_to_end(self) -> dict[str, float]:
        """Package time over reference time: in total, and the median over
        samples of each sample's own ratio."""
        return {
            "time.vs_ref": self.prog_ns / self.ref_ns,
            "op_p50.vs_ref": statistics.median(p / r for p, r in zip(self.prog, self.ref)),
        }

    def absolute(self) -> dict[str, float]:
        """Throughput and per-op latency of the package alone."""
        lat = sorted(self.prog)
        return {
            "ops_per_s": self.ops / (self.prog_ns / 1e9),
            "op_us.p50": nearest_rank(lat, 0.50) / 1e3,
            "op_us.p99": nearest_rank(lat, 0.99) / 1e3,
            "op_us.samples": len(lat),
        }


def time_ref(fn: Callable[..., Any], *args: Any) -> tuple[Any, int]:
    """``fn(*args)`` and its time in ns, with the collector paused.

    Allocation counts still accrue while it is paused, so a collection
    due then runs at the package's next allocation and every collector
    pause is charged to the package, as it would be without a reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        result = fn(*args)
        return result, time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def timed_setup(build: Callable[[], Any], repeats: int) -> tuple[Any, float]:
    """Run ``build`` ``repeats`` times; keep the last, return the median time.

    Every earlier product is dropped and collected before the next build
    starts, so each build sees the same heap.
    """
    times = []
    product = None
    for _ in range(repeats):
        product = None
        gc.collect()
        t0 = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - t0)
    gc.collect()
    return product, statistics.median(times)


def rss_bytes() -> int:
    """Current resident size of this process."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def peak_rss_mb() -> float:
    """Peak resident size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcMonitor:
    """Collector pause time and collections per generation, via gc.callbacks."""

    def __init__(self) -> None:
        self.pause_ns = 0
        self.collections = [0, 0, 0]
        self._t0 = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        else:
            self.pause_ns += time.perf_counter_ns() - self._t0
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self)

    def metrics(self) -> dict[str, float]:
        out = {"gc.pause_s": self.pause_ns / 1e9}
        for g, n in enumerate(self.collections):
            out[f"gc.collections.gen{g}"] = n
        return out
