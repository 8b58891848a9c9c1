"""Acceptance gate: one test per stated criterion, at stated tolerances.

Every test prints a single ``[criterion NN] ... PASS|FAIL`` line (visible
under ``pytest -s`` or in captured output on failure) and enforces the
criterion's time budget.  Keys to the numbering:

 1  fig4 MST total exactly 19, CLI and API, < 1 s
 2  fig1 MST total 8 and exact edge set, < 1 s
 3  fig6 SSSP distance/hop table from A, < 1 s
 4  demo trace: exact extraction sequence and the step-2 snapshot, < 1 s
 5  demo back map and the rendered walk from E, < 1 s
 6  step bound 12 / search depth 8 over 1e6 random ops at 32/4, < 30 s
 7  1e5-op differential vs the sorted-list oracle, 100 seeds, < 60 s
 8  1e3 random graphs: sssp/sdsp/mst vs independent oracles, < 60 s
 9  small-digraph sweep: sssp distances vs brute force, < 120 s
10  mean steps per op varies < 2x across n = 1e3..1e6, < 120 s
11  occupancy formulas: mass check 1e-9, MC within 3 SE, < 60 s
12  validate() after every op of a 1e5-op soak incl. signed, < 60 s
"""

import itertools
import json
import random
import subprocess
import sys
import time

import numpy as np

from helpers import run_differential
from prefixpq import (
    Graph,
    PTrie,
    PTrieConfig,
    SignedPTrie,
    mst_prim,
    parse_graph,
    sdsp,
    sssp,
    sssp_trace,
    walk,
    format_walk,
)
from prefixpq.analysis import (
    layer_count_std_bound,
    monte_carlo_layer_counts,
    prob_exact_occupancy,
)
from prefixpq.bench import scaling_sweep
from prefixpq.fixtures import fixture_text
from prefixpq.oracles import (
    brute_force_best_path,
    dijkstra_heap,
    kruskal_component_weight,
)
from prefixpq.schemas import validate_payload


def _verdict(cid: int, desc: str, ok: bool, elapsed: float, budget: float):
    in_budget = elapsed <= budget
    state = "PASS" if (ok and in_budget) else "FAIL"
    print(
        f"[criterion {cid:2d}] {desc}: {state} "
        f"({elapsed:.2f}s of {budget:.0f}s budget)"
    )
    assert ok, f"criterion {cid}: {desc}"
    assert in_budget, f"criterion {cid}: took {elapsed:.2f}s > {budget}s"


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "prefixpq", *argv],
        capture_output=True, text=True, check=False,
    )


def test_criterion_01_fig4_mst_total():
    t0 = time.perf_counter()
    proc = _cli("mst", "--input", "fig4.g", "--root", "A", "--json")
    payload = json.loads(proc.stdout)
    api = mst_prim(parse_graph(fixture_text("fig4.g")), "A")
    ok = (
        proc.returncode == 0
        and payload["total_weight"] == 19
        and api.total_weight == 19
        and api.spans_all
    )
    _verdict(1, "fig4 MST total weight exactly 19 (CLI and API)",
             ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_fig1_mst_edges():
    t0 = time.perf_counter()
    expected = {
        frozenset(("A", "B")): 1,
        frozenset(("B", "E")): 2,
        frozenset(("E", "D")): 2,
        frozenset(("D", "F")): 1,
        frozenset(("C", "F")): 1,
        frozenset(("F", "G")): 1,
    }
    proc = _cli("mst", "--input", "fig1.g", "--root", "A", "--json")
    payload = json.loads(proc.stdout)
    cli_edges = {frozenset((t, h)): w for t, h, w in payload["edges"]}
    api = mst_prim(parse_graph(fixture_text("fig1.g")), "A")
    api_edges = {frozenset((t, h)): w for t, h, w in api.edges}
    ok = (
        proc.returncode == 0
        and payload["total_weight"] == 8
        and api.total_weight == 8
        and cli_edges == expected
        and api_edges == expected
    )
    _verdict(2, "fig1 MST total 8 with the exact edge set",
             ok, time.perf_counter() - t0, 1.0)


def test_criterion_03_fig6_sssp_table():
    t0 = time.perf_counter()
    expect = {"B": (1, 1), "C": (2, 1), "D": (4, 2), "E": (3, 2)}
    proc = _cli("sssp", "--input", "fig6.g", "--source", "A", "--json")
    payload = json.loads(proc.stdout)
    tree = sssp(parse_graph(fixture_text("fig6.g")), "A")
    ok = proc.returncode == 0
    for v, (d, h) in expect.items():
        entry = payload["vertices"][v]
        ok = ok and (entry["dist"], entry["hops"]) == (d, h)
        ok = ok and (tree.dist[v], tree.hops[v]) == (d, h)
    _verdict(3, "fig6 SSSP distances and hop counts from A",
             ok, time.perf_counter() - t0, 1.0)


def test_criterion_04_demo_trace():
    t0 = time.perf_counter()
    expected_sequence = [
        ("A", "D", 1, False), ("D", "B", 2, False), ("A", "B", 3, True),
        ("D", "F", 3, False), ("B", "A", 3, True), ("D", "B", 4, True),
        ("F", "C", 4, False), ("F", "G", 4, False), ("G", "E", 4, False),
        ("A", "C", 5, True), ("C", "A", 5, True), ("C", "F", 5, True),
        ("B", "E", 6, True), ("E", "D", 6, True), ("E", "G", 7, True),
        ("D", "E", 8, True),
    ]
    expected_snapshot = [
        (2, "D", "B"), (3, "A", "B"), (3, "D", "F"),
        (4, "D", "B"), (5, "A", "C"), (8, "D", "E"),
    ]
    _, events = sssp_trace(parse_graph(fixture_text("demo.g")), "A")
    got_sequence = [
        (arc.tail, arc.head, pw, e.rejected)
        for e in events
        for pw, arc in [e.entry]
    ]
    got_snapshot = [
        (pw, arc.tail, arc.head) for pw, arc in events[1].queue
    ]
    proc = _cli("trace", "--input", "demo.g", "--source", "A", "--json")
    payload = json.loads(proc.stdout)
    validate_payload("trace", payload)
    cli_snapshot = [
        (qe["pathWeight"], qe["tail"], qe["head"])
        for qe in payload["events"][1]["queue"]
    ]
    ok = (
        got_sequence == expected_sequence
        and got_snapshot == expected_snapshot
        and proc.returncode == 0
        and cli_snapshot == expected_snapshot
        and len(payload["events"]) == 16
    )
    _verdict(4, "demo trace: extraction sequence and step-2 queue snapshot",
             ok, time.perf_counter() - t0, 1.0)


def test_criterion_05_demo_back_map_and_walk():
    t0 = time.perf_counter()
    tree = sssp(parse_graph(fixture_text("demo.g")), "A")
    expected_back = {
        "A": None, "D": ("A", 1), "B": ("D", 1), "F": ("D", 2),
        "C": ("F", 1), "G": ("F", 1), "E": ("G", 0),
    }
    rendered = format_walk(walk(tree, "E"))
    ok = (
        tree.back == expected_back
        and rendered == "[E]--(0)->[G]--(1)->[F]--(2)->[D]--(1)->[A]"
    )
    _verdict(5, "demo back map and the E-to-A walk rendering",
             ok, time.perf_counter() - t0, 1.0)


def test_criterion_06_step_bound_over_1e6_ops():
    t0 = time.perf_counter()
    n_ops = 1_000_000
    rng = np.random.default_rng(606)
    op_draw = rng.integers(0, 100, size=n_ops).tolist()
    key_draw = rng.integers(0, 1 << 32, size=n_ops, dtype=np.uint64).tolist()
    pick_draw = rng.integers(0, 1 << 30, size=n_ops).tolist()
    trie = PTrie(PTrieConfig(32, 4))
    st = trie.last_op_stats
    inserted: list[int] = []
    max_ins = max_rm = max_search_layers = 0
    counts = [0, 0, 0, 0]
    for i in range(n_ops):
        op = op_draw[i]
        if op < 50 or not inserted:
            key = key_draw[i]
            trie.insert(key, None)
            inserted.append(key)
            steps = st.layers_visited + 4 * st.index_ops
            if steps > max_ins:
                max_ins = steps
            counts[0] += 1
        elif op < 80:
            if trie.count:
                trie.delete_min()
                steps = st.layers_visited + 4 * st.index_ops
                if steps > max_rm:
                    max_rm = steps
            counts[1] += 1
        elif op < 95:
            trie.remove(inserted[pick_draw[i] % len(inserted)])
            steps = st.layers_visited + 4 * st.index_ops
            if steps > max_rm:
                max_rm = steps
            counts[2] += 1
        else:
            trie.search(key_draw[i])
            if st.layers_visited > max_search_layers:
                max_search_layers = st.layers_visited
            counts[3] += 1
    ok = (
        max_ins <= 12
        and max_rm <= 12
        and max_search_layers <= 8
        and sum(counts) == n_ops
        and max_ins == 12  # the bound is actually reached, not just obeyed
    )
    _verdict(6, "1e6 random ops at 32/4: steps <= 12, search depth <= 8",
             ok, time.perf_counter() - t0, 30.0)


def test_criterion_07_differential_100_seeds():
    t0 = time.perf_counter()
    failures = []
    for seed in range(100):
        verdict = run_differential(seed, n_ops=1000, word_bits=16)
        if not verdict.matched:
            failures.append(verdict.first_divergence)
    _verdict(7, "1e5-op differential vs sorted-list oracle over 100 seeds",
             not failures, time.perf_counter() - t0, 60.0)
    assert not failures, failures[:3]


def test_criterion_08_random_graphs_vs_oracles():
    t0 = time.perf_counter()
    rng = random.Random(808)
    bad = 0
    for trial in range(1000):
        n = rng.randrange(2, 51)
        labels = [f"v{i}" for i in range(n)]
        g = Graph()
        for lb in labels:
            g.add_vertex(lb)
        for _ in range(rng.randrange(1, 3 * n)):
            a, b = rng.sample(labels, 2)
            g.add_edge(a, b, rng.randrange(16))
        src = rng.choice(labels)
        if sssp(g, src).dist != dijkstra_heap(g, src):
            bad += 1
        rev = g.reverse()
        if sdsp(g, src).dist != dijkstra_heap(rev, src):
            bad += 1
        if mst_prim(g, src).total_weight != kruskal_component_weight(g, src):
            bad += 1
    _verdict(8, "1e3 random graphs: sssp/sdsp/mst match the oracles",
             bad == 0, time.perf_counter() - t0, 60.0)


def _digraph_from_code(n_vertices, digits):
    g = Graph()
    labels = [chr(ord("a") + i) for i in range(n_vertices)]
    for lb in labels:
        g.add_vertex(lb)
    pairs = [
        (i, j) for i in range(n_vertices) for j in range(n_vertices) if i != j
    ]
    for (i, j), d in zip(pairs, digits):
        if d:
            g.add_arc(labels[i], labels[j], d - 1)
    return g


def test_criterion_09_small_digraph_sweep():
    t0 = time.perf_counter()
    bad = 0
    checked = 0
    # every digraph on 3 vertices, each ordered pair absent or weighted 0..2
    for digits in itertools.product(range(4), repeat=6):
        g = _digraph_from_code(3, digits)
        tree = sssp(g, "a")
        for v in g.vertices():
            best = brute_force_best_path(g, "a", v)
            if (best is None) != (not tree.is_reachable(v)):
                bad += 1
            elif best is not None and tree.dist[v] != best[0]:
                bad += 1
        checked += 1
    # systematic stride sample of the 4-vertex space (4**12 codes)
    space = 4**12
    stride = 839  # ~2e4 sample points spread across the whole range
    for code in range(0, space, stride):
        digits = [(code // 4**p) % 4 for p in range(12)]
        g = _digraph_from_code(4, digits)
        tree = sssp(g, "a")
        for v in g.vertices():
            best = brute_force_best_path(g, "a", v)
            if (best is None) != (not tree.is_reachable(v)):
                bad += 1
            elif best is not None and tree.dist[v] != best[0]:
                bad += 1
        checked += 1
    ok = bad == 0 and checked >= 4**6 + 19_000
    _verdict(9, "3-vertex exhaustive + 4-vertex sampled sweep vs brute force",
             ok, time.perf_counter() - t0, 120.0)


def test_criterion_10_mean_steps_flatness():
    t0 = time.perf_counter()
    report = scaling_sweep((1_000, 10_000, 100_000, 1_000_000), seed=10)
    ratio = report.flatness_ratio
    ok = ratio < 2.0 and all(m > 0 for m in report.mean_steps)
    _verdict(10, f"mean steps/op across 1e3..1e6 varies {ratio:.3f}x (< 2x)",
             ok, time.perf_counter() - t0, 120.0)


def test_criterion_11_occupancy_model():
    t0 = time.perf_counter()
    mass_ok = True
    for n, degree, level in [(2, 16, 1), (16, 16, 1), (64, 16, 2),
                             (256, 16, 3), (40, 4, 2), (10, 256, 1)]:
        mass = sum(
            prob_exact_occupancy(n, degree, level, g) for g in range(n + 1)
        )
        mass_ok = mass_ok and abs(mass - 1.0) <= 1e-9
    mc_ok = True
    for n_keys, trials in ((16, 2000), (256, 800), (4096, 300)):
        obs = monte_carlo_layer_counts(
            n_keys, PTrieConfig(32, 4), trials=trials, seed=n_keys
        )
        for lvl in range(8):
            se = layer_count_std_bound(n_keys, 16, lvl) / (trials ** 0.5)
            diff = abs(obs.observed_mean[lvl] - obs.expected[lvl])
            if diff > 3 * se + 1e-9:
                mc_ok = False
    ok = mass_ok and mc_ok
    _verdict(11, "occupancy mass sums to 1 (1e-9); MC within 3 SE at K=4",
             ok, time.perf_counter() - t0, 60.0)


def test_criterion_12_validated_soak_with_signed():
    t0 = time.perf_counter()
    rng = random.Random(1212)
    trie = PTrie(PTrieConfig(32, 4))
    signed = SignedPTrie(PTrieConfig(32, 4))
    keys: list[int] = []
    svals: list[int] = []
    ops = 0
    failures = []

    def check(queue) -> None:
        report = queue.validate()
        if not report.ok:
            failures.append(f"op {ops}: {report.error}")

    while ops < 100_000 and not failures:
        ops += 1
        if rng.random() < 0.7:
            r = rng.random()
            if (r < 0.45 and trie.count < 90) or trie.count == 0:
                k = rng.randrange(1 << 32)
                keys.append(k)
                trie.insert(k, ops)
            elif r < 0.70:
                trie.delete_min()
            elif r < 0.90:
                trie.remove(rng.choice(keys))
            else:
                trie.search(rng.choice(keys))
            check(trie)
        else:
            r = rng.random()
            if (r < 0.5 and len(signed) < 60) or len(signed) == 0:
                v = rng.randrange(-(2**31) + 1, 2**31)
                svals.append(v)
                signed.insert(v, ops)
            elif r < 0.9:
                signed.delete_min()
            else:
                signed.minimum()
            check(signed.trie)
    ok = not failures and ops == 100_000
    _verdict(12, "validate() clean after every op of a 1e5-op mixed soak",
             ok, time.perf_counter() - t0, 60.0)
    assert not failures, failures[:3]
