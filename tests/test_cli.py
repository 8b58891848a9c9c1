"""Command-line behavior: outputs, JSON payloads, exit codes."""

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import prefixpq
from prefixpq import PTrieConfig, bench, sssp
from prefixpq.cli import main
from prefixpq.graphs import parse_graph
from prefixpq.oracles import dijkstra_heap
from prefixpq.schemas import SCHEMAS, validate_payload


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMst:
    def test_fig4_total(self, capsys):
        code, out, _ = run(capsys, "mst", "--input", "fig4.g", "--root", "A")
        assert code == 0
        assert "total 19" in out
        assert "spans_all true" in out

    def test_fig1_json(self, capsys):
        code, out, _ = run(
            capsys, "mst", "--input", "fig1.g", "--root", "A", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        validate_payload("mst", payload)
        assert payload["total_weight"] == 8
        assert len(payload["edges"]) == 6

    def test_json_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run(
            capsys, "mst", "--input", "fig4.g", "--root", "A", "--json"
        )
        _, second, _ = run(
            capsys, "mst", "--input", "fig4.g", "--root", "A", "--json"
        )
        assert first == second


class TestPaths:
    def test_sssp_table(self, capsys):
        code, out, _ = run(capsys, "sssp", "--input", "fig6.g", "--source", "A")
        assert code == 0
        assert "vertex B dist=1 hops=1" in out
        assert "vertex D dist=4 hops=2" in out

    def test_sssp_json(self, capsys):
        code, out, _ = run(
            capsys, "sssp", "--input", "fig6.g", "--source", "A", "--json"
        )
        payload = json.loads(out)
        validate_payload("path-tree", payload)
        assert payload["vertices"]["E"] == {
            "reachable": True,
            "dist": 3,
            "hops": 2,
            "back": {"parent": "B", "weight": 2},
        }

    def test_walk_option(self, capsys):
        code, out, _ = run(
            capsys, "sssp", "--input", "demo.g", "--source", "A", "--walk", "E"
        )
        assert code == 0
        assert "walk [E]--(0)->[G]--(1)->[F]--(2)->[D]--(1)->[A]" in out

    def test_sdsp(self, capsys):
        code, out, _ = run(capsys, "sdsp", "--input", "demo.g", "--dest", "D")
        assert code == 0
        assert "vertex A dist=1" in out

    def test_unreachable_rendering(self, capsys, tmp_path):
        path = tmp_path / "tiny.g"
        path.write_text("v A\nv B\na A B 1\n")
        code, out, _ = run(capsys, "sdsp", "--input", str(path), "--dest", "A")
        assert code == 0
        assert "vertex B unreachable" in out

    @pytest.mark.parametrize("cmd", [["sssp", "--source", "A"],
                                     ["sdsp", "--dest", "A"]])
    def test_walk_from_an_unknown_vertex_is_input_error(
        self, capsys, tmp_path, cmd
    ):
        path = tmp_path / "tiny.g"
        path.write_text("v A\nv B\nv C\na A B 1\na B A 1\n")
        for walk_json in (["--walk", "ZZ"], ["--walk", "ZZ", "--json"]):
            code, out, err = run(capsys, *cmd, "--input", str(path), *walk_json)
            assert (code, out) == (2, "")
            assert "unknown vertex 'ZZ'" in err
        # a known vertex the tree never reached still renders
        code, out, _ = run(capsys, *cmd, "--input", str(path), "--walk", "C")
        assert code == 0
        assert out.endswith("walk C: unreachable\n")


class TestTrace:
    def test_text_log(self, capsys):
        code, out, _ = run(capsys, "trace", "--input", "demo.g", "--source", "A")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step=1 extract=A->D w=1 accept"
        assert lines[2] == "step=3 extract=A->B w=3 reject"
        assert lines[-1] == "settled 7 of 7"
        assert "queued" not in out

    def test_verbose_snapshots(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--input", "demo.g", "--source", "A", "--verbose"
        )
        assert code == 0
        assert "    queued w=1 A->D" in out

    def test_json_trace(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--input", "demo.g", "--source", "A", "--json"
        )
        payload = json.loads(out)
        validate_payload("trace", payload)
        assert len(payload["events"]) == 16
        assert payload["events"][1]["queue"][0]["pathWeight"] == 2


class TestBench:
    def test_workload_json_deterministic(self, capsys):
        args = ("bench", "--n", "5000", "--seed", "3", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        payload = json.loads(first)
        validate_payload("bench", payload)
        assert payload["max_insert_steps"] <= 12
        assert payload["max_extract_steps"] <= 12
        assert payload["extractions"] == 5000

    def test_workload_text_mentions_throughput(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "2000")
        assert code == 0
        assert "ops/s" in out

    def test_oracle_queue_agrees_on_checksum(self, capsys):
        _, out_t, _ = run(
            capsys, "bench", "--n", "3000", "--seed", "9", "--json"
        )
        _, out_o, _ = run(
            capsys, "bench", "--n", "3000", "--seed", "9", "--queue", "oracle",
            "--json",
        )
        trie_payload = json.loads(out_t)
        oracle_payload = json.loads(out_o)
        assert (
            trie_payload["drain_checksum"] == oracle_payload["drain_checksum"]
        )

    def test_scaling_mode(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--mode", "scaling", "--sizes", "500", "2000",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate_payload("bench", payload)
        assert payload["flatness_ratio"] >= 1.0

    def test_dijkstra_mode(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--mode", "dijkstra", "--vertices", "200",
            "--arcs", "800", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate_payload("bench", payload)
        assert payload["agrees_with_heap"] is True

    def test_dijkstra_mode_runs_on_the_given_geometry(self, capsys, monkeypatch):
        configs = []

        def recording_sssp(g, source, config=None):
            configs.append(config)
            return sssp(g, source, config)

        monkeypatch.setattr(bench, "sssp", recording_sssp)
        args = ("bench", "--mode", "dijkstra", "--vertices", "300", "--arcs",
                "1500", "--seed", "2", "--json")
        code, default, _ = run(capsys, *args)
        assert code == 0
        for geometry in (["--k", "2"], ["--m", "64", "--k", "8"]):
            assert run(capsys, *args, *geometry) == (0, default, "")
        assert configs == [PTrieConfig(32, 4), PTrieConfig(32, 2),
                           PTrieConfig(64, 8)]

    def test_dijkstra_mode_keys_too_narrow_is_input_error(self, capsys):
        code, out, err = run(capsys, "bench", "--mode", "dijkstra",
                             "--vertices", "300", "--arcs", "1500", "--m", "8")
        assert (code, out) == (2, "")
        assert "exceeds the 8-bit key range (--m 8)" in err

    def test_scaling_mode_refuses_the_oracle(self, capsys):
        code, out, err = run(capsys, "bench", "--mode", "scaling", "--sizes",
                             "500", "--queue", "oracle")
        assert (code, out) == (1, "")
        assert "oracle queue has none" in err


class TestAnalyze:
    def test_table(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--n", "64", "--trials", "40", "--seed", "1"
        )
        assert code == 0
        assert "level  expected" in out
        assert "prob_mass_check" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--n", "64", "--trials", "30", "--json"
        )
        payload = json.loads(out)
        validate_payload("analyze", payload)
        assert payload["prob_mass_check"] == pytest.approx(1.0, abs=1e-9)
        assert len(payload["levels"]) == 8

    def test_levels_limit(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--n", "32", "--trials", "20", "--levels", "3",
            "--json",
        )
        payload = json.loads(out)
        assert len(payload["levels"]) == 3

    def test_n_past_float_binomials(self, capsys):
        # C(1030, 515) exceeds the float range
        code, out, _ = run(
            capsys, "analyze", "--n", "1030", "--trials", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["prob_mass_check"] == pytest.approx(1.0, abs=1e-9)

    def test_root_layer_counts_below_two_keys(self, capsys):
        # the trie allocates its root up front, and the model counts it
        code, out, _ = run(
            capsys, "analyze", "--n", "1", "--trials", "3", "--levels", "2",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        root = payload["levels"][0]
        assert root["expected"] == root["observed_mean"] == 1.0
        assert payload["expected_total"] == payload["observed_total_mean"]

    def test_deterministic_for_seed(self, capsys):
        args = ("analyze", "--n", "64", "--trials", "25", "--seed", "5",
                "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


# SHA-256 of the canonical --json bytes: a refactor of the report builders
# must leave every value, key and float repr as it was.
@pytest.mark.parametrize("argv,digest", [
    pytest.param(
        "bench --n 1000 --seed 3 --json",
        "8666ad72ad860ad3b9cae363924dbab393aa255afface8d03ff74b8fd3ac3db4",
        id="workload-ptrie"),
    pytest.param(
        "bench --n 1000 --queue oracle --seed 3 --json",
        "693b1dada178f8ea7c5ed5ab1b89a4d8a607bd382195d431fc412f629df9e1a8",
        id="workload-oracle"),
    pytest.param(
        "bench --mode scaling --sizes 500 2000 --seed 4 --json",
        "eefdafd67ac8421fe2f95d5adc0acee83c220c8b22c8e0937a66455e1cc118dc",
        id="scaling"),
    pytest.param(
        "bench --mode dijkstra --vertices 300 --arcs 1500 --seed 2 --json",
        "692e1d23debda7f4eb4711532518a2f1abdfea5d6a09c6c6186ca31e8cfbfbda",
        id="dijkstra-ptrie"),
    pytest.param(
        "bench --mode dijkstra --vertices 300 --arcs 1500 --queue oracle "
        "--seed 2 --json",
        "cc85dd77656629042bb400a52e8269f5b67b258e7890515187c08cdda16b741a",
        id="dijkstra-oracle"),
    pytest.param(
        "analyze --n 64 --trials 5 --seed 1 --json",
        "6e7c8266385f8291fc3e4f5cae9be82d632a9efffff21077f4e95ae83c61fd7c",
        id="analyze"),
])
def test_json_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mst", "--input", "fig4.g"])
        assert exc.value.code == 1

    def test_bad_stride_is_usage_error(self, capsys):
        code = main(["mst", "--input", "fig4.g", "--root", "A", "--k", "5"])
        assert code == 1

    def test_missing_file_is_input_error(self, capsys):
        assert main(["mst", "--input", "nope.g", "--root", "A"]) == 2

    def test_parse_error_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.g"
        bad.write_text("v A\nq A A 1\n")
        code = main(["sssp", "--input", str(bad), "--source", "A"])
        captured = capsys.readouterr()
        assert code == 2
        assert "line 2" in captured.err

    def test_graph_that_is_not_utf8_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.g"
        bad.write_bytes(b"v A\nv \xff\n")
        code, out, err = run(capsys, "sssp", "--input", str(bad), "--source", "A")
        assert (code, out) == (2, "")
        assert "line 2: not UTF-8 text" in err

    def test_unknown_vertex_is_input_error(self, capsys):
        assert main(["sssp", "--input", "fig6.g", "--source", "Q"]) == 2

    def test_weight_overflow_under_small_m(self, capsys, tmp_path):
        g = tmp_path / "wide.g"
        g.write_text("v A\nv B\na A B 300\n")
        code = main(["sssp", "--input", str(g), "--source", "A", "--m", "8",
                     "--k", "4"])
        assert code == 2

    def test_path_sum_overflow_is_input_error(self, capsys, tmp_path):
        g = tmp_path / "long.g"
        g.write_text("v A\nv B\nv C\na A B 4294967295\na B C 1\n")
        code, _, err = run(capsys, "sssp", "--input", str(g), "--source", "A")
        assert code == 2
        assert "path weight 4294967296" in err and "--m 32" in err

    def test_unexpected_exception_is_internal_error(self, capsys,
                                                    monkeypatch):
        def fail(*_args):
            raise RuntimeError("queue invariant broken")

        monkeypatch.setattr("prefixpq.cli.mst_prim", fail)
        code, out, err = run(capsys, "mst", "--input", "fig4.g", "--root", "A")
        assert (code, out) == (3, "")
        assert err == (
            "prefixpq: internal error: RuntimeError: queue invariant broken\n"
        )

    @pytest.mark.parametrize("argv,name", [
        pytest.param(["bench", "--n", "-5"], "n", id="bench-n"),
        pytest.param(["bench", "--mode", "dijkstra", "--vertices", "-2"],
                     "n_vertices", id="bench-vertices"),
        pytest.param(["bench", "--mode", "dijkstra", "--arcs", "-1"],
                     "n_arcs", id="bench-arcs"),
        pytest.param(["bench", "--mode", "dijkstra", "--vertices", "0",
                      "--arcs", "0"], "n_vertices", id="bench-no-vertex"),
        pytest.param(["bench", "--mode", "dijkstra", "--vertices", "0",
                      "--arcs", "5"], "n_vertices", id="bench-no-vertex-arcs"),
        pytest.param(["bench", "--mode", "scaling", "--sizes", "500", "-3"],
                     "scaling size", id="bench-sizes-negative"),
        pytest.param(["bench", "--mode", "scaling", "--sizes", "0"],
                     "scaling size", id="bench-sizes-zero"),
        pytest.param(["bench", "--n", "10", "--seed", "-1"], "seed",
                     id="bench-seed"),
        pytest.param(["analyze", "--n", "-4", "--trials", "2"], "n",
                     id="analyze-n"),
        pytest.param(["analyze", "--n", "8", "--trials", "2", "--seed", "-1"],
                     "seed", id="analyze-seed"),
    ])
    def test_bad_size_or_seed_is_usage_error(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"error: {name} must be" in err


# Loaded modules are checked in a fresh interpreter: the test process
# itself has imported both libraries already.
_IMPORT_PROBE = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("numpy", "jsonschema") if m in sys.modules]

import prefixpq
seen = [loaded()]
from prefixpq.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["mst", "--input", "fig4.g", "--root", "A"]))
    codes.append(main(["trace", "--input", "demo.g", "--source", "A"]))
    seen.append(loaded())
    codes.append(main(["sssp", "--input", "fig6.g", "--source", "A", "--json"]))
    codes.append(main(["trace", "--input", "demo.g", "--source", "A", "--json"]))
    seen.append(loaded())
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_runtime_import_set(tmp_path):
    src = str(Path(prefixpq.__file__).resolve().parents[1])
    path = [src] + [p for p in (os.environ.get("PYTHONPATH"),) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0, 0]
    after_import, after_text, after_json = got["seen"]
    assert "numpy" not in after_import
    assert after_text == []
    assert after_json == []


def test_random_graph_payloads_fit_their_schemas(capsys, tmp_path):
    # the CLI prints --json payloads without checking them; this checks the
    # graph commands on weight ties, parallel arcs, self-loops and a vertex
    # no arc touches
    rng = random.Random(15)
    for i in range(30):
        labels = [f"v{j}" for j in range(rng.randrange(2, 9))]
        ends = [(rng.choice(labels), rng.choice(labels))
                for _ in range(rng.randrange(1, 3 * len(labels)))]
        ends += [(labels[0], labels[0]), ends[0]]
        text = "".join(f"v {v}\n" for v in labels + ["lone"])
        text += "".join(f"a {t} {h} {rng.randrange(3)}\n" for t, h in ends)
        path = tmp_path / f"g{i}.g"
        path.write_text(text)
        src = rng.choice(labels)
        for kind, argv in (
            ("mst", ["mst", "--root", src]),
            ("path-tree", ["sssp", "--source", src]),
            ("path-tree", ["sdsp", "--dest", src]),
            ("trace", ["trace", "--source", src]),
        ):
            code, out, err = run(capsys, *argv, "--input", str(path), "--json")
            assert code == 0, err
            validate_payload(kind, json.loads(out))


class TestSchemas:
    def test_all_schemas_are_valid_drafts(self):
        for schema in SCHEMAS.values():
            jsonschema.Draft202012Validator.check_schema(schema)

    def test_validate_payload_rejects_junk(self):
        with pytest.raises(jsonschema.ValidationError):
            validate_payload("mst", {"nope": 1})


_LABELS = ("A", "B", "C", "D", "E")


@st.composite
def _cli_case(draw):
    """Graph bytes, a subcommand and a vertex for it, and a legal --m/--k.

    The graph is well formed apart from at most one bad line (a junk
    directive, a bad weight or an undeclared endpoint) and maybe a stray
    byte, so that most cases solve.
    """
    m, k = draw(st.sampled_from([(8, 4), (12, 3), (16, 2), (16, 4), (32, 4)]))
    top = 1 << m
    weight = st.one_of(
        st.integers(0, 2),  # ties
        st.integers(0, top - 1),
        st.integers(top - 3, top - 1),  # sums run past the key width
    ).map(str)
    declared = draw(st.lists(st.sampled_from(_LABELS), unique=True,
                             min_size=1, max_size=5))
    known = st.sampled_from(declared)
    any_label = st.sampled_from(_LABELS)
    kind = st.sampled_from("ae")
    line = st.tuples(kind, known, known, weight).map(" ".join) | st.just("# c")
    lines = ["v " + v for v in declared] + draw(st.lists(line, max_size=8))
    if draw(st.integers(0, 3)) == 2:
        bad_weight = st.integers(top, top + 3).map(str) | st.sampled_from(
            ["-1", "+3", "1_0", "x1", "\u0663"])
        bad = st.one_of(
            st.tuples(kind, known, known, bad_weight).map(" ".join),
            st.tuples(kind, any_label, any_label, weight).map(" ".join),
            st.sampled_from(["q A B 1", "v", "a A B", "v A B", "v A"]),
        )
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    data = "\n".join(lines).encode()
    if draw(st.integers(0, 9)) == 5:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    command = draw(st.sampled_from(["sssp", "sdsp", "mst", "trace"]))
    vertex = draw(st.one_of(known, known, known, any_label))
    return m, k, data, command, vertex, draw(st.booleans())


def _sum_overflows(g, source):
    """Some arc out of a vertex reachable from ``source`` ends past the key width."""
    dist = dijkstra_heap(g, source)
    return any(d + arc.weight > g.max_weight
               for v, d in dist.items() for arc in g.arcs_from(v))


@settings(max_examples=80, deadline=None)
@given(_cli_case())
def test_any_graph_text_solves_or_is_an_input_error(case):
    m, k, data, command, vertex, as_json = case
    flag = {"mst": "--root", "sdsp": "--dest"}.get(command, "--source")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.g")
        with open(path, "wb") as fh:
            fh.write(data)
        argv = [command, "--input", path, flag, vertex, "--m", str(m),
                "--k", str(k)]
        if as_json or command == "sssp":
            argv.append("--json")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        msg = err.getvalue()
        if re.search(r"line \d+: |vertex '", msg):
            return
        # the one input error that names neither: a path sum past the key
        # width, which must really happen on the way from the source
        assert re.search(r"path weight \d+ exceeds", msg), msg
        g = parse_graph(data.decode(), m)
        assert _sum_overflows(g if command != "sdsp" else g.reverse(), vertex)
        return
    if command == "sssp":
        got = {v: e["dist"]
               for v, e in json.loads(out.getvalue())["vertices"].items()
               if e["reachable"]}
        assert got == dijkstra_heap(parse_graph(data.decode(), m), vertex)
