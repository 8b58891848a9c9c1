"""Self-test of the benchmark harness at tiny sizes; takes under a minute.

    python3 perfbench/selftest.py

For every workload it makes one end-to-end and two traced runs with the
same seed, and fails unless each run is correct, prints exactly the
metrics ``BENCHMARK.json`` declares for its mode with their units, and the
two traced runs agree exactly on the step counts and live layers.  It also
checks that ``BENCHMARK.json`` matches ``metrics.py`` and that the
benchmark refuses to run in a directory without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import WORKLOADS, benchmark_json  # noqa: E402

SEED = 7
DETERMINISTIC = ("ptrie.steps.mean", "ptrie.steps.max", "ptrie.layers_live")


def _run(cwd: str, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def _result(workload: str, trace: int, errors: list[str]) -> dict:
    code, out = _run(ROOT, workload, trace)
    if code != 0:
        errors.append(f"{workload} trace={trace}: exit {code}")
        return {}
    res = json.loads(out.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload} trace={trace}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        errors.append(f"{workload} trace={trace}: correct={res['correct']} "
                      f"failed={res['failed']} of {res['attempted']}")
    return res


def main() -> int:
    errors: list[str] = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if declared != benchmark_json():
        errors.append("BENCHMARK.json differs from metrics.benchmark_json()")
    units = {mode: {m["name"]: m["unit"] for m in declared[mode]}
             for mode in ("end_to_end", "per_layer")}
    for workload in WORKLOADS:
        runs = {0: [_result(workload, 0, errors)],
                1: [_result(workload, 1, errors), _result(workload, 1, errors)]}
        for trace, results in runs.items():
            want = units["per_layer" if trace else "end_to_end"]
            for res in results:
                got = {n: m["unit"] for n, m in res.get("metrics", {}).items()}
                if res and got != want:
                    errors.append(f"{workload} trace={trace}: metrics differ from "
                                  f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        e2e = runs[0][0].get("metrics", {})
        for name, m in e2e.items():
            if not m["value"] > 0:
                errors.append(f"{workload}: {name} = {m['value']}")
        traced = [r.get("metrics", {}) for r in runs[1]]
        if all(traced):
            if traced[0]["failed_frac"]["value"] != 0:
                errors.append(f"{workload}: failed_frac {traced[0]['failed_frac']['value']}")
            for name in DETERMINISTIC:
                a, b = (t[name]["value"] for t in traced)
                if a != b:
                    errors.append(f"{workload}: {name} differs between runs: {a} vs {b}")
            if not 0 < traced[0]["ptrie.steps.max"]["value"] <= 12:
                errors.append(f"{workload}: ptrie.steps.max "
                              f"{traced[0]['ptrie.steps.max']['value']}")
        print(f"selftest: {workload} done", flush=True)

    # Without the package source the benchmark must fail and print no result.
    bare = os.path.join(HERE, ".work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, out = _run(bare, "hold", 0)
        if code == 0 or out.strip():
            errors.append(f"bare directory: exit {code}, stdout {out.strip()[:80]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print(f"selftest: FAIL {e}")
    print("selftest: " + ("failed" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
