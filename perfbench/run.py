"""Wall-clock benchmark of prefixpq: one workload per run.

    python3 perfbench/run.py --workload hold --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the end-to-end ones of ``metrics.END_TO_END``, with ``--trace 1`` the
per-layer ones of ``metrics.PER_LAYER``, measured in a separate traced run.
Earlier lines give the environment and every metric with its unit.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from common import Context, Result  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

# Every queue in the workloads is built at the default 32-bit key, 4-bit
# chunk shape, whose per-operation step bound is 32/4 + 4.
STEP_BOUND = 32 // 4 + 4


def _commit(root: str) -> str:
    """HEAD of a git checkout at ``root``, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "scale": "tiny" if args.tiny else "full",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "gc_enabled": gc.isenabled(),
        "gc_thresholds": list(gc.get_threshold()),
        "commit": _commit(ROOT),
        "numpy_imported": "numpy" in sys.modules,
        "jsonschema_imported": "jsonschema" in sys.modules,
    }


def _import_package() -> float:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "prefixpq", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import prefixpq  # noqa: F401
    import prefixpq.oracles  # noqa: F401
    return time.perf_counter() - t0


def _run(workload: str, ctx: Context) -> Result:
    if workload in ("hold", "churn"):
        import pq_workloads

        return pq_workloads.run(workload, ctx)
    import graph_workloads

    if workload == "graph":
        return graph_workloads.run_graph(ctx)
    return graph_workloads.run_cli(ctx)


def _report(args: argparse.Namespace, res: Result) -> dict:
    declared = {n: spec[0] for n, spec in (PER_LAYER if args.trace else END_TO_END).items()}
    unknown = sorted(set(res.metrics) - set(declared))
    if unknown:
        raise RuntimeError(f"undeclared metrics {unknown}")
    if args.trace:
        res.metrics["failed_frac"] = res.failed / max(1, res.attempted)
        # Layers a workload does not reach read 0.
        values = {n: res.metrics.get(n, 0) for n in declared}
    else:
        missing = sorted(set(declared) - set(res.metrics))
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
        values = res.metrics
    return {n: {"value": values[n], "unit": u} for n, u in declared.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the self-test")
    args = p.parse_args(argv)

    import_s = _import_package()
    ctx = Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), tiny=args.tiny, import_s=import_s)
    try:
        res = _run(args.workload, ctx)
        if "ptrie.steps.max" in res.metrics:
            res.check(res.metrics["ptrie.steps.max"] <= STEP_BOUND,
                      f"ptrie.steps.max {res.metrics['ptrie.steps.max']} > {STEP_BOUND}")
        metrics = _report(args, res)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    print("env " + json.dumps(_environment(args), sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
