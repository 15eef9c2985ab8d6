#!/usr/bin/env python3
"""End-to-end multigrid benchmark.

Run from the repository root::

    python3 mgbench/run.py --workload cold-aniso40 --seed 1 --seconds 50 --trace 0

``--workload all`` runs the three workloads in turn; its metrics are
then named ``<workload>.<metric>``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps the layers' entry points and reports the per-layer
metrics instead.  Every solution is checked against the fine operator
outside the timed region.  A human-readable table precedes the result;
the last line of standard output is one JSON object.

Exit codes: 0 success, 1 a wrong or failed answer, 2 usage, 3 the
``repro`` package cannot be imported, 4 the run is invalid (the load
generator fell behind), 5 the trace accounting is inconsistent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> dict[str, str]:
    """Pin BLAS/OpenMP threads to at most ``nproc`` (default 1).

    Must run before NumPy is imported.
    """
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return {var: os.environ[var] for var in THREAD_VARS}


def git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args, threads: dict[str, str]) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "threads": threads,
        "backend": os.environ.get("REPRO_BACKEND", "numpy (default)"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    print(f"  {'metric':<44} {'value':>14}  {'unit':<6} {'n':>4}  note")
    for name, value, unit, n, note in rows:
        print(f"  {name:<44} {value:>14.6g}  {unit:<6} {n:>4}  {note}")


def run_workload(name: str, args, spec: dict) -> tuple[int, int, int, dict]:
    """Run one workload; ``(exit code, attempted, failed, metrics)``."""
    from mgbench import report
    from mgbench.layers import LayerTracer
    from mgbench.workloads import WORKLOADS

    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        result = WORKLOADS[name](args.seed, args.seconds, tracer)
        if tracer is not None:
            overhead = report.probe_overhead(result, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(f"# {name}: workload wall {time.perf_counter() - t0:.3f}s over "
          f"{result.reps} repetition(s)")

    if result.invalid:
        print(f"mgbench: {name} run invalid, not scored: {result.invalid}", file=sys.stderr)
        return 4, 0, 0, {}
    if tracer is None:
        e2e_rows = report.end_to_end(result)
        _print_table(f"{name}: end-to-end", e2e_rows)
        wanted = spec["end_to_end"]
        values = {r[0]: r[1] for r in e2e_rows}
    else:
        values = report.per_layer(result, tracer, overhead)
        for notice in tracer.missing:
            print(f"# notice: entry point missing, its rows read 0: {notice}")
        if tracer.unresolved:
            print(f"# notice: {tracer.unresolved} wrapped call(s) did not resolve to a level")
        _print_table(f"{name}: per-layer (per repetition)", report.layer_rows(values))
        frac = values["trace.self_time_frac"]
        if frac > 1.0 + 1e-6:
            print(f"mgbench: self times sum to {frac:.4f} of the wall clock", file=sys.stderr)
            return 5, 0, 0, {}
        wanted = spec["per_layer"]
    report.print_checks(result)
    failed = sum(1 for c in result.checks if not c.ok)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    return (0 if failed == 0 else 1), len(result.checks), failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro
    except ImportError as exc:
        print(f"mgbench: cannot import the repro package from src/: {exc}", file=sys.stderr)
        return 3
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"mgbench: repro imported from {repro.__file__}, not from src/", file=sys.stderr)
        return 3
    from mgbench.workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"mgbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    spec = load_spec()
    print("# meta " + json.dumps(metadata(args, threads), sort_keys=True))

    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        rc, n_attempted, n_failed, values = run_workload(name, args, spec)
        if rc in (4, 5):
            return rc
        attempted += n_attempted
        failed += n_failed
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{k}": v for k, v in values.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
