"""Turn a workload's raw samples into the benchmark's metrics."""

from __future__ import annotations

import math
import time

from . import stats
from .workloads import WorkloadResult

PROBE_PAIRS = 7


def end_to_end(result: WorkloadResult) -> list[tuple]:
    """``(name, value, unit, samples, note)`` for every end-to-end metric."""
    n_lat = len(result.latency_s)
    failed = sum(1 for c in result.checks if not c.ok)
    attempted = len(result.checks)

    def timing(name, values, unit="s"):
        return (name, stats.median(values), unit, len(values), "median")

    rows = [
        timing("setup_s", result.setup_s),
        timing("solve_s", result.solve_s),
        timing("time_to_solution_s", result.tts_s),
        timing("rhs_per_s", result.rhs_per_s, "1/s"),
    ]
    for q in (0.5, 0.75):
        beyond = stats.samples_beyond(n_lat, q)
        note = f"{beyond} beyond" + ("" if beyond >= stats.MIN_BEYOND else
                                     f" (< {stats.MIN_BEYOND}: indicative only)")
        rows.append((f"latency_p{round(q * 100)}_s", stats.percentile(result.latency_s, q),
                     "s", n_lat, note))
    rows.append(timing("setup_mb", result.setup_mb, "MB"))
    rows.append(("failed_fraction", failed / max(attempted, 1), "ratio", attempted,
                 f"{failed} failed"))
    return rows


def probe_overhead(result: WorkloadResult, tracer) -> float:
    """Traced over untraced wall time of a short fixed solve, minus one.

    Runs the workload's own solve path on its last hierarchy in adjacent
    untraced/traced pairs, alternating which goes first, and takes the
    median ratio: the host's speed drifts by more than the overhead
    between any two runs far apart.  The traced calls are booked nowhere.
    """
    ratios = []
    for i in range(PROBE_PAIRS):
        walls = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.phase = "probe" if traced else None
            t0 = time.perf_counter()
            result.probe()
            walls[traced] = time.perf_counter() - t0
        ratios.append(walls[True] / walls[False])
    tracer.phase = None
    tracer.discard()
    return stats.median(ratios) - 1.0


def solver_metrics(result: WorkloadResult) -> dict[str, float]:
    """Iteration telemetry: outer iterations per solution, coarse GCR
    iterations per repetition, and the useful share of batched work."""
    iters = [res.iterations for call in result.solve_calls for res in call]
    gcr = {1: 0, 2: 0}
    useful = attempted = 0
    for call in result.solve_calls:
        level_stats = call[0].telemetry.level_stats or {}
        for level in gcr:
            gcr[level] += level_stats.get(level, {}).get("gcr_iters", 0)
        call_iters = [res.iterations for res in call]
        useful += sum(call_iters)
        attempted += len(call) * max(call_iters)
    reps = max(result.reps, 1)
    return {
        "solvers.outer_iters": stats.median(iters) if iters else 0.0,
        "solvers.gcr_iters.L1": gcr[1] / reps,
        "solvers.gcr_iters.L2": gcr[2] / reps,
        "mg.batch_useful_fraction": useful / attempted if attempted else 0.0,
    }


SERVE_KEYS = (
    "serve.batches", "serve.batch_size_mean", "serve.queue_wait_p50_s",
    "serve.rejected", "serve.setup_cache.hits", "serve.setup_cache.misses",
    "serve.backlog_end", "loadgen.lag_max_s", "loadgen.backlog_end",
)


def per_layer(result: WorkloadResult, tracer, overhead: float) -> dict[str, float]:
    values = tracer.metrics(result.reps)
    values.update(solver_metrics(result))
    for key in SERVE_KEYS:
        values[key] = float(result.serve.get(key, 0.0))
    values["serve.busy_s"] = (
        values["solve.mg.solve.L0.incl_s"] + values["solve.mg.batched_solve.L0.incl_s"]
        if result.serve else 0.0
    )
    values["trace.overhead_frac"] = overhead
    values["trace.self_time_frac"] = tracer.self_time_total() / result.wall_s
    return values


def layer_rows(values: dict[str, float]) -> list[tuple]:
    """Table rows for every non-zero per-layer value."""
    rows = []
    for name in sorted(values):
        value = values[name]
        if value == 0:
            continue
        stat = name.rsplit(".", 1)[-1]
        unit = {"calls": "count", "gflop": "GFLOP", "gb": "GB"}.get(
            stat, "s" if name.endswith("_s") else ""
        )
        rows.append((name, value, unit, 1, ""))
    return rows


def print_checks(result: WorkloadResult) -> None:
    """Correctness-gate summary: residuals, iterations, failure reasons."""
    ok = [c for c in result.checks if c.ok]
    bad = [c for c in result.checks if not c.ok]
    iters = sorted(c.iterations for c in result.checks)
    worst = max((c.residual for c in ok), default=math.nan)
    print(f"# checks: {len(ok)}/{len(result.checks)} verified, worst true residual "
          f"{worst:.3e}, outer iterations {iters[0] if iters else '-'}"
          f"..{iters[-1] if iters else '-'}")
    for c in bad[:10]:
        print(f"# FAILED: {c.reason} (iterations {c.iterations}, residual {c.residual:.3e})")
