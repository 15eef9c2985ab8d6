"""The three benchmark workloads, driven only through public APIs.

* ``cold-aniso40`` — build the operator, run the full adaptive setup,
  solve one Gaussian right-hand side with ``MultigridSolver.solve``
  (the sequential K-cycle); repeated until the time budget is spent.
* ``propagator-iso48`` — setup, then the 12 spin x colour point
  sources at a seed-chosen site through ``solve_multi(batched=True)``.
* ``serve-aniso40`` — a ``SolveService`` with an empty ``SetupCache``;
  register, then an open loop of single right-hand sides arriving in
  bursts of 2, 3 or 4 on a fixed schedule, from one generator thread.

Every input comes from ``--seed``: the setup RNG, the sources and the
arrival schedule.  The gauge fields stay the datasets' calibrated ones.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.dirac.wilson import WilsonCloverOperator
from repro.mg import MultigridSolver
from repro.serve import ServeConfig, ServiceOverloadedError, SetupCache, SolveService
from repro.workloads import ANISO40_SCALED, ISO48_SCALED, mg_params_for

from . import stats

STRATEGY = "24/24"
SERVE_BURST_SIZES = (2, 3, 4)  # each once per cycle, in seeded order
SERVE_SLOT_S = 3.0  # one burst per slot: 1 request/s offered
SERVE_JITTER_S = 0.3  # a burst is due at a uniform time in its slot's first 0.3 s
SERVE_MIN_REQUESTS = stats.min_samples(0.75)  # ten samples beyond p75
SERVE_SETUPS = 3  # setup_s is the median of this many setups
SERVE_SETUP_ALLOWANCE_S = 9.0  # what the setups take of the time budget
SERVE_CONFIG = dict(max_batch=8, max_wait_s=0.05, n_workers=1)
LAG_LIMIT_S = 0.1  # a generator later than this invalidates the run
DRAIN_TIMEOUT_S = 120.0

_WORKLOAD_IDS = {"cold-aniso40": 1, "propagator-iso48": 2, "serve-aniso40": 3}
_STREAMS = {"setup": 1, "sources": 2, "schedule": 3}


def rng_for(seed: int, workload: str, rep: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, workload, repetition, stream)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, _WORKLOAD_IDS[workload], rep, _STREAMS[stream]])
    )


def gaussian_source(volume: int, rng: np.random.Generator) -> np.ndarray:
    shape = (volume, 4, 3)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def point_sources(volume: int, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """The 12 spin x colour point sources at one random site."""
    site = int(rng.integers(volume))
    bs = np.zeros((12, volume, 4, 3), dtype=np.complex128)
    for i in range(12):
        bs[i, site, i // 3, i % 3] = 1.0
    return site, bs


def burst_schedule(n_cycles: int, rng: np.random.Generator) -> np.ndarray:
    """Send offsets (s) of the requests of ``n_cycles`` burst cycles.

    Each cycle holds one burst of each size in ``SERVE_BURST_SIZES``, in
    a seeded order; one burst is due per ``SERVE_SLOT_S`` slot, at a
    uniform time in the slot's first ``SERVE_JITTER_S``.  A burst's
    requests are due together, so the batcher coalesces them into one
    ragged-K batch.  The slot outlasts a batch of 4 by about a third, so
    bursts do not queue behind each other unless the solves slow down.
    A steady stream at 1.5 requests/s instead kept the service ~97% busy:
    the batch size then followed the host's speed and the median latency
    swung from 1.6 s to 2.3 s between runs.
    """
    sizes = np.concatenate([rng.permutation(SERVE_BURST_SIZES) for _ in range(n_cycles)])
    due = np.arange(len(sizes)) * SERVE_SLOT_S + rng.uniform(0, SERVE_JITTER_S, len(sizes))
    return np.repeat(due, sizes)


def serve_cycles(seconds: float) -> int:
    """Burst cycles in a serve window: the budget left after the setups,
    and enough requests for ten samples beyond p75."""
    cycle_s = SERVE_SLOT_S * len(SERVE_BURST_SIZES)
    return max(
        math.ceil(SERVE_MIN_REQUESTS / sum(SERVE_BURST_SIZES)),
        round((seconds - SERVE_SETUP_ALLOWANCE_S) / cycle_s),
    )


@dataclass
class Check:
    """Outcome of the correctness gate for one solution."""

    ok: bool
    residual: float
    iterations: int
    reason: str = ""


def check_solution(op, b: np.ndarray, res, tol: float) -> Check:
    """Recompute ``|b - M x| / |b|`` with the fine operator."""
    x = np.asarray(res.x)
    if not np.all(np.isfinite(x)):
        return Check(False, math.inf, int(res.iterations), "non-finite solution")
    rel = float(np.linalg.norm((b - op.apply(x)).ravel()) / np.linalg.norm(b.ravel()))
    if not res.converged:
        return Check(False, rel, int(res.iterations), "not converged")
    if not rel <= tol:
        return Check(False, rel, int(res.iterations), f"true residual {rel:.3e} > tol {tol:.1e}")
    return Check(True, rel, int(res.iterations))


def failed_check(reason: str) -> Check:
    return Check(False, math.inf, 0, reason)


@dataclass
class WorkloadResult:
    """Raw samples of one workload run; ``run.py`` turns them into metrics."""

    name: str
    reps: int = 0
    setup_s: list[float] = field(default_factory=list)
    solve_s: list[float] = field(default_factory=list)
    tts_s: list[float] = field(default_factory=list)
    rhs_per_s: list[float] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)  # inf when failed
    setup_mb: list[float] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    solve_calls: list[list] = field(default_factory=list)  # results per solver call
    serve: dict[str, float] = field(default_factory=dict)
    invalid: str = ""
    wall_s: float = 0.0
    probe: Callable[[], None] | None = None


def _phase(tracer, name):
    if tracer is not None:
        tracer.phase = name


def _end_rep(tracer, hierarchy):
    if tracer is not None:
        tracer.phase = None
        tracer.resolve(hierarchy)


def _loop(seconds: float, rep_fn: Callable[[int], float]) -> int:
    """Run repetitions while another one still fits the time budget."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        durations.append(rep_fn(len(durations)))
        elapsed = time.perf_counter() - start
        if elapsed + stats.median(durations) > seconds:
            return len(durations)


def _run_cold_solves(name, ds, seed, seconds, tracer, sources, solve, probe):
    """Repeat operator build, adaptive setup and one solver call.

    ``sources(volume, rng)`` gives the ``(K, V, 4, 3)`` right-hand sides,
    ``solve(solver, bs, tol)`` the K results, ``probe(solver, bs, tol)``
    the short fixed solve the trace-overhead probe repeats.
    """
    params = mg_params_for(ds, STRATEGY)
    tol = ds.target_residuum
    gauge = ds.gauge()
    out = WorkloadResult(name)
    last: dict = {}

    def rep(i: int) -> float:
        setup_rng = rng_for(seed, name, i, "setup")
        bs = sources(gauge.lattice.volume, rng_for(seed, name, i, "sources"))
        _phase(tracer, "setup")
        t0 = time.perf_counter()
        op = WilsonCloverOperator(gauge, **ds.operator_kwargs())
        t1 = time.perf_counter()
        solver = MultigridSolver(op, params, rng=setup_rng)
        t2 = time.perf_counter()
        _phase(tracer, "solve")
        results = solve(solver, bs, tol)
        t3 = time.perf_counter()
        _end_rep(tracer, solver.hierarchy)
        out.setup_s.append(t2 - t1)
        out.solve_s.append(t3 - t2)
        out.tts_s.append(t3 - t0)
        out.rhs_per_s.append(len(bs) / (t3 - t2))
        out.setup_mb.append(solver.hierarchy.setup_memory_bytes() / 1e6)
        for b, res in zip(bs, results):
            check = check_solution(op, b, res, tol)
            out.checks.append(check)
            # every right-hand side was due when the gauge field arrived
            out.latency_s.append(t3 - t0 if check.ok else math.inf)
        out.solve_calls.append(results)
        last.update(solver=solver, bs=bs)
        return time.perf_counter() - t0

    t = time.perf_counter()
    out.reps = _loop(seconds, rep)
    out.wall_s = time.perf_counter() - t
    out.probe = lambda: probe(last["solver"], last["bs"], tol)
    return out


def run_cold(seed: int, seconds: float, tracer=None) -> WorkloadResult:
    return _run_cold_solves(
        "cold-aniso40", ANISO40_SCALED, seed, seconds, tracer,
        sources=lambda volume, rng: gaussian_source(volume, rng)[None],
        solve=lambda solver, bs, tol: [solver.solve(bs[0], tol=tol)],
        probe=lambda solver, bs, tol: solver.solve(bs[0], tol=tol, maxiter=6),
    )


def run_propagator(seed: int, seconds: float, tracer=None) -> WorkloadResult:
    return _run_cold_solves(
        "propagator-iso48", ISO48_SCALED, seed, seconds, tracer,
        sources=lambda volume, rng: point_sources(volume, rng)[1],
        solve=lambda solver, bs, tol: solver.solve_multi(bs, batched=True, tol=tol),
        probe=lambda solver, bs, tol: solver.solve_multi(bs[:4], batched=True, tol=tol, maxiter=1),
    )


def run_serve(seed: int, seconds: float, tracer=None) -> WorkloadResult:
    """Open loop: requests are timed from their due time, not their send time."""
    ds = ANISO40_SCALED
    params = mg_params_for(ds, STRATEGY)
    tol = ds.target_residuum
    gauge = ds.gauge()
    out = WorkloadResult("serve-aniso40")
    offsets = burst_schedule(serve_cycles(seconds), rng_for(seed, out.name, 0, "schedule"))
    n = len(offsets)
    src_rng = rng_for(seed, out.name, 0, "sources")
    sources = [gaussian_source(gauge.lattice.volume, src_rng) for _ in range(n)]
    setup_rng = rng_for(seed, out.name, 0, "setup")

    batch_start: dict[int, float] = {}  # id(result) -> start of its solver call
    if tracer is not None:
        def observe(start, end, result):
            for res in result if isinstance(result, list) else [result]:
                batch_start[id(res)] = start

        tracer.observers["solve"] = tracer.observers["batched_solve"] = observe

    cache = SetupCache()
    svc = SolveService(ServeConfig(**SERVE_CONFIG), cache=cache)
    futures: list = [None] * n
    sent = [math.nan] * n
    done = [math.nan] * n
    backlog: dict[str, int] = {}
    try:
        _phase(tracer, "setup")
        t0 = time.perf_counter()
        op = WilsonCloverOperator(gauge, **ds.operator_kwargs())
        t1 = time.perf_counter()
        svc.register("aniso40", op, params, rng=setup_rng)
        t2 = time.perf_counter()
        _phase(tracer, "solve")
        start = time.perf_counter()
        due = start + offsets

        def mark_done(i):
            def callback(_future):
                done[i] = time.perf_counter()
            return callback

        def generate():
            for i in range(n):
                delay = due[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent[i] = time.perf_counter()
                try:
                    fut = svc.submit("aniso40", sources[i], tol=tol)
                except ServiceOverloadedError:
                    continue
                fut.add_done_callback(mark_done(i))
                futures[i] = fut
            backlog["serve"] = svc.queue_depth() + svc.in_flight()

        gen = threading.Thread(target=generate, name="bench-loadgen")
        gen.start()
        gen.join(timeout=offsets[-1] + DRAIN_TIMEOUT_S)
        if gen.is_alive():
            raise RuntimeError("load generator did not finish")
        wait([f for f in futures if f is not None], timeout=DRAIN_TIMEOUT_S)
    finally:
        svc.close(drain=False)
    _phase(tracer, None)
    cache_stats = dict(cache.stats)
    hierarchy = cache.get_or_build(op, params)  # a hit: register built it
    setup_s = [t2 - t1]
    for i in range(1, SERVE_SETUPS):
        # more samples of register's cache-miss path, after the window
        # and booked by no tracer
        t = time.perf_counter()
        SetupCache().get_or_build(op, params, rng_for(seed, out.name, i, "setup"))
        setup_s.append(time.perf_counter() - t)

    lag = [s - d for s, d in zip(sent, due)]
    window_end = due[-1]
    for i, fut in enumerate(futures):
        if fut is None:
            check = failed_check("refused")
        elif not fut.done():
            check = failed_check("not finished")
        elif fut.exception() is not None:
            check = failed_check(repr(fut.exception()))
        else:
            check = check_solution(op, sources[i], fut.result(), tol)
        out.checks.append(check)
        out.latency_s.append(done[i] - due[i] if check.ok else math.inf)
    results = [f.result() for f in futures if f is not None and f.done() and f.exception() is None]
    calls: dict[int, list] = {}
    for res in results:
        calls.setdefault(id(res.telemetry.level_stats), []).append(res)
    out.solve_calls = list(calls.values())

    last_done = max((d for d in done if not math.isnan(d)), default=window_end)
    out.reps = 1
    out.setup_s = setup_s
    # solver busy time per served solution: unlike the per-batch mean it
    # does not grow with the batch sizes a slower host lets form
    out.solve_s.append(svc.stats["solve_s_total"] / max(len(results), 1))
    out.tts_s.append(last_done - t0)
    out.rhs_per_s.append(len(results) / (last_done - due[0]))
    out.wall_s = last_done - t0
    out.setup_mb.append(hierarchy.setup_memory_bytes() / 1e6)

    waits = [batch_start[id(f.result())] - sent[i] for i, f in enumerate(futures)
             if f is not None and f.done() and f.exception() is None
             and id(f.result()) in batch_start]
    out.serve = {
        "loadgen.lag_max_s": max(lag),
        "loadgen.backlog_end": sum(1 for s in sent if s > window_end + LAG_LIMIT_S),
        "serve.backlog_end": backlog.get("serve", 0),
        "serve.batches": svc.stats["batches"],
        "serve.batch_size_mean": svc.stats["batched_systems"] / max(svc.stats["batches"], 1),
        "serve.queue_wait_p50_s": stats.median(waits) if waits else 0.0,
        "serve.rejected": svc.stats["rejected"],
        "serve.setup_cache.hits": cache_stats["hits"],
        "serve.setup_cache.misses": cache_stats["misses"],
    }
    if max(lag) > LAG_LIMIT_S:
        out.invalid = (
            f"load generator fell behind: max lag {max(lag):.3f}s > {LAG_LIMIT_S}s"
        )
    if tracer is not None:
        tracer.resolve(hierarchy)
        tracer.observers.clear()
    probe_solver = MultigridSolver.from_hierarchy(hierarchy, params)
    probe_bs = np.stack(sources[:4])
    out.probe = lambda: probe_solver.solve_multi(probe_bs, batched=True, tol=tol, maxiter=2)
    return out


WORKLOADS = {
    "cold-aniso40": run_cold,
    "propagator-iso48": run_propagator,
    "serve-aniso40": run_serve,
}
