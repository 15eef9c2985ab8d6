"""The solve service: request queue, dynamic batching, worker pool.

A long-lived front end for the multigrid solver, shaped like the
serving layer a production analysis campaign would put in front of it:

* clients :meth:`~SolveService.submit` single right-hand sides and get
  a future back;
* a dispatcher coalesces pending requests for the same (operator,
  tolerance) into one multi-RHS batch — up to ``max_batch`` systems,
  waiting at most ``max_wait_s`` for stragglers — and hands it to a
  worker pool;
* batches on a two-level hierarchy over the fine Wilson-Clover matrix
  run through :func:`~repro.mg.multi_rhs.batched_mg_solve`, the paper's
  Section 9 multi-RHS reformulation, so every stencil matrix is read
  once for the whole batch; anything else falls back to sequential
  solves with the shared setup;
* the expensive MG setup is obtained through a :class:`SetupCache`, so
  repeat registrations (or service restarts, with a disk-backed cache)
  skip the near-null-vector generation entirely.

Backpressure is a bounded queue: once ``queue_capacity`` requests are
pending, :meth:`~SolveService.submit` raises
:class:`ServiceOverloadedError` instead of buffering unboundedly.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..mg.multi_rhs import batched_mg_solve, hierarchy_supports_batching
from ..mg.params import MGParams
from ..mg.solver import MultigridSolver
from ..obs.blackbox import blackbox_document, write_blackbox
from ..obs.convergence import detect_anomalies
from ..obs.slo import SLOMonitor
from ..solvers.base import SolveResult
from ..telemetry.context import TraceContext, activate, current_trace_id, new_trace_id
from ..telemetry.metrics import get_registry
from ..telemetry.tracer import get_tracer
from .cache import SetupCache
from .slog import log_event


class ServiceOverloadedError(RuntimeError):
    """The pending queue is full; the client should retry or back off.

    Carries a machine-readable payload so load-shedding clients (the
    fleet router above all) can act on the rejection without parsing
    the message string: ``queue_depth`` and ``capacity`` describe the
    queue at rejection time, ``retry_after_s`` estimates when a slot
    should free up (queue depth times the service's observed mean
    solve time, floored at the batching wait).
    """

    def __init__(
        self,
        message: str,
        queue_depth: int = 0,
        capacity: int = 0,
        retry_after_s: float = 0.0,
    ):
        super().__init__(message)
        self.queue_depth = int(queue_depth)
        self.capacity = int(capacity)
        self.retry_after_s = float(retry_after_s)

    def to_dict(self) -> dict:
        return {
            "error": "overloaded",
            "queue_depth": self.queue_depth,
            "capacity": self.capacity,
            "retry_after_s": self.retry_after_s,
        }


class ServiceClosedError(RuntimeError):
    """The service is shut down and accepts no new requests."""


class SolveTimeoutError(TimeoutError):
    """The request exceeded its deadline while waiting in the queue."""


@dataclass
class ServeConfig:
    """Tuning knobs of the service."""

    max_batch: int = 8  # systems coalesced into one multi-RHS solve
    max_wait_s: float = 0.05  # how long a batch head waits for stragglers
    queue_capacity: int = 64  # pending-request bound (backpressure)
    n_workers: int = 1  # solver worker threads
    allow_batching: bool = True  # False forces the sequential path
    # Opt-in runtime verification (repro.verify): "setup" checks the
    # setup-output invariants of every registered hierarchy, "solve"
    # additionally recomputes each delivered result's residual.
    verify_level: str = "off"
    # Postmortem capture: on timeout, failure or detected stall the
    # service assembles a repro.blackbox/v1 dump (always kept in memory
    # as ``service.last_blackbox``); a directory here persists each dump
    # to disk for `repro blackbox`.
    blackbox_dir: str | None = None
    # Declarative SLOs (repro.obs.slo.SLOSpec); non-empty installs an
    # SLOMonitor fed per finished request, with burn-rate alerts into
    # the structured log.
    slo_specs: tuple = ()
    # Identity of this service on shared timelines: fleet shards set it
    # to their node id, and every serve.batch span then carries a
    # ``shard`` attribute — the Perfetto exporter's track key, so
    # stitched cross-shard traces separate into one track per node.
    label: str | None = None

    def __post_init__(self):
        from ..verify.runtime import validate_level

        validate_level(self.verify_level)
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")


@dataclass
class _Request:
    op_name: str
    rhs: np.ndarray
    tol: float
    timeout_s: float | None
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    id: int = 0
    trace_id: str = ""  # generated at ingress, threads every stream

    def expired(self, now: float) -> bool:
        return self.timeout_s is not None and now - self.enqueued_at > self.timeout_s


@dataclass
class _OperatorEntry:
    op: object
    params: MGParams
    solver: MultigridSolver
    batchable: bool


class SolveService:
    """Dynamic-batching multigrid solve service.

    Typical use::

        cache = SetupCache(disk_dir="setup-cache")
        with SolveService(ServeConfig(max_batch=8), cache=cache) as svc:
            svc.register("aniso", op, params)
            futures = [svc.submit("aniso", b) for b in sources]
            results = [f.result() for f in futures]

    Futures resolve to the same :class:`~repro.solvers.base.SolveResult`
    the direct solver returns.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        cache: SetupCache | None = None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.cache = cache if cache is not None else SetupCache()
        self._ops: dict[str, _OperatorEntry] = {}
        self._pending: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._ids = itertools.count(1)
        self.stats = {
            "submitted": 0,
            "completed": 0,
            "rejected": 0,
            "timeouts": 0,
            "failed": 0,
            "batches": 0,
            "batched_systems": 0,
            "verify_checks": 0,
            "verify_failures": 0,
            "stalls_detected": 0,
            "blackbox_dumps": 0,
            "solve_s_total": 0.0,
            # thread-CPU seconds spent solving: unlike the wall total
            # this excludes cross-service contention on shared cores,
            # which is what the fleet tier's device-time model needs
            "solve_cpu_s_total": 0.0,
        }
        self.slo_monitor = (
            SLOMonitor(self.config.slo_specs) if self.config.slo_specs else None
        )
        #: most recent repro.blackbox/v1 document (postmortem state even
        #: when no blackbox_dir is configured)
        self.last_blackbox: dict | None = None
        self._in_flight = 0
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.n_workers, thread_name_prefix="serve-worker"
        )
        # One permit per worker: the dispatcher takes a batch only when a
        # worker can run it, so waiting requests stay in the bounded
        # pending queue (where submit() can reject them) instead of
        # draining into the executor's unbounded internal queue.
        self._slots = threading.Semaphore(self.config.n_workers)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- registration ---------------------------------------------------
    def register(
        self,
        name: str,
        op,
        params: MGParams,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Make ``op`` solvable under ``name``; setup comes via the cache."""
        hierarchy = self.cache.get_or_build(op, params, rng)
        if self.config.verify_level != "off":
            from ..verify.runtime import verify_setup

            reports = verify_setup(hierarchy, origin="serve.register")
            self._book_verify(reports)
        solver = MultigridSolver.from_hierarchy(hierarchy, params)
        # batched kernels now cover the full hierarchy depth (fine
        # Wilson-Clover + dense-block coarse levels), not just two-level
        batchable = hierarchy_supports_batching(hierarchy)
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is closed")
            self._ops[name] = _OperatorEntry(op, params, solver, batchable)

    def operators(self) -> list[str]:
        with self._cond:
            return sorted(self._ops)

    # -- load introspection ---------------------------------------------
    def queue_depth(self) -> int:
        """Pending (not yet dispatched) requests right now."""
        with self._cond:
            return len(self._pending)

    def in_flight(self) -> int:
        """Systems currently being solved by the worker pool."""
        with self._cond:
            return self._in_flight

    def load(self) -> int:
        """Queued plus in-flight systems — the router's load signal."""
        with self._cond:
            return len(self._pending) + self._in_flight

    def _retry_after_locked(self) -> float:
        """Retry-hint seconds; caller holds ``self._cond``."""
        completed = max(self.stats["completed"], 1)
        mean_solve = self.stats["solve_s_total"] / completed
        return max(
            self.config.max_wait_s, len(self._pending) * mean_solve
        )

    def _book_verify(self, reports) -> None:
        """Fold runtime-verification reports into the service stats."""
        with self._cond:
            self.stats["verify_checks"] += len(reports)
            self.stats["verify_failures"] += sum(
                1 for r in reports if not r.passed
            )

    # -- submission -----------------------------------------------------
    def submit(
        self,
        op_name: str,
        rhs: np.ndarray,
        tol: float | None = None,
        timeout_s: float | None = None,
    ) -> Future:
        """Enqueue one right-hand side; returns a future of SolveResult.

        Raises :class:`ValueError` for a non-finite right-hand side
        (before anything is queued), :class:`ServiceOverloadedError`
        when the queue is full and :class:`ServiceClosedError` after
        shutdown.  ``timeout_s``
        bounds the time the request may wait before its batch starts;
        expired requests fail with :class:`SolveTimeoutError`.

        This is the trace ingress: each request gets a ``trace_id``
        here (inheriting the caller's active trace context if one is
        open) that then rides the queue, the batch, the solve spans,
        every slog record and the metric exemplars of this request.
        """
        rhs = np.asarray(rhs)
        if not np.isfinite(rhs).all():
            raise ValueError("rhs has non-finite entries (NaN or Inf)")
        registry = get_registry()
        trace_id = current_trace_id() or new_trace_id()
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is closed")
            entry = self._ops.get(op_name)
            if entry is None:
                raise KeyError(
                    f"unknown operator {op_name!r}; registered: {sorted(self._ops)}"
                )
            if len(self._pending) >= self.config.queue_capacity:
                self.stats["rejected"] += 1
                if registry.enabled:
                    registry.counter("serve.rejected", op=op_name).inc()
                log_event(
                    "rejected",
                    op=op_name,
                    queue_depth=len(self._pending),
                    trace_id=trace_id,
                )
                raise ServiceOverloadedError(
                    f"queue full ({self.config.queue_capacity} pending)",
                    queue_depth=len(self._pending),
                    capacity=self.config.queue_capacity,
                    retry_after_s=self._retry_after_locked(),
                )
            req = _Request(
                op_name=op_name,
                rhs=rhs,
                tol=tol if tol is not None else entry.params.outer_tol,
                timeout_s=timeout_s,
                id=next(self._ids),
                trace_id=trace_id,
            )
            self._pending.append(req)
            self.stats["submitted"] += 1
            self._cond.notify_all()
        if registry.enabled:
            registry.counter("serve.requests", op=op_name).inc()
            registry.gauge("serve.queue_depth").set(len(self._pending))
        log_event(
            "enqueued",
            request_id=req.id,
            op=op_name,
            tol=req.tol,
            queue_depth=len(self._pending),
            trace_id=req.trace_id,
        )
        return req.future

    def solve(
        self,
        op_name: str,
        rhs: np.ndarray,
        tol: float | None = None,
        timeout_s: float | None = None,
    ) -> SolveResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(op_name, rhs, tol=tol, timeout_s=timeout_s).result()

    def solve_many(
        self,
        op_name: str,
        rhs_list,
        tol: float | None = None,
    ) -> list[SolveResult]:
        """Submit a burst and gather the results in order."""
        futures = [self.submit(op_name, b, tol=tol) for b in rhs_list]
        return [f.result() for f in futures]

    # -- lifecycle ------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (default) completes all pending work first;
        ``drain=False`` fails pending requests with
        :class:`ServiceClosedError`.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if not drain:
                while self._pending:
                    req = self._pending.popleft()
                    req.future.set_exception(
                        ServiceClosedError("service closed before dispatch")
                    )
            self._cond.notify_all()
        self._dispatcher.join()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatcher -----------------------------------------------------
    def _take_batch(self) -> list[_Request] | None:
        """Block until a coalesced batch is ready (None = shut down)."""
        cfg = self.config
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                self._cond.wait()
            head = self._pending.popleft()
            batch = [head]
            key = (head.op_name, head.tol)
            deadline = time.perf_counter() + cfg.max_wait_s
            while len(batch) < cfg.max_batch:
                self._extract_matching(batch, key, cfg.max_batch)
                if len(batch) >= cfg.max_batch:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or self._closed:
                    break
                self._cond.wait(remaining)
            registry = get_registry()
            if registry.enabled:
                registry.gauge("serve.queue_depth").set(len(self._pending))
            return batch

    def _extract_matching(self, batch, key, max_batch) -> None:
        """Move pending requests with the same (op, tol) into ``batch``."""
        kept: deque[_Request] = deque()
        while self._pending and len(batch) < max_batch:
            req = self._pending.popleft()
            if (req.op_name, req.tol) == key:
                batch.append(req)
            else:
                kept.append(req)
        kept.extend(self._pending)
        self._pending.clear()
        self._pending.extend(kept)

    def _dispatch_loop(self) -> None:
        while True:
            self._slots.acquire()
            batch = self._take_batch()
            if batch is None:
                self._slots.release()
                return
            self._pool.submit(self._run_batch, batch)

    # -- execution ------------------------------------------------------
    def _settle_in_flight(self, registry, n: int) -> None:
        """Retire ``n`` in-flight systems and refresh the gauge."""
        with self._cond:
            self._in_flight -= n
            in_flight = self._in_flight
        if registry.enabled:
            registry.gauge("serve.in_flight").set(in_flight)

    def _run_batch(self, batch: list[_Request]) -> None:
        try:
            self._run_batch_inner(batch)
        finally:
            self._slots.release()

    def _run_batch_inner(self, batch: list[_Request]) -> None:
        registry = get_registry()
        now = time.perf_counter()
        live: list[_Request] = []
        for req in batch:
            if req.expired(now):
                self.stats["timeouts"] += 1
                if registry.enabled:
                    registry.counter("serve.timeouts", op=req.op_name).inc()
                log_event(
                    "timeout",
                    request_id=req.id,
                    op=req.op_name,
                    waited_s=now - req.enqueued_at,
                    trace_id=req.trace_id,
                )
                if self.slo_monitor is not None:
                    self.slo_monitor.record(
                        now - req.enqueued_at, timed_out=True
                    )
                req.future.set_exception(
                    SolveTimeoutError(
                        f"request {req.id} waited "
                        f"{now - req.enqueued_at:.3f}s > {req.timeout_s}s"
                    )
                )
                self._dump_blackbox(
                    "timeout",
                    trace_id=req.trace_id,
                    meta={
                        "request_id": req.id,
                        "op": req.op_name,
                        "waited_s": now - req.enqueued_at,
                        "timeout_s": req.timeout_s,
                    },
                )
            elif req.future.set_running_or_notify_cancel():
                live.append(req)
        if not live:
            return
        head = live[0]
        entry = self._ops[head.op_name]
        if registry.enabled:
            registry.histogram("serve.batch_size", op=head.op_name).observe(
                len(live)
            )
            for req in live:
                registry.histogram("serve.queue_wait_s").observe(
                    now - req.enqueued_at
                )
        self.stats["batches"] += 1
        self.stats["batched_systems"] += len(live)
        batched = (
            self.config.allow_batching and entry.batchable and len(live) > 1
        )
        with self._cond:
            self._in_flight += len(live)
            in_flight = self._in_flight
        if registry.enabled:
            registry.gauge("serve.in_flight").set(in_flight)
        log_event(
            "dispatched",
            op=head.op_name,
            request_ids=[req.id for req in live],
            batch_size=len(live),
            mode="batched" if batched else "sequential",
            in_flight=in_flight,
            trace_id=head.trace_id,
            trace_ids=[req.trace_id for req in live],
        )
        try:
            # The worker thread adopts the batch head's trace context:
            # every span the solve opens (mg.solve, kcycle, halo, ...)
            # inherits its trace_id, and the batch span links the other
            # coalesced traces explicitly.
            head_ctx = TraceContext(
                trace_id=head.trace_id,
                attrs={"request_id": head.id, "op": head.op_name},
            )
            batch_attrs = dict(
                op=head.op_name,
                size=len(live),
                mode="batched" if batched else "sequential",
                request_ids=[req.id for req in live],
                trace_ids=[req.trace_id for req in live],
            )
            if self.config.label:
                batch_attrs["shard"] = self.config.label
            with activate(head_ctx), get_tracer().span(
                "serve.batch", **batch_attrs
            ):
                t0 = time.perf_counter()
                c0 = time.thread_time()
                if batched:
                    results = batched_mg_solve(
                        entry.solver.hierarchy,
                        np.stack([req.rhs for req in live]),
                        tol=head.tol,
                        maxiter=entry.params.outer_maxiter,
                        nkrylov=entry.params.outer_nkrylov,
                    )
                else:
                    results = [
                        entry.solver.solve(req.rhs, tol=req.tol) for req in live
                    ]
                dt = time.perf_counter() - t0
                cdt = time.thread_time() - c0
        except Exception as exc:  # propagate solver failures to every waiter
            self.stats["failed"] += len(live)
            self._settle_in_flight(registry, len(live))
            log_event(
                "failed",
                op=head.op_name,
                request_ids=[req.id for req in live],
                error=repr(exc),
                trace_id=head.trace_id,
                trace_ids=[req.trace_id for req in live],
            )
            if self.slo_monitor is not None:
                now = time.perf_counter()
                for req in live:
                    self.slo_monitor.record(now - req.enqueued_at, error=True)
            for req in live:
                if not req.future.done():
                    req.future.set_exception(exc)
            self._dump_blackbox(
                "failure",
                trace_id=head.trace_id,
                meta={
                    "op": head.op_name,
                    "error": repr(exc),
                    "request_ids": [req.id for req in live],
                },
            )
            return
        with self._cond:
            self.stats["solve_s_total"] += dt
            self.stats["solve_cpu_s_total"] += cdt
        if registry.enabled:
            registry.histogram("serve.solve_s", op=head.op_name).observe(dt)
        if self.config.verify_level == "solve":
            from ..verify.runtime import verify_solve

            fine_op = entry.solver.hierarchy.levels[0].op
            for req, res in zip(live, results):
                reports = verify_solve(
                    fine_op, req.rhs, res, origin="serve.solve"
                )
                res.telemetry.attrs["verify"] = [r.to_dict() for r in reports]
                self._book_verify(reports)
        done = time.perf_counter()
        for req, res in zip(live, results):
            self.stats["completed"] += 1
            latency = done - req.enqueued_at
            # each result carries its own request's trace; the batch ran
            # under the head's context, which stays visible alongside
            batch_tid = res.telemetry.attrs.get("trace_id")
            if batch_tid is not None and batch_tid != req.trace_id:
                res.telemetry.attrs["batch_trace_id"] = batch_tid
            res.telemetry.attrs["trace_id"] = req.trace_id
            if registry.enabled:
                # the exemplar ties this latency sample back to the
                # request's span tree and slog records
                registry.histogram(
                    "serve.request_latency_s", op=req.op_name
                ).observe(latency, trace_id=req.trace_id)
            log_event(
                "completed",
                request_id=req.id,
                op=req.op_name,
                latency_s=latency,
                solve_s=dt,
                iterations=int(res.iterations),
                converged=bool(res.converged),
                trace_id=req.trace_id,
            )
            if self.slo_monitor is not None:
                self.slo_monitor.record(
                    latency, converged=bool(res.converged)
                )
            self._check_stall(req, res)
            req.future.set_result(res)
        self._settle_in_flight(registry, len(live))
        if registry.enabled:
            registry.counter("serve.completed", op=head.op_name).inc(len(live))
        if self.slo_monitor is not None:
            self.slo_monitor.evaluate()

    # -- postmortem -----------------------------------------------------
    def _check_stall(self, req: _Request, res: SolveResult) -> None:
        """Run the convergence detector over a delivered result.

        Works from the result's residual history directly, so stalls
        are caught even with the tracer off.  Error-severity verdicts
        (stall/divergence) trigger a blackbox dump; plateaus only count.
        """
        history = getattr(res, "residual_history", None)
        if not history or len(history) < 2:
            return
        verdicts = detect_anomalies(history)
        severe = [v for v in verdicts if v.severity == "error"]
        if not severe:
            return
        self.stats["stalls_detected"] += len(severe)
        registry = get_registry()
        if registry.enabled:
            for v in severe:
                registry.counter(
                    "serve.stalls", op=req.op_name, kind=v.kind
                ).inc()
        log_event(
            "stall",
            request_id=req.id,
            op=req.op_name,
            kinds=[v.kind for v in severe],
            trace_id=req.trace_id,
        )
        self._dump_blackbox(
            "stall",
            trace_id=req.trace_id,
            meta={
                "request_id": req.id,
                "op": req.op_name,
                "verdicts": [v.to_dict() for v in severe],
            },
        )

    def _dump_blackbox(
        self, reason: str, trace_id: str | None = None, meta: dict | None = None
    ) -> dict:
        """Assemble a repro.blackbox/v1 postmortem document.

        The dump is always retained in memory as ``self.last_blackbox``;
        when ``config.blackbox_dir`` is set it is also written to disk
        (one JSON file per incident) for ``repro blackbox``.  Capture
        must never take the service down, so disk errors are folded into
        the log stream instead of raised.
        """
        meta = dict(meta or {})
        if self.config.label:
            meta.setdefault("shard", self.config.label)
        doc = blackbox_document(reason, trace_id=trace_id, meta=meta)
        self.last_blackbox = doc
        with self._cond:
            self.stats["blackbox_dumps"] += 1
        path = None
        if self.config.blackbox_dir is not None:
            try:
                path = write_blackbox(self.config.blackbox_dir, doc)
            except OSError as exc:
                log_event(
                    "blackbox_write_failed",
                    reason=reason,
                    error=repr(exc),
                    trace_id=trace_id,
                )
        log_event(
            "blackbox_dump",
            reason=reason,
            trace_id=trace_id,
            path=str(path) if path is not None else None,
        )
        return doc
