"""Batched multiple-right-hand-side multigrid (paper Section 9).

"Another avenue to increase parallelism is to reformulate MG as a
multiple-right-hand-side solver ... For N right hand sides, we thus
expose N-way additional parallelism, as well as increasing the temporal
locality of the problem, e.g., the same stencil operator is used for
all systems."

This module implements that reformulation for the *entire* hierarchy,
following the Richtmann–Meyer–Wettig MRHS-multigrid argument
(arXiv:2211.13719) that the win only materializes when every level is
batched: :class:`BatchedKCyclePreconditioner` mirrors the sequential
:class:`~repro.mg.kcycle.KCyclePreconditioner` level by level — batched
MR smoothing on the red-black system, batched transfers, batched
(lockstep) GCR on intermediate levels, a batched red-black Schur solve
on the coarsest level — so a batch of K right-hand sides never unstacks
between the first restrict and the final residual check, and every
stencil, transfer, and smoothing matrix is read once for all K systems.
"""

from __future__ import annotations

import numpy as np

from ..dirac.mrhs import (
    batched_schur_for,
    supports_batched_schur,
    supports_dense_block_schur,
)
from ..precision import Precision
from ..solvers.base import SolveResult
from ..solvers.block import batched_gcr, validate_rhs_stack
from ..solvers.mixed import PrecisionOperator
from ..telemetry.tracer import Span, get_tracer
from .hierarchy import MGLevel, MultigridHierarchy
from .kcycle import (
    gcr_reductions,
    operator_application_cost_multi,
)


def _bdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = a.shape[0]
    return np.einsum("ki,ki->k", np.conj(a.reshape(k, -1)), b.reshape(k, -1))


def _bshape(c: np.ndarray, like: np.ndarray) -> np.ndarray:
    return c.reshape((like.shape[0],) + (1,) * (like.ndim - 1))


class BatchedSmoother:
    """Fixed-step batched MR on the red-black system (zero initial guess).

    The Schur system is applied by the half-volume spin-compressed
    kernels of :mod:`repro.dirac.mrhs` on the fine grid and by the
    dense-block stacked-GEMM kernels on coarse grids, falling back to a
    per-system loop otherwise.  ``precision`` rounds the operator
    input/output per system exactly like the sequential
    :class:`~repro.mg.smoother.SchurMRSmoother`.
    """

    def __init__(
        self,
        op,
        steps: int = 4,
        omega: float = 0.85,
        precision: Precision = Precision.DOUBLE,
    ):
        self.bschur = batched_schur_for(op)
        self.steps = steps
        self.omega = omega
        self.precision = precision
        self._solve_op = (
            self.bschur
            if precision is Precision.DOUBLE
            else PrecisionOperator(self.bschur, precision)
        )

    def apply_multi(self, rs: np.ndarray) -> np.ndarray:
        bs = self.bschur.prepare_multi(rs)
        xs = np.zeros_like(bs)
        res = bs.copy()
        for _ in range(self.steps):
            q = self._solve_op.apply_multi(res)
            qq = np.real(_bdot(q, q))
            safe = np.where(qq > 0, qq, 1.0)
            alpha = self.omega * _bdot(q, res) / safe
            alpha = np.where(qq > 0, alpha, 0.0)
            xs += _bshape(alpha, xs) * res
            res -= _bshape(alpha, res) * q
        return self.bschur.reconstruct_multi(xs, rs)


def hierarchy_supports_batching(hierarchy: MultigridHierarchy) -> bool:
    """Whether the *whole* hierarchy has batched kernels for every level.

    True when the smoother is the red-black MR the batched kernels
    implement and every level operator is either the fine Wilson-Clover
    matrix (half-volume spin-compressed kernels) or a dense-block
    coarse operator (stacked-GEMM kernels) — i.e. a batch of K systems
    runs the full K-cycle without any per-system fallback loop.
    """
    if hierarchy.params.smoother_type != "schur-mr":
        return False
    if len(hierarchy.levels) < 2:
        return False
    return all(
        supports_batched_schur(lev.op) or supports_dense_block_schur(lev.op)
        for lev in hierarchy.levels
    )


def batched_preconditioner_for(
    hierarchy: MultigridHierarchy,
) -> "BatchedKCyclePreconditioner":
    """The hierarchy's cached full-depth batched K-cycle.

    Construction builds the batched Schur kernels (gathered link
    stacks) for every level, so the instance is cached on the hierarchy
    and shared by all solves against it — the serve tier hits this once
    per registered subspace.
    """
    pre = getattr(hierarchy, "_batched_kcycle", None)
    if pre is None or pre.hierarchy is not hierarchy:
        pre = BatchedKCyclePreconditioner(hierarchy)
        hierarchy._batched_kcycle = pre  # noqa: SLF001 — intentional cache
    return pre


class BatchedKCyclePreconditioner:
    """The K-cycle over the full hierarchy for K right-hand sides at once.

    Mirrors :class:`~repro.mg.kcycle.KCyclePreconditioner` step for
    step — same smoothing counts, same coarse tolerances, same
    coarsest-level red-black Schur solve, same span names and
    :class:`~repro.mg.hierarchy.LevelStats` booking — but every
    operation is an ``apply_multi`` over the whole batch, and the
    intermediate-level Krylov solves run as lockstep batched GCR
    preconditioned by the next level's batched cycle.  Per system the
    iterates agree with the sequential cycle to roundoff, which is what
    ``tests/test_mrhs_equivalence.py`` locks in.
    """

    def __init__(self, hierarchy: MultigridHierarchy, level: int = 0):
        self.hierarchy = hierarchy
        self.level = level
        lev = hierarchy.levels[level]
        assert lev.params is not None and lev.transfer is not None
        params = hierarchy.params
        self.smoother = BatchedSmoother(
            lev.op,
            steps=lev.params.smoother_steps,
            omega=lev.params.smoother_omega,
            precision=params.smoother_precision,
        )
        coarse = hierarchy.levels[level + 1]
        self._inner: BatchedKCyclePreconditioner | None = None
        self._coarsest_bschur = None
        if coarse.is_coarsest:
            if params.coarsest_schur:
                self._coarsest_bschur = batched_schur_for(coarse.op)
        else:
            self._inner = BatchedKCyclePreconditioner(hierarchy, level + 1)
        self._coarse_multi_op = self._wrap_precision(coarse.op)

    # ------------------------------------------------------------------
    def apply_multi(self, rs: np.ndarray) -> np.ndarray:
        lev = self.hierarchy.levels[self.level]
        assert lev.params is not None and lev.transfer is not None
        stats = lev.stats
        k = rs.shape[0]
        tracer = get_tracer()
        op_cost = (
            operator_application_cost_multi(lev.op, k)
            if tracer.enabled
            else (0.0, 0.0)
        )
        tr_cost = (
            lev.transfer.application_cost_multi(k)
            if tracer.enabled
            else (0.0, 0.0)
        )

        with tracer.span("kcycle", level=self.level, n_rhs=k):
            # 1. pre-smooth
            z = self._smooth(lev, rs, k, phase="pre")

            # 2. defect restriction
            stats.op_applies += k
            with tracer.span("residual", level=self.level, n_rhs=k) as sp:
                r1 = rs - lev.op.apply_multi(z)
                sp.attribute(*op_cost)
            stats.restricts += k
            with tracer.span("restrict", level=self.level, n_rhs=k) as sp:
                rc = lev.transfer.restrict_multi(r1)
                sp.attribute(*tr_cost)

            # 3. coarse solve (batched GCR; K-cycle-preconditioned
            #    unless coarsest)
            with tracer.span("coarse-solve", level=self.level + 1, n_rhs=k) as sp:
                ec = self._coarse_solve(rc, sp)

            # 4. prolongate and correct
            stats.prolongs += k
            with tracer.span("prolong", level=self.level, n_rhs=k) as sp:
                z = z + lev.transfer.prolong_multi(ec)
                sp.attribute(*tr_cost)

            # 5. post-smooth
            stats.op_applies += k
            with tracer.span("residual", level=self.level, n_rhs=k) as sp:
                r2 = rs - lev.op.apply_multi(z)
                sp.attribute(*op_cost)
            z = z + self._smooth(lev, r2, k, phase="post")
        return z

    # ------------------------------------------------------------------
    def _smooth(
        self, lev: MGLevel, rs: np.ndarray, k: int, phase: str = "pre"
    ) -> np.ndarray:
        assert lev.params is not None
        lev.stats.smoother_applies += (lev.params.smoother_steps + 1) * k
        lev.stats.reductions += 2 * lev.params.smoother_steps
        tracer = get_tracer()
        with tracer.span("smoother", level=lev.index, phase=phase, n_rhs=k) as sp:
            out = self.smoother.apply_multi(rs)
            if tracer.enabled:
                flops, nbytes = operator_application_cost_multi(lev.op, k)
                n = lev.params.smoother_steps + 1
                sp.attribute(flops=n * flops, bytes=n * nbytes)
        return out

    def _coarse_solve(self, rc: np.ndarray, span=None) -> np.ndarray:
        params = self.hierarchy.params
        lp = self.hierarchy.levels[self.level].params
        assert lp is not None
        coarse = self.hierarchy.levels[self.level + 1]
        stats = coarse.stats
        k = rc.shape[0]

        if coarse.is_coarsest:
            return self._coarsest_solve(coarse, rc, lp, span=span)
        if params.cycle_type == "K":
            cp = coarse.params
            assert cp is not None
            results = batched_gcr(
                self._coarse_multi_op,
                rc,
                tol=lp.coarse_tol,
                maxiter=lp.coarse_maxiter,
                nkrylov=cp.nkrylov,
                preconditioner=self._inner,
            )
            matvec_batches = results[0].extra["matvec_batches"]
            stats.op_applies += matvec_batches * k
            stats.gcr_iters += sum(res.iterations for res in results)
            stats.reductions += sum(
                gcr_reductions(res.iterations, cp.nkrylov) for res in results
            )
            self._annotate_coarse(span, coarse, results, matvec_batches, k)
            return np.stack([res.x for res in results])
        # V- or W-cycle: apply the next level's cycle directly as an
        # approximate solve, once (V) or twice with defect correction (W)
        assert self._inner is not None
        ec = self._inner.apply_multi(rc)
        if params.cycle_type == "W":
            stats.op_applies += k
            rc2 = rc - self._coarse_multi_op.apply_multi(ec)
            self._attribute_matvec_batches(span, coarse, 1, k)
            ec = ec + self._inner.apply_multi(rc2)
        return ec

    def _coarsest_solve(
        self, coarse: MGLevel, rc: np.ndarray, lp, span=None
    ) -> np.ndarray:
        params = self.hierarchy.params
        stats = coarse.stats
        nk = lp.nkrylov
        k = rc.shape[0]
        if params.coarsest_schur:
            bschur = self._coarsest_bschur
            assert bschur is not None
            rs = bschur.prepare_multi(rc)
            stats.op_applies += k
            op = self._wrap_precision(bschur)
            results = batched_gcr(
                op, rs, tol=lp.coarse_tol, maxiter=lp.coarse_maxiter, nkrylov=nk
            )
            stats.op_applies += k
            ec = bschur.reconstruct_multi(
                np.stack([res.x for res in results]), rc
            )
        else:
            results = batched_gcr(
                self._coarse_multi_op,
                rc,
                tol=lp.coarse_tol,
                maxiter=lp.coarse_maxiter,
                nkrylov=nk,
            )
            ec = np.stack([res.x for res in results])
        matvec_batches = results[0].extra["matvec_batches"]
        stats.op_applies += matvec_batches * k
        stats.gcr_iters += sum(res.iterations for res in results)
        stats.reductions += sum(
            gcr_reductions(res.iterations, nk) for res in results
        )
        extra = 2 if params.coarsest_schur else 0  # source prep + reconstruct
        self._annotate_coarse(span, coarse, results, matvec_batches + extra, k)
        return ec

    # ------------------------------------------------------------------
    @staticmethod
    def _attribute_matvec_batches(
        span, coarse: MGLevel, matvec_batches: int, k: int
    ) -> None:
        """Book the batched Krylov driver's matvec cost on the span.

        The batched GCR is not an instrumented solver (no ``solve.*``
        child span), so the cost lands on the coarse-solve span itself;
        nested batched K-cycle spans book their own work, keeping the
        attribution exclusive like span self-times.
        """
        if span is None or not isinstance(span, Span) or not matvec_batches:
            return
        flops, nbytes = operator_application_cost_multi(coarse.op, k)
        span.attribute(
            flops=matvec_batches * flops, bytes=matvec_batches * nbytes
        )

    def _annotate_coarse(
        self, span, coarse: MGLevel, results, matvec_batches: int, k: int
    ) -> None:
        self._attribute_matvec_batches(span, coarse, matvec_batches, k)
        if span is not None and isinstance(span, Span):
            span.annotate(
                coarse_iterations=max(res.iterations for res in results),
                coarse_converged=all(res.converged for res in results),
                coarse_residual=max(res.final_residual for res in results),
            )

    def _wrap_precision(self, op):
        precision = self.hierarchy.params.coarse_precision
        if precision is Precision.DOUBLE:
            return op
        return PrecisionOperator(op, precision)


def batched_mg_solve(
    hierarchy: MultigridHierarchy,
    bs: np.ndarray,
    tol: float = 1e-8,
    maxiter: int = 200,
    nkrylov: int = 10,
) -> list[SolveResult]:
    """Batched flexible GCR preconditioned by the full-depth batched K-cycle.

    Solves all K fine-grid systems in lockstep; every stencil, transfer
    and smoothing operation *on every level* is shared across the
    batch.  The batch never unstacks between entry and the final
    per-system residual check.
    """
    op = hierarchy.levels[0].op
    bs = validate_rhs_stack(op, bs)
    pre = batched_preconditioner_for(hierarchy)
    hierarchy.reset_stats()
    k = bs.shape[0]
    xs = np.zeros_like(bs)
    rs = bs.copy()
    bnorms = np.sqrt(np.real(_bdot(bs, bs)))
    active = bnorms > 0
    targets = tol * bnorms
    histories: list[list[float]] = [
        [1.0] if active[i] else [0.0] for i in range(k)
    ]
    iters = np.zeros(k, dtype=int)

    zs_list: list[np.ndarray] = []
    ws_list: list[np.ndarray] = []
    wnorm2: list[np.ndarray] = []
    it = 0
    matvec_batches = 0
    tracer = get_tracer()
    with tracer.span("mg.batched_solve", n_rhs=k, tol=tol) as sp:
        while it < maxiter and active.any():
            if len(zs_list) == nkrylov:
                zs_list.clear()
                ws_list.clear()
                wnorm2.clear()
            z = pre.apply_multi(rs)
            w = op.apply_multi(z)
            matvec_batches += 1
            for zi, wi, wn in zip(zs_list, ws_list, wnorm2):
                proj = _bdot(wi, w) / wn
                w -= _bshape(proj, w) * wi
                z -= _bshape(proj, z) * zi
            wn = np.real(_bdot(w, w))
            safe = np.where(wn > 0, wn, 1.0)
            alpha = _bdot(w, rs) / safe
            alpha = np.where(active & (wn > 0), alpha, 0.0)
            xs += _bshape(alpha, xs) * z
            rs -= _bshape(alpha, rs) * w
            zs_list.append(z)
            ws_list.append(w)
            wnorm2.append(safe)
            it += 1
            rnorms = np.sqrt(np.real(_bdot(rs, rs)))
            for i in range(k):
                if active[i]:
                    iters[i] = it
                    histories[i].append(rnorms[i] / bnorms[i])
            active = active & ~(rnorms < targets)

        out = []
        level_stats = {
            lev.index: lev.stats.as_dict() for lev in hierarchy.levels
        }
        if isinstance(sp, Span):
            # one convergence event stream per system, on a child span,
            # so `repro trace --convergence` and blackbox dumps see the
            # batched path's per-iteration residuals like any Krylov
            # driver's (the stream is bounded by the span event budget)
            from ..obs.convergence import record_convergence

            flops, nbytes = operator_application_cost_multi(op, k)
            sp.attribute(
                flops=matvec_batches * flops, bytes=matvec_batches * nbytes
            )
            sp.annotate(iterations=int(iters.max(initial=0)),
                        matvec_batches=matvec_batches)
            for i in range(k):
                with tracer.span("mg.batched_solve.rhs", system=i) as child:
                    record_convergence(child, histories[i])
                    child.annotate(iterations=int(iters[i]))
        for i in range(k):
            converged = (
                histories[i][-1] * bnorms[i] <= targets[i]
                if bnorms[i] > 0
                else True
            )
            res = SolveResult(
                xs[i], bool(converged), int(iters[i]), histories[i][-1],
                histories[i], matvec_batches,
                extra={"matvec_batches": matvec_batches, "n_rhs": k},
            )
            res.telemetry.level_stats = level_stats
            res.telemetry.attrs["level_stats"] = level_stats
            if isinstance(sp, Span):
                # all K results belong to the batch span's trace; the
                # serve tier activates the head request's context around
                # this call, so this is the request trace end to end
                res.telemetry.attrs["trace_id"] = sp.trace_id
            out.append(res)
    if isinstance(sp, Span):
        serialized = sp.to_dict()
        for res in out:
            res.telemetry.spans = [serialized]
    return out
