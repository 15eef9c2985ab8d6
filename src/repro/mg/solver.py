"""The complete multigrid solver: outer GCR preconditioned by a K-cycle.

The outermost solver runs in double precision (paper Section 7.1); GCR
is used because it is flexible and therefore tolerant of the variable
preconditioner that the MR-smoothed K-cycle is.
"""

from __future__ import annotations

import numpy as np

from ..fields import SpinorField
from ..solvers.base import OperatorCounter, SolveResult
from ..solvers.gcr import gcr
from ..telemetry.metrics import get_registry
from ..telemetry.tracer import Span, get_tracer
from .hierarchy import MultigridHierarchy
from .kcycle import KCyclePreconditioner, gcr_reductions, operator_application_cost
from .params import MGParams


class MultigridSolver:
    """Adaptive geometric multigrid for a nearest-neighbour stencil operator.

    Parameters
    ----------
    fine_op:
        The fine-grid operator (typically a
        :class:`~repro.dirac.wilson.WilsonCloverOperator`).
    params:
        The level configuration (:class:`~repro.mg.params.MGParams`).
    rng:
        Random generator driving the adaptive setup.
    """

    def __init__(
        self,
        fine_op,
        params: MGParams,
        rng: np.random.Generator | None = None,
        verbose: bool = False,
        null_vectors: list[list[np.ndarray]] | None = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()
        self.params = params
        self.hierarchy = MultigridHierarchy.build(
            fine_op, params, rng, verbose, null_vectors=null_vectors
        )
        self.preconditioner = KCyclePreconditioner(self.hierarchy, level=0)

    @classmethod
    def from_hierarchy(
        cls, hierarchy: MultigridHierarchy, params: MGParams | None = None
    ) -> "MultigridSolver":
        """Wrap an already-built hierarchy (e.g. one served from a
        setup cache) without re-running any setup."""
        self = cls.__new__(cls)
        self.params = params if params is not None else hierarchy.params
        self.hierarchy = hierarchy
        self.preconditioner = KCyclePreconditioner(hierarchy, level=0)
        return self

    # ------------------------------------------------------------------
    def solve(
        self,
        b: np.ndarray | SpinorField,
        tol: float | None = None,
        maxiter: int | None = None,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        """Solve ``M x = b``; per-level work lands in ``result.telemetry``."""
        data = b.data if isinstance(b, SpinorField) else b
        tol = tol if tol is not None else self.params.outer_tol
        maxiter = maxiter if maxiter is not None else self.params.outer_maxiter
        self.hierarchy.reset_stats()
        fine = self.hierarchy.levels[0]
        op = OperatorCounter(fine.op, stats=fine.stats)
        tracer = get_tracer()
        with tracer.span(
            "mg.solve", subspace=self.params.subspace_label(), level=0
        ) as sp:
            result = gcr(
                op,
                data,
                x0=x0,
                tol=tol,
                maxiter=maxiter,
                nkrylov=self.params.outer_nkrylov,
                preconditioner=self.preconditioner,
            )
        fine.stats.gcr_iters += result.iterations
        fine.stats.reductions += gcr_reductions(
            result.iterations, self.params.outer_nkrylov
        )
        if isinstance(sp, Span):
            # The outer GCR's own matvecs (K-cycle spans book their own).
            # They run inside the child solve.gcr span, whose self-time
            # excludes the preconditioner subtree — book the cost there
            # so costs partition like self-times; fall back to mg.solve
            # if gcr ever stops opening its span.
            flops, nbytes = operator_application_cost(fine.op)
            target = next(
                (c for c in sp.children if c.name == "solve.gcr"), sp
            )
            target.attribute(
                flops=result.matvecs * flops, bytes=result.matvecs * nbytes
            )
        self._publish_telemetry(result, sp)
        if self.params.verify_level == "solve":
            from ..verify.runtime import verify_solve

            reports = verify_solve(fine.op, data, result, origin="mg.solve")
            result.telemetry.attrs["verify"] = [r.to_dict() for r in reports]
        return result

    def _publish_telemetry(self, result: SolveResult, sp) -> None:
        """Fill ``result.telemetry`` and the global metrics registry."""
        snapshot = {
            lev.index: lev.stats.as_dict() for lev in self.hierarchy.levels
        }
        tele = result.telemetry
        tele.level_stats = snapshot
        # deprecated ``extra`` alias readers see the same snapshot
        tele.attrs["level_stats"] = snapshot
        tele.attrs["subspace"] = self.params.subspace_label()
        tele.metrics["outer_iterations"] = float(result.iterations)
        tele.metrics["final_residual"] = float(result.final_residual)
        if isinstance(sp, Span):
            # the request trace this solve belongs to (serve propagation);
            # lets slog/blackbox consumers join on the result alone
            tele.attrs["trace_id"] = sp.trace_id
            tele.spans = [sp.to_dict()]
        registry = get_registry()
        if registry.enabled:
            registry.gauge("mg.n_levels").set(self.hierarchy.n_levels)
            registry.counter(
                "mg.solves", subspace=self.params.subspace_label()
            ).inc()
            registry.counter(
                "mg.outer_iterations", subspace=self.params.subspace_label()
            ).inc(result.iterations)
            if not result.converged:
                registry.counter(
                    "mg.convergence_failures",
                    subspace=self.params.subspace_label(),
                ).inc()
            for lev in self.hierarchy.levels:
                lev.stats.publish(registry, lev.index)

    def solve_field(self, b: SpinorField, **kwargs) -> tuple[SpinorField, SolveResult]:
        res = self.solve(b, **kwargs)
        lattice = self.hierarchy.levels[0].op.lattice
        return SpinorField(lattice, res.x), res

    def solve_multi(
        self, bs: np.ndarray, batched: bool = False, **kwargs
    ) -> list[SolveResult]:
        """Solve a stack of right-hand sides ``(K, V, ns, nc)``.

        The multigrid *setup* is shared across all K systems — the
        dominant amortization of the paper's throughput workloads, and
        the first half of the Section 9 multi-RHS reformulation.  With
        ``batched=True`` the second half runs too: the whole stack goes
        through :func:`repro.mg.multi_rhs.batched_mg_solve`, so every
        level of the cycle is applied to all K systems at once.
        """
        if batched:
            from .multi_rhs import batched_mg_solve

            kwargs.setdefault("tol", self.params.outer_tol)
            kwargs.setdefault("maxiter", self.params.outer_maxiter)
            kwargs.setdefault("nkrylov", self.params.outer_nkrylov)
            return batched_mg_solve(self.hierarchy, np.asarray(bs), **kwargs)
        return [self.solve(b, **kwargs) for b in bs]
