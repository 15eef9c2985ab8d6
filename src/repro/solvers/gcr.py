"""Flexible, restarted GCR — the multigrid outer and coarse solver.

The paper uses a recursively preconditioned generalized conjugate
residual with a Krylov subspace of 10 vectors as the outer solver on
the fine and intermediate levels and as the coarse-grid solver
(Section 7.1).  GCR is *flexible*: the preconditioner may change from
iteration to iteration, which is required because an MR-smoothed
K-cycle is a variable preconditioner.
"""

from __future__ import annotations

import numpy as np

from ..telemetry.instrument import instrumented_solver
from .base import SolveResult, norm, vdot


@instrumented_solver("gcr")
def gcr(
    op,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    nkrylov: int = 10,
    preconditioner=None,
) -> SolveResult:
    """Right-preconditioned restarted GCR(``nkrylov``).

    ``preconditioner``, if given, must expose ``apply(r) -> z`` computing
    an approximate solution of ``M z = r`` (e.g. a multigrid cycle or a
    smoother).  Each iteration performs one preconditioner application
    and one operator application; global reductions per iteration grow
    with the Krylov index (the classical GCR orthogonalization), which
    is exactly the latency profile that makes the coarsest grid
    synchronization-bound at scale (paper Figure 4).
    """
    x = np.zeros_like(b) if x0 is None else x0.copy()
    matvecs = 0
    inner = 0
    if x0 is None:
        r = b.copy()
    else:
        r = b - op.apply(x)
        matvecs += 1
    bnorm = norm(b)
    if bnorm == 0.0:
        return SolveResult(x, True, 0, 0.0, [0.0], matvecs)
    target = tol * bnorm
    history = [norm(r) / bnorm]
    if not np.isfinite(history[0]):
        return SolveResult(x, False, 0, history[0], history, matvecs, inner)

    zs: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    wnorm2: list[float] = []
    total_k = 0

    while total_k < maxiter:
        # restart cycle
        zs.clear()
        ws.clear()
        wnorm2.clear()
        for _ in range(nkrylov):
            if total_k >= maxiter:
                break
            z = preconditioner.apply(r) if preconditioner is not None else r.copy()
            if preconditioner is not None:
                inner += getattr(preconditioner, "last_inner_iterations", 0)
            w = op.apply(z)
            matvecs += 1
            # modified Gram-Schmidt against the current cycle's directions
            for zi, wi, wn in zip(zs, ws, wnorm2):
                proj = vdot(wi, w) / wn
                w -= proj * wi
                z -= proj * zi
            wn = vdot(w, w).real
            if wn <= 0.0:
                break
            alpha = vdot(w, r) / wn
            x += alpha * z
            r -= alpha * w
            zs.append(z)
            ws.append(w)
            wnorm2.append(wn)
            total_k += 1
            rnorm = norm(r)
            history.append(rnorm / bnorm)
            if rnorm < target or not np.isfinite(rnorm):
                return SolveResult(
                    x, rnorm < target, total_k, history[-1], history, matvecs,
                    inner,
                )
        if not ws:
            break  # stagnation: no progress possible

    return SolveResult(x, False, total_k, history[-1], history, matvecs, inner)


class GCRSolver:
    """GCR bound to an operator, usable itself as a preconditioner.

    This is how the paper's K-cycle nests: the coarse-level "solve" is a
    loose-tolerance GCR that is in turn preconditioned by the next
    coarser level.
    """

    def __init__(
        self,
        op,
        tol: float = 0.25,
        maxiter: int = 10,
        nkrylov: int = 10,
        preconditioner=None,
    ):
        self.op = op
        self.tol = tol
        self.maxiter = maxiter
        self.nkrylov = nkrylov
        self.preconditioner = preconditioner
        self.last_inner_iterations = 0

    def apply(self, r: np.ndarray) -> np.ndarray:
        res = gcr(
            self.op,
            r,
            tol=self.tol,
            maxiter=self.maxiter,
            nkrylov=self.nkrylov,
            preconditioner=self.preconditioner,
        )
        self.last_inner_iterations = res.iterations + res.inner_iterations
        return res.x
