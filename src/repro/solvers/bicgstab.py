"""BiCGStab — the paper's baseline Krylov solver.

Stabilized bi-conjugate gradients (van der Vorst) solves the
non-symmetric Wilson-Clover system directly.  Combined with red-black
preconditioning and mixed precision this is the state of the art that
the multigrid solver is compared against (paper Section 3.3).
"""

from __future__ import annotations

import numpy as np

from ..telemetry.instrument import instrumented_solver
from .base import SolveResult, norm, vdot

_BREAKDOWN = 1e-30


@instrumented_solver("bicgstab")
def bicgstab(
    op,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int = 10000,
) -> SolveResult:
    """BiCGStab with restart-on-breakdown.

    Each iteration costs two operator applications; ``matvecs`` in the
    result counts them individually.
    """
    x = np.zeros_like(b) if x0 is None else x0.copy()
    matvecs = 0
    if x0 is None:
        r = b.copy()
    else:
        r = b - op.apply(x)
        matvecs += 1
    bnorm = norm(b)
    if bnorm == 0.0:
        return SolveResult(x, True, 0, 0.0, [0.0], matvecs)
    target = tol * bnorm

    r0 = r.copy()
    rho_old = alpha = omega = 1.0 + 0j
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    history = [norm(r) / bnorm]
    if not np.isfinite(history[0]):
        return SolveResult(x, False, 0, history[0], history, matvecs)

    for k in range(1, maxiter + 1):
        rho = vdot(r0, r)
        if abs(rho) < _BREAKDOWN or abs(omega) < _BREAKDOWN:
            # serial breakdown: restart with the current residual
            r0 = r.copy()
            rho = vdot(r0, r)
            v[:] = 0
            p[:] = 0
            rho_old = alpha = omega = 1.0 + 0j
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta * (p - omega * v)
        v = op.apply(p)
        matvecs += 1
        alpha = rho / vdot(r0, v)
        s = r - alpha * v
        snorm = norm(s)
        if not np.isfinite(snorm):
            history.append(snorm / bnorm)
            return SolveResult(x, False, k, history[-1], history, matvecs)
        if snorm < target:
            x += alpha * p
            history.append(snorm / bnorm)
            return SolveResult(x, True, k, history[-1], history, matvecs)
        t = op.apply(s)
        matvecs += 1
        tt = vdot(t, t).real
        omega = vdot(t, s) / tt if tt > _BREAKDOWN else 0.0
        x += alpha * p + omega * s
        r = s - omega * t
        rho_old = rho
        rnorm = norm(r)
        history.append(rnorm / bnorm)
        if rnorm < target or not np.isfinite(rnorm):
            return SolveResult(x, rnorm < target, k, history[-1], history, matvecs)

    return SolveResult(x, False, maxiter, history[-1], history, matvecs)
