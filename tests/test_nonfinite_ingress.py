"""Non-finite right-hand sides fail fast at ingress.

A NaN right-hand side has a NaN norm, which once passed for a zero
right-hand side: the batched solve returned ``converged=True`` with a
non-finite solution.  Both entry points now refuse such input with a
``ValueError`` before any work (or any queueing) happens.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams
from repro.mg.multi_rhs import batched_mg_solve
from repro.serve import ServeConfig, SolveService
from repro.solvers import validate_rhs_stack

BAD = (np.nan, np.inf, -np.inf)


@pytest.fixture(scope="module")
def op():
    lat = Lattice((4, 4, 4, 4))
    gauge = disordered_field(lat, np.random.default_rng(3), 0.4)
    return WilsonCloverOperator(gauge, mass=-0.3)


def _poisoned(op, value, k=3, column=1):
    rng = np.random.default_rng(0)
    bs = rng.standard_normal((k, op.lattice.volume, 4, 3)) + 0j
    bs[column, 5, 2, 1] = value
    return bs


@pytest.mark.parametrize("value", BAD)
def test_validate_rhs_stack_rejects_non_finite(op, value):
    with pytest.raises(ValueError, match=r"non-finite entries in system\(s\) \[1\]"):
        validate_rhs_stack(op, _poisoned(op, value))


def test_batched_mg_solve_rejects_nan_before_solving(op):
    from repro.mg import MultigridSolver

    params = MGParams(
        levels=[LevelParams(block=(2, 2, 2, 2), n_null=2, null_iters=2)]
    )
    solver = MultigridSolver(op, params, rng=np.random.default_rng(1))
    with pytest.raises(ValueError, match="non-finite"):
        batched_mg_solve(solver.hierarchy, _poisoned(op, np.nan))


@pytest.mark.parametrize("value", BAD)
def test_service_submit_rejects_non_finite_before_queueing(op, value):
    params = MGParams(
        levels=[LevelParams(block=(2, 2, 2, 2), n_null=2, null_iters=2)]
    )
    with SolveService(ServeConfig(max_wait_s=0.01)) as svc:
        svc.register("wc", op, params, rng=np.random.default_rng(5))
        with pytest.raises(ValueError, match="non-finite"):
            svc.submit("wc", _poisoned(op, value, k=1, column=0)[0])
        assert svc.stats["submitted"] == 0
        assert svc.queue_depth() == 0
