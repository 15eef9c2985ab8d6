"""Batched multiple-right-hand-side multigrid (Section 9)."""

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams, MultigridSolver
from repro.mg.multi_rhs import (
    BatchedSmoother,
    batched_mg_solve,
    batched_preconditioner_for,
)
from repro.solvers import norm
from tests.conftest import random_spinor

pytestmark = pytest.mark.mrhs



@pytest.fixture(scope="module")
def setup():
    lat = Lattice((4, 4, 4, 8))
    u = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    op = WilsonCloverOperator(u, mass=-1.406 + 0.03, c_sw=1.0)
    params = MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=8, null_iters=50)],
        outer_tol=1e-8,
    )
    solver = MultigridSolver(op, params, np.random.default_rng(5))
    bs = np.stack([random_spinor(lat, seed=910 + k) for k in range(4)])
    return op, solver, bs


class TestBatchedSmoother:
    def test_reduces_all_residuals(self, setup):
        op, solver, bs = setup
        smoother = BatchedSmoother(op, steps=4)
        zs = smoother.apply_multi(bs)
        for b, z in zip(bs, zs):
            assert norm(b - op.apply(z)) < norm(b)

    def test_matches_single_rhs_smoother(self, setup):
        op, solver, bs = setup
        batched = BatchedSmoother(op, steps=4).apply_multi(bs)
        single = solver.hierarchy.levels[0].smoother
        for b, z in zip(bs, batched):
            np.testing.assert_allclose(z, single.apply(b), atol=1e-10)


class TestBatchedPreconditioner:
    def test_contracts_error_for_all_systems(self, setup):
        op, solver, bs = setup
        pre = batched_preconditioner_for(solver.hierarchy)
        zs = pre.apply_multi(bs)
        for b, z in zip(bs, zs):
            assert norm(b - op.apply(z)) < 0.6 * norm(b)


class TestBatchedMGSolve:
    def test_all_systems_converge(self, setup):
        op, solver, bs = setup
        results = batched_mg_solve(solver.hierarchy, bs, tol=1e-8)
        assert len(results) == 4
        for res, b in zip(results, bs):
            assert res.converged
            assert norm(b - op.apply(res.x)) / norm(b) < 2e-8

    def test_matches_sequential_mg(self, setup):
        op, solver, bs = setup
        batched = batched_mg_solve(solver.hierarchy, bs, tol=1e-10)
        for res, b in zip(batched, bs):
            seq = solver.solve(b, tol=1e-10)
            assert norm(res.x - seq.x) / norm(seq.x) < 1e-6

    def test_iteration_count_comparable_to_sequential(self, setup):
        op, solver, bs = setup
        batched = batched_mg_solve(solver.hierarchy, bs, tol=1e-8)
        seq_iters = [solver.solve(b, tol=1e-8).iterations for b in bs]
        for res, si in zip(batched, seq_iters):
            assert res.iterations <= 3 * si

    def test_matvec_batches_shared(self, setup):
        op, solver, bs = setup
        results = batched_mg_solve(solver.hierarchy, bs, tol=1e-8)
        # one batch per outer iteration serves all 4 systems
        assert results[0].extra["matvec_batches"] <= max(
            r.iterations for r in results
        )

    def test_zero_rhs_handled(self, setup):
        op, solver, bs = setup
        stack = bs.copy()
        stack[2] = 0
        results = batched_mg_solve(solver.hierarchy, stack, tol=1e-8)
        assert results[2].converged
        assert norm(results[2].x) == 0.0
