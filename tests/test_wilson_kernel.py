"""The fine Wilson-Clover kernel against an independent oracle, plus its
workspace and memory contracts.

The oracle below is the per-direction arithmetic the operator used
before it had one sites-last kernel: site-major links per direction,
eight gathered 3x3 products projected with the full ``1 ∓ gamma_mu``
spin matrices, chiral 6x6 blocks through ``np.matmul``, and the Schur
system through zero-padded full-lattice fields.  It is built from the
gauge field alone, so it shares no layout, index table or spin
factorization with ``repro.dirac.mrhs``.
"""

from __future__ import annotations

import functools
import sys
import threading

import numpy as np
import pytest

from repro.dirac import CloverTerm, SchurOperator, WilsonCloverOperator
from repro.dirac.gamma import chirality_slices, projectors
from repro.dirac.mrhs import BatchedHopSum, BatchedSchur
from repro.gauge import disordered_field, free_field
from repro.gauge.su3 import dagger
from repro.lattice import NDIM, Lattice
from repro.workloads import ANISO40_SCALED, ISO48_SCALED

pytestmark = pytest.mark.mrhs

RTOL = 1e-13
KS = (1, 2, 3, 8)


class Oracle:
    """``M``, its hop sum and its Schur system, one direction at a time."""

    def __init__(self, gauge, mass, c_sw=1.0, antiperiodic_t=True, anisotropy=1.0):
        lat = self.lattice = gauge.lattice
        w = 1.0 / anisotropy
        weights = (w, w, w, 1.0)
        self.u_fwd, self.u_bwd = [], []
        for mu in range(NDIM):
            fwd = np.full(lat.volume, weights[mu])
            bwd = np.full(lat.volume, weights[mu])
            if antiperiodic_t and mu == 3:
                fwd[lat.crosses_fwd[mu]] *= -1.0
                bwd[lat.crosses_bwd[mu]] *= -1.0
            self.u_fwd.append(gauge.data[mu] * fwd[:, None, None])
            self.u_bwd.append(dagger(gauge.data[mu][lat.bwd[mu]]) * bwd[:, None, None])
        clover = (
            CloverTerm.from_gauge(gauge, c_sw) if c_sw else CloverTerm.zero(lat.volume)
        )
        self.diag = clover.shifted(sum(weights) + mass)
        self.diag_inv = np.linalg.inv(self.diag)
        self.minus, self.plus = projectors()

    def blocks(self, blocks, v):
        out = np.empty_like(v)
        for chi, sl in enumerate(chirality_slices()):
            x = v[:, sl, :].reshape(len(v), 6, 1)
            out[:, sl, :] = np.matmul(blocks[:, chi], x).reshape(len(v), 2, 3)
        return out

    def hop_sum(self, v):
        lat = self.lattice
        out = np.zeros_like(v)
        for mu in range(NDIM):
            for links, table, proj in (
                (self.u_fwd[mu], lat.fwd[mu], self.minus[mu]),
                (self.u_bwd[mu], lat.bwd[mu], self.plus[mu]),
            ):
                col = np.matmul(links[:, None], v[table][..., None])[..., 0]
                out -= 0.5 * np.tensordot(col, proj, axes=([1], [1])).transpose(0, 2, 1)
        return out

    def apply(self, v):
        return self.blocks(self.diag, v) + self.hop_sum(v)

    # -- Schur system, zero-padded ------------------------------------
    def _lift(self, half, parity):
        full = np.zeros((self.lattice.volume, 4, 3), dtype=np.complex128)
        full[self.lattice.sites_of_parity(parity)] = half
        return full

    def _restrict(self, full, parity):
        return full[self.lattice.sites_of_parity(parity)]

    def schur_apply(self, half, parity):
        full = self._lift(half, parity)
        mid = self.blocks(self.diag_inv, self.hop_sum(full))
        return self._restrict(self.blocks(self.diag, full) - self.hop_sum(mid), parity)

    def schur_prepare(self, b, parity):
        other = self._lift(self._restrict(b, 1 - parity), 1 - parity)
        corr = self.hop_sum(self.blocks(self.diag_inv, other))
        return self._restrict(b - corr, parity)

    def schur_reconstruct(self, x_half, b, parity):
        x_full = self._lift(x_half, parity)
        rhs = self._lift(self._restrict(b, 1 - parity), 1 - parity)
        return x_full + self.blocks(self.diag_inv, rhs - self.hop_sum(x_full))


def _rough44():
    lat = Lattice((4, 4, 4, 4))
    return disordered_field(lat, np.random.default_rng(101), 0.7), dict(mass=-0.25)


def _free44_csw0_periodic():
    gauge = free_field(Lattice((4, 4, 4, 4)))
    return gauge, dict(mass=0.1, c_sw=0.0, antiperiodic_t=False)


def _aniso448_periodic():
    lat = Lattice((4, 4, 4, 8))
    gauge = disordered_field(lat, np.random.default_rng(102), 0.4, smear_steps=1)
    return gauge, dict(mass=-0.3, c_sw=1.3, anisotropy=2.5, antiperiodic_t=False)


def _dataset(ds, **overrides):
    return lambda: (ds.gauge(), {**ds.operator_kwargs(), **overrides})


CASES = {
    "4x4-rough": _rough44,
    "4x4-free-csw0-periodic": _free44_csw0_periodic,
    "4x4x4x8-aniso2.5-periodic": _aniso448_periodic,
    "Aniso40-scaled": _dataset(ANISO40_SCALED),
    "Aniso40-scaled-csw0-periodic": _dataset(
        ANISO40_SCALED, c_sw=0.0, antiperiodic_t=False
    ),
    "Iso48-scaled": _dataset(ISO48_SCALED),
}


@functools.cache
def _case(name):
    gauge, kwargs = CASES[name]()
    return WilsonCloverOperator(gauge, **kwargs), Oracle(gauge, **kwargs)


@pytest.fixture(params=sorted(CASES))
def case(request):
    return _case(request.param)


def _stack(lat, k, seed):
    rng = np.random.default_rng(seed)
    shape = (k, lat.volume, 4, 3)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_close(got, want):
    assert got.shape == want.shape
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err <= RTOL, f"relative error {err:.2e} > {RTOL:.0e}"


# ----------------------------------------------------------------------
# differential: the kernel against the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", KS)
def test_apply_multi_matches_oracle(case, k):
    op, oracle = case
    vs = _stack(op.lattice, k, seed=k)
    _assert_close(op.apply_multi(vs), np.stack([oracle.apply(v) for v in vs]))


def test_single_vector_entry_points_match_oracle(case):
    op, oracle = case
    v = _stack(op.lattice, 1, seed=99)[0]
    _assert_close(op.apply(v), oracle.apply(v))
    _assert_close(op.apply_hopping(v), oracle.hop_sum(v))
    _assert_close(op.apply_diag(v), oracle.blocks(oracle.diag, v))
    _assert_close(op.apply_diag_inv(v), oracle.blocks(oracle.diag_inv, v))


@pytest.mark.parametrize("parity", (0, 1))
@pytest.mark.parametrize("k", KS)
def test_batched_schur_matches_oracle(case, k, parity):
    op, oracle = case
    lat = op.lattice
    bschur = BatchedSchur(op, parity)
    bs = _stack(lat, k, seed=10 + k)
    halves = bs[:, lat.sites_of_parity(parity)]
    _assert_close(
        bschur.apply_multi(halves),
        np.stack([oracle.schur_apply(h, parity) for h in halves]),
    )
    _assert_close(
        bschur.prepare_multi(bs),
        np.stack([oracle.schur_prepare(b, parity) for b in bs]),
    )
    _assert_close(
        bschur.reconstruct_multi(halves, bs),
        np.stack([oracle.schur_reconstruct(h, b, parity) for h, b in zip(halves, bs)]),
    )


@pytest.mark.parametrize("parity", (0, 1))
def test_sequential_schur_matches_oracle(case, parity):
    op, oracle = case
    lat = op.lattice
    schur = SchurOperator(op, parity)
    b = _stack(lat, 1, seed=77)[0]
    half = b[lat.sites_of_parity(parity)]
    _assert_close(schur.apply(half), oracle.schur_apply(half, parity))
    _assert_close(schur.prepare_source(b), oracle.schur_prepare(b, parity))
    _assert_close(schur.reconstruct(half, b), oracle.schur_reconstruct(half, b, parity))


# ----------------------------------------------------------------------
# workspaces: results are fresh, threads do not share scratch
# ----------------------------------------------------------------------
def _entry_points(op):
    lat = op.lattice
    even = lat.sites_of_parity(0)
    schur, bschur = SchurOperator(op, 0), BatchedSchur(op, 0)
    engine = BatchedHopSum(op)
    b2 = _stack(lat, 2, seed=5)
    return {
        "apply": lambda v: op.apply(v),
        "apply_multi": lambda v: op.apply_multi(np.stack([v, 2 * v])),
        "apply_hopping": lambda v: op.apply_hopping(v),
        "apply_diag": lambda v: op.apply_diag(v),
        "apply_diag_inv": lambda v: op.apply_diag_inv(v),
        "schur.apply": lambda v: schur.apply(v[even]),
        "schur.prepare_source": lambda v: schur.prepare_source(v),
        "schur.reconstruct": lambda v: schur.reconstruct(v[even], v),
        "batched_schur.apply_multi": lambda v: bschur.apply_multi(v[None, even]),
        "batched_schur.prepare_multi": lambda v: bschur.prepare_multi(v[None] + b2),
        "batched_schur.reconstruct_multi": lambda v: bschur.reconstruct_multi(
            v[None, even], v[None]
        ),
        "hop_sum_engine": lambda v: engine.apply(
            np.ascontiguousarray(v[None, lat.parity_order].transpose(0, 2, 3, 1))
        ),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points(_case("4x4-rough")[0])))
def test_results_never_alias_a_workspace(entry):
    op = _case("4x4-rough")[0]
    fn = _entry_points(op)[entry]
    v1, v2 = _stack(op.lattice, 2, seed=3)
    first = fn(v1)
    kept = first.copy()
    fn(v2)
    assert np.array_equal(first, kept), f"{entry}: a later call overwrote its result"


def test_four_threads_match_serial_bitwise():
    op = _case("Aniso40-scaled")[0]
    lat = op.lattice
    schur = SchurOperator(op, 0)
    inputs = _stack(lat, 4, seed=21)
    stacks = [_stack(lat, 3, seed=30 + i) for i in range(4)]

    def work(i):
        v, vs = inputs[i], stacks[i]
        return op.apply(v), op.apply_multi(vs), schur.apply(v[lat.sites_of_parity(0)])

    serial = [work(i) for i in range(4)]
    barrier = threading.Barrier(4)
    mismatches = []

    def run(i):
        barrier.wait()
        for _ in range(10):
            for got, want in zip(work(i), serial[i]):
                if not np.array_equal(got, want):
                    mismatches.append(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not mismatches, f"threads {sorted(set(mismatches))} differ from serial"


def test_two_worker_service_batches_pass_true_residual():
    from repro.mg import LevelParams, MGParams
    from repro.serve import ServeConfig, SolveService

    lat = Lattice((4, 4, 4, 8))
    gauge = disordered_field(lat, np.random.default_rng(11), 0.55, smear_steps=1)
    op = WilsonCloverOperator(gauge, mass=-1.406 + 0.03, c_sw=1.0)
    params = MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=6, null_iters=40)],
        outer_tol=1e-7,
    )
    sources = _stack(op.lattice, 6, seed=8)
    cfg = ServeConfig(max_batch=3, max_wait_s=0.05, n_workers=2)
    with SolveService(cfg) as svc:
        svc.register("wc", op, params, rng=np.random.default_rng(5))
        futures = [svc.submit("wc", b) for b in sources]
        results = [f.result(timeout=300) for f in futures]
    for b, res in zip(sources, results):
        assert res.converged
        assert np.all(np.isfinite(res.x))
        true = np.linalg.norm(b - op.apply(res.x)) / np.linalg.norm(b)
        assert true <= 1e-7 * 1.5


# ----------------------------------------------------------------------
# memory: one store, viewed by every engine
# ----------------------------------------------------------------------
def test_engines_view_the_operator_store():
    op = _case("Aniso40-scaled")[0]
    for parity in (0, 1):
        bschur = BatchedSchur(op, parity)
        for engine in (bschur._hop_to_other, bschur._hop_to_own):
            assert np.shares_memory(engine._links, op._links)
        assert np.shares_memory(bschur._diag_own, op._diag)
        assert np.shares_memory(bschur._dinv_other, op._diag_inv)
    assert np.shares_memory(BatchedHopSum(op)._links, op._links)


def test_aniso40_setup_memory_is_unchanged(aniso40_solve):
    _ds, solver, _result = aniso40_solve
    assert solver.hierarchy.setup_memory_bytes() == 5_863_424
