"""Einsum formulations of the coarse-grid and transfer kernels.

``CoarseOperator`` and ``Transfer`` each run one kernel per entry point.
This module holds them against a second, independently written
formulation of the same arithmetic — ``np.einsum`` contractions over a
gathered stencil (the coarse gather-GEMM: self term plus eight
neighbours contracted in one sum) and over the aggregate basis — on
three qualitatively different ensembles (rough disordered, anisotropic,
free field).  Every case must agree to ``RTOL`` relative error.

The test and case names date from when these formulations were a
selectable kernel set ("einsum") measured against the operators'
"baseline" kernels; they are kept so results stay comparable over
time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coarse import coarsen_operator
from repro.dirac import WilsonCloverOperator
from repro.dirac.even_odd import SchurOperator
from repro.gauge import disordered_field, free_field
from repro.lattice import NDIM, Blocking, Lattice
from repro.transfer import Transfer

RTOL = 1e-12
K_MULTI = 8
N_NULL = 4

ENSEMBLES = ("rough", "aniso", "free")


def _fine_operator(ensemble: str) -> WilsonCloverOperator:
    if ensemble == "rough":
        lat = Lattice((4, 4, 4, 4))
        gauge = disordered_field(lat, np.random.default_rng(101), 0.7)
        return WilsonCloverOperator(gauge, mass=-0.25, c_sw=1.0)
    if ensemble == "aniso":
        # distinct extents + anisotropic hop weights expose index-order
        # and per-direction-weight bugs the isotropic cases cannot
        lat = Lattice((4, 4, 4, 8))
        gauge = disordered_field(lat, np.random.default_rng(102), 0.4, smear_steps=1)
        return WilsonCloverOperator(gauge, mass=-0.3, c_sw=1.3, anisotropy=2.5)
    if ensemble == "free":
        # unit links, no clover: exercises the c_sw = 0 diagonal path
        lat = Lattice((4, 4, 4, 4))
        return WilsonCloverOperator(free_field(lat), mass=0.1, c_sw=0.0)
    raise ValueError(ensemble)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.linalg.norm(want)
    return float(np.linalg.norm(got - want) / (scale if scale > 0 else 1.0))


class Problem:
    """One ensemble's coarse operator and transfer plus test vectors."""

    def __init__(self, ensemble: str):
        self.ensemble = ensemble
        op = _fine_operator(ensemble)
        lat = op.lattice
        rng = np.random.default_rng(7_000 + ENSEMBLES.index(ensemble))

        def cnormal(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self.v = cnormal((lat.volume, op.ns, op.nc))
        self.vs = cnormal((K_MULTI, lat.volume, op.ns, op.nc))

        nulls = [cnormal((lat.volume, op.ns, op.nc)) for _ in range(N_NULL)]
        self.transfer = Transfer(Blocking(lat, (2, 2, 2, 2)), nulls)
        self.coarse = coarsen_operator(op, self.transfer)
        clat = self.coarse.lattice
        self.vc = cnormal((clat.volume, self.coarse.ns, self.coarse.nc))
        self.vcs = cnormal((K_MULTI, clat.volume, self.coarse.ns, self.coarse.nc))
        self.coarse_schur = SchurOperator(self.coarse, parity=0)
        self.hc = self.vc[clat.sites_of_parity(0)]


# ----------------------------------------------------------------------
# the einsum formulations
# ----------------------------------------------------------------------
def _stencil_terms(op, with_diag: bool):
    """Stacked per-term blocks ``(T, V, N, N)`` and source sites ``(T, V)``."""
    lat = op.lattice
    blocks, sources = [], []
    if with_diag:
        blocks.append(op.x_blocks)
        sources.append(np.arange(lat.volume))
    for mu in range(NDIM):
        for d, nbr in enumerate((lat.fwd[mu], lat.bwd[mu])):
            blocks.append(op.hop_blocks[mu, d])
            sources.append(nbr)
    return np.stack(blocks), np.stack(sources)


def coarse_gather_gemm(op, vs: np.ndarray, with_diag: bool = True) -> np.ndarray:
    """Every stencil term of ``(K, V, ns, nc)`` data in one contraction."""
    blocks, sources = _stencil_terms(op, with_diag)
    k, vol = vs.shape[:2]
    gathered = vs.reshape(k, vol, op.site_dof)[:, sources]  # (K, T, V, N)
    out = np.einsum("tvij,ktvj->kvi", blocks, gathered, optimize=True)
    return out.reshape(vs.shape)


def coarse_diag(op, v: np.ndarray) -> np.ndarray:
    flat = v.reshape(op.lattice.volume, op.site_dof)
    return np.einsum("vij,vj->vi", op.x_blocks, flat).reshape(v.shape)


def coarse_diag_inv(op, v: np.ndarray) -> np.ndarray:
    flat = v.reshape(op.lattice.volume, op.site_dof, 1)
    return np.linalg.solve(op.x_blocks, flat).reshape(v.shape)


def coarse_schur(op, half: np.ndarray, parity: int = 0) -> np.ndarray:
    """``(A_pp - H_pq A_qq^{-1} H_qp) x_p`` through the einsum kernels."""
    own = op.lattice.sites_of_parity(parity)
    full = np.zeros((op.lattice.volume, op.ns, op.nc), dtype=np.complex128)
    full[own] = half
    hop = lambda x: coarse_gather_gemm(op, x[None], with_diag=False)[0]
    out = coarse_diag(op, full) - hop(coarse_diag_inv(op, hop(full)))
    return out[own]


def _chiral_rows(t: Transfer, fines: np.ndarray) -> np.ndarray:
    """``(K, V, ns, nc)`` -> per-aggregate chirality rows ``(K, V_c, 2, rows)``."""
    k, vc = fines.shape[0], t.coarse_lattice.volume
    g = fines[:, t.blocking.agg_sites].reshape(
        k, vc, t.blocking.block_volume, 2, t.fine_ns // 2, t.fine_nc
    )
    return g.transpose(0, 1, 3, 2, 4, 5).reshape(k, vc, 2, -1)


def restrict(t: Transfer, fines: np.ndarray) -> np.ndarray:
    """``c = B^dag f`` on a ``(K, V, ns, nc)`` stack."""
    return np.einsum("xsar,kxsr->kxsa", t._basis_dag, _chiral_rows(t, fines))


def prolong(t: Transfer, coarses: np.ndarray) -> np.ndarray:
    """``f = B c`` on a ``(K, V_c, 2, Nc_hat)`` stack."""
    k, vc = coarses.shape[:2]
    bv, nsb = t.blocking.block_volume, t.fine_ns // 2
    rows = np.einsum("xsar,kxsa->kxsr", np.conj(t._basis_dag), coarses)
    vals = rows.reshape(k, vc, 2, bv, nsb, t.fine_nc).transpose(0, 1, 3, 2, 4, 5)
    out = np.zeros(
        (k, t.fine_lattice.volume, t.fine_ns, t.fine_nc), dtype=np.complex128
    )
    out[:, t.blocking.agg_sites.ravel()] = vals.reshape(k, vc * bv, t.fine_ns, t.fine_nc)
    return out


#: operation name -> (kernel under test, einsum formulation), each a
#: callable(Problem) -> ndarray
OPERATIONS = {
    "coarse_apply": (
        lambda p: p.coarse.apply(p.vc),
        lambda p: coarse_gather_gemm(p.coarse, p.vc[None])[0],
    ),
    "coarse_hop_sum": (
        lambda p: p.coarse.apply_hopping(p.vc),
        lambda p: coarse_gather_gemm(p.coarse, p.vc[None], with_diag=False)[0],
    ),
    "coarse_diag": (
        lambda p: p.coarse.apply_diag(p.vc),
        lambda p: coarse_diag(p.coarse, p.vc),
    ),
    "coarse_diag_inv": (
        lambda p: p.coarse.apply_diag_inv(p.vc),
        lambda p: coarse_diag_inv(p.coarse, p.vc),
    ),
    "coarse_schur": (
        lambda p: p.coarse_schur.apply(p.hc),
        lambda p: coarse_schur(p.coarse, p.hc),
    ),
    "coarse_multi_k1": (
        lambda p: p.coarse.apply_multi(p.vcs[:1]),
        lambda p: coarse_gather_gemm(p.coarse, p.vcs[:1]),
    ),
    "coarse_multi_k8": (
        lambda p: p.coarse.apply_multi(p.vcs),
        lambda p: coarse_gather_gemm(p.coarse, p.vcs),
    ),
    "restrict": (
        lambda p: p.transfer.restrict(p.v),
        lambda p: restrict(p.transfer, p.v[None])[0],
    ),
    "prolong": (
        lambda p: p.transfer.prolong(p.vc),
        lambda p: prolong(p.transfer, p.vc[None])[0],
    ),
    "restrict_multi_k8": (
        lambda p: p.transfer.restrict_multi(p.vs),
        lambda p: restrict(p.transfer, p.vs),
    ),
    "prolong_multi_k8": (
        lambda p: p.transfer.prolong_multi(p.vcs),
        lambda p: prolong(p.transfer, p.vcs),
    ),
}


@pytest.fixture(scope="module", params=ENSEMBLES)
def problem(request):
    return Problem(request.param)


@pytest.mark.parametrize("formulation", ["einsum"])
@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_backend_matches_baseline(problem, formulation, operation):
    kernel, einsum_formulation = OPERATIONS[operation]
    got = einsum_formulation(problem)
    want = kernel(problem)
    assert got.shape == want.shape
    err = _rel_err(got, want)
    assert err <= RTOL, (
        f"{formulation}:{operation} on {problem.ensemble} drifted from the "
        f"operator's kernel by {err:.3e} (allowed {RTOL:.0e})"
    )
