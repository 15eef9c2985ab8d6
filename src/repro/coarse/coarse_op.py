"""The coarse-grid stencil operator (paper Eq 3).

The Galerkin product of a nearest-neighbour operator with hypercubic
aggregation is again nearest neighbour, but the spin (x) color tensor
structure is lost: each link carries a dense
``(Ns_hat Nc_hat) x (Ns_hat Nc_hat)`` matrix ``Y``, and the site-local
term ``X`` is likewise dense (it absorbs the aggregated clover/mass
term *and* all hops internal to the aggregates).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..dirac.stencil import StencilOperator
from ..lattice import NDIM, Lattice


def _blocks_apply(mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply per-site dense ``(V, N, N)`` blocks to ``(V, ns, nc)`` data."""
    vol, n, _ = mats.shape
    return np.matmul(mats, v.reshape(vol, n, 1)).reshape(v.shape)


class CoarseOperator(StencilOperator):
    """Dense-link nearest-neighbour operator on a coarse lattice.

    Parameters
    ----------
    lattice:
        The coarse lattice.
    x_blocks:
        Site-local matrices, shape ``(V, N, N)`` with ``N = ns * nc``.
    hop_blocks:
        ``hop_blocks[mu, d]`` for direction ``mu`` and orientation index
        ``d`` (0 = forward ``+mu``, 1 = backward ``-mu``), each of shape
        ``(V, N, N)``: the matrix multiplying the neighbour's dof vector
        in the output at ``x``.  Shape ``(4, 2, V, N, N)``.
    ns, nc:
        Coarse spin (2) and color (number of null vectors).
    """

    def __init__(
        self,
        lattice: Lattice,
        x_blocks: np.ndarray,
        hop_blocks: np.ndarray,
        ns: int,
        nc: int,
    ):
        n = ns * nc
        if x_blocks.shape != (lattice.volume, n, n):
            raise ValueError(f"x_blocks shape {x_blocks.shape} != (V, {n}, {n})")
        if hop_blocks.shape != (NDIM, 2, lattice.volume, n, n):
            raise ValueError(f"hop_blocks shape {hop_blocks.shape}")
        self.lattice = lattice
        self.ns = ns
        self.nc = nc
        self.x_blocks = np.ascontiguousarray(x_blocks)
        self.hop_blocks = np.ascontiguousarray(hop_blocks)

    @cached_property
    def _x_inv(self) -> np.ndarray:
        return np.linalg.inv(self.x_blocks)

    # ------------------------------------------------------------------
    def apply_diag(self, v: np.ndarray) -> np.ndarray:
        return _blocks_apply(self.x_blocks, v)

    def apply_diag_inv(self, v: np.ndarray) -> np.ndarray:
        return _blocks_apply(self._x_inv, v)

    def apply_hop_gathered(self, mu: int, sign: int, nbr: np.ndarray) -> np.ndarray:
        d = 0 if sign > 0 else 1
        flat = nbr.reshape(self.lattice.volume, self.site_dof, 1)
        return np.matmul(self.hop_blocks[mu, d], flat).reshape(nbr.shape)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Fused application ``M v``: one gather + batched matvec per direction."""
        lat = self.lattice
        flat = v.reshape(lat.volume, self.site_dof, 1)
        out = np.matmul(self.x_blocks, flat)
        for mu in range(NDIM):
            out += np.matmul(self.hop_blocks[mu, 0], flat[lat.fwd[mu]])
            out += np.matmul(self.hop_blocks[mu, 1], flat[lat.bwd[mu]])
        return out.reshape(v.shape)

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        """Batched application to ``(K, V, ns, nc)``: matrices loaded once.

        Batch-last ``(V, N, N) @ (V, N, K)`` stacked GEMMs — one per
        direction regardless of K, so every dense link matrix is read
        once for the whole batch and the multiply dispatches to BLAS
        (the temporal-locality win of the multiple-right-hand-side
        reformulation, Section 9).
        """
        lat = self.lattice
        k = vs.shape[0]
        flat = np.ascontiguousarray(
            vs.reshape(k, lat.volume, self.site_dof).transpose(1, 2, 0)
        )
        out = np.matmul(self.x_blocks, flat)
        for mu in range(NDIM):
            out += np.matmul(self.hop_blocks[mu, 0], flat[lat.fwd[mu]])
            out += np.matmul(self.hop_blocks[mu, 1], flat[lat.bwd[mu]])
        return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(vs.shape)

    # ------------------------------------------------------------------
    def link_hermiticity_violation(self) -> float:
        """Deviation from the Eq-3 structure ``Y^{-mu}(x) = G Y^{+mu}(x-mu)^dag G``.

        ``G`` is the coarse gamma5; this is the coarse image of the fine
        operator's gamma5-hermiticity and should hold to roundoff for
        operators produced by the Galerkin product of a gamma5-hermitian
        fine operator.
        """
        g = np.kron(self.gamma5_diag(), np.ones(self.nc))
        worst = 0.0
        for mu in range(NDIM):
            fwd_from_nbr = self.hop_blocks[mu, 0][self.lattice.bwd[mu]]
            expect = g[None, :, None] * np.conj(
                np.swapaxes(fwd_from_nbr, -1, -2)
            ) * g[None, None, :]
            worst = max(worst, float(np.abs(self.hop_blocks[mu, 1] - expect).max()))
        return worst

    def memory_bytes(self, precision_bytes: float = 4.0) -> float:
        """Storage footprint of the operator (for the performance model)."""
        n = self.site_dof
        mats = self.lattice.volume * (1 + 2 * NDIM) * n * n
        return mats * 2 * precision_bytes

    def __repr__(self) -> str:
        return f"CoarseOperator({self.lattice!r}, ns={self.ns}, nc={self.nc})"
