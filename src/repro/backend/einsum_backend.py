"""Batched-einsum/BLAS backend: fold every kernel into few large GEMMs.

The formulation changes relative to the NumPy baseline:

* **Coarse stencil** — the baseline issues nine stacked matvecs (one
  per stencil term) plus eight accumulations.  Here the nine dense
  ``(N, N)`` blocks of each site are concatenated once into a single
  ``(V, N, 9N)`` matrix, the nine source vectors (self + eight
  neighbours) are gathered into one ``(V, 9N)`` operand through a
  cached ``(9, V)`` index table, and the whole application becomes
  *one* batched GEMM — the gather-GEMM trick that turns the
  latency-bound small-grid stencil into a single BLAS dispatch (the
  coarse grids are exactly where the paper's Figure 2 says exposed
  parallelism decides throughput).
* **Transfers** — the per-chirality loop folds into one batched GEMM
  over the ``(V_c, 2)`` leading axes against a cached conjugated
  basis, for restriction, prolongation and their multi-RHS variants.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend


def _has_dense_blocks(op) -> bool:
    return hasattr(op, "x_blocks") and hasattr(op, "hop_blocks")


class EinsumBackend(ArrayBackend):
    """Few-large-GEMM formulation of every hot kernel."""

    name = "einsum"
    description = (
        "batched-einsum/BLAS formulation: gather-GEMM coarse stencil, "
        "fused-chirality transfers"
    )

    # ------------------------------------------------------------------
    # shared primitives
    # ------------------------------------------------------------------
    def hop_sum(self, op, v: np.ndarray) -> np.ndarray:
        if _has_dense_blocks(op):
            return self._coarse_gather_apply(op, v[None], with_diag=False)[0]
        return super().hop_sum(op, v)

    # ------------------------------------------------------------------
    # coarse dense-block stencil: the gather-GEMM formulation
    # ------------------------------------------------------------------
    def _coarse_tables(self, op, with_diag: bool):
        """Cached ``(cat_blocks, idx)``: concatenated per-site stencil
        matrices ``(V, N, T*N)`` and the matching ``(T, V)`` source-site
        table (T = 9 with the diagonal term, 8 without)."""

        def build():
            from ..lattice import NDIM

            lat = op.lattice
            blocks, idx = [], []
            if with_diag:
                blocks.append(op.x_blocks)
                idx.append(np.arange(lat.volume))
            for mu in range(NDIM):
                blocks.append(op.hop_blocks[mu, 0])
                idx.append(lat.fwd[mu])
                blocks.append(op.hop_blocks[mu, 1])
                idx.append(lat.bwd[mu])
            cat = np.ascontiguousarray(np.concatenate(blocks, axis=2))
            return cat, np.ascontiguousarray(np.stack(idx))

        key = "coarse_cat9" if with_diag else "coarse_cat8"
        return self.op_cache(op, key, build)

    def _coarse_gather_apply(
        self, op, vs: np.ndarray, with_diag: bool
    ) -> np.ndarray:
        """One batched GEMM per application: ``(V, N, TN) @ (V, TN, K)``."""
        cat, idx = self._coarse_tables(op, with_diag)
        k, vol = vs.shape[0], vs.shape[1]
        n = cat.shape[1]
        flat = vs.reshape(k, vol, n).transpose(1, 2, 0)  # (V, N, K)
        gathered = flat[idx]  # (T, V, N, K)
        t = idx.shape[0]
        rhs = np.ascontiguousarray(gathered.transpose(1, 0, 2, 3)).reshape(
            vol, t * n, k
        )
        out = np.matmul(cat, rhs)  # (V, N, K)
        return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(vs.shape)

    def coarse_apply(self, op, v: np.ndarray) -> np.ndarray:
        if not _has_dense_blocks(op):
            return super().coarse_apply(op, v)
        return self._coarse_gather_apply(op, v[None], with_diag=True)[0]

    def coarse_apply_multi(self, op, vs: np.ndarray) -> np.ndarray:
        if not _has_dense_blocks(op):
            return super().coarse_apply_multi(op, vs)
        return self._coarse_gather_apply(op, vs, with_diag=True)

    # ------------------------------------------------------------------
    # aggregation transfers: fused-chirality batched GEMMs
    # ------------------------------------------------------------------
    def _basis_dag(self, transfer) -> np.ndarray:
        """Cached conjugate-transposed aggregate basis ``(V_c, 2, Nc, rows)``."""
        return self.op_cache(
            transfer,
            "basis_dag",
            lambda: np.ascontiguousarray(
                np.conj(np.swapaxes(transfer._basis, -1, -2))
            ),
        )

    def _gather_chiral(self, transfer, fine: np.ndarray) -> np.ndarray:
        """Fine field -> per-aggregate chirality-split rows ``(V_c, 2, rows)``."""
        agg = transfer.blocking.agg_sites
        vc = transfer.coarse_lattice.volume
        bv = transfer.blocking.block_volume
        nsb = transfer.fine_ns // 2
        nc = transfer.fine_nc
        g = fine[agg].reshape(vc, bv, 2, nsb, nc)
        return g.transpose(0, 2, 1, 3, 4).reshape(vc, 2, transfer._rows)

    def _scatter_chiral(self, transfer, rows: np.ndarray) -> np.ndarray:
        """Per-aggregate rows ``(V_c, 2, rows)`` -> fine field."""
        agg = transfer.blocking.agg_sites
        vc = transfer.coarse_lattice.volume
        bv = transfer.blocking.block_volume
        nsb = transfer.fine_ns // 2
        nc = transfer.fine_nc
        vals = (
            rows.reshape(vc, 2, bv, nsb, nc)
            .transpose(0, 2, 1, 3, 4)
            .reshape(vc * bv, transfer.fine_ns, nc)
        )
        out = np.empty(
            (transfer.fine_lattice.volume, transfer.fine_ns, nc),
            dtype=rows.dtype,
        )
        out[agg.ravel()] = vals
        return out

    def restrict(self, transfer, fine: np.ndarray) -> np.ndarray:
        x = self._gather_chiral(transfer, fine)
        return np.matmul(self._basis_dag(transfer), x[..., None])[..., 0]

    def prolong(self, transfer, coarse: np.ndarray) -> np.ndarray:
        # the fused-chirality scatter loses to the baseline's sliced
        # writes at K=1 (measured ~2x); keep the reference formulation
        return super().prolong(transfer, coarse)

    def restrict_multi(self, transfer, fines: np.ndarray) -> np.ndarray:
        k = fines.shape[0]
        agg = transfer.blocking.agg_sites
        vc = transfer.coarse_lattice.volume
        bv = transfer.blocking.block_volume
        nsb = transfer.fine_ns // 2
        nc = transfer.fine_nc
        g = fines[:, agg].reshape(k, vc, bv, 2, nsb, nc)
        # (V_c, 2, rows, K): aggregate rows per coarse site, batch last
        x = g.transpose(1, 3, 2, 4, 5, 0).reshape(vc, 2, transfer._rows, k)
        y = np.matmul(self._basis_dag(transfer), x)  # (V_c, 2, Nc, K)
        return np.ascontiguousarray(y.transpose(3, 0, 1, 2))

    def prolong_multi(self, transfer, coarses: np.ndarray) -> np.ndarray:
        k = coarses.shape[0]
        vc = transfer.coarse_lattice.volume
        bv = transfer.blocking.block_volume
        nsb = transfer.fine_ns // 2
        nc = transfer.fine_nc
        x = coarses.transpose(1, 2, 3, 0)  # (V_c, 2, Nc, K)
        rows = np.matmul(transfer._basis, x)  # (V_c, 2, rows, K)
        vals = (
            rows.reshape(vc, 2, bv, nsb, nc, k)
            .transpose(5, 0, 2, 1, 3, 4)
            .reshape(k, vc * bv, transfer.fine_ns, nc)
        )
        out = np.empty(
            (k, transfer.fine_lattice.volume, transfer.fine_ns, nc),
            dtype=coarses.dtype,
        )
        out[:, transfer.blocking.agg_sites.ravel()] = vals
        return out
