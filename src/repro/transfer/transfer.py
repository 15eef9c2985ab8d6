"""Chirality-preserving aggregation transfer operators (paper Section 3.4).

The prolongator ``P`` is built from ``Nc_hat`` near-null-space vectors
of the fine operator: the vectors are partitioned into disjoint
hypercubic aggregates, split by chirality (upper / lower spin blocks,
footnote 1), and block-orthonormalized with a QR decomposition per
(aggregate x chirality).  The restrictor is ``R = P^dagger``, which the
chirality split makes legitimate (a vector rich in right low modes is
also rich in left low modes).

The coarse grid consequently carries ``Ns_hat = 2`` spin (chirality)
components and ``Nc_hat`` colors per site.
"""

from __future__ import annotations

import numpy as np

from ..fields import SpinorField
from ..lattice import Blocking
from ..dirac.gamma import chirality_slices_for


class Transfer:
    """Prolongation/restriction between a fine level and its blocked coarse level.

    Parameters
    ----------
    blocking:
        The hypercubic aggregation geometry.
    null_vectors:
        ``Nc_hat`` fine-grid fields of shape ``(V_f, ns_f, nc_f)`` that
        span the near-null space.
    """

    def __init__(self, blocking: Blocking, null_vectors: list[np.ndarray]):
        if not null_vectors:
            raise ValueError("need at least one null vector")
        first = null_vectors[0]
        if first.ndim != 3 or first.shape[0] != blocking.fine.volume:
            raise ValueError(
                f"null vectors must have shape (V_fine, ns, nc), got {first.shape}"
            )
        self.blocking = blocking
        self.fine_lattice = blocking.fine
        self.coarse_lattice = blocking.coarse
        self.fine_ns = first.shape[1]
        self.fine_nc = first.shape[2]
        self.coarse_nc = len(null_vectors)
        self.coarse_ns = 2

        if self.fine_ns % 2:
            raise ValueError(f"fine ns must be even for a chirality split, got {self.fine_ns}")
        rows = blocking.block_volume * (self.fine_ns // 2) * self.fine_nc
        if rows < self.coarse_nc:
            raise ValueError(
                f"aggregate dof ({rows}) smaller than number of null vectors "
                f"({self.coarse_nc}); enlarge the blocks or use fewer vectors"
            )

        stack = np.stack(null_vectors, axis=-1)  # (V_f, ns, nc, Nc_hat)
        vc = self.coarse_lattice.volume
        basis = np.empty((vc, 2, rows, self.coarse_nc), dtype=np.complex128)
        for chi, sl in enumerate(chirality_slices_for(self.fine_ns)):
            chi_part = stack[:, sl, :, :]  # (V_f, ns/2, nc, Nc_hat)
            gathered = chi_part[blocking.agg_sites]  # (Vc, bv, ns/2, nc, Nc_hat)
            mat = gathered.reshape(vc, rows, self.coarse_nc)
            q, r = np.linalg.qr(mat)
            diag = np.abs(np.einsum("vkk->vk", r))
            if np.any(diag < 1e-12 * np.sqrt(rows)):
                raise ValueError(
                    "null vectors are linearly dependent within an aggregate; "
                    "regenerate with different random seeds"
                )
            basis[:, chi] = q
        # basis rows are ordered (block site, spin-in-chirality, color).
        # Only D = B^dag, shape (V_c, 2, Nc_hat, rows), is kept: restriction
        # is one fused-chirality GEMM against D, prolongation is
        # B c = conj(D^T conj(c)).  D is the transposed view of one
        # contiguous conj(B) rather than contiguous itself: in that layout
        # both GEMMs sum in the order of per-chirality products with B,
        # which the golden iteration counts were recorded with.
        self._basis_dag = np.swapaxes(np.conj(basis), -1, -2)
        self._rows = rows

    # ------------------------------------------------------------------
    def restrict(self, fine: np.ndarray) -> np.ndarray:
        """``R v = P^dag v``: fine ``(V_f, ns, nc)`` -> coarse ``(V_c, 2, Nc_hat)``."""
        return self._restrict(fine[None])[0]

    def prolong(self, coarse: np.ndarray) -> np.ndarray:
        """``P v``: coarse ``(V_c, 2, Nc_hat)`` -> fine ``(V_f, ns, nc)``."""
        return self._prolong(coarse[None])[0]

    def restrict_multi(self, fines: np.ndarray) -> np.ndarray:
        """Batched ``R``: ``(K, V_f, ns, nc)`` -> ``(K, V_c, 2, Nc_hat)``.

        Both chiralities and all ``K`` systems go through one stacked
        GEMM ``(V_c, 2, Nc_hat, rows) @ (V_c, 2, rows, K)``, so every
        aggregate basis is read once for the whole batch (Section 9).
        """
        return self._restrict(fines)

    def prolong_multi(self, coarses: np.ndarray) -> np.ndarray:
        """Batched ``P``: ``(K, V_c, 2, Nc_hat)`` -> ``(K, V_f, ns, nc)``."""
        return self._prolong(coarses)

    # the single-system entry points run the batched kernels at K=1;
    # they call these private names so per-entry timing wrappers still
    # book each public call once
    def _restrict(self, fines: np.ndarray) -> np.ndarray:
        k = fines.shape[0]
        vc = self.coarse_lattice.volume
        g = fines[:, self.blocking.agg_sites].reshape(
            k, vc, self.blocking.block_volume, 2, self.fine_ns // 2, self.fine_nc
        )
        # (V_c, 2, rows, K): aggregate rows per coarse site, batch last
        x = g.transpose(1, 3, 2, 4, 5, 0).reshape(vc, 2, self._rows, k)
        return np.ascontiguousarray(np.matmul(self._basis_dag, x).transpose(3, 0, 1, 2))

    def _prolong(self, coarses: np.ndarray) -> np.ndarray:
        k = coarses.shape[0]
        vc = self.coarse_lattice.volume
        nsb = self.fine_ns // 2
        # (V_c, 2, rows, K) = D^T conj(c), conjugated in place to B c
        rows = np.matmul(
            np.swapaxes(self._basis_dag, -1, -2), np.conj(coarses.transpose(1, 2, 3, 0))
        )
        np.conj(rows, out=rows)
        out = np.empty(
            (k, self.fine_lattice.volume, 2, nsb, self.fine_nc), dtype=np.complex128
        )
        out[:, self.blocking.agg_sites] = rows.reshape(
            vc, 2, self.blocking.block_volume, nsb, self.fine_nc, k
        ).transpose(5, 0, 2, 1, 3, 4)
        return out.reshape(k, self.fine_lattice.volume, self.fine_ns, self.fine_nc)

    # -- SpinorField conveniences ----------------------------------------
    def restrict_field(self, v: SpinorField) -> SpinorField:
        return SpinorField(self.coarse_lattice, self.restrict(v.data))

    def prolong_field(self, v: SpinorField) -> SpinorField:
        return SpinorField(self.fine_lattice, self.prolong(v.data))

    # ------------------------------------------------------------------
    def application_cost(self) -> tuple[float, float]:
        """``(flops, bytes)`` of one restrict *or* prolong application.

        Both directions read the same per-aggregate bases and stream the
        fine field once (:class:`repro.gpu.kernels.TransferKernel`, at
        the complex128 precision this implementation actually moves), so
        one cost serves both; telemetry attributes the traced
        ``restrict``/``prolong`` spans with it.
        """
        cached = getattr(self, "_application_cost", None)
        if cached is None:
            precision_bytes = 8.0
            fine_volume = self.fine_lattice.volume
            fine_dof = self.fine_ns * self.fine_nc
            coarse_dof = self.coarse_ns * self.coarse_nc
            basis = fine_volume * fine_dof * coarse_dof / 2
            fine = fine_volume * fine_dof
            cached = (
                fine_volume * fine_dof * coarse_dof * 8.0 / 2,
                (basis + 2 * fine) * 2 * precision_bytes,
            )
            self._application_cost = cached
        return cached

    def application_cost_multi(self, k: int) -> tuple[float, float]:
        """``(flops, bytes)`` of one batched restrict/prolong over ``k`` systems.

        The aggregate bases are read once for the whole batch (they sit
        in the GEMM's left operand); only the fine/coarse field traffic
        scales with ``k``.
        """
        cache = getattr(self, "_application_cost_multi", None)
        if cache is None:
            cache = self._application_cost_multi = {}
        cached = cache.get(k)
        if cached is None:
            precision_bytes = 8.0
            fine_volume = self.fine_lattice.volume
            fine_dof = self.fine_ns * self.fine_nc
            coarse_dof = self.coarse_ns * self.coarse_nc
            basis = fine_volume * fine_dof * coarse_dof / 2
            fine = fine_volume * fine_dof
            cached = cache[k] = (
                k * fine_volume * fine_dof * coarse_dof * 8.0 / 2,
                (basis + k * 2 * fine) * 2 * precision_bytes,
            )
        return cached

    # ------------------------------------------------------------------
    def orthonormality_violation(self) -> float:
        """Max deviation of ``P^dag P`` from the identity (should be ~eps)."""
        d = self._basis_dag
        gram = np.matmul(d, np.conj(np.swapaxes(d, -1, -2)))
        return float(np.abs(gram - np.eye(self.coarse_nc)).max())

    def __repr__(self) -> str:
        return (
            f"Transfer({self.blocking!r}, ns {self.fine_ns}->2, "
            f"nc {self.fine_nc}->{self.coarse_nc})"
        )
