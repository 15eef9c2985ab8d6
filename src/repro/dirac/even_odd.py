"""Red-black (even-odd) Schur-complement preconditioning.

The lattice is bipartite and the hopping term connects only opposite
parities, so in the parity-ordered basis

    M = [[A_ee, H_eo],
         [H_oe, A_oo]]

and solving ``M x = b`` reduces to the half-volume Schur system (paper
Section 3.3, [26])

    (A_ee - H_eo A_oo^{-1} H_oe) x_e = b_e - H_eo A_oo^{-1} b_o,
    x_o = A_oo^{-1} (b_o - H_oe x_e).

This wrapper works for *any* :class:`~repro.dirac.stencil.StencilOperator`
— the fine Wilson-Clover matrix and every coarse Galerkin operator —
because the paper applies red-black preconditioning on all levels
(Section 7.1).  On the Wilson-Clover matrix it runs the half-volume
kernel of :class:`~repro.dirac.mrhs.BatchedSchur` at ``K = 1``; other
operators go through zero-padded full-lattice hops.
"""

from __future__ import annotations

import numpy as np

from ..lattice import Lattice
from .mrhs import BatchedSchur, supports_batched_schur
from .stencil import StencilOperator


class SchurOperator:
    """The half-lattice Schur complement of a stencil operator.

    Half-fields have shape ``(V/2, ns, nc)`` with sites ordered as in
    ``lattice.sites_of_parity(parity)``.
    """

    def __init__(self, op: StencilOperator, parity: int = 0):
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        self.op = op
        self.parity = parity
        self.lattice: Lattice = op.lattice
        self.ns = op.ns
        self.nc = op.nc
        self._own = self.lattice.sites_of_parity(parity)
        self._other = self.lattice.sites_of_parity(1 - parity)
        self._batched = (
            BatchedSchur(op, parity) if supports_batched_schur(op) else None
        )

    @property
    def half_volume(self) -> int:
        return self.lattice.half_volume

    # ------------------------------------------------------------------
    # parity restriction / lifting
    # ------------------------------------------------------------------
    def lift(self, half: np.ndarray, parity: int | None = None) -> np.ndarray:
        """Embed a half-field into a zero-padded full-lattice field."""
        sites = self._own if (parity is None or parity == self.parity) else self._other
        full = np.zeros(
            (self.lattice.volume, self.ns, self.nc), dtype=np.complex128
        )
        full[sites] = half
        return full

    def restrict(self, full: np.ndarray, parity: int | None = None) -> np.ndarray:
        """Extract the half-field of a given parity (default: own parity)."""
        sites = self._own if (parity is None or parity == self.parity) else self._other
        return np.ascontiguousarray(full[sites])

    # ------------------------------------------------------------------
    # the Schur matrix
    # ------------------------------------------------------------------
    def apply(self, half: np.ndarray) -> np.ndarray:
        """``(A_pp - H_pq A_qq^{-1} H_qp) x_p`` on half-field data."""
        if self._batched is not None:
            return self._batched.apply_multi(half[None])[0]
        full = self.lift(half)
        hop1 = self.op.apply_hopping(full)  # lives on opposite parity
        mid = self.op.apply_diag_inv(hop1)
        hop2 = self.op.apply_hopping(mid)  # back on own parity
        out = self.op.apply_diag(full) - hop2
        return self.restrict(out)

    matvec = apply

    # ------------------------------------------------------------------
    # source preparation / solution reconstruction
    # ------------------------------------------------------------------
    def prepare_source(self, b_full: np.ndarray) -> np.ndarray:
        """``b_p - H_pq A_qq^{-1} b_q`` — right-hand side of the Schur system."""
        if self._batched is not None:
            return self._batched.prepare_multi(b_full[None])[0]
        b_other = self.lift(self.restrict(b_full, 1 - self.parity), 1 - self.parity)
        corr = self.op.apply_hopping(self.op.apply_diag_inv(b_other))
        return self.restrict(b_full) - self.restrict(corr)

    def reconstruct(self, x_half: np.ndarray, b_full: np.ndarray) -> np.ndarray:
        """Assemble the full-lattice solution from the Schur solution."""
        if self._batched is not None:
            return self._batched.reconstruct_multi(x_half[None], b_full[None])[0]
        x_full = self.lift(x_half)
        hop = self.op.apply_hopping(x_full)  # lives on opposite parity
        rhs_other = self.lift(self.restrict(b_full, 1 - self.parity), 1 - self.parity)
        x_other = self.op.apply_diag_inv(rhs_other - hop)
        return x_full + x_other

    # ------------------------------------------------------------------
    def gamma5_diag(self) -> np.ndarray:
        return self.op.gamma5_diag()

    def to_dense(self) -> np.ndarray:
        """Dense Schur matrix for exhaustive testing on tiny lattices."""
        hv = self.half_volume
        dof = self.ns * self.nc
        n = hv * dof
        basis = np.zeros((hv, self.ns, self.nc), dtype=np.complex128)
        out = np.empty((n, n), dtype=np.complex128)
        flat = basis.reshape(-1)
        for j in range(n):
            flat[j] = 1.0
            out[:, j] = self.apply(basis).reshape(-1)
            flat[j] = 0.0
        return out
