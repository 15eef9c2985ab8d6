"""Domain-decomposed application of a stencil operator.

``PartitionedOperator`` reproduces ``op.apply`` exactly while sourcing
every cross-subdomain neighbour value through the simulated MPI halo
exchange — the same decomposition QUDA runs across GPUs.  On the fine
Wilson-Clover operator the exchanged data are the spin-compressed
half-spinors of its kernel, as in QUDA.  The test suite asserts
bit-level agreement with the single-domain operator, and the traffic
log feeds the strong-scaling machine model.
"""

from __future__ import annotations

import numpy as np

from ..lattice import NDIM, Partition
from ..telemetry.tracer import get_tracer
from .communicator import SimulatedComm
from .halo import HaloExchange


class PartitionedOperator:
    """Apply a stencil operator over a process grid with halo exchange."""

    def __init__(self, op, partition: Partition, comm: SimulatedComm | None = None):
        if partition.global_lattice != op.lattice:
            raise ValueError("partition does not match the operator's lattice")
        self.op = op
        self.partition = partition
        self.halo = HaloExchange(partition, comm)
        self.comm = self.halo.comm
        self.ns = op.ns
        self.nc = op.nc
        self.lattice = op.lattice
        # the fine Wilson-Clover kernel ships spin-compressed half-spinors
        self._half_spinors = hasattr(op, "apply_exchanged")

    def _exchange(self, mu: int, sign: int, field: np.ndarray) -> np.ndarray:
        return self.join(self.halo.gather_neighbors(self.split(field), mu, sign))

    def application_cost(self) -> tuple[float, float]:
        """Delegate ``(flops, bytes)`` to the wrapped single-rank operator;
        the exchanged halo faces book themselves onto their own spans."""
        return self.op.application_cost()

    # ------------------------------------------------------------------
    def split(self, v: np.ndarray) -> np.ndarray:
        """Global field -> per-rank local fields, shape (R, V_local, ns, nc)."""
        return v[self.partition.owned_sites]

    def join(self, locals_: np.ndarray) -> np.ndarray:
        """Per-rank local fields -> global field."""
        out = np.empty(
            (self.lattice.volume,) + locals_.shape[2:], dtype=locals_.dtype
        )
        out[self.partition.owned_sites] = locals_
        return out

    # ------------------------------------------------------------------
    def apply(self, v: np.ndarray) -> np.ndarray:
        """``M v`` with all cross-rank data flowing through halo exchange.

        The enclosing ``comm.partitioned_apply`` span makes the
        interior compute measurable as the parent's *self* time next to
        its ``halo.exchange`` children — the exact split the
        overlap-headroom report (:mod:`repro.obs.forensics.overlap`)
        classifies hideable vs exposed exchange time from.
        """
        with get_tracer().span(
            "comm.partitioned_apply", ranks=self.partition.num_ranks
        ) as sp:
            if self._half_spinors:
                out = self.op.apply_exchanged(v, self._exchange)
            else:
                locals_ = self.split(v)
                out = self.op.apply_diag(v)  # site-local: no communication
                for mu in range(NDIM):
                    for sign in (+1, -1):
                        gathered_locals = self.halo.gather_neighbors(locals_, mu, sign)
                        gathered = self.join(gathered_locals)
                        out += self.op.apply_hop_gathered(mu, sign, gathered)
            flops, nbytes = self.op.application_cost()
            sp.attribute(flops=flops, bytes=nbytes)
        return out

    matvec = apply

    # ------------------------------------------------------------------
    def consistency_violation(self, v: np.ndarray) -> float:
        """Relative deviation of the halo-exchanged apply from ``op.apply``.

        The decomposition is a pure data-movement rewrite, so the two
        paths must agree to roundoff (the test suite asserts bit-level
        equality); this is the probe form the verification registry
        samples.
        """
        ref = self.op.apply(v)
        got = self.apply(v)
        scale = max(np.linalg.norm(ref.ravel()), np.finfo(np.float64).tiny)
        return float(np.linalg.norm((got - ref).ravel()) / scale)

    # ------------------------------------------------------------------
    def exchange_bytes_per_apply(self, itemsize: int = 16) -> int:
        """Analytic bytes sent per full application (both orientations)."""
        dof = (self.ns // 2 if self._half_spinors else self.ns) * self.nc
        total = 0
        for mu in range(NDIM):
            if self.partition.is_partitioned(mu):
                total += (
                    2
                    * self.partition.num_ranks
                    * self.halo.face_bytes(mu, dof, itemsize)
                )
        return total
