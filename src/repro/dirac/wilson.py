"""The Wilson-Clover Dirac operator (paper Eq 2).

.. math::

    M_{x,x'} = -\\tfrac12 \\sum_\\mu \\left( P^{-\\mu} \\otimes U_\\mu(x)
    \\,\\delta_{x+\\hat\\mu, x'} + P^{+\\mu} \\otimes U^\\dagger_\\mu(x-\\hat\\mu)
    \\,\\delta_{x-\\hat\\mu, x'} \\right) + (4 + m + A_x)\\,\\delta_{x,x'}

acting on spinor data of shape ``(V, 4, 3)``.  The fermion field obeys
antiperiodic boundary conditions in time (standard for thermal field
theory), implemented as a sign on links crossing the time boundary.
"""

from __future__ import annotations

import numpy as np

from ..fields import GaugeField
from ..gauge.su3 import dagger
from ..lattice import NDIM, Lattice
from .clover import CloverTerm
from .gamma import NS, projector_factors, projectors
from .mrhs import (
    N_TERMS,
    BatchedHopSum,
    SiteGather,
    Workspace,
    batch_chunks,
    clover_apply,
)
from .stencil import StencilOperator

TIME_DIR = 3


class WilsonCloverOperator(StencilOperator):
    """Wilson-Clover matrix ``M`` for a gauge field, mass and ``c_sw``.

    ``c_sw = 0`` gives the plain (unimproved) Wilson operator.

    ``anisotropy`` (the bare ``xi = a_s / a_t`` of anisotropic actions
    like the paper's Aniso40 ensemble) down-weights the spatial hopping
    terms by ``1/xi`` relative to the temporal one; the site-local term
    becomes ``(m + 3/xi + 1)`` so the zero-momentum free eigenvalue
    stays ``m``.  ``hop_weights`` overrides the per-direction weights
    directly when given.
    """

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        c_sw: float = 1.0,
        antiperiodic_t: bool = True,
        anisotropy: float = 1.0,
        hop_weights: tuple[float, float, float, float] | None = None,
    ):
        self.lattice: Lattice = gauge.lattice
        self.ns = NS
        self.nc = 3
        self.gauge = gauge
        self.mass = float(mass)
        self.c_sw = float(c_sw)
        self.antiperiodic_t = bool(antiperiodic_t)
        if anisotropy <= 0:
            raise ValueError(f"anisotropy must be > 0, got {anisotropy}")
        if hop_weights is None:
            w = 1.0 / anisotropy
            hop_weights = (w, w, w, 1.0)
        if len(hop_weights) != NDIM or any(w <= 0 for w in hop_weights):
            raise ValueError(f"need {NDIM} positive hop weights, got {hop_weights}")
        self.anisotropy = float(anisotropy)
        self.hop_weights = tuple(float(w) for w in hop_weights)

        lat = self.lattice
        order = lat.parity_order
        # Boundary-phased, hop-weighted links, one per hop term
        # t = 2*mu + (sign < 0): the forward term's U_mu(x) multiplies
        # the neighbour at x+mu, the backward term's U_mu(x-mu)^dag the
        # neighbour at x-mu.  Stored sites-last in parity order (see
        # repro.dirac.mrhs), as are the site-local blocks below.
        links = np.empty((NDIM, 2, lat.volume, 3, 3), dtype=np.complex128)
        for mu in range(NDIM):
            fwd_phase = np.full(lat.volume, self.hop_weights[mu])
            bwd_phase = np.full(lat.volume, self.hop_weights[mu])
            if antiperiodic_t and mu == TIME_DIR:
                fwd_phase[lat.crosses_fwd[mu]] *= -1.0
                bwd_phase[lat.crosses_bwd[mu]] *= -1.0
            links[mu, 0] = gauge.data[mu] * fwd_phase[:, None, None]
            links[mu, 1] = dagger(gauge.data[mu][lat.bwd[mu]]) * bwd_phase[:, None, None]
        self._links = np.ascontiguousarray(
            links.reshape(N_TERMS, lat.volume, 3, 3)[:, order].transpose(0, 2, 3, 1)
        )

        if c_sw != 0.0:
            self.clover = CloverTerm.from_gauge(gauge, c_sw)
        else:
            self.clover = CloverTerm.zero(lat.volume)
        # Site-local term (sum_mu w_mu + m + A) and its inverse, in
        # chiral blocks; the Wilson term's diagonal carries one unit per
        # hop weight so the free zero mode sits exactly at m.
        blocks = self.clover.shifted(sum(self.hop_weights) + self.mass)
        self._diag = np.ascontiguousarray(blocks[order].transpose(1, 2, 3, 0))
        self._diag_inv = np.ascontiguousarray(
            np.linalg.inv(blocks)[order].transpose(1, 2, 3, 0)
        )
        # Rank-2 spin factors of the eight terms, concatenated: (16, 4)
        # compression and (4, 16) reconstruction with the -1/2 folded in.
        m_recon, m_half, p_recon, p_half = projector_factors()
        self._spin_half = np.concatenate(
            [(m_half if s > 0 else p_half)[mu] for mu in range(NDIM) for s in (1, -1)]
        )
        self._spin_recon = -0.5 * np.concatenate(
            [(m_recon if s > 0 else p_recon)[mu] for mu in range(NDIM) for s in (1, -1)],
            axis=1,
        )
        self._workspace = Workspace()
        self._sites = SiteGather(lat.volume, order)
        self._hops = BatchedHopSum(self)

    # ------------------------------------------------------------------
    # the one kernel: every entry point runs the sites-last formulation
    # of repro.dirac.mrhs on a (K, 4, 3, V) parity-ordered stack
    # ------------------------------------------------------------------
    def _run(self, vs: np.ndarray, diag: np.ndarray | None, hops: bool,
             gather=None) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.complex128)
        vol = self.lattice.volume
        out = np.empty(vs.shape, dtype=np.complex128)
        for sl in batch_chunks(vs.shape[0], vol):
            k = sl.stop - sl.start
            x, y, d, t = self._workspace.views(
                ("apply", k, vol),
                tuple((f"apply.{name}", (k, 4, 3, vol)) for name in "xydt"),
            )
            self._sites.to_sites_last(vs[sl], x)
            if hops:
                self._hops._hop(x, out=y, gather=gather)
            if diag is not None:
                clover_apply(diag, x, d, t)
                if hops:
                    np.add(y, d, out=y)
                else:
                    y = d
            self._sites.to_site_major(y, out[sl])
        return out

    def apply_diag(self, v: np.ndarray) -> np.ndarray:
        """Clover/mass site-local term."""
        return self._run(v[None], self._diag, hops=False)[0]

    def apply_diag_inv(self, v: np.ndarray) -> np.ndarray:
        return self._run(v[None], self._diag_inv, hops=False)[0]

    def apply_hopping(self, v: np.ndarray) -> np.ndarray:
        """Sum of all eight hop terms."""
        return self._run(v[None], None, hops=True)[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Full application ``M v``."""
        return self._run(v[None], self._diag, hops=True)[0]

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        """Batched application to ``(K, V, 4, 3)``: the links and site
        blocks are read once for all ``K`` systems (paper Section 9)."""
        return self._run(vs, self._diag, hops=True)

    def apply_exchanged(self, v: np.ndarray, exchange) -> np.ndarray:
        """``M v`` with every hop term's neighbours moved by ``exchange``.

        ``exchange(mu, sign, half)`` receives one term's spin-compressed
        source, site-major ``(V, 2, 3)`` — the half-spinor QUDA ships in
        its halo — and returns it read at ``x + sign*mu_hat`` for every
        site ``x``.  Pure data movement leaves the result bitwise equal
        to :meth:`apply`; :class:`~repro.comm.PartitionedOperator`
        routes the movement through its halo exchange.
        """
        lat = self.lattice
        order, position = lat.parity_order, lat.parity_position

        def gather(compressed: np.ndarray, g: np.ndarray) -> None:
            terms = compressed.reshape(N_TERMS, 2, 3, lat.volume)
            for t in range(N_TERMS):
                half = terms[t][..., position].transpose(2, 0, 1)
                moved = exchange(t // 2, 1 if t % 2 == 0 else -1, half)
                g[0, t] = moved[order].transpose(1, 2, 0)

        return self._run(v[None], self._diag, hops=True, gather=gather)[0]

    # ------------------------------------------------------------------
    def direction_links(self, mu: int, sign: int) -> np.ndarray:
        """Links of one hop term, site-major ``(V, 3, 3)``, built on demand.

        The boundary-phased, hop-weighted matrices ``apply_hop_gathered``
        multiplies: ``U_mu(x)`` for ``sign > 0``, ``U_mu(x-mu)^dag`` for
        ``sign < 0``.  For the cold per-direction paths (halo exchange,
        Schwarz domains, Galerkin coarsening, spin projection).
        """
        t = 2 * mu + (sign < 0)
        links = self._links[t][..., self.lattice.parity_position]
        return np.ascontiguousarray(links.transpose(2, 0, 1))

    def apply_hop_gathered(self, mu: int, sign: int, nbr: np.ndarray) -> np.ndarray:
        """Signed hop ``-(1/2) P^{∓mu} U nbr`` with pre-gathered neighbours."""
        links = self.direction_links(mu, sign)
        proj = projectors()[0 if sign > 0 else 1][mu]
        colored = np.matmul(links[:, None, :, :], nbr[..., None])[..., 0]
        return -0.5 * np.tensordot(colored, proj, axes=([1], [1])).transpose(0, 2, 1)

    # ------------------------------------------------------------------
    def flops_per_site(self) -> float:
        """QUDA's standard Wilson-Clover flop count: 1824 + clover.

        Wilson dslash is 1320 flops/site; the clover multiply adds
        2 * (8 * 36 - 12) complex-block flops = 504, and the mass term
        is folded into the clover diagonal.
        """
        return 1824.0 if self.c_sw != 0.0 else 1368.0

    def bytes_per_site(self, precision_bytes: float = 8.0) -> float:
        """Wilson-Clover traffic model (no gauge-link reconstruction here:
        the NumPy implementation stores all 18 reals per link; spinor
        neighbour reuse matches :class:`repro.gpu.kernels.WilsonCloverDslashKernel`)."""
        matrices, vectors = self.bytes_per_site_split(precision_bytes)
        return matrices + vectors

    def bytes_per_site_split(
        self, precision_bytes: float = 8.0
    ) -> tuple[float, float]:
        """Traffic split: gauge+clover matrices vs spinor vectors.

        The matrix half is what a batched multi-RHS application reads
        once for the whole batch (Section 9); the vector half scales
        with the number of right-hand sides.
        """
        p = precision_bytes
        gauge = 8 * 18 * p
        spinor_reuse = 0.5
        spinor_in = (1 + 8 * (1.0 - spinor_reuse)) * 24 * p
        spinor_out = 24 * p
        clover = 72 * p if self.c_sw != 0.0 else 0.0
        return gauge + clover, spinor_in + spinor_out
