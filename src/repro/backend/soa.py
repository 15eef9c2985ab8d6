"""Packed even/odd structure-of-arrays (SoA) backend.

The paper's fine-grained parallelization argument (Figure 2, Section 5)
is that the *layout* of the site data decides whether the hardware's
parallelism is reachable: QUDA stores spinors so that consecutive
threads touch consecutive words, and Grid (arXiv:1904.08678) reaches
the same conclusion with SIMD-friendly SoA layouts.  This backend is
the CPU image of that idea:

* fields are packed into two contiguous half-volume parity planes
  (``(2, V/2, ns, nc)``) ordered by ``lattice.sites_of_parity`` — the
  even/odd structure red-black preconditioning wants is the storage
  order, not an index computation;
* every hop term maps one parity plane onto the other, so the hop sum
  becomes two dense parity-to-parity sweeps with *no* zero-padded
  full-lattice intermediates;
* on the fine grid the packed-plane API drives the parity halves of
  the operator's own sites-last kernel (:mod:`repro.dirac.mrhs`), whose
  store is already parity-ordered;
* on coarse grids the parity sweeps are the dense-block stacked GEMMs
  of :class:`repro.dirac.mrhs._DenseBlockHop`.

Packing is a pure permutation, so ``unpack(pack(v)) == v`` bitwise and
the packed application commutes with unpacking to rounding error — the
properties ``tests/test_backend_layout.py`` pins down.

Aggregation transfers are layout-agnostic at this granularity (they
gather whole hypercubic blocks, not parity planes) and stay on the
baseline formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ArrayBackend
from .einsum_backend import _has_dense_blocks


def parity_sites(lattice) -> tuple[np.ndarray, np.ndarray]:
    """The (even, odd) site index arrays of a lattice."""
    return lattice.sites_of_parity(0), lattice.sites_of_parity(1)


@dataclass(frozen=True)
class PackedParityField:
    """A field stored as two contiguous parity planes.

    ``planes[p]`` holds the sites of parity ``p`` in
    ``lattice.sites_of_parity(p)`` order, shape ``(2, V/2, ns, nc)``.
    """

    lattice: object
    planes: np.ndarray

    @property
    def even(self) -> np.ndarray:
        return self.planes[0]

    @property
    def odd(self) -> np.ndarray:
        return self.planes[1]


def pack_parity(lattice, v: np.ndarray) -> PackedParityField:
    """Site-major ``(V, ns, nc)`` -> packed ``(2, V/2, ns, nc)`` parity planes."""
    even, odd = parity_sites(lattice)
    planes = np.stack([v[even], v[odd]])
    return PackedParityField(lattice=lattice, planes=planes)


def unpack_parity(packed: PackedParityField) -> np.ndarray:
    """Exact inverse of :func:`pack_parity` (a pure permutation)."""
    even, odd = parity_sites(packed.lattice)
    vol = len(even) + len(odd)
    out = np.empty((vol,) + packed.planes.shape[2:], dtype=packed.planes.dtype)
    out[even] = packed.planes[0]
    out[odd] = packed.planes[1]
    return out


def _site_major(fn):
    """Adapt a sites-last ``(K, 4, 3, V/2)`` Wilson kernel to site-major planes."""

    def apply(vs: np.ndarray) -> np.ndarray:
        out = fn(np.ascontiguousarray(vs.transpose(0, 2, 3, 1)))
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))

    return apply


class _ParityKernels:
    """Per-operator packed state: parity site tables and, for each
    parity, the hop sweep landing on it and its site-local term.  A
    Wilson-Clover operator lends the parity halves of its sites-last
    store (no copies); dense-block operators are parity-gathered once."""

    def __init__(self, op):
        from ..dirac.mrhs import (
            BatchedHopSum,
            _dense_blocks_apply_multi,
            _DenseBlockHop,
            clover_apply,
            supports_batched_schur,
        )

        even, odd = self.even, self.odd = parity_sites(op.lattice)
        if supports_batched_schur(op):
            self.kind = "wilson"
            vh = len(even)
            self.hop = tuple(
                _site_major(BatchedHopSum(op, out_sites=o, src_sites=s).apply)
                for o, s in ((even, odd), (odd, even))
            )
            self.diag = tuple(
                _site_major(
                    lambda x, b=b: clover_apply(b, x, np.empty_like(x), np.empty_like(x))
                )
                for b in (op._diag[..., :vh], op._diag[..., vh:])
            )
        elif _has_dense_blocks(op):
            self.kind = "dense"
            self.hop = tuple(
                _DenseBlockHop(op, out_sites=o, src_sites=s).apply
                for o, s in ((even, odd), (odd, even))
            )
            self.diag = tuple(
                lambda vs, m=np.ascontiguousarray(op.x_blocks[sites]):
                    _dense_blocks_apply_multi(m, vs)
                for sites in (even, odd)
            )
        else:
            self.kind = "generic"


class SoABackend(ArrayBackend):
    """Packed even/odd SoA layout with parity-to-parity hop sweeps."""

    name = "soa"
    description = (
        "packed even/odd SoA layout: contiguous half-volume parity planes, "
        "half-spinor parity-to-parity hop sweeps, no zero-padded intermediates"
    )

    # ------------------------------------------------------------------
    def pack(self, op, v: np.ndarray) -> PackedParityField:
        return pack_parity(op.lattice, v)

    def unpack(self, op, packed: PackedParityField) -> np.ndarray:
        return unpack_parity(packed)

    def _kernels(self, op) -> _ParityKernels:
        return self.op_cache(op, "parity_kernels", lambda: _ParityKernels(op))

    # ------------------------------------------------------------------
    # packed-plane applications (the layout-native code path)
    # ------------------------------------------------------------------
    def apply_packed_multi(self, op, planes: np.ndarray) -> np.ndarray:
        """Full ``M`` on packed data: ``(2, K, V/2, ns, nc)`` in and out.

        ``out_e = D_e v_e + H_eo v_o`` and ``out_o = D_o v_o + H_oe v_e``
        — each hop sweep reads one contiguous parity plane and writes
        the other, with the site-local term applied in place.
        """
        kern = self._kernels(op)
        ve, vo = planes[0], planes[1]
        out_e = kern.diag[0](ve) + kern.hop[0](vo)
        out_o = kern.diag[1](vo) + kern.hop[1](ve)
        return np.stack([out_e, out_o])

    def hop_sum_packed_multi(self, op, planes: np.ndarray) -> np.ndarray:
        """Hop-only parity sweeps on packed ``(2, K, V/2, ns, nc)`` data."""
        kern = self._kernels(op)
        return np.stack([kern.hop[0](planes[1]), kern.hop[1](planes[0])])

    # ------------------------------------------------------------------
    # canonical-layout API: pack, sweep, unpack
    # ------------------------------------------------------------------
    def _apply_via_planes(self, op, vs: np.ndarray) -> np.ndarray:
        kern = self._kernels(op)
        planes = np.stack([vs[:, kern.even], vs[:, kern.odd]])
        out_planes = self.apply_packed_multi(op, planes)
        out = np.empty_like(vs)
        out[:, kern.even] = out_planes[0]
        out[:, kern.odd] = out_planes[1]
        return out

    # Single-vector entry points stay on the site-major reference: a
    # lone K=1 application round-trips through the pack permutation
    # without a batch to amortize it (measured ~1.6x slower on the
    # quick-bench lattice).  The packed layout pays where the paper's
    # Section 9 says it does — the *_multi entry points and the
    # packed-plane API above, where the parity planes are the storage
    # format rather than a per-call conversion.  The fine Wilson-Clover
    # operator does not dispatch here: its own kernel is parity-ordered
    # already, and the packed-plane API above drives it directly.
    def coarse_apply_multi(self, op, vs: np.ndarray) -> np.ndarray:
        if self._kernels(op).kind != "dense":
            return super().coarse_apply_multi(op, vs)
        return self._apply_via_planes(op, vs)
