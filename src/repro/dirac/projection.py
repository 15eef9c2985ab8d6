"""Spin projection: the rank-2 structure of the Wilson hop factors.

The factors ``P^{∓mu} = 1 ∓ gamma_mu`` have rank 2, so the projected
spinor ``P^{∓mu} v`` carries only two independent spin components.
QUDA exploits this twice: the halo exchange ships half-spinors (half
the bytes, modeled by ``projected=True`` in the machine model), and the
interior kernel multiplies the gauge link against two spin components
instead of four before reconstructing.

This module implements the actual compress/reconstruct pair for the
DeGrand-Rossi basis and a hop evaluation routed through it, which the
test suite checks against the direct implementation to machine
precision.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..lattice import NDIM
from .gamma import NS, projectors


@cache
def _projection_bases() -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal column bases of the projector factors.

    Returns arrays ``(minus, plus)`` of shape (4, 4, 2): ``basis[mu]``
    spans the range of ``P^{∓mu}``, so ``P = B (B^dag P)`` and the
    projected spinor is fully described by the two coefficients
    ``B^dag v``.
    """
    minus_p, plus_p = projectors()
    out = []
    for mats in (minus_p, plus_p):
        basis = np.empty((NDIM, NS, 2), dtype=np.complex128)
        for mu in range(NDIM):
            # SVD of the rank-2 projector factor: first two left vectors
            u, s, _ = np.linalg.svd(mats[mu])
            assert s[1] > 1e-12 and s[2] < 1e-12
            basis[mu] = u[:, :2]
        out.append(basis)
    minus, plus = out
    minus.setflags(write=False)
    plus.setflags(write=False)
    return minus, plus


def project(mu: int, sign: int, v: np.ndarray) -> np.ndarray:
    """Compress ``P^{∓mu} v`` to its two independent spin components.

    ``v`` has shape ``(V, 4, nc)``; the result ``(V, 2, nc)`` — this is
    the half-spinor QUDA packs into halo buffers.
    """
    minus_b, plus_b = _projection_bases()
    basis = minus_b[mu] if sign > 0 else plus_b[mu]
    minus_p, plus_p = projectors()
    proj = minus_p[mu] if sign > 0 else plus_p[mu]
    coeff = np.einsum("st,xtc->xsc", basis.conj().T @ proj, v)
    return coeff


def reconstruct(mu: int, sign: int, half: np.ndarray) -> np.ndarray:
    """Expand a half-spinor back to the full projected spinor.

    Inverse of :func:`project` in the sense
    ``reconstruct(project(v)) == P^{∓mu} v``.
    """
    minus_b, plus_b = _projection_bases()
    basis = minus_b[mu] if sign > 0 else plus_b[mu]
    return np.einsum("st,xtc->xsc", basis, half)


def projected_hop(op, mu: int, sign: int, v: np.ndarray) -> np.ndarray:
    """The Wilson hop evaluated through the projected (half-spinor) path.

    Equivalent to ``op.apply_hop(mu, sign, v)`` but performing the
    gauge-link multiplication on two spin components only — the
    arithmetic the GPU kernel does, and the payload the halo carries.
    """
    lat = op.lattice
    table = lat.fwd[mu] if sign > 0 else lat.bwd[mu]
    half = project(mu, sign, v)[table]  # gather the projected neighbour
    links = op.direction_links(mu, sign)
    colored = np.einsum("xab,xsb->xsa", links, half)
    return -0.5 * reconstruct(mu, sign, colored)


def halo_payload_ratio() -> float:
    """Bytes shipped with projection relative to a full spinor (= 1/2)."""
    return 2 / NS
