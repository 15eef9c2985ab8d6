"""The fine-grid Wilson-Clover kernel: one sites-last formulation for every batch size.

Paper Section 9 argues the multiple-right-hand-side reformulation pays
because "the same stencil operator is used for all systems", and the
paper's speedup comes from exposing all of a stencil's parallelism:
sites x spin/colour x direction.  This module is the one fine-grid
kernel; :class:`~repro.dirac.wilson.WilsonCloverOperator` runs its
``apply``/``apply_multi``/hop sum/diagonal through it, and the red-black
(Schur) system runs on genuine half-volume fields through it, at every
batch size ``K`` including ``K = 1``.

Layout.  The operator stores its boundary-phased, hop-weighted links as
``(8, 3, 3, V)`` and its clover+mass blocks and their inverses as
``(2, 6, 6, V)`` (chirality, row, column, site): sites last, in parity
order (every even site, then every odd one; ``Lattice.parity_order``).
A parity's half of the store is a contiguous slice of the site axis, so
the half-volume engines take views, not copies.  Spinor stacks are
carried as ``(K, 4, 3, V)``, so every elementwise operation runs over a
long contiguous ``(K, V)`` tail:

1. the source is spin-compressed for all eight hop terms at once through
   the concatenated rank-2 half-projectors — one ``(16, 4)`` GEMM;
2. the compressed neighbours of every term are gathered with one flat
   ``take`` per system against a precomputed index table;
3. the 3x3 link products (and the 6x6 clover products) are unrolled
   broadcast multiply-adds over the site axis;
4. reconstruction *and* the sum over the eight terms are one ``(4, 16)``
   GEMM against the concatenated reconstruction factors (the global
   ``-1/2`` folded in).

Every intermediate is written with ``out=`` into per-thread workspaces
(:class:`Workspace`); arrays returned by the public entry points are
always fresh.  Large batches run in chunks of at most
:data:`SITES_PER_PASS` site-systems (:func:`batch_chunks`), which keeps
the per-system cost flat in ``K`` and bounds the workspaces.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..lattice import NDIM

N_TERMS = 2 * NDIM  # hop terms: term 2*mu + (sign < 0)


#: site-systems per pass: a batch is run in chunks of at most this many
#: sites x systems, so each pass's arrays stay near the size of a core's
#: L2 cache (past it the per-system cost of a pass grew by up to ~1.5x)
SITES_PER_PASS = 4096


def batch_chunks(k: int, n_sites: int) -> list[slice]:
    """Slices of a ``K`` batch, each one pass of the kernel over ``n_sites``."""
    step = max(1, SITES_PER_PASS // n_sites)
    return [slice(lo, min(lo + step, k)) for lo in range(0, k, step)]


class Workspace(threading.local):
    """Scratch buffers of the calling thread, reused across calls.

    Each named buffer is one flat complex array grown to the largest
    request seen; a call carves views of the shapes it needs from it,
    cached under a key naming those shapes (the batch size ``K`` among
    them), so repeated calls at one ``K`` allocate nothing.  One
    instance serves every thread and each thread sees only its own
    buffers: concurrent calls never share scratch.  Never return a view
    of these buffers to a caller.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}
        self._views: dict[tuple, tuple[np.ndarray, ...]] = {}

    def views(self, key: tuple, specs) -> tuple[np.ndarray, ...]:
        """Views ``(name, shape)`` for each spec; ``key`` must determine ``specs``."""
        cached = self._views.get(key)
        if cached is None:
            out = []
            for name, shape in specs:
                n = math.prod(shape)
                buf = self._flat.get(name)
                if buf is None or buf.size < n:
                    buf = self._flat[name] = np.empty(n, dtype=np.complex128)
                    self._views.clear()  # drop views of the outgrown buffer
                out.append(buf[:n].reshape(shape))
            cached = self._views[key] = tuple(out)
        return cached


def clover_apply(blocks: np.ndarray, x: np.ndarray, out: np.ndarray,
                 tmp: np.ndarray) -> np.ndarray:
    """Chiral 6x6 blocks ``(2, 6, 6, V)`` times a ``(K, 4, 3, V)`` stack, into ``out``.

    Spin-major, colour-minor flattening of each chirality's 2x3
    components; six broadcast multiply-adds over the ``(K, V)`` tail.
    """
    k, v = x.shape[0], x.shape[-1]
    x6 = x.reshape(k, 2, 6, v)
    o6 = out.reshape(k, 2, 6, v)
    t6 = tmp.reshape(k, 2, 6, v)
    np.multiply(blocks[:, :, 0], x6[:, :, None, 0], out=o6)
    for j in range(1, 6):
        np.multiply(blocks[:, :, j], x6[:, :, None, j], out=t6)
        np.add(o6, t6, out=o6)
    return out


class SiteGather:
    """Moves ``(K, V, 4, 3)`` site-major stacks to and from sites-last form.

    ``sites`` lists the lattice sites, in the order of the sites-last
    axis.  Both directions are one flat ``take`` per system.
    """

    def __init__(self, volume: int, sites: np.ndarray):
        comp = np.arange(12)
        n = len(sites)
        self.n = n
        # sites-last (j, i) <- site-major (sites[i], j)
        self._in = (sites[None, :] * 12 + comp[:, None]).reshape(-1)
        # site-major (s, j) <- sites-last (j, position of s), full lattice only
        self._out = None
        if n == volume:
            pos = np.empty(volume, dtype=np.int64)
            pos[sites] = np.arange(volume)
            self._out = (pos[:, None] + comp[None, :] * n).reshape(-1)

    def to_sites_last(self, vs: np.ndarray, out: np.ndarray) -> np.ndarray:
        k = vs.shape[0]
        src = vs.reshape(k, -1)
        dst = out.reshape(k, -1)
        for i in range(k):
            np.take(src[i], self._in, out=dst[i], mode="clip")
        return out

    def to_site_major(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A full-lattice sites-last stack into the site-major ``out``."""
        k = x.shape[0]
        src = x.reshape(k, -1)
        dst = out.reshape(k, -1)
        for i in range(k):
            np.take(src[i], self._out, out=dst[i], mode="clip")
        return out

    def scatter(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write a sites-last stack into the ``sites`` of a site-major stack."""
        k = x.shape[0]
        dst = out.reshape(k, -1)
        src = x.reshape(k, -1)
        for i in range(k):
            dst[i, self._in] = src[i]


def _transpose_in(halves: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(K, n, 4, 3)`` site-major -> ``(K, 4, 3, n)`` sites-last, into ``out``."""
    np.copyto(out, halves.transpose(0, 2, 3, 1))
    return out


def _transpose_out(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(K, 4, 3, n)`` sites-last -> ``(K, n, 4, 3)`` site-major, into ``out``."""
    np.copyto(out.transpose(0, 2, 3, 1), x)
    return out


class BatchedHopSum:
    """The eight-term hop sum ``-(1/2) sum_{mu,s} P^{∓mu} U src(nbr)`` for ``K`` systems.

    ``out_sites``/``src_sites`` are the lattice sites of the output and
    source site axes, in that order; ``None`` means the whole lattice in
    parity order.  ``out_sites`` must be a contiguous run of the parity
    order (one parity, or everything), so the links are a view of the
    operator's store.
    """

    def __init__(self, op, out_sites: np.ndarray | None = None,
                 src_sites: np.ndarray | None = None):
        lat = op.lattice
        order = lat.parity_order
        out_sites = order if out_sites is None else np.asarray(out_sites)
        src_sites = order if src_sites is None else np.asarray(src_sites)
        out_pos = lat.parity_position[out_sites]
        lo, n = int(out_pos[0]), len(out_pos)
        if not np.array_equal(out_pos, np.arange(lo, lo + n)):
            raise ValueError("out_sites must be a contiguous run of the parity order")
        self._links = op._links[..., lo:lo + n]
        src_index = np.full(lat.volume, -1, dtype=np.int64)
        src_index[src_sites] = np.arange(len(src_sites))
        tables = [
            (lat.fwd if sign > 0 else lat.bwd)[mu] for mu in range(NDIM) for sign in (1, -1)
        ]
        nbr = np.stack([src_index[table[out_sites]] for table in tables])
        if (nbr < 0).any():
            raise ValueError("every neighbour of out_sites must be in src_sites")
        self._vs, self._vo = len(src_sites), n
        # flat index of (term, spin-half x colour, site) in the (16, 3*Vs) compressed source
        rows = (np.arange(N_TERMS)[:, None] * 6 + np.arange(6)[None, :]) * self._vs
        self._gather = (rows[:, :, None] + nbr[:, None, :]).reshape(-1)
        self._half = op._spin_half
        self._recon = op._spin_recon
        self._ws = op._workspace

    def apply(self, src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sites-last ``(K, 4, 3, Vs)`` -> ``(K, 4, 3, Vo)``; a fresh array unless ``out``."""
        return self._hop(src, out)

    def _hop(self, src: np.ndarray, out: np.ndarray | None = None,
             gather=None) -> np.ndarray:
        """The hop sum; ``gather(compressed, g)``, when given, fills the
        ``(K, 8, 2, 3, Vo)`` neighbour block ``g`` from the ``(K, 16, 3*Vs)``
        compressed source in place of the local ``take``."""
        k = src.shape[0]
        vs, vo = self._vs, self._vo
        h, g, t = self._ws.views(
            ("hop", k, vs, vo),
            (("hop.h", (k * 48 * max(vs, vo),)),
             ("hop.g", (k, N_TERMS, 2, 3, vo)),
             ("hop.t", (k, N_TERMS, 2, 3, vo))),
        )
        compressed = h[: k * 48 * vs].reshape(k, 16, 3 * vs)
        np.matmul(self._half, src.reshape(k, 4, 3 * vs), out=compressed)
        if gather is not None:
            gather(compressed, g)
        else:
            hf, gf = compressed.reshape(k, -1), g.reshape(k, -1)
            for i in range(k):
                np.take(hf[i], self._gather, out=gf[i], mode="clip")
        # colour: col[k, t, s, a] = sum_b U[t, a, b] g[k, t, s, b] (h is free again)
        col = h[: k * 48 * vo].reshape(k, N_TERMS, 2, 3, vo)
        u = self._links[:, None]
        np.multiply(u[:, :, :, 0], g[:, :, :, None, 0], out=col)
        for b in (1, 2):
            np.multiply(u[:, :, :, b], g[:, :, :, None, b], out=t)
            np.add(col, t, out=col)
        if out is None:
            out = np.empty((k, 4, 3, vo), dtype=np.complex128)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        np.matmul(self._recon, col.reshape(k, 16, 3 * vo), out=out.reshape(k, 4, 3 * vo))
        return out


def supports_batched_schur(op) -> bool:
    """Whether ``op`` carries the sites-last Wilson-Clover store."""
    return (
        getattr(op, "_links", None) is not None
        and getattr(op, "_diag", None) is not None
        and op.ns == 4
        and op.nc == 3
    )


class BatchedSchur:
    """Red-black Schur system of a Wilson-Clover operator on half-volume fields.

    ``apply_multi`` evaluates ``(A_pp - H_pq A_qq^{-1} H_qp) x_p`` for a
    ``(K, V/2, 4, 3)`` stack of parity-``p`` fields (sites in
    ``lattice.sites_of_parity(p)`` order) without forming zero-padded
    full-lattice fields; ``K = 1`` is the sequential
    :class:`~repro.dirac.even_odd.SchurOperator`.  The site blocks are
    views of the operator's store.
    """

    def __init__(self, op, parity: int = 0):
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        lat = op.lattice
        self.op = op
        self.parity = parity
        own, other = lat.sites_of_parity(parity), lat.sites_of_parity(1 - parity)
        self._own, self._other = own, other
        self._vh = vh = len(own)
        own_slice = slice(parity * vh, (parity + 1) * vh)
        other_slice = slice((1 - parity) * vh, (2 - parity) * vh)
        self._hop_to_other = BatchedHopSum(op, out_sites=other, src_sites=own)
        self._hop_to_own = BatchedHopSum(op, out_sites=own, src_sites=other)
        self._diag_own = op._diag[..., own_slice]
        self._dinv_other = op._diag_inv[..., other_slice]
        self._other_sites = SiteGather(lat.volume, other)
        self._ws = op._workspace

    def _buffers(self, k: int):
        shape = (k, 4, 3, self._vh)
        return self._ws.views(
            ("schur", k, self._vh),
            tuple((f"schur.{name}", shape) for name in "xabdt"),
        )

    def apply_multi(self, halves: np.ndarray) -> np.ndarray:
        halves = np.asarray(halves, dtype=np.complex128)
        out = np.empty(halves.shape, dtype=np.complex128)
        for sl in batch_chunks(len(halves), self._vh):
            x, a, b, d, t = self._buffers(sl.stop - sl.start)
            _transpose_in(halves[sl], x)
            self._hop_to_other.apply(x, out=a)
            clover_apply(self._dinv_other, a, b, t)
            self._hop_to_own.apply(b, out=a)
            clover_apply(self._diag_own, x, d, t)
            np.subtract(d, a, out=d)
            _transpose_out(d, out[sl])
        return out

    def prepare_multi(self, bs: np.ndarray) -> np.ndarray:
        """Schur right-hand sides ``b_p - H_pq A_qq^{-1} b_q`` for a stack."""
        bs = np.asarray(bs, dtype=np.complex128)
        out = np.take(bs, self._own, axis=1)
        for sl in batch_chunks(len(bs), self._vh):
            x, a, b, _, t = self._buffers(sl.stop - sl.start)
            self._other_sites.to_sites_last(bs[sl], x)
            clover_apply(self._dinv_other, x, b, t)
            self._hop_to_own.apply(b, out=a)
            own = out[sl].transpose(0, 2, 3, 1)
            np.subtract(own, a, out=own)
        return out

    def reconstruct_multi(self, xs_half: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Full-lattice solutions ``x_q = A_qq^{-1}(b_q - H_qp x_p)``."""
        xs_half = np.asarray(xs_half, dtype=np.complex128)
        bs = np.asarray(bs, dtype=np.complex128)
        out = np.empty(bs.shape, dtype=np.complex128)
        out[:, self._own] = xs_half
        for sl in batch_chunks(len(bs), self._vh):
            x, a, b, d, t = self._buffers(sl.stop - sl.start)
            _transpose_in(xs_half[sl], x)
            self._hop_to_other.apply(x, out=a)
            self._other_sites.to_sites_last(bs[sl], b)
            np.subtract(b, a, out=b)
            clover_apply(self._dinv_other, b, d, t)
            self._other_sites.scatter(d, out[sl])
        return out


def supports_dense_block_schur(op) -> bool:
    """Whether ``op`` is a dense-block nearest-neighbour operator
    (:class:`~repro.coarse.coarse_op.CoarseOperator`-shaped) the batched
    coarse Schur kernels can drive directly."""
    return hasattr(op, "x_blocks") and hasattr(op, "hop_blocks")


class _DenseBlockHop:
    """Eight-direction dense-block hop sum restricted to parity subsets.

    The coarse-grid analogue of :class:`BatchedHopSum`: there is no spin
    projector structure to exploit, so the whole ``(N, N)`` link block is
    applied per direction — but the batch still folds into the GEMM's
    right-hand side, so every link matrix is read once for all ``K``
    systems (``(8, Vo, N, N) @ (8, Vo, N, K)`` stacked GEMMs).
    """

    def __init__(self, op, out_sites: np.ndarray, src_sites: np.ndarray):
        lat = op.lattice
        posmap = np.empty(lat.volume, dtype=np.int64)
        posmap[src_sites] = np.arange(len(src_sites))
        links, idx = [], []
        for mu in range(NDIM):
            for d, table in ((0, lat.fwd[mu]), (1, lat.bwd[mu])):
                links.append(op.hop_blocks[mu, d][out_sites])
                idx.append(posmap[table[out_sites]])
        self._links = np.ascontiguousarray(np.stack(links))  # (8, Vo, N, N)
        self._idx = np.stack(idx)                            # (8, Vo)
        self._vo = self._links.shape[1]

    def apply(self, src: np.ndarray) -> np.ndarray:
        """``sum_{mu,s} Y src(nbr)``: (K, Vs, ns, nc) -> (K, Vo, ns, nc)."""
        k, vs = src.shape[0], src.shape[1]
        ns, nc = src.shape[2], src.shape[3]
        flat = src.reshape(k, vs, ns * nc).transpose(1, 2, 0)  # (Vs, N, K)
        g = flat[self._idx]                                    # (8, Vo, N, K)
        col = np.matmul(self._links, g)                        # (8, Vo, N, K)
        out = col.sum(axis=0)                                  # (Vo, N, K)
        return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(
            k, self._vo, ns, nc
        )


def _dense_blocks_apply_multi(mats: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Apply per-site ``(N, N)`` blocks to ``(K, V, ns, nc)`` data, batch last."""
    k, vol = vs.shape[0], vs.shape[1]
    flat = vs.reshape(k, vol, -1).transpose(1, 2, 0)
    out = np.matmul(mats, flat)
    return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(vs.shape)


class BatchedCoarseSchur:
    """Batched red-black Schur for dense-block (coarse) operators.

    Mirrors :class:`BatchedSchur` one level down: ``apply_multi``
    evaluates ``(X_ee - Y_eo X_oo^{-1} Y_oe) x_e`` on genuine
    half-volume ``(K, V/2, ns, nc)`` stacks, with every dense link and
    site block read once per application for all ``K`` systems.
    """

    def __init__(self, op):
        self.op = op
        lat = op.lattice
        own, other = lat.sites_of_parity(0), lat.sites_of_parity(1)
        self._own = own
        self._other = other
        self._hop_to_other = _DenseBlockHop(op, out_sites=other, src_sites=own)
        self._hop_to_own = _DenseBlockHop(op, out_sites=own, src_sites=other)
        x_inv = op._x_inv  # noqa: SLF001 — cached once on the operator
        self._diag_own = np.ascontiguousarray(op.x_blocks[own])
        self._dinv_other = np.ascontiguousarray(x_inv[other])

    def apply_multi(self, halves: np.ndarray) -> np.ndarray:
        hop1 = self._hop_to_other.apply(halves)
        mid = _dense_blocks_apply_multi(self._dinv_other, hop1)
        hop2 = self._hop_to_own.apply(mid)
        return _dense_blocks_apply_multi(self._diag_own, halves) - hop2

    def prepare_multi(self, bs: np.ndarray) -> np.ndarray:
        """Schur right-hand sides ``b_e - Y_eo X_oo^{-1} b_o`` for a stack."""
        b_other = np.ascontiguousarray(bs[:, self._other])
        corr = self._hop_to_own.apply(
            _dense_blocks_apply_multi(self._dinv_other, b_other)
        )
        return bs[:, self._own] - corr

    def reconstruct_multi(self, xs_half: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Full-lattice solutions ``x_o = X_oo^{-1}(b_o - Y_oe x_e)``."""
        hop = self._hop_to_other.apply(xs_half)
        b_other = np.ascontiguousarray(bs[:, self._other])
        x_other = _dense_blocks_apply_multi(self._dinv_other, b_other - hop)
        out = np.empty_like(bs)
        out[:, self._own] = xs_half
        out[:, self._other] = x_other
        return out


class GenericBatchedSchur:
    """Fallback batched Schur for stencil operators without Wilson internals.

    Loops per system through the zero-padded full-lattice path of
    :class:`~repro.dirac.even_odd.SchurOperator`; correct for any
    :class:`~repro.dirac.stencil.StencilOperator`, just not batched in
    the kernels.
    """

    def __init__(self, op):
        from .even_odd import SchurOperator

        self.op = op
        self.schur = SchurOperator(op, parity=0)

    def apply_multi(self, halves: np.ndarray) -> np.ndarray:
        return np.stack([self.schur.apply(h) for h in halves])

    def prepare_multi(self, bs: np.ndarray) -> np.ndarray:
        return np.stack([self.schur.prepare_source(b) for b in bs])

    def reconstruct_multi(self, xs_half: np.ndarray, bs: np.ndarray) -> np.ndarray:
        return np.stack(
            [self.schur.reconstruct(x, b) for x, b in zip(xs_half, bs)]
        )


def batched_schur_for(op):
    """The fastest batched Schur wrapper ``op`` supports."""
    if supports_batched_schur(op):
        return BatchedSchur(op)
    if supports_dense_block_schur(op):
        return BatchedCoarseSchur(op)
    return GenericBatchedSchur(op)
