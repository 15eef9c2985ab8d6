"""Four-dimensional lattice geometry.

Site indexing follows the convention of the paper's Listing 2: the
lexicographic index runs with the x (mu=0) coordinate fastest and the
t (mu=3) coordinate slowest,

    idx = x + X*(y + Y*(z + Z*t)).

All index maps are precomputed as NumPy arrays so that stencil
applications are pure gather operations (``np.take``), mirroring the
matrix-free formulation used by QUDA.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

NDIM = 4


class Lattice:
    """A periodic 4-d hypercubic lattice.

    Parameters
    ----------
    dims:
        Extent in each of the four directions ``(X, Y, Z, T)``.  Every
        extent must be even so that red-black (even-odd) decomposition
        tiles the lattice exactly.
    """

    def __init__(self, dims: tuple[int, int, int, int]):
        dims = tuple(int(d) for d in dims)
        if len(dims) != NDIM:
            raise ValueError(f"expected {NDIM} dimensions, got {len(dims)}")
        if any(d < 2 for d in dims):
            raise ValueError(f"every extent must be >= 2, got {dims}")
        if any(d % 2 for d in dims):
            raise ValueError(f"every extent must be even for red-black, got {dims}")
        self.dims = dims
        self.volume = int(np.prod(dims))

    # ------------------------------------------------------------------
    # coordinate <-> index maps
    # ------------------------------------------------------------------
    def coords(self, idx: np.ndarray) -> np.ndarray:
        """Map site indices to coordinates, shape ``(..., 4)``."""
        idx = np.asarray(idx)
        out = np.empty(idx.shape + (NDIM,), dtype=np.int64)
        rem = idx
        for mu in range(NDIM):
            out[..., mu] = rem % self.dims[mu]
            rem = rem // self.dims[mu]
        return out

    def index(self, coords: np.ndarray) -> np.ndarray:
        """Map coordinates ``(..., 4)`` to lexicographic site indices."""
        coords = np.asarray(coords)
        idx = np.zeros(coords.shape[:-1], dtype=np.int64)
        for mu in reversed(range(NDIM)):
            idx = idx * self.dims[mu] + (coords[..., mu] % self.dims[mu])
        return idx

    @cached_property
    def site_coords(self) -> np.ndarray:
        """Coordinates of every site, shape ``(V, 4)``."""
        return self.coords(np.arange(self.volume))

    # ------------------------------------------------------------------
    # neighbour tables
    # ------------------------------------------------------------------
    @cached_property
    def fwd(self) -> np.ndarray:
        """``fwd[mu, s]`` is the site index of ``s + mu_hat``, shape (4, V)."""
        return self._neighbors(+1)

    @cached_property
    def bwd(self) -> np.ndarray:
        """``bwd[mu, s]`` is the site index of ``s - mu_hat``, shape (4, V)."""
        return self._neighbors(-1)

    def _neighbors(self, step: int) -> np.ndarray:
        out = np.empty((NDIM, self.volume), dtype=np.int64)
        base = self.site_coords
        for mu in range(NDIM):
            c = base.copy()
            c[:, mu] = (c[:, mu] + step) % self.dims[mu]
            out[mu] = self.index(c)
        return out

    @cached_property
    def crosses_fwd(self) -> np.ndarray:
        """``crosses_fwd[mu, s]`` is True when ``s + mu_hat`` wraps, shape (4, V)."""
        out = np.empty((NDIM, self.volume), dtype=bool)
        for mu in range(NDIM):
            out[mu] = self.site_coords[:, mu] == self.dims[mu] - 1
        return out

    @cached_property
    def crosses_bwd(self) -> np.ndarray:
        """``crosses_bwd[mu, s]`` is True when ``s - mu_hat`` wraps, shape (4, V)."""
        out = np.empty((NDIM, self.volume), dtype=bool)
        for mu in range(NDIM):
            out[mu] = self.site_coords[:, mu] == 0
        return out

    # ------------------------------------------------------------------
    # parity (red-black / even-odd)
    # ------------------------------------------------------------------
    @cached_property
    def parity(self) -> np.ndarray:
        """0 for even sites, 1 for odd, shape (V,)."""
        return (self.site_coords.sum(axis=1) % 2).astype(np.int8)

    @cached_property
    def even_sites(self) -> np.ndarray:
        return np.flatnonzero(self.parity == 0)

    @cached_property
    def odd_sites(self) -> np.ndarray:
        return np.flatnonzero(self.parity == 1)

    def sites_of_parity(self, parity: int) -> np.ndarray:
        return self.even_sites if parity == 0 else self.odd_sites

    @cached_property
    def parity_order(self) -> np.ndarray:
        """Site indices parity-ordered: the even sites, then the odd ones."""
        return np.concatenate([self.even_sites, self.odd_sites])

    @cached_property
    def parity_position(self) -> np.ndarray:
        """Inverse of :attr:`parity_order`: the parity-ordered position of each site."""
        pos = np.empty(self.volume, dtype=np.int64)
        pos[self.parity_order] = np.arange(self.volume)
        return pos

    @property
    def half_volume(self) -> int:
        return self.volume // 2

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def __repr__(self) -> str:
        return f"Lattice({'x'.join(map(str, self.dims))})"
