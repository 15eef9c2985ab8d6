"""The :class:`ArrayBackend` protocol — one kernel formulation per backend.

The paper's central claim (Figure 2) is that *data layout and exposed
parallelism*, not the algorithm, decide whether the small coarse grids
of a multigrid hierarchy saturate the hardware.  To make that an
experiment instead of an argument, the coarse-grid kernels of this
package — the dense-block stencil, its hop sum and site blocks, and the
aggregation transfers — dispatch through this thin protocol, so a
layout variant is one subclass, and every variant is held to the NumPy
baseline by the differential equivalence suite (``pytest -m backend``).
The fine-grid Wilson-Clover operator does not dispatch: every backend
runs its one sites-last kernel (:mod:`repro.dirac.mrhs`).

A backend receives the *operator* (or transfer) plus raw ndarray data,
never a wrapped field: it may stash packed/reordered layouts on the
operator through :meth:`op_cache` (keyed by backend name, so switching
backends never corrupts another backend's cache) but must not mutate
the operator's own state.

The base class is a complete, correct backend: every method delegates
to the operator's reference implementation (the vectorized-NumPy
formulation the package has always run).  Subclasses override only the
kernels whose formulation they change, which keeps exotic backends
honest — anything they do not reimplement is the baseline by
construction.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np


class ArrayBackend:
    """A named formulation of the hot kernels.

    Methods take the owning operator/transfer first so implementations
    can reach packed layouts, index tables and link copies; all field
    data is plain ``np.ndarray`` in the canonical ``(V, ns, nc)``
    site-major (AoS) layout at the API boundary — backends that compute
    in another layout pack on entry and unpack on exit.
    """

    #: registry key; subclasses must override.
    name = "reference"

    #: human-oriented one-liner for ``repro bench``/docs listings.
    description = "delegates every kernel to the operator reference path"

    # ------------------------------------------------------------------
    # per-operator backend state
    # ------------------------------------------------------------------
    def op_cache(self, obj: Any, key: str, factory: Callable[[], Any]) -> Any:
        """Backend-private memo attached to ``obj``.

        Entries are keyed ``(backend.name, key)`` so distinct backends
        sharing an operator never read each other's packed layouts.
        """
        cache = obj.__dict__.setdefault("_backend_cache", {})
        full_key = (self.name, key)
        if full_key not in cache:
            cache[full_key] = factory()
        return cache[full_key]

    # ------------------------------------------------------------------
    # layout (identity for site-major backends)
    # ------------------------------------------------------------------
    def pack(self, op, v: np.ndarray):
        """Convert canonical site-major data into this backend's layout."""
        return v

    def unpack(self, op, packed) -> np.ndarray:
        """Convert this backend's layout back to canonical site-major."""
        return packed

    # ------------------------------------------------------------------
    # shared primitives
    # ------------------------------------------------------------------
    def hop_sum(self, op, v: np.ndarray) -> np.ndarray:
        """Sum of all eight signed hop terms of ``M v``.

        Works for any :class:`~repro.dirac.stencil.StencilOperator`
        that dispatches here (the coarse operators); this is the term
        red-black Schur preconditioning applies twice per matvec.
        """
        return op.hop_sum_reference(v)

    def dense_blocks_apply(self, mats: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Apply per-site dense ``(V, N, N)`` blocks to ``(V, ns, nc)`` data."""
        vol, n, _ = mats.shape
        flat = v.reshape(vol, n, 1)
        return np.matmul(mats, flat).reshape(v.shape)

    # ------------------------------------------------------------------
    # coarse dense-block stencil
    # ------------------------------------------------------------------
    def coarse_apply(self, op, v: np.ndarray) -> np.ndarray:
        """Full coarse-operator application: X block + eight Y-block hops."""
        return op.apply_reference(v)

    def coarse_apply_multi(self, op, vs: np.ndarray) -> np.ndarray:
        """Batched coarse application over ``(K, V, ns, nc)``."""
        return op.apply_multi_reference(vs)

    # ------------------------------------------------------------------
    # aggregation transfers
    # ------------------------------------------------------------------
    def restrict(self, transfer, fine: np.ndarray) -> np.ndarray:
        return transfer.restrict_reference(fine)

    def prolong(self, transfer, coarse: np.ndarray) -> np.ndarray:
        return transfer.prolong_reference(coarse)

    def restrict_multi(self, transfer, fines: np.ndarray) -> np.ndarray:
        return transfer.restrict_multi_reference(fines)

    def prolong_multi(self, transfer, coarses: np.ndarray) -> np.ndarray:
        return transfer.prolong_multi_reference(coarses)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
