"""Pluggable array backends for the hot kernels.

The coarse-grid kernels — the dense-block stencil and the aggregation
transfers — dispatch through a thin
:class:`~repro.backend.base.ArrayBackend` protocol, so a data-layout
experiment is one registered subclass held to the NumPy baseline by the
differential equivalence suite (``pytest -m backend``).  The fine-grid
Wilson-Clover operator runs one sites-last kernel under every backend.

Selection, in priority order:

1. an explicit :func:`use_backend` scope (what
   ``MGParams(backend=...)`` activates for the duration of a hierarchy
   build or solve);
2. the process default, set by :func:`set_default_backend` or the
   ``REPRO_BACKEND`` environment variable at import;
3. ``"numpy"`` — the committed baseline.

Built-in backends: ``numpy`` (vectorized site-major baseline),
``einsum`` (batched-einsum/BLAS few-large-GEMM formulation) and
``soa`` (packed even/odd structure-of-arrays parity planes).  Optional
``numba``/``cupy`` backends register themselves only when their
modules import cleanly — they are never required.

The override is a :class:`contextvars.ContextVar`: each serve worker
thread re-enters :func:`use_backend` from its request's ``MGParams``,
so concurrent solves with different backends never race on a global.
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager

from .accel import register_optional_backends
from .base import ArrayBackend
from .einsum_backend import EinsumBackend
from .numpy_backend import NumpyBackend
from .soa import (
    PackedParityField,
    SoABackend,
    pack_parity,
    parity_sites,
    unpack_parity,
)

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "EinsumBackend",
    "SoABackend",
    "PackedParityField",
    "pack_parity",
    "unpack_parity",
    "parity_sites",
    "available_backends",
    "register_backend",
    "resolve_backend",
    "get_backend",
    "active_backend_name",
    "set_default_backend",
    "use_backend",
    "BACKEND_ENV_VAR",
]

BACKEND_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: dict[str, ArrayBackend] = {}

# per-context override (use_backend / MGParams.backend); name or None
_OVERRIDE: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_backend_override", default=None
)


def register_backend(backend: ArrayBackend, replace: bool = False) -> ArrayBackend:
    """Add a backend to the registry under ``backend.name``."""
    if not isinstance(backend, ArrayBackend):
        raise TypeError(f"expected an ArrayBackend instance, got {backend!r}")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, baseline first."""
    names = sorted(_REGISTRY)
    if "numpy" in names:
        names.remove("numpy")
        names.insert(0, "numpy")
    return tuple(names)


def resolve_backend(name: str) -> ArrayBackend:
    """Look a backend up by name; a clear error lists the valid choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None


def set_default_backend(name: str) -> ArrayBackend:
    """Set the process-wide default backend (validated immediately)."""
    global _default_name
    backend = resolve_backend(name)
    _default_name = backend.name
    return backend


def get_backend(name: str | None = None) -> ArrayBackend:
    """The backend named ``name``, or the active one (override > default)."""
    if name is not None:
        return resolve_backend(name)
    override = _OVERRIDE.get()
    return resolve_backend(override if override is not None else _default_name)


def active_backend_name() -> str:
    """Name of the backend :func:`get_backend` would currently return."""
    return get_backend().name


@contextmanager
def use_backend(name: str | None):
    """Scope the active backend; ``None`` keeps the current selection.

    ``MGParams.backend`` flows through here on every hierarchy build and
    solve, so a params block fully determines the kernels it runs on —
    including inside serve worker threads, where the context variable
    keeps concurrent solves independent.
    """
    if name is None:
        yield get_backend()
        return
    backend = resolve_backend(name)
    token = _OVERRIDE.set(backend.name)
    try:
        yield backend
    finally:
        _OVERRIDE.reset(token)


# ----------------------------------------------------------------------
# built-in registration + environment default
# ----------------------------------------------------------------------
register_backend(NumpyBackend())
register_backend(EinsumBackend())
register_backend(SoABackend())

#: optional accelerated backends that registered successfully (may be empty)
OPTIONAL_BACKENDS = tuple(register_optional_backends(register_backend))

# The environment default is validated lazily (at first get_backend) so
# that importing this module under a typo'd REPRO_BACKEND still lets
# tooling print the valid list instead of dying at import.
_default_name = os.environ.get(BACKEND_ENV_VAR, "numpy")
