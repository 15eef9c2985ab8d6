"""Per-layer timing measured from outside the program.

The benchmark installs wrappers, by dotted name, around the public
entry points of the ``dirac``, ``coarse``, ``transfer``, ``mg``,
``solvers`` and ``serve`` layers, and removes them afterwards.  No span
is added inside ``src/``.

Each wrapped call books its duration and its *self* time (duration
minus the time of wrapped calls made inside it) into a bucket keyed by
phase, entry and the object the call acts on.  Buckets are resolved to
multigrid levels only after the hierarchy is built, by identity against
``hierarchy.levels[i].op/.transfer/.smoother`` — during setup the
coarse operators exist before any hierarchy does.

An entry point that no longer exists (a module or attribute deleted by a
later change) is skipped with a notice; its rows read zero.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

PHASES = ("setup", "solve")
LEVELS = (0, 1, 2)


def _self(args, result):
    return args[0]


def _result(args, result):
    return result


def _level_attr(args, result):
    return int(args[0].level)


def _fine(args, result):
    return 0


def _cost_single(args):
    return args[0].application_cost()


def _cost_multi(args):
    return args[0].application_cost_multi(args[1].shape[0])


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``targets`` are ``module:qualified.name`` strings (a function in a
    module, or a method on a class); several targets share the entry's
    rows when the program reaches the same function under two names.
    ``key`` maps ``(args, result)`` to the object whose level the call is
    booked at, or directly to an ``int`` level.  ``cost`` maps ``args``
    to the ``(flops, bytes)`` of the call from the program's own
    ``application_cost`` model.
    """

    layer: str
    name: str
    targets: tuple[str, ...]
    key: Callable[[tuple, Any], Any]
    cost: Callable[[tuple], tuple[float, float]] | None = None


ENTRIES: tuple[Entry, ...] = (
    Entry("dirac", "apply", ("repro.dirac.wilson:WilsonCloverOperator.apply",),
          _self, _cost_single),
    Entry("dirac", "apply_multi",
          ("repro.dirac.wilson:WilsonCloverOperator.apply_multi",),
          _self, _cost_multi),
    Entry("dirac", "hop_sum",
          ("repro.dirac.wilson:WilsonCloverOperator.apply_hopping",), _self),
    Entry("dirac", "batched_hop_sum", ("repro.dirac.mrhs:BatchedHopSum.apply",),
          _self),
    Entry("coarse", "apply", ("repro.coarse.coarse_op:CoarseOperator.apply",),
          _self, _cost_single),
    Entry("coarse", "apply_multi",
          ("repro.coarse.coarse_op:CoarseOperator.apply_multi",),
          _self, _cost_multi),
    Entry("coarse", "hop_sum",
          ("repro.coarse.coarse_op:CoarseOperator.apply_hopping",), _self),
    Entry("coarse", "batched_schur",
          ("repro.dirac.mrhs:BatchedCoarseSchur.apply_multi",),
          lambda args, result: args[0].op),
    Entry("coarse", "galerkin", ("repro.mg.hierarchy:coarsen_operator",),
          _result),
    Entry("transfer", "restrict", ("repro.transfer.transfer:Transfer.restrict",),
          _self, _cost_single),
    Entry("transfer", "prolong", ("repro.transfer.transfer:Transfer.prolong",),
          _self, _cost_single),
    Entry("transfer", "restrict_multi",
          ("repro.transfer.transfer:Transfer.restrict_multi",),
          _self, _cost_multi),
    Entry("transfer", "prolong_multi",
          ("repro.transfer.transfer:Transfer.prolong_multi",),
          _self, _cost_multi),
    Entry("transfer", "build", ("repro.transfer.transfer:Transfer.__init__",),
          _self),
    Entry("mg", "null_vectors", ("repro.mg.hierarchy:generate_null_vectors",),
          lambda args, result: args[0]),
    Entry("mg", "smoother", ("repro.mg.smoother:SchurMRSmoother.apply",),
          _self),
    Entry("mg", "batched_smoother",
          ("repro.mg.multi_rhs:BatchedSmoother.apply_multi",),
          lambda args, result: args[0].bschur.op),
    Entry("mg", "kcycle", ("repro.mg.kcycle:KCyclePreconditioner.apply",),
          _level_attr),
    Entry("mg", "batched_kcycle",
          ("repro.mg.multi_rhs:BatchedKCyclePreconditioner.apply_multi",),
          _level_attr),
    Entry("mg", "solve", ("repro.mg.solver:MultigridSolver.solve",), _fine),
    Entry("mg", "batched_solve",
          ("repro.mg.multi_rhs:batched_mg_solve",
           "repro.serve.service:batched_mg_solve"), _fine),
    Entry("solvers", "bicgstab", ("repro.mg.setup:bicgstab",),
          lambda args, result: args[0]),
    Entry("serve", "register", ("repro.serve.service:SolveService.register",),
          _fine),
    Entry("serve", "setup_cache", ("repro.serve.cache:SetupCache.get_or_build",),
          _fine),
)

# BatchedHopSum keeps no reference to its operator: remember the owner
# at construction so its calls resolve to the operator's level.
_OWNER_HOOKS = ("repro.dirac.mrhs:BatchedHopSum.__init__",)


def _lookup(target: str):
    """``(owner, attr, current value, owner defines it itself)``."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    value = getattr(owner, attr)  # AttributeError when the name is gone
    own = attr in vars(owner)
    return owner, attr, value, own


class LayerTracer:
    """Installs the wrappers and accumulates per-layer rows.

    ``phase`` selects where calls are booked: ``"setup"`` or ``"solve"``
    for reported rows, any other string for calls whose overhead should
    be paid but not reported, ``None`` to pass calls straight through.
    """

    def __init__(self, entries: tuple[Entry, ...] = ENTRIES):
        self.entries = entries
        self.phase: str | None = None
        self.missing: list[str] = []
        self.unresolved = 0
        self._installed: list[tuple[Any, str, Any, bool]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # (phase, entry index, id(key) or level, key is a level)
        #     -> [calls, incl_s, self_s, flops, bytes]
        self._buckets: dict[tuple, list[float]] = {}
        self._pinned: dict[int, Any] = {}  # keeps bucket keys' ids unique
        self._owners: dict[int, Any] = {}
        self.rows: dict[tuple, list[float]] = {}
        # entry name -> callback(start, end, result), for callers that
        # need per-call timestamps (the serve workload's queue waits)
        self.observers: dict[str, Callable[[float, float, Any], None]] = {}

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for index, entry in enumerate(self.entries):
            for target in entry.targets:
                self._patch(target, lambda fn, i=index: self._timed(fn, i))
        for target in _OWNER_HOOKS:
            self._patch(target, self._owner_hook)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, target: str, make: Callable) -> None:
        try:
            owner, attr, value, own = _lookup(target)
        except (ImportError, AttributeError) as exc:
            self.missing.append(f"{target} ({exc.__class__.__name__}: {exc})")
            return
        setattr(owner, attr, make(value))
        self._installed.append((owner, attr, value, own))

    # -- the wrappers -------------------------------------------------
    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, fn: Callable, index: int) -> Callable:
        entry = self.entries[index]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self._book(phase, index, entry, args, result, dt, dt - child)
                observer = self.observers.get(entry.name)
                if observer is not None:
                    observer(t0, t0 + dt, result)

        return wrapper

    def _owner_hook(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(obj, op, *args, **kwargs):
            fn(obj, op, *args, **kwargs)
            with self._lock:
                self._owners[id(obj)] = op
                self._pinned[id(obj)] = obj

        return wrapper

    def _book(self, phase, index, entry, args, result, incl, self_s) -> None:
        key = entry.key(args, result)
        flops = nbytes = 0.0
        if entry.cost is not None:
            flops, nbytes = entry.cost(args)
        is_level = isinstance(key, int)
        ident = key if is_level else id(key)
        with self._lock:
            if not is_level:
                self._pinned[ident] = key
            bucket = self._buckets.setdefault(
                (phase, index, ident, is_level), [0, 0.0, 0.0, 0.0, 0.0]
            )
            bucket[0] += 1
            bucket[1] += incl
            bucket[2] += self_s
            bucket[3] += flops
            bucket[4] += nbytes

    # -- level resolution ---------------------------------------------
    def resolve(self, hierarchy) -> None:
        """Fold this repetition's buckets into level rows.

        Levels come from ``hierarchy.levels[i].op/.transfer/.smoother``;
        objects built around an operator (batched hop sums) resolve
        through the operator they were built for.
        """
        levels = level_map(hierarchy)
        with self._lock:
            buckets, self._buckets = self._buckets, {}
            owners = self._owners
            for (phase, index, ident, is_level), vals in buckets.items():
                if is_level:
                    level = ident
                else:
                    level = levels.get(ident)
                    if level is None and ident in owners:
                        level = levels.get(id(owners[ident]))
                if level is None:
                    self.unresolved += int(vals[0])
                    continue
                entry = self.entries[index]
                row = self.rows.setdefault(
                    (phase, entry.layer, entry.name, level), [0, 0.0, 0.0, 0.0, 0.0]
                )
                for i, v in enumerate(vals):
                    row[i] += v
            self._pinned.clear()
            self._owners.clear()

    def discard(self) -> None:
        """Drop unresolved buckets (calls booked outside a reported phase)."""
        with self._lock:
            self._buckets.clear()
            self._pinned.clear()
            self._owners.clear()

    # -- reporting ----------------------------------------------------
    def metrics(self, reps: int) -> dict[str, float]:
        """Every row as ``<phase>.<layer>.<entry>.L<level>.<stat>``, per repetition.

        Rows are pre-filled with zeros for every entry, phase and level,
        so an entry that was never called (or no longer exists) reads 0.
        """
        out: dict[str, float] = {}
        reps = max(reps, 1)
        for entry in self.entries:
            for phase in PHASES:
                for level in LEVELS:
                    vals = self.rows.get(
                        (phase, entry.layer, entry.name, level), [0, 0.0, 0.0, 0.0, 0.0]
                    )
                    base = f"{phase}.{entry.layer}.{entry.name}.L{level}"
                    out[f"{base}.calls"] = vals[0] / reps
                    out[f"{base}.incl_s"] = vals[1] / reps
                    out[f"{base}.self_s"] = vals[2] / reps
                    out[f"{base}.gflop"] = vals[3] / reps / 1e9
                    out[f"{base}.gb"] = vals[4] / reps / 1e9
        return out

    def self_time_total(self, phase: str | None = None) -> float:
        return sum(
            row[2] for key, row in self.rows.items() if phase in (None, key[0])
        )


def level_map(hierarchy) -> dict[int, int]:
    """``id(object) -> level`` for every level's op, transfer and smoother."""
    out: dict[int, int] = {}
    for index, lev in enumerate(hierarchy.levels):
        for obj in (lev.op, lev.transfer, lev.smoother):
            if obj is not None:
                out[id(obj)] = index
    return out
