"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest mgbench -q``.
"""

from __future__ import annotations

import json
import math
import sys
import time
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mgbench import report, stats
from mgbench.layers import ENTRIES, Entry, LayerTracer, level_map
from mgbench.workloads import (
    SERVE_BURST_SIZES,
    SERVE_SLOT_S,
    WorkloadResult,
    burst_schedule,
    check_solution,
    gaussian_source,
    point_sources,
    rng_for,
    serve_cycles,
)

ROOT = Path(__file__).resolve().parent.parent


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def toy_module():
    """A module with a nested call chain: outer -> 2x inner -> leaf."""
    mod = types.ModuleType("mgbench_toy")

    class Base:
        def inherited(self):
            return "base"

    class Toy(Base):
        level = 1

        def outer(self):
            _spin(0.004)
            mod.inner()
            mod.inner()
            return "outer"

    def inner():
        _spin(0.002)
        mod.leaf()

    def leaf():
        _spin(0.001)

    mod.Base, mod.Toy, mod.inner, mod.leaf = Base, Toy, inner, leaf
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def _toy_entries():
    at_level = lambda args, result: 1  # noqa: E731
    return (
        Entry("toy", "outer", ("mgbench_toy:Toy.outer",), at_level),
        Entry("toy", "inner", ("mgbench_toy:inner",), at_level),
        Entry("toy", "leaf", ("mgbench_toy:leaf",), at_level),
        Entry("toy", "inherited", ("mgbench_toy:Toy.inherited",), at_level),
        Entry("toy", "gone", ("mgbench_toy:Toy.no_such_method",
                              "mgbench_no_such_module:f"), at_level),
    )


def test_self_time_of_nested_wrappers(toy_module):
    tracer = LayerTracer(_toy_entries())
    with tracer.installed():
        tracer.phase = "solve"
        assert toy_module.Toy().outer() == "outer"
        tracer.phase = None
        tracer.resolve(SimpleNamespace(levels=[]))
    rows = {key[2]: row for key, row in tracer.rows.items()}
    calls, incl, self_s = ({name: row[i] for name, row in rows.items()} for i in range(3))
    assert calls == {"outer": 1, "inner": 2, "leaf": 2}
    # a call's self time is its duration minus its wrapped children's
    assert self_s["outer"] == pytest.approx(incl["outer"] - incl["inner"], abs=1e-9)
    assert self_s["inner"] == pytest.approx(incl["inner"] - incl["leaf"], abs=1e-9)
    assert self_s["leaf"] == incl["leaf"]
    # self times partition the outermost call exactly
    assert sum(self_s.values()) == pytest.approx(incl["outer"], abs=1e-9)
    assert self_s["outer"] >= 0.004 and self_s["inner"] >= 0.004 and self_s["leaf"] >= 0.002
    assert tracer.self_time_total() == pytest.approx(incl["outer"], abs=1e-9)


def test_wrappers_restored_and_missing_entries_noticed(toy_module):
    originals = (toy_module.Toy.__dict__["outer"], toy_module.inner, toy_module.leaf)
    tracer = LayerTracer(_toy_entries())
    tracer.install()
    assert "inherited" in vars(toy_module.Toy)  # shadowed on the subclass
    assert toy_module.inner is not originals[1]
    tracer.uninstall()
    assert (toy_module.Toy.__dict__["outer"], toy_module.inner, toy_module.leaf) == originals
    assert "inherited" not in vars(toy_module.Toy)
    assert toy_module.Toy().inherited() == "base"
    assert len(tracer.missing) == 2
    assert any("no_such_method" in m for m in tracer.missing)
    assert any("mgbench_no_such_module" in m for m in tracer.missing)
    values = tracer.metrics(reps=1)
    assert values["solve.toy.gone.L1.calls"] == 0


def test_phase_none_passes_through_and_books_nothing(toy_module):
    tracer = LayerTracer(_toy_entries())
    with tracer.installed():
        toy_module.Toy().outer()
        tracer.resolve(SimpleNamespace(levels=[]))
    assert tracer.rows == {}


def test_percentile_rule():
    assert stats.samples_beyond(40, 0.75) == 10
    assert stats.supported(38, 0.75) and not stats.supported(37, 0.75)
    assert stats.min_samples(0.75) == 38
    assert stats.min_samples(0.5) == 20
    assert stats.samples_beyond(0, 0.5) == 0
    with pytest.raises(ValueError):
        stats.min_samples(1.0)
    values = list(np.random.default_rng(0).exponential(size=45))
    for q in (0.0, 0.5, 0.75, 1.0):
        assert stats.percentile(values, q) == pytest.approx(np.quantile(values, q))
    # the reported p75 really has that many samples above it
    p75 = stats.percentile(values, 0.75)
    assert sum(v > p75 for v in values) == stats.samples_beyond(len(values), 0.75)
    assert stats.percentile([1.0, math.inf, 2.0], 1.0) == math.inf


def test_inputs_are_bitwise_reproducible_from_the_seed():
    def inputs(seed):
        src = gaussian_source(64, rng_for(seed, "cold-aniso40", 0, "sources"))
        site, pts = point_sources(64, rng_for(seed, "propagator-iso48", 0, "sources"))
        sched = burst_schedule(5, rng_for(seed, "serve-aniso40", 0, "schedule"))
        setup = rng_for(seed, "cold-aniso40", 0, "setup").standard_normal(4)
        return src, site, pts, sched, setup

    a, b, c = inputs(7), inputs(7), inputs(8)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
    assert not np.array_equal(a[0], c[0]) and not np.array_equal(a[3], c[3])
    # streams of one seed are independent of each other
    assert not np.array_equal(
        rng_for(7, "cold-aniso40", 0, "setup").standard_normal(4),
        rng_for(7, "cold-aniso40", 1, "setup").standard_normal(4),
    )


def test_burst_schedule_offers_one_request_per_second():
    sched = burst_schedule(5, rng_for(3, "serve-aniso40", 0, "schedule"))
    assert len(sched) == 45
    assert np.all(np.diff(sched) >= 0)
    # one burst per slot, its requests due together
    slots, sizes = np.unique(np.floor(sched / SERVE_SLOT_S), return_counts=True)
    assert np.array_equal(slots, np.arange(15)) and len(np.unique(sched)) == 15
    # every cycle holds each burst size once
    for cycle in sizes.reshape(5, len(SERVE_BURST_SIZES)):
        assert sorted(cycle) == sorted(SERVE_BURST_SIZES)
    assert len(sched) / (15 * SERVE_SLOT_S) == 1.0
    assert serve_cycles(50) == 5 and serve_cycles(1) == 5 and serve_cycles(90) == 9


def test_point_sources_are_the_twelve_spin_colour_units():
    site, bs = point_sources(10, np.random.default_rng(0))
    assert bs.shape == (12, 10, 4, 3)
    assert np.array_equal(bs.reshape(12, -1).sum(axis=0).reshape(10, 4, 3)[site], np.ones((4, 3)))
    assert np.count_nonzero(bs) == 12


def test_correctness_gate():
    op = SimpleNamespace(apply=lambda x: 2.0 * x)
    b = np.ones((4, 4, 3), dtype=complex)
    good = SimpleNamespace(x=b / 2.0, converged=True, iterations=3)
    assert check_solution(op, b, good, 1e-8).ok
    off = SimpleNamespace(x=b / 2.0 * (1 + 1e-3), converged=True, iterations=3)
    assert "true residual" in check_solution(op, b, off, 1e-8).reason
    stuck = SimpleNamespace(x=b / 2.0, converged=False, iterations=200)
    assert check_solution(op, b, stuck, 1e-8).reason == "not converged"
    nan = SimpleNamespace(x=b * np.nan, converged=True, iterations=1)
    assert check_solution(op, b, nan, 1e-8).reason == "non-finite solution"


def test_every_declared_metric_is_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = WorkloadResult(
        "cold-aniso40", reps=1, setup_s=[1.0], solve_s=[1.0], tts_s=[2.0],
        rhs_per_s=[1.0], latency_s=[2.0], setup_mb=[1.0], wall_s=2.0,
    )
    produced = {row[0] for row in report.end_to_end(result)}
    assert {m["name"] for m in spec["end_to_end"]} <= produced
    values = report.per_layer(result, LayerTracer(), overhead=0.0)
    assert {m["name"] for m in spec["per_layer"]} <= set(values)


def test_levels_resolve_on_a_built_aniso40_hierarchy():
    from repro.dirac.wilson import WilsonCloverOperator
    from repro.mg import MultigridSolver
    from repro.workloads import ANISO40_SCALED, mg_params_for

    ds = ANISO40_SCALED
    params = mg_params_for(ds, "24/24", null_iters=4)
    tracer = LayerTracer()
    with tracer.installed():
        assert tracer.missing == []
        tracer.phase = "setup"
        op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
        solver = MultigridSolver(op, params, rng=np.random.default_rng(0))
        tracer.phase = "solve"
        b = gaussian_source(op.lattice.volume, np.random.default_rng(1))
        solver.solve(b, maxiter=1)
        solver.solve_multi(np.stack([b, 2 * b]), batched=True, maxiter=1)
        tracer.phase = None
        tracer.resolve(solver.hierarchy)
    hierarchy = solver.hierarchy
    levels = level_map(hierarchy)
    for i, lev in enumerate(hierarchy.levels):
        assert levels[id(lev.op)] == i
        if lev.transfer is not None:
            assert levels[id(lev.transfer)] == i
            assert levels[id(lev.smoother)] == i
    assert tracer.unresolved == 0
    booked = {key for key, row in tracer.rows.items() if row[0] > 0}
    expected = {
        ("setup", "dirac", "apply", 0),
        ("setup", "coarse", "apply", 1),
        ("setup", "coarse", "galerkin", 1),
        ("setup", "coarse", "galerkin", 2),
        ("setup", "transfer", "build", 0),
        ("setup", "transfer", "build", 1),
        ("setup", "mg", "null_vectors", 0),
        ("setup", "mg", "null_vectors", 1),
        ("setup", "solvers", "bicgstab", 0),
        ("setup", "solvers", "bicgstab", 1),
        ("solve", "dirac", "hop_sum", 0),
        ("solve", "coarse", "hop_sum", 2),
        ("solve", "mg", "smoother", 0),
        ("solve", "mg", "smoother", 1),
        ("solve", "mg", "kcycle", 0),
        ("solve", "mg", "kcycle", 1),
        ("solve", "mg", "solve", 0),
        ("solve", "dirac", "batched_hop_sum", 0),
        ("solve", "coarse", "batched_schur", 1),
        ("solve", "coarse", "batched_schur", 2),
        ("solve", "mg", "batched_smoother", 0),
        ("solve", "mg", "batched_kcycle", 1),
        ("solve", "mg", "batched_solve", 0),
        ("solve", "transfer", "restrict_multi", 1),
    }
    assert expected <= booked
    # nothing booked at a level the hierarchy does not have
    assert all(key[3] < hierarchy.n_levels for key in booked)
    assert {e.layer for e in ENTRIES} == {"dirac", "coarse", "transfer", "mg", "solvers", "serve"}
