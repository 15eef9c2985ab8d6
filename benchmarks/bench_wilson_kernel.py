"""Batch-size sweep of the fine Wilson-Clover kernel.

Times the two fine-grid kernels a multigrid solve waits on — the full
operator application ``apply_multi`` and the half-volume red-black Schur
application ``BatchedSchur.apply_multi`` — at K in {1, 2, 4, 8, 12}
right-hand sides on the Aniso40- and Iso48-scaled lattices.  Both run
the one sites-last kernel of :mod:`repro.dirac.mrhs`; the sweep shows
what a batch buys per right-hand side and that K = 1 pays nothing for
the batched formulation.

Dual-mode module: ``python benchmarks/bench_wilson_kernel.py [--quick]``
prints the table, and under ``pytest benchmarks/`` the rows join the
``repro.bench/v1`` envelopes.  Either way, ``REPRO_BENCH_OUT=DIR`` writes
``DIR/wilson_kernel.json``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.dirac import WilsonCloverOperator
from repro.dirac.mrhs import BatchedSchur
from repro.workloads import ANISO40_SCALED, ISO48_SCALED

try:
    import pytest
except ImportError:  # the CI smoke step installs numpy only
    pytest = None

K_VALUES = (1, 2, 4, 8, 12)
DATASETS = (ANISO40_SCALED, ISO48_SCALED)


def _best_seconds(fn, repeats: int, budget_s: float) -> float:
    """Best per-call time over ``repeats`` timed loops of ~``budget_s`` each."""
    fn()
    t0 = time.perf_counter()
    fn()
    calls = max(1, int(budget_s / max(time.perf_counter() - t0, 1e-6)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def run_kernel_bench(
    ks: tuple[int, ...] = K_VALUES, repeats: int = 3, budget_s: float = 0.1
) -> list[dict]:
    rows = []
    rng = np.random.default_rng(5)
    for ds in DATASETS:
        op = WilsonCloverOperator(ds.gauge(), **ds.operator_kwargs())
        lat = op.lattice
        schur = BatchedSchur(op)
        even = lat.sites_of_parity(0)
        shape = (max(ks), lat.volume, 4, 3)
        vs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for kernel, fn in (
            ("apply", lambda x: op.apply_multi(x)),
            ("schur", lambda x: schur.apply_multi(x[:, even])),
        ):
            for k in ks:
                seconds = _best_seconds(lambda: fn(vs[:k]), repeats, budget_s)
                rows.append(
                    {
                        "benchmark": f"{ds.label}.{kernel}.k{k}",
                        "dataset": ds.label,
                        "kernel": kernel,
                        "k": k,
                        "seconds": seconds,
                        "per_rhs_s": seconds / k,
                    }
                )
    return rows


def render_table(rows: list[dict]) -> str:
    lines = [
        "fine Wilson-Clover kernel, best per-call time",
        f"{'dataset':<16} {'kernel':<6} {'K':>3} {'ms':>9} {'ms/rhs':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['dataset']:<16} {r['kernel']:<6} {r['k']:>3} "
            f"{r['seconds'] * 1e3:>9.3f} {r['per_rhs_s'] * 1e3:>8.3f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
if pytest is not None:

    def test_bench_wilson_kernel(capsys):
        from _shared import record_row

        rows = run_kernel_bench(repeats=2, budget_s=0.05)
        for row in rows:
            record_row("wilson_kernel", **row)
        with capsys.disabled():
            print()
            print(render_table(rows))
        assert all(r["seconds"] > 0 for r in rows)


# ----------------------------------------------------------------------
# standalone script (CI perf-smoke)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="one timed loop of ~0.05 s per point (CI smoke)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        rows = run_kernel_bench(repeats=1, budget_s=0.05)
    else:
        rows = run_kernel_bench()
    print(render_table(rows))

    from _shared import write_bench_document

    write_bench_document("wilson_kernel", rows, meta={"quick": bool(args.quick)})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
