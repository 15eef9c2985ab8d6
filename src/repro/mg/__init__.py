"""Adaptive geometric multigrid: setup, hierarchy, K-cycle, solver facade."""

from .hierarchy import LevelStats, MGLevel, MultigridHierarchy
from .kcycle import KCyclePreconditioner, gcr_reductions
from .multi_rhs import (
    BatchedKCyclePreconditioner,
    BatchedSmoother,
    batched_mg_solve,
    batched_preconditioner_for,
    hierarchy_supports_batching,
)
from .params import LevelParams, MGParams
from .policy import PolicyTuneResult, tune_policy
from .schwarz import DomainDecomposedOperator, SchwarzMRSmoother
from .setup import generate_null_vectors
from .smoother import SchurMRSmoother
from .solver import MultigridSolver

__all__ = [
    "LevelStats",
    "MGLevel",
    "MultigridHierarchy",
    "KCyclePreconditioner",
    "BatchedKCyclePreconditioner",
    "BatchedSmoother",
    "batched_mg_solve",
    "batched_preconditioner_for",
    "hierarchy_supports_batching",
    "gcr_reductions",
    "LevelParams",
    "MGParams",
    "PolicyTuneResult",
    "tune_policy",
    "DomainDecomposedOperator",
    "SchwarzMRSmoother",
    "generate_null_vectors",
    "SchurMRSmoother",
    "MultigridSolver",
]
