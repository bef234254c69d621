"""Derivative-free minimizers over box-constrained decision vectors."""

from .core import (
    Budget,
    BudgetExhaustedError,
    EvaluationTracker,
    NonFiniteObjectiveError,
    OptimizerRun,
    SearchSpace,
    minimize,
)
from .gp import GaussianProcess, SingularKernelError, gp_optimize
from .nelder_mead import nelder_mead_restart
from .rbf import CubicRbfSurrogate, SingularInterpolationError, rbf_optimize

__all__ = [
    "Budget",
    "BudgetExhaustedError",
    "CubicRbfSurrogate",
    "EvaluationTracker",
    "GaussianProcess",
    "NonFiniteObjectiveError",
    "OptimizerRun",
    "SearchSpace",
    "SingularInterpolationError",
    "SingularKernelError",
    "gp_optimize",
    "minimize",
    "nelder_mead_restart",
    "rbf_optimize",
]
