"""Derivative-free minimizers over box-constrained decision vectors.

Importing this package loads numpy only.  SciPy loads with the search
modules ``gp``, ``nelder_mead`` and ``rbf``: at the first ``minimize``
call, or when one of their names is first read from this package.
"""

import importlib

from .core import (
    Budget,
    BudgetExhaustedError,
    EvaluationTracker,
    NonFiniteObjectiveError,
    OptimizerRun,
    SearchSpace,
    SingularInterpolationError,
    SingularKernelError,
    minimize,
)

_SEARCHES = {"gp": ("GaussianProcess", "gp_optimize"),
             "nelder_mead": ("nelder_mead_restart",),
             "rbf": ("CubicRbfSurrogate", "rbf_optimize")}


def __getattr__(name):
    """Import the search modules on first use; bind all their names at once.

    The benchmark's tracer wraps a search in its module, then expects
    this package to hold the same function.
    """
    if name not in _SEARCHES and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _SEARCHES.items():
        found = importlib.import_module(f".{module}", __name__)
        globals().update({attr: getattr(found, attr) for attr in names})
    return globals()[name]


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
