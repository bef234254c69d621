"""Shared machinery for the derivative-free strategies.

All three strategies minimize a scalar objective over a box.  ``minimize``
owns a run: it builds the one evaluation tracker, hands it to the chosen
strategy's search loop, and when the budget runs out it unwinds the
search and reports the best point found.  A search loop only proposes
points inside the box and scores them by calling the tracker.  The
tracker applies the optional ``repair`` hook (integer rounding and
B >= R enforcement for inventory policies) to each proposal right before
evaluation, so reported points are the repaired ones; it also enforces
the evaluation and wall-time budgets, maintains the nonincreasing
best-so-far trace, and streams one log record per evaluation to an
optional sink.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


class BudgetExhaustedError(RuntimeError):
    """The budget was spent before a single evaluation could run."""


class _StopSearch(Exception):
    """Internal: budget ran out mid-search; unwind and report the best."""


@dataclass(frozen=True)
class SearchSpace:
    """Box constraints, one (lower, upper) pair per decision variable."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-D and congruent")
        if not np.all(lo < hi):
            raise ValueError("need lower < upper componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def latin_hypercube(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n space-filling points: one uniform draw per stratum per axis."""
        u = (rng.permuted(np.tile(np.arange(n), (self.dim, 1)), axis=1).T
             + rng.uniform(size=(n, self.dim))) / n
        return self.lower + u * self.span


@dataclass(frozen=True)
class Budget:
    """Evaluation, wall-time, and cycle limits for one optimizer run."""

    max_evaluations: int = 1000
    max_wall_time_s: float = 1440 * 60.0
    cycles: int = 100
    iterations_per_cycle: int = 50

    def __post_init__(self):
        for name in ("max_evaluations", "max_wall_time_s", "cycles",
                     "iterations_per_cycle"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class OptimizerRun:
    """Result of one strategy run."""

    strategy: str
    best_point: np.ndarray
    best_value: float
    best_so_far_trace: np.ndarray
    evaluations_used: int
    wall_time_s: float
    cpu_time_s: float
    evaluated_points: np.ndarray
    evaluated_values: np.ndarray


LogSink = Callable[[int, np.ndarray, float, float], None]


class EvaluationTracker:
    """Budgeted, repaired, logged objective evaluations."""

    def __init__(self, objective: Callable[[np.ndarray], float],
                 budget: Budget,
                 repair: Callable[[np.ndarray], np.ndarray] | None = None,
                 log: LogSink | None = None):
        self.objective = objective
        self.budget = budget
        self.repair = repair
        self.log = log
        self.started = time.perf_counter()
        self.started_cpu = time.process_time()
        self.points: list[np.ndarray] = []
        self.values: list[float] = []
        self.trace: list[float] = []
        self.best_point: np.ndarray | None = None
        self.best_value = float("inf")

    @property
    def evaluations(self) -> int:
        return len(self.values)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def out_of_budget(self) -> bool:
        return (self.evaluations >= self.budget.max_evaluations
                or self.elapsed() >= self.budget.max_wall_time_s)

    def preview(self, x: np.ndarray) -> np.ndarray:
        """The point, or rows of points, that evaluation would score."""
        x = np.asarray(x, dtype=float)
        if self.repair is None:
            return x
        return np.asarray(self.repair(x), dtype=float)

    def __call__(self, x: np.ndarray) -> float:
        if self.out_of_budget():
            if self.evaluations == 0:
                raise BudgetExhaustedError(
                    "budget exhausted before the first evaluation")
            raise _StopSearch()
        x = np.asarray(x, dtype=float)
        if self.repair is not None:
            x = np.asarray(self.repair(x), dtype=float)
        value = float(self.objective(x))
        self.points.append(x.copy())
        self.values.append(value)
        if value < self.best_value:
            self.best_value = value
            self.best_point = x.copy()
        self.trace.append(self.best_value)
        if self.log is not None:
            self.log(self.evaluations, x, value, self.best_value)
        return value

    def finish(self, strategy: str) -> OptimizerRun:
        if self.best_point is None:
            raise BudgetExhaustedError(
                "budget exhausted before the first evaluation")
        return OptimizerRun(
            strategy=strategy,
            best_point=self.best_point.copy(),
            best_value=self.best_value,
            best_so_far_trace=np.array(self.trace),
            evaluations_used=self.evaluations,
            wall_time_s=self.elapsed(),
            cpu_time_s=time.process_time() - self.started_cpu,
            evaluated_points=np.array(self.points),
            evaluated_values=np.array(self.values),
        )


def minimize(objective: Callable[[np.ndarray], float], space: SearchSpace,
             budget: Budget | None = None, strategy: str = "rbf",
             seed: int = 0, x0: np.ndarray | None = None,
             repair: Callable[[np.ndarray], np.ndarray] | None = None,
             log: LogSink | None = None, **strategy_kwargs) -> OptimizerRun:
    """Run one strategy, chosen by name, until its search or budget ends.

    ``repair`` must map each row of a 2-D array of proposals as it maps
    a single proposal; ``strategy_kwargs`` go to the strategy's search.
    """
    # read at call time: the benchmark's tracer replaces these attributes
    from . import gp, nelder_mead, rbf

    searches = {"nelder-mead": nelder_mead.nelder_mead_restart,
                "gp": gp.gp_optimize, "rbf": rbf.rbf_optimize}
    if strategy not in searches:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         "expected nelder-mead, gp, or rbf")
    tracker = EvaluationTracker(objective, budget or Budget(), repair=repair,
                                log=log)
    try:
        searches[strategy](tracker, space, seed=seed, x0=x0,
                           **strategy_kwargs)
    except _StopSearch:
        pass
    return tracker.finish(strategy)
