"""Shared machinery for the derivative-free strategies.

All three strategies minimize a scalar objective over a box.  ``minimize``
owns a run: it builds the one evaluation tracker, hands it to the chosen
strategy's search loop, and when the budget runs out it unwinds the
search and reports the best point found.  A search loop only proposes
points inside the box and scores them by calling the tracker.  The
tracker scores ``preview(x)``, the proposal after the optional
``repair`` hook (integer rounding and B >= R enforcement for inventory
policies), so reported points are the repaired ones.  It checks the wall
time before each evaluation, stops the search right after the last
allowed evaluation, rejects a value that is not finite, keeps every
point and value as the run's only record, and streams one log record
per evaluation to an optional sink.  The objective must be a function of
the point alone: the tracker calls it once per distinct repaired point
and answers a repeat from its memo, which still counts against the
budget and is still recorded and logged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..model import check_minimums, finite_number, whole_number


class BudgetExhaustedError(RuntimeError):
    """The budget was spent before a single evaluation could run."""


class NonFiniteObjectiveError(ValueError):
    """The objective returned inf or NaN; no strategy can search on it."""


class SingularKernelError(RuntimeError):
    """Kernel matrix stayed non-positive-definite after jitter escalation."""


class SingularInterpolationError(RuntimeError):
    """Interpolation system could not be solved to tolerance."""


class _StopSearch(Exception):
    """Internal: budget ran out mid-search; unwind and report the best."""


@dataclass(frozen=True)
class SearchSpace:
    """Box constraints, one finite (lower, upper) pair per decision
    variable, held with ``span = upper - lower`` as read-only copies of
    their own."""

    lower: np.ndarray
    upper: np.ndarray
    span: np.ndarray

    def __init__(self, lower, upper):
        lo = np.array(lower, dtype=float)
        hi = np.array(upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-D and congruent")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError(f"bounds must be finite, got lower="
                             f"{lo.tolist()}, upper={hi.tolist()}")
        if not np.all(lo < hi):
            raise ValueError("need lower < upper componentwise")
        for name, value in (("lower", lo), ("upper", hi), ("span", hi - lo)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def to_unit(self, x) -> np.ndarray:
        """Point(s) in unit-box coordinates: lower -> 0, upper -> 1."""
        return (np.asarray(x, dtype=float) - self.lower) / self.span

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        return self.lower + u * self.span

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def latin_hypercube(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n space-filling points: one uniform draw per stratum per axis."""
        u = (rng.permuted(np.tile(np.arange(n), (self.dim, 1)), axis=1).T
             + rng.uniform(size=(n, self.dim))) / n
        return self.from_unit(u)


@dataclass(frozen=True)
class Budget:
    """The stop rule of one optimizer run: evaluations and wall minutes;
    ``max_evaluations`` must pass ``whole_number``, and a whole float is
    stored as the equal int; ``max_minutes`` must pass ``finite_number``."""

    max_evaluations: int = 1000
    max_minutes: float = 1440.0

    def __post_init__(self):
        object.__setattr__(self, "max_evaluations", whole_number(
            self.max_evaluations, "max_evaluations"))
        finite_number(self.max_minutes, "max_minutes")
        for name in ("max_evaluations", "max_minutes"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


# The least value of each search setting, whichever search takes it; an
# int minimum makes the setting a count.
SETTING_MINIMUMS = {"cycles": 1, "iterations_per_cycle": 1,
                    "n_random_starts": 1, "kappa": 0.0, "seed": 0}

STRATEGIES = ("nelder-mead", "gp", "rbf")


def check_strategy(strategy: str) -> None:
    """Raise a ValueError unless ``strategy`` is one of STRATEGIES."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"expected one of {', '.join(STRATEGIES)}")


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
        self._memo: dict[bytes, float] = {}  # repaired point -> value
        self.best_point: np.ndarray | None = None
        self.best_value = float("inf")

    @property
    def evaluations(self) -> int:
        return len(self.values)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def preview(self, x: np.ndarray) -> np.ndarray:
        """The point, or rows of points, that evaluation would score."""
        x = np.asarray(x, dtype=float)
        if self.repair is None:
            return x
        return np.asarray(self.repair(x), dtype=float)

    def __call__(self, x: np.ndarray) -> float:
        if self.elapsed() >= self.budget.max_minutes * 60.0:
            raise _StopSearch()  # finish raises if nothing was evaluated
        x = self.preview(x)
        key = x.tobytes()
        value = self._memo.get(key)
        if value is None:
            value = float(self.objective(x))
            if not np.isfinite(value):
                raise NonFiniteObjectiveError(
                    f"objective returned {value} at {x.tolist()}")
            self._memo[key] = value
        self.points.append(x.copy())
        self.values.append(value)
        if value < self.best_value:
            self.best_value = value
            self.best_point = x.copy()
        if self.log is not None:
            self.log(self.evaluations, x, value, self.best_value)
        if self.evaluations >= self.budget.max_evaluations:
            raise _StopSearch()  # the search has no use for its last value
        return value

    def finish(self, strategy: str) -> OptimizerRun:
        if self.best_point is None:
            raise BudgetExhaustedError(
                "budget exhausted before the first evaluation")
        return OptimizerRun(
            strategy=strategy,
            best_point=self.best_point.copy(),
            best_value=self.best_value,
            best_so_far_trace=np.minimum.accumulate(self.values),
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

    ``repair`` must keep points in the box and map each row of a 2-D
    array of proposals as it maps a single proposal; ``strategy_kwargs``
    are the search's settings, checked against ``SETTING_MINIMUMS``
    before the search starts and passed on with each count as an int.  A
    given ``x0`` must be ``space.dim`` finite numbers; it is clipped into
    the box.
    """
    # read at call time: the benchmark's tracer replaces these attributes.
    # The first call loads SciPy here, before the tracker's clock starts.
    from . import gp, nelder_mead, rbf

    searches = {"nelder-mead": nelder_mead.nelder_mead_restart,
                "gp": gp.gp_optimize, "rbf": rbf.rbf_optimize}
    check_strategy(strategy)
    settings = dict(strategy_kwargs, seed=seed)
    check_minimums(settings, SETTING_MINIMUMS)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (space.dim,) or not np.isfinite(x0).all():
            raise ValueError(f"x0 must be {space.dim} finite numbers, "
                             f"got {x0.tolist()}")
        x0 = space.clip(x0)
    tracker = EvaluationTracker(objective, budget or Budget(), repair=repair,
                                log=log)
    try:
        searches[strategy](tracker, space, x0=x0, **settings)
    except _StopSearch:
        pass
    return tracker.finish(strategy)
