"""Restarted Nelder-Mead simplex search over a box.

Canonical coefficients: reflection 1, expansion 2, contraction 0.5,
shrink 0.5.  Candidates are projected onto the box.  A cycle runs a fixed
number of simplex steps (or ends early when the simplex collapses); the
next cycle rebuilds a fresh simplex around the incumbent best with the
step scale halved, which is what keeps restarts from deterministically
replaying a finished cycle.
"""

from __future__ import annotations

import numpy as np

from .core import EvaluationTracker, SearchSpace

REFLECT = 1.0
EXPAND = 2.0
CONTRACT = 0.5
SHRINK = 0.5
INITIAL_STEP_FRACTION = 0.05  # first cycle's step, as a share of the span


def _initial_simplex(x0: np.ndarray, steps: np.ndarray,
                     space: SearchSpace) -> np.ndarray:
    dim = space.dim
    simplex = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        vertex = x0.copy()
        vertex[i] += steps[i]
        vertex = space.clip(vertex)
        if np.allclose(vertex, x0):
            vertex[i] = x0[i] - steps[i]  # x0 sat on that bound; flip
            vertex = space.clip(vertex)
        simplex[i + 1] = vertex
    return simplex


def nelder_mead_restart(tracker: EvaluationTracker, space: SearchSpace, *,
                        seed: int, x0: np.ndarray | None,
                        collapse_tol: float = 1e-8) -> None:
    """Run `budget.cycles` cycles of `budget.iterations_per_cycle` steps."""
    budget = tracker.budget
    rng = np.random.default_rng(seed)
    dim = space.dim
    if x0 is None:
        x0 = 0.5 * (space.lower + space.upper)
    incumbent = space.clip(np.asarray(x0, dtype=float))

    span = space.span
    collapse_size = collapse_tol * float(np.max(span))
    for cycle in range(budget.cycles):
        scale = INITIAL_STEP_FRACTION * max(0.5 ** cycle, 1e-4)
        signs = rng.choice((-1.0, 1.0), size=dim)
        steps = signs * scale * span
        simplex = _initial_simplex(incumbent, steps, space)
        values = np.array([tracker(v) for v in simplex])

        for _ in range(budget.iterations_per_cycle):
            order = np.argsort(values, kind="stable")
            simplex, values = simplex[order], values[order]
            if np.max(np.abs(simplex[1:] - simplex[0])) < collapse_size:
                break  # collapsed: restart early from the incumbent

            centroid = simplex[:-1].mean(axis=0)
            worst = simplex[-1]
            reflected = space.clip(centroid + REFLECT * (centroid - worst))
            f_reflected = tracker(reflected)

            if f_reflected < values[0]:
                expanded = space.clip(
                    centroid + EXPAND * (reflected - centroid))
                f_expanded = tracker(expanded)
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            else:
                if f_reflected < values[-1]:  # outside contraction
                    candidate = space.clip(
                        centroid + CONTRACT * (reflected - centroid))
                else:  # inside contraction
                    candidate = space.clip(
                        centroid - CONTRACT * (centroid - worst))
                f_candidate = tracker(candidate)
                if f_candidate < min(f_reflected, values[-1]):
                    simplex[-1], values[-1] = candidate, f_candidate
                else:  # shrink toward the best vertex
                    for i in range(1, dim + 1):
                        simplex[i] = space.clip(
                            simplex[0] + SHRINK * (simplex[i] - simplex[0]))
                        values[i] = tracker(simplex[i])

        incumbent = tracker.best_point
