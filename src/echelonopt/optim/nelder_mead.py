"""Restarted Nelder-Mead simplex search over a box.

Each cycle runs SciPy's Nelder-Mead, which clips trial points into the
box, from a fresh simplex around the incumbent best for a fixed number
of simplex steps, or until the simplex collapses.  Each cycle halves the
step scale and draws its own step signs, which is what keeps restarts
from deterministically replaying a finished cycle.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, minimize

from .core import EvaluationTracker, SearchSpace

INITIAL_STEP_FRACTION = 0.05  # first cycle's step, as a share of the span
COLLAPSE_TOL = 1e-8  # simplex size, as a share of the widest span


def _initial_simplex(x0: np.ndarray, steps: np.ndarray,
                     space: SearchSpace) -> np.ndarray:
    simplex = np.tile(x0, (space.dim + 1, 1))
    for i in range(space.dim):
        vertex = x0.copy()
        vertex[i] += steps[i]
        vertex = space.clip(vertex)
        if np.allclose(vertex, x0):
            vertex[i] = x0[i] - steps[i]  # x0 sat on that bound; flip
            vertex = space.clip(vertex)
        simplex[i + 1] = vertex
    return simplex


def nelder_mead_restart(tracker: EvaluationTracker, space: SearchSpace, *,
                        seed: int, x0: np.ndarray | None, cycles: int,
                        iterations_per_cycle: int) -> None:
    """Run `cycles` cycles of `iterations_per_cycle` simplex steps."""
    rng = np.random.default_rng(seed)
    incumbent = 0.5 * (space.lower + space.upper) if x0 is None else x0
    bounds = Bounds(space.lower, space.upper)
    options = {"maxiter": iterations_per_cycle + 1,  # SciPy counts from 1
               "xatol": COLLAPSE_TOL * float(np.max(space.span)),
               "fatol": np.inf}  # collapse is judged on x alone
    for cycle in range(cycles):
        scale = INITIAL_STEP_FRACTION * max(0.5 ** cycle, 1e-4)
        steps = rng.choice((-1.0, 1.0), size=space.dim) * scale * space.span
        simplex = _initial_simplex(incumbent, steps, space)
        minimize(tracker, simplex[0], method="Nelder-Mead", bounds=bounds,
                 options={**options, "initial_simplex": simplex})
        incumbent = tracker.best_point
