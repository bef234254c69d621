"""Bounded L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) for the surrogate searches.

``minimize_box`` drives SciPy's compiled routine through its
reverse-communication loop exactly as ``scipy.optimize.minimize(
method="L-BFGS-B", jac=True, bounds=..., options={"maxiter": ...})``
does, with that path's defaults, its one-point evaluation cache and its
stop codes, so every evaluated point and the result are bit-identical
to it.  What it leaves out is the wrapper's per-call set-up and
per-iteration bookkeeping, which cost gp and rbf more than their own
likelihood and surrogate math; its all-pinned-box shortcut, which the
routine matches by itself with the same one evaluation; and its 15,000-
evaluation stop, which gp's 50 and rbf's 100 iterations stay far below.
``setulb``'s argument list is the one of SciPy >= 1.15, where the
routine moved from Fortran to C.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.optimize._lbfgsb import setulb

MAXCOR = 10  # stored correction pairs
FACTR = 2.2204460492503131e-09 / np.finfo(float).eps  # ftol as a factor
GTOL = 1e-5  # projected-gradient tolerance
MAXLS = 20  # line-search steps per iteration


def minimize_box(fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
                 x0: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                 maxiter: int) -> tuple[np.ndarray, float]:
    """Minimize ``fun(x) -> (value, gradient)`` over the finite box
    [lower, upper].

    ``x0`` is clipped into the box; ``maxiter`` caps the iterations and
    must keep a run far below 15,000 evaluations, which goes unchecked.
    Returns the final point and value as the wrapper's ``res.x``, ``res.fun``.
    """
    x = np.asarray(x0, dtype=float)
    lower = np.ascontiguousarray(lower, dtype=float)  # as setulb needs
    upper = np.ascontiguousarray(upper, dtype=float)
    if x.ndim != 1 or not x.shape == lower.shape == upper.shape:
        raise ValueError("x0, lower and upper must be 1-D of one length")
    if (lower > upper).any():
        raise ValueError("a lower bound is greater than its upper bound")
    x = np.clip(x, lower, upper)
    n = len(x)
    nbd = np.full(n, 2, np.int32)  # every coordinate bounded on both sides

    # the wrapper evaluates x0 up front and then reuses the last
    # evaluation whenever the routine asks again at the same point
    at = x.copy()
    value, grad = fun(x.copy())
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * MAXCOR * n + 5 * n + 11 * MAXCOR ** 2 + 8 * MAXCOR)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    iterations = 0
    while True:
        setulb(MAXCOR, x, lower, upper, nbd, f, g, FACTR, GTOL, wa, iwa,
               task, lsave, isave, dsave, MAXLS, ln_task)
        if task[0] == 3:  # wants f and g at x
            if not (x == at).all():
                at = x.copy()
                value, grad = fun(x.copy())
            f, g = value, np.array(grad, dtype=np.float64)
        elif task[0] == 1:  # a new iterate
            iterations += 1
            if iterations >= maxiter:
                task[:] = 5, 504  # stop: iteration limit
        else:
            return x, f
