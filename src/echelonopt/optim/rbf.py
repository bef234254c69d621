"""Cubic radial-basis-function surrogate search over a box.

The surrogate interpolates sample points with cubic kernels
phi(r) = r^3 plus a linear polynomial tail, fitted by solving the
augmented symmetric system

    [ Phi  P ] [lambda]   [y]
    [ P^T  0 ] [  c   ] = [0],    P = [X 1].

Points are mapped to the unit box and values standardized before the
solve, which keeps the system well conditioned; a least-squares fallback
covers near-degenerate geometries and the fit fails loudly if the
interpolation residual ever exceeds tolerance.

The search alternates two moves after a 2(d+1)-point space-filling
design: exploitation refits the surrogate around the incumbent and
minimizes it by candidate scan plus a bounded L-BFGS-B polish on the
analytic gradient (``lbfgsb.minimize_box``), and exploration evaluates
the feasible point farthest from everything sampled so far, which is
what keeps the model honest in unvisited regions.  The explore move
returns exactly the candidate a full max-min-distance scan would pick,
without that scan: each candidate's distance to a few probe rows bounds
its nearest distance, and exact nearest distances are computed in
descending bound order until no remaining bound can win.  It calls
``cdist`` only, no BLAS routine, so the choice does not depend on the
BLAS thread count.  Three details carry the heavy lifting on objectives
with penalty cliffs: exploit fits use the points nearest the incumbent
(a distant cliff sample must not distort the local ramp), wide value
ranges are log-compressed before fitting, and exploit moves cycle
through coordinate slices so shallow coordinates are not left to random
walk behind the steep ones.  Proposals too close to an evaluated point
are nudged away before evaluation so the interpolation system stays
nonsingular.
"""

from __future__ import annotations

import logging
import warnings

import numpy as np
from scipy.linalg import lstsq, solve
from scipy.spatial.distance import cdist

from .core import EvaluationTracker, SearchSpace, SingularInterpolationError
from .lbfgsb import minimize_box

logger = logging.getLogger(__name__)


RESIDUAL_RTOL = 1e-8
MIN_SEPARATION = 1e-5  # in unit-box coordinates
EXPLOIT_CANDIDATES = 600  # Gaussian cloud around the incumbent
EXPLOIT_POLISH = 3  # best cloud points polished by L-BFGS-B
EXPLORE_CANDIDATES = 2000  # uniform draws for the max-min-distance move
EXPLORE_PROBES = 8  # evaluated rows whose distances bound each candidate's
EXPLORE_BLOCK = 64  # candidates checked exactly per step, in bound order


class CubicRbfSurrogate:
    """Interpolant of scattered data: cubic RBF + linear tail."""

    def __init__(self, space: SearchSpace):
        self.space = space

    def fit(self, x: np.ndarray, y: np.ndarray) -> "CubicRbfSurrogate":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        n, d = x.shape
        self._y_mean = float(y.mean())
        self._y_scale = float(np.abs(y - self._y_mean).max())
        if self._y_scale < 1e-12:
            self._y_scale = 1.0
        yn = (y - self._y_mean) / self._y_scale

        u = self.space.to_unit(x)
        self._u_train = u
        phi = cdist(u, u) ** 3
        tail = np.hstack([u, np.ones((n, 1))])
        a = np.zeros((n + d + 1, n + d + 1))
        a[:n, :n] = phi
        a[:n, n:] = tail
        a[n:, :n] = tail.T
        rhs = np.concatenate([yn, np.zeros(d + 1)])

        coef = None
        with np.errstate(all="ignore"):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    coef = solve(a, rhs, assume_a="sym")
            except np.linalg.LinAlgError:
                coef = None
        if coef is None or not np.all(np.isfinite(coef)) \
                or self._residual(coef, phi, yn) > RESIDUAL_RTOL:
            logger.debug("rbf fit on %d points: direct solve failed, "
                         "falling back to least squares", n)
            coef = lstsq(a, rhs, lapack_driver="gelsd")[0]
        if not np.all(np.isfinite(coef)) \
                or self._residual(coef, phi, yn) > RESIDUAL_RTOL:
            raise SingularInterpolationError(
                "interpolation residual exceeds tolerance "
                "(coincident sample points?)")
        self.weights = coef[:n]
        self.tail_coef = coef[n:]
        return self

    def _residual(self, coef: np.ndarray, phi: np.ndarray,
                  yn: np.ndarray) -> float:
        n, u = len(phi), self._u_train
        pred = phi @ coef[:n] + u @ coef[n:-1] + coef[-1]
        return float(np.abs(pred - yn).max())

    def predict(self, x: np.ndarray) -> np.ndarray:
        u = self.space.to_unit(np.atleast_2d(x))
        r = cdist(u, self._u_train)
        yn = (r ** 3) @ self.weights + u @ self.tail_coef[:-1] \
            + self.tail_coef[-1]
        return yn * self._y_scale + self._y_mean

    def gradient(self, x: np.ndarray) -> np.ndarray:
        # grad phi(|u - ui|) = 3 |u - ui| (u - ui); chain rule maps the
        # unit-box gradient back to original coordinates.
        u = self.space.to_unit(x)
        diff = u[None, :] - self._u_train
        r = np.sqrt(np.sum(diff * diff, axis=1))
        grad_u = 3.0 * ((self.weights * r) @ diff) + self.tail_coef[:-1]
        return grad_u * self._y_scale / self.space.span


def _exploit(xs: np.ndarray, ys: np.ndarray, space: SearchSpace,
             rng: np.random.Generator, incumbent: np.ndarray,
             sigma: float, preview, active=None) -> np.ndarray:
    """Minimize a locally fitted surrogate around the incumbent.

    The surrogate is fitted on the points nearest the incumbent (scaled
    coordinates), which keeps penalty cliffs sampled in unrelated
    regions from distorting the local ramps.  Candidates form a Gaussian
    cloud whose per-coordinate scale follows the incumbent's own
    magnitudes (with a span floor); when ``active`` names a coordinate
    slice, only those coordinates move.  Slice moves matter because
    full-dimensional candidates bundle gains in steep coordinates with
    regressions in shallow ones, leaving the shallow ones on a random
    walk.  Everything is scored after the ``preview`` projection (the
    repair the evaluation will apply): training points live on the
    repaired manifold, so scoring raw points would rank extrapolation
    noise instead of the fit.
    """
    incumbent = np.asarray(incumbent, dtype=float)
    n, dim = xs.shape
    k = min(n, 8 * (dim + 1))
    scaled = (xs - incumbent[None, :]) / space.span
    nearest = np.argsort(np.sum(scaled * scaled, axis=1))[:k]
    x_local, y_local = xs[nearest], ys[nearest]
    spread = y_local.max() - y_local.min()
    basin = np.percentile(y_local, 25) - y_local.min()
    if spread > 1e3 * max(1e-12, basin):
        y_local = np.log1p(y_local - y_local.min())
    surrogate = CubicRbfSurrogate(space).fit(x_local, y_local)

    def f_and_g(x):
        return (float(surrogate.predict(x[None, :])[0]),
                surrogate.gradient(x))

    scale = np.maximum(sigma * np.abs(incumbent), 0.02 * sigma * space.span)
    if active is not None:
        mask = np.zeros(dim)
        mask[active] = 1.0
        scale = scale * mask  # move only the active slice
    local = incumbent + rng.normal(0.0, 1.0, (EXPLOIT_CANDIDATES, dim)) * scale
    cloud = np.vstack([space.clip(local), incumbent[None, :]])
    cloud = preview(cloud)
    scores = surrogate.predict(cloud)
    order = np.argsort(scores)

    # polish stays inside the cloud's reach (the local fit says nothing
    # trustworthy beyond its neighborhood); inactive coordinates stay
    # pinned to the incumbent
    lo = np.maximum(space.lower, incumbent - 5.0 * scale)
    hi = np.minimum(space.upper, incumbent + 5.0 * scale)
    best_x, best_val = cloud[order[0]], float(scores[order[0]])
    for s in cloud[order[:EXPLOIT_POLISH]]:
        x, _ = minimize_box(f_and_g, s, lo, hi, maxiter=100)
        polished = preview(x)
        val = float(surrogate.predict(polished[None, :])[0])
        if val < best_val:
            best_val, best_x = val, polished
    return best_x


def _farthest(candidates: np.ndarray, evaluated_unit: np.ndarray) -> int:
    """``argmax(cdist(candidates, evaluated_unit).min(axis=1))``, exactly.

    Ties go to the lowest index.  Probe distances only bound a
    candidate's nearest distance from above, and every compared number
    is a ``cdist`` entry, which has the same bits in any block.
    """
    step = -(-len(evaluated_unit) // EXPLORE_PROBES)
    bound = cdist(candidates, evaluated_unit[::step]).min(axis=1)
    order = np.argsort(-bound)
    best, best_dist = -1, -np.inf
    for start in range(0, len(order), EXPLORE_BLOCK):
        block = order[start:start + EXPLORE_BLOCK]
        if bound[block[0]] < best_dist:
            break
        dist = cdist(candidates[block], evaluated_unit).min(axis=1)
        top = dist.max()
        if top >= best_dist:
            first = int(block[dist == top].min())
            best = first if top > best_dist else min(best, first)
            best_dist = top
    return best


def _explore(evaluated_unit: np.ndarray, space: SearchSpace,
             rng: np.random.Generator) -> np.ndarray:
    candidates = rng.uniform(size=(EXPLORE_CANDIDATES, space.dim))
    return space.from_unit(candidates[_farthest(candidates, evaluated_unit)])


def rbf_optimize(tracker: EvaluationTracker, space: SearchSpace, *,
                 seed: int, x0: np.ndarray | None) -> None:
    """Alternate exploit/explore moves until the budget runs out."""
    rng = np.random.default_rng(seed)
    dim = space.dim

    def dedupe(candidate: np.ndarray) -> np.ndarray:
        """Nudge a proposal off already-evaluated points."""
        u_train = space.to_unit(tracker.points)
        for attempt in range(16):
            u = space.to_unit(tracker.preview(candidate))
            gap = np.max(np.abs(u_train - u), axis=1).min()
            if gap >= MIN_SEPARATION:
                return candidate
            width = 0.01 * (attempt + 1)
            logger.debug("rbf proposal at evaluation %d is %g from an "
                         "evaluated point; nudging it by up to %g of the "
                         "span", tracker.evaluations, gap, width)
            candidate = space.clip(
                candidate + rng.uniform(-width, width, dim) * space.span)
        logger.debug("rbf proposal at evaluation %d still a duplicate; "
                     "exploring instead", tracker.evaluations)
        return _explore(u_train, space, rng)

    design = list(space.latin_hypercube(rng, 2 * (dim + 1)))
    if x0 is not None:
        design.insert(0, x0)
    for point in design:
        tracker(dedupe(point) if tracker.points else point)

    move = 0
    while True:
        candidate = None
        if move % 2 == 0:
            exploit_idx = move // 2
            incumbent = tracker.best_point
            # cloud scale cycles coarse-to-fine and anneals with the
            # remaining budget, so late exploits polish the incumbent
            remaining = (1.0 - tracker.evaluations
                         / tracker.budget.max_evaluations)
            sigma = ((0.4, 0.2, 0.1, 0.05)[exploit_idx % 4]
                     * max(0.15, remaining))
            # exploit slices cycle: one full-dimensional move, then
            # each coordinate alone (repair re-couples partners).
            # Full candidates bundle gains in steep coordinates with
            # regressions in shallow ones, leaving the shallow
            # coordinates on a random walk; the single-coordinate
            # moves are what pull those down.
            slice_idx = exploit_idx % (dim + 1)
            active = None if slice_idx == 0 else [slice_idx - 1]
            try:
                candidate = _exploit(np.array(tracker.points),
                                     np.array(tracker.values), space, rng,
                                     incumbent, sigma, tracker.preview,
                                     active=active)
            except SingularInterpolationError as exc:
                # explore instead; separation recovers
                logger.debug("rbf exploit at evaluation %d: %s; exploring "
                             "instead", tracker.evaluations, exc)
        if candidate is None:
            candidate = _explore(space.to_unit(tracker.points), space, rng)
        tracker(dedupe(candidate))
        move += 1
