"""Gaussian-process optimization with a lower-confidence-bound rule.

Each cycle is an independent mini-run: a fresh seeded random state, a
space-filling design, then a handful of acquisitions.  The squared-
exponential kernel's per-axis length scales and amplitude are refit by
maximum likelihood (analytic gradients, warm-started between
acquisitions) on the cycle's own data, and the next point minimizes
mu(x) - kappa * sigma(x) by multi-start local search.  Running many
short cycles with different random states is the exploration scheme; the
global best across cycles is reported.

Observations are treated as noise-free (common random numbers upstream
make the objective deterministic); the diagonal jitter exists purely for
numerical conditioning and escalates on Cholesky failure.

Every Cholesky factorization and solve calls LAPACK's dpotrf/dpotrs
directly, with SciPy's cholesky/cho_solve arguments and its finite check
(numpy's asarray_chkfinite), and the bounded likelihood fits and
acquisition polishes run L-BFGS-B through ``lbfgsb.minimize_box`` rather
than ``scipy.optimize.minimize``, so every fitted theta and acquisition
is bit-identical to the wrapper path at a fraction of its call overhead.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .core import EvaluationTracker, SearchSpace, SingularKernelError
from .lbfgsb import minimize_box

logger = logging.getLogger(__name__)


BASE_JITTER = 1e-10
MAX_JITTER = 1e-4
ACQUISITION_SCAN = 256  # random candidates scored before the L-BFGS polish
ACQUISITION_POLISH = 2  # best-scoring candidates polished by L-BFGS-B


def _lower_cholesky(k: np.ndarray) -> np.ndarray | None:
    """K's lower Cholesky factor, or None when K is not positive definite."""
    chol, info = dpotrf(np.asarray_chkfinite(k), lower=1, clean=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return chol if info == 0 else None


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b from K's lower Cholesky factor: cho_solve's LAPACK call."""
    x, info = dpotrs(chol, b, lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


class GaussianProcess:
    """Zero-mean GP on standardized targets, squared-exponential kernel."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.x_train: np.ndarray | None = None
        self.theta_: np.ndarray | None = None
        self.jitter_: float = BASE_JITTER

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray_chkfinite(y, dtype=float)
        self.x_train = x
        self._y_mean = float(y.mean())
        self._y_scale = float(y.std())
        if self._y_scale < 1e-12:
            self._y_scale = 1.0
        self._yc = (y - self._y_mean) / self._y_scale
        # per-fit invariants of the likelihood: per-axis squared coordinate
        # differences (n, n, d), their per-axis (d, n, n) copy for the
        # gradient, and the identity that K^-1 is solved from
        self._sq1d = (x[:, None, :] - x[None, :, :]) ** 2
        self._sq1d_t = np.ascontiguousarray(self._sq1d.transpose(2, 0, 1))
        self._eye = np.eye(len(x))

        span = self.space.span  # log length scales, then log amplitude
        lower = np.append(np.log(1e-3 * span), np.log(1e-2))
        upper = np.append(np.log(10.0 * span), np.log(1e2))

        starts = [np.concatenate([np.log(0.3 * span), [0.0]]),
                  np.concatenate([np.log(1.0 * span), [0.0]])]
        if self.theta_ is not None:  # warm start from the previous fit
            starts = [self.theta_, starts[0]]

        best_theta, best_nll = starts[0], np.inf
        for theta0 in starts:
            theta, nll = minimize_box(self._nll_and_grad, theta0, lower,
                                      upper, maxiter=50)
            if nll < best_nll:
                best_nll, best_theta = float(nll), theta
        self.theta_ = best_theta
        self.length_scales = np.exp(best_theta[:-1])
        self.amplitude = float(np.exp(best_theta[-1]))
        self._factorize()
        return self

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = a[:, None, :] / self.length_scales - b[None, :, :] / self.length_scales
        return self.amplitude ** 2 * np.exp(-0.5 * np.sum(d * d, axis=2))

    def _nll_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        ell2 = np.exp(2.0 * theta[:-1])
        amp2 = np.exp(2.0 * theta[-1])
        k = amp2 * np.exp(-0.5 * (self._sq1d / ell2).sum(axis=2))
        n, d = len(k), len(ell2)
        kj = k.copy()
        kj.flat[::n + 1] += BASE_JITTER * amp2 + 1e-12
        chol = _lower_cholesky(kj)
        if chol is None:  # not positive definite
            return 1e25, np.zeros_like(theta)
        alpha = _cho_solve(chol, self._yc)
        nll = (0.5 * float(self._yc @ alpha)
               + float(np.log(np.diag(chol)).sum())
               + 0.5 * n * np.log(2 * np.pi))
        # dNLL/dtheta_j = 0.5 tr((K^-1 - alpha alpha^T) dK/dtheta_j)
        k_inv = _cho_solve(chol, self._eye)
        w = k_inv - np.outer(alpha, alpha)
        grad = np.empty_like(theta)
        wk = w * k
        # one contiguous n*n row per axis, each summed pairwise along its
        # length; einsum, a matmul or an axis-0 sum would add in another
        # order and change the bits of theta
        grad[:-1] = 0.5 * (wk * (self._sq1d_t / ell2[:, None, None])
                           ).reshape(d, -1).sum(axis=1)
        grad[-1] = float(wk.sum()) \
            + BASE_JITTER * amp2 * float(np.trace(w))
        return nll, grad

    def _factorize(self) -> None:
        k = self._kernel(self.x_train, self.x_train)
        scale = self.amplitude ** 2
        jitter = BASE_JITTER
        while True:  # self._chol: K's lower factor, upper triangle zero
            self._chol = _lower_cholesky(k + jitter * scale * self._eye)
            if self._chol is not None:
                break
            if jitter * 100.0 > MAX_JITTER:
                raise SingularKernelError(
                    f"kernel not positive definite at jitter {jitter:g}")
            jitter *= 100.0
            logger.debug("gp kernel on %d points not positive "
                         "definite; raising jitter to %g", len(k), jitter)
        self.jitter_ = jitter * scale
        self._alpha = _cho_solve(self._chol, self._yc)

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation on the original y scale."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k_star = self._kernel(x, self.x_train)
        mu = k_star @ self._alpha
        v = _cho_solve(self._chol, np.asarray_chkfinite(k_star).T)
        var = self.amplitude ** 2 - np.sum(k_star * v.T, axis=1)
        var = np.maximum(var, 0.0)
        return (mu * self._y_scale + self._y_mean,
                np.sqrt(var) * self._y_scale)

    def lower_confidence_bound(self, x: np.ndarray,
                               kappa: float) -> np.ndarray:
        mu, sigma = self.predict(x)
        return mu - kappa * sigma

    def lcb_and_grad(self, x: np.ndarray,
                     kappa: float) -> tuple[float, np.ndarray]:
        """Acquisition value and its analytic gradient at a single point."""
        x = np.asarray(x, dtype=float)
        ell2 = self.length_scales ** 2
        diff = self.x_train - x[None, :]
        k_star = self.amplitude ** 2 * np.exp(
            -0.5 * np.sum(diff * diff / ell2, axis=1))
        dk = (k_star[:, None] * diff) / ell2  # rows: dk_i/dx
        mu = float(k_star @ self._alpha)
        dmu = self._alpha @ dk
        v = _cho_solve(self._chol, np.asarray_chkfinite(k_star))
        var = max(self.amplitude ** 2 - float(k_star @ v), 0.0)
        sigma = np.sqrt(var)
        if sigma > 1e-12 * self.amplitude:
            dsigma = -(v @ dk) / sigma
        else:
            sigma, dsigma = 0.0, np.zeros_like(x)
        value = (mu - kappa * sigma) * self._y_scale + self._y_mean
        grad = (dmu - kappa * dsigma) * self._y_scale
        return float(value), grad


def _minimize_lcb(gp: GaussianProcess, space: SearchSpace, kappa: float,
                  rng: np.random.Generator,
                  incumbent: np.ndarray) -> np.ndarray:
    """Coarse vectorized scan, then polish the leaders with L-BFGS-B."""
    candidates = np.vstack([space.sample(rng, ACQUISITION_SCAN), incumbent])
    scores = gp.lower_confidence_bound(candidates, kappa)
    leaders = candidates[np.argsort(scores)[:ACQUISITION_POLISH]]

    best_x = leaders[0]
    best_val = float(scores.min())
    for s in leaders:
        x, value = minimize_box(lambda z: gp.lcb_and_grad(z, kappa), s,
                                space.lower, space.upper, maxiter=50)
        if value < best_val:
            best_val, best_x = float(value), x
    return best_x


def gp_optimize(tracker: EvaluationTracker, space: SearchSpace, *,
                seed: int, x0: np.ndarray | None, cycles: int,
                iterations_per_cycle: int, n_random_starts: int,
                kappa: float) -> None:
    """Cycle-restarted GP search; kappa >= 0 sets the exploration appetite."""
    min_gap = 1e-9 * float(np.max(space.span))

    for cycle in range(cycles):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(cycle,)))
        design = list(space.latin_hypercube(rng, n_random_starts))
        if cycle == 0 and x0 is not None:
            design.insert(0, x0)
        start = tracker.evaluations  # this cycle's data: the tracker's tail
        for point in design:
            tracker(point)

        gp = GaussianProcess(space)
        for _ in range(iterations_per_cycle):
            xs = np.array(tracker.points[start:])
            ys = np.array(tracker.values[start:])
            gp.fit(xs, ys)
            candidate = _minimize_lcb(gp, space, kappa, rng,
                                      xs[int(np.argmin(ys))])
            gaps = np.max(np.abs(xs - tracker.preview(candidate)), axis=1)
            if gaps.min() < min_gap:  # duplicate would break the fit
                candidate = space.clip(
                    candidate + rng.uniform(-1e-2, 1e-2, space.dim)
                    * space.span)
            tracker(candidate)
