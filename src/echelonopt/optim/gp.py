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

The kernel's per-axis terms are kept as one contiguous plane per axis.
Each likelihood call divides the squared differences by the squared
length scales once, into one ratio array that K's exponent and the
gradient both read, and the prediction scan builds its scaled
differences in the same layout.  ``_plane_sum`` adds those planes in the
order numpy's pairwise summation adds a contiguous row of length d, so K
and every prediction equal the per-point row sums bit for bit.
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


def _plane_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a (d, ...) array over its first axis, bit for bit equal to
    ``np.ascontiguousarray(np.moveaxis(a, 0, -1)).sum(axis=-1)``.

    numpy reduces a contiguous row from +0.0 by pairwise summation: eight
    running sums over blocks of eight, a fixed tree, the tail in order,
    and a split into halves past 128.  Adding whole planes in that order
    gives every element the same roundings, signed zeros included.
    """
    total = _pairwise(a)
    if len(a) >= 8:
        total += 0.0  # the +0.0 the reduction starts from: -0.0 -> +0.0
    return total


def _pairwise(a: np.ndarray) -> np.ndarray:
    d = len(a)
    if d < 8:
        total = a[0] + 0.0
        for plane in a[1:]:
            total += plane
        return total
    if d > 128:
        half = d // 2 - (d // 2) % 8
        return _pairwise(a[:half]) + _pairwise(a[half:])
    blocks = d - d % 8
    r = a[:8] if blocks == 8 else a[:8] + a[8:16]
    for i in range(16, blocks, 8):
        r += a[i:i + 8]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for plane in a[blocks:]:
        total += plane
    return total


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
        # per-fit invariants of the likelihood: the squared coordinate
        # differences as one C-ordered (n, n) plane per axis (the gradient
        # sums each plane as one flat row), the identity that K^-1 is
        # solved from and the Gaussian's constant term
        xt = np.ascontiguousarray(x.T)
        self._sq1d_t = (xt[:, :, None] - xt[:, None, :]) ** 2
        self._eye = np.eye(len(x))
        self._nll_const = 0.5 * len(x) * np.log(2 * np.pi)

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
        # per-fit constants of the kernel and the acquisition
        self._ell2 = self.length_scales ** 2
        self._amp2 = self.amplitude ** 2
        self._x_scaled_t = np.ascontiguousarray((x / self.length_scales).T)
        self._factorize()
        return self

    def _kernel(self, x: np.ndarray) -> np.ndarray:
        """K(x, x_train) from one (m, n) plane of scaled differences
        per axis."""
        xt = np.ascontiguousarray((x / self.length_scales).T)
        diff = xt[:, :, None] - self._x_scaled_t[:, None, :]
        np.multiply(diff, diff, out=diff)
        return self._amp2 * np.exp(-0.5 * _plane_sum(diff))

    def _nll_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        ell2 = np.exp(2.0 * theta[:-1])
        amp2 = np.exp(2.0 * theta[-1])
        # one ratio plane (x_ik - x_jk)^2 / ell_k^2 per axis k: K's
        # exponent sums the planes, the gradient weighs each by W * K
        ratio = self._sq1d_t / ell2[:, None, None]
        k = amp2 * np.exp(-0.5 * _plane_sum(ratio))
        n, d = len(k), len(ell2)
        kj = k.copy()
        kj.flat[::n + 1] += BASE_JITTER * amp2 + 1e-12
        chol = _lower_cholesky(kj)
        if chol is None:  # not positive definite
            return 1e25, np.zeros_like(theta)
        alpha = _cho_solve(chol, self._yc)
        nll = (0.5 * float(self._yc @ alpha)
               + float(np.log(np.diag(chol)).sum())
               + self._nll_const)
        # dNLL/dtheta_j = 0.5 tr((K^-1 - alpha alpha^T) dK/dtheta_j)
        k_inv = _cho_solve(chol, self._eye)
        w = k_inv - alpha[:, None] * alpha
        grad = np.empty_like(theta)
        wk = w * k
        # the ratio planes, weighted in place, are one contiguous n*n row
        # per axis, each summed pairwise along its length; einsum, a
        # matmul or an axis-0 sum would add in another order and change
        # the bits of theta
        np.multiply(wk, ratio, out=ratio)
        grad[:-1] = 0.5 * ratio.reshape(d, -1).sum(axis=1)
        grad[-1] = float(wk.sum()) + BASE_JITTER * amp2 * float(w.trace())
        return nll, grad

    def _factorize(self) -> None:
        k = self._kernel(self.x_train)
        scale = self._amp2
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
        k_star = self._kernel(x)
        mu = k_star @ self._alpha
        v = _cho_solve(self._chol, np.asarray_chkfinite(k_star).T)
        var = self._amp2 - np.sum(k_star * v.T, axis=1)
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
        ell2 = self._ell2
        diff = self.x_train - x[None, :]
        k_star = self._amp2 * np.exp(-0.5 * (diff * diff / ell2).sum(axis=1))
        dk = (k_star[:, None] * diff) / ell2  # rows: dk_i/dx
        mu = float(k_star @ self._alpha)
        dmu = self._alpha @ dk
        v = _cho_solve(self._chol, np.asarray_chkfinite(k_star))
        var = max(self._amp2 - float(k_star @ v), 0.0)
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
