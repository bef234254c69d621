"""The L-BFGS-B driver against scipy.optimize.minimize, bit for bit.

Each case runs one problem through ``minimize_box`` and through SciPy's
wrapper (``method="L-BFGS-B", jac=True``) and requires the same
evaluated points in the same order, the same final point and the same
final value.
"""

import numpy as np
import pytest

import test_optim
from echelonopt.optim import CubicRbfSurrogate, GaussianProcess, SearchSpace
from echelonopt.optim import gp, minimize, rbf
from echelonopt.optim.lbfgsb import minimize_box


def recorded(fun, points):
    def wrapped(x):
        points.append(x.copy())
        return fun(x)
    return wrapped


def assert_same_as_scipy(fun, x0, lower, upper, maxiter):
    """Both paths on one problem; returns SciPy's result."""
    got, want = [], []
    x, value = minimize_box(recorded(fun, got), x0, lower, upper, maxiter)
    res = test_optim.scipy_minimize(
        recorded(fun, want), x0, jac=True, method="L-BFGS-B",
        bounds=list(zip(lower, upper)), options={"maxiter": maxiter})
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(x, res.x)
    assert value == res.fun
    return res


def fitted_gp(n, d):
    rng = np.random.default_rng(1000 * n + d)
    space, x, y = test_optim.random_gp_data(rng, n, d)
    return rng, space, x, GaussianProcess(space).fit(x, y)


def rosenbrock(x):
    a, b = x[:-1], x[1:]
    value = float(np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2))
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
    grad[1:] += 200.0 * (b - a * a)
    return value, grad


def bowl(x):
    return float(np.sum((x - 1.5) ** 2)), 2.0 * (x - 1.5)


@pytest.mark.parametrize("n,d", test_optim.TestGaussianProcessOracle.SHAPES)
def test_likelihood_fits(n, d):
    rng, space, _, model = fitted_gp(n, d)
    span = space.span
    lower = np.append(np.log(1e-3 * span), np.log(1e-2))
    upper = np.append(np.log(10.0 * span), np.log(1e2))
    for theta0 in (np.append(np.log(0.3 * span), 0.0),
                   np.append(np.log(span), 0.0),
                   test_optim.random_theta(rng, space)):
        assert_same_as_scipy(model._nll_and_grad, theta0, lower, upper, 50)


@pytest.mark.parametrize("n,d", [(5, 2), (20, 10), (40, 32)])
@pytest.mark.parametrize("kappa", [0.0, 2.0])
def test_acquisition_polishes(n, d, kappa):
    rng, space, x, model = fitted_gp(n, d)
    for start in (*space.sample(rng, 2), x[0]):  # x[0]: sigma is 0 there
        assert_same_as_scipy(lambda z: model.lcb_and_grad(z, kappa), start,
                             space.lower, space.upper, 50)


@pytest.mark.parametrize("free", [0, 2, 4])
def test_surrogate_slice_polish(free):
    space = SearchSpace(np.zeros(5), np.full(5, 8.0))
    rng = np.random.default_rng(free)
    x = space.latin_hypercube(rng, 14)
    surrogate = CubicRbfSurrogate(space).fit(x, np.cos(x).sum(axis=1))
    incumbent = x[3]
    lo, hi = incumbent.copy(), incumbent.copy()  # all but one pinned
    lo[free], hi[free] = max(0.0, lo[free] - 2.0), min(8.0, hi[free] + 2.0)
    res = assert_same_as_scipy(
        lambda z: (float(surrogate.predict(z[None, :])[0]),
                   surrogate.gradient(z)),
        x[5], lo, hi, 100)
    assert np.array_equal(np.delete(res.x, free), np.delete(incumbent, free))


def test_start_outside_the_box_is_clipped():
    # strided bounds, as a SearchSpace built from a config has them
    bounds = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
    lower, upper = bounds[:, 0], bounds[:, 1]
    res = assert_same_as_scipy(bowl, np.array([-4.0, 9.0, 1.0]), lower,
                               upper, 100)
    assert np.array_equal(res.x, [1.0, 1.5, 1.5])


def test_run_stopped_by_maxiter():
    lower, upper = np.full(4, -2.0), np.full(4, 2.0)
    res = assert_same_as_scipy(rosenbrock, np.full(4, -1.2), lower, upper, 3)
    assert res.nit == 3 and res.status == 1


def test_run_that_converges_first():
    lower, upper = np.full(4, -2.0), np.full(4, 2.0)
    res = assert_same_as_scipy(rosenbrock, np.full(4, -1.2), lower, upper,
                               1000)
    assert res.nit < 1000 and res.status == 0


def test_flat_penalty_with_zero_gradient():
    space = SearchSpace(np.zeros(1), np.ones(1))
    model = GaussianProcess(space).fit([[0.0], [0.5], [1.0]],
                                       [0.0, 1.0, 0.0])
    sq = np.array([[0.0, 0.0, 1e4], [0.0, 0.0, 0.0], [1e4, 0.0, 0.0]])
    model._sq1d_t = sq[None, :, :].copy()
    theta = np.zeros(2)
    assert model._nll_and_grad(theta)[0] == 1e25
    res = assert_same_as_scipy(model._nll_and_grad, theta, np.full(2, -3.0),
                               np.full(2, 3.0), 50)
    assert res.fun == 1e25 and res.nfev == 1


def test_every_coordinate_pinned():
    point = np.array([0.25, -1.0, 3.0])
    res = assert_same_as_scipy(bowl, np.zeros(3), point, point, 50)
    assert np.array_equal(res.x, point)


@pytest.mark.parametrize("x0,lower,upper,message", [
    (np.zeros(2), np.ones(2), np.zeros(2), "lower bound is greater"),
    (np.zeros(3), np.zeros(1), np.ones(1), "one length"),
    (np.zeros(3), np.zeros(2), np.ones(2), "one length"),
    (np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)), "1-D"),
])
def test_bad_box_raises_before_any_evaluation(x0, lower, upper, message):
    calls = []
    with pytest.raises(ValueError, match=message):
        minimize_box(recorded(bowl, calls), x0, lower, upper, 50)
    assert calls == []


@pytest.mark.parametrize("strategy,settings", [
    ("gp", dict(cycles=1, iterations_per_cycle=6, n_random_starts=4,
                kappa=2.0)),
    ("rbf", {}),  # 30 evaluations in 2-d: full and single-coordinate moves
])
def test_every_call_of_a_search(monkeypatch, strategy, settings):
    calls = []

    def checked(fun, x0, lower, upper, maxiter):
        calls.append(maxiter)
        assert_same_as_scipy(fun, x0, lower, upper, maxiter)
        return minimize_box(fun, x0, lower, upper, maxiter)

    module = {"gp": gp, "rbf": rbf}[strategy]
    monkeypatch.setattr(module, "minimize_box", checked)
    minimize(lambda x: float(np.sum((x - 3.0) ** 2) + np.sin(3.0 * x[0])),
             test_optim.SPACE_2D, test_optim.Budget(max_evaluations=30),
             strategy=strategy, seed=3, **settings)
    assert len(calls) > 10


def test_oracle_fit_runs_scipys_wrapper(monkeypatch):
    runs = []
    wrapper = test_optim.scipy_minimize
    monkeypatch.setattr(test_optim, "scipy_minimize",
                        lambda *args, **kwargs: runs.append(1)
                        or wrapper(*args, **kwargs))
    _, space, x, model = fitted_gp(12, 3)
    test_optim.OracleGaussianProcess(space).fit(x, model._yc)
    assert len(runs) == 2
    GaussianProcess(space).fit(x, model._yc)
    assert len(runs) == 2
