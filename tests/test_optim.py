import inspect

import numpy as np
import pytest

from echelonopt.config import DEFAULT_OPTIMIZER_SETTINGS, STRATEGIES
from echelonopt.model import repair_policy_array
from echelonopt.optim import (
    Budget,
    BudgetExhaustedError,
    CubicRbfSurrogate,
    GaussianProcess,
    NonFiniteObjectiveError,
    SearchSpace,
    SingularInterpolationError,
    minimize,
)
from echelonopt.optim import gp, nelder_mead, rbf


def quadratic(x):
    return float(np.sum((x - 3.0) ** 2))


def vee(x):
    return float(np.abs(x[0] - 5.0))


SPACE_2D = SearchSpace(np.zeros(2), np.full(2, 10.0))


class TestSearchSpace:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SearchSpace([0.0, 5.0], [10.0, 5.0])

    def test_latin_hypercube_strata(self):
        space = SearchSpace(np.array([0.0, -2.0]), np.array([8.0, 2.0]))
        pts = space.latin_hypercube(np.random.default_rng(3), 16)
        assert pts.shape == (16, 2)
        assert np.all(pts >= space.lower) and np.all(pts <= space.upper)
        for axis in range(2):
            u = (pts[:, axis] - space.lower[axis]) / space.span[axis]
            strata = np.floor(u * 16).astype(int)
            assert sorted(strata) == list(range(16))


class TestBudget:
    @pytest.mark.parametrize("kwargs", [
        {"max_evaluations": 0},
        {"max_minutes": 0.0},
    ])
    def test_nonpositive_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)

    def test_message_names_the_value(self):
        with pytest.raises(ValueError,
                           match="max_minutes must be positive, got 0"):
            Budget(max_minutes=0)


STRATEGY_CASES = [
    ("nelder-mead", {"cycles": 3, "iterations_per_cycle": 15},
     Budget(max_evaluations=60)),
    ("gp", {"cycles": 2, "iterations_per_cycle": 12, "kappa": 2.0,
            "n_random_starts": 6}, Budget(max_evaluations=40)),
    ("rbf", {}, Budget(max_evaluations=40)),
]
SEARCHES = {"nelder-mead": nelder_mead.nelder_mead_restart,
            "gp": gp.gp_optimize, "rbf": rbf.rbf_optimize}


class TestSearchSettings:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_search_requires_exactly_the_table_settings(self, strategy):
        params = inspect.signature(SEARCHES[strategy]).parameters.values()
        keyword_only = [p for p in params if p.kind is p.KEYWORD_ONLY]
        table = set(DEFAULT_OPTIMIZER_SETTINGS[strategy]) - {
            "max_evaluations", "max_minutes", "seed"}
        assert {p.name for p in keyword_only} - {"seed", "x0"} == table
        assert all(p.default is p.empty for p in keyword_only)

    @pytest.mark.parametrize("strategy,name,value", [
        *((strategy, name, value)
          for strategy, names in [
              ("nelder-mead", ("cycles", "iterations_per_cycle")),
              ("gp", ("cycles", "iterations_per_cycle", "n_random_starts"))]
          for name in names for value in (0, -3)),
        ("gp", "kappa", -0.5),
    ])
    def test_bad_setting_rejected_before_any_evaluation(self, strategy, name,
                                                        value):
        settings = {**dict((s, k) for s, k, _ in STRATEGY_CASES)[strategy],
                    name: value}
        calls = []
        with pytest.raises(ValueError, match=rf"^{name} must be >= "):
            minimize(lambda x: calls.append(x) or 0.0, SPACE_2D,
                     Budget(max_evaluations=10), strategy=strategy, seed=0,
                     **settings)
        assert calls == []


class TestMinimizeContract:
    @pytest.mark.parametrize("strategy,kwargs,budget", STRATEGY_CASES)
    def test_trace_nonincreasing_and_consistent(self, strategy, kwargs,
                                                budget):
        run = minimize(quadratic, SPACE_2D, budget, strategy=strategy,
                       seed=5, **kwargs)
        trace = run.best_so_far_trace
        assert np.all(np.diff(trace) <= 0)
        assert run.best_value == trace[-1]
        assert run.evaluations_used == len(trace) <= budget.max_evaluations
        assert np.all(run.best_point >= SPACE_2D.lower)
        assert np.all(run.best_point <= SPACE_2D.upper)

    @pytest.mark.parametrize("strategy,kwargs,budget", STRATEGY_CASES)
    def test_same_seed_identical_runs(self, strategy, kwargs, budget):
        a = minimize(quadratic, SPACE_2D, budget, strategy=strategy,
                     seed=11, **kwargs)
        b = minimize(quadratic, SPACE_2D, budget, strategy=strategy,
                     seed=11, **kwargs)
        assert np.array_equal(a.best_so_far_trace, b.best_so_far_trace)
        assert np.array_equal(a.evaluated_points, b.evaluated_points)

    @pytest.mark.parametrize("strategy,kwargs,budget", STRATEGY_CASES)
    def test_single_evaluation_budget(self, strategy, kwargs, budget):
        run = minimize(quadratic, SPACE_2D, Budget(max_evaluations=1), strategy=strategy,
                       seed=2, **kwargs)
        assert run.evaluations_used == 1
        assert run.best_value == quadratic(run.best_point)

    @pytest.mark.parametrize("strategy,kwargs,budget", STRATEGY_CASES)
    def test_starts_from_supplied_initial_guess(self, strategy, kwargs,
                                                budget):
        x0 = np.array([1.25, 8.5])
        run = minimize(quadratic, SPACE_2D, Budget(max_evaluations=3), strategy=strategy,
                       seed=0, x0=x0, **kwargs)
        assert np.array_equal(run.evaluated_points[0], x0)
        assert run.evaluated_values[0] == quadratic(x0)

    @pytest.mark.parametrize("strategy,kwargs,budget", STRATEGY_CASES)
    def test_non_finite_objective_raises_naming_the_point(
            self, strategy, kwargs, budget):
        with pytest.raises(NonFiniteObjectiveError,
                           match=r"inf at \[1\.25, 8\.5\]"):
            minimize(lambda x: float("inf"), SPACE_2D, budget,
                     strategy=strategy, seed=0, x0=np.array([1.25, 8.5]),
                     **kwargs)

    def test_degenerate_wall_time_raises(self):
        budget = Budget(max_evaluations=10, max_minutes=1e-12)
        with pytest.raises(BudgetExhaustedError):
            minimize(quadratic, SPACE_2D, budget, strategy="rbf", seed=0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            minimize(quadratic, SPACE_2D, Budget(), strategy="annealing")

    def test_log_sink_sees_every_evaluation(self):
        records = []
        budget = Budget(max_evaluations=25)
        run = minimize(quadratic, SPACE_2D, budget, strategy="rbf", seed=4,
                       log=lambda i, x, z, best: records.append((i, z, best)))
        assert len(records) == run.evaluations_used
        assert [r[0] for r in records] == list(range(1, len(records) + 1))
        assert records[-1][2] == run.best_value

    def test_repair_hook_applied_to_reported_points(self):
        lo, hi = np.zeros(2), np.array([50.0, 80.0])
        space = SearchSpace(lo, hi)
        run = minimize(lambda x: float(np.sum(x)), space,
                       Budget(max_evaluations=30), strategy="rbf", seed=9,
                       repair=lambda x: repair_policy_array(x, lo, hi))
        for point in run.evaluated_points:
            assert np.array_equal(point, np.rint(point))
            assert point[1] >= point[0]  # B >= R layout for one facility
        assert np.array_equal(run.best_point, np.rint(run.best_point))


class TestNelderMead:
    def test_converges_on_vee_function(self):
        space = SearchSpace(np.array([0.0]), np.array([10.0]))
        run = minimize(vee, space, Budget(max_evaluations=400),
                       strategy="nelder-mead", seed=1, cycles=10,
                       iterations_per_cycle=40)
        assert abs(run.best_point[0] - 5.0) < 1e-3

    def test_collapse_triggers_early_restart(self, monkeypatch):
        # With an absurdly large collapse tolerance every cycle stops
        # right after evaluating its fresh simplex, so the run burns
        # exactly cycles * (dim + 1) evaluations.
        monkeypatch.setattr(nelder_mead, "COLLAPSE_TOL", 10.0)
        run = minimize(quadratic, SPACE_2D, Budget(max_evaluations=1000),
                       strategy="nelder-mead", seed=3, cycles=4,
                       iterations_per_cycle=50)
        assert run.evaluations_used == 4 * 3

    def test_iterations_per_cycle_counts_simplex_steps(self):
        counts = [
            minimize(quadratic, SPACE_2D, Budget(max_evaluations=1000),
                     strategy="nelder-mead", seed=0,
                     x0=np.array([1.25, 8.5]), cycles=1,
                     iterations_per_cycle=k).evaluations_used
            for k in range(1, 9)]
        assert counts == [5, 7, 9, 10, 12, 14, 15, 17]

    def test_each_cycle_starts_from_a_fresh_simplex(self):
        x0 = np.array([1.25, 8.5])
        settings = {"strategy": "nelder-mead", "seed": 4, "x0": x0,
                    "iterations_per_cycle": 6}
        first = minimize(quadratic, SPACE_2D, Budget(max_evaluations=1000),
                         cycles=1, **settings)
        run = minimize(quadratic, SPACE_2D, Budget(max_evaluations=1000),
                       cycles=2, **settings)
        rng = np.random.default_rng(4)
        n = first.evaluations_used
        for start, incumbent, scale in [(0, x0, 1.0),
                                        (n, first.best_point, 0.5)]:
            steps = (rng.choice((-1.0, 1.0), size=2) * scale
                     * nelder_mead.INITIAL_STEP_FRACTION * SPACE_2D.span)
            assert np.array_equal(
                run.evaluated_points[start:start + 3],
                nelder_mead._initial_simplex(incumbent, steps, SPACE_2D))

    def test_optimum_on_a_bound_without_repair(self):
        run = minimize(lambda x: float(x[0] + 2.0 * x[1]), SPACE_2D,
                       Budget(max_evaluations=300), strategy="nelder-mead",
                       seed=0, x0=np.array([6.0, 7.0]), cycles=6,
                       iterations_per_cycle=40)
        assert np.all(run.evaluated_points >= SPACE_2D.lower)
        assert np.all(run.evaluated_points <= SPACE_2D.upper)
        assert run.best_point.tolist() == [0.0, 0.0]


class TestGaussianProcess:
    def test_noise_free_interpolation_and_variance(self):
        space = SearchSpace(np.zeros(3), np.full(3, 4.0))
        rng = np.random.default_rng(8)
        x = space.latin_hypercube(rng, 14)
        y = np.sin(x).sum(axis=1) + 0.3 * x[:, 0] ** 2
        gp = GaussianProcess(space).fit(x, y)
        mu, sigma = gp.predict(x)
        scale = max(1.0, float(np.abs(y).max()))
        assert np.abs(mu - y).max() <= 1e-5 * scale
        assert np.all(sigma ** 2 <= gp.jitter_ * gp._y_scale ** 2 + 1e-9)

    def test_kappa_zero_reduces_to_posterior_mean(self):
        space = SearchSpace(np.zeros(2), np.full(2, 1.0))
        rng = np.random.default_rng(1)
        x = space.latin_hypercube(rng, 10)
        y = (x ** 2).sum(axis=1)
        gp = GaussianProcess(space).fit(x, y)
        grid = space.sample(rng, 64)
        mu, _ = gp.predict(grid)
        assert np.allclose(gp.lower_confidence_bound(grid, 0.0), mu)

    def test_optimize_quadratic_loosely(self):
        run = minimize(quadratic, SPACE_2D, Budget(max_evaluations=120),
                       strategy="gp", cycles=2, iterations_per_cycle=50,
                       kappa=2.0, n_random_starts=8, seed=3)
        assert run.best_value < 1e-2

    def test_no_fit_after_the_last_evaluation(self, monkeypatch):
        fits = []
        fit = GaussianProcess.fit
        monkeypatch.setattr(GaussianProcess, "fit",
                            lambda self, x, y: fits.append(len(x))
                            or fit(self, x, y))
        run = minimize(quadratic, SPACE_2D, Budget(max_evaluations=5),
                       strategy="gp", seed=0, cycles=1,
                       iterations_per_cycle=5, n_random_starts=3, kappa=2.0)
        assert run.evaluations_used == 5
        assert fits == [3, 4]


class TestCubicRbf:
    def test_interpolates_random_design(self):
        space = SearchSpace(np.zeros(4), np.full(4, 7.0))
        rng = np.random.default_rng(2)
        x = space.latin_hypercube(rng, 20)
        y = np.cos(x).sum(axis=1) * 10.0 + x[:, 2]
        surrogate = CubicRbfSurrogate(space).fit(x, y)
        pred = surrogate.predict(x)
        assert np.abs(pred - y).max() <= 1e-8 * max(1.0, np.abs(y).max())

    def test_gradient_matches_finite_difference(self):
        space = SearchSpace(np.zeros(3), np.full(3, 5.0))
        rng = np.random.default_rng(4)
        x = space.latin_hypercube(rng, 12)
        y = (x ** 2).sum(axis=1)
        surrogate = CubicRbfSurrogate(space).fit(x, y)
        point = np.array([1.1, 2.7, 3.3])
        grad = surrogate.gradient(point)
        eps = 1e-6
        for j in range(3):
            shifted = point.copy()
            shifted[j] += eps
            fd = (surrogate.predict(shifted[None, :])[0]
                  - surrogate.predict(point[None, :])[0]) / eps
            assert abs(fd - grad[j]) < 1e-3 * max(1.0, abs(grad[j]))

    def test_constant_data_gives_constant_surrogate(self):
        space = SearchSpace(np.zeros(2), np.full(2, 1.0))
        rng = np.random.default_rng(5)
        x = space.latin_hypercube(rng, 8)
        surrogate = CubicRbfSurrogate(space).fit(x, np.full(8, 42.0))
        probes = space.sample(rng, 30)
        assert np.allclose(surrogate.predict(probes), 42.0, atol=1e-7)

    def test_inconsistent_duplicates_raise(self):
        space = SearchSpace(np.zeros(2), np.full(2, 1.0))
        x = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.5]])
        with pytest.raises(SingularInterpolationError):
            CubicRbfSurrogate(space).fit(x, np.array([1.0, 2.0, 3.0]))

    def test_consistent_duplicates_fall_back_to_least_squares(self, caplog):
        space = SearchSpace(np.zeros(2), np.full(2, 1.0))
        x = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.5], [0.4, 0.9]])
        y = np.array([1.0, 1.0, 3.0, 2.0])
        with caplog.at_level("DEBUG", logger="echelonopt.optim.rbf"):
            surrogate = CubicRbfSurrogate(space).fit(x, y)
        assert np.allclose(surrogate.predict(x), y, atol=1e-8)
        assert [r.getMessage() for r in caplog.records] == [
            "rbf fit on 4 points: direct solve failed, falling back to "
            "least squares"]

    def test_duplicate_proposal_nudged_then_explored(self, caplog):
        # repair sends every proposal to one point, so no nudge can
        # separate the second design point from the first
        with caplog.at_level("DEBUG", logger="echelonopt.optim.rbf"):
            run = minimize(quadratic, SPACE_2D, Budget(max_evaluations=2),
                           strategy="rbf", seed=0,
                           repair=lambda x: np.full(np.shape(x), 5.0))
        assert run.evaluated_points.tolist() == [[5.0, 5.0]] * 2
        assert [r.getMessage() for r in caplog.records] == [
            *(f"rbf proposal at evaluation 1 is 0 from an evaluated point; "
              f"nudging it by up to {0.01 * i:g} of the span"
              for i in range(1, 17)),
            "rbf proposal at evaluation 1 still a duplicate; exploring "
            "instead"]

    def test_no_fit_after_the_last_evaluation(self, monkeypatch):
        fits = []
        fit = CubicRbfSurrogate.fit
        monkeypatch.setattr(CubicRbfSurrogate, "fit",
                            lambda self, x, y: fits.append(len(x))
                            or fit(self, x, y))
        run = minimize(quadratic, SPACE_2D, Budget(max_evaluations=8),
                       strategy="rbf", seed=0)
        assert run.evaluations_used == 8
        assert fits == [6]  # the design's six points; then one explore

    def test_optimize_quadratic_loosely(self):
        run = minimize(quadratic, SPACE_2D, Budget(max_evaluations=80),
                       strategy="rbf", seed=6)
        assert run.best_value < 1e-3
