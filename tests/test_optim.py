import inspect
import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.spatial.distance import cdist

from echelonopt.config import (
    DEFAULT_OPTIMIZER_SETTINGS,
    STRATEGIES,
    load_config,
)
from echelonopt.model import repair_policy_array
from echelonopt.optim import (
    Budget,
    BudgetExhaustedError,
    CubicRbfSurrogate,
    EvaluationTracker,
    GaussianProcess,
    NonFiniteObjectiveError,
    SearchSpace,
    SingularInterpolationError,
    SingularKernelError,
    minimize,
)
from echelonopt.optim import gp, nelder_mead, rbf
from test_acceptance import PRESET


def quadratic(x):
    return float(np.sum((x - 3.0) ** 2))


def vee(x):
    return float(np.abs(x[0] - 5.0))


SPACE_2D = SearchSpace(np.zeros(2), np.full(2, 10.0))


class TestSearchSpace:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SearchSpace([0.0, 5.0], [10.0, 5.0])

    @pytest.mark.parametrize("lower,upper", [
        ([0.0], [math.inf]), ([-math.inf], [1.0]), ([math.nan], [1.0]),
        ([0.0, 0.0], [1.0, math.nan]),
    ])
    def test_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="^bounds must be finite, got "):
            SearchSpace(lower, upper)

    @pytest.mark.parametrize("lower,upper", [
        ([0.0], [1.0, 2.0]),
        ([[0.0, 0.0]], [[1.0, 1.0]]),
    ], ids=["lengths", "2-D"])
    def test_rejects_incongruent_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="1-D and congruent"):
            SearchSpace(lower, upper)

    def test_copies_the_callers_bounds(self):
        lo, hi = np.zeros(3), np.full(3, 4.0)
        space = SearchSpace(lo, hi)
        assert lo.flags.writeable and hi.flags.writeable
        assert not np.shares_memory(space.lower, lo)
        assert not np.shares_memory(space.upper, hi)
        lo[0] = hi[0] = 2.0
        assert space.lower[0] == 0.0 and space.upper[0] == 4.0

    def test_preset_bounds_are_contiguous_and_read_only(self):
        space = load_config(PRESET).space
        for bound in (space.lower, space.upper, space.span):
            assert bound.flags.c_contiguous and not bound.flags.writeable
        assert np.array_equal(space.span, space.upper - space.lower)

    def test_unit_box_maps(self):
        space = SearchSpace(np.array([0.0, -2.0]), np.array([8.0, 2.0]))
        assert space.to_unit([[0.0, -2.0], [8.0, 2.0], [2.0, 0.0]]).tolist() \
            == [[0.0, 0.0], [1.0, 1.0], [0.25, 0.5]]
        assert space.from_unit(np.array([0.25, 0.5])).tolist() == [2.0, 0.0]

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_minutes_rejected(self, value):
        with pytest.raises(ValueError,
                           match=f"max_minutes must be finite, got {value}"):
            Budget(max_minutes=value)

    @pytest.mark.parametrize("value", [10**20, 10**400])
    def test_integer_beyond_int64_accepted(self, value):
        assert Budget(max_evaluations=value).max_evaluations == value


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

    @pytest.mark.parametrize("strategy,name,value,rule", [
        *((strategy, name, value, ">= ")
          for strategy, names in [
              ("nelder-mead", ("cycles", "iterations_per_cycle")),
              ("gp", ("cycles", "iterations_per_cycle", "n_random_starts"))]
          for name in names for value in (0, -3)),
        ("gp", "kappa", -0.5, ">= "),
        ("gp", "kappa", -math.inf, ">= "),
        ("gp", "kappa", math.nan, "finite"),
        ("gp", "kappa", math.inf, "finite"),
        ("gp", "n_random_starts", math.nan, "finite"),
        ("nelder-mead", "cycles", math.inf, "finite"),
    ])
    def test_bad_setting_rejected_before_any_evaluation(self, strategy, name,
                                                        value, rule):
        settings = {**dict((s, k) for s, k, _ in STRATEGY_CASES)[strategy],
                    name: value}
        calls = []
        with pytest.raises(ValueError, match=rf"^{name} must be {rule}"):
            minimize(lambda x: calls.append(x) or 0.0, SPACE_2D,
                     Budget(max_evaluations=10), strategy=strategy, seed=0,
                     **settings)
        assert calls == []

    @pytest.mark.parametrize("strategy,kwargs,budget", STRATEGY_CASES)
    def test_negative_seed_rejected_before_any_evaluation(self, strategy,
                                                          kwargs, budget):
        calls = []
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            minimize(lambda x: calls.append(x) or 0.0, SPACE_2D, budget,
                     strategy=strategy, seed=-1, **kwargs)
        assert calls == []

    @pytest.mark.parametrize("x0,shown", [
        ([5.0], r"\[5\.0\]"),
        ([[1.0, 2.0, 3.0]], r"\[\[1\.0, 2\.0, 3\.0\]\]"),
        ([1.0, math.nan, 3.0], r"\[1\.0, nan, 3\.0\]"),
    ], ids=["too-short", "2-D", "nan"])
    @pytest.mark.parametrize("strategy,kwargs,budget", STRATEGY_CASES)
    def test_bad_x0_rejected_before_any_evaluation(self, strategy, kwargs,
                                                   budget, x0, shown):
        calls = []
        with pytest.raises(ValueError,
                           match=rf"^x0 must be 3 finite numbers, got {shown}$"):
            minimize(lambda x: calls.append(x) or 0.0,
                     SearchSpace(np.zeros(3), np.full(3, 10.0)), budget,
                     strategy=strategy, seed=0, x0=x0, **kwargs)
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
        with pytest.raises(ValueError,
                           match="expected one of nelder-mead, gp, rbf"):
            minimize(quadratic, SPACE_2D, Budget(), strategy="annealing")

    def test_tracker_scores_its_preview(self, monkeypatch):
        # rbf and gp rank candidates by preview(x): evaluation must score
        # exactly that point
        monkeypatch.setattr(EvaluationTracker, "preview",
                            lambda self, x: np.asarray(x) + 1.0)
        seen = []
        tracker = EvaluationTracker(lambda x: seen.append(x) or 0.0,
                                    Budget(max_evaluations=5))
        tracker(np.array([1.0, 2.0]))
        assert seen[0].tolist() == tracker.points[0].tolist() == [2.0, 3.0]

    def test_repeated_points_are_scored_once(self, monkeypatch):
        lo, hi = np.zeros(4), np.full(4, 60.0)
        space = SearchSpace(lo, hi)

        def run():
            calls, rows = [], []
            result = minimize(
                lambda x: calls.append(x.tobytes()) or quadratic(x), space,
                Budget(max_evaluations=120), strategy="nelder-mead", seed=2,
                x0=np.full(4, 36.0), cycles=4, iterations_per_cycle=30,
                repair=lambda x: repair_policy_array(x, lo, hi),
                log=lambda i, x, z, best: rows.append((i, x.tolist(), z,
                                                       best)))
            return result, calls, rows

        memo, memo_calls, memo_rows = run()

        class Forgetful(dict):  # no memo: every point is scored
            def __setitem__(self, key, value):
                pass
        init = EvaluationTracker.__init__

        def forgetful_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._memo = Forgetful()
        monkeypatch.setattr(EvaluationTracker, "__init__", forgetful_init)
        plain, plain_calls, plain_rows = run()

        rows = [p.tobytes() for p in plain.evaluated_points]
        assert len(plain_calls) == plain.evaluations_used == 120
        assert len(set(rows)) < 60  # the search repeats points
        assert memo_calls == list(dict.fromkeys(rows))  # once per distinct
        assert np.array_equal(memo.evaluated_points, plain.evaluated_points)
        assert np.array_equal(memo.evaluated_values, plain.evaluated_values)
        assert np.array_equal(memo.best_so_far_trace,
                              plain.best_so_far_trace)
        assert memo_rows == plain_rows
        assert (memo.best_value, memo.evaluations_used) == \
            (plain.best_value, plain.evaluations_used)

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

    def test_constant_targets_keep_a_unit_scale(self):
        space = SearchSpace(np.zeros(2), np.full(2, 1.0))
        rng = np.random.default_rng(5)
        x = space.latin_hypercube(rng, 8)
        gp = GaussianProcess(space).fit(x, np.full(8, 42.0))
        assert gp._y_scale == 1.0
        mu, _ = gp.predict(space.sample(rng, 30))
        assert np.all(mu == 42.0)

    def test_kappa_zero_reduces_to_posterior_mean(self):
        space = SearchSpace(np.zeros(2), np.full(2, 1.0))
        rng = np.random.default_rng(1)
        x = space.latin_hypercube(rng, 10)
        y = (x ** 2).sum(axis=1)
        gp = GaussianProcess(space).fit(x, y)
        grid = space.sample(rng, 64)
        mu, _ = gp.predict(grid)
        assert np.allclose(gp.lower_confidence_bound(grid, 0.0), mu)

    def test_zero_variance_at_a_training_point(self):
        """With amplitude 1 and a jitter-free factor of [[1]], the posterior
        variance at the one training point is exactly 0: the acquisition
        drops sigma's term instead of dividing 0 by 0, whose RuntimeWarning
        pyproject.toml's filterwarnings turns into an error."""
        space = SearchSpace(np.zeros(2), np.full(2, 1.0))
        x = np.array([[0.25, 0.75]])
        model = GaussianProcess(space).fit(x, np.array([3.0]))
        model.amplitude, model._amp2 = 1.0, 1.0
        model._chol = np.array([[1.0]])
        results = [model.lcb_and_grad(x[0], kappa) for kappa in (0.0, 5.0)]
        for value, grad in results:
            assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])

    def test_optimize_quadratic_loosely(self):
        run = minimize(quadratic, SPACE_2D, Budget(max_evaluations=120),
                       strategy="gp", cycles=2, iterations_per_cycle=50,
                       kappa=2.0, n_random_starts=8, seed=3)
        assert run.best_value < 1e-2

    @pytest.mark.parametrize("failures", [2, None])
    def test_failed_factorization_raises_the_jitter(self, monkeypatch,
                                                    caplog, failures):
        """Each failed factorization multiplies the jitter by 100 and logs
        it; past MAX_JITTER (failures=None: every attempt fails) the
        factorization raises SingularKernelError."""
        space = SearchSpace(np.zeros(2), np.full(2, 1.0))
        x = space.latin_hypercube(np.random.default_rng(1), 8)
        y = (x ** 2).sum(axis=1)
        model = GaussianProcess(space).fit(x, y)
        attempts = []
        factor = gp.dpotrf

        def flaky(matrix, **kwargs):
            attempts.append(matrix.copy())
            if failures is None or len(attempts) <= failures:
                return matrix, 1  # info > 0: not positive definite
            return factor(matrix, **kwargs)
        monkeypatch.setattr(gp, "dpotrf", flaky)
        caplog.set_level("DEBUG", logger=gp.__name__)
        if failures is None:
            with pytest.raises(SingularKernelError,
                               match=r"positive definite at jitter 0\.0001$"):
                model._factorize()
        else:
            model._factorize()
        jitters = [1e-10, 1e-8, 1e-6, 1e-4][:len(attempts)]
        assert len(attempts) == (4 if failures is None else failures + 1)
        scale = model.amplitude ** 2
        for jitter, matrix in zip(jitters[1:], attempts[1:]):
            added = matrix - attempts[0]  # only the diagonal grows
            assert np.array_equal(added, np.diag(np.diag(added)))
            assert np.allclose(np.diag(added), (jitter - 1e-10) * scale,
                               rtol=1e-6, atol=0.0)
        assert [r.getMessage().rsplit(" ", 1)[1] for r in caplog.records] \
            == [f"{j:g}" for j in jitters[1:]]
        if failures is not None:
            assert model.jitter_ == pytest.approx(jitters[-1] * scale)

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



def full_scan(candidates, evaluated):
    """The max-min-distance scan ``rbf._farthest`` must reproduce."""
    return int(np.argmax(cdist(candidates, evaluated).min(axis=1)))


def random_explore_case(rng):
    """Candidates and evaluated rows, some on a lattice or duplicated."""
    d = int(rng.integers(1, 41))
    n = int(rng.integers(1, rbf.EXPLORE_PROBES + 1) if rng.random() < 0.2
            else rng.integers(1, 301))
    m = int(rng.integers(1, 401))
    kind = rng.integers(4)
    if kind == 0:  # plain uniform draws, as _explore makes them
        evaluated = rng.uniform(size=(n, d))
        candidates = rng.uniform(size=(m, d))
    else:  # lattice values: many exactly equal distances
        steps = int(rng.integers(1, 5))
        evaluated = rng.integers(0, steps + 1, (n, d)) / steps
        candidates = rng.integers(0, steps + 1, (m, d)) / steps
    if kind >= 2:  # duplicated evaluated and candidate rows
        evaluated = evaluated[rng.integers(0, n, n)]
        candidates = candidates[rng.integers(0, m, m)]
    return candidates, evaluated


class TestFarthest:
    def test_farthest_equals_full_scan(self):
        rng = np.random.default_rng(24)
        ties = 0
        for case in range(1200):
            candidates, evaluated = random_explore_case(rng)
            expected = full_scan(candidates, evaluated)
            assert rbf._farthest(candidates, evaluated) == expected, case
            nearest = cdist(candidates, evaluated).min(axis=1)
            ties += np.count_nonzero(nearest == nearest[expected]) > 1
        assert ties > 300  # the lowest-index rule was exercised

    def test_farthest_tie_goes_to_lower_index(self, monkeypatch):
        # one probe row (0.0) and one candidate per block: candidate 1's
        # bound puts it first, and candidate 0 ties it exactly with a
        # bound equal to the best distance, so it must still be checked
        monkeypatch.setattr(rbf, "EXPLORE_PROBES", 1)
        monkeypatch.setattr(rbf, "EXPLORE_BLOCK", 1)
        evaluated = np.array([[0.0], [1.0]])
        candidates = np.array([[0.25], [0.75], [0.1]])
        assert full_scan(candidates, evaluated) == 0
        assert rbf._farthest(candidates, evaluated) == 0

    def test_cdist_sub_block_is_bit_identical(self):
        # _farthest compares distances computed in different blocks; it
        # is exact only while cdist gives a pair the same bits in any
        # block, strided rows included
        rng = np.random.default_rng(7)
        for case in range(600):
            d = int(rng.integers(1, 41))
            a = rng.uniform(size=(int(rng.integers(1, 200)), d))
            b = rng.uniform(size=(int(rng.integers(1, 200)), d))
            rows = rng.integers(0, len(a), int(rng.integers(1, 80)))
            step = int(rng.integers(1, 10))
            full = cdist(a, b)
            block = cdist(a[rows], b[::step])
            assert np.array_equal(full[rows][:, ::step].view(np.uint64),
                                  block.view(np.uint64)), case


# The wrapper-path formulas GaussianProcess used before it called LAPACK
# and L-BFGS-B directly: SciPy's cholesky/cho_solve, one reduction per
# axis and scipy.optimize.minimize.  The fast path must reproduce them
# bit for bit.
def scipy_lbfgsb(fun, x0, lower, upper, maxiter):
    """``lbfgsb.minimize_box`` through SciPy's wrapper: the reference."""
    res = scipy_minimize(fun, x0, jac=True, method="L-BFGS-B",
                         bounds=list(zip(lower, upper)),
                         options={"maxiter": maxiter})
    return res.x, res.fun


def oracle_kernel(model, a, b):
    ell = model.length_scales
    d = a[:, None, :] / ell - b[None, :, :] / ell
    return model.amplitude ** 2 * np.exp(-0.5 * np.sum(d * d, axis=2))


def oracle_nll_and_grad(model, theta):
    from scipy.linalg import cho_solve, cholesky
    ell2 = np.exp(2.0 * theta[:-1])
    amp2 = np.exp(2.0 * theta[-1])
    # per point pair, one contiguous row of d squared differences
    sq1d = np.ascontiguousarray(model._sq1d_t.transpose(1, 2, 0))
    scaled = sq1d / ell2
    k = amp2 * np.exp(-0.5 * scaled.sum(axis=2))
    kj = k.copy()
    kj[np.diag_indices_from(kj)] += gp.BASE_JITTER * amp2 + 1e-12
    n = len(kj)
    try:
        chol = cholesky(kj, lower=True)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros_like(theta)
    alpha = cho_solve((chol, True), model._yc)
    nll = (0.5 * float(model._yc @ alpha)
           + float(np.log(np.diag(chol)).sum())
           + 0.5 * n * np.log(2 * np.pi))
    w = cho_solve((chol, True), np.eye(n)) - np.outer(alpha, alpha)
    grad = np.empty_like(theta)
    wk = w * k
    for j in range(len(theta) - 1):
        grad[j] = 0.5 * float((wk * scaled[:, :, j]).sum())
    grad[-1] = float(wk.sum()) + gp.BASE_JITTER * amp2 * float(np.trace(w))
    return nll, grad


def oracle_predict(model, x):
    from scipy.linalg import cho_solve
    x = np.atleast_2d(np.asarray(x, dtype=float))
    k_star = oracle_kernel(model, x, model.x_train)
    mu = k_star @ model._alpha
    v = cho_solve((model._chol, True), k_star.T)
    var = np.maximum(model.amplitude ** 2 - np.sum(k_star * v.T, axis=1),
                     0.0)
    return (mu * model._y_scale + model._y_mean,
            np.sqrt(var) * model._y_scale)


def oracle_lcb_and_grad(model, x, kappa):
    from scipy.linalg import cho_solve
    x = np.asarray(x, dtype=float)
    ell2 = model.length_scales ** 2
    diff = model.x_train - x[None, :]
    k_star = model.amplitude ** 2 * np.exp(
        -0.5 * np.sum(diff * diff / ell2, axis=1))
    dk = (k_star[:, None] * diff) / ell2
    mu = float(k_star @ model._alpha)
    dmu = model._alpha @ dk
    v = cho_solve((model._chol, True), k_star)
    var = max(model.amplitude ** 2 - float(k_star @ v), 0.0)
    sigma = np.sqrt(var)
    if sigma > 1e-12 * model.amplitude:
        dsigma = -(v @ dk) / sigma
    else:
        sigma, dsigma = 0.0, np.zeros_like(x)
    value = (mu - kappa * sigma) * model._y_scale + model._y_mean
    return float(value), (dmu - kappa * dsigma) * model._y_scale


class OracleGaussianProcess(GaussianProcess):
    _nll_and_grad = oracle_nll_and_grad
    predict = oracle_predict
    lcb_and_grad = oracle_lcb_and_grad

    def fit(self, x, y):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gp, "minimize_box", scipy_lbfgsb)
            return super().fit(x, y)


def random_gp_data(rng, n, d):
    """A box, n points in it with one duplicated row, and targets."""
    space = SearchSpace(np.zeros(d), rng.uniform(1.0, 100.0, d))
    x = space.sample(rng, n)
    if n > 2:
        x[-1] = x[0]  # duplicates are what push the kernel to singular
    y = rng.normal(size=n) * 100.0 + (x ** 2).sum(axis=1)
    return space, x, y


def random_theta(rng, space):
    return np.concatenate([rng.uniform(np.log(1e-3 * space.span),
                                       np.log(10.0 * space.span)),
                           [rng.uniform(np.log(1e-2), np.log(1e2))]])


def test_plane_sum_equals_numpys_row_sum():
    """gp._plane_sum against numpy's own reduction of contiguous rows,
    on every width from 1 to 300 and on zeros of either sign."""
    rng = np.random.default_rng(26)
    for d in range(1, 301):
        a = rng.standard_normal((d, 4, 5)) * 10.0 ** rng.integers(-9, 9,
                                                                 (d, 4, 5))
        a[:, 0, 0] = -0.0  # all -0.0: numpy's sum is +0.0
        a[:, 0, 1] = 0.0
        a[:, 0, 2] = rng.choice([-0.0, 0.0], d)
        a[::2, 0, 3] = -0.0
        want = np.ascontiguousarray(a.transpose(1, 2, 0)).sum(axis=2)
        got = gp._plane_sum(a)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), d


class TestGaussianProcessOracle:
    """The LAPACK fast path against the wrapper-path formulas above."""

    # d = 8, 9, 16, 17 and 130 reach each branch of gp._plane_sum
    SHAPES = [(2, 1), (3, 32), (5, 2), (12, 7), (20, 10), (27, 3),
              (30, 32), (33, 16), (40, 5), (40, 32), (9, 8), (10, 9),
              (14, 16), (11, 17), (6, 130)]

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_likelihood_prediction_and_acquisition_equal_the_oracle(
            self, n, d):
        rng = np.random.default_rng(1000 * n + d)
        space, x, y = random_gp_data(rng, n, d)
        model = GaussianProcess(space).fit(x, y)
        for _ in range(5):
            theta = random_theta(rng, space)
            nll, grad = model._nll_and_grad(theta)
            want_nll, want_grad = oracle_nll_and_grad(model, theta)
            assert nll == want_nll
            assert np.array_equal(grad, want_grad)
        points = space.sample(rng, 7)
        for got, want in zip(model.predict(points),
                             oracle_predict(model, points)):
            assert np.array_equal(got, want)
        for point in [*points[:3], x[0]]:  # x[0]: sigma is 0 there
            value, grad = model.lcb_and_grad(point, 2.0)
            want_value, want_grad = oracle_lcb_and_grad(model, point, 2.0)
            assert value == want_value
            assert np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("n,d", [(6, 2), (15, 32), (25, 4), (40, 10),
                                     (10, 9), (12, 17), (6, 130)])
    def test_fit_equals_the_oracle_fit(self, n, d):
        from scipy.linalg import cho_factor
        rng = np.random.default_rng(7 * n + d)
        space, x, y = random_gp_data(rng, n, d)
        model = GaussianProcess(space).fit(x, y)
        oracle = OracleGaussianProcess(space).fit(x, y)
        assert np.array_equal(model.theta_, oracle.theta_)
        assert np.array_equal(model._alpha, oracle._alpha)
        kj = oracle_kernel(model, x, x)  # the factor cho_factor gave before
        kj[np.diag_indices_from(kj)] += model.jitter_
        assert np.array_equal(model._chol,
                              np.tril(cho_factor(kj, lower=True)[0]))
        x2, y2 = np.vstack([x, space.sample(rng, 1)]), np.append(y, 0.0)
        model.fit(x2, y2)  # the warm start from the first fit
        oracle.fit(x2, y2)
        assert np.array_equal(model.theta_, oracle.theta_)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        space = SearchSpace(np.zeros(3), np.full(3, 10.0))
        x = space.sample(rng, 9)
        y = np.sin(x).sum(axis=1)
        model = GaussianProcess(space).fit(x, y)
        theta = np.concatenate([np.log(rng.uniform(1.0, 4.0, 3)),
                                [rng.uniform(-0.5, 0.5)]])
        _, grad = model._nll_and_grad(theta)
        h = 1e-5
        numeric = np.array([
            (model._nll_and_grad(theta + h * e)[0]
             - model._nll_and_grad(theta - h * e)[0]) / (2 * h)
            for e in np.eye(len(theta))])
        assert np.allclose(grad, numeric, rtol=1e-5, atol=1e-6)

    def test_non_positive_definite_kernel_returns_the_penalty(self):
        space = SearchSpace(np.zeros(1), np.ones(1))
        model = GaussianProcess(space).fit([[0.0], [0.5], [1.0]],
                                           [0.0, 1.0, 0.0])
        # squared distances no point set has: 0 and 1 coincide, 1 and 2
        # coincide, 0 and 2 are far apart, so the kernel is indefinite
        sq = np.array([[0.0, 0.0, 1e4], [0.0, 0.0, 0.0], [1e4, 0.0, 0.0]])
        model._sq1d_t = sq[None, :, :].copy()
        theta = np.array([0.0, 0.0])
        for nll, grad in (model._nll_and_grad(theta),
                          oracle_nll_and_grad(model, theta)):
            assert nll == 1e25
            assert np.array_equal(grad, np.zeros(2))

    @pytest.mark.parametrize("cls", [GaussianProcess, OracleGaussianProcess])
    def test_non_finite_input_raises_value_error(self, cls):
        space = SearchSpace(np.zeros(2), np.ones(2))
        x = space.latin_hypercube(np.random.default_rng(2), 6)
        y = x.sum(axis=1)
        bad_x = x.copy()
        bad_x[3, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            cls(space).fit(bad_x, y)
        with pytest.raises(ValueError, match="infs or NaNs"):
            cls(space).fit(x, np.where(np.arange(6) == 2, np.nan, y))
        model = cls(space).fit(x, y)
        with pytest.raises(ValueError, match="infs or NaNs"):
            model.predict([[0.5, np.nan]])
        with pytest.raises(ValueError, match="infs or NaNs"):
            model.lcb_and_grad(np.array([np.nan, 0.5]), 1.0)
