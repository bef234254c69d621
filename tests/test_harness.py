import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from echelonopt import harness
from echelonopt.config import STRATEGIES
from echelonopt.harness import (
    StrategyResult,
    comparison_table,
    derive_strategy_seed,
    format_table,
    run_strategy,
)
from echelonopt.model import (
    SOURCE,
    FacilitySpec,
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
)
from echelonopt.objective import evaluate
from echelonopt.optim import OptimizerRun, SearchSpace


def test_strategy_seeds_disjoint_and_stable():
    seeds = {s: derive_strategy_seed(42, s) for s in STRATEGIES}
    assert len(set(seeds.values())) == len(STRATEGIES)
    assert seeds == {s: derive_strategy_seed(42, s) for s in STRATEGIES}
    assert seeds != {s: derive_strategy_seed(43, s) for s in STRATEGIES}
    assert seeds != {s: derive_strategy_seed(42 + 2**64, s)
                     for s in STRATEGIES}


def test_strategy_seeds_pinned_for_the_preset_base_seed():
    # compare runs every strategy on these seeds; a change to the
    # derivation would move every compare result
    assert {s: derive_strategy_seed(20240707, s) for s in STRATEGIES} == {
        "nelder-mead": 6497258299952463838,
        "gp": 2827579917344103794,
        "rbf": 9508827775949717283,
    }


def tiny_scenario():
    net = NetworkSpec([
        FacilitySpec("hub", SOURCE, 2, 0.0, False),
        FacilitySpec("store", "hub", 1, 0.9, True),
    ])
    hist = HistoryDataset(demand={"store": [8, 12, 20]},
                          lead_delta={"hub": [0, 1], "store": [0]})
    scenario = ScenarioConfig(horizon=60, replications=2, base_seed=5)
    policy = PolicyVector({"hub": 60, "store": 30}, {"hub": 200, "store": 90})
    space = SearchSpace(np.array([0.0, 0.0, 0.0, 0.0]),
                        np.array([120.0, 60.0, 400.0, 180.0]))
    return net, hist, scenario, policy, space


def test_run_strategy_result_shape():
    net, hist, scenario, policy, space = tiny_scenario()
    result = run_strategy("rbf", net, hist, scenario, space, policy,
                          settings={"max_evaluations": 20, "seed": 3})
    assert result.run.evaluations_used == 20
    assert result.run.best_value <= result.initial_z
    assert result.initial_z == evaluate(policy, net, hist, scenario).z
    assert 0.0 <= result.reduction_pct <= 100.0
    # the reported policy re-evaluates to exactly the best objective (CRN)
    assert evaluate(result.report.policy, net, hist, scenario).z \
        == result.run.best_value


def test_run_strategy_in_a_worker_process_is_bit_identical():
    # Every argument of a run pickles, the history included, and the
    # worker's run repeats the in-process one exactly (CRN).
    net, hist, scenario, policy, space = tiny_scenario()
    scenario = replace(scenario, horizon=90)
    args = ("rbf", net, hist, scenario, space, policy,
            {"max_evaluations": 10, "seed": 4})
    here = run_strategy(*args)
    with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")) as pool:
        there = pool.submit(run_strategy, *args).result()
    assert np.array_equal(there.run.evaluated_points,
                          here.run.evaluated_points)
    assert np.array_equal(there.run.evaluated_values,
                          here.run.evaluated_values)
    assert there.report.z == here.report.z


def test_run_strategy_evaluates_only_the_run_and_its_best(monkeypatch):
    net, hist, scenario, policy, space = tiny_scenario()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate", counted)
    result = run_strategy("gp", net, hist, scenario, space, policy,
                          settings={"max_evaluations": 12, "seed": 2})
    # the initial policy is scored once, as the run's first point, and
    # the best point's report is the one kept when the run scored it
    assert len(calls) == result.run.evaluations_used
    assert calls[0] == policy
    assert result.initial_z == result.run.evaluated_values[0]
    assert result.report.z == result.run.best_value


def test_reduction_from_an_initial_z_of_zero_is_zero():
    run = OptimizerRun("rbf", np.zeros(2), 0.0, np.zeros(3), 3, 0.1, 0.1,
                       np.zeros((3, 2)), np.zeros(3))
    assert StrategyResult(run=run, report=None).reduction_pct == 0.0


def test_comparison_table_layout_and_alignment():
    net, hist, scenario, policy, space = tiny_scenario()
    results = [
        run_strategy(s, net, hist, scenario, space, policy,
                     settings={"max_evaluations": 10,
                               "seed": derive_strategy_seed(1, s)})
        for s in ("nelder-mead", "rbf")
    ]
    rows = comparison_table(results, net)
    assert rows[0] == ["", "nelder-mead", "rbf"]
    assert all(len(r) == 3 for r in rows)
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[1].startswith("-")
    assert len(lines) == len(rows) + 1


def test_cpu_time_row_shows_process_time_not_wall_time():
    net, hist, scenario, policy, space = tiny_scenario()
    result = run_strategy("nelder-mead", net, hist, scenario, space, policy,
                          settings={"max_evaluations": 5, "seed": 1})
    assert result.run.cpu_time_s > 0.0
    result.run = replace(result.run, wall_time_s=600.0, cpu_time_s=90.0)
    rows = comparison_table([result], net)
    assert rows[-1] == ["CPU time (minutes)", "1.50"]
