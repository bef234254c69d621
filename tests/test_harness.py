from dataclasses import replace

import numpy as np

from echelonopt.config import STRATEGIES
from echelonopt.harness import (
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
from echelonopt.optim import SearchSpace


def test_strategy_seeds_disjoint_and_stable():
    seeds = {s: derive_strategy_seed(42, s) for s in STRATEGIES}
    assert len(set(seeds.values())) == len(STRATEGIES)
    assert seeds == {s: derive_strategy_seed(42, s) for s in STRATEGIES}
    assert seeds != {s: derive_strategy_seed(43, s) for s in STRATEGIES}


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
                          settings={"max_evaluations": 20}, seed=3)
    assert result.run.evaluations_used == 20
    assert result.run.best_value <= result.initial_z
    assert result.initial_z == evaluate(policy, net, hist, scenario).z
    assert 0.0 <= result.reduction_pct <= 100.0
    # the reported policy re-evaluates to exactly the best objective (CRN)
    assert evaluate(result.policy, net, hist, scenario).z \
        == result.run.best_value


def test_comparison_table_layout_and_alignment():
    net, hist, scenario, policy, space = tiny_scenario()
    results = [
        run_strategy(s, net, hist, scenario, space, policy,
                     settings={"max_evaluations": 10},
                     seed=derive_strategy_seed(1, s))
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
                          settings={"max_evaluations": 5}, seed=1)
    assert result.run.cpu_time_s > 0.0
    result.run = replace(result.run, wall_time_s=600.0, cpu_time_s=90.0)
    rows = comparison_table([result], net)
    assert rows[-1] == ["CPU time (minutes)", "1.50"]
