"""The benchmark's tracer still finds the sites it wraps.

``bench/tracing.py`` observes layers by replacing module attributes.  A
renamed function, or a strategy that ``minimize`` binds at import time,
would otherwise show up only as a crash or a missing span in a traced
benchmark run.  This file reads ``bench/`` and changes nothing there.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from echelonopt.config import DEFAULT_OPTIMIZER_SETTINGS
from echelonopt.optim import Budget, SearchSpace, minimize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402  (lives in bench/, found through sys.path)

RUN_SPANS = {"nelder-mead": "nelder_mead.run", "gp": "gp.run",
             "rbf": "rbf.run"}


@pytest.mark.parametrize("strategy", sorted(RUN_SPANS))
def test_traced_minimize_records_one_run_span(strategy):
    settings = {key: value for key, value
                in DEFAULT_OPTIMIZER_SETTINGS[strategy].items()
                if key not in ("max_evaluations", "max_minutes", "seed")}
    tracer = tracing.Tracer(tracing.Clock(), 0)
    patches = tracing.Patches()
    try:
        tracing.install_tracer(tracer, patches)
        run = minimize(lambda x: float(np.sum((x - 3.0) ** 2)),
                       SearchSpace(np.zeros(2), np.full(2, 10.0)),
                       Budget(max_evaluations=12), strategy=strategy, seed=1,
                       **settings)
    finally:
        patches.undo()
    assert run.evaluations_used == 12
    assert tracer.count[RUN_SPANS[strategy]] == 1


@pytest.mark.parametrize("strategy", sorted(RUN_SPANS))
def test_traced_run_strategy_scores_each_point_once(strategy):
    from echelonopt import harness
    from test_harness import tiny_scenario

    net, hist, scenario, policy, space = tiny_scenario()
    tracer = tracing.Tracer(tracing.Clock(), 0)
    patches = tracing.Patches()
    try:
        tracing.install_tracer(tracer, patches)
        result = harness.run_strategy(
            strategy, net, hist, scenario, space, policy,
            settings={"max_evaluations": 12, "seed": 1})
    finally:
        patches.undo()
    assert tracer.count["harness.extra_evaluation"] == 0
    assert tracer.count["harness.objective"] == result.run.evaluations_used
    # the report came through the tracer's objective wrapper
    assert result.report.z == result.run.best_value


def test_traced_evaluates_draw_one_scenarios_streams():
    from echelonopt import objective
    from test_harness import tiny_scenario

    net, hist, scenario, policy, space = tiny_scenario()
    tracer = tracing.Tracer(tracing.Clock(), 0)
    patches = tracing.Patches()
    try:
        tracing.install_tracer(tracer, patches)
        for _ in range(2):
            objective.evaluate(policy, net, hist, scenario)
    finally:
        patches.undo()
    streams = len(net.customer_ids) + len(net.ids)
    assert tracer.count["engine.sim"] == 2 * scenario.replications
    assert tracer.count["sampling.stream"] == scenario.replications * streams
    # network check and history check, once for the scenario
    assert tracer.count["model.validate"] == 2


def test_traced_evaluate_counts_each_block_draw():
    # the benchmark counts lead draws at the name the engine draws through
    from echelonopt import objective
    from test_harness import tiny_scenario

    net, hist, scenario, policy, space = tiny_scenario()
    tracer = tracing.Tracer(tracing.Clock(), 0)
    patches = tracing.Patches()
    try:
        tracing.install_tracer(tracer, patches)
        objective.evaluate(policy, net, hist, scenario)
    finally:
        patches.undo()
    blocks = len(net.customer_ids) + len(net.ids)
    assert tracer.count["sampling.lead_draw"] == scenario.replications * blocks
