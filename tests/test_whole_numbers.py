"""One whole-number rule for every count, one finite-number rule for
every other number.

Every entry point that takes a count, a seed, a replication index, a
policy value or a history sample refuses a fraction, NaN, infinity and a
string, naming the field, before anything is evaluated, simulated or
drawn, and takes a whole float as the equal int.  Every float field
refuses NaN, infinity, a bool and a non-number the same way.
"""

import math
import re

import numpy as np
import pytest

from echelonopt import engine, objective, sampling
from echelonopt.harness import make_policy_objective
from echelonopt.model import (
    SOURCE,
    FacilitySpec,
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
    finite_number,
    repair_policy_array,
    whole_number,
)
from echelonopt.objective import evaluate
from echelonopt.optim import (
    Budget,
    SearchSpace,
    gp,
    minimize,
    nelder_mead,
    rbf,
)
from echelonopt.sampling import (
    HistoryGenParams,
    SeriesParams,
    generate_synthetic_history,
)

HUB = FacilitySpec("hub", SOURCE, 2, 0.0, False)
NET = NetworkSpec([HUB, FacilitySpec("store", "hub", 1, 0.9, True)])
POLICY = PolicyVector({"hub": 60, "store": 30}, {"hub": 200, "store": 90})
SCENARIO = {"horizon": 20, "replications": 2, "base_seed": 5}
SPACE = SearchSpace([0.0, 0.0, 0.0, 0.0], [120.0, 60.0, 400.0, 180.0])
GENERATOR = {"demand": {"store": SeriesParams(12.5, 3.0)},
             "lead_delta": {"hub": SeriesParams(1.0, 1.0),
                            "store": SeriesParams(0.5, 0.5)}}
SETTINGS = {"nelder-mead": {"cycles": 1, "iterations_per_cycle": 2},
            "gp": {"cycles": 1, "iterations_per_cycle": 2,
                   "n_random_starts": 2, "kappa": 1.0},
            "rbf": {}}
SEARCHES = {"nelder-mead": (nelder_mead, "nelder_mead_restart"),
            "gp": (gp, "gp_optimize"), "rbf": (rbf, "rbf_optimize")}


def history(demand=(8, 12, 20), hub_lead=(0, 1)):
    # a new object each time, so the engine draws its streams afresh
    return HistoryDataset(demand={"store": list(demand)},
                          lead_delta={"hub": list(hub_lead), "store": [0]})


class Probe:
    """Records every objective call, simulation and random stream, in
    order, and the settings each search is started with."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.started = {}
        sim, generator = objective.sim_network, sampling.StreamKey.generator

        def counted_sim(*args, **kwargs):
            self.calls.append(("sim_network", kwargs["replication_index"]))
            return sim(*args, **kwargs)

        def counted_generator(key):
            self.calls.append(("stream", key))
            return generator(key)

        monkeypatch.setattr(objective, "sim_network", counted_sim)
        monkeypatch.setattr(sampling.StreamKey, "generator",
                            counted_generator)
        for module, name in SEARCHES.values():
            monkeypatch.setattr(module, name, self.spy(getattr(module, name)))

    def spy(self, search):
        def started(tracker, space, **settings):
            self.started.update(settings)
            return search(tracker, space, **settings)
        return started

    def objective(self, x):
        self.calls.append(("objective", x))
        return float(np.sum(x))

    def last(self, kind):
        return [call for what, call in self.calls if what == kind][-1]


def scenario_field(name):
    def run(value, probe):
        config = ScenarioConfig(**{**SCENARIO, name: value})
        evaluate(POLICY, NET, history(), config)
        return getattr(config, name)
    return run


def generator_length(value, probe):
    params = HistoryGenParams(length=value, **GENERATOR)
    evaluate(POLICY, NET, generate_synthetic_history(NET, params, 0),
             ScenarioConfig(**SCENARIO))
    return params.length


def base_lead_time(value, probe):
    net = NetworkSpec([HUB, FacilitySpec("store", "hub", value, 0.9, True)])
    evaluate(POLICY, net, history(), ScenarioConfig(**SCENARIO))
    return net.facilities[1].base_lead_time


def policy_vector(value, probe):
    policy = PolicyVector({"hub": 60, "store": value},
                          {"hub": 200, "store": 90})
    evaluate(policy, NET, history(), ScenarioConfig(**SCENARIO))
    return policy.reorder_point["store"]


def from_array(value, probe):
    x = np.array([60.0, value, 200.0, 90.0], dtype=object)
    policy = PolicyVector.from_array(NET, x)
    evaluate(policy, NET, history(), ScenarioConfig(**SCENARIO))
    return policy.reorder_point["store"]


def demand_sample(value, probe):
    samples = history(demand=(8, value, 20))
    evaluate(POLICY, NET, samples, ScenarioConfig(**SCENARIO))
    return samples.demand["store"][1]


def lead_delta_sample(value, probe):
    samples = history(hub_lead=(0, value))
    evaluate(POLICY, NET, samples, ScenarioConfig(**SCENARIO))
    return samples.lead_delta["hub"][1]


def budget(value, probe):
    limit = Budget(max_evaluations=value)
    minimize(probe.objective, SPACE, limit, strategy="rbf")
    return limit.max_evaluations


def search_setting(strategy, name):
    def run(value, probe):
        minimize(probe.objective, SPACE, Budget(max_evaluations=6),
                 strategy=strategy, **{**SETTINGS[strategy], name: value})
        return probe.started[name]
    return run


def replications(value, probe):
    evaluate(POLICY, NET, history(), ScenarioConfig(**SCENARIO),
             replications=[1, value])
    return probe.last("sim_network")


def replication_index(value, probe):
    engine.sim_network(NET, POLICY, history(), ScenarioConfig(**SCENARIO),
                       replication_index=value)
    return probe.last("stream").replication


def history_seed(value, probe):
    params = HistoryGenParams(length=5, **GENERATOR)
    samples = generate_synthetic_history(NET, params, seed=value)
    evaluate(POLICY, NET, samples, ScenarioConfig(**SCENARIO))
    return probe.calls[0][1].base_seed


ENTRY_POINTS = [
    *((f"ScenarioConfig.{name}", name, scenario_field(name))
      for name in SCENARIO),
    ("HistoryGenParams.length", "length", generator_length),
    ("FacilitySpec.base_lead_time", "facility store: base_lead_time",
     base_lead_time),
    ("PolicyVector", "facility store: reorder_point", policy_vector),
    ("PolicyVector.from_array", "facility store: reorder_point", from_array),
    ("HistoryDataset.demand", "facility store: demand sample",
     demand_sample),
    ("HistoryDataset.lead_delta", "facility hub: lead_delta sample",
     lead_delta_sample),
    ("Budget.max_evaluations", "max_evaluations", budget),
    *((f"minimize-{strategy}.{name}", name, search_setting(strategy, name))
      for strategy, settings in SETTINGS.items()
      for name in [*settings, "seed"] if name != "kappa"),
    ("evaluate.replications", "replications", replications),
    ("sim_network.replication_index", "replication_index",
     replication_index),
    ("generate_synthetic_history.seed", "seed", history_seed),
]
ENTRY_IDS = [entry[0] for entry in ENTRY_POINTS]


@pytest.mark.parametrize("entry,field,run", ENTRY_POINTS, ids=ENTRY_IDS)
@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf, "3"])
def test_a_value_that_is_not_whole_is_refused_before_any_work(
        monkeypatch, entry, field, run, value):
    probe = Probe(monkeypatch)
    with pytest.raises(ValueError, match=rf"{re.escape(field)} must be "
                       "(a whole number|finite), got "):
        run(value, probe)
    assert probe.calls == []


def series_field(name):
    def run(value, probe):
        params = HistoryGenParams(length=5, demand={"store": SeriesParams(
            **{"mean": 12.5, "spread": 3.0, name: value})},
            lead_delta=GENERATOR["lead_delta"])
        generate_synthetic_history(NET, params, 0)
        return getattr(params.demand["store"], name)
    return run


def max_minutes(value, probe):
    limit = Budget(max_evaluations=3, max_minutes=value)
    minimize(probe.objective, SPACE, limit, strategy="rbf")
    return limit.max_minutes


FLOAT_ENTRY_POINTS = [
    *((f"ScenarioConfig.{name}", name, scenario_field(name))
      for name in ("penalty_rho", "initial_inventory_fraction")),
    *((f"SeriesParams.{name}", name, series_field(name))
      for name in ("mean", "spread")),
    ("Budget.max_minutes", "max_minutes", max_minutes),
    ("minimize-gp.kappa", "kappa", search_setting("gp", "kappa")),
]
FLOAT_IDS = [entry[0] for entry in FLOAT_ENTRY_POINTS]


@pytest.mark.parametrize("entry,field,run", FLOAT_ENTRY_POINTS,
                         ids=FLOAT_IDS)
@pytest.mark.parametrize("value", ["3", None, True, math.nan, math.inf,
                                   -math.inf])
def test_a_float_field_refuses_a_non_number_before_any_work(
        monkeypatch, entry, field, run, value):
    probe = Probe(monkeypatch)
    with pytest.raises(ValueError, match=rf"^{field} must be "
                       "(a number|finite), got "):
        run(value, probe)
    assert probe.calls == []


@pytest.mark.parametrize("entry,field,run", FLOAT_ENTRY_POINTS,
                         ids=FLOAT_IDS)
def test_a_float_field_keeps_its_value(monkeypatch, entry, field, run):
    probe = Probe(monkeypatch)
    assert run(0.5, probe) == 0.5
    assert probe.calls != []


@pytest.mark.parametrize("value", [0.5, 7, np.float64(0.5), np.int64(7),
                                   -1e308, 10**400])
def test_finite_number_returns_the_value_itself(value):
    assert finite_number(value, "x") is value


@pytest.mark.parametrize("value,message", [
    ("3", "x must be a number, got '3'"),
    (None, "x must be a number, got None"),
    (True, "x must be a number, got True"),
    (np.bool_(False), "x must be a number, got np.False_"),
    (math.nan, "x must be finite, got nan"),
    (-math.inf, "x must be finite, got -inf"),
    (np.float32("inf"), "x must be finite, got inf"),
])
def test_finite_number_names_the_field(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        finite_number(value, "x")


@pytest.mark.parametrize("entry,field,run", ENTRY_POINTS, ids=ENTRY_IDS)
def test_a_whole_float_is_taken_as_the_equal_int(monkeypatch, entry, field,
                                                 run):
    probe = Probe(monkeypatch)
    stored = run(3.0, probe)
    assert stored == 3
    assert type(stored) in (int, np.int64)  # samples are int64 arrays
    assert probe.calls != []


@pytest.mark.parametrize("value,expected", [
    (7, 7), (7.0, 7), (np.int64(7), 7), (np.uint8(7), 7),
    (np.float64(7.0), 7), (np.float32(7.0), 7), (-0.0, 0), (10**400, 10**400),
])
def test_whole_number_returns_a_python_int(value, expected):
    whole = whole_number(value, "n")
    assert whole == expected and type(whole) is int


@pytest.mark.parametrize("value,message", [
    (2.5, "n must be a whole number, got 2.5"),
    (np.float64(0.5), "n must be a whole number, got np.float64(0.5)"),
    (True, "n must be a whole number, got True"),
    (np.bool_(True), "n must be a whole number, got np.True_"),
    ("3", "n must be a whole number, got '3'"),
    (None, "n must be a whole number, got None"),
    (math.nan, "n must be finite, got nan"),
    (-math.inf, "n must be finite, got -inf"),
    (np.float32("inf"), "n must be finite, got inf"),
])
def test_whole_number_names_the_field(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        whole_number(value, "n")


def optimize_everything(number):
    """Z and every search's evaluated points and best value, with each
    count of the inputs given as ``number(count)``."""
    net = NetworkSpec([FacilitySpec("hub", SOURCE, number(2), 0.0, False),
                       FacilitySpec("store", "hub", number(1), 0.9, True)])
    samples = history(demand=map(number, (8, 12, 20)),
                      hub_lead=map(number, (0, 1)))
    config = ScenarioConfig(**{k: number(v) for k, v in SCENARIO.items()})
    results = [evaluate(POLICY, net, samples, config),
               evaluate(POLICY, net, samples, config,
                        replications=[number(2), number(3)])]
    for strategy, settings in SETTINGS.items():
        run = minimize(
            make_policy_objective(net, samples, config, []), SPACE,
            Budget(max_evaluations=number(8)), strategy=strategy,
            seed=number(4), x0=POLICY.to_array(net),
            repair=lambda x: repair_policy_array(x, SPACE.lower, SPACE.upper),
            **{k: v if k == "kappa" else number(v)
               for k, v in settings.items()})
        results.append((run.evaluated_points.tolist(),
                        run.evaluated_values.tolist(), run.best_value))
    return results


def test_whole_floats_are_bit_identical_to_their_ints():
    # horizon, replications, base_seed, base lead times, history samples,
    # replication indices, the Budget, the seed and every search count
    assert optimize_everything(float) == optimize_everything(int)


def test_float_fields_keep_their_fractions(monkeypatch):
    assert ScenarioConfig(penalty_rho=0.5).penalty_rho == 0.5
    assert SeriesParams(mean=12.5, spread=0.5).mean == 12.5
    assert Budget(max_minutes=0.5).max_minutes == 0.5
    probe = Probe(monkeypatch)
    minimize(probe.objective, SPACE, Budget(max_evaluations=3),
             strategy="gp", **{**SETTINGS["gp"], "kappa": 1.96})
    assert probe.started["kappa"] == 1.96
