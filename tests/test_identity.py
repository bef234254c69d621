"""Evaluated points and values stay bit-identical on two fixed workloads.

Each run is hashed as sha256 of ``evaluated_points.tobytes() +
evaluated_values.tobytes()`` (first 16 hex digits), with settings seed 3
and histories drawn from each config's generator block and base seed.
A change that alters any simulated number, any repair or any step of a
search changes a hash.  The expected hashes are the same with one or two
BLAS threads.  This file reads ``bench/`` and changes nothing there.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from echelonopt import harness
from echelonopt.config import load_config
from echelonopt.sampling import generate_synthetic_history

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import inputs  # noqa: E402  (lives in bench/, found through sys.path)

# workload -> strategy -> (max_evaluations, expected hash)
EXPECTED = {
    "preset": {"nelder-mead": (120, "75798d73e1bf6946"),
               "gp": (40, "d646bd17300c3219"),
               "rbf": (60, "0c9a9bedee33e003")},
    "wide": {"nelder-mead": (40, "4b7452301c061a88"),
             "gp": (50, "d1f1b7a97f2fce73"),
             "rbf": (140, "7ac8a908fb114bfc")},
}


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    """(config, history, scenario) of each workload: the preset at
    2 x 120 and the wide lost-sales tree at its own 2 x 30."""
    wide_path = tmp_path_factory.mktemp("wide") / "wide_config.json"
    wide_path.write_text(json.dumps(inputs.wide_config()))
    preset = load_config(ROOT / "configs" / "five_facility.json")
    wide = load_config(wide_path)
    built = {}
    for name, cfg, scenario in [
            ("preset", preset, dataclasses.replace(
                preset.scenario, replications=2, horizon=120)),
            ("wide", wide, wide.scenario)]:
        history = generate_synthetic_history(cfg.network, cfg.generator,
                                             cfg.scenario.base_seed)
        built[name] = (cfg, history, scenario)
    return built


@pytest.mark.parametrize("workload,strategy", [
    (workload, strategy) for workload, runs in EXPECTED.items()
    for strategy in runs])
def test_evaluated_points_and_values_unchanged(workloads, workload,
                                               strategy):
    cfg, history, scenario = workloads[workload]
    evaluations, expected = EXPECTED[workload][strategy]
    run = harness.run_strategy(
        strategy, cfg.network, history, scenario, cfg.space,
        cfg.initial_policy,
        settings={"seed": 3, "max_evaluations": evaluations}).run
    digest = hashlib.sha256(run.evaluated_points.tobytes()
                            + run.evaluated_values.tobytes()).hexdigest()
    assert run.evaluations_used == evaluations
    assert digest[:16] == expected
