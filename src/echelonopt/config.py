"""JSON configuration files and history CSV I/O for the CLI.

One config file carries everything a run needs: the network, scenario
settings, the initial policy, per-facility box bounds for the decision
variables, synthetic-data generator parameters, and per-strategy
optimizer settings.  History files are one CSV per facility with a
single header naming the series.

Decision-vector layout everywhere: [R_1..R_F, B_1..B_F] in network
(file) order.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    DemandChoice,
    FacilitySpec,
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
    validate_network,
)
from .optim import Budget, SearchSpace
from .optim.core import check_settings
from .sampling import HistoryGenParams, SeriesParams


class ConfigError(ValueError):
    """Configuration file missing, unparsable, or inconsistent."""


DEFAULT_OPTIMIZER_SETTINGS: dict[str, dict] = {
    "nelder-mead": {"cycles": 100, "iterations_per_cycle": 50,
                    "max_evaluations": 5000, "max_minutes": 1440.0,
                    "seed": 0},
    "gp": {"cycles": 1000, "iterations_per_cycle": 20,
           "n_random_starts": 10, "kappa": 50.0,
           "max_evaluations": 30000, "max_minutes": 1440.0, "seed": 0},
    "rbf": {"max_evaluations": 1000, "max_minutes": 1440.0, "seed": 707},
}

STRATEGIES = tuple(DEFAULT_OPTIMIZER_SETTINGS)


@dataclass(frozen=True)
class LoadedConfig:
    network: NetworkSpec
    scenario: ScenarioConfig
    initial_policy: PolicyVector
    space: SearchSpace
    generator: HistoryGenParams | None
    optimizers: dict[str, dict]  # only the keys the file gives


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _reject_unknown(raw: dict, known, context: str,
                    what: str = "keys") -> None:
    """A key outside ``known`` raises: a default would otherwise hide it."""
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"{context}: unknown {what} {unknown}; known "
                          f"{what}: {sorted(known)}")


def _integer(value, context: str) -> int:
    """``value`` as an int; fractions, strings and booleans raise."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{context}: expected an integer, got {value!r}")


def _number(value, context: str) -> float:
    """``value`` as a finite float; strings, booleans and null raise."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        return float(value)
    raise ConfigError(f"{context}: expected a finite number, got {value!r}")


def _load_network(raw: dict) -> NetworkSpec:
    _reject_unknown(raw, ("facilities",), "network")
    facilities = []
    for entry in _require(raw, "facilities", "network"):
        fid = str(_require(entry, "id", "facility"))
        _reject_unknown(entry, ("id", "upstream", "base_lead_time",
                                "target_beta", "serves_customers"),
                        f"facility {fid}")
        serves = entry.get("serves_customers", False)
        if not isinstance(serves, bool):
            raise ConfigError(f"facility {fid}.serves_customers: expected "
                              f"true or false, got {serves!r}")
        facilities.append(FacilitySpec(
            id=fid,
            upstream=str(_require(entry, "upstream", "facility")),
            base_lead_time=_integer(
                _require(entry, "base_lead_time", "facility"),
                f"facility {fid}.base_lead_time"),
            target_beta=_number(entry.get("target_beta", 0.0),
                                f"facility {fid}.target_beta"),
            serves_customers=serves,
        ))
    network = NetworkSpec(facilities)
    violations = validate_network(network)
    if violations:
        raise ConfigError("invalid network: "
                          + "; ".join(str(v) for v in violations))
    return network


def _load_scenario(raw: dict) -> ScenarioConfig:
    ints = ("horizon", "replications", "base_seed")
    floats = ("penalty_rho", "initial_inventory_fraction")
    _reject_unknown(raw, (*ints, *floats, "demand_choice"), "scenario")
    choice = str(raw.get("demand_choice", "backorder")).lower()
    try:
        demand_choice = DemandChoice(choice)
    except ValueError:
        raise ConfigError(f"scenario: demand_choice {choice!r} must be "
                          "'backorder' or 'lost-sales'") from None
    values = {key: _integer(raw[key], f"scenario.{key}")
              for key in ints if key in raw}
    values.update({key: _number(raw[key], f"scenario.{key}")
                   for key in floats if key in raw})
    try:
        return ScenarioConfig(demand_choice=demand_choice, **values)
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None


def _load_policy(raw: dict, network: NetworkSpec,
                 context: str) -> PolicyVector:
    _reject_unknown(raw, network.ids, context, "facilities")
    rop, base = {}, {}
    for fid in network.ids:
        entry = _require(raw, fid, context)
        where = f"{context}[{fid}]"
        rop[fid] = _integer(_require(entry, "reorder_point", where),
                            f"{where}.reorder_point")
        base[fid] = _integer(_require(entry, "base_stock", where),
                             f"{where}.base_stock")
    try:
        return PolicyVector(rop, base)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _load_space(raw: dict, network: NetworkSpec) -> SearchSpace:
    def pair(fid, name):
        context = f"bounds[{fid}].{name}"
        value = _require(_require(raw, fid, "bounds"), name, f"bounds[{fid}]")
        if isinstance(value, list) and len(value) == 2:
            lo, hi = (_integer(v, context) for v in value)
            if 0 <= lo < hi:
                return lo, hi
        raise ConfigError(f"{context}: need [lo, hi], integers with "
                          "0 <= lo < hi")

    _reject_unknown(raw, network.ids, "bounds", "facilities")
    rop = [pair(fid, "reorder_point") for fid in network.ids]
    base = [pair(fid, "base_stock") for fid in network.ids]
    for fid, (_, r_hi), (_, b_hi) in zip(network.ids, rop, base):
        if b_hi < r_hi:
            raise ConfigError(
                f"bounds[{fid}]: base_stock upper bound {b_hi} below "
                f"reorder_point upper bound {r_hi}; the B >= R repair "
                "could leave the box")
    return SearchSpace(*np.array(rop + base, dtype=float).T)


def _load_generator(raw: dict, network: NetworkSpec) -> HistoryGenParams:
    def series(entry, context):
        mean, spread = (_number(_require(entry, key, context),
                                f"{context}.{key}")
                        for key in ("mean", "spread"))
        try:
            return SeriesParams(mean, spread)
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}") from None

    def by_facility(key, ids):
        given = _require(raw, key, "generator")
        _reject_unknown(given, ids, f"generator.{key}", "facilities")
        return {fid: series(_require(given, fid, f"generator.{key}"),
                            f"generator.{key}[{fid}]") for fid in ids}

    _reject_unknown(raw, ("demand", "lead_delta", "length"), "generator")
    demand = by_facility("demand", network.customer_ids)
    lead = by_facility("lead_delta", network.ids)
    length = _integer(raw.get("length", 360), "generator.length")
    try:
        return HistoryGenParams(demand=demand, lead_delta=lead, length=length)
    except ValueError as exc:
        raise ConfigError(f"generator: {exc}") from None


def merge_optimizer_settings(strategy: str, given: dict) -> dict:
    """The strategy's defaults with ``given`` laid over them.

    A setting takes the type of its default: an int setting takes only
    integral numbers, a float setting any finite number.  A key the
    strategy has no default for, or a value that does not fit its type,
    its minimum (``optim.core.SETTING_MINIMUMS``) or the run's Budget,
    raises ConfigError naming ``optimizers.<strategy>.<key>``.
    """
    context = f"optimizers.{strategy}"
    defaults = DEFAULT_OPTIMIZER_SETTINGS[strategy]
    _reject_unknown(given, defaults, context, "settings")
    merged = {}
    for key, default in defaults.items():
        parse = _integer if isinstance(default, int) else _number
        merged[key] = parse(given.get(key, default), f"{context}.{key}")
    try:
        check_settings(merged)
        Budget(merged["max_evaluations"], merged["max_minutes"])
    except ValueError as exc:  # its message starts with the setting's name
        raise ConfigError(f"{context}.{exc}") from None
    return merged


def _load_optimizers(raw: dict) -> dict[str, dict]:
    _reject_unknown(raw, DEFAULT_OPTIMIZER_SETTINGS, "optimizers",
                    "strategies")
    for strategy, given in raw.items():
        merge_optimizer_settings(strategy, given)
    return {strategy: dict(given) for strategy, given in raw.items()}


def _read_json(path: str | Path, kind: str) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{kind} file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}")


def load_config(path: str | Path) -> LoadedConfig:
    raw = _read_json(path, "config")
    _reject_unknown(raw, ("network", "scenario", "initial_policy", "bounds",
                          "generator", "optimizers"), "config")
    network = _load_network(_require(raw, "network", "config"))
    scenario = _load_scenario(raw.get("scenario", {}))
    policy = _load_policy(_require(raw, "initial_policy", "config"),
                          network, "initial_policy")
    space = _load_space(_require(raw, "bounds", "config"), network)
    generator = (_load_generator(raw["generator"], network)
                 if "generator" in raw else None)
    optimizers = _load_optimizers(raw.get("optimizers", {}))

    x0 = policy.to_array(network)
    if np.any(x0 < space.lower) or np.any(x0 > space.upper):
        raise ConfigError("initial_policy lies outside the bounds box")
    return LoadedConfig(network=network, scenario=scenario,
                        initial_policy=policy, space=space,
                        generator=generator, optimizers=optimizers)


def load_policy_file(path: str | Path, network: NetworkSpec) -> PolicyVector:
    return _load_policy(_read_json(path, "policy"), network, "policy")


def _history_file(history_dir: str | Path, series: str, fid: str) -> Path:
    return Path(history_dir) / f"{series}_{fid}.csv"


def _read_series(history_dir: str | Path, series: str,
                 fid: str) -> np.ndarray:
    path = _history_file(history_dir, series, fid)
    if not path.exists():
        raise ConfigError(f"history file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != [series]:
        raise ConfigError(f"{path}: expected single-column CSV with "
                          f"header {series!r}")
    try:
        return np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    except (ValueError, IndexError):
        raise ConfigError(f"{path}: non-integer value in series") from None


def write_history(history: HistoryDataset, out_dir: str | Path) -> list[Path]:
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    written = []
    for series, by_facility in (("demand", history.demand),
                                ("lead_delta", history.lead_delta)):
        for fid, values in by_facility.items():
            path = _history_file(out_dir, series, fid)
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([series])
                writer.writerows([int(v)] for v in values)
            written.append(path)
    return written


def read_history(history_dir: str | Path,
                 network: NetworkSpec) -> HistoryDataset:
    demand = {fid: _read_series(history_dir, "demand", fid)
              for fid in network.customer_ids}
    lead = {fid: _read_series(history_dir, "lead_delta", fid)
            for fid in network.ids}
    try:
        return HistoryDataset(demand=demand, lead_delta=lead)
    except ValueError as exc:
        raise ConfigError(f"history in {history_dir}: {exc}") from None
