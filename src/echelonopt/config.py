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
from .optim import SearchSpace
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
    path: str


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _integer(value, context: str) -> int:
    """``value`` as an int; fractions, strings and booleans raise."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{context}: expected an integer, got {value!r}")


def _load_network(raw: dict) -> NetworkSpec:
    facilities = []
    for entry in _require(raw, "facilities", "network"):
        fid = str(_require(entry, "id", "facility"))
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
            target_beta=float(entry.get("target_beta", 0.0)),
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
    known = {*ints, *floats, "demand_choice"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"scenario: unknown keys {unknown}; expected some "
                          f"of {sorted(known)}")
    choice = str(raw.get("demand_choice", "backorder")).lower()
    try:
        demand_choice = DemandChoice(choice)
    except ValueError:
        raise ConfigError(f"scenario: demand_choice {choice!r} must be "
                          "'backorder' or 'lost-sales'") from None
    values = {key: _integer(raw[key], f"scenario.{key}")
              for key in ints if key in raw}
    try:
        values.update({key: float(raw[key]) for key in floats if key in raw})
        return ScenarioConfig(demand_choice=demand_choice, **values)
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None


def _load_policy(raw: dict, network: NetworkSpec,
                 context: str) -> PolicyVector:
    unknown = sorted(set(raw) - set(network.ids))
    if unknown:
        raise ConfigError(f"{context}: facilities {unknown} are not in the "
                          "network")
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
        try:
            return SeriesParams(float(_require(entry, "mean", context)),
                                float(_require(entry, "spread", context)))
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}") from None

    demand_raw = _require(raw, "demand", "generator")
    lead_raw = _require(raw, "lead_delta", "generator")
    demand = {fid: series(_require(demand_raw, fid, "generator.demand"),
                          f"generator.demand[{fid}]")
              for fid in network.customer_ids}
    lead = {fid: series(_require(lead_raw, fid, "generator.lead_delta"),
                        f"generator.lead_delta[{fid}]")
            for fid in network.ids}
    length = _integer(raw.get("length", 360), "generator.length")
    try:
        return HistoryGenParams(demand=demand, lead_delta=lead, length=length)
    except ValueError as exc:
        raise ConfigError(f"generator: {exc}") from None


def merge_optimizer_settings(strategy: str, given: dict) -> dict:
    """The strategy's defaults with ``given`` laid over them.

    Each value is cast to the type of its default; an int setting takes
    only integral numbers.  A key the strategy has no default for, or a
    value that does not fit, raises ConfigError.
    """
    defaults = DEFAULT_OPTIMIZER_SETTINGS[strategy]
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigError(f"optimizers.{strategy}: unknown settings "
                          f"{unknown}; expected some of {sorted(defaults)}")
    merged = {}
    for key, default in defaults.items():
        value = given.get(key, default)
        context = f"optimizers.{strategy}.{key}"
        if isinstance(default, int):
            merged[key] = _integer(value, context)
            continue
        try:
            merged[key] = type(default)(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{context}: expected "
                              f"{type(default).__name__}, got "
                              f"{value!r}") from None
    return merged


def _load_optimizers(raw: dict) -> dict[str, dict]:
    unknown = set(raw) - set(DEFAULT_OPTIMIZER_SETTINGS)
    if unknown:
        raise ConfigError(f"optimizers: unknown strategies {sorted(unknown)}")
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
                        generator=generator, optimizers=optimizers,
                        path=str(path))


def load_policy_file(path: str | Path, network: NetworkSpec) -> PolicyVector:
    return _load_policy(_read_json(path, "policy"), network, "policy")


def demand_file(history_dir: str | Path, fid: str) -> Path:
    return Path(history_dir) / f"demand_{fid}.csv"


def lead_delta_file(history_dir: str | Path, fid: str) -> Path:
    return Path(history_dir) / f"lead_delta_{fid}.csv"


def write_series_csv(path: Path, header: str, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([header])
        for v in values:
            writer.writerow([int(v)])


def read_series_csv(path: Path, header: str) -> np.ndarray:
    if not path.exists():
        raise ConfigError(f"history file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or rows[0] != [header]:
        raise ConfigError(f"{path}: expected single-column CSV with "
                          f"header {header!r}")
    try:
        return np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    except (ValueError, IndexError):
        raise ConfigError(f"{path}: non-integer value in series") from None


def write_history(history: HistoryDataset, out_dir: str | Path) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fid, series in history.demand.items():
        path = demand_file(out_dir, fid)
        write_series_csv(path, "demand", series)
        written.append(path)
    for fid, series in history.lead_delta.items():
        path = lead_delta_file(out_dir, fid)
        write_series_csv(path, "lead_delta", series)
        written.append(path)
    return written


def read_history(history_dir: str | Path,
                 network: NetworkSpec) -> HistoryDataset:
    demand = {fid: read_series_csv(demand_file(history_dir, fid), "demand")
              for fid in network.customer_ids}
    lead = {fid: read_series_csv(lead_delta_file(history_dir, fid),
                                 "lead_delta")
            for fid in network.ids}
    try:
        return HistoryDataset(demand=demand, lead_delta=lead)
    except ValueError as exc:
        raise ConfigError(f"history in {history_dir}: {exc}") from None
