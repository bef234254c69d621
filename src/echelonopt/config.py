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
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .model import (
    DemandChoice,
    FacilitySpec,
    HistoryDataset,
    NetworkSpec,
    NetworkValidationError,
    PolicyVector,
    ScenarioConfig,
    check_minimums,
    finite_number,
    validate_network,
    whole_number,
)
from .optim import Budget, SearchSpace
from .optim.core import SETTING_MINIMUMS, STRATEGIES, check_strategy
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
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected an object, got {raw!r}")
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"{context}: unknown {what} {unknown}; known "
                          f"{what}: {sorted(known)}")


def _float(value, context: str) -> float:
    """``float(value)``; a number too large for a float raises."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{context}: number too large for a "
                          "float") from None


def _integer(value, context: str) -> int:
    """``value`` as an int in float range, by ``whole_number``'s rule."""
    try:
        number = whole_number(value, context)
    except ValueError:
        raise ConfigError(f"{context}: expected an integer, "
                          f"got {value!r}") from None
    _float(number, context)
    return number


def _number(value, context: str) -> float:
    """``value`` as a float in float range, by ``finite_number``'s rule."""
    try:
        number = finite_number(value, context)
    except ValueError:
        raise ConfigError(f"{context}: expected a finite number, "
                          f"got {value!r}") from None
    return _float(number, context)


def _boolean(value, context: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{context}: expected true or false, got {value!r}")


def _demand_choice(value, context: str) -> DemandChoice:
    """``value`` as a DemandChoice, ignoring case."""
    choice = str(value).lower()
    try:
        return DemandChoice(choice)
    except ValueError:
        names = " or ".join(repr(c.value) for c in DemandChoice)
        raise ConfigError(f"{context}: {choice!r} must be {names}") from None


_READERS = {int: _integer, float: _number, bool: _boolean,
            str: lambda value, context: str(value),
            DemandChoice: _demand_choice}


def _read(cls, raw, context: str, **readers):
    """``cls`` built from the JSON object ``raw``, one key per field.

    Each value goes through ``readers[name]`` if given, else the reader
    for its field's annotated type.  A field without a default must be
    given; the others take ``cls``'s default.  An unknown key, or a
    ValueError from ``cls`` itself, raises ConfigError naming ``context``.
    """
    types = get_type_hints(cls)
    _reject_unknown(raw, types, context)
    for field in fields(cls):
        if field.default is MISSING:
            _require(raw, field.name, context)
    values = {name: (readers.get(name) or _READERS[types[name]])(
        value, f"{context}.{name}") for name, value in raw.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _load_network(raw: dict) -> NetworkSpec:
    _reject_unknown(raw, ("facilities",), "network")
    entries = _require(raw, "facilities", "network")
    if not isinstance(entries, list):
        raise ConfigError(f"network.facilities: expected a list, "
                          f"got {entries!r}")
    facilities = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"network.facilities[{i}]: expected an "
                              f"object, got {entry!r}")
        fid = _require(entry, "id", "facility")
        facilities.append(_read(FacilitySpec, entry, f"facility {fid}"))
    network = NetworkSpec(facilities)
    violations = validate_network(network)
    if violations:
        raise ConfigError(str(NetworkValidationError(violations)))
    return network


def _by_facility(ids, read, raw, context: str) -> dict:
    """``{fid: read(entry, context[fid])}`` for each id of a per-facility
    map; ``raw`` must give exactly ``ids``."""
    _reject_unknown(raw, ids, context, "facilities")
    return {fid: read(_require(raw, fid, context), f"{context}[{fid}]")
            for fid in ids}


POLICY_KEYS = tuple(field.name for field in fields(PolicyVector))


def _pair(read, entry, context: str) -> dict:
    """``{key: read(entry[key])}`` for ``POLICY_KEYS``, the only keys of
    ``entry``."""
    _reject_unknown(entry, POLICY_KEYS, context)
    return {key: read(_require(entry, key, context), f"{context}.{key}")
            for key in POLICY_KEYS}


def _load_policy(raw: dict, network: NetworkSpec,
                 context: str) -> PolicyVector:
    entries = _by_facility(network.ids, partial(_pair, _integer), raw,
                           context)
    try:
        return PolicyVector(*({fid: entry[key] for fid, entry
                               in entries.items()} for key in POLICY_KEYS))
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _bound(value, context: str) -> tuple[int, int]:
    if isinstance(value, list) and len(value) == 2:
        lo, hi = (_integer(v, context) for v in value)
        if 0 <= lo < hi:
            return lo, hi
    raise ConfigError(f"{context}: need [lo, hi], integers with "
                      "0 <= lo < hi")


def _box(entry, context: str) -> tuple:
    reorder_point, base_stock = _pair(_bound, entry, context).values()
    if base_stock[1] < reorder_point[1]:
        raise ConfigError(f"{context}: base_stock upper bound {base_stock[1]} "
                          f"below reorder_point upper bound "
                          f"{reorder_point[1]}; the B >= R repair could "
                          "leave the box")
    return reorder_point, base_stock


def _load_space(raw: dict, network: NetworkSpec) -> SearchSpace:
    rop, base = zip(*_by_facility(network.ids, _box, raw, "bounds").values())
    return SearchSpace(*np.array(rop + base, dtype=float).T)


def _load_generator(raw: dict, network: NetworkSpec) -> HistoryGenParams:
    entry = partial(_read, SeriesParams)
    return _read(HistoryGenParams, raw, "generator",
                 demand=partial(_by_facility, network.customer_ids, entry),
                 lead_delta=partial(_by_facility, network.ids, entry))


def merge_optimizer_settings(strategy: str, given: dict) -> dict:
    """The strategy's defaults with ``given`` laid over them.

    A setting takes its default's type: an int only integral numbers, a
    float any finite number.  An unknown strategy fails ``check_strategy``;
    a key the strategy has no default for, or a value that misses its
    type, minimum (``SETTING_MINIMUMS``) or the run's Budget, raises a
    ConfigError naming ``optimizers.<strategy>.<key>``.
    """
    check_strategy(strategy)
    context = f"optimizers.{strategy}"
    defaults = DEFAULT_OPTIMIZER_SETTINGS[strategy]
    _reject_unknown(given, defaults, context, "settings")
    merged = {key: _READERS[type(default)](given.get(key, default),
                                           f"{context}.{key}")
              for key, default in defaults.items()}
    try:
        check_minimums(merged, SETTING_MINIMUMS)
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
    scenario = _read(ScenarioConfig, raw.get("scenario", {}), "scenario")
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


def policy_payload(policy: PolicyVector, network: NetworkSpec) -> dict:
    """The JSON shape ``load_policy_file`` reads back."""
    return {fid: {key: getattr(policy, key)[fid] for key in POLICY_KEYS}
            for fid in network.ids}


def _history_file(history_dir: str | Path, series: str, fid: str) -> Path:
    return Path(history_dir) / f"{series}_{fid}.csv"


def _count(text: str) -> int:
    """A history CSV value as an int by ``whole_number``'s rule, so "3.0"
    reads as 3; int() first keeps every digit of a large value."""
    try:
        return int(text)
    except ValueError:
        return whole_number(float(text), "value")


def _read_series(history_dir: str | Path, series: str,
                 fid: str) -> np.ndarray:
    path = _history_file(history_dir, series, fid)
    if not path.exists():
        raise ConfigError(f"history file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != [series] or any(len(r) != 1 for r in rows):
        raise ConfigError(f"{path}: expected single-column CSV with "
                          f"header {series!r}")
    try:
        return np.array([_count(r[0]) for r in rows[1:]], dtype=np.int64)
    except ValueError:
        raise ConfigError(f"{path}: non-integer value in series") from None
    except OverflowError:
        raise ConfigError(f"{path}: value outside the int64 range") from None


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
