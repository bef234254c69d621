"""Domain types for the multi-echelon inventory network.

A network is a tree of stocking facilities rooted at a single external
supply node (the ``SOURCE`` sentinel).  Every facility is replenished by
exactly one upstream unit, follows a combined reorder-point / base-stock
policy, and either faces customer demand directly or exists purely to
replenish other facilities.

All types here are frozen dataclasses: immutable after construction and
safe to share across threads by read-only access.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

SOURCE = "SOURCE"


class DemandChoice(Enum):
    """What happens to unmet customer demand."""

    BACKORDER = "backorder"
    LOST_SALES = "lost-sales"


class NonFiniteInputError(ValueError):
    """A policy repair input contained NaN or infinity."""


def whole_number(value, name: str,
                 error: type[ValueError] = ValueError) -> int:
    """``value`` as an int: an int (numpy integers too) or a float with no
    fractional part.  NaN or infinity raises ``error`` as ``<name> must be
    finite``; a fraction, a bool or a non-number as ``<name> must be a
    whole number``."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():  # the ABCs are slow
        return int(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
        if not math.isfinite(value):
            raise error(f"{name} must be finite, got {value}")
    raise error(f"{name} must be a whole number, got {value!r}")


def check_minimums(values: dict, minimums: Mapping,
                   error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the first name in ``minimums`` whose value
    is below its minimum, NaN or infinite; an absent value passes.  A
    name with an int minimum is a count: its value must pass
    ``whole_number`` and is written back into ``values`` as an int, so a
    whole float is stored as an int (``vars(self)`` of a frozen class
    too)."""
    for name, minimum in minimums.items():
        if name not in values:
            continue
        value = values[name]
        if type(minimum) is int:
            value = values[name] = whole_number(value, name, error)
        if value < minimum:
            raise error(f"{name} must be >= {minimum:g}, got {value}")
        if not value < math.inf:  # NaN or inf; ints of any size pass
            raise error(f"{name} must be finite, got {value}")


class NetworkValidationError(ValueError):
    """Raised when a network spec fails validation."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__(f"invalid network: {'; '.join(self.violations)}")


@dataclass(frozen=True)
class FacilitySpec:
    """One stocking location.

    ``base_lead_time`` is the minimum replenishment lead time in days from
    the upstream unit; the simulator adds a bootstrapped random delta on
    top of it.  ``target_beta`` is the fill-rate target and must be 0 for
    facilities that do not serve customers.  ``base_lead_time`` is
    stored as an int.
    """

    id: str
    upstream: str
    base_lead_time: int
    target_beta: float = 0.0
    serves_customers: bool = False

    def __post_init__(self):
        object.__setattr__(self, "base_lead_time", whole_number(
            self.base_lead_time, f"facility {self.id}: base_lead_time"))


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered collection of facilities forming a supply tree."""

    facilities: tuple[FacilitySpec, ...]

    def __init__(self, facilities: Sequence[FacilitySpec]):
        object.__setattr__(self, "facilities", tuple(facilities))

    @cached_property  # read once per objective call, so built once
    def ids(self) -> tuple[str, ...]:
        return tuple(f.id for f in self.facilities)

    @property
    def customer_ids(self) -> tuple[str, ...]:
        return tuple(f.id for f in self.facilities if f.serves_customers)

    @property
    def targets(self) -> dict[str, float]:
        return {f.id: f.target_beta for f in self.facilities}

    def require_valid(self) -> None:
        violations = validate_network(self)
        if violations:
            raise NetworkValidationError(violations)


def validate_network(spec: NetworkSpec) -> list[str]:
    """Check the tree/uniqueness/target invariants.

    Returns an empty list when the network is valid, otherwise one
    message per problem found, each starting ``facility <id>: `` except
    the one message for a network with no facilities (the network is
    never mutated or repaired).
    """
    if not spec.facilities:
        return ["the network has no facilities"]
    problems: list[tuple[str, str]] = []
    seen: set[str] = set()
    for f in spec.facilities:
        if f.id in seen:
            problems.append((f.id, "declared more than once"))
        seen.add(f.id)
        if f.id == SOURCE:
            problems.append(
                (f.id, "the SOURCE sentinel cannot be a stocking facility"))
        if not (0.0 <= f.target_beta <= 1.0):
            problems.append(
                (f.id, f"target_beta {f.target_beta} outside [0, 1]"))
        elif not f.serves_customers and f.target_beta != 0.0:
            problems.append((f.id, "serves no customers, so target_beta "
                                   f"must be 0, got {f.target_beta}"))
        if f.base_lead_time < 0:
            problems.append(
                (f.id, f"base_lead_time {f.base_lead_time} is negative"))

    ids = set(f.id for f in spec.facilities)
    upstream_of = {f.id: f.upstream for f in spec.facilities}
    for f in spec.facilities:
        if f.upstream != SOURCE and f.upstream not in ids:
            problems.append(
                (f.id, f"upstream {f.upstream!r} is not a known facility"))

    # Walk upstream pointers: every chain must terminate at SOURCE without
    # revisiting a facility.  Only a loop's members walk back to
    # themselves, and their trail is the loop, so each loop is reported
    # once, at its first member in network order; a chain that only
    # leads into a loop is not reported.
    looped: set[str] = set()
    for f in spec.facilities:
        trail: set[str] = set()
        current = f.id
        while current != SOURCE and current not in trail:
            trail.add(current)
            current = upstream_of.get(current, SOURCE)
        if current != SOURCE and current == f.id and f.id not in looped:
            looped |= trail
            problems.append((f.id, f"upstream chain revisits {f.id!r}"))
    return [f"facility {fid}: {message}" for fid, message in problems]


@dataclass(frozen=True)
class PolicyVector:
    """Per-facility reorder point and base stock, in whole units.

    The order-quantity rule (order up to base stock when the inventory
    position reaches the reorder point) only makes sense with
    ``base_stock >= reorder_point >= 0``; construction enforces it.  Each
    value must pass ``whole_number`` and is stored as an int: a whole
    float is stored as the equal int, and 5.5, NaN or inf raises.
    """

    reorder_point: Mapping[str, int]
    base_stock: Mapping[str, int]

    def __post_init__(self):
        reorder_point = dict(self.reorder_point)
        base_stock = dict(self.base_stock)
        if reorder_point.keys() != base_stock.keys():
            raise ValueError("reorder_point and base_stock cover different facilities")
        for fid, rop in reorder_point.items():
            try:
                rop = reorder_point[fid] = whole_number(rop, "reorder_point")
                base = base_stock[fid] = whole_number(base_stock[fid],
                                                      "base_stock")
            except ValueError as exc:
                raise ValueError(f"facility {fid}: {exc}") from None
            if not (base >= rop >= 0):
                raise ValueError(
                    f"facility {fid}: need base_stock >= reorder_point >= 0, "
                    f"got R={rop}, B={base}")
        object.__setattr__(self, "reorder_point", reorder_point)
        object.__setattr__(self, "base_stock", base_stock)

    @classmethod
    def from_array(cls, network: NetworkSpec, x: np.ndarray) -> "PolicyVector":
        """Build from the flat layout [R_1..R_F, B_1..B_F] (network order),
        an array or any sequence; every value must be a whole number."""
        ids = network.ids
        n = len(ids)
        if len(x) != 2 * n:
            raise ValueError(f"expected {2 * n} values, got {len(x)}")
        values = np.asarray(x).tolist()
        return cls(dict(zip(ids, values[:n])), dict(zip(ids, values[n:])))

    def to_array(self, network: NetworkSpec) -> np.ndarray:
        ids = network.ids
        return np.array(
            [self.reorder_point[fid] for fid in ids]
            + [self.base_stock[fid] for fid in ids], dtype=float)


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation horizon, replication count, and objective settings;
    horizon, replications and base_seed are stored as ints."""

    horizon: int = 360
    replications: int = 20
    penalty_rho: float = 1.0e6
    demand_choice: DemandChoice = DemandChoice.BACKORDER
    initial_inventory_fraction: float = 0.9
    base_seed: int = 0

    def __post_init__(self):
        check_minimums(vars(self), {"horizon": 1, "replications": 1,
                                    "penalty_rho": 0.0, "base_seed": 0})
        if not (0.0 <= self.initial_inventory_fraction <= 1.0):
            raise ValueError("initial_inventory_fraction must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class HistoryDataset:
    """Empirical samples the simulator bootstraps from.

    ``demand`` holds daily customer demand per customer-serving facility;
    ``lead_delta`` holds the nonnegative random days added on top of each
    facility's base lead time.  Both are read-only mappings of read-only
    int64 copies of the given samples, so a dataset never changes after
    construction.  Every sample must pass ``whole_number``: a whole float
    is stored as an int, and 0.7 raises.  Equality and hashing are by
    identity: the simulator keys its draw tables on the dataset object.
    """

    demand: Mapping[str, np.ndarray]
    lead_delta: Mapping[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "demand", MappingProxyType({
            k: _frozen_samples(k, "demand", v)
            for k, v in self.demand.items()}))
        object.__setattr__(self, "lead_delta", MappingProxyType({
            k: _frozen_samples(k, "lead_delta", v)
            for k, v in self.lead_delta.items()}))

    def __reduce__(self):
        # A mapping proxy does not pickle; the copy is re-frozen, and as a
        # new object it keys its own draw tables.
        return HistoryDataset, (dict(self.demand), dict(self.lead_delta))

    def require_covers(self, network: NetworkSpec) -> None:
        for fid in network.customer_ids:
            if fid not in self.demand:
                raise ValueError(
                    f"no demand history for customer facility {fid}")
        for fid in network.ids:
            if fid not in self.lead_delta:
                raise ValueError(f"no lead-delta history for facility {fid}")


def _frozen_samples(fid: str, series: str, values) -> np.ndarray:
    samples = np.asarray(values)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError(f"facility {fid}: history must be a nonempty 1-D list")
    name = f"facility {fid}: {series} sample"
    try:
        arr = np.array([whole_number(v, name) for v in samples.tolist()],
                       dtype=np.int64)
    except OverflowError:
        raise ValueError(f"facility {fid}: history samples must fit in "
                         "int64") from None
    if (arr < 0).any():
        raise ValueError(f"facility {fid}: history samples must be nonnegative")
    arr.setflags(write=False)
    return arr


def repair_policy_array(raw: np.ndarray, lower: np.ndarray,
                        upper: np.ndarray) -> np.ndarray:
    """Turn an optimizer proposal into a simulable integer policy vector.

    Layout is [R_1..R_F, B_1..B_F]; a 2-D array is repaired row by row.
    Each value is clamped to its box bound and rounded to the nearest
    integer, then every base stock is lifted to its reorder point so
    B >= R holds.  Idempotent.  The box is expected to use integer bounds
    with B's upper bound >= R's (the config loader enforces this), so
    rounding a clamped value cannot leave the box, nor can the lift.
    """
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise NonFiniteInputError("policy proposal contains NaN or infinity")
    x = np.clip(raw, lower, upper)
    x = np.rint(x)
    n = x.shape[-1] // 2
    x[..., n:] = np.maximum(x[..., n:], x[..., :n])
    return x
