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

from dataclasses import dataclass
from enum import Enum
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


class NetworkValidationError(ValueError):
    """Raised when a network spec fails validation."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"invalid network: {lines}")


@dataclass(frozen=True)
class Violation:
    code: str
    facility_id: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}[{self.facility_id}]: {self.message}"


CYCLE_DETECTED = "CYCLE_DETECTED"
MULTIPLE_UPSTREAMS = "MULTIPLE_UPSTREAMS"
UNKNOWN_UPSTREAM = "UNKNOWN_UPSTREAM"
TARGET_ON_NONCUSTOMER_FACILITY = "TARGET_ON_NONCUSTOMER_FACILITY"


@dataclass(frozen=True)
class FacilitySpec:
    """One stocking location.

    ``base_lead_time`` is the minimum replenishment lead time in days from
    the upstream unit; the simulator adds a bootstrapped random delta on
    top of it.  ``target_beta`` is the fill-rate target and must be 0 for
    facilities that do not serve customers.
    """

    id: str
    upstream: str
    base_lead_time: int
    target_beta: float = 0.0
    serves_customers: bool = False


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered collection of facilities forming a supply tree."""

    facilities: tuple[FacilitySpec, ...]

    def __init__(self, facilities: Sequence[FacilitySpec]):
        object.__setattr__(self, "facilities", tuple(facilities))

    @property
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


def validate_network(spec: NetworkSpec) -> list[Violation]:
    """Check the tree/uniqueness/target invariants.

    Returns an empty list when the network is valid, otherwise one
    violation per problem found (the network is never mutated or
    repaired).
    """
    violations: list[Violation] = []
    seen: set[str] = set()
    for f in spec.facilities:
        if f.id in seen:
            violations.append(Violation(
                MULTIPLE_UPSTREAMS, f.id,
                "facility declared more than once (a second upstream)"))
        seen.add(f.id)
        if f.id == SOURCE:
            violations.append(Violation(
                UNKNOWN_UPSTREAM, f.id,
                "the SOURCE sentinel cannot be a stocking facility"))
        if not (0.0 <= f.target_beta <= 1.0):
            violations.append(Violation(
                TARGET_ON_NONCUSTOMER_FACILITY, f.id,
                f"target_beta {f.target_beta} outside [0, 1]"))
        elif not f.serves_customers and f.target_beta != 0.0:
            violations.append(Violation(
                TARGET_ON_NONCUSTOMER_FACILITY, f.id,
                "non-customer facility must have target_beta = 0"))
        if f.base_lead_time < 0:
            violations.append(Violation(
                UNKNOWN_UPSTREAM, f.id,
                f"base_lead_time {f.base_lead_time} is negative"))

    ids = set(f.id for f in spec.facilities)
    upstream_of = {f.id: f.upstream for f in spec.facilities}
    for f in spec.facilities:
        if f.upstream != SOURCE and f.upstream not in ids:
            violations.append(Violation(
                UNKNOWN_UPSTREAM, f.id,
                f"upstream {f.upstream!r} is not a known facility"))

    # Walk upstream pointers: every chain must terminate at SOURCE without
    # revisiting a facility.
    for f in spec.facilities:
        trail: set[str] = set()
        current = f.id
        while current != SOURCE:
            if current in trail:
                violations.append(Violation(
                    CYCLE_DETECTED, f.id,
                    f"upstream chain revisits {current!r}"))
                break
            trail.add(current)
            current = upstream_of.get(current, SOURCE)
    return violations


@dataclass(frozen=True)
class PolicyVector:
    """Per-facility reorder point and base stock, in whole units.

    The order-quantity rule (order up to base stock when the inventory
    position reaches the reorder point) only makes sense with
    ``base_stock >= reorder_point >= 0``; construction enforces it.
    """

    reorder_point: Mapping[str, int]
    base_stock: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "reorder_point", dict(self.reorder_point))
        object.__setattr__(self, "base_stock", dict(self.base_stock))
        if set(self.reorder_point) != set(self.base_stock):
            raise ValueError("reorder_point and base_stock cover different facilities")
        for fid, rop in self.reorder_point.items():
            base = self.base_stock[fid]
            if not (base >= rop >= 0):
                raise ValueError(
                    f"facility {fid}: need base_stock >= reorder_point >= 0, "
                    f"got R={rop}, B={base}")

    @classmethod
    def from_array(cls, network: NetworkSpec, x: np.ndarray) -> "PolicyVector":
        """Build from the flat layout [R_1..R_F, B_1..B_F] (network order)."""
        n = len(network.facilities)
        if len(x) != 2 * n:
            raise ValueError(f"expected {2 * n} values, got {len(x)}")
        ids = network.ids
        rop = {fid: int(x[i]) for i, fid in enumerate(ids)}
        base = {fid: int(x[n + i]) for i, fid in enumerate(ids)}
        return cls(rop, base)

    def to_array(self, network: NetworkSpec) -> np.ndarray:
        ids = network.ids
        return np.array(
            [self.reorder_point[fid] for fid in ids]
            + [self.base_stock[fid] for fid in ids], dtype=float)


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation horizon, replication count, and objective settings."""

    horizon: int = 360
    replications: int = 20
    penalty_rho: float = 1.0e6
    demand_choice: DemandChoice = DemandChoice.BACKORDER
    initial_inventory_fraction: float = 0.9
    base_seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.penalty_rho < 0:
            raise ValueError("penalty_rho must be >= 0")
        if not (0.0 <= self.initial_inventory_fraction <= 1.0):
            raise ValueError("initial_inventory_fraction must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class HistoryDataset:
    """Empirical samples the simulator bootstraps from.

    ``demand`` holds daily customer demand per customer-serving facility;
    ``lead_delta`` holds the nonnegative random days added on top of each
    facility's base lead time.  Both are read-only mappings of read-only
    copies of the given samples, so a dataset never changes after
    construction.  Equality and hashing are by identity: the simulator
    keys its draw tables on the dataset object.
    """

    demand: Mapping[str, np.ndarray]
    lead_delta: Mapping[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "demand", MappingProxyType({
            k: _frozen_samples(k, v) for k, v in self.demand.items()}))
        object.__setattr__(self, "lead_delta", MappingProxyType({
            k: _frozen_samples(k, v) for k, v in self.lead_delta.items()}))

    def require_covers(self, network: NetworkSpec) -> None:
        for fid in network.customer_ids:
            if fid not in self.demand:
                raise KeyError(f"no demand history for customer facility {fid}")
        for fid in network.ids:
            if fid not in self.lead_delta:
                raise KeyError(f"no lead-delta history for facility {fid}")


def _frozen_samples(fid: str, values) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"facility {fid}: history must be a nonempty 1-D list")
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
    with B's upper bound >= R's (the config loader enforces this), so the
    lift cannot leave the box.
    """
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise NonFiniteInputError("policy proposal contains NaN or infinity")
    x = np.clip(raw, lower, upper)
    x = np.rint(x)
    x = np.clip(x, lower, upper)
    n = x.shape[-1] // 2
    x[..., n:] = np.maximum(x[..., n:], x[..., :n])
    return x
