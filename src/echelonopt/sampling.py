"""Seeded random streams, bootstrap draws, and synthetic history generation.

Demand and lead-time variability are reproduced by resampling empirical
histories uniformly with replacement (no parametric smoothing, no time
correlation).  Every random stream is keyed by (base_seed, replication,
facility, purpose) so that replication n of facility f always sees the
same draws regardless of what any other stream consumed -- the common
random numbers that make the simulation objective a deterministic
function of the policy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .model import HistoryDataset, NetworkSpec, check_minimums, whole_number


class EmptyHistoryError(ValueError):
    """Bootstrap was asked to draw from an empty sample list."""


class InvalidParamsError(ValueError):
    """Synthetic-history generator parameters are unusable."""


class StreamPurpose(Enum):
    DEMAND = 0
    LEAD = 1


def _stable_id_words(facility_id: str) -> tuple[int, int]:
    # Stable across processes and platforms, unlike built-in hash().
    digest = hashlib.sha256(facility_id.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[0:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


@dataclass(frozen=True)
class StreamKey:
    """Identity of one reproducible random stream."""

    base_seed: int
    replication: int
    facility: str
    purpose: StreamPurpose

    def generator(self) -> np.random.Generator:
        w1, w2 = _stable_id_words(self.facility)
        # any non-negative ints, so no two seeds or replications alias
        seq = np.random.SeedSequence(
            entropy=self.base_seed,
            spawn_key=(self.replication, w1, w2, self.purpose.value),
        )
        return np.random.default_rng(seq)


def bootstrap_draw(samples, rng: np.random.Generator,
                   size: int | None = None) -> int | np.ndarray:
    """Uniform draws with replacement from an empirical sample list: one
    int, or with ``size`` an array of that many, from one RNG call."""
    n = len(samples)
    if n == 0:
        raise EmptyHistoryError("cannot bootstrap from an empty history")
    idx = rng.integers(0, n, size=size)
    if size is None:
        return int(samples[idx])
    return np.asarray(samples)[idx]


@dataclass(frozen=True)
class SeriesParams:
    """Truncated discretized normal: round(N(mean, spread)) clipped at 0."""

    mean: float
    spread: float

    def __post_init__(self):
        check_minimums(vars(self), {"mean": 0.0, "spread": 0.0},
                       InvalidParamsError)


@dataclass(frozen=True)
class HistoryGenParams:
    """Per-facility settings for the synthetic-history generator."""

    demand: Mapping[str, SeriesParams]
    lead_delta: Mapping[str, SeriesParams]
    length: int = 360

    def __post_init__(self):
        check_minimums(vars(self), {"length": 1}, InvalidParamsError)
        object.__setattr__(self, "demand", dict(self.demand))
        object.__setattr__(self, "lead_delta", dict(self.lead_delta))


def _synth_series(params: SeriesParams, rng: np.random.Generator,
                  length: int, context: str) -> np.ndarray:
    if params.spread == 0:
        vals = np.full(length, float(params.mean))
    else:
        vals = rng.normal(params.mean, params.spread, size=length)
    vals = np.maximum(np.rint(vals), 0)
    if vals.max() >= 2.0**63:
        raise InvalidParamsError(f"{context}: a draw of {vals.max():.4g} "
                                 "is beyond the int64 range (2**63)")
    return vals.astype(np.int64)


def generate_synthetic_history(network: NetworkSpec,
                               params: HistoryGenParams,
                               seed: int) -> HistoryDataset:
    """Deterministically generate a HistoryDataset for a network.

    Demand series are produced only for customer-serving facilities;
    lead-delta series for every facility.  Each series has its own
    stream, so adding a facility never shifts another facility's data.
    ``seed`` must be a whole number.
    """
    seed = whole_number(seed, "seed")
    for fid in network.customer_ids:
        if fid not in params.demand:
            raise InvalidParamsError(f"no demand params for customer facility {fid}")
    for fid in network.ids:
        if fid not in params.lead_delta:
            raise InvalidParamsError(f"no lead-delta params for facility {fid}")

    demand = {}
    for fid in network.customer_ids:
        rng = StreamKey(seed, 0, fid, StreamPurpose.DEMAND).generator()
        demand[fid] = _synth_series(params.demand[fid], rng, params.length,
                                    f"generator.demand[{fid}]")
    lead_delta = {}
    for fid in network.ids:
        rng = StreamKey(seed, 0, fid, StreamPurpose.LEAD).generator()
        lead_delta[fid] = _synth_series(params.lead_delta[fid], rng,
                                        params.length,
                                        f"generator.lead_delta[{fid}]")
    return HistoryDataset(demand=demand, lead_delta=lead_delta)
