"""The penalized scalar objective presented to optimizers as a black box.

Z = AA/N + rho * Abeta/N, where AA accumulates every facility's average
on-hand stock across N replications and Abeta accumulates every
facility's service-level shortfall max(0, target - beta).  Shortfalls are
summed per replication and then averaged -- not computed on averaged
betas -- because the max() makes the two orderings differ.

Replication n always draws from the streams keyed by n, so repeated
evaluations of the same policy return bit-identical Z (common random
numbers): the optimizers see a deterministic function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .engine import SimulationOutcome, sim_network
from .model import HistoryDataset, NetworkSpec, PolicyVector, ScenarioConfig


@dataclass(frozen=True)
class ObjectiveReport:
    """One objective evaluation, with per-facility diagnostics."""

    z: float
    mean_total_on_hand: float
    mean_violation: float
    replications: int
    mean_beta: dict[str, float]
    std_beta: dict[str, float]
    mean_on_hand: dict[str, float]
    policy: PolicyVector
    feasible: bool  # every facility's mean beta meets its target


def aggregate_outcomes(outcomes: Sequence[SimulationOutcome],
                       targets: Mapping[str, float],
                       rho: float,
                       policy: PolicyVector) -> ObjectiveReport:
    """Fold per-replication outcomes into the penalized objective.

    Aggregation order is fixed (the given sequence is replication order),
    so results are identical no matter how the replications were run.
    """
    n = len(outcomes)
    if n == 0:
        raise ValueError("need at least one replication outcome")
    fids = list(outcomes[0].avg_on_hand)
    total_on_hand = 0.0
    total_violation = 0.0
    for outcome in outcomes:
        for fid in fids:
            total_on_hand += outcome.avg_on_hand[fid]
            total_violation += max(0.0, targets[fid] - outcome.beta[fid])
    # One row per facility, in replication order: each row sums as one
    # contiguous series, pairwise from 8 replications on; an array with a
    # row per replication, reduced over axis 0, would add in another order.
    betas = np.array([[o.beta[fid] for o in outcomes] for fid in fids])
    on_hand = np.array([[o.avg_on_hand[fid] for o in outcomes]
                        for fid in fids])
    mean_beta = dict(zip(fids, betas.mean(axis=1).tolist()))
    return ObjectiveReport(
        z=total_on_hand / n + rho * total_violation / n,
        mean_total_on_hand=total_on_hand / n,
        mean_violation=total_violation / n,
        replications=n,
        mean_beta=mean_beta,
        std_beta=dict(zip(fids, betas.std(axis=1).tolist())),
        mean_on_hand=dict(zip(fids, on_hand.mean(axis=1).tolist())),
        policy=policy,
        feasible=all(mean_beta[fid] >= targets[fid] for fid in fids),
    )


def evaluate(policy: PolicyVector, network: NetworkSpec,
             history: HistoryDataset,
             config: ScenarioConfig) -> ObjectiveReport:
    """Run N replications of the policy and return the penalized objective."""
    outcomes = [
        sim_network(network, policy, history, config, replication_index=n)
        for n in range(1, config.replications + 1)
    ]
    return aggregate_outcomes(outcomes, network.targets,
                              config.penalty_rho, policy)
