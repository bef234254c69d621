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
from functools import reduce
from itertools import pairwise
from operator import add
from typing import Mapping, Sequence

import numpy as np

from .engine import SimulationOutcome, sim_network
from .model import (
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
    whole_number,
)


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
    Facilities are those of the first outcome, read by id from each.
    """
    n = len(outcomes)
    if n == 0:
        raise ValueError("need at least one replication outcome")
    fids = list(outcomes[0].avg_on_hand)
    # (replication, [beta, on-hand], facility)
    rows = np.array([values[fid] for o in outcomes
                     for values in (o.beta, o.avg_on_hand)
                     for fid in fids]).reshape(n, 2, len(fids))
    shortfall = np.subtract([targets[fid] for fid in fids], rows[:, 0])
    np.fmax(shortfall, 0.0, out=shortfall)  # max(0, .), NaN read as 0
    # Z's totals run from 0.0 over replications, then facilities, one
    # addition at a time.
    total_on_hand = reduce(add, rows[:, 1].ravel().tolist(), 0.0)
    total_violation = reduce(add, shortfall.ravel().tolist(), 0.0)
    # Means and stds reduce one contiguous row of n replications per
    # facility, as numpy's mean and std do: pairwise from 8 replications
    # on, so a reduction over the replication axis would add in another
    # order.
    series = rows.transpose(1, 2, 0).copy()
    means = np.add.reduce(series, axis=2) / n
    deviation = series[0] - means[0, :, None]
    deviation *= deviation
    std = np.sqrt(np.add.reduce(deviation, axis=1) / n)
    mean_beta, mean_on_hand = means.tolist()
    return ObjectiveReport(
        z=total_on_hand / n + rho * total_violation / n,
        mean_total_on_hand=total_on_hand / n,
        mean_violation=total_violation / n,
        replications=n,
        mean_beta=dict(zip(fids, mean_beta)),
        std_beta=dict(zip(fids, std.tolist())),
        mean_on_hand=dict(zip(fids, mean_on_hand)),
        policy=policy,
        feasible=all(beta >= targets[fid]
                     for fid, beta in zip(fids, mean_beta)),
    )


def evaluate(policy: PolicyVector, network: NetworkSpec,
             history: HistoryDataset, config: ScenarioConfig,
             replications: Sequence[int] | None = None) -> ObjectiveReport:
    """Run the policy on each of the replications, a strictly increasing
    sequence of whole numbers such as a range, and return the penalized
    objective; the default is 1..``config.replications``.

    Replication n always draws from the streams keyed by n, so the
    outcomes of two ranges, folded in replication order by
    ``aggregate_outcomes``, give exactly the report of their union.
    """
    if replications is None:
        replications = range(1, config.replications + 1)
    else:
        replications = [whole_number(n, "replications") for n in replications]
        if any(b <= a for a, b in pairwise(replications)):
            raise ValueError(f"replications must be strictly increasing, "
                             f"got {replications}")
    outcomes = [
        sim_network(network, policy, history, config, replication_index=n)
        for n in replications
    ]
    return aggregate_outcomes(outcomes, network.targets,
                              config.penalty_rho, policy)
