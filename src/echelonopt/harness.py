"""Glue between the inventory objective and the optimization strategies.

Builds the black-box callable (policy vector in, penalized Z out), the
repair hook that turns continuous proposals into simulable integer
policies, and per-strategy runs with Table-style summaries.  Strategy
seeds are disjoint: each spawns from the shared seed at its STRATEGIES index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import merge_optimizer_settings
from .model import (
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
    repair_policy_array,
)
from .objective import ObjectiveReport, evaluate
from .optim import Budget, OptimizerRun, SearchSpace, minimize
from .optim.core import STRATEGIES, check_strategy


def derive_strategy_seed(shared_seed: int, strategy: str) -> int:
    check_strategy(strategy)
    seq = np.random.SeedSequence(shared_seed,
                                 spawn_key=(STRATEGIES.index(strategy),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def make_policy_objective(network: NetworkSpec, history: HistoryDataset,
                          scenario: ScenarioConfig, best: list
                          ) -> Callable[[np.ndarray], float]:
    """Z of a policy vector; ``best`` holds the report of the strictly
    lowest Z so far, the same point the tracker keeps as its best."""
    def objective(x: np.ndarray) -> float:
        report = evaluate(PolicyVector.from_array(network, x), network,
                          history, scenario)
        if not best or report.z < best[0].z:
            best[:] = [report]
        return report.z

    return objective


@dataclass
class StrategyResult:
    """One strategy's run and the report on its best policy."""

    run: OptimizerRun
    report: ObjectiveReport  # kept when the run scored its best point

    @property
    def initial_z(self) -> float:
        """Z of the run's first point: the initial policy, repaired."""
        return float(self.run.evaluated_values[0])

    @property
    def reduction_pct(self) -> float:
        if self.initial_z == 0:
            return 0.0
        return 100.0 * (self.initial_z - self.run.best_value) / self.initial_z


def run_strategy(strategy: str, network: NetworkSpec,
                 history: HistoryDataset, scenario: ScenarioConfig,
                 space: SearchSpace, initial_policy: PolicyVector,
                 settings: dict | None = None, log=None) -> StrategyResult:
    """Run one strategy end to end against the inventory objective.

    ``settings`` overrides the strategy's keys in
    ``DEFAULT_OPTIMIZER_SETTINGS``, the seed included.  The budget and
    the seed are taken out of the merged settings; the rest go to the
    search.  Every strategy scores the initial policy first.
    """
    search = merge_optimizer_settings(strategy, settings or {})
    budget = Budget(search.pop("max_evaluations"), search.pop("max_minutes"))
    seed = search.pop("seed")
    best: list[ObjectiveReport] = []
    run = minimize(make_policy_objective(network, history, scenario, best),
                   space, budget, strategy=strategy, seed=seed,
                   x0=initial_policy.to_array(network),
                   repair=lambda x: repair_policy_array(x, space.lower,
                                                        space.upper),
                   log=log, **search)
    return StrategyResult(run=run, report=best[0])


def comparison_table(results: list[StrategyResult],
                     network: NetworkSpec) -> list[list[str]]:
    """Rows x columns table in the solver-comparison layout."""
    header = ["", *(r.run.strategy for r in results)]
    rows = [header]
    policies = [r.report.policy for r in results]
    rows.append(["Optimal objective",
                 *(f"{r.run.best_value:.0f}" for r in results)])
    rows.append(["% reduction from the initial guess",
                 *(f"{r.reduction_pct:.0f}%" for r in results)])
    for fid in network.ids:
        rows.append([f"Optimal base stock - facility {fid}",
                     *(str(p.base_stock[fid]) for p in policies)])
    for fid in network.ids:
        rows.append([f"Optimal ROP - facility {fid}",
                     *(str(p.reorder_point[fid]) for p in policies)])
    rows.append(["Total iterations",
                 *(str(r.run.evaluations_used) for r in results)])
    rows.append(["CPU time (minutes)",
                 *(f"{r.run.cpu_time_s / 60.0:.2f}" for r in results)])
    return rows


def format_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for idx, row in enumerate(rows):
        cells = [row[0].ljust(widths[0])]
        cells += [c.rjust(widths[i + 1]) for i, c in enumerate(row[1:])]
        lines.append("  ".join(cells).rstrip())
        if idx == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines)
