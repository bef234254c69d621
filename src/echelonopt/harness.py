"""Glue between the inventory objective and the optimization strategies.

Builds the black-box callable (policy vector in, penalized Z out), the
repair hook that turns continuous proposals into simulable integer
policies, and per-strategy runs with Table-style summaries.  Strategy
seeds are kept disjoint by deriving them from a shared seed plus a fixed
per-strategy code, so comparison runs never share random streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_OPTIMIZER_SETTINGS, STRATEGIES
from .model import (
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
    repair_policy_array,
)
from .objective import ObjectiveReport, evaluate
from .optim import Budget, OptimizerRun, SearchSpace, minimize

_STRATEGY_CODE = {name: i for i, name in enumerate(STRATEGIES)}


def derive_strategy_seed(shared_seed: int, strategy: str) -> int:
    seq = np.random.SeedSequence(shared_seed & 0xFFFFFFFFFFFFFFFF,
                                 spawn_key=(_STRATEGY_CODE[strategy],))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def make_policy_objective(network: NetworkSpec, history: HistoryDataset,
                          scenario: ScenarioConfig
                          ) -> Callable[[np.ndarray], float]:
    def objective(x: np.ndarray) -> float:
        policy = PolicyVector.from_array(network, x)
        return evaluate(policy, network, history, scenario).z

    return objective


def make_repair(space: SearchSpace) -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: repair_policy_array(x, space.lower, space.upper)


def budget_from_settings(settings: dict) -> Budget:
    return Budget(
        max_evaluations=int(settings.get("max_evaluations", 1000)),
        max_wall_time_s=float(settings.get("max_minutes", 1440.0)) * 60.0,
        cycles=int(settings.get("cycles", 100)),
        iterations_per_cycle=int(settings.get("iterations_per_cycle", 50)),
    )


def strategy_kwargs(strategy: str, settings: dict) -> dict:
    if strategy == "gp":
        return {"kappa": float(settings.get("kappa", 50.0)),
                "n_random_starts": int(settings.get("n_random_starts", 10))}
    return {}


@dataclass
class StrategyResult:
    """One strategy's run plus the diagnostics the comparison table needs."""

    strategy: str
    run: OptimizerRun
    policy: PolicyVector
    report: ObjectiveReport
    initial_z: float
    targets: dict

    @property
    def reduction_pct(self) -> float:
        if self.initial_z == 0:
            return 0.0
        return 100.0 * (self.initial_z - self.run.best_value) / self.initial_z

    @property
    def feasible(self) -> bool:
        return all(self.report.mean_beta[fid] >= self.targets.get(fid, 0.0)
                   for fid in self.report.mean_beta)


def run_strategy(strategy: str, network: NetworkSpec,
                 history: HistoryDataset, scenario: ScenarioConfig,
                 space: SearchSpace, initial_policy: PolicyVector,
                 settings: dict | None = None, seed: int | None = None,
                 initial_z: float | None = None,
                 log=None) -> StrategyResult:
    """Run one strategy end to end against the inventory objective."""
    merged = dict(DEFAULT_OPTIMIZER_SETTINGS[strategy])
    if settings:
        merged.update(settings)
    if seed is not None:
        merged["seed"] = seed

    objective = make_policy_objective(network, history, scenario)
    repair = make_repair(space)
    x0 = initial_policy.to_array(network)
    if initial_z is None:
        initial_z = evaluate(initial_policy, network, history, scenario).z

    run = minimize(objective, space, budget_from_settings(merged),
                   strategy=strategy, seed=int(merged.get("seed", 0)),
                   x0=x0, repair=repair, log=log,
                   **strategy_kwargs(strategy, merged))
    policy = PolicyVector.from_array(network, run.best_point)
    report = evaluate(policy, network, history, scenario)
    return StrategyResult(strategy=strategy, run=run, policy=policy,
                          report=report, initial_z=initial_z,
                          targets=network.targets)


def comparison_table(results: list[StrategyResult],
                     network: NetworkSpec) -> list[list[str]]:
    """Rows x columns table in the solver-comparison layout."""
    header = ["", *(r.strategy for r in results)]
    rows = [header]
    rows.append(["Optimal objective",
                 *(f"{r.run.best_value:.0f}" for r in results)])
    rows.append(["% reduction from the initial guess",
                 *(f"{r.reduction_pct:.0f}%" for r in results)])
    for fid in network.ids:
        rows.append([f"Optimal base stock - facility {fid}",
                     *(str(r.policy.base_stock[fid]) for r in results)])
    for fid in network.ids:
        rows.append([f"Optimal ROP - facility {fid}",
                     *(str(r.policy.reorder_point[fid]) for r in results)])
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
