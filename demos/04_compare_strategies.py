"""Race the three strategies on the same data and print the solver table.

Restarted Nelder-Mead, the Gaussian-process search, and the cubic-RBF
surrogate search each get an identical budget, identical history, and
disjoint seeds, then the results land in one side-by-side table:
objective reached, % reduction from the starting policy, per-facility
policies, evaluation counts, and CPU time.

Run:  python3 demos/04_compare_strategies.py       (about a minute)
"""

import tempfile
from pathlib import Path

from echelonopt.config import load_config
from echelonopt.harness import (
    comparison_table,
    derive_strategy_seed,
    format_table,
    run_strategy,
)
from echelonopt.model import ScenarioConfig
from echelonopt.objective import evaluate
from echelonopt.presets import write_five_facility_config
from echelonopt.sampling import generate_synthetic_history

with tempfile.TemporaryDirectory() as tmp:
    cfg = load_config(write_five_facility_config(Path(tmp) / "config.json"))

history = generate_synthetic_history(cfg.network, cfg.generator,
                                     seed=cfg.scenario.base_seed)
scenario = ScenarioConfig(
    horizon=cfg.scenario.horizon, replications=5,
    penalty_rho=cfg.scenario.penalty_rho,
    demand_choice=cfg.scenario.demand_choice,
    initial_inventory_fraction=cfg.scenario.initial_inventory_fraction,
    base_seed=cfg.scenario.base_seed)

initial_z = evaluate(cfg.initial_policy, cfg.network, history, scenario).z
print(f"starting policy Z = {initial_z:.1f}\n")

results = []
for strategy in ("nelder-mead", "gp", "rbf"):
    print(f"running {strategy} (300 evaluations)...")
    results.append(run_strategy(
        strategy, cfg.network, history, scenario, cfg.space,
        cfg.initial_policy, settings={"max_evaluations": 300},
        seed=derive_strategy_seed(cfg.scenario.base_seed, strategy),
        initial_z=initial_z))

print()
print(format_table(comparison_table(results, cfg.network)))
print("\nThe surrogate strategies usually land far below the simplex"
      "\nsearch at this budget; rerun with different seeds or budgets by"
      "\nediting the constants above, or use the CLI:"
      "\n  echelonopt compare --config configs/five_facility.json"
      " --history-dir <dir> --out <dir>")
