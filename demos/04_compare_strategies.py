"""Race the three strategies on the same data and print the solver table.

Restarted Nelder-Mead, the Gaussian-process search, and the cubic-RBF
surrogate search each get an identical budget, identical history, and
disjoint seeds, then the results land in one side-by-side table:
objective reached, % reduction from the starting policy, per-facility
policies, evaluation counts, and CPU time.

Run:  python3 demos/04_compare_strategies.py       (about a minute)
"""

from dataclasses import replace
from pathlib import Path

from echelonopt.config import load_config
from echelonopt.harness import (
    comparison_table,
    derive_strategy_seed,
    format_table,
    run_strategy,
)
from echelonopt.sampling import generate_synthetic_history

cfg = load_config(Path(__file__).resolve().parent.parent / "configs"
                  / "five_facility.json")
history = generate_synthetic_history(cfg.network, cfg.generator,
                                     seed=cfg.scenario.base_seed)
scenario = replace(cfg.scenario, replications=5)

results = []
for strategy in ("nelder-mead", "gp", "rbf"):
    print(f"running {strategy} (300 evaluations)...")
    results.append(run_strategy(
        strategy, cfg.network, history, scenario, cfg.space,
        cfg.initial_policy,
        settings={"max_evaluations": 300,
                  "seed": derive_strategy_seed(cfg.scenario.base_seed,
                                               strategy)}))

# every strategy scores the starting policy first
print(f"\nstarting policy Z = {results[0].initial_z:.1f}\n")
print(format_table(comparison_table(results, cfg.network)))
print("\nThe surrogate strategies usually land far below the simplex"
      "\nsearch at this budget; rerun with different seeds or budgets by"
      "\nediting the constants above, or use the CLI:"
      "\n  echelonopt compare --config configs/five_facility.json"
      " --history-dir <dir> --out <dir>")
