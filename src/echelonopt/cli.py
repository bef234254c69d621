"""Command-line front end.

Subcommands: generate-data, simulate, evaluate, optimize, compare.
Exit codes: 0 on success (and feasible policies for `evaluate`), 2 when
`evaluate` finds a policy missing its targets, 1 on configuration, data,
or usage errors.  Every run is reproducible from its config file and
seeds; `optimize` and `compare` write a manifest next to their outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from .config import (
    ConfigError,
    STRATEGIES,
    LoadedConfig,
    load_config,
    load_policy_file,
    read_history,
    write_history,
)
from .harness import (
    comparison_table,
    derive_strategy_seed,
    format_table,
    run_strategy,
)
from .model import DemandChoice, PolicyVector, ScenarioConfig
from .engine import sim_network
from .objective import evaluate
from .sampling import generate_synthetic_history


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _scenario_with_overrides(cfg: LoadedConfig,
                             args: argparse.Namespace) -> ScenarioConfig:
    s = cfg.scenario
    choice = s.demand_choice
    if getattr(args, "choice", None) and args.choice != "both":
        choice = DemandChoice(args.choice)

    def override(name: str, configured):
        # A given 0 is passed on, so ScenarioConfig rejects it.
        value = getattr(args, name, None)
        return configured if value is None else value

    return ScenarioConfig(
        horizon=override("horizon", s.horizon),
        replications=override("replications", s.replications),
        penalty_rho=s.penalty_rho,
        demand_choice=choice,
        initial_inventory_fraction=s.initial_inventory_fraction,
        base_seed=override("seed", s.base_seed),
    )


def _policy_from_args(cfg: LoadedConfig,
                      args: argparse.Namespace) -> PolicyVector:
    if getattr(args, "policy", None):
        return load_policy_file(args.policy, cfg.network)
    return cfg.initial_policy


def _write_manifest(out_dir: Path, args: argparse.Namespace) -> None:
    manifest = {
        "subcommand": args.command,
        "config": str(Path(args.config).resolve()),
        "history_dir": (str(Path(args.history_dir).resolve())
                        if getattr(args, "history_dir", None) else None),
        "out": str(out_dir.resolve()),
        "seed_override": getattr(args, "seed", None),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_generate_data(args) -> int:
    cfg = load_config(args.config)
    if cfg.generator is None:
        raise ConfigError("config has no generator section")
    seed = args.seed if args.seed is not None else cfg.scenario.base_seed
    history = generate_synthetic_history(cfg.network, cfg.generator, seed)
    out_dir = Path(args.out)
    written = write_history(history, out_dir)
    _write_manifest(out_dir, args)
    print(f"wrote {len(written)} history files to {out_dir} (seed {seed})")
    for fid, series in sorted(history.demand.items()):
        print(f"  demand[{fid}]: n={len(series)} mean={series.mean():.2f} "
              f"min={series.min()} max={series.max()}")
    for fid, series in sorted(history.lead_delta.items()):
        print(f"  lead_delta[{fid}]: n={len(series)} "
              f"mean={series.mean():.2f} max={series.max()}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    history = read_history(args.history_dir, cfg.network)
    scenario = _scenario_with_overrides(cfg, args)
    policy = _policy_from_args(cfg, args)
    outcome = sim_network(cfg.network, policy, history, scenario,
                          replication_index=args.replication,
                          record_trace=bool(args.trace_out))
    print(f"replication {args.replication}, horizon {scenario.horizon}, "
          f"choice {scenario.demand_choice.value}")
    print(f"{'facility':>10} {'avg_on_hand':>12} {'beta':>8}")
    for fid in cfg.network.ids:
        print(f"{fid:>10} {outcome.avg_on_hand[fid]:>12.2f} "
              f"{outcome.beta[fid]:>8.4f}")
    if args.trace_out:
        path = Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["day", "facility", "on_hand", "inv_position",
                             "backorders", "demand", "shipped"])
            for fid in cfg.network.ids:
                t = outcome.trace[fid]
                for day in range(scenario.horizon):
                    writer.writerow([day + 1, fid, t["on_hand"][day],
                                     t["inv_position"][day],
                                     t["backorders"][day],
                                     t["demand"][day], t["shipped"][day]])
        print(f"trace written to {path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    history = read_history(args.history_dir, cfg.network)
    scenario = _scenario_with_overrides(cfg, args)
    policy = _policy_from_args(cfg, args)
    report = evaluate(policy, cfg.network, history, scenario)
    targets = cfg.network.targets

    print(f"Z = {report.z:.4f}  (mean total on-hand {report.mean_total_on_hand:.4f}, "
          f"mean violation {report.mean_violation:.6f}, "
          f"N = {report.replications})")
    print(f"{'facility':>10} {'mean_beta':>10} {'std_beta':>9} "
          f"{'target':>7} {'status':>7} {'mean_on_hand':>13}")
    all_met = True
    for fid in cfg.network.ids:
        met = report.mean_beta[fid] >= targets[fid]
        all_met = all_met and met
        print(f"{fid:>10} {report.mean_beta[fid]:>10.4f} "
              f"{report.std_beta[fid]:>9.4f} {targets[fid]:>7.2f} "
              f"{'PASS' if met else 'FAIL':>7} "
              f"{report.mean_on_hand[fid]:>13.2f}")

    payload = {
        "z": report.z,
        "mean_total_on_hand": report.mean_total_on_hand,
        "mean_violation": report.mean_violation,
        "replications": report.replications,
        "mean_beta": report.mean_beta,
        "std_beta": report.std_beta,
        "mean_on_hand": report.mean_on_hand,
        "targets": targets,
        "policy": {fid: {"reorder_point": policy.reorder_point[fid],
                         "base_stock": policy.base_stock[fid]}
                   for fid in cfg.network.ids},
        "feasible": all_met,
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "evaluation.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        _write_manifest(out_dir, args)
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0 if all_met else 2


def _policy_payload(policy: PolicyVector, network) -> dict:
    return {fid: {"reorder_point": policy.reorder_point[fid],
                  "base_stock": policy.base_stock[fid]}
            for fid in network.ids}


def _settings_overrides(args) -> dict:
    # A given 0 is passed on, so Budget rejects it.
    overrides = {}
    if getattr(args, "max_evals", None) is not None:
        overrides["max_evaluations"] = args.max_evals
    if getattr(args, "max_minutes", None) is not None:
        overrides["max_minutes"] = args.max_minutes
    return overrides


def _run_one_strategy(cfg: LoadedConfig, history, scenario, strategy: str,
                      out_dir: Path, seed: int | None,
                      overrides: dict, initial_z: float | None = None):
    log_path = out_dir / f"evaluations_{strategy}_{scenario.demand_choice.value}.csv"
    settings = dict(cfg.optimizers[strategy])
    settings.update(overrides)
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["evaluation", "point", "z", "best_so_far"])

        def log(i, x, z, best):
            writer.writerow([i, " ".join(f"{v:g}" for v in x), z, best])
            fh.flush()  # keep completed evaluations on interrupt

        result = run_strategy(strategy, cfg.network, history, scenario,
                              cfg.space, cfg.initial_policy,
                              settings=settings, seed=seed,
                              initial_z=initial_z, log=log)
    return result, log_path


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    history = read_history(args.history_dir, cfg.network)
    scenario = _scenario_with_overrides(cfg, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, args)

    result, log_path = _run_one_strategy(
        cfg, history, scenario, args.strategy, out_dir,
        seed=args.seed, overrides=_settings_overrides(args))

    best_path = out_dir / f"best_policy_{args.strategy}.json"
    best_path.write_text(json.dumps(
        _policy_payload(result.policy, cfg.network), indent=2,
        sort_keys=True) + "\n")
    summary = {
        "strategy": args.strategy,
        "choice": scenario.demand_choice.value,
        "best_z": result.run.best_value,
        "initial_z": result.initial_z,
        "reduction_pct": result.reduction_pct,
        "evaluations": result.run.evaluations_used,
        "wall_time_minutes": result.run.wall_time_s / 60.0,
        "cpu_time_minutes": result.run.cpu_time_s / 60.0,
        "feasible": result.feasible,
        "mean_beta": result.report.mean_beta,
        "settings": result.run.settings,
    }
    (out_dir / f"summary_{args.strategy}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"strategy {args.strategy}: best Z {result.run.best_value:.2f} "
          f"({result.reduction_pct:.1f}% reduction from the initial guess), "
          f"{result.run.evaluations_used} evaluations, "
          f"{result.run.wall_time_s / 60.0:.2f} minutes")
    print(f"evaluation log: {log_path}")
    print(f"best policy: {best_path}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    history = read_history(args.history_dir, cfg.network)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, args)

    strategies = [args.strategy] if args.strategy else list(STRATEGIES)
    choices = (["backorder", "lost-sales"] if args.choice == "both"
               else [args.choice or cfg.scenario.demand_choice.value])
    shared_seed = (args.seed if args.seed is not None
                   else cfg.scenario.base_seed)
    overrides = _settings_overrides(args)

    for choice in choices:
        scenario = replace(_scenario_with_overrides(cfg, args),
                           demand_choice=DemandChoice(choice))
        initial_z = evaluate(cfg.initial_policy, cfg.network, history,
                             scenario).z
        results = []
        for strategy in strategies:
            seed = derive_strategy_seed(shared_seed, strategy)
            result, _ = _run_one_strategy(cfg, history, scenario, strategy,
                                          out_dir, seed=seed,
                                          overrides=overrides,
                                          initial_z=initial_z)
            results.append(result)
            (out_dir / f"best_policy_{strategy}_{choice}.json").write_text(
                json.dumps(_policy_payload(result.policy, cfg.network),
                           indent=2, sort_keys=True) + "\n")
            (out_dir / f"summary_{strategy}_{choice}.json").write_text(
                json.dumps({
                    "strategy": strategy,
                    "choice": choice,
                    "best_z": result.run.best_value,
                    "initial_z": initial_z,
                    "reduction_pct": result.reduction_pct,
                    "evaluations": result.run.evaluations_used,
                    "wall_time_minutes": result.run.wall_time_s / 60.0,
                    "cpu_time_minutes": result.run.cpu_time_s / 60.0,
                    "feasible": result.feasible,
                    "mean_beta": result.report.mean_beta,
                }, indent=2, sort_keys=True) + "\n")

        rows = comparison_table(results, cfg.network)
        csv_path = out_dir / f"comparison_{choice}.csv"
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        text = format_table(rows)
        (out_dir / f"comparison_{choice}.txt").write_text(text + "\n")
        print(f"\n=== demand choice: {choice} "
              f"(initial Z {initial_z:.2f}) ===")
        print(text)
        print(f"table written to {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echelonopt",
        description="Multi-echelon inventory simulation-optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, history=True):
        p.add_argument("--config", required=True,
                       help="JSON configuration file")
        if history:
            p.add_argument("--history-dir", required=True,
                           help="directory of per-facility history CSVs")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")

    p = sub.add_parser("generate-data",
                       help="write synthetic history CSVs")
    add_common(p, history=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("simulate", help="run one simulation replication")
    add_common(p)
    p.add_argument("--policy", help="policy JSON file (default: config "
                   "initial_policy)")
    p.add_argument("--choice", choices=["backorder", "lost-sales"])
    p.add_argument("--horizon", type=int)
    p.add_argument("--replication", type=int, default=1)
    p.add_argument("--trace-out", help="write per-day trace CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate",
                       help="evaluate the penalized objective for a policy")
    add_common(p)
    p.add_argument("--policy")
    p.add_argument("--choice", choices=["backorder", "lost-sales"])
    p.add_argument("--replications", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out", help="directory for evaluation.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize", help="run one optimization strategy")
    add_common(p)
    p.add_argument("--strategy", required=True, choices=list(STRATEGIES))
    p.add_argument("--out", required=True)
    p.add_argument("--choice", choices=["backorder", "lost-sales"])
    p.add_argument("--replications", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--max-evals", type=int, dest="max_evals")
    p.add_argument("--max-minutes", type=float, dest="max_minutes")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compare",
                       help="run all strategies and emit a comparison table")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=list(STRATEGIES),
                   help="limit the comparison to one strategy")
    p.add_argument("--choice", choices=["backorder", "lost-sales", "both"])
    p.add_argument("--replications", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--max-evals", type=int, dest="max_evals")
    p.add_argument("--max-minutes", type=float, dest="max_minutes")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(str(exc))
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
