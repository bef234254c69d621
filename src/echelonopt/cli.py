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
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from .config import (
    ConfigError,
    STRATEGIES,
    LoadedConfig,
    load_config,
    load_policy_file,
    merge_optimizer_settings,
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
from .optim import Budget
from .sampling import generate_synthetic_history


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _given(args: argparse.Namespace, flags: dict[str, str]) -> dict:
    """{field: value} for each flag in ``flags`` (field -> flag) given."""
    # A given 0 is passed on, so the ScenarioConfig or settings check
    # downstream rejects it.
    return {field: getattr(args, flag) for field, flag in flags.items()
            if getattr(args, flag, None) is not None}


def _scenario_with_overrides(cfg: LoadedConfig, args: argparse.Namespace,
                             choice: str | None = None) -> ScenarioConfig:
    """The configured scenario with each flag that was given laid over it.

    ``choice`` names the demand choice when the command picks it itself.
    """
    changes = _given(args, {"horizon": "horizon",
                            "replications": "replications",
                            "base_seed": "seed"})
    choice = choice or getattr(args, "choice", None)
    if choice:
        changes["demand_choice"] = DemandChoice(choice)
    return replace(cfg.scenario, **changes)


def _policy_from_args(cfg: LoadedConfig,
                      args: argparse.Namespace) -> PolicyVector:
    if getattr(args, "policy", None):
        return load_policy_file(args.policy, cfg.network)
    return cfg.initial_policy


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _policy_payload(policy: PolicyVector, network) -> dict:
    return {fid: {"reorder_point": policy.reorder_point[fid],
                  "base_stock": policy.base_stock[fid]}
            for fid in network.ids}


def _make_out_dir(args: argparse.Namespace) -> Path:
    """Create ``--out`` and write the manifest of the run's inputs there."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "manifest.json", {
        "subcommand": args.command,
        "config": str(Path(args.config).resolve()),
        "history_dir": (str(Path(args.history_dir).resolve())
                        if getattr(args, "history_dir", None) else None),
        "out": str(out_dir.resolve()),
        "seed_override": getattr(args, "seed", None),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })
    return out_dir


def cmd_generate_data(args) -> int:
    cfg = load_config(args.config)
    if cfg.generator is None:
        raise ConfigError("config has no generator section")
    seed = _scenario_with_overrides(cfg, args).base_seed
    history = generate_synthetic_history(cfg.network, cfg.generator, seed)
    out_dir = _make_out_dir(args)
    written = write_history(history, out_dir)
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
            columns = ["on_hand", "inv_position", "backorders", "demand",
                       "shipped"]
            writer.writerow(["day", "facility", *columns])
            for fid in cfg.network.ids:
                t = outcome.trace[fid]
                for day in range(scenario.horizon):
                    writer.writerow([day + 1, fid,
                                     *(t[c][day] for c in columns)])
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
    for fid in cfg.network.ids:
        met = report.mean_beta[fid] >= targets[fid]
        print(f"{fid:>10} {report.mean_beta[fid]:>10.4f} "
              f"{report.std_beta[fid]:>9.4f} {targets[fid]:>7.2f} "
              f"{'PASS' if met else 'FAIL':>7} "
              f"{report.mean_on_hand[fid]:>13.2f}")

    payload = {**asdict(report), "targets": targets,
               "policy": _policy_payload(policy, cfg.network)}
    if args.out:
        _write_json(_make_out_dir(args) / "evaluation.json", payload)
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0 if report.feasible else 2


def _strategy_settings(cfg: LoadedConfig, args: argparse.Namespace,
                       strategy: str, seed: int | None = None) -> dict:
    """The strategy's defaults, config keys, flags and ``seed``, laid in
    that order; a budget flag that is not positive raises naming it."""
    flags = _given(args, {"max_evaluations": "max_evals",
                          "max_minutes": "max_minutes", "seed": "seed"})
    for key, flag in (("max_evaluations", "--max-evals"),
                      ("max_minutes", "--max-minutes")):
        if key in flags:
            try:
                Budget(**{key: flags[key]})
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from None
    if seed is not None:
        flags["seed"] = seed
    return merge_optimizer_settings(
        strategy, {**cfg.optimizers.get(strategy, {}), **flags})


def _run_one_strategy(cfg: LoadedConfig, history, scenario, strategy: str,
                      out_dir: Path, settings: dict, stem: str):
    """Run a strategy on its merged settings; write log, policy, summary."""
    choice = scenario.demand_choice.value
    paths = {"log": out_dir / f"evaluations_{strategy}_{choice}.csv",
             "policy": out_dir / f"best_policy_{stem}.json",
             "summary": out_dir / f"summary_{stem}.json"}
    with open(paths["log"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["evaluation", "point", "z", "best_so_far"])

        def log(i, x, z, best):
            writer.writerow([i, " ".join(f"{v:.17g}" for v in x), z, best])
            fh.flush()  # keep completed evaluations on interrupt

        result = run_strategy(strategy, cfg.network, history, scenario,
                              cfg.space, cfg.initial_policy,
                              settings=settings, log=log)

    _write_json(paths["policy"], _policy_payload(result.report.policy,
                                                 cfg.network))
    _write_json(paths["summary"], {
        "strategy": strategy,
        "choice": choice,
        "best_z": result.run.best_value,
        "initial_z": result.initial_z,
        "reduction_pct": result.reduction_pct,
        "evaluations": result.run.evaluations_used,
        "wall_time_minutes": result.run.wall_time_s / 60.0,
        "cpu_time_minutes": result.run.cpu_time_s / 60.0,
        "feasible": result.report.feasible,
        "mean_beta": result.report.mean_beta,
        "settings": result.settings,
    })
    return result, paths


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    history = read_history(args.history_dir, cfg.network)
    scenario = _scenario_with_overrides(cfg, args)
    settings = _strategy_settings(cfg, args, args.strategy)
    out_dir = _make_out_dir(args)

    result, paths = _run_one_strategy(cfg, history, scenario, args.strategy,
                                      out_dir, settings, stem=args.strategy)
    print(f"strategy {args.strategy}: best Z {result.run.best_value:.2f} "
          f"({result.reduction_pct:.1f}% reduction from the initial guess), "
          f"{result.run.evaluations_used} evaluations, "
          f"{result.run.wall_time_s / 60.0:.2f} minutes")
    print(f"evaluation log: {paths['log']}")
    print(f"best policy: {paths['policy']}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    history = read_history(args.history_dir, cfg.network)
    strategies = [args.strategy] if args.strategy else list(STRATEGIES)
    choices = (["backorder", "lost-sales"] if args.choice == "both"
               else [args.choice or cfg.scenario.demand_choice.value])
    scenarios = [_scenario_with_overrides(cfg, args, c) for c in choices]
    base_seed = scenarios[0].base_seed  # the same for every choice
    settings = {s: _strategy_settings(cfg, args, s,
                                      derive_strategy_seed(base_seed, s))
                for s in strategies}
    out_dir = _make_out_dir(args)

    for choice, scenario in zip(choices, scenarios):
        results = [_run_one_strategy(cfg, history, scenario, strategy,
                                     out_dir, merged,
                                     stem=f"{strategy}_{choice}")[0]
                   for strategy, merged in settings.items()]

        rows = comparison_table(results, cfg.network)
        csv_path = out_dir / f"comparison_{choice}.csv"
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        text = format_table(rows)
        (out_dir / f"comparison_{choice}.txt").write_text(text + "\n")
        print(f"\n=== demand choice: {choice} "
              f"(initial Z {results[0].initial_z:.2f}) ===")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits after usage or --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(str(exc))
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
