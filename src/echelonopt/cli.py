"""Command-line front end.

Subcommands: generate-data, simulate, evaluate, optimize, compare.
Exit codes: 0 on success (and feasible policies for `evaluate`), 2 when
`evaluate` finds a policy missing its targets, 1 on configuration, data,
or usage errors.  Every run is reproducible from its config file and
seeds.  Every command that takes ``--out`` (generate-data, evaluate,
optimize, compare) needs it new or empty, writes a manifest there and,
if it fails, removes what it wrote.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
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
    policy_payload,
    read_history,
    write_history,
)
from .harness import (
    comparison_table,
    derive_strategy_seed,
    format_table,
    run_strategy,
)
from .model import DemandChoice, ScenarioConfig
from .engine import TRACE_COLUMNS, sim_network
from .objective import evaluate
from .optim import Budget, BudgetExhaustedError, SingularKernelError
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


def _scenario(cfg: LoadedConfig, args: argparse.Namespace) -> ScenarioConfig:
    """The configured scenario with each flag that was given laid over it."""
    changes = _given(args, {"horizon": "horizon",
                            "replications": "replications",
                            "base_seed": "seed"})
    if getattr(args, "choice", None) not in (None, "both"):  # both: per run
        changes["demand_choice"] = DemandChoice(args.choice)
    return replace(cfg.scenario, **changes)


def _load_inputs(args: argparse.Namespace):
    """The config, history, scenario and ``--policy`` a command runs on."""
    cfg = load_config(args.config)
    history = read_history(args.history_dir, cfg.network)
    scenario = _scenario(cfg, args)
    policy = (load_policy_file(args.policy, cfg.network)
              if getattr(args, "policy", None) else cfg.initial_policy)
    return cfg, history, scenario, policy


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextmanager
def _fresh_out_dir(args: argparse.Namespace):
    """Create ``--out``, new or empty, with a run manifest.  A run that
    raises removes the files it wrote there and the directories it made."""
    out_dir = Path(args.out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    if not made and any(out_dir.iterdir()):
        raise ConfigError(f"--out {out_dir} exists and is not empty; "
                          "give a new or empty directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        _write_json(out_dir / "manifest.json", {
            "subcommand": args.command,
            "config": str(Path(args.config).resolve()),
            "history_dir": (str(Path(args.history_dir).resolve())
                            if getattr(args, "history_dir", None) else None),
            "out": str(out_dir.resolve()),
            "seed_override": getattr(args, "seed", None),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        })
        yield out_dir
    except Exception:
        for path in out_dir.iterdir():  # it was empty: every file is ours
            path.unlink()
        for directory in made:  # innermost first
            directory.rmdir()
        raise


def cmd_generate_data(args) -> int:
    cfg = load_config(args.config)
    if cfg.generator is None:
        raise ConfigError("config has no generator section")
    seed = _scenario(cfg, args).base_seed
    history = generate_synthetic_history(cfg.network, cfg.generator, seed)
    with _fresh_out_dir(args) as out_dir:
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
    cfg, history, scenario, policy = _load_inputs(args)
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
            writer.writerow(["day", "facility", *TRACE_COLUMNS])
            for fid, columns in outcome.trace.items():
                for day, row in enumerate(zip(*columns.values()), 1):
                    writer.writerow([day, fid, *row])
        print(f"trace written to {path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg, history, scenario, policy = _load_inputs(args)
    report = evaluate(policy, cfg.network, history, scenario)
    targets = cfg.network.targets
    payload = {**asdict(report), "targets": targets,
               "policy": policy_payload(policy, cfg.network)}
    if args.out:  # first, so a refused --out prints no report
        with _fresh_out_dir(args) as out_dir:
            _write_json(out_dir / "evaluation.json", payload)

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
    if not args.out:
        print(json.dumps(payload, sort_keys=True))
    return 0 if report.feasible else 2


def _strategy_settings(cfg: LoadedConfig, args: argparse.Namespace,
                       strategy: str, seed: int | None = None) -> dict:
    """The strategy's defaults, config keys, flags and ``seed``, laid in
    that order; a budget flag that Budget rejects raises naming it."""
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
                      out_dir: Path, settings: dict):
    """Run a strategy on its merged settings; write its log, policy and
    summary, each named ``<kind>_<strategy>_<choice>``."""
    choice = scenario.demand_choice.value
    paths = {"log": out_dir / f"evaluations_{strategy}_{choice}.csv",
             "policy": out_dir / f"best_policy_{strategy}_{choice}.json",
             "summary": out_dir / f"summary_{strategy}_{choice}.json"}
    with open(paths["log"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["evaluation", "point", "z", "best_so_far"])

        def log(i, x, z, best):
            writer.writerow([i, " ".join(f"{v:.17g}" for v in x), z, best])
            fh.flush()  # keep completed evaluations on interrupt

        result = run_strategy(strategy, cfg.network, history, scenario,
                              cfg.space, cfg.initial_policy,
                              settings=settings, log=log)

    _write_json(paths["policy"], policy_payload(result.report.policy,
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
        "settings": settings,
    })
    return result, paths


def cmd_optimize(args) -> int:
    cfg, history, scenario, _ = _load_inputs(args)
    settings = _strategy_settings(cfg, args, args.strategy)
    with _fresh_out_dir(args) as out_dir:
        result, paths = _run_one_strategy(cfg, history, scenario,
                                          args.strategy, out_dir, settings)
    print(f"strategy {args.strategy}: best Z {result.run.best_value:.2f} "
          f"({result.reduction_pct:.1f}% reduction from the initial guess), "
          f"{result.run.evaluations_used} evaluations, "
          f"{result.run.wall_time_s / 60.0:.2f} minutes")
    print(f"evaluation log: {paths['log']}")
    print(f"best policy: {paths['policy']}")
    return 0


def cmd_compare(args) -> int:
    cfg, history, scenario, _ = _load_inputs(args)
    strategies = [args.strategy] if args.strategy else list(STRATEGIES)
    settings = {s: _strategy_settings(
        cfg, args, s, derive_strategy_seed(scenario.base_seed, s))
        for s in strategies}
    reports = []  # printed once every file is written
    with _fresh_out_dir(args) as out_dir:
        for demand in (DemandChoice if args.choice == "both"
                       else [scenario.demand_choice]):
            scenario = replace(scenario, demand_choice=demand)
            choice = demand.value
            results = [_run_one_strategy(cfg, history, scenario, strategy,
                                         out_dir, merged)[0]
                       for strategy, merged in settings.items()]

            rows = comparison_table(results, cfg.network)
            csv_path = out_dir / f"comparison_{choice}.csv"
            with open(csv_path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            text = format_table(rows)
            (out_dir / f"comparison_{choice}.txt").write_text(text + "\n")
            reports.append(f"\n=== demand choice: {choice} (initial Z "
                           f"{results[0].initial_z:.2f}) ===\n{text}\n"
                           f"table written to {csv_path}")
    print("\n".join(reports))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echelonopt",
        description="Multi-echelon inventory simulation-optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(*parents):  # flags that several subcommands share
        return argparse.ArgumentParser(add_help=False, parents=parents)

    base = group()
    base.add_argument("--config", required=True,
                      help="JSON configuration file")
    base.add_argument("--seed", type=int, help="override the configured seed")
    run = group(base)
    run.add_argument("--history-dir", required=True,
                     help="directory of per-facility history CSVs")
    run.add_argument("--horizon", type=int)
    policy = group()
    policy.add_argument("--policy", help="policy JSON file (default: config "
                        "initial_policy)")
    choice = group()
    choices = [c.value for c in DemandChoice]
    choice.add_argument("--choice", choices=choices)
    replications = group()
    replications.add_argument("--replications", type=int)
    budget = group()
    budget.add_argument("--max-evals", type=int)
    budget.add_argument("--max-minutes", type=float)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    command("generate-data", cmd_generate_data,
            "write synthetic history CSVs", base).add_argument(
        "--out", required=True, help="output directory")
    p = command("simulate", cmd_simulate, "run one simulation replication",
                run, policy, choice)
    p.add_argument("--replication", type=int, default=1)
    p.add_argument("--trace-out", help="write per-day trace CSV here")
    command("evaluate", cmd_evaluate,
            "evaluate the penalized objective for a policy",
            run, policy, choice, replications).add_argument(
        "--out", help="directory for evaluation.json")
    p = command("optimize", cmd_optimize, "run one optimization strategy",
                run, choice, replications, budget)
    p.add_argument("--strategy", required=True, choices=list(STRATEGIES))
    p.add_argument("--out", required=True)
    p = command("compare", cmd_compare,
                "run all strategies and emit a comparison table",
                run, replications, budget)
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=list(STRATEGIES),
                   help="limit the comparison to one strategy")
    p.add_argument("--choice", choices=[*choices, "both"])
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
    except (OSError, ValueError, MemoryError, BudgetExhaustedError,
            SingularKernelError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
