"""echelonopt benchmark: one workload per run, checked, with metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The timed part repeats whole rounds of
one workload until ``--seconds`` have passed, one call at a time (a
closed loop with one caller).  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import reference
from tracing import Clock, Patches, Tracer, install_tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
RUN_DIR = ROOT / ".bench_run"
PRESET = ROOT / "configs" / "five_facility.json"

# Median yardstick duration on the reference host (2-core Intel Xeon VM).
# Every duration reported is scaled to that host speed.
REF_S = 0.0034
SETUP_PROBES = 5
# The import yardstick: a fresh interpreter importing what the program
# imports from its dependencies, and its median time on the same host.
IMPORT_YARDSTICK = [sys.executable, "-c",
                    "import numpy, scipy.linalg, scipy.optimize, "
                    "scipy.spatial.distance; print('ready')"]
REF_IMPORT_S = 0.80
YARD_SAMPLES = 5  # yardstick runs before and after every timed stretch

EVALUATE = "evaluate-five-facility"
COMPARE = "compare-five-facility"
SURROGATE = "surrogate-wide-lost-sales"
STRATEGIES = ("nelder-mead", "gp", "rbf")

COMPARE_REPLICATIONS = 2
# Per-strategy budgets, set in a copy of the preset's optimizers block.
# nelder-mead's simplex collapses onto the integer grid after about 200
# evaluations; at 240 it repeats 25 of its points, the repeats a memo
# cache would save.  gp first improves on the initial policy at 70.
COMPARE_BUDGETS = {"nelder-mead": 240, "gp": 80, "rbf": 80}
SURROGATE_EVALS = {"nelder-mead": 40, "gp": 50, "rbf": 140}
QUALITY_EVALS = 8  # full-scale strategy runs after evaluate-five-facility
REFERENCE_POLICIES = 3
ENGINE_REPLICATIONS = (1, 2)


# ---------------------------------------------------------------- set-up

def setup(workload: str, run_dir: Path):
    """Imports, config load, history generation and its CSV round trip."""
    from echelonopt import config, sampling

    run_dir.mkdir(parents=True, exist_ok=True)
    if workload == SURROGATE:
        config_path = run_dir / "wide_config.json"
        config_path.write_text(json.dumps(inputs.wide_config(), indent=1))
    elif workload == COMPARE:
        raw = json.loads(PRESET.read_text())
        for strategy, budget in COMPARE_BUDGETS.items():
            raw["optimizers"][strategy]["max_evaluations"] = budget
        config_path = run_dir / "compare_config.json"
        config_path.write_text(json.dumps(raw, indent=1))
    else:
        config_path = PRESET
    cfg = config.load_config(config_path)
    generated = sampling.generate_synthetic_history(
        cfg.network, cfg.generator, cfg.scenario.base_seed)
    history_dir = run_dir / "history"
    config.write_history(generated, history_dir)
    history = config.read_history(history_dir, cfg.network)
    return config_path, cfg, generated, history, history_dir


def _time_to_ready(argv) -> float:
    """Seconds from spawning ``argv`` until it prints its first line."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{argv[1:3]} failed: {line!r}")
    return elapsed


def probe_setup(workload: str) -> list[float]:
    """Set-up time of fresh processes, from spawn to the first timed call.

    Set-up is mostly interpreter start and imports, which the in-process
    yardstick does not track, so each probe is scaled by the mean of the
    import yardstick processes run just before and after it.
    """
    yard = [_time_to_ready(IMPORT_YARDSTICK)]
    times = []
    for k in range(SETUP_PROBES):
        probe = _time_to_ready([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", "0", "--setup-probe", str(RUN_DIR / f"probe{k}")])
        yard.append(_time_to_ready(IMPORT_YARDSTICK))
        times.append(probe * REF_IMPORT_S / statistics.fmean(yard[-2:]))
    return times


# ---------------------------------------------------------------- checks

class Checks:
    """Correctness properties; a failed one makes ``correct`` false."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    def report(self, rep, rho: float, what: str) -> None:
        import numpy as np

        # z is computed as rho * (sum / n), the fields give rho * sum / n:
        # the two roundings may differ in the last place.
        parts = rep.mean_total_on_hand + rho * rep.mean_violation
        self.expect(abs(rep.z - parts) <= 2 * np.spacing(abs(rep.z)),
                    f"{what}: z {rep.z!r} != mean_total_on_hand + "
                    f"rho*mean_violation {parts!r}")
        self.expect(all(0.0 <= b <= 1.0 for b in rep.mean_beta.values()),
                    f"{what}: beta outside [0, 1]")

    def strategy_run(self, what, zs, best_so_far, evaluations, budget,
                     best_x, best_z, initial_z, space) -> None:
        import numpy as np

        running, low = [], float("inf")
        for z in zs:
            low = min(low, z)
            running.append(low)
        self.expect(best_so_far == running,
                    f"{what}: best_so_far is not the running minimum of z")
        self.expect(evaluations == budget == len(zs),
                    f"{what}: {evaluations} evaluations, budget {budget}")
        x = np.asarray(best_x, dtype=float)
        n = len(x) // 2
        self.expect(bool(np.all(x == np.rint(x))
                         and np.all(x >= space.lower)
                         and np.all(x <= space.upper)
                         and np.all(x[n:] >= x[:n])),
                    f"{what}: best policy not an integer box point with B>=R")
        self.expect(best_z == min(zs), f"{what}: best_z is not min z")
        self.expect(best_z <= initial_z, f"{what}: best_z above initial Z")


class Context:
    """What set-up produced, plus the shared checks."""

    def __init__(self, seed, setup_result, checks):
        self.seed, self.checks = seed, checks
        (self.config_path, self.cfg, generated, self.history,
         self.history_dir) = setup_result
        net = self.cfg.network
        same = all(
            (generated.demand[f] == self.history.demand[f]).all()
            for f in net.customer_ids) and all(
            (generated.lead_delta[f] == self.history.lead_delta[f]).all()
            for f in net.ids)
        checks.expect(same, "history CSV round trip changed the data")

    def check_policy(self, policy, scenario, expected_z, what) -> None:
        """Fresh evaluate and the reference simulator both give expected_z."""
        from echelonopt import engine, objective
        from echelonopt.model import DemandChoice
        from echelonopt.sampling import StreamKey, StreamPurpose

        net, history = self.cfg.network, self.history
        fresh = objective.evaluate(policy, net, history, scenario)
        self.checks.expect(fresh.z == expected_z,
                           f"{what}: fresh evaluate {fresh.z!r} != "
                           f"{expected_z!r}")
        self.checks.report(fresh, scenario.penalty_rho, what)

        purpose = {"demand": StreamPurpose.DEMAND,
                   "lead": StreamPurpose.LEAD}

        def streams(rep, fid, kind):
            return StreamKey(scenario.base_seed, rep, fid,
                             purpose[kind]).generator()

        facilities = [(f.id, f.upstream, f.base_lead_time,
                       f.serves_customers) for f in net.facilities]
        demand = {k: v.tolist() for k, v in history.demand.items()}
        lead = {k: v.tolist() for k, v in history.lead_delta.items()}
        lost = scenario.demand_choice is DemandChoice.LOST_SALES
        outcomes = [reference.simulate(
            facilities, policy.reorder_point, policy.base_stock, demand,
            lead, streams, rep, scenario.horizon, lost,
            scenario.initial_inventory_fraction)
            for rep in range(1, scenario.replications + 1)]
        ref_z = reference.penalized_z(outcomes, net.targets,
                                      scenario.penalty_rho)
        self.checks.expect(ref_z == expected_z,
                           f"{what}: reference Z {ref_z!r} != {expected_z!r}")
        for rep in ENGINE_REPLICATIONS:
            if rep > scenario.replications:
                break
            out = engine.sim_network(net, policy, history, scenario, rep)
            avg, beta = outcomes[rep - 1]
            self.checks.expect(
                out.avg_on_hand == avg and out.beta == beta,
                f"{what}: replication {rep} on-hand/beta differ from the "
                "reference simulator")


# ---------------------------------------------------------------- workloads

class EvaluateFiveFacility:
    """objective.evaluate on fresh seeded policies, 16 per round."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        cfg = ctx.cfg
        self.scenario = cfg.scenario
        self.x0 = cfg.initial_policy.to_array(cfg.network)
        self.seen: set = set()
        self.done: list = []  # (policy, report)

    def prepare_round(self, index: int) -> None:
        from echelonopt.model import PolicyVector

        cfg = self.ctx.cfg
        self.batch = []
        for x in inputs.policy_round(self.x0, cfg.space.lower,
                                     cfg.space.upper, self.ctx.seed, index):
            key = tuple(int(v) for v in x)
            self.ctx.checks.expect(key not in self.seen,
                                   f"policy {key} repeats in the timed part")
            self.seen.add(key)
            self.batch.append(PolicyVector.from_array(cfg.network, x))

    def run_round(self, index: int) -> tuple[int, int]:
        from echelonopt import objective

        cfg, failed = self.ctx.cfg, 0
        self.round_reports = []
        for policy in self.batch:
            try:
                report = objective.evaluate(policy, cfg.network,
                                            self.ctx.history, self.scenario)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            self.round_reports.append((policy, report))
        return len(self.batch), failed

    def after_round(self, index: int) -> dict:
        for policy, report in self.round_reports:
            self.ctx.checks.report(report, self.scenario.penalty_rho,
                                   f"round {index} evaluate")
            self.ctx.checks.expect(
                report.replications == self.scenario.replications,
                "replication count")
        self.done.extend(self.round_reports)
        return {}

    def finish(self) -> dict:
        import numpy as np
        from echelonopt import harness

        ctx, cfg = self.ctx, self.ctx.cfg
        rng = np.random.default_rng(ctx.seed)
        picks = [0] + sorted(rng.choice(np.arange(1, len(self.done)),
                                        REFERENCE_POLICIES - 1,
                                        replace=False).tolist())
        for i in picks:
            policy, report = self.done[i]
            ctx.check_policy(policy, self.scenario, report.z,
                             f"timed policy {i}")
        initial_z = self.done[0][1].z
        best = {}
        for strategy in STRATEGIES:
            result = harness.run_strategy(
                strategy, cfg.network, ctx.history, self.scenario, cfg.space,
                cfg.initial_policy,
                settings={"max_evaluations": QUALITY_EVALS})
            check_result(ctx, strategy, result, QUALITY_EVALS, initial_z)
            best[strategy] = result.run.best_value
        return best


def check_result(ctx, strategy, result, budget, initial_z, rows=None):
    run = result.run
    zs = [float(z) for z in run.evaluated_values]
    ctx.checks.strategy_run(strategy, zs, run.best_so_far_trace.tolist(),
                            run.evaluations_used, budget, run.best_point,
                            run.best_value, result.initial_z, ctx.cfg.space)
    ctx.checks.expect(result.initial_z == initial_z,
                      f"{strategy}: initial Z differs between evaluations")
    ctx.checks.expect(result.report.z == run.best_value,
                      f"{strategy}: re-scored best policy differs")
    if rows is not None:
        ctx.checks.expect([r[2] for r in rows] == zs
                          and [r[3] for r in rows]
                          == run.best_so_far_trace.tolist(),
                          f"{strategy}: log rows differ from the run")


class CompareFiveFacility:
    """`echelonopt compare` on the preset, all strategies, reduced budget."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.first: dict | None = None

    def prepare_round(self, index: int) -> None:
        self.out = RUN_DIR / f"compare{index}"

    def run_round(self, index: int) -> tuple[int, int]:
        from echelonopt import cli

        argv = ["compare", "--config", str(self.ctx.config_path),
                "--history-dir", str(self.ctx.history_dir),
                "--out", str(self.out), "--choice", "backorder",
                "--replications", str(COMPARE_REPLICATIONS)]
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        self.stdout_bytes = len(buffer.getvalue().encode())
        self.failed = code != 0
        return 1, int(self.failed)

    def after_round(self, index: int) -> dict:
        checks, space = self.ctx.checks, self.ctx.cfg.space
        if self.failed:
            shutil.rmtree(self.out, ignore_errors=True)
            return {}
        written = sum(p.stat().st_size for p in self.out.iterdir())
        outcome = {}
        for strategy in STRATEGIES:
            stem = f"{strategy}_backorder"
            with open(self.out / f"evaluations_{stem}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            summary = json.loads(
                (self.out / f"summary_{stem}.json").read_text())
            policy = json.loads(
                (self.out / f"best_policy_{stem}.json").read_text())
            ids = self.ctx.cfg.network.ids
            best_x = ([policy[f]["reorder_point"] for f in ids]
                      + [policy[f]["base_stock"] for f in ids])
            checks.strategy_run(
                f"compare {strategy}", [float(r["z"]) for r in rows],
                [float(r["best_so_far"]) for r in rows],
                summary["evaluations"], COMPARE_BUDGETS[strategy], best_x,
                summary["best_z"], summary["initial_z"], space)
            outcome[strategy] = (summary["best_z"], summary["initial_z"],
                                 tuple(best_x))
        checks.expect((self.out / "comparison_backorder.csv").is_file(),
                      "comparison table missing")
        if self.first is None:
            self.first = outcome
        checks.expect(outcome == self.first,
                      f"compare round {index} differs from round 0")
        shutil.rmtree(self.out)
        return {"cli.output_bytes": written + self.stdout_bytes}

    def finish(self) -> dict:
        import dataclasses

        from echelonopt.model import DemandChoice, PolicyVector

        cfg = self.ctx.cfg
        scenario = dataclasses.replace(
            cfg.scenario, replications=COMPARE_REPLICATIONS,
            demand_choice=DemandChoice.BACKORDER)
        initial_z = self.first[STRATEGIES[0]][1]
        self.ctx.check_policy(cfg.initial_policy, scenario, initial_z,
                              "compare initial policy")
        for strategy, (best_z, _, best_x) in self.first.items():
            policy = PolicyVector.from_array(cfg.network, best_x)
            self.ctx.check_policy(policy, scenario, best_z,
                                  f"compare {strategy} best policy")
        return {s: v[0] for s, v in self.first.items()}


class SurrogateWideLostSales:
    """harness.run_strategy for each strategy on the 32-variable tree."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.first: dict | None = None

    def prepare_round(self, index: int) -> None:
        self.results = {}

    def run_round(self, index: int) -> tuple[int, int]:
        from echelonopt import harness

        cfg, failed = self.ctx.cfg, 0
        for strategy in STRATEGIES:
            rows = []
            try:
                result = harness.run_strategy(
                    strategy, cfg.network, self.ctx.history, cfg.scenario,
                    cfg.space, cfg.initial_policy,
                    settings={"max_evaluations": SURROGATE_EVALS[strategy]},
                    log=lambda i, x, z, best: rows.append((i, x, z, best)))
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            self.results[strategy] = (result, rows)
        return len(STRATEGIES), failed

    def after_round(self, index: int) -> dict:
        outcome = {}
        for strategy, (result, rows) in self.results.items():
            initial_z = (self.first[strategy][1] if self.first
                         else result.initial_z)
            check_result(self.ctx, strategy, result,
                         SURROGATE_EVALS[strategy], initial_z, rows)
            outcome[strategy] = (result.run.best_value, result.initial_z,
                                 tuple(result.run.best_point))
        if self.first is None:
            self.first = outcome
        self.ctx.checks.expect(outcome == self.first,
                               f"surrogate round {index} differs from round 0")
        return {}

    def finish(self) -> dict:
        from echelonopt.model import PolicyVector

        cfg = self.ctx.cfg
        initial_z = self.first[STRATEGIES[0]][1]
        self.ctx.check_policy(cfg.initial_policy, cfg.scenario, initial_z,
                              "wide initial policy")
        for strategy, (best_z, _, best_x) in self.first.items():
            policy = PolicyVector.from_array(cfg.network, best_x)
            self.ctx.check_policy(policy, cfg.scenario, best_z,
                                  f"wide {strategy} best policy")
        return {s: v[0] for s, v in self.first.items()}


WORKLOADS = {EVALUATE: EvaluateFiveFacility, COMPARE: CompareFiveFacility,
             SURROGATE: SurrogateWideLostSales}


# ---------------------------------------------------------------- timing

def timed_rounds(work, clock: Clock, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` pass; odd rounds traced if ``trace``."""
    from echelonopt import cli, harness, objective

    rounds = []
    clock.restart_duty()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and index % 2 == 1
        work.prepare_round(index)
        mark = len(clock.samples)
        clock.sample(YARD_SAMPLES)
        patches = Patches()
        tracer = Tracer(clock, index)
        if traced:
            install_tracer(tracer, patches)
        latencies = []

        def sampler(fn):
            def wrapper(*args, **kwargs):
                start = clock.now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    latencies.append(clock.now() - start)
                    clock.keep_up()
            return wrapper
        patches.wrap([(objective, "evaluate"), (harness, "evaluate"),
                      (cli, "evaluate")], sampler)
        cpu0, start = clock.cpu(), clock.now()
        try:
            attempted, failed = work.run_round(index)
        finally:
            job, cpu = clock.now() - start, clock.cpu() - cpu0
            patches.undo()
        clock.sample(YARD_SAMPLES)
        factor = clock.factor(mark, REF_S)
        extras = work.after_round(index)
        rounds.append({
            "traced": traced, "attempted": attempted, "failed": failed,
            "job_s": job * factor, "cpu_s": cpu * factor, "raw_job_s": job,
            "latencies": [t * factor for t in latencies],
            "layers": ({**layer_metrics(tracer, factor),
                        "cli.output_bytes": 0, **extras}
                       if traced else None),
            "spans": tracer.spans})
        index += 1
    return rounds


def end_to_end(rounds, setup_times, rss_mb, best) -> dict:
    lat = [t for r in rounds for t in r["latencies"]]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_s": statistics.median(r["job_s"] for r in rounds),
        "evaluate_ms_p50": 1e3 * statistics.median(lat),
        "evaluate_ms_p90": 1e3 * statistics.quantiles(lat, n=10)[-1],
        "peak_rss_mb": rss_mb,
    }
    for strategy in STRATEGIES:
        metrics[f"best_z.{strategy}"] = best[strategy]
    return metrics


def per_layer(rounds, setup_tracer: Tracer, setup_factor: float) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = {key: statistics.median(r["layers"][key] for r in traced)
              for key in traced[0]["layers"]}
    values["config.load_ms"] = (setup_tracer.total_s["config.load"]
                                * 1e3 * setup_factor)
    values["config.history_io_ms"] = (
        setup_tracer.total_s["config.history_io"] * 1e3 * setup_factor)
    values["sampling.generate_history_ms"] = (
        setup_tracer.total_s["sampling.generate_history"] * 1e3
        * setup_factor)
    untraced_job = statistics.median(r["job_s"] for r in plain)
    values["run.job_s"] = untraced_job
    values["run.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    values["trace.overhead_s"] = (
        statistics.median(r["job_s"] for r in traced) - untraced_job)
    return values


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "echelonopt" / "__init__.py").is_file():
        print(f"error: no echelonopt sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_probe:
        setup(args.workload, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir()
    clock = Clock()
    checks = Checks()
    trace = bool(args.trace)

    setup_tracer = Tracer(clock, -1)
    patches = Patches()
    mark = len(clock.samples)
    clock.sample(YARD_SAMPLES)
    if trace:
        install_tracer(setup_tracer, patches)
    setup_start = clock.now()
    result = setup(args.workload, RUN_DIR / "main")
    own_setup = clock.now() - setup_start
    patches.undo()
    clock.sample(YARD_SAMPLES)
    setup_factor = clock.factor(mark, REF_S)
    ctx = Context(args.seed, result, checks)
    setup_times = [] if trace else probe_setup(args.workload)

    work = WORKLOADS[args.workload](ctx)
    rounds = timed_rounds(work, clock, args.seconds, trace)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best = work.finish()

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    raw = [r["raw_job_s"] for r in rounds]
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed; yardstick median "
          f"{1e3 * statistics.median(clock.samples):.3f} ms over "
          f"{len(clock.samples)} samples (reference {1e3 * REF_S} ms); "
          f"own set-up {own_setup:.3f} s raw")
    print("job_s per round, raw: " + " ".join(f"{t:.3f}" for t in raw)
          + "; scaled: " + " ".join(f"{r['job_s']:.3f}" for r in rounds))
    if trace:
        metrics = per_layer(rounds, setup_tracer, setup_factor)
        with open(RUN_DIR / f"spans-{args.workload}.jsonl", "w") as fh:
            for spans in [setup_tracer.spans] + [r["spans"] for r in rounds]:
                for s in spans:
                    fh.write(json.dumps(s) + "\n")
    else:
        metrics = end_to_end(rounds, setup_times, rss, best)
        n = sum(len(r["latencies"]) for r in rounds)
        print(f"evaluate latency samples: {n}; best Z: {best}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    for key in units:
        print(f"  {key} = {metrics[key]:.6g} {units[key]}")
    print(json.dumps({
        "correct": not checks.problems, "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
