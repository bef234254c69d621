"""Benchmark-side timing: a yardstick-corrected clock, patching, tracing.

Nothing here edits the program.  Layers are observed by wrapping public
functions and methods; each wrapper is assigned to every module or class
attribute through which the program looks the function up, so a call is
seen once whichever module makes it.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

from reference import yardstick


class Clock:
    """Wall clock that leaves out the time spent running the yardstick.

    The host's speed drifts by tens of percent within seconds, so every
    reported duration is scaled by the yardstick's mean duration over the
    same stretch of time (see ``factor``).  The yardstick runs between
    operations whenever its share of the wall time since ``restart_duty``
    has fallen below ``duty``, so its samples spread evenly over time.
    """

    def __init__(self, duty: float = 0.1):
        self.duty = duty
        self.excluded = 0.0
        self.excluded_cpu = 0.0
        self.samples: list[float] = []
        self.restart_duty()

    def restart_duty(self) -> None:
        """Count the yardstick's share from now on, not from the start."""
        self.duty_start = time.perf_counter()
        self.duty_excluded = self.excluded

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    def cpu(self) -> float:
        return time.process_time() - self.excluded_cpu

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            c0 = time.process_time()
            t0 = time.perf_counter()
            yardstick()
            t1 = time.perf_counter()
            self.excluded_cpu += time.process_time() - c0
            self.samples.append(t1 - t0)
            self.excluded += t1 - t0

    def keep_up(self) -> None:
        while (self.excluded - self.duty_excluded
               < self.duty * (time.perf_counter() - self.duty_start)):
            self.sample()

    def factor(self, since: int, ref_s: float) -> float:
        """Scale from raw seconds to seconds at the reference speed.

        A mean, not a median: a duration adds up the host's speed over
        time, and the speed is not symmetric about its median.
        """
        return ref_s / statistics.fmean(self.samples[since:])


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, sites, make_wrapper) -> None:
        """Wrap the function found at ``sites`` [(owner, attr), ...]."""
        original = getattr(*sites[0])
        wrapper = make_wrapper(original)
        for owner, attr in sites:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner}.{attr} is not the function "
                                   f"found at {sites[0]}")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Spans and counters at layer boundaries, kept in memory.

    Every wrapped call pushes a frame; on return its duration is added
    to the parent frame's child time, so a layer's self time is its
    duration minus its children.  ``span`` calls are also kept as span
    records; ``counted`` calls (made thousands of times per evaluation)
    only add to a count and summed durations.
    """

    def __init__(self, clock: Clock, round_index: int):
        self.clock = clock
        self.round = round_index
        self.stack: list[list] = []  # [name, start, child_s, span_id]
        self.spans: list[dict] = []
        self.count = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.strategy: str | None = None
        self.points = defaultdict(list)  # strategy -> evaluated points
        self.inside_s = defaultdict(float)  # strategy -> time in objective

    def in_stack(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def _call(self, name, fn, args, kwargs, keep):
        now = self.clock.now
        parent = next((f[3] for f in reversed(self.stack)
                       if f[3] is not None), None)
        span_id = len(self.spans) if keep else None
        if keep:
            self.spans.append(None)  # reserve the id in start order
        frame = [name, now(), 0.0, span_id]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = now()
            self.stack.pop()
            duration = end - frame[1]
            self.count[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[2]
            if self.stack:
                self.stack[-1][2] += duration
            if keep:
                self.spans[span_id] = {
                    "round": self.round, "id": span_id, "parent": parent,
                    "name": name, "start_s": frame[1], "dur_s": duration,
                    "self_s": duration - frame[2]}

    def span(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs, True)
            return wrapper
        return make

    def counted(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs, False)
            return wrapper
        return make


def install_tracer(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    import echelonopt
    from echelonopt import (cli, config, engine, harness, model, objective,
                            optim, sampling)
    from echelonopt.optim import core, gp, nelder_mead, rbf

    span, counted, wrap = tracer.span, tracer.counted, patches.wrap
    wrap([(config, "load_config"), (cli, "load_config")],
         span("config.load"))
    wrap([(config, "read_history"), (cli, "read_history")],
         span("config.history_io"))
    wrap([(config, "write_history"), (cli, "write_history")],
         span("config.history_io"))
    wrap([(sampling, "generate_synthetic_history"),
          (cli, "generate_synthetic_history"),
          (echelonopt, "generate_synthetic_history")],
         span("sampling.generate_history"))
    wrap([(sampling.StreamKey, "generator")], counted("sampling.stream"))
    wrap([(sampling, "bootstrap_draw"), (engine, "bootstrap_draw"),
          (echelonopt, "bootstrap_draw")], counted("sampling.lead_draw"))
    wrap([(model, "validate_network"), (config, "validate_network"),
          (echelonopt, "validate_network")], counted("model.validate"))
    wrap([(model.HistoryDataset, "require_covers")],
         counted("model.validate"))
    wrap([(model, "repair_policy_array"), (harness, "repair_policy_array")],
         counted("model.repair"))

    def sim(fn):
        traced = span("engine.sim")(fn)

        def wrapper(network, policy, history, scenario, *args, **kwargs):
            tracer.count["engine.rep_days"] += scenario.horizon
            return traced(network, policy, history, scenario, *args,
                          **kwargs)
        return wrapper
    wrap([(engine, "sim_network"), (objective, "sim_network"),
          (cli, "sim_network"), (echelonopt, "sim_network")], sim)

    def evaluate(fn):
        traced = span("objective.evaluate")(fn)

        def wrapper(*args, **kwargs):
            if not tracer.in_stack("harness.objective") and (
                    tracer.in_stack("harness.run_strategy")
                    or tracer.in_stack("cli.compare")):
                tracer.count["harness.extra_evaluation"] += 1
            return traced(*args, **kwargs)
        return wrapper
    wrap([(objective, "evaluate"), (harness, "evaluate"), (cli, "evaluate"),
          (echelonopt, "evaluate")], evaluate)
    wrap([(objective, "aggregate_outcomes")], span("objective.aggregate"))

    def make_objective(fn):
        def wrapper(*args, **kwargs):
            inner = span("harness.objective")(fn(*args, **kwargs))

            def objective_fn(x):
                tracer.points[tracer.strategy].append(tuple(x))
                start = tracer.clock.now()
                try:
                    return inner(x)
                finally:
                    tracer.inside_s[tracer.strategy] += (
                        tracer.clock.now() - start)
            return objective_fn
        return wrapper
    wrap([(harness, "make_policy_objective")], make_objective)

    def run_strategy(fn):
        traced = span("harness.run_strategy")(fn)

        def wrapper(strategy, *args, **kwargs):
            if kwargs.get("log") is not None:
                kwargs["log"] = span("cli.log")(kwargs["log"])
            tracer.strategy = strategy
            try:
                return traced(strategy, *args, **kwargs)
            finally:
                tracer.strategy = None
        return wrapper
    wrap([(harness, "run_strategy"), (cli, "run_strategy")], run_strategy)
    wrap([(cli, "cmd_compare")], span("cli.compare"))

    wrap([(core.EvaluationTracker, "__call__")], span("optim.tracker"))
    wrap([(core.EvaluationTracker, "preview")], counted("optim.preview"))
    wrap([(nelder_mead, "nelder_mead_restart"),
          (optim, "nelder_mead_restart")], span("nelder_mead.run"))
    wrap([(gp, "gp_optimize"), (optim, "gp_optimize")], span("gp.run"))
    wrap([(rbf, "rbf_optimize"), (optim, "rbf_optimize")], span("rbf.run"))
    wrap([(gp.GaussianProcess, "fit")], span("gp.fit"))
    wrap([(gp.GaussianProcess, "lower_confidence_bound")],
         counted("gp.acquire"))
    wrap([(gp.GaussianProcess, "lcb_and_grad")], counted("gp.acquire"))
    wrap([(rbf.CubicRbfSurrogate, "fit")], span("rbf.fit"))
    wrap([(rbf.CubicRbfSurrogate, "predict")], counted("rbf.predict"))
    wrap([(rbf.CubicRbfSurrogate, "gradient")], counted("rbf.predict"))


STRATEGY_SPANS = {"nelder-mead": "nelder_mead.run", "gp": "gp.run",
                  "rbf": "rbf.run"}


def layer_metrics(t: Tracer, factor: float) -> dict[str, float]:
    """Per-layer figures of one traced round; times scaled by ``factor``."""
    ms = 1e3 * factor

    def total_ms(name):
        return t.total_s[name] * ms

    sim_s = t.total_s["engine.sim"]
    rep_days = t.count["engine.rep_days"]
    out = {
        "sampling.streams_built": t.count["sampling.stream"],
        "sampling.stream_ms": total_ms("sampling.stream"),
        "sampling.lead_draws": t.count["sampling.lead_draw"],
        "sampling.lead_draw_ms": total_ms("sampling.lead_draw"),
        "model.validate_calls": t.count["model.validate"],
        "model.validate_ms": total_ms("model.validate"),
        "engine.sim_calls": t.count["engine.sim"],
        "engine.sim_self_ms": t.self_s["engine.sim"] * ms,
        "engine.rep_day_us": (sim_s * 1e6 * factor / rep_days
                              if rep_days else 0.0),
        "objective.evaluate_calls": t.count["objective.evaluate"],
        "objective.aggregate_ms": total_ms("objective.aggregate"),
        "harness.extra_evaluations": t.count["harness.extra_evaluation"],
        "optim.tracker_calls": t.count["optim.tracker"],
        "optim.preview_calls": t.count["optim.preview"],
        "model.repair_calls": t.count["model.repair"],
        "model.repair_ms": total_ms("model.repair"),
        "gp.fit_calls": t.count["gp.fit"],
        "gp.fit_ms": total_ms("gp.fit"),
        "gp.acquire_ms": total_ms("gp.acquire"),
        "rbf.fit_calls": t.count["rbf.fit"],
        "rbf.fit_ms": total_ms("rbf.fit"),
        "rbf.predict_ms": total_ms("rbf.predict"),
        "cli.self_ms": (t.self_s["cli.compare"] + t.total_s["cli.log"]) * ms,
    }
    for strategy, run_span in STRATEGY_SPANS.items():
        points = t.points[strategy]
        # 1 - repeat share: reads 1 where the strategy made no calls.
        out[f"objective.distinct_ratio.{strategy}"] = (
            len(set(points)) / len(points) if points else 1.0)
        outside = t.total_s[run_span] - t.inside_s[strategy]
        out[f"optim.overhead_ms_per_eval.{strategy}"] = (
            outside * ms / len(points) if points else 0.0)
        out[f"{run_span.split('.')[0]}.run_s"] = t.total_s[run_span] * factor
    return out

