"""The benchmark's tracer still finds the sites it wraps.

``bench/tracing.py`` observes layers by replacing module attributes.  A
renamed function, or a strategy that ``minimize`` binds at import time,
would otherwise show up only as a crash or a missing span in a traced
benchmark run.  This file reads ``bench/`` and changes nothing there.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from echelonopt.optim import Budget, SearchSpace, minimize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402  (lives in bench/, found through sys.path)

RUN_SPANS = {"nelder-mead": "nelder_mead.run", "gp": "gp.run",
             "rbf": "rbf.run"}


@pytest.mark.parametrize("strategy", sorted(RUN_SPANS))
def test_traced_minimize_records_one_run_span(strategy):
    tracer = tracing.Tracer(tracing.Clock(), 0)
    patches = tracing.Patches()
    try:
        tracing.install_tracer(tracer, patches)
        run = minimize(lambda x: float(np.sum((x - 3.0) ** 2)),
                       SearchSpace(np.zeros(2), np.full(2, 10.0)),
                       Budget(max_evaluations=12), strategy=strategy, seed=1)
    finally:
        patches.undo()
    assert run.evaluations_used == 12
    assert tracer.count[RUN_SPANS[strategy]] == 1
