"""Multi-echelon inventory simulation-optimization toolkit.

A daily-tick discrete-event simulator of reorder-point / base-stock
networks with bootstrap-sampled demand and lead-time variability, a
penalized service-level objective, and three derivative-free
optimizers (restarted SciPy Nelder-Mead, Gaussian-process search,
cubic-RBF surrogate search) for minimizing average on-hand inventory
subject to fill-rate targets.
"""

from .engine import SimulationOutcome, sim_network
from .model import (
    SOURCE,
    DemandChoice,
    FacilitySpec,
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
    validate_network,
)
from .objective import ObjectiveReport, evaluate
from .optim import Budget, OptimizerRun, SearchSpace, minimize
from .sampling import (
    HistoryGenParams,
    SeriesParams,
    StreamKey,
    StreamPurpose,
    bootstrap_draw,
    generate_synthetic_history,
)

__version__ = "0.1.0"

__all__ = [
    "SOURCE",
    "Budget",
    "DemandChoice",
    "FacilitySpec",
    "HistoryDataset",
    "HistoryGenParams",
    "NetworkSpec",
    "ObjectiveReport",
    "OptimizerRun",
    "PolicyVector",
    "ScenarioConfig",
    "SearchSpace",
    "SeriesParams",
    "SimulationOutcome",
    "StreamKey",
    "StreamPurpose",
    "bootstrap_draw",
    "evaluate",
    "generate_synthetic_history",
    "minimize",
    "sim_network",
    "validate_network",
]
