"""Closed-loop control toolkit for a half-bridge series resonant inverter.

Modules: plant (exact switched-linear simulation), transform (the Radau
grid of the solver's power rule), nmpc (receding-horizon power tracking
with soft-switching constraints), policy (neural approximation of the
control law), quant (fixed-point inference emulation), harness (scenario
runner, metrics, benchmark campaigns) and cli (command-line front end).
"""

from .errors import (
    ArgumentError,
    NumericError,
    QuantizationError,
    ResonMpcError,
    TrainingDivergenceError,
)
from .harness import RunMetrics, Scenario, compute_metrics, run_closed_loop
from .nmpc import NmpcConfig, NmpcSolution, RecedingHorizonController, solve
from .plant import (
    ControlInput,
    ConverterParams,
    CycleResult,
    PlantState,
    simulate_cycle,
)
from .policy import Dataset, PolicyNetwork, TrainConfig, forward, train
from .quant import QuantizedNetwork, forward_q, quantize

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "NumericError",
    "QuantizationError",
    "ResonMpcError",
    "TrainingDivergenceError",
    "ControlInput",
    "ConverterParams",
    "CycleResult",
    "PlantState",
    "simulate_cycle",
    "NmpcConfig",
    "NmpcSolution",
    "RecedingHorizonController",
    "solve",
    "Dataset",
    "PolicyNetwork",
    "TrainConfig",
    "forward",
    "train",
    "QuantizedNetwork",
    "forward_q",
    "quantize",
    "Scenario",
    "RunMetrics",
    "run_closed_loop",
    "compute_metrics",
    "__version__",
]
