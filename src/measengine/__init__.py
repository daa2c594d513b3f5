"""Measurement-driven single-qubit engine simulator and verification harness."""

from .channels import (
    IncompleteKrausSetError,
    KrausSet,
    apply_unselective,
    first_channel,
)
from .engine import (
    CycleGrid,
    CycleMode,
    CycleParams,
    EnergyLedger,
    GridLedger,
    InvalidCycleError,
    StrokeRecord,
    UnrealizableChannelError,
    first_law_residual,
    gamma_bounds,
    numeric_realizable,
    run_analytic,
    run_analytic_grid,
    run_numeric,
    run_numeric_grid,
)
from .states import (
    DensityMatrix,
    Hamiltonian,
    gibbs_state,
    mean_energy,
    von_neumann_entropy,
)
from .sweep import SweepSpec, run_sweep
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "CycleGrid",
    "CycleMode",
    "CycleParams",
    "DensityMatrix",
    "EnergyLedger",
    "GridLedger",
    "Hamiltonian",
    "IncompleteKrausSetError",
    "InvalidCycleError",
    "KrausSet",
    "StrokeRecord",
    "SweepSpec",
    "UnrealizableChannelError",
    "VerifyReport",
    "apply_unselective",
    "first_channel",
    "first_law_residual",
    "gamma_bounds",
    "gibbs_state",
    "mean_energy",
    "numeric_realizable",
    "run_analytic",
    "run_analytic_grid",
    "run_numeric",
    "run_numeric_grid",
    "run_sweep",
    "run_verification",
    "von_neumann_entropy",
]
