"""Measurement-driven single-qubit engine simulator and verification harness."""

from .channels import (
    CompletenessReport,
    IncompleteKrausSetError,
    KrausSet,
    MeasurementOutcome,
    NoIsentropicStrengthError,
    apply_unselective,
    first_channel,
    isentropic_strength,
    measure_selective,
    povm_elements,
    second_channel,
    validate_completeness,
)
from .engine import (
    CycleMode,
    CycleParams,
    EnergyLedger,
    InvalidCycleError,
    StrokeRecord,
    UnrealizableChannelError,
    first_law_residual,
    gamma_bounds,
    numeric_realizable,
    run_analytic,
    run_numeric,
)
from .states import (
    DensityMatrix,
    Hamiltonian,
    gibbs_state,
    mean_energy,
    trace_distance,
    von_neumann_entropy,
)
from .sweep import SweepSpec, run_sweep
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "CompletenessReport",
    "CycleMode",
    "CycleParams",
    "DensityMatrix",
    "EnergyLedger",
    "Hamiltonian",
    "IncompleteKrausSetError",
    "InvalidCycleError",
    "KrausSet",
    "MeasurementOutcome",
    "NoIsentropicStrengthError",
    "StrokeRecord",
    "SweepSpec",
    "UnrealizableChannelError",
    "VerifyReport",
    "apply_unselective",
    "first_channel",
    "first_law_residual",
    "gamma_bounds",
    "gibbs_state",
    "isentropic_strength",
    "mean_energy",
    "measure_selective",
    "numeric_realizable",
    "povm_elements",
    "run_analytic",
    "run_numeric",
    "run_sweep",
    "run_verification",
    "second_channel",
    "trace_distance",
    "validate_completeness",
    "von_neumann_entropy",
]
