"""The package's public surface: `__all__` is exactly the kept names, and deleted names stay out.

The single-set API that no engine, CLI, sweep or verify path ran was deleted
(ROADMAP item 16a), and so were the class members that repeated a field their
class holds; a change that brings one of these names back fails here.
"""

import measengine
from measengine import channels, engine, linalg, states

PUBLIC = [
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

DELETED = {
    channels: (
        "CompletenessReport",
        "MeasurementOutcome",
        "NEGLIGIBLE_PROB",
        "NoIsentropicStrengthError",
        "isentropic_strength",
        "measure_selective",
        "povm_elements",
        "second_channel",
        "validate_completeness",
    ),
    linalg: ("adjoint", "hermiticity_defect", "max_offdiag", "trace"),
    states: ("trace_distance",),
    # Class members, each a second view of a kept field (`entries`, `eig_pair`,
    # `levels`, `strokes`, `len(entries)`).
    states.DensityMatrix: ("pure", "maximally_mixed", "populations", "eigenvalues"),
    states.Hamiltonian: ("matrix",),
    engine.EnergyLedger: ("stroke",),
    channels.KrausSet: ("__len__",),
}


def test_all_is_exactly_the_kept_names():
    assert measengine.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(measengine, name)] == []


def test_deleted_names_are_gone_from_the_package_and_their_modules():
    present = [f"{owner.__name__}.{name}" for owner, names in DELETED.items() for name in names
               if hasattr(owner, name) or hasattr(measengine, name)]
    assert present == []
