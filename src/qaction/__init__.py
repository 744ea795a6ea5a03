"""Internal-time quantum dynamics of the relativistic Coulomb problem.

Bound levels, Gaussian phase-parameter flows, stationary control paths and
grid propagation of transition amplitudes, with the control momentum lambda
entering the Coulomb coupling and the Lorentzian classical action.
"""

from .units import HARTREE_ATOMIC, SI_LIKE, UnitSystem, make_units
from .paths import LambdaPath, load_path_csv, save_path_csv
from .spectrum import (
    LOG, UNIFORM, QuantumNumbers, RadialGrid, RadialState, SommerfeldNumbers,
    bohr_energy, count_radial_nodes, epsilon_n, expectation_r, inner_product,
    numerov_eigenvalue, scaled_eigenfunction, sommerfeld_energy,
    sommerfeld_nstar_sq, state_norm,
)
from .gaussian_phase import (
    GaussianPhaseState, PacketDiagnostics, chi_closed_form, chi_initial,
    integrate_chi, packet_diagnostics,
)
from .stationary import (
    ActionValue, LevelComparison, SommerfeldComparison, StationaryPoint,
    action_value, level_comparison,
    solve_stationary, stationary_closed_form,
)
from .propagation import (
    BoundaryReflectionError, PhaseUndefinedError, TransitionAmplitude,
    evolve, evolve_spectral, grid_eigenstate, propagation_grid,
    transition_amplitude, transition_probability,
)
from .variational import (
    StationaryPath, VariationalProblem, classical_action_part, full_action,
    internal_time_map, lambda_from_trajectory, optimize_path,
)

__version__ = "0.1.0"

__all__ = [
    "HARTREE_ATOMIC", "SI_LIKE", "UnitSystem", "make_units",
    "LambdaPath", "load_path_csv", "save_path_csv",
    "LOG", "UNIFORM", "QuantumNumbers", "RadialGrid", "RadialState",
    "SommerfeldNumbers", "bohr_energy", "count_radial_nodes", "epsilon_n",
    "expectation_r", "inner_product", "numerov_eigenvalue",
    "scaled_eigenfunction", "sommerfeld_energy", "sommerfeld_nstar_sq",
    "state_norm",
    "GaussianPhaseState", "PacketDiagnostics", "chi_closed_form",
    "chi_initial", "integrate_chi", "packet_diagnostics",
    "ActionValue", "LevelComparison", "SommerfeldComparison",
    "StationaryPoint", "action_value", "level_comparison",
    "solve_stationary", "stationary_closed_form",
    "BoundaryReflectionError", "PhaseUndefinedError", "TransitionAmplitude",
    "evolve", "evolve_spectral", "grid_eigenstate", "propagation_grid",
    "transition_amplitude", "transition_probability",
    "StationaryPath", "VariationalProblem", "classical_action_part",
    "full_action", "internal_time_map", "lambda_from_trajectory",
    "optimize_path",
    "__version__",
]
