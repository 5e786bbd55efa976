"""Design and simulation toolkit for interferometric mass sorters.

No module of the package imports numpy at import time: the functions that
compute arrays import it on first use, so `import interfsort` and the
integer design solver run without it.
"""

__version__ = "0.1.0"

from .ams import NeutralSpeciesError, ams_radius, ams_separation
from .constants import ATOMIC_MASS_KG, ELEMENTARY_CHARGE, PLANCK_H
from .design import (
    InfeasibleDesignError,
    MmiGeometry,
    NonCommensurableMassesError,
    SorterDesign,
    Species,
    TwoSpeciesSolution,
    de_broglie_wavelength,
    distinct_phases_check,
    mmi_length,
    path_error_budget,
    phase_shift,
    solve_n_path,
    solve_two_species,
    verify_design,
)
from .gates import (
    apply,
    controlled_x,
    controlled_x_err,
    controlled_z,
    controlled_z_err,
    dft_matrix,
)
from .leakage import (
    MonteCarloResult,
    PathFluctuation,
    PhaseErrorVector,
    analytic_leakage_n3,
    design_leakage,
    exit_probabilities,
    monte_carlo_leakage,
    phases_from_fluctuation,
    simulate_leakage,
    sweep_leakage,
)
from .spectrum import (
    CountRecord,
    UnidentifiableLeakageError,
    reconstruct_spectrum,
    run_experiment,
    simulate_counts,
)

__all__ = [
    "NeutralSpeciesError", "ams_radius", "ams_separation",
    "ATOMIC_MASS_KG", "ELEMENTARY_CHARGE", "PLANCK_H",
    "InfeasibleDesignError", "MmiGeometry", "NonCommensurableMassesError", "SorterDesign",
    "Species", "TwoSpeciesSolution", "de_broglie_wavelength", "distinct_phases_check",
    "mmi_length", "path_error_budget", "phase_shift", "solve_n_path", "solve_two_species",
    "verify_design",
    "apply", "controlled_x", "controlled_x_err", "controlled_z", "controlled_z_err",
    "dft_matrix",
    "MonteCarloResult", "PathFluctuation", "PhaseErrorVector", "analytic_leakage_n3",
    "design_leakage", "exit_probabilities", "monte_carlo_leakage", "phases_from_fluctuation",
    "simulate_leakage", "sweep_leakage",
    "CountRecord", "UnidentifiableLeakageError", "reconstruct_spectrum", "run_experiment",
    "simulate_counts",
]
