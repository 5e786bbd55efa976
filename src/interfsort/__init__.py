"""Design and simulation toolkit for interferometric mass sorters."""

__version__ = "0.1.0"

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
    NeutralSpeciesError,
    UnidentifiableLeakageError,
    ams_radius,
    ams_separation,
    reconstruct_spectrum,
    run_experiment,
    simulate_counts,
)
