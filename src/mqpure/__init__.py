"""Pseudopure-state preparation in dipolar-coupled spin clusters.

Exact desk-scale density-matrix simulation of the preparation scheme:
multiple-quantum excitation under the double-quantum effective
Hamiltonian, filtering of the highest-order coherence, time reversal,
and partial saturation, plus linear-response spectra for state
identification.
"""

from .evolution import (
    EigenSystem,
    SweepTable,
    diag_pair_extractor,
    diagonalize,
    evolve,
    mq_intensity_extractor,
    population_extractor,
    sweep,
)
from .hamiltonians import (
    dq_hamiltonian,
    hexagon_couplings,
    homq_excitable,
    load_couplings,
    negated,
    secular_dipolar_hamiltonian,
)
from .mq import (
    decompose,
    filter_order,
    mq_intensity,
    mq_intensities,
    phase_cycle_decompose,
)
from .nonunitary import (
    SaturationParams,
    TransitionGraph,
    build_transition_graph,
    crush,
    saturate,
)
from .pipeline import (
    MaximumLocation,
    PipelineConfig,
    PipelineReport,
    default_saturation,
    locate_maximum,
    pseudopure_fidelity,
    run_pipeline,
)
from .spectrum import (
    StickSpectrum,
    broaden,
    count_peaks,
    curve_to_csv,
    linear_response,
    merge_peaks,
)
from .spin_core import (
    MAX_SPINS,
    DensityMatrix,
    NumericalInvariantError,
    Operator,
    SpinSystem,
    ZeemanBasis,
    build_basis,
    collective_op,
    homq_coherence_state,
    single_spin_op,
    thermal_state,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "EigenSystem",
    "MAX_SPINS",
    "MaximumLocation",
    "NumericalInvariantError",
    "Operator",
    "PipelineConfig",
    "PipelineReport",
    "SaturationParams",
    "SpinSystem",
    "StickSpectrum",
    "SweepTable",
    "TransitionGraph",
    "ZeemanBasis",
    "broaden",
    "build_basis",
    "build_transition_graph",
    "collective_op",
    "count_peaks",
    "crush",
    "curve_to_csv",
    "decompose",
    "default_saturation",
    "diag_pair_extractor",
    "diagonalize",
    "dq_hamiltonian",
    "evolve",
    "filter_order",
    "hexagon_couplings",
    "homq_coherence_state",
    "homq_excitable",
    "linear_response",
    "load_couplings",
    "locate_maximum",
    "merge_peaks",
    "mq_intensities",
    "mq_intensity",
    "mq_intensity_extractor",
    "negated",
    "phase_cycle_decompose",
    "population_extractor",
    "pseudopure_fidelity",
    "run_pipeline",
    "saturate",
    "secular_dipolar_hamiltonian",
    "single_spin_op",
    "sweep",
    "thermal_state",
]
