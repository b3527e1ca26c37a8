"""Numerical lab for open-system dynamics under alternative
system-environment splits of one composite Hilbert space."""

from .linalg import (
    InvariantViolation,
    SchmidtDecomposition,
    check_density_matrix,
    check_pure_state,
    eigh,
    maximally_mixed,
    partial_trace,
    purity,
    schmidt,
    trace_norm,
    von_neumann_entropy,
)
from .structures import (
    FactorLayout,
    Structure,
    from_structure_basis,
    read_matrix_file,
    read_structure_file,
    reduced_state,
    structure_from_grouping,
    structure_from_unitary,
    to_structure_basis,
    transition_matrix,
    write_matrix_file,
)
from .projections import TypeIProjection, complement
from .relativity import (
    DefectReport,
    bell_pair,
    commutator_defect,
    cross_relevance_matrix,
    defect_matrix_pure_coeffs,
    mutual_information,
    teleport_state,
)
from .dynamics import (
    GENERATOR_NAME,
    Hamiltonian,
    RandomStream,
    TimeGrid,
    TrajectoryPoint,
    mix_seed,
    trajectory,
)
from .config import ConfigError, ScenarioConfig, load_config
from .scenarios import ReportPaths, run_scenario

__version__ = "0.1.0"
