"""Optimal multi-copy POVMs for spin-1 and spin-3/2 pure-state estimation.

Constructs weighted rank-one POVMs on the symmetric subspace of N qudit
copies: spin-1 sets from 24-cell/600-cell shells (2 to 5 copies) and
spin-3/2 sets from the 40 Penrose-dodecahedron rays or a 60-ray catalog
(N = 2 and 3). Verifies the identities each set must satisfy to machine
precision and demonstrates, by exact computation and by simulation, that
every bundled POVM attains the optimal average fidelity (N+1)/(N+D).
"""

from .estimate import exact_average_fidelity, haar_moment, optimal_fidelity, simulate
from .polytopes import CELL24, CELL600, GOLDEN, vertices
from .povm import AGGREGATE_TOL, CONSTRUCTIVE_TOL, Povm, normalized
from .reports import Check, EstimationReport, VerificationReport
from .sampling import haar_random_states
from .spin1 import (
    TABLE1,
    AngularCancellationError,
    WeightSolveError,
    build_table1_povm,
    povm_from_shells,
    shell_polynomial,
    shell_states,
    solve_weights,
)
from .spin32 import (
    CATALOG_WEIGHTS,
    PENROSE40,
    PHASE,
    SET60,
    BlochDotSpectrum,
    RayCatalog,
    bloch_vector,
    catalog,
    overlap_spectrum,
    reduce_n3_to_n2,
    spin32_povm,
    traceless_hermitian_basis,
)
from .symmetric import (
    multi_indices,
    sym_dim,
    symmetric_power_matrix,
)
from .verify import bloch_dots, verify_completeness, verify_hierarchy, verify_scalar_identity

__version__ = "0.1.0"

__all__ = [
    "AGGREGATE_TOL",
    "AngularCancellationError",
    "BlochDotSpectrum",
    "CATALOG_WEIGHTS",
    "CELL24",
    "CELL600",
    "CONSTRUCTIVE_TOL",
    "Check",
    "EstimationReport",
    "GOLDEN",
    "PENROSE40",
    "PHASE",
    "Povm",
    "RayCatalog",
    "SET60",
    "TABLE1",
    "VerificationReport",
    "WeightSolveError",
    "bloch_dots",
    "bloch_vector",
    "build_table1_povm",
    "catalog",
    "exact_average_fidelity",
    "haar_moment",
    "haar_random_states",
    "multi_indices",
    "normalized",
    "optimal_fidelity",
    "overlap_spectrum",
    "povm_from_shells",
    "reduce_n3_to_n2",
    "shell_polynomial",
    "shell_states",
    "simulate",
    "solve_weights",
    "spin32_povm",
    "sym_dim",
    "symmetric_power_matrix",
    "traceless_hermitian_basis",
    "verify_completeness",
    "verify_hierarchy",
    "verify_scalar_identity",
    "vertices",
]
