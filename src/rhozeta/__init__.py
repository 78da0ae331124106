"""Graph zeta functions of density matrices.

Assigns weighted digraphs to density matrices, computes the associated
zeta function by three mutually cross-checking routes (Euler product over
prime path classes, determinant formula, power-sum series), and applies
it to pure bipartite separability testing and singularity location.
"""

from .errors import (
    AllLoops,
    AtSingularity,
    CapExceeded,
    DimensionMismatch,
    IncompletePrimes,
    InsufficientPowerSums,
    InvalidParameter,
    NonRealCoefficient,
    NotAWalk,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    RhoZetaError,
)
from .graph import (
    LaplacianWeights,
    PrimeClass,
    WeightedDigraph,
    density_from_weighted_graph,
    edge_norm,
    enumerate_primes,
    export_dot,
    graph_from_density,
    primes_csv,
    walk_vertices,
)
from .linalg import (
    DEFAULT_TOL,
    ZERO_EIGENVALUE_TOL,
    DensityMatrix,
    eig_hermitian,
    kron,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    random_density,
    random_unitary,
    save_matrix,
    trace_powers,
    validate_density,
)
from .quantum import (
    BUILTIN_STATES,
    PureState,
    acceptance_probability,
    bell_state,
    builtin_state,
    ghz_state,
    isotropic_state,
    permutation_operator,
    plus_state,
    purity,
    sigma_state,
    symmetric_projector,
    w_state,
)
from .zeta import (
    SeparabilityVerdict,
    ZetaRational,
    ZetaSeries,
    cycle_index,
    euler_product_coeffs,
    is_separable_by_coeffs,
    is_separable_by_singularity,
    partition_multiplicities,
    series_coeffs,
    singularities,
    zeta_eval,
)

__version__ = "0.1.0"
