"""Local matrix homotopies between almost-commuting normal tuples.

Curved and flat matrix paths, joint pseudospectra with scanning triples,
approximate minimal polynomials and lemniscates, constructive approximation
lemmas (nearby commuting unitaries, isospectral approximants, dilations),
and a randomized connectivity verification harness.
"""

from .clifford import (
    clifford_distance,
    clifford_generators,
    clifford_norm,
    clifford_operator,
)
from .deformation import (
    ConnectivityReport,
    DeformationResult,
    InstanceSpec,
    connect_algebraic,
    connect_commuting,
    connect_soft_algebraic,
    generate_instance,
    min_root_gap,
    verify_aulpac,
    verify_ulpac,
)
from .linalg import (
    NormalTuple,
    cartesian_decomposition,
    commutator,
    joint_diagonalize,
    operator_norm,
    phase_exp,
    polar_decomposition,
    principal_unitary_log,
)
from .approximants import (
    IsospectralApproximant,
    dilate,
    double_embed,
    joint_isospectral_approximant,
    nearby_commuting_unitary,
    upper_left_block,
)
from .minpoly import PolyC, approx_min_poly, lemniscate_contours, lemniscate_field, ritz_values
from .paths import (
    MatrixPath,
    concat,
    curved_path,
    flat_path,
    path_length,
    verify_path,
)
from .pseudospectra import (
    Grid2D,
    ScalarField2D,
    ScanTriple,
    chebyshev_grid,
    pseudospectrum,
    quadtree_grid,
    refine_grid,
    scan_triples,
    sigma_min_field,
)
from .words import (
    NCPolySystem,
    WordFunction,
    WordSpec,
    controllability_ratio,
    eval_word,
    eval_word_function,
    variety_membership,
)

from . import config

__version__ = "0.1.0"

# pin numpy's bundled OpenBLAS, the one library every matword call runs on
config.apply_env()
