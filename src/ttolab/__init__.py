"""Numerical laboratory for truncated Toeplitz operators on finite model spaces.

A finite Blaschke product u defines the n-dimensional model space
K_u = H^2 - u H^2.  This package constructs the space with certified
quadrature, builds truncated Toeplitz operators from symbols, decides
membership through the shift-defect characterization, classifies operators by
type, and exercises the structural theory (products, commutants, inverses,
Crofoot transforms, fraction symbols, Clark spectral data) as executable
identities with explicit residual bounds.
"""

from .blaschke import BlaschkeProduct, RationalPair
from .classification import (
    AlgebraReport,
    InverseTypeReport,
    ProductClassification,
    TypeTag,
    algebra_containment,
    alpha_tag,
    classify_type,
    commutant_check,
    commutant_residual,
    commutant_symbol,
    infinity_tag,
    inverse_type_check,
    no_type_tag,
    product_classification,
    product_rank2_condition,
    product_rank2_residual,
    rank_one_boundary,
    rank_one_interior,
    scalar_tag,
    type_membership_residual,
    type_of_adjoint,
)
from .crofoot_clark import (
    ClarkData,
    CrofootTransform,
    IntertwineReport,
    UnitaryClassification,
    build_clark_fraction_tto,
    clark_data,
    classify_unitary,
    crofoot,
    crofoot_intertwine_check,
    disc_automorphism,
    fraction_invertibility_margin,
    functional_calculus,
    invertibility_criterion,
    level_set_blaschke,
    multiplicativity_check,
    reduce_mod_level_set,
)
from .errors import (
    AlphaNotUnimodular,
    AlphaOnCircle,
    NotATTO,
    NumericalFailure,
    OutsideClosedDisc,
    PoleHit,
    PoleOnCircle,
    QuadratureError,
    RootSolveError,
    SchemaError,
    SingularMatrix,
    SpaceMismatch,
    TTOLabError,
)
from .model_space import (
    ModelSpace,
    ModelVector,
    circle_grid,
    same_space,
)
from .sampling import (
    rng_from,
    sample_blaschke,
    sample_notype_tto,
    sample_symbol,
    sample_tto,
    sample_typed_tto,
    sample_vector,
)
from .tto import (
    DefectDecomposition,
    KernelShiftReport,
    RationalTerm,
    SymbolExpr,
    TTOMatrix,
    analytic_symbol,
    build_refined,
    build_tto,
    c_symmetry_residual,
    coanalytic_symbol,
    compressed_shift,
    defect,
    extract_symbol,
    generalized_shift,
    is_tto,
    kernel_shift_identities,
    outer,
    symbol_from_json,
    symbols_equivalent,
)
from .verify import CheckResult, VerifyReport, verify_space

__version__ = "0.1.0"
