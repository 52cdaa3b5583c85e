"""g2aa: exact-arithmetic G2 and split-G2 structures on seven-dimensional
almost abelian Lie algebras.

Everything is computed over Q(sqrt2): differentials, induced metrics,
Hodge stars, curvature, holonomy, and the classification of calibrated
and parallel structures, including a reproduction suite of golden
tensors and the nilpotent catalog table.
"""

from .scalars import Scalar, as_scalar
from .linalg import Matrix
from .exterior import (
    DegenerateMetricError,
    DimensionMismatchError,
    KForm,
    gl_action,
    hodge_star,
    interior,
    pullback,
    wedge,
)
from .liealg import (
    AlmostAbelianAlgebra,
    NILPOTENT_CATALOG,
    NilpotentCatalogEntry,
    NonNilpotentError,
    SegrePartition,
    differential,
    identify_nilpotent,
    is_stabilized,
    segre_partition,
)
from .g2 import (
    G2EpsStructure,
    HyperplaneType,
    MODEL_TENSORS,
    NotG2Error,
    WittFrame,
    adapted_metric,
    certify_g2,
    cubic_invariant,
    half_omega_squared,
    hyperplane_model_type,
    omega_model,
    omega_null_model,
    phi_model,
    rho_model,
    rho_null_model,
    stabilizer_algebra,
    structure_map,
    witt_frame_from_adapted,
    witt_phi,
    witt_star_phi,
)
from .geometry import (
    ConnectionTable,
    CurvatureReport,
    analyze,
    annihilates,
    curvature,
    endo_derivative,
    holonomy_algebra,
    levi_civita,
    nabla_r_full,
)
from .classify import (
    BuiltInstance,
    Decision,
    NilpotentParallelParams,
    NilpotentReport,
    ParallelFamilyParams,
    TABLE1_EXPECTED,
    TableRow,
    build_instance,
    calibrated_decision,
    is_parallel_witt,
    nilpotent_parallel_report,
    nilpotent_witnesses,
    parallel_nondeg_decision,
    regenerate_table1,
    table1_diff,
)

__version__ = "0.1.0"
