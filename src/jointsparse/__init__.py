"""Joint sparse recovery for multiple-measurement-vector problems.

Find row-sparse X with A X = B: exact enumeration, l_{2,p} relaxations
(IRLS and nullspace-parametrized descent), null-space constants with
certificates, and the analytic threshold p* below which the relaxation
provably recovers the sparsest solution.
"""

from .bounds import (
    CheckReport,
    PstarReport,
    corollary1_bounds,
    f_threshold,
    lemma1_check,
    lemma2_check,
    pstar,
    theorem4_bound,
)
from .errors import (
    AllZeroMatrix,
    DimGuardExceeded,
    DomainError,
    DuplicateNodes,
    EnumerationTooLarge,
    Infeasible,
    JointSparseError,
    MaxIterationsExceeded,
    RankDeficient,
    TrivialNullspace,
)
from .generators import GenSpec, PortableRng, gen_problem, gen_vandermonde
from .linalg import (
    EigSummary,
    NullspaceBasis,
    eig_summary,
    min_norm_solution,
    nullspace_basis,
)
from .norms import (
    RowSupport,
    mixed_norm_2p,
    row_support,
    theta,
    theta_max_over_S,
)
from .nsc import NscEstimate, NscOptions, max_recoverable_k, nsc_curve, nsc_estimate, spark
from .solvers import (
    DescentOptions,
    EquivalenceOptions,
    EquivalenceReport,
    IrlsOptions,
    MmvProblem,
    SparseSolution,
    check_equivalence,
    irls_solve,
    l20_solve,
    nullspace_solve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "EigSummary", "NullspaceBasis", "eig_summary", "min_norm_solution",
    "nullspace_basis",
    # norms
    "RowSupport", "mixed_norm_2p", "row_support", "theta",
    "theta_max_over_S",
    # solvers
    "MmvProblem", "SparseSolution", "IrlsOptions", "DescentOptions",
    "EquivalenceOptions", "EquivalenceReport", "l20_solve", "irls_solve",
    "nullspace_solve", "check_equivalence",
    # nsc
    "NscEstimate", "NscOptions", "nsc_estimate", "nsc_curve", "spark",
    "max_recoverable_k",
    # bounds
    "PstarReport", "CheckReport", "f_threshold", "pstar", "theorem4_bound",
    "corollary1_bounds", "lemma1_check", "lemma2_check",
    # generators
    "GenSpec", "PortableRng", "gen_problem", "gen_vandermonde",
    # errors
    "JointSparseError", "DomainError", "AllZeroMatrix", "RankDeficient",
    "Infeasible", "EnumerationTooLarge", "DimGuardExceeded",
    "TrivialNullspace", "DuplicateNodes", "MaxIterationsExceeded",
]
