"""Matrix function approximation via the Lanczos method, plus a
reduced-precision laboratory for probing its floating-point behavior."""

from .applications import (
    AccelPolySpec,
    AccelTerm,
    ResolventOperator,
    StepParams,
    accelerated_poly_apply,
    matrix_exp_apply,
    matrix_exp_psd_apply,
    soft_sign_poly,
    soft_step_apply,
    step_reduction_operator,
    top_singular_value,
)
from .cg import CgTrace, cg_solve, lanczos_cg_equivalence
from .chebyshev import ChebyshevExpansion
from .errors import (
    CapacityError,
    DomainError,
    FunmlabError,
    MatrixMarketParseError,
    NonpositiveCurvatureError,
    SolverFailureError,
    StructuralError,
    UnsupportedFormatError,
)
from .functions import ScalarFunction, scalar_function_by_name
from .hardspectrum import (
    HardSpectrum,
    delta_bar_probe,
    hard_spectrum,
    potential_check,
    potential_pieces,
)
from .lanczos import (
    LanczosDecomposition,
    apply_function,
    lanczos_apply,
    lanczos_decompose,
    orthogonality_defect,
    three_term_residual,
)
from .minimax import IntervalUnion, min_degree_for, minimax
from .operators import (
    EigenDecomposition,
    SymmetricOperator,
    exact_matrix_function,
    load_matrix_market,
)
from .precision import (
    LanczosDiagnostics,
    PaigeReport,
    PrecisionConfig,
    cg_emulated,
    lanczos_emulated,
    paige_report,
    round_to,
)
from .tridiag import TridiagonalMatrix, apply_scalar_to_e1, eig_tridiagonal

__version__ = "0.1.0"
