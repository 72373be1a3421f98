"""The public signatures, by parameter name.

Every option a caller can set is a parameter here, so adding, removing or
renaming one is a visible edit of this table.  The calibrated iteration
counts of :mod:`funmlab.applications` are constants, not parameters.
"""

import inspect

import funmlab
from funmlab import applications

# every callable ``funmlab`` exports; None marks an exception class that
# keeps ``Exception``'s constructor
EXPORTED = {
    "AccelPolySpec": ("terms",),
    "AccelTerm": ("outer", "inner", "power", "outer_bound"),
    "CapacityError": None,
    "CgTrace": ("iterates", "residual_norms", "alphas", "betas"),
    "ChebyshevExpansion": ("interval", "coeffs"),
    "DomainError": None,
    "EigenDecomposition": ("values", "vectors"),
    "FunmlabError": None,
    "HardSpectrum": (
        "kappa", "eta", "z", "z_uncapped", "num_buckets", "eigenvalues", "bucket_index",
        "intervals",
    ),
    "IntervalUnion": ("intervals", "grid_per_interval"),
    "LanczosDecomposition": (
        "q_basis", "alphas", "betas", "beta_next", "q_next", "steps_taken",
        "requested_k", "breakdown", "x_norm",
    ),
    "LanczosDiagnostics": (
        "config", "n", "steps_taken", "residual_norm", "orthogonality_defect",
        "ritz_min", "ritz_max", "qnorm_drift",
    ),
    "MatrixMarketParseError": ("message", "line_number"),
    "NonpositiveCurvatureError": None,
    "PaigeReport": ("checks",),
    "PrecisionConfig": ("mantissa_bits",),
    "ResolventOperator": ("a", "denominator", "tol"),
    "ScalarFunction": ("name", "fn", "bound", "interval"),
    "SolverFailureError": None,
    "StepParams": ("gamma", "eps"),
    "StructuralError": None,
    "SymmetricOperator": ("kind", "data", "norm_hint"),
    "TridiagonalMatrix": ("diag", "offdiag"),
    "UnsupportedFormatError": None,
    "accelerated_poly_apply": ("a", "x", "spec", "eps"),
    "anorm_optimality_check": ("a", "b", "k", "trial_polys", "seed"),
    "apply_function": ("dec", "f"),
    "apply_scalar_to_e1": ("t", "f"),
    "cg_emulated": ("a", "b", "k", "cfg"),
    "cg_solve": ("a", "b", "k", "stop_tol"),
    "cheb_T": ("i", "x"),
    "cheb_U": ("i", "x"),
    "cheb_interpolate": ("f", "interval", "degree"),
    "delta_bar_probe": ("spec", "k"),
    "eig_tridiagonal": ("t",),
    "exact_matrix_function": ("a", "f", "x", "cap"),
    "hard_spectrum": ("kappa", "eta", "z_cap"),
    "lanczos_apply": ("a", "x", "k", "f"),
    "lanczos_cg_equivalence": ("a", "b", "k"),
    "lanczos_decompose": ("a", "x", "k", "breakdown_tol"),
    "lanczos_emulated": ("a", "x", "k", "cfg"),
    "load_matrix_market": ("path",),
    "matrix_exp_apply": ("a", "x", "eps"),
    "matrix_exp_psd_apply": ("a", "x", "eps"),
    "min_degree_for": ("f", "domain", "target", "k_max"),
    "minimax": ("f", "domain", "degree", "constraint_at_zero"),
    "orthogonality_defect": ("dec",),
    "paige_report": ("diag", "a"),
    "potential_check": ("spec", "r", "c"),
    "potential_pieces": ("spec", "r", "c"),
    "round_to": ("x", "cfg"),
    "scalar_function_by_name": ("name",),
    "soft_sign_poly": ("x", "q"),
    "soft_step_apply": ("b", "x", "params", "k"),
    "spectral_range": ("a", "probe_iters", "margin"),
    "step_reduction_operator": ("a", "lam"),
    "three_term_residual": ("dec", "a"),
    "top_singular_value": ("b", "delta", "trials", "seed"),
}

ITERATION_HELPERS = {
    "accel_iterations": ("spec", "eps"),
    "power_iteration_exponent": ("n", "delta"),
    "soft_step_iterations": ("params",),
    "top_singular_iterations": ("n", "delta"),
}


def parameters(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # a builtin constructor has no readable signature
        return None


def test_exported_callables_and_their_parameters():
    exported = {
        name: parameters(getattr(funmlab, name))
        for name in dir(funmlab)
        if not name.startswith("_") and callable(getattr(funmlab, name))
    }
    assert exported == EXPORTED


def test_iteration_helpers_take_no_coefficient():
    found = {name: parameters(getattr(applications, name))
             for name in ITERATION_HELPERS}
    assert found == ITERATION_HELPERS
