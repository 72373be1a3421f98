"""Command-line experiment harness.

Every run is fully determined by (config, seed): matrix generation uses
``default_rng((seed, 0))``, start vectors ``default_rng((seed, 1))``, and
trial t of a multi-trial study ``default_rng((seed, 2, t))``.  Repeated
runs at the same BLAS thread count therefore produce byte-identical
``results.csv`` bodies; wall-clock information lives only in
``meta.json``.  Across thread counts, the ``random-spd`` and
``random-sym`` generators and the LAPACK oracle columns can differ, and
so can every column computed from a generated matrix.

Exit codes: 0 all bound checks passed, 1 a check failed, 2 invalid
configuration, 3 a study raised: invalid input such as ``--trials 0``
(printed as such) or a numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .applications import (
    StepParams,
    matrix_exp_apply,
    matrix_exp_psd_apply,
    soft_step_apply,
    top_singular_value,
)
from .cg import cg_solve
from .errors import FunmlabError, StructuralError
from .functions import inverse_function, scalar_function_by_name
from .hardspectrum import hard_spectrum
from .lanczos import apply_function, lanczos_apply, lanczos_decompose
from .minimax import IntervalUnion, error_curve, minimax
from .operators import SymmetricOperator, exact_matrix_function, load_matrix_market
from .precision import PrecisionConfig, lanczos_emulated, paige_report

SCHEMA_VERSION = 1

@dataclass
class ExperimentConfig:
    command: str
    matrix: Optional[str] = None
    function: Optional[str] = None
    k: Optional[int] = None
    eps: Optional[float] = None
    eta: Optional[float] = None
    kappa: Optional[float] = None
    gamma: Optional[float] = None
    delta: Optional[float] = None
    bits: Optional[str] = None
    seed: int = 0
    trials: Optional[int] = None
    target: Optional[float] = None
    kmax: Optional[int] = None
    zcap: int = 60
    stop_tol: float = 0.0
    variant: str = "general"
    output_dir: str = "funmlab-out"

    def bit_list(self):
        if not self.bits:
            raise StructuralError("this command requires --bits")
        try:
            return [int(b) for b in str(self.bits).split(",") if b.strip()]
        except ValueError as exc:
            raise StructuralError(f"bad bits list {self.bits!r}: {exc}") from None


# the type of every key; flags and config files both convert with it
_KEY_TYPES = {
    "matrix": str, "function": str, "k": int, "eps": float, "eta": float,
    "kappa": float, "gamma": float, "delta": float, "bits": str, "seed": int,
    "trials": int, "target": float, "kmax": int, "zcap": int,
    "stop_tol": float, "variant": str, "output_dir": str,
}
_FLAG_OPTIONS = {
    "matrix": dict(help="diag:..., random-spd:n[,kappa], random-sym:n, "
                   "random-rect:m,n, hard-spectrum, mtx:PATH"),
    "bits": dict(help="comma-separated mantissa widths"),
    "variant": dict(choices=("general", "psd")),
}


def parse_config_file(path):
    """Flat ``key=value`` file; '#' starts a comment; unknown keys rejected."""
    values = {}
    for line_no, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise StructuralError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in text.split("=", 1))
        key = key.replace("-", "_")
        if key not in _KEY_TYPES:
            raise StructuralError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _KEY_TYPES[key](value)
        except ValueError:
            raise StructuralError(f"{path}:{line_no}: bad {key} {value!r}") from None
    return values


_REQUIRED = {
    "apply": ("matrix", "k"),
    "solve": ("matrix", "k"),
    "exp": ("matrix", "eps"),
    "step": ("gamma", "eps"),
    "topsv": ("matrix", "delta"),
    "lowerbound": ("kappa", "eta"),
    "precision-sweep": ("matrix", "k", "bits"),
    "paige-check": ("matrix", "k", "bits"),
}


def build_config(args) -> ExperimentConfig:
    """Merge config-file values with CLI flags; flags win."""
    merged = {}
    if args.config:
        merged.update(parse_config_file(args.config))
    merged.update((key, value) for key, value in vars(args).items()
                  if key in _KEY_TYPES and value is not None)
    cfg = ExperimentConfig(command=args.command, **merged)
    if cfg.command not in _REQUIRED:
        raise StructuralError(f"unknown command {cfg.command!r}")
    missing = [
        name for name in _REQUIRED[cfg.command] if getattr(cfg, name) is None
    ]
    if missing:
        raise StructuralError(
            f"{cfg.command} requires {', '.join('--' + m for m in missing)}"
        )
    return cfg


# -- matrix generators --------------------------------------------------------

@contextmanager
def _source_syntax(source):
    """Report a malformed number in a matrix source as a structural error."""
    try:
        yield
    except ValueError:
        raise StructuralError(f"malformed matrix source {source!r}") from None


def _check_source_range(source, *values):
    """Sizes and kappa in a matrix source must be finite and at least 1."""
    if not all(1 <= v < math.inf for v in values):
        raise StructuralError(
            f"malformed matrix source {source!r}: sizes and kappa must be "
            "finite and at least 1"
        )


def build_operator(cfg: ExperimentConfig) -> SymmetricOperator:
    source = cfg.matrix
    if not source:
        raise StructuralError("this command requires --matrix")
    rng = np.random.default_rng((cfg.seed, 0))
    if source.startswith("diag:"):
        with _source_syntax(source):
            values = [float(v) for v in source[5:].split(",") if v.strip()]
        if not values:
            raise StructuralError(f"empty diagonal in {source!r}")
        return SymmetricOperator.from_diagonal(np.asarray(values))
    if source.startswith("random-spd:"):
        parts = source[len("random-spd:"):].split(",")
        with _source_syntax(source):
            n = int(parts[0])
            kappa = float(parts[1]) if len(parts) > 1 else 10.0
        _check_source_range(source, n, kappa)
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = np.geomspace(1.0 / kappa, 1.0, n)
        mat = (basis * values) @ basis.T
        return SymmetricOperator.from_dense(mat, symmetrize=True, norm_hint=1.0)
    if source.startswith("random-sym:"):
        with _source_syntax(source):
            n = int(source[len("random-sym:"):])
        _check_source_range(source, n)
        mat = rng.standard_normal((n, n))
        mat = mat + mat.T
        mat /= np.linalg.norm(mat, 2)
        return SymmetricOperator.from_dense(mat, symmetrize=True, norm_hint=1.0)
    if source == "hard-spectrum":
        if cfg.kappa is None or cfg.eta is None:
            raise StructuralError("hard-spectrum needs --kappa and --eta")
        return hard_spectrum(cfg.kappa, cfg.eta, z_cap=cfg.zcap).operator()
    if source.startswith("mtx:"):
        return load_matrix_market(source[4:])
    if source.endswith(".mtx"):
        return load_matrix_market(source)
    raise StructuralError(f"unrecognized matrix source {source!r}")


def _rect_factor(cfg: ExperimentConfig):
    source = cfg.matrix or ""
    if not source.startswith("random-rect:"):
        raise StructuralError("topsv needs --matrix random-rect:m,n")
    with _source_syntax(source):
        rows, cols = (int(v) for v in source[len("random-rect:"):].split(","))
    _check_source_range(source, rows, cols)
    rng = np.random.default_rng((cfg.seed, 0))
    return rng.standard_normal((rows, cols))


def _start_vector(cfg: ExperimentConfig, n):
    rng = np.random.default_rng((cfg.seed, 1))
    return rng.standard_normal(n)


def _spectrum_of(a: SymmetricOperator):
    return np.linalg.eigvalsh(a.to_dense())


# -- studies ------------------------------------------------------------------

def run_apply(cfg: ExperimentConfig):
    f = scalar_function_by_name(cfg.function or "identity")
    a = build_operator(cfg)
    x = _start_vector(cfg, a.n)
    x_norm = float(np.linalg.norm(x))
    y = lanczos_apply(a, x, cfg.k, f)
    spectrum = _spectrum_of(a)
    lo, hi = float(spectrum[0]), float(spectrum[-1])
    if lo == hi:
        delta = 0.0
    else:
        _, delta = minimax(f, IntervalUnion.single(lo, hi), cfg.k - 1)
    reference = exact_matrix_function(a, f, x)
    error = float(np.linalg.norm(reference - y))
    bound = 2.0 * delta * x_norm * (1.0 + 1e-6) + 1e-8 * x_norm
    row = {
        "n": a.n,
        "k": cfg.k,
        "function": f.name,
        "measured_error": error,
        "delta_k": delta,
        "bound": bound,
        "passed": error <= bound,
    }
    report = {"measured_error": error, "bound": bound, "passed": row["passed"]}
    return [row], report, bool(row["passed"])


def run_solve(cfg: ExperimentConfig):
    a = build_operator(cfg)
    b = _start_vector(cfg, a.n)
    spectrum = _spectrum_of(a)
    if spectrum[0] <= 0:
        raise StructuralError("solve requires a positive definite matrix")
    kappa = float(spectrum[-1] / spectrum[0])
    points = IntervalUnion.from_points(np.unique(spectrum))
    reference = np.linalg.solve(a.to_dense(), b)
    b_norm = float(np.linalg.norm(b))
    inv = inverse_function()

    # row k reads step k of one run; the equivalence column wants CG
    # without the early stop, which is the same run when stop_tol is 0
    trace = cg_solve(a, b, cfg.k, stop_tol=cfg.stop_tol)
    plain = trace if cfg.stop_tol == 0 else cg_solve(a, b, cfg.k)
    dec = lanczos_decompose(a, b, cfg.k)

    rows = []
    for k in range(1, cfg.k + 1):
        step = min(k, trace.iterations)
        error = float(np.linalg.norm(reference - trace.iterates[step]))
        _, dbar = minimax(inv, points, k - 1)
        bound = math.sqrt(kappa) * dbar * b_norm
        y_lanczos = apply_function(dec.prefix(k), inv)
        gap = plain.iterates[min(k, plain.iterations)] - y_lanczos
        equivalence = float(np.linalg.norm(gap) / np.linalg.norm(reference))
        rows.append({
            "k": k,
            "residual_norm": float(trace.residual_norms[step]),
            "error": error,
            "delta_bar": dbar,
            "sqrt_kappa_bound": bound,
            "lanczos_equivalence": equivalence,
            "passed": error <= bound * (1.0 + 1e-6),
        })
    passed = all(r["passed"] for r in rows)
    report = {
        "kappa": kappa,
        "final_error": rows[-1]["error"],
        "passed": passed,
    }
    return rows, report, passed


def run_exp(cfg: ExperimentConfig):
    a = build_operator(cfg)
    x = _start_vector(cfg, a.n)
    x_norm = float(np.linalg.norm(x))
    spectrum = _spectrum_of(a)
    norm_a = float(max(abs(spectrum[0]), abs(spectrum[-1])))
    if cfg.variant == "psd":
        if spectrum[0] < -1e-12:
            raise StructuralError("psd variant requires a PSD matrix")
        y = matrix_exp_psd_apply(a, x, cfg.eps)
        reference = exact_matrix_function(a, lambda t: np.exp(-t), x)
        bound = cfg.eps * x_norm
    else:
        y = matrix_exp_apply(a, x, cfg.eps)
        reference = exact_matrix_function(a, np.exp, x)
        bound = cfg.eps * math.exp(2.0 * norm_a) * x_norm
    error = float(np.linalg.norm(reference - y))
    row = {
        "variant": cfg.variant,
        "n": a.n,
        "norm_a": norm_a,
        "eps": cfg.eps,
        "measured_error": error,
        "bound": bound,
        "passed": error <= bound,
    }
    return [row], dict(row), bool(row["passed"])


def run_step(cfg: ExperimentConfig):
    params = StepParams(cfg.gamma, cfg.eps)
    grid = np.linspace(-0.5, 0.5, 10_001)
    s = params.step_values(grid)
    low, high = grid <= -cfg.gamma, grid >= cfg.gamma
    low_max = float(np.max(s[low]))
    high_min = float(np.min(s[high]))
    containment = (
        low_max <= cfg.eps
        and high_min >= 1.0 - cfg.eps
        and float(np.min(s)) >= 0.0
        and float(np.max(s)) <= 1.0
    )
    rows = [{
        "check": "grid_containment",
        "gamma": cfg.gamma,
        "eps": cfg.eps,
        "q": params.q,
        "measured": max(low_max, 1.0 - high_min),
        "bound": cfg.eps,
        "passed": containment,
    }]
    passed = containment
    if cfg.matrix:
        a = build_operator(cfg)
        if a.norm_hint is None or a.norm_hint > 0.5:
            raise StructuralError("step matrix must carry a norm hint <= 1/2")
        x = _start_vector(cfg, a.n)
        y = soft_step_apply(a, x, params, k=cfg.k)
        reference = exact_matrix_function(a, params.step_values, x)
        error = float(np.linalg.norm(reference - y))
        bound = cfg.eps * float(np.linalg.norm(x))
        rows.append({
            "check": "matrix_application",
            "gamma": cfg.gamma,
            "eps": cfg.eps,
            "q": params.q,
            "measured": error,
            "bound": bound,
            "passed": error <= bound,
        })
        passed = passed and rows[-1]["passed"]
    report = {"rows": len(rows), "passed": passed}
    return rows, report, passed


def _count(value, default, flag):
    """A count setting: ``default`` when unset, and at least 1 when set."""
    if value is None:
        return default
    if value < 1:
        raise StructuralError(f"--{flag} must be at least 1, got {value}")
    return value


def run_topsv(cfg: ExperimentConfig):
    trials = _count(cfg.trials, 50, "trials")
    factor = _rect_factor(cfg)
    sigma = float(np.linalg.norm(factor, 2))
    threshold = (1.0 - cfg.delta) * sigma
    rows = []
    successes = 0
    for trial in range(trials):
        estimate, _ = top_singular_value(
            factor, cfg.delta, trials=1, seed=(cfg.seed, 2, trial)
        )
        success = estimate >= threshold
        successes += success
        rows.append({
            "trial": trial,
            "estimate": estimate,
            "threshold": threshold,
            "passed": bool(success),
        })
    fraction = successes / trials
    floor = 0.5 - 3.0 * math.sqrt(0.25 / trials)
    passed = fraction >= floor
    report = {
        "sigma_max": sigma,
        "success_fraction": fraction,
        "statistical_floor": floor,
        "passed": passed,
    }
    return rows, report, passed


def run_lowerbound(cfg: ExperimentConfig):
    target = cfg.target if cfg.target is not None else 1.0 / 6.0
    kmax = _count(cfg.kmax, 80, "kmax")
    spec = hard_spectrum(cfg.kappa, cfg.eta, z_cap=cfg.zcap)
    # a curve that increases raises, so every row it returns is monotone
    curve = error_curve(inverse_function(), spec.intervals, target, kmax)
    rows = [
        {"degree": degree, "delta_bar": delta, "target": target, "passed": True}
        for degree, delta in enumerate(curve)
    ]
    min_degree = len(curve) - 1 if curve and curve[-1] <= target else None
    report = {
        "kappa": cfg.kappa,
        "eta": cfg.eta,
        "z": spec.z,
        "z_capped": spec.z_was_capped,
        "num_eigenvalues": int(spec.eigenvalues.size),
        "min_degree": min_degree,
        "delta_curve": curve,
        "passed": True,
    }
    return rows, report, True


def run_precision_sweep(cfg: ExperimentConfig):
    a = build_operator(cfg)
    x = _start_vector(cfg, a.n)
    rows = []
    defects = []
    for bits in cfg.bit_list():
        pconf = PrecisionConfig(bits)
        _, diag = lanczos_emulated(a, x, cfg.k, pconf)
        report = paige_report(diag, a)
        defects.append((bits, diag.orthogonality_defect))
        rows.append({
            "bits": bits,
            "steps": diag.steps_taken,
            "residual_norm": diag.residual_norm,
            "residual_bound": report["residual_norm"].bound,
            "qnorm_drift": diag.max_qnorm_drift,
            "qnorm_bound": report["qnorm_drift"].bound,
            "ritz_excursion": report["ritz_containment"].measured,
            "ritz_bound": report["ritz_containment"].bound,
            "orthogonality_defect": diag.orthogonality_defect,
            "passed": report.all_passed,
        })
    # degradation check: defect should not drop by more than 3x when
    # precision is reduced
    ordered = sorted(defects, key=lambda item: -item[0])
    monotone = all(
        later >= earlier / 3.0
        for (_, earlier), (_, later) in zip(ordered, ordered[1:])
    )
    passed = all(r["passed"] for r in rows)
    report = {
        "defects_by_bits": {str(b): d for b, d in defects},
        "defect_monotone_within_noise": monotone,
        "passed": passed,
    }
    return rows, report, passed


def run_paige_check(cfg: ExperimentConfig):
    bits = cfg.bit_list()
    if len(bits) != 1:
        raise StructuralError("paige-check takes exactly one --bits value")
    a = build_operator(cfg)
    x = _start_vector(cfg, a.n)
    pconf = PrecisionConfig(bits[0])
    _, diag = lanczos_emulated(a, x, cfg.k, pconf)
    report = paige_report(diag, a)
    rows = [
        {
            "check": c.name,
            "measured": c.measured,
            "bound": c.bound,
            "ratio": c.ratio,
            "passed": c.passed,
        }
        for c in report.checks
    ]
    return rows, report.as_dict(), report.all_passed


_RUNNERS = {
    "apply": run_apply,
    "solve": run_solve,
    "exp": run_exp,
    "step": run_step,
    "topsv": run_topsv,
    "lowerbound": run_lowerbound,
    "precision-sweep": run_precision_sweep,
    "paige-check": run_paige_check,
}


# -- serialization ------------------------------------------------------------

def _format_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_results_csv(path, command, rows):
    buffer = io.StringIO()
    buffer.write(f"# funmlab {command} schema v{SCHEMA_VERSION}\r\n")
    if rows:
        writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL)
        columns = list(rows[0].keys())
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])
    path.write_text(buffer.getvalue(), encoding="utf-8", newline="")


def _write_json(path, payload):
    """Write ``payload`` as sorted, indented JSON.

    numpy floats subclass ``float`` and print as floats do; other numpy
    scalars and arrays are converted by ``tolist``.
    """
    def numpy_value(value):
        if isinstance(value, (np.generic, np.ndarray)):
            return value.tolist()
        raise TypeError(f"{type(value).__name__} is not JSON serializable")

    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=numpy_value) + "\n",
        encoding="utf-8",
    )


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured study; writes results/report/meta files."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        rows, report, passed = _RUNNERS[cfg.command](cfg)
    except FunmlabError as exc:
        failure = {
            "command": cfg.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "passed": False,
        }
        _write_json(out / "report.json", failure)
        _write_meta(out, cfg, started, exit_code=3)
        label = "invalid input" if isinstance(exc, StructuralError) else "numerical failure"
        print(f"{label}: {exc}", file=sys.stderr)
        return 3

    write_results_csv(out / "results.csv", cfg.command, rows)
    _write_json(out / "report.json",
                {"command": cfg.command, "passed": bool(passed), "report": report})
    exit_code = 0 if passed else 1
    _write_meta(out, cfg, started, exit_code)
    return exit_code


def _write_meta(out, cfg, started, exit_code):
    meta = {
        "config": {f.name: getattr(cfg, f.name) for f in fields(ExperimentConfig)},
        "version": __version__,
        "wall_time_seconds": time.time() - started,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "exit_code": exit_code,
    }
    _write_json(out / "meta.json", meta)


@functools.cache
def make_parser():
    parser = argparse.ArgumentParser(
        prog="funmlab",
        description="Seeded matrix-function and precision experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _REQUIRED:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="key=value config file")
        for key, kind in _KEY_TYPES.items():
            flags = ["--" + key.replace("_", "-")]
            if key == "matrix":
                flags.append("--generator")
            cmd.add_argument(*flags, dest=key, type=kind,
                             **_FLAG_OPTIONS.get(key, {}))
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return run(cfg)
    except (StructuralError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
