"""Emulated reduced-precision floating point and the Lanczos stability lab.

Only the significand width is emulated; the hardware exponent range is
kept, matching the no-overflow/no-underflow model the error bounds are
stated in.  Every scalar operation is rounded to nearest-even at the
configured width, including each fused step inside dot products, norms,
and matrix-vector accumulations (all accumulated in ascending index
order, mirroring the exact path).

Emulated matvecs run one kernel per storage kind: dense rows sum in
lockstep over columns, CSR rows over their stored entries, and a
diagonal is one rounded product, so sparse and diagonal operators are
never densified.  Only the Gram form ``B^T B`` is still densified and
rounded as one matrix, which is why its 52-bit run differs from the
exact path (a known defect; see :meth:`EmulatedArithmetic.make_matvec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .lanczos import (
    LanczosDecomposition,
    lanczos_core,
    orthogonality_defect,
    three_term_residual,
)
from .operators import SymmetricOperator, check_vector
from .tridiag import eig_tridiagonal


@dataclass(frozen=True)
class PrecisionConfig:
    """Mantissa width for emulated arithmetic; rounding is nearest-even."""

    mantissa_bits: int

    def __post_init__(self):
        if not 4 <= self.mantissa_bits <= 52:
            raise StructuralError(
                f"mantissa_bits must lie in [4, 52], got {self.mantissa_bits}"
            )

    @property
    def epsilon(self):
        """Emulated machine epsilon 2^-mantissa_bits."""
        return 2.0 ** (-self.mantissa_bits)


def round_to(x, cfg: PrecisionConfig):
    """Round to the nearest value with ``cfg.mantissa_bits`` significand bits.

    Works on scalars and arrays.  At 52 bits this is the identity on
    IEEE doubles.  Rounds the significand to ``bits + 1`` total digits
    (implicit leading one plus ``bits`` stored), ties to even, keeping
    the full hardware exponent range.
    """
    bits = cfg.mantissa_bits
    if np.isscalar(x) and isinstance(x, (int, float)):
        return _round_scalar(float(x), bits)
    return _round_array(np.asarray(x, dtype=float), bits)


def _round_array(x, bits):
    mantissa, exponent = np.frexp(x)
    scale = 2.0 ** (bits + 1)
    return np.ldexp(np.rint(mantissa * scale) / scale, exponent)


def _round_scalar(x, bits):
    if x == 0.0 or not math.isfinite(x):
        return x
    mantissa, exponent = math.frexp(x)
    scale = 2.0 ** (bits + 1)
    # Python's round() ties to even, matching IEEE round-to-nearest
    return math.ldexp(round(mantissa * scale) / scale, exponent)


class EmulatedArithmetic:
    """Arithmetic context where every operation is rounded after it runs."""

    def __init__(self, cfg: PrecisionConfig):
        self.cfg = cfg
        self._bits = cfg.mantissa_bits

    def _rnd(self, v):
        return _round_array(v, self._bits)

    def round(self, v):
        return self._rnd(np.asarray(v, dtype=float))

    def scale(self, c, v):
        return self._rnd(c * v)

    def sub(self, u, v):
        return self._rnd(u - v)

    def add(self, u, v):
        return self._rnd(u + v)

    def div(self, v, c):
        return self._rnd(v / c)

    def dot(self, u, v):
        products = self._rnd(u * v).tolist()
        bits = self._bits
        acc = products[0]
        for p in products[1:]:
            acc = _round_scalar(acc + p, bits)
        return acc

    def norm(self, v):
        squares = self._rnd(v * v).tolist()
        bits = self._bits
        acc = squares[0]
        for s in squares[1:]:
            acc = _round_scalar(acc + s, bits)
        return _round_scalar(math.sqrt(acc), bits)

    def matvec_dense(self, mat, v):
        """fl(A v): rounded row products, then rounded ascending sums.

        All rows accumulate in lockstep, so the scalar sequence per row
        matches a left-to-right loop while staying vectorized.  Row ``j``
        of the products holds column ``j`` of ``A`` times ``v[j]``, so each
        step adds one contiguous row; the products are laid out that way
        for any layout of ``mat``, fastest when ``mat`` is Fortran-ordered.
        """
        products = self._rnd(np.multiply(mat.T, v[:, None], order="C"))
        acc = products[0]
        for row in products[1:]:
            acc = self._rnd(acc + row)
        return acc

    def make_matvec(self, a: SymmetricOperator):
        """Return ``v -> fl(A v)`` with the entries of ``A`` rounded once.

        Each storage kind has its own kernel, and each gives the values of
        :meth:`matvec_dense` on the rounded dense matrix (the zeros it
        skips add nothing).  Diagonal storage costs one rounded product
        per entry; CSR rounds each stored product and sums every row in
        ascending column order.  Only the Gram form ``B^T B`` is densified
        and rounded as one matrix, a product the exact path never forms,
        so its 52-bit run differs from the exact run (a known defect).
        """
        if a.kind == "diagonal":
            diag = self._rnd(a.data)
            return lambda v: self._rnd(diag * v)
        if a.kind == "sparse":
            return self._csr_matvec(a.data)
        # Fortran order: the columns matvec_dense reads are contiguous
        dense = np.asfortranarray(self._rnd(a.to_dense()))
        return lambda v: self.matvec_dense(dense, v)

    def _csr_matvec(self, csr):
        """Emulated CSR kernel: rows accumulate in lockstep over positions.

        Step ``p`` adds the ``p``-th stored product of every row holding
        more than ``p`` entries; the first product seeds each row, so a
        row of ``m`` entries sees ``m - 1`` rounded additions in ascending
        column order, and an empty row stays zero.
        """
        data = self._rnd(csr.data)
        indices = csr.indices
        starts = csr.indptr[:-1]
        lengths = np.diff(csr.indptr)
        steps = []
        for p in range(int(lengths.max(initial=0))):
            rows = np.flatnonzero(lengths > p)
            steps.append((rows, starts[rows] + p))

        def matvec(v):
            products = self._rnd(data * v[indices])
            acc = np.zeros(csr.shape[0])
            if steps:
                rows, positions = steps[0]
                acc[rows] = products[positions]
            for rows, positions in steps[1:]:
                acc[rows] = self._rnd(acc[rows] + products[positions])
            return acc

        return matvec


@dataclass(frozen=True)
class LanczosDiagnostics:
    """Measured finite-precision quantities for one emulated run.

    All diagnostics are evaluated in double precision on the emulated
    outputs; they quantify how far the computed basis drifts from the
    exact-arithmetic identities.
    """

    config: PrecisionConfig
    n: int
    steps_taken: int
    residual_norm: float
    orthogonality_defect: float
    ritz_min: float
    ritz_max: float
    qnorm_drift: np.ndarray

    @property
    def max_qnorm_drift(self):
        return float(np.max(self.qnorm_drift))


def lanczos_emulated(a: SymmetricOperator, x, k, cfg: PrecisionConfig,
                     breakdown_tol=0.0):
    """Run the Lanczos recurrence with every scalar operation rounded.

    Returns the decomposition together with diagnostics bundling the
    three-term residual, the Gram defect, the Ritz range, and per-column
    norm drift.  The default breakdown tolerance is zero: at reduced
    precision the recurrence is meant to run all k iterations on
    rounding noise, which is exactly the regime the lab studies (a
    scaled tolerance like the library default would exceed typical beta
    values once ``64 n eps`` approaches 1).
    """
    x = check_vector(x, a.n, name="x")
    ops = EmulatedArithmetic(cfg)
    dec = lanczos_core(
        ops.make_matvec(a),
        ops.round(x),
        k,
        ops,
        breakdown_tol,
        a.norm_hint,
        cfg.epsilon,
    )
    diag = diagnose(dec, a, cfg)
    return dec, diag


def diagnose(dec: LanczosDecomposition, a: SymmetricOperator,
             cfg: PrecisionConfig) -> LanczosDiagnostics:
    """Compute the stability diagnostics for a decomposition of ``a``."""
    ritz = eig_tridiagonal(dec.tridiagonal()).values
    qnorms = np.linalg.norm(dec.q_basis, axis=0)
    return LanczosDiagnostics(
        config=cfg,
        n=a.n,
        steps_taken=dec.steps_taken,
        residual_norm=three_term_residual(dec, a),
        orthogonality_defect=orthogonality_defect(dec),
        ritz_min=float(ritz[0]),
        ritz_max=float(ritz[-1]),
        qnorm_drift=np.abs(qnorms - 1.0),
    )


@dataclass(frozen=True)
class PaigeCheck:
    name: str
    measured: float
    bound: float
    passed: bool

    @property
    def ratio(self):
        return self.measured / self.bound if self.bound != 0 else math.inf

    def as_dict(self):
        return {
            "name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "ratio": self.ratio,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class PaigeReport:
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self):
        return {
            "all_passed": self.all_passed,
            "checks": [c.as_dict() for c in self.checks],
        }


def paige_report(diag: LanczosDiagnostics, a: SymmetricOperator) -> PaigeReport:
    """Evaluate the finite-precision output inequalities for one run.

    Checks, with eps the emulated machine epsilon, k the steps taken,
    and ||A|| the true spectral norm:

    * residual:  ||E|| <= k (2 n^{3/2} + 7) ||A|| eps
    * basis norms:  | ||q_i|| - 1 | <= (n + 4) eps
    * Ritz containment within [lmin - eps1, lmax + eps1] for
      eps1 = k^{5/2} ||A|| (68 + 17 n^{3/2}) eps
    """
    eps = diag.config.epsilon
    n = diag.n
    k = diag.steps_taken
    spectrum = np.linalg.eigvalsh(a.to_dense())
    norm_a = float(np.max(np.abs(spectrum)))

    residual_bound = k * (2.0 * n**1.5 + 7.0) * norm_a * eps
    qnorm_bound = (n + 4.0) * eps
    eps1 = k**2.5 * norm_a * (68.0 + 17.0 * n**1.5) * eps
    excursion = max(
        float(spectrum[0] - diag.ritz_min),
        float(diag.ritz_max - spectrum[-1]),
    )

    checks = (
        PaigeCheck(
            "residual_norm",
            diag.residual_norm,
            residual_bound,
            diag.residual_norm <= residual_bound,
        ),
        PaigeCheck(
            "qnorm_drift",
            diag.max_qnorm_drift,
            qnorm_bound,
            diag.max_qnorm_drift <= qnorm_bound,
        ),
        PaigeCheck(
            "ritz_containment",
            excursion,
            eps1,
            excursion <= eps1,
        ),
    )
    return PaigeReport(checks=checks)


def cg_emulated(a: SymmetricOperator, b, k, cfg: PrecisionConfig, stop_tol=0.0):
    """Conjugate gradient with rounded arithmetic (textbook recurrence).

    Used to exercise the finite-arithmetic linear-system bound: the
    error after k steps is compared against 2 kappa(A) delta-bar_k ||b||
    with the approximation intervals sized by the emulated precision.
    """
    from .cg import CgTrace

    b = check_vector(b, a.n, name="b")
    ops = EmulatedArithmetic(cfg)
    matvec = ops.make_matvec(a)
    from .errors import NonpositiveCurvatureError

    y = np.zeros(a.n)
    r = ops.round(b)
    p = r.copy()
    rr = ops.dot(r, r)
    b_norm = ops.norm(b)
    iterates = [y.copy()]
    residual_norms = [math.sqrt(max(rr, 0.0))]
    alphas, betas = [], []

    for _ in range(k):
        ap = matvec(p)
        denom = ops.dot(p, ap)
        if denom <= 0.0:
            raise NonpositiveCurvatureError(
                f"direction curvature {denom} is not positive"
            )
        alpha = _round_scalar(rr / denom, cfg.mantissa_bits)
        y = ops.add(y, ops.scale(alpha, p))
        r = ops.sub(r, ops.scale(alpha, ap))
        rr_new = ops.dot(r, r)
        beta = _round_scalar(rr_new / rr, cfg.mantissa_bits) if rr > 0 else 0.0
        alphas.append(alpha)
        iterates.append(y.copy())
        residual_norms.append(math.sqrt(max(rr_new, 0.0)))
        if residual_norms[-1] <= stop_tol * b_norm or abs(beta) <= cfg.epsilon:
            break
        betas.append(beta)
        p = ops.add(r, ops.scale(beta, p))
        rr = rr_new

    return CgTrace(
        iterates=np.asarray(iterates),
        residual_norms=np.asarray(residual_norms),
        alphas=np.asarray(alphas),
        betas=np.asarray(betas),
    )
