"""Emulated reduced-precision floating point and the Lanczos stability lab.

Only the significand width is emulated; the hardware exponent range is
kept, matching the no-overflow/no-underflow model the error bounds are
stated in.  Every scalar operation is rounded to nearest-even at the
configured width, including each fused step inside dot products, norms,
and matrix-vector accumulations (all accumulated in ascending index
order, mirroring the exact path).

The hot loops (the dense matvec's lockstep sums and the ``dot``/``norm``
reductions) round by Veltkamp's split (Dekker, Numer. Math. 18, 1971).
With ``s = 52 - bits``, ``c = x (2^s + 1)`` holds ``x 2^s`` at full
precision, so ``c - x`` is ``x 2^s`` rounded at ``c``'s last place and
``r = c - (c - x)`` is ``x`` with its last ``s`` bits rounded away: ``x``
rounded to nearest at ``53 - s = bits + 1`` significant bits, in three
IEEE operations.  Its ties are broken to even, as the two roundings of
``c`` are, and underflow does not change the result, so subnormals round
as :func:`round_to` rounds them (S. Boldo, "Pitfalls of a full
floating-point proof", IJCAR 2006, proves both in radix 2).  ``+-0`` gives
``c = +-0`` and ``c - x = +0``, so ``r`` keeps the sign of the zero.  The
split is therefore :func:`round_to` bit for bit, which the tests check at
every width with ties, signed zeros and subnormal sums.  It fails only
where ``c`` overflows, once ``|x| (2^s + 1)`` reaches ``2^1024``: ``c`` is
inf and ``c - (c - x)`` NaN, and a NaN stays NaN through every later sum,
as does an inf or NaN sum.  So each kernel tests its result for NaN once
and, if one is there, reruns the ``frexp`` reference loop on the same
inputs.  Elementwise vector operations keep ``frexp``, which is as fast
there as the split plus its test.

Emulated matvecs run one kernel per storage kind: dense rows sum in
lockstep over columns, CSR rows over their stored entries, a diagonal is
one rounded product, and the Gram form ``B^T B`` is two emulated products
``fl(B^T fl(B v))``, each with the kernel of ``B``'s storage.  No operator
is densified, and at 52 bits every kind reproduces the exact path bit for
bit (see :meth:`EmulatedArithmetic.make_matvec`).

The Paige check reads the spectral extremes per storage kind too: a
diagonal's are its smallest and largest entries, CSR operators and Gram
forms of a sparse factor get inward bounds from ARPACK eigenvectors, and
only dense matrices and Gram forms of a dense factor run a dense
``eigvalsh`` (see :func:`paige_report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .cg import CgTrace
from .errors import NonpositiveCurvatureError, SolverFailureError, StructuralError
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
        # Veltkamp's factor: c - (c - x) for c = x * split rounds x to bits + 1
        self._split = 2.0 ** (52 - cfg.mantissa_bits) + 1.0

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
        return self._rounded_sum(u * v)

    def norm(self, v):
        # perfbench times dot and norm as separate spans, so norm does not call dot
        return _round_scalar(math.sqrt(self._rounded_sum(v * v)), self._bits)

    def _rounded_sum(self, products):
        """Round each product, then add them in index order, rounding each sum.

        Each sum is rounded by Veltkamp's split on Python floats (see the
        module docstring): equal to :func:`_round_scalar`, zeros keeping
        their sign, except that a sum whose ``c`` overflows, or an inf or
        NaN sum, turns into NaN, which later sums keep.  A NaN result
        therefore reruns the :func:`_round_scalar` loop on the same terms.
        """
        terms = self._rnd(products).tolist()
        split = self._split
        acc = terms[0]
        for t in terms[1:]:
            s = acc + t
            c = s * split
            acc = c - (c - s)
        if acc != acc:
            acc = terms[0]
            for t in terms[1:]:
                acc = _round_scalar(acc + t, self._bits)
        return acc

    def matvec_dense(self, mat, v):
        """fl(A v): rounded row products, then rounded ascending sums.

        All rows accumulate in lockstep, so the scalar sequence per row
        matches a left-to-right loop while staying vectorized.  Row ``j``
        of the products holds column ``j`` of ``A`` times ``v[j]``, so each
        step adds one contiguous row; the products are laid out that way
        for any layout of ``mat``, fastest when ``mat`` is Fortran-ordered.

        Products and partial sums are rounded in place by Veltkamp's split
        (see the module docstring): one work array of shape
        ``(2,) + mat.T.shape`` holds the products and their ``c``, and each
        step is four ufuncs.  Overflow of ``c`` leaves a NaN in the result;
        then the frexp reference loop reruns on the same inputs, so the
        values are :func:`round_to`'s.
        """
        split = self._split
        products, high = np.empty((2,) + mat.T.shape)
        scratch = high[0]
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(mat.T, v[:, None], out=products)
            np.multiply(products, split, out=high)
            np.subtract(high, products, out=products)
            np.subtract(high, products, out=products)
            # own memory, so the result keeps no work array alive
            acc = products[0].copy()
            for row in products[1:]:
                np.add(acc, row, out=acc)
                np.multiply(acc, split, out=scratch)
                np.subtract(scratch, acc, out=acc)
                np.subtract(scratch, acc, out=acc)
            if np.isnan(acc).any():
                products = self._rnd(np.multiply(mat.T, v[:, None], order="C"))
                acc = products[0]
                for row in products[1:]:
                    acc = self._rnd(acc + row)
        return acc

    def make_matvec(self, a: SymmetricOperator):
        """Return ``v -> fl(A v)`` with the stored entries rounded once.

        Each storage kind has its own kernel, and each gives the values of
        :meth:`matvec_dense` on the rounded dense matrix (the zeros it
        skips add nothing).  Diagonal storage costs one rounded product
        per entry; CSR rounds each stored product and sums every row in
        ascending column order.  The Gram form ``B^T B`` is never formed:
        it is ``fl(B^T fl(B v))`` on the rounded factor, two dense kernels
        (a Fortran copy of it for ``B v``, its transpose for ``B^T w``) or
        two CSR kernels (on ``B``, then on ``B^T`` as CSR).  The exact path
        runs the same two products in the same order, so at 52 bits, where
        every rounding is the identity, each kind gives the exact run.
        """
        if a.kind == "diagonal":
            diag = self._rnd(a.data)
            return lambda v: self._rnd(diag * v)
        if a.kind == "sparse":
            return self._csr_matvec(a.data)
        if a.kind == "dense":
            # Fortran order: the columns matvec_dense reads are contiguous
            dense = np.asfortranarray(self._rnd(a.data))
            return lambda v: self.matvec_dense(dense, v)
        b = a.data
        if sp.issparse(b):
            forward = self._csr_matvec(b)
            back = self._csr_matvec(b.T.tocsr())
            return lambda v: back(forward(v))
        rounded = self._rnd(b)
        cols = np.asfortranarray(rounded)
        return lambda v: self.matvec_dense(rounded.T, self.matvec_dense(cols, v))

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


def lanczos_emulated(a: SymmetricOperator, x, k, cfg: PrecisionConfig):
    """Run the Lanczos recurrence with every scalar operation rounded.

    Returns the decomposition together with diagnostics bundling the
    three-term residual, the Gram defect, the Ritz range, and per-column
    norm drift.  The breakdown tolerance is zero: at reduced
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
        0.0,
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
    lmin and lmax the extreme eigenvalues of ``a`` and
    ||A|| = max(-lmin, lmax) its spectral norm:

    * residual:  ||E|| <= k (2 n^{3/2} + 7) ||A|| eps
    * basis norms:  | ||q_i|| - 1 | <= (n + 4) eps
    * Ritz containment within [lmin - eps1, lmax + eps1] for
      eps1 = k^{5/2} ||A|| (68 + 17 n^{3/2}) eps

    lmin and lmax come from the cheapest safe source for each storage
    kind (:func:`_spectral_extremes`):

    * diagonal: the smallest and largest stored entry, which are the
      eigenvalues themselves;
    * dense, and Gram with a dense factor: LAPACK ``eigvalsh`` of the
      dense matrix, the exact oracle (ARPACK is slower at these sizes);
    * CSR, and Gram with a sparse factor: bounds that provably lie inside
      [lmin, lmax] (:func:`_krylov_extremes`), so no n x n array is built.

    Inside bounds can only make the checks stricter: the norm they give
    is at most ||A||, which shrinks the residual and containment bounds,
    and the measured Ritz excursion past them can only grow.
    """
    eps = diag.config.epsilon
    n = diag.n
    k = diag.steps_taken
    lmin, lmax = _spectral_extremes(a)
    norm_a = max(0.0, -lmin, lmax)

    residual_bound = k * (2.0 * n**1.5 + 7.0) * norm_a * eps
    qnorm_bound = (n + 4.0) * eps
    eps1 = k**2.5 * norm_a * (68.0 + 17.0 * n**1.5) * eps
    excursion = max(lmin - diag.ritz_min, diag.ritz_max - lmax)

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


def _spectral_extremes(a: SymmetricOperator):
    """``(lo, hi)`` with ``lmin <= lo`` and ``hi <= lmax`` (see :func:`paige_report`)."""
    if a.kind == "diagonal":
        return float(np.min(a.data)), float(np.max(a.data))
    if sp.issparse(a.data):
        return _krylov_extremes(a)
    spectrum = np.linalg.eigvalsh(a.to_dense())
    return float(spectrum[0]), float(spectrum[-1])


def _krylov_extremes(a: SymmetricOperator):
    """Inward bounds on the extreme eigenvalues of a sparse operator.

    ARPACK (``eigsh`` over the exact ``a.matvec``) returns one eigenvector
    estimate ``v`` per end.  Its start vector is drawn with seed 0, as in
    :func:`~funmlab.operators.spectral_range`: a structured start such as
    ``ones`` can be orthogonal to an extreme eigenvector (it is to the top
    one of a square-grid Laplacian).  scipy's ARPACK needs n >= 2; a
    scalar operator (n = 1) has the one eigenvector ``e1``.

    For any nonzero ``v`` the exact Rayleigh quotient
    ``rho = v^T A v / v^T v`` lies in [lmin, lmax], so only the rounding
    of its evaluation can put it outside; ARPACK's own Ritz values carry
    no such guarantee.  Forward error, with u = 2^-53 and
    gamma_j = j u / (1 - j u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3): let ``m`` bound the products summed
    into one entry of ``fl(A v)`` (the longest CSR row; for ``B^T B`` the
    longest row plus the longest column of ``B``), let ``M`` be ``|A|``
    (``|B^T| |B|``), which bounds ``|A|`` entrywise, and ``r`` its largest
    row sum, so ``v^T M v <= r ||v||^2`` and ``|rho| <= ||A|| <= r``.
    Then ``|fl(A v) - A v| <= gamma_m M |v|``; ``math.fsum`` rounds a sum
    once, so numerator and denominator carry a further gamma_2 each, and
    the computed quotient is within ``2 gamma_{m+3} r`` of ``rho``.  The
    computed ``r`` is low by at most a factor ``1 - gamma_m`` and the
    inward move rounds once more; with ``(m + 4) u <= 1/100`` all of it
    stays below ``4 (m + 4) u r``, the shift applied to each end.  A zero
    ``r`` means ``A = 0``.  Any ARPACK error, non-convergence included,
    raises :class:`SolverFailureError`.
    """
    mags = abs(a.data)
    terms = int(np.diff(mags.indptr).max(initial=0))
    if a.kind == "sparse":
        row_sums = mags @ np.ones(a.n)
    else:
        terms += int(np.bincount(mags.indices, minlength=a.n).max())
        row_sums = mags.T @ (mags @ np.ones(a.n))
    r = float(row_sums.max())
    if r == 0.0:
        return 0.0, 0.0
    shift = 4.0 * (terms + 4) * 2.0**-53 * r

    if a.n == 1:
        vectors = (np.ones(1),) * 2
    else:
        op = LinearOperator((a.n, a.n), matvec=a.matvec, dtype=float)
        v0 = np.random.default_rng(0).standard_normal(a.n)
        try:
            vectors = [eigsh(op, k=1, which=which, v0=v0, tol=0)[1][:, 0]
                       for which in ("SA", "LA")]
        except ArpackError as exc:
            raise SolverFailureError(f"ARPACK found no extreme eigenpair: {exc}") from None
    lo, hi = (math.fsum(v * a.matvec(v)) / math.fsum(v * v) for v in vectors)
    return lo + shift, hi - shift


def cg_emulated(a: SymmetricOperator, b, k, cfg: PrecisionConfig):
    """Conjugate gradient with rounded arithmetic (textbook recurrence).

    Used to exercise the finite-arithmetic linear-system bound: the
    error after k steps is compared against 2 kappa(A) delta-bar_k ||b||
    with the approximation intervals sized by the emulated precision.
    Stops early only when ``|beta| <= eps``, which includes a zero residual.
    """
    b = check_vector(b, a.n, name="b")
    ops = EmulatedArithmetic(cfg)
    matvec = ops.make_matvec(a)

    y = np.zeros(a.n)
    r = ops.round(b)
    p = r.copy()
    rr = ops.dot(r, r)
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
        if abs(beta) <= cfg.epsilon:
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
