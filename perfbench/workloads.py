"""The four seeded workloads.

Each workload is a list of operations built from the seed.  An operation
calls one public entry point of ``funmlab`` (looked up on its module at
call time, so the tracer's patches apply) and carries a check that runs
outside the timed region against :mod:`oracles`.

Sizes, iteration counts and functions are fixed per operation slot; the
seed draws the matrix entries, start vectors, CLI seeds, sweep points and
the order of the operations.  That keeps the cost of a pass the same
across seeds, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

import oracles

@dataclass
class Verdict:
    """``accurate``: output within its oracle tolerance and no exception.
    ``invariant``: a stated invariant (bit identity) held."""

    accurate: bool
    invariant: bool = True
    note: str = ""


@dataclass
class Op:
    """``call`` is timed; ``collect`` turns its result into the output that
    is checked and compared between passes, outside the timed region."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Verdict]
    collect: Callable[[Any], Any] = lambda result: result


def _within(err, bound, label):
    return Verdict(bool(err <= bound), note=f"{label}: error {err:.3e} bound {bound:.3e}")


# -- input generators ------------------------------------------------------

def goe(rng, n, shift):
    """Symmetric Gaussian matrix with spectrum close to ``[shift-1, shift+1]``."""
    g = rng.standard_normal((n, n))
    return (g + g.T) / math.sqrt(8.0 * n) + shift * np.eye(n)


def laplacian_2d(m, scale):
    l1 = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    eye = sp.identity(m)
    return (scale * (sp.kron(l1, eye) + sp.kron(eye, l1))).tocsr()


# -- fa_stream -------------------------------------------------------------

_FA_REQUESTS = (  # (operator, function, k), each one lanczos_apply
    ("dense400", "sqrt", 20), ("dense400", "exp", 40), ("dense400", "inv", 60),
    ("dense400", "log", 100), ("dense400", "sqrt", 150), ("dense400", "inv", 400),
    ("dense800", "log", 30), ("dense800", "exp", 60),
    ("dense1500", "sqrt", 25),
    ("laplacian", "exp", 20), ("laplacian", "sqrt", 60), ("laplacian", "exp", 120),
    ("diagonal", "inv", 20), ("diagonal", "log", 40), ("diagonal", "sqrt", 60),
    ("gram", "sqrt", 30), ("gram", "inv", 60), ("gram", "log", 100),
) + tuple(("dense300", ("sqrt", "exp", "inv", "log")[i % 4], 8 + 2 * i) for i in range(20))

_LAPLACIAN_SIDE = 100


def fa_stream(m, rng, out_dir):
    ops_mod = m.operators
    sym = ops_mod.SymmetricOperator
    mats = {f"dense{n}": goe(rng, n, 1.25) for n in (300, 400, 800, 1500)}
    operators = {name: sym.from_dense(mat) for name, mat in mats.items()}
    spectra = {name: oracles.Spectral.dense(mat) for name, mat in mats.items()}

    side = _LAPLACIAN_SIDE
    operators["laplacian"] = sym.from_sparse(laplacian_2d(side, 0.125), norm_hint=1.0)
    spectra["laplacian"] = oracles.Spectral.laplacian_2d(side, 0.125)
    diag = rng.uniform(0.05, 1.0, 100_000)
    operators["diagonal"] = sym.from_diagonal(diag)
    spectra["diagonal"] = oracles.Spectral.diagonal(diag)
    factor = rng.standard_normal((500, 250)) / math.sqrt(500.0)
    operators["gram"] = sym.gram(factor)
    spectra["gram"] = oracles.Spectral.dense(factor.T @ factor)

    ops = []
    for name, fname, k in _FA_REQUESTS:
        a, spec = operators[name], spectra[name]
        x = rng.standard_normal(a.n)
        f = m.functions.scalar_function_by_name(fname)
        fn = oracles.FUNCTIONS[fname]

        def check(y, fn=fn, spec=spec, x=x, k=k, label=f"{name}/{fname}/k={k}"):
            err = float(np.linalg.norm(y - spec.apply(fn, x)))
            return _within(err, oracles.lanczos_error_bound(fn, spec, x, k), label)

        ops.append(Op(f"apply {name} {fname} k={k}",
                      lambda a=a, x=x, k=k, f=f: m.lanczos.lanczos_apply(a, x, k, f), check))

    apps = m.applications
    # exp(A) x on a dense operator without a norm hint (runs the spectral probe)
    a, spec = operators["dense400"], spectra["dense400"]
    x = rng.standard_normal(a.n)
    ops.append(Op("matrix_exp_apply dense400",
                  lambda a=a, x=x: apps.matrix_exp_apply(a, x, 1e-8),
                  lambda y, x=x, spec=spec: _within(
                      float(np.linalg.norm(y - spec.apply(np.exp, x))),
                      1e-8 * math.exp(2.0 * spec.norm) * float(np.linalg.norm(x)), "exp")))

    # exp(-A) x through the resolvent: Lanczos over nested CG solves
    lap = sym.from_sparse(laplacian_2d(side, 1.0))
    lap_spec = oracles.Spectral.laplacian_2d(side, 1.0)
    x = rng.standard_normal(lap.n)
    ops.append(Op("matrix_exp_psd_apply laplacian",
                  lambda x=x: apps.matrix_exp_psd_apply(lap, x, 1e-6),
                  lambda y, x=x: _within(
                      float(np.linalg.norm(y - lap_spec.apply(lambda t: np.exp(-t), x))),
                      1e-6 * float(np.linalg.norm(x)), "exp_psd")))

    # soft step of A (A + lam I)^-1 - I/2, whose every product is a CG solve
    params = apps.StepParams(0.2, 0.05)
    d = rng.uniform(0.01, 2.0, 4000)
    lam = 0.5
    reduced = apps.step_reduction_operator(sym.from_diagonal(d), lam)
    x = rng.standard_normal(d.size)
    ops.append(Op("soft_step_apply step_reduction",
                  lambda x=x: apps.soft_step_apply(reduced, x, params),
                  lambda y, x=x: _within(
                      float(np.linalg.norm(y - oracles.soft_step(d / (d + lam) - 0.5, params.q) * x)),
                      0.05 * float(np.linalg.norm(x)), "step")))

    # x^200 in ~sqrt(200) iterations on the Laplacian scaled to norm < 1
    spec200 = apps.AccelPolySpec.monomial(200)
    x = rng.standard_normal(operators["laplacian"].n)
    ops.append(Op("accelerated_poly_apply laplacian",
                  lambda x=x: apps.accelerated_poly_apply(operators["laplacian"], x, spec200, 1e-6),
                  lambda y, x=x: _within(
                      float(np.linalg.norm(y - spectra["laplacian"].apply(lambda t: t ** 200, x))),
                      1e-6 * float(np.linalg.norm(x)), "accel")))

    # single-trial top singular value estimates
    b = rng.standard_normal((120, 80))
    for trial in range(2):
        seed = (int(rng.integers(2**31)), trial)
        ops.append(Op(f"top_singular_value trial {trial}",
                      lambda seed=seed: apps.top_singular_value(b, 0.05, 1, seed),
                      lambda out: _check_topsv(out, b)))
    return ops


def _check_topsv(out, b):
    """The estimate is the Rayleigh-type ratio ``||B v||`` of a unit vector,
    so it cannot exceed ``sigma_max``."""
    ratio, v = out
    sigma = float(np.linalg.norm(b, 2))
    ok = (0.0 < ratio <= sigma * (1.0 + 1e-12)
          and abs(float(np.linalg.norm(v)) - 1.0) <= 1e-12
          and abs(float(np.linalg.norm(b @ v)) - ratio) <= 1e-12 * sigma)
    return Verdict(bool(ok), note=f"topsv ratio {ratio:.6f} sigma {sigma:.6f}")


# -- precision_lab ---------------------------------------------------------

_BITS = (8, 12, 16, 24, 52)
_PRECISION_RUNS = (  # (operator, k, bits)
    ("sym120", 30, _BITS + (10, 20, 32)), ("sym200", 30, _BITS), ("spd300", 40, _BITS),
    ("hard256", 30, (10, 20, 32)), ("hard256", 60, _BITS),
    ("laplacian1600", 15, (16, 52)), ("gram", 30, (12, 24, 52)),
)
_CG_RUNS = (("spd300", 40, (16, 24, 52)), ("hard256", 60, (24, 52)))


def precision_lab(m, rng, out_dir):
    sym = m.operators.SymmetricOperator
    prec = m.precision
    dense = {"sym120": goe(rng, 120, 0.0), "sym200": goe(rng, 200, 0.0),
             "spd300": goe(rng, 300, 1.25)}
    operators = {name: sym.from_dense(mat) for name, mat in dense.items()}
    values, _, _ = oracles.hard_spectrum_values(256.0, 1e-4)
    operators["hard256"] = m.hardspectrum.hard_spectrum(256.0, 1e-4).operator()
    dense["hard256"] = np.diag(values)
    lap = laplacian_2d(40, 0.125)
    operators["laplacian1600"] = sym.from_sparse(lap)
    dense["laplacian1600"] = lap.toarray()
    factor = rng.standard_normal((300, 150)) / math.sqrt(300.0)
    operators["gram"] = sym.gram(factor)
    dense["gram"] = factor.T @ factor

    ops = []
    for name, k, bits_list in _PRECISION_RUNS:
        a, mat = operators[name], dense[name]
        x = rng.standard_normal(a.n)
        for bits in bits_list:
            cfg = prec.PrecisionConfig(bits)

            def call(a=a, x=x, k=k, cfg=cfg):
                dec, diag = prec.lanczos_emulated(a, x, k, cfg)
                return dec, diag, prec.paige_report(diag, a)

            def check(out, a=a, x=x, k=k, mat=mat, cfg=cfg, name=name):
                return _check_emulated(m, out, a, x, k, mat, cfg, name)

            ops.append(Op(f"lanczos_emulated {name} k={k} bits={bits}", call, check))

    for name, k, bits_list in _CG_RUNS:
        a, mat = operators[name], dense[name]
        b = rng.standard_normal(a.n)
        for bits in bits_list:
            cfg = prec.PrecisionConfig(bits)
            ops.append(Op(f"cg_emulated {name} k={k} bits={bits}",
                          lambda a=a, b=b, k=k, cfg=cfg: prec.cg_emulated(a, b, k, cfg),
                          lambda trace, mat=mat, b=b, k=k, cfg=cfg: _check_cg(trace, mat, b, k, cfg)))
    return ops


def _check_emulated(m, out, a, x, k, mat, cfg, name):
    dec, diag, report = out
    passed, bounds = oracles.paige_verdict(mat, dec.q_basis, dec.alphas, dec.betas,
                                           dec.beta_next, dec.q_next, cfg.epsilon)
    note = ", ".join(f"{key} {v:.2e}/{b:.2e}" for key, (v, b) in bounds.items())
    accurate = passed and report.all_passed == passed
    invariant = True
    if cfg.mantissa_bits == 52:
        exact = m.lanczos.lanczos_decompose(a, x, k, breakdown_tol=0.0)
        invariant = all(np.array_equal(getattr(dec, f), getattr(exact, f)) for f in (
            "q_basis", "alphas", "betas", "beta_next", "q_next", "steps_taken"))
        note += "; 52-bit run equals exact run" if invariant else \
            f"; 52-bit run differs from exact run ({name})"
    return Verdict(accurate, invariant, note)


def _check_cg(trace, mat, b, k, cfg):
    """Final CG error against the exact-arithmetic rate plus a rounding floor
    ``kappa sqrt(n) eps`` scaled by 10."""
    values = np.linalg.eigvalsh(mat)
    kappa = float(values[-1] / values[0])
    exact = np.linalg.solve(mat, b)
    rho = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    steps = trace.iterations
    rate = 2.0 * math.sqrt(kappa) * rho ** steps
    floor = 10.0 * kappa * math.sqrt(mat.shape[0]) * cfg.epsilon
    err = float(np.linalg.norm(trace.solution - exact) / np.linalg.norm(exact))
    return _within(err, rate + floor, f"cg bits={cfg.mantissa_bits} steps={steps}")


# -- degree_scan -----------------------------------------------------------

_SCAN_ETA = 1e-4
_TARGET = 1.0 / 6.0
_PROBE_KS = tuple(range(2, 10))
_POTENTIAL_KAPPAS = (8.0, 64.0, 1024.0)
_POTENTIAL_POINTS = 4


def degree_scan(m, rng, out_dir):
    hs = m.hardspectrum
    inv = m.functions.inverse_function()
    fn = oracles.FUNCTIONS["inv"]
    spectra = {kappa: hs.hard_spectrum(kappa, _SCAN_ETA) for kappa in (16.0, 64.0, 256.0)}
    per = spectra[16.0].intervals.grid_per_interval
    ops = []
    for kappa in (16.0, 64.0):
        intervals = spectra[kappa].intervals

        def check(degree, intervals=intervals):
            if degree is None:
                return Verdict(False, note="no degree found")
            below = oracles.grid_minimax(fn, intervals.intervals, per, degree - 1)
            at = oracles.grid_minimax(fn, intervals.intervals, per, degree)
            # the scan's refined-grid error is within 5% of the grid optimum
            return Verdict(bool(below > _TARGET / 1.05 and at <= _TARGET * (1.0 + 1e-6)),
                           note=f"degree {degree}: grid optimum {below:.4f} below, {at:.4f} at")

        ops.append(Op(f"min_degree_for kappa={kappa:g}",
                      lambda intervals=intervals: m.minimax.min_degree_for(inv, intervals, _TARGET, 200),
                      check))

    intervals256 = spectra[256.0].intervals
    for degree in (20, 48):
        ops.append(Op(f"minimax kappa=256 degree={degree}",
                      lambda degree=degree: m.minimax.minimax(inv, intervals256, degree),
                      lambda out, degree=degree: _check_minimax(out, intervals256, per, degree)))

    for kappa in (16.0, 64.0):
        spec = spectra[kappa]
        for k in _PROBE_KS:
            ops.append(Op(f"delta_bar_probe kappa={kappa:g} k={k}",
                          lambda k=k, spec=spec: hs.delta_bar_probe(spec, k),
                          lambda delta, k=k, spec=spec: _check_delta(
                              delta, oracles.grid_minimax(fn, spec.intervals.intervals, per, k - 1))))

    for kappa in _POTENTIAL_KAPPAS:
        eta = 1.0 / (20.0 * kappa ** 2)
        spec = hs.hard_spectrum(kappa, eta)
        values, buckets, z = oracles.hard_spectrum_values(kappa, eta)
        floor = -377.0 * eta * z
        for r in np.exp(rng.uniform(math.log(1.0 / kappa), math.log(1.0 + eta), _POTENTIAL_POINTS)):
            c = float(rng.uniform(0.2, 0.5))

            def check(value, r=float(r), c=c, values=values, buckets=buckets, eta=eta, floor=floor):
                ref, tolerance = oracles.potential(values, buckets, eta, r, c)
                ok = abs(value - ref) <= tolerance and value >= floor - 1e-6 * abs(floor)
                return Verdict(bool(ok), note=f"potential {value:.6e} reference {ref:.6e}")

            ops.append(Op(f"potential_check kappa={kappa:g}",
                          lambda spec=spec, r=float(r), c=c: hs.potential_check(spec, r, c),
                          check))
    return ops


def _check_minimax(out, domain, per, degree):
    expansion, delta = out
    best = oracles.grid_minimax(oracles.FUNCTIONS["inv"], domain.intervals, per, degree)
    lo, hi = expansion.interval
    nodes = np.linspace(-1.0, 1.0, 4 * per)
    xs = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * nodes for a, b in domain.intervals])
    p = np.polynomial.chebyshev.chebval((2.0 * xs - (lo + hi)) / (hi - lo), expansion.coeffs)
    sup = float(np.max(np.abs(p - 1.0 / xs)))
    verdict = _check_delta(delta, best)
    ok = verdict.accurate and sup <= 1.05 * delta + 1e-12
    return Verdict(ok, note=f"{verdict.note}, sampled sup {sup:.4e}")


def _check_delta(delta, best):
    """A grid-refined minimax error is at least the base-grid optimum and
    within 5% of it."""
    ok = best <= delta * (1.0 + 1e-6) + 1e-12 and delta <= 1.05 * best + 1e-12
    return Verdict(bool(ok), note=f"delta {delta:.6e} grid optimum {best:.6e}")


# -- cli_studies -----------------------------------------------------------

def _diag_arg(rng, n):
    return "diag:" + ",".join(repr(round(float(v), 6)) for v in rng.uniform(-0.45, 0.45, n))


def _cli_configs(rng):
    for n, fname, k in ((150, "sqrt", 30), (200, "exp", 20), (100, "log", 25),
                        (120, "inv", 30), (80, "sqrt", 15), (160, "exp", 25)):
        yield ["apply", "--matrix", f"random-spd:{n},50", "--function", fname, "--k", str(k)]
    for n, kappa, k in ((200, 100, 40), (100, 50, 20), (60, 20, 12)):
        yield ["solve", "--matrix", f"random-spd:{n},{kappa}", "--k", str(k)]
    for n in (120, 200, 80):
        yield ["exp", "--matrix", f"random-sym:{n}", "--eps", "1e-6"]
        yield ["exp", "--matrix", f"random-spd:{n}", "--eps", "1e-6", "--variant", "psd"]
    for n in (40, 80, 120, 20, 60, 100):
        yield ["step", "--gamma", "0.2", "--eps", "0.05", "--matrix", _diag_arg(rng, n)]
    for m, n, delta, trials in ((100, 60, 0.2, 24), (60, 40, 0.25, 12), (80, 50, 0.3, 12)):
        yield ["topsv", "--matrix", f"random-rect:{m},{n}", "--delta", str(delta),
               "--trials", str(trials)]
    for kappa, eta in ((16, 1e-4), (8, 1e-4), (12, 2e-4)):
        yield ["lowerbound", "--kappa", str(kappa), "--eta", str(eta), "--kmax", "40"]
    for bits, matrix, k in (("12,16,24,52", "random-spd:60", 25), ("8,16,52", "random-sym:80", 20),
                            ("10,20,30", "random-spd:40,100", 30), ("16,52", "random-sym:120", 20),
                            ("12,24", "random-spd:100", 15)):
        yield ["precision-sweep", "--bits", bits, "--matrix", matrix, "--k", str(k)]
    for bits, matrix, k in (("16", "random-sym:60", 25), ("12", "random-spd:80", 20),
                            ("24", "random-sym:100", 30), ("8", "random-spd:50", 20),
                            ("20", "random-sym:40", 15), ("52", "random-spd:90", 25)):
        yield ["paige-check", "--bits", bits, "--matrix", matrix, "--k", str(k)]


def cli_studies(m, rng, out_dir):
    ops = []
    for idx, argv in enumerate(_cli_configs(rng)):
        target = Path(out_dir) / "cli" / f"op{idx:02d}"
        if target.exists():
            shutil.rmtree(target)
        argv = argv + ["--seed", str(int(rng.integers(2**31))), "--output-dir", str(target)]

        def collect(code, target=target):
            results = target / "results.csv"
            return code, results.read_bytes() if results.exists() else b"", \
                (target / "report.json").read_bytes()

        def check(out, command=argv[0]):
            code, _, report = out
            passed = json.loads(report).get("passed") is True
            return Verdict(code == 0 and passed, note=f"{command}: exit {code}, passed {passed}")

        ops.append(Op(f"cli {argv[0]} #{idx}", lambda argv=argv: m.cli.main(argv), check, collect))
    return ops


def cli_bytes(out_dir):
    """Bytes the CLI left in its output directories."""
    root = Path(out_dir) / "cli"
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) if root.exists() else 0


BUILDERS = {
    "fa_stream": fa_stream,
    "precision_lab": precision_lab,
    "degree_scan": degree_scan,
    "cli_studies": cli_studies,
}


def warm_up(m):
    """Touch every layer once on tiny inputs so lazy set-up is done."""
    sym = m.operators.SymmetricOperator
    a = sym.from_diagonal(np.linspace(0.5, 2.0, 12))
    x = np.linspace(1.0, 2.0, 12)
    m.lanczos.lanczos_apply(a, x, 4, m.functions.scalar_function_by_name("sqrt"))
    m.cg.cg_solve(a, x, 4)
    m.precision.lanczos_emulated(a, x, 4, m.precision.PrecisionConfig(16))
    m.minimax.minimax(m.functions.inverse_function(), m.minimax.IntervalUnion.single(0.5, 2.0), 3)
    m.hardspectrum.potential_check(m.hardspectrum.hard_spectrum(4.0, 1e-3), 0.5, 0.3)
