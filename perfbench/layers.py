"""Layer tracing from outside the package.

The tracer replaces public functions of each ``funmlab`` module with
wrappers that record one span per call: (name, start, end, parent,
operation id).  A name is patched where its caller looks it up, so a
function imported into several modules is wrapped once per binding.
Spans stay in memory and are written out when the run ends.

Per-layer metrics are derived from the spans afterwards: a span's self
time is its duration minus the time its child spans cover (children never
overlap, because the program is single-threaded).
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

import numpy as np

# Each per-layer metric, with the end-to-end metric and workload it should
# move.  BENCHMARK.json declares the same names with their units.
LAYER_METRICS = {
    **dict.fromkeys(("operators.matvec_calls", "operators.matvec_s", "operators.matvec_bytes"),
                    "wall_s and op_p50_ms on fa_stream; no change on degree_scan"),
    **dict.fromkeys(("lanczos.steps", "lanczos.recurrence_s", "lanczos.postprocess_s"),
                    "wall_s on fa_stream"),
    **dict.fromkeys(("tridiag.eig_calls", "tridiag.eig_k_sum", "tridiag.eig_s"),
                    "wall_s and op_tail_ms on fa_stream; wall_s on cli_studies; "
                    "small on precision_lab; none on degree_scan"),
    **dict.fromkeys(("cg.solves", "cg.iterations", "cg.self_s", "cg.nested_matvecs"),
                    "wall_s on fa_stream and cli_studies"),
    **dict.fromkeys(("minimax.calls", "minimax.lp_solves", "minimax.lp_rows", "minimax.lp_s",
                     "minimax.self_s", "minimax.degrees_scanned"),
                    "wall_s on degree_scan; op_p50_ms on cli_studies"),
    **dict.fromkeys(("hardspectrum.potential_calls", "hardspectrum.potential_s"),
                    "wall_s on degree_scan"),
    **dict.fromkeys(("precision.runs", "precision.matvec_s", "precision.reduce_s",
                     "precision.densify_s"), "wall_s on precision_lab"),
    "precision.densify_bytes": "wall_s and peak_rss_mb on precision_lab",
    **dict.fromkeys(("precision.diagnose_s", "precision.paige_s"), "wall_s on precision_lab"),
    **dict.fromkeys(("applications.topsv_trials", "applications.topsv_success_ratio",
                     "applications.topsv_retries"), "wall_s on fa_stream and cli_studies"),
    **dict.fromkeys(("cli.commands", "cli.self_s", "cli.write_s", "cli.bytes_written"),
                    "wall_s on cli_studies only"),
    "trace.overhead_s": "none: traced wall_s minus untraced wall_s",
}

_FLOAT = 8


def _matvec_bytes(op):
    """Bytes one exact matvec reads and writes, computed from array sizes."""
    data = op._data
    kind = op.kind
    vectors = 2 * op.n * _FLOAT
    if kind in ("dense", "diagonal"):
        return data.size * _FLOAT + vectors
    if kind == "sparse":
        return data.data.nbytes + data.indices.nbytes + data.indptr.nbytes + vectors
    # gram: B v then B^T (B v), each streaming B once
    factor = data.data.nbytes + data.indices.nbytes + data.indptr.nbytes \
        if hasattr(data, "indptr") else data.size * _FLOAT
    return 2 * factor + vectors + 2 * data.shape[0] * _FLOAT


class Tracer:
    """Records spans for calls made through the patched bindings."""

    def __init__(self, modules):
        self.m = modules
        self.spans = []  # [name, start, end, parent index, op id, info]
        self._stack = []
        self.op_id = -1
        self._saved = []
        self._bytes_cache = {}

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, name, on_exit):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_exit is not None:
                span[5] = on_exit(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, on_exit=None):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(original, name, on_exit)
        else:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, on_exit))
        self._saved.append((owner, attr, original))

    def __enter__(self):
        m = self.m
        ops_cls = m.operators.SymmetricOperator
        emu = m.precision.EmulatedArithmetic

        def matvec_bytes(args, kwargs, result):
            op = args[0]
            key = id(op)
            if key not in self._bytes_cache:
                self._bytes_cache[key] = (op, _matvec_bytes(op))
            return self._bytes_cache[key][1]

        self._patch(ops_cls, "matvec", "operators.matvec", matvec_bytes)
        self._patch(ops_cls, "to_dense", "operators.to_dense")
        for cls in (m.applications._ShiftedOperator, m.applications._StepReduction,
                    m.applications.ResolventOperator):
            self._patch(cls, "matvec", "applications.operator_matvec")

        steps = lambda args, kwargs, dec: dec.steps_taken  # noqa: E731
        for mod in (m.lanczos, m.precision):
            self._patch(mod, "lanczos_core", "lanczos.core", steps)
        for mod in (m.lanczos, m.cg, m.applications):
            self._patch(mod, "lanczos_decompose", "lanczos.decompose")
            self._patch(mod, "apply_function", "lanczos.apply_function")

        eig_k = lambda args, kwargs, result: args[0].k  # noqa: E731
        for mod in (m.tridiag, m.applications, m.precision):
            self._patch(mod, "eig_tridiagonal", "tridiag.eig", eig_k)
        self._patch(m.lanczos, "apply_scalar_to_e1", "tridiag.apply_e1")

        iterations = lambda args, kwargs, trace: trace.iterations  # noqa: E731
        for mod in (m.cg, m.applications, m.cli):
            self._patch(mod, "cg_solve", "cg.solve", iterations)

        for mod in (m.minimax, m.hardspectrum, m.cli):
            self._patch(mod, "minimax", "minimax.minimax")
        self._patch(m.minimax, "min_degree_for", "minimax.min_degree_for")

        def lp_rows(args, kwargs, result):
            rows = kwargs["A_ub"].shape[0]
            if kwargs.get("A_eq") is not None:
                rows += kwargs["A_eq"].shape[0]
            return rows

        self._patch(m.minimax, "linprog", "minimax.linprog", lp_rows)

        self._patch(m.hardspectrum, "potential_check", "hardspectrum.potential")
        self._patch(m.hardspectrum, "delta_bar_probe", "hardspectrum.delta_bar_probe")

        for mod in (m.precision, m.cli):
            self._patch(mod, "lanczos_emulated", "precision.run")
        self._patch(m.precision, "cg_emulated", "precision.run")
        self._patch(emu, "matvec_dense", "precision.matvec")
        self._patch(emu, "dot", "precision.reduce")
        self._patch(emu, "norm", "precision.reduce")
        self._patch(emu, "make_matvec", "precision.densify",
                    lambda args, kwargs, result: args[1].n ** 2 * _FLOAT)
        self._patch(m.precision, "diagnose", "precision.diagnose")
        for mod in (m.precision, m.cli):
            self._patch(mod, "paige_report", "precision.paige")

        for mod in (m.applications, m.cli):
            self._patch(mod, "top_singular_value", "applications.topsv",
                        lambda args, kwargs, result: (args[0], args[1]))
        self._patch(m.applications, "_single_power_trial", "applications.topsv_trial",
                    lambda args, kwargs, result: None if result is None else result[0])

        self._patch(m.cli, "main", "cli.main")
        for command in list(m.cli._RUNNERS):
            self._patch(m.cli._RUNNERS, command, "cli.runner",
                        lambda args, kwargs, result: args[0].command)
        self._patch(m.cli, "write_results_csv", "cli.write")
        self._patch(m.cli, "_write_meta", "cli.write")
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._bytes_cache.clear()
        return False

    # -- derived metrics --------------------------------------------------

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op_id, _) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent, op_id]) + "\n")


def layer_metrics(spans, cli_bytes):
    """Aggregate one traced pass's spans into the per-layer metrics."""
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    child_time = np.zeros(n)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += dur[idx]
    self_time = dur - child_time
    names = [s[0] for s in spans]

    def ancestor(idx, wanted):
        p = spans[idx][3]
        while p >= 0:
            if spans[p][0] in wanted:
                return p
            p = spans[p][3]
        return -1

    def sel(*wanted):
        return [i for i, nm in enumerate(names) if nm in wanted]

    def total(idxs, arr=dur):
        return float(sum(arr[i] for i in idxs))

    matvecs = sel("operators.matvec")
    cores = sel("lanczos.core")
    applies = sel("lanczos.apply_function")
    eigs = sel("tridiag.eig")
    solves = sel("cg.solve")
    minimaxes = sel("minimax.minimax")
    lps = sel("minimax.linprog")
    trials = sel("applications.topsv_trial")

    nested = 0
    for i in matvecs:
        c = ancestor(i, {"cg.solve"})
        if c >= 0 and ancestor(c, {"lanczos.core"}) >= 0:
            nested += 1
    eig_under_apply = [i for i in eigs if ancestor(i, {"lanczos.apply_function"}) >= 0]
    scanned = 0
    for i in minimaxes:
        p = spans[i][3]
        if p >= 0 and (names[p] == "minimax.min_degree_for"
                       or (names[p] == "cli.runner" and spans[p][5] == "lowerbound")):
            scanned += 1

    successes = 0
    retries = 0
    sigma_cache = {}
    for i in trials:
        top = ancestor(i, {"applications.topsv"})
        b, delta = spans[top][5]
        key = id(b)
        if key not in sigma_cache:
            sigma_cache[key] = (b, float(np.linalg.norm(b, 2)))
        ratio = spans[i][5]
        if ratio is not None and ratio >= (1.0 - delta) * sigma_cache[key][1]:
            successes += 1
    for i in sel("lanczos.decompose"):
        if ancestor(i, {"applications.topsv_trial"}) >= 0:
            retries += 1
    retries -= len(trials)

    minimax_layer = sel("minimax.minimax", "minimax.min_degree_for")
    cli_layer = sel("cli.main", "cli.runner", "cli.write")
    return {
        "operators.matvec_calls": len(matvecs),
        "operators.matvec_s": total(matvecs),
        "operators.matvec_bytes": int(sum(spans[i][5] for i in matvecs)),
        "lanczos.steps": int(sum(spans[i][5] for i in cores)),
        "lanczos.recurrence_s": total(cores, self_time),
        "lanczos.postprocess_s": total(applies) - total(eig_under_apply),
        "tridiag.eig_calls": len(eigs),
        "tridiag.eig_k_sum": int(sum(spans[i][5] for i in eigs)),
        "tridiag.eig_s": total(eigs),
        "cg.solves": len(solves),
        "cg.iterations": int(sum(spans[i][5] for i in solves)),
        "cg.self_s": total(solves, self_time),
        "cg.nested_matvecs": nested,
        "minimax.calls": len(minimaxes),
        "minimax.lp_solves": len(lps),
        "minimax.lp_rows": int(sum(spans[i][5] for i in lps)),
        "minimax.lp_s": total(lps),
        "minimax.self_s": total(minimax_layer, self_time),
        "minimax.degrees_scanned": scanned,
        "hardspectrum.potential_calls": len(sel("hardspectrum.potential")),
        "hardspectrum.potential_s": total(sel("hardspectrum.potential")),
        "precision.runs": len(sel("precision.run")),
        "precision.matvec_s": total(sel("precision.matvec")),
        "precision.reduce_s": total(sel("precision.reduce")),
        "precision.densify_s": total(sel("precision.densify")),
        "precision.densify_bytes": int(sum(spans[i][5] for i in sel("precision.densify"))),
        "precision.diagnose_s": total(sel("precision.diagnose")),
        "precision.paige_s": total(sel("precision.paige")),
        "applications.topsv_trials": len(trials),
        "applications.topsv_success_ratio": successes / len(trials) if trials else 0.0,
        "applications.topsv_retries": retries / len(trials) if trials else 0.0,
        "cli.commands": len(sel("cli.main")),
        "cli.self_s": total(cli_layer, self_time),
        "cli.write_s": total(sel("cli.write")),
        "cli.bytes_written": cli_bytes,
    }
