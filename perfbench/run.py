"""funmlab benchmark: one seeded workload per run, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fa_stream --seed 1 --seconds 20 --trace 0

The run imports ``funmlab`` from ``src/`` of the checkout, builds the
workload's operations from the seed, and executes the whole operation list
again and again (one pass after another) for ``--seconds`` seconds.  The
first pass warms caches and is not timed; at least two timed passes follow.
Every output of the first pass is then checked against an independent
oracle, and every later pass must reproduce it bit for bit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, checks that both give bit-identical outputs,
and prints the per-layer metrics derived from the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the run's context: machine, BLAS threads, seed, the tail
percentile and its sample count, and a per-operation table.  Both are
also written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy loads: one client, one thread, no
# more than the cores available.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_TIMED_PASSES = 2
TAIL_BEYOND = 10
# Timed passes are rescaled to this calibration-kernel time, which is the
# kernel's typical time on the 2-core Xeon the benchmark was defined on.
REF_CALIBRATION_S = 0.0035
CALIBRATION_WINDOW = 8  # kernel samples on each side of an operation
HELD_OUT_SEED = 7919  # never used while the benchmark was tuned; validate claims on it
MODULES = ("operators", "lanczos", "tridiag", "cg", "minimax", "chebyshev", "functions",
           "hardspectrum", "precision", "applications", "cli")
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import funmlab; print(time.perf_counter() - t)")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fingerprint(obj, h=None):
    """SHA-256 over every number in ``obj``; equal digests mean bit-identical outputs."""
    import numpy as np

    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, bytes):
        h.update(obj)
    elif obj is None or isinstance(obj, (bool, int, float, str, np.generic)):
        h.update(repr(obj).encode())
    elif is_dataclass(obj):
        for f in fields(obj):
            fingerprint(getattr(obj, f.name), h)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            fingerprint(item, h)
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")
    return h.hexdigest() if top else None


def machine():
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": openblas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def openblas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def import_seconds():
    """Time to import funmlab in a fresh interpreter, as measured inside it."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


class Calibration:
    """A fixed kernel, independent of funmlab, timed after every operation.

    It mixes the kinds of work funmlab does: numpy elementwise products
    and cumulative sums, a Python float loop, and a LAPACK eigensolve.
    Machine speed on a shared host drifts by tens of percent within
    seconds, so each operation's latency is rescaled by the median kernel
    time of the samples taken around it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((300, 300))
        self._v = np.ones(300)
        small = rng.standard_normal((100, 100))
        self._sym = small + small.T

    def sample(self):
        from time import perf_counter

        np = self._np
        start = perf_counter()
        for _ in range(4):
            np.cumsum(self._a * self._v, axis=1)
        acc = 0.0
        for i in range(8000):
            acc += i * 0.5
        np.linalg.eigh(self._sym)
        return perf_counter() - start


def run_pass(ops, tracer=None, calibration=None):
    """Execute every operation once.

    Returns the latencies, the collected outputs and the latencies rescaled
    to the reference machine speed (``None`` without ``calibration``).
    """
    from time import perf_counter

    latencies, outputs, kernel = [], [], []
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = idx
        start = perf_counter()
        try:
            result = op.call()
            error = None
        except Exception:  # noqa: BLE001 - an operation that raises counts as failed
            result, error = None, traceback.format_exc(limit=3)
        latencies.append(perf_counter() - start)
        outputs.append(("raised", error) if error else ("ok", op.collect(result)))
        if calibration is not None:
            kernel.append(calibration.sample())
    if not kernel:
        return latencies, outputs, None
    w = CALIBRATION_WINDOW
    scaled = [t * REF_CALIBRATION_S / statistics.median(kernel[max(i - w, 0):i + w + 1])
              for i, t in enumerate(latencies)]
    return latencies, outputs, scaled


def percentiles(per_op):
    """Median and the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(per_op)
    n = len(ordered)
    tail_rank = max(n - TAIL_BEYOND - 1, 0)
    return statistics.median(ordered), ordered[tail_rank], 100.0 * tail_rank / n, n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "funmlab" / "__init__.py").is_file():
        fail(f"no funmlab sources under {SRC}; run from a full checkout")
    if not bench_file.is_file():
        fail("BENCHMARK.json is missing")
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in whys:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")

    sys.path.insert(0, str(SRC))
    import numpy as np

    import layers
    import workloads

    modules = SimpleNamespace(**{name: importlib.import_module(f"funmlab.{name}")
                                 for name in MODULES})
    if not Path(modules.operators.__file__).resolve().is_relative_to(SRC):
        fail(f"funmlab was imported from {modules.operators.__file__}, not {SRC}")

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    build = workloads.BUILDERS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        ops = None  # free the previous set-up's inputs before building new ones
        imported = import_seconds()
        start = time.perf_counter()
        rng = np.random.default_rng(args.seed)
        ops = build(modules, rng, out_dir)
        ops = [ops[i] for i in rng.permutation(len(ops))]
        workloads.warm_up(modules)
        setups.append(imported + time.perf_counter() - start)

    tracer = layers.Tracer(modules) if args.trace else None
    traced_metrics = []
    calibration = Calibration()
    started = time.perf_counter()
    # The first pass fills the allocator's and the libraries' caches: its
    # outputs are the reference, its times are not reported.
    # Each pass is (traced, latencies, outputs, rescaled latencies).
    passes = [(False, *run_pass(ops, calibration=calibration))]
    rounds = 0
    while rounds < (1 if tracer else MIN_TIMED_PASSES) \
            or time.perf_counter() - started < args.seconds:
        rounds += 1
        passes.append((False, *run_pass(ops, calibration=calibration)))
        if tracer is not None:
            tracer.spans.clear()
            with tracer:
                passes.append((True, *run_pass(ops, tracer)))
            traced_metrics.append(layers.layer_metrics(
                tracer.spans, workloads.cli_bytes(out_dir)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(out_dir / f"spans-seed{args.seed}.jsonl")

    untraced = [p for p in passes[1:] if not p[0]]
    raw_walls = [sum(p[1]) for p in untraced]
    scaled = [p[3] for p in untraced]
    walls = [sum(lat) for lat in scaled]
    per_op = [statistics.median(lat[i] for lat in scaled) for i in range(len(ops))]
    p50, tail, tail_pct, samples = percentiles(per_op)

    # -- checks, outside every timed region --------------------------------
    first = passes[0][2]
    prints = [[fingerprint(out) for out in p[2]] for p in passes]
    table, failed, inaccurate, traced_differs = [], 0, 0, False
    for idx, op in enumerate(ops):
        status, payload = first[idx]
        if status == "raised":
            verdict = workloads.Verdict(False, note=payload.strip().splitlines()[-1])
        else:
            try:
                verdict = op.check(payload)
            except Exception:  # noqa: BLE001 - a check that cannot run is a failure
                verdict = workloads.Verdict(False, note=traceback.format_exc(limit=2))
        inaccurate += not verdict.accurate
        repeats = [pr[idx] == prints[0][idx] for pr in prints[1:]]
        traced_differs |= not all(
            same for same, p in zip(repeats, passes[1:]) if p[0])
        # a later pass that differs from the first is counted as failed
        failed += len(passes) if not (verdict.accurate and verdict.invariant) \
            else repeats.count(False)
        table.append({
            "op": op.label,
            "median_ms": 1e3 * per_op[idx],
            "accurate": verdict.accurate,
            "invariant": verdict.invariant,
            "reproducible": all(repeats),
            "note": verdict.note,
        })
    attempted = len(ops) * len(passes)

    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * p50,
            "op_tail_ms": 1e3 * tail,
            "ok_ratio": 1.0 - failed / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = bench["end_to_end"]
    else:
        values = {name: statistics.median(m[name] for m in traced_metrics)
                  for name in traced_metrics[0]}
        traced_walls = [sum(p[1]) for p in passes if p[0]]
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(raw_walls)
        declared = bench["per_layer"]
    if set(values) != {d["name"] for d in declared}:
        fail(f"emitted metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}

    context = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(untraced),
        "operations_per_pass": len(ops),
        "op_tail_percentile": tail_pct,
        "op_tail_samples": samples,
        "setup_s_samples": setups,
        "wall_s_samples": walls,
        "raw_wall_s_samples": raw_walls,
        "speed_scales": [sum(p[3]) / sum(p[1]) for p in untraced],
        "failed_accuracy_checks": inaccurate,
        "traced_outputs_identical": None if tracer is None else not traced_differs,
        "layer_targets": None if tracer is None else layers.LAYER_METRICS,
        "machine": machine(),
        "operations": table,
    }
    result = {
        "correct": inaccurate == 0 and not traced_differs,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
