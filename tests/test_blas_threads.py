"""``f(A) x`` is the same bytes under one and two BLAS threads.

The Lanczos basis is F-contiguous, so ``apply_function`` forms ``Q z``
with BLAS's column-major gemv, which OpenBLAS splits across threads at
these sizes.  Each run happens in a fresh interpreter, because the
thread count is read when BLAS loads.  The test starts at most as many
BLAS threads as the process may use cores, and no more than two.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import funmlab

SCRIPT = """
import hashlib
import numpy as np
from funmlab import SymmetricOperator, lanczos_apply, scalar_function_by_name

rng = np.random.default_rng(2024)
m = rng.standard_normal((400, 400))
cases = [
    (SymmetricOperator.from_diagonal(rng.uniform(0.5, 4.0, 100_000)), 60, "sqrt"),
    (SymmetricOperator.from_dense((m + m.T) / 60.0), 400, "exp"),
    (SymmetricOperator.gram(rng.standard_normal((500, 250)) / 30.0), 100, "sqrt"),
]
for a, k, name in cases:
    x = rng.standard_normal(a.n)
    y = lanczos_apply(a, x, k, scalar_function_by_name(name))
    print(a.kind, a.n, k, hashlib.sha256(y.tobytes()).hexdigest())
"""


def usable_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_with_threads(threads):
    env = dict(os.environ)
    src = str(Path(funmlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout


@pytest.mark.skipif(usable_cores() < 2, reason="needs two cores for two BLAS threads")
def test_lanczos_apply_is_byte_identical_under_one_and_two_threads():
    one, two = run_with_threads(1), run_with_threads(2)
    assert len(one.splitlines()) == 3
    assert one == two
