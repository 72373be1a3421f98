"""Named scalar functions that evaluate elementwise and reject non-finite output."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, StructuralError


@dataclass(frozen=True)
class ScalarFunction:
    """A named scalar map ``f``, applied elementwise to arrays."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, x):
        """Evaluate elementwise; non-finite output raises naming the point."""
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = np.asarray(self.fn(x), dtype=float)
        if out.shape != x.shape:
            raise StructuralError(f"{self.name} must evaluate elementwise")
        bad = ~np.isfinite(out)
        if np.any(bad):
            point = x[bad].flat[0] if x.ndim else float(x)
            raise DomainError(f"{self.name} is not finite at {point!r}")
        return out

    def __call__(self, x):
        return self.evaluate(x)


def evaluate_scalar(f, values):
    """Evaluate ``f`` (ScalarFunction or bare callable) on an array.

    Raises :class:`DomainError` naming the first offending point when the
    output is not finite.
    """
    if not isinstance(f, ScalarFunction):
        f = ScalarFunction("function", f)
    return f.evaluate(values)


def identity_function():
    return ScalarFunction("identity", lambda x: x)


def constant_function(value):
    return ScalarFunction(f"const:{value!r}", lambda x, v=float(value): np.full_like(x, v))


def exp_function():
    return ScalarFunction("exp", np.exp)


def sqrt_function():
    return ScalarFunction("sqrt", np.sqrt)


def inverse_function():
    return ScalarFunction("inv", lambda x: 1.0 / x)


def log_function():
    return ScalarFunction("log", np.log)


def power_function(q):
    q = int(q)
    return ScalarFunction(f"pow:{q}", lambda x: x**q)


_BUILDERS = {
    "identity": identity_function,
    "exp": exp_function,
    "sqrt": sqrt_function,
    "inv": inverse_function,
    "log": log_function,
}


def scalar_function_by_name(name) -> ScalarFunction:
    """Look up a function for CLI use; ``pow:q`` and ``const:v`` take params."""
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name.startswith("pow:"):
        return power_function(int(name.split(":", 1)[1]))
    if name.startswith("const:"):
        return constant_function(float(name.split(":", 1)[1]))
    raise StructuralError(
        f"unknown function {name!r}; pick one of {sorted(_BUILDERS)} or pow:q / const:v"
    )
