"""ScalarFunction certification and lookup."""

import numpy as np
import pytest

from funmlab import DomainError, ScalarFunction, StructuralError, scalar_function_by_name
from funmlab.functions import evaluate_scalar


class TestScalarFunction:
    def test_bound_checked_against_grid(self):
        # sup |exp| on [0, 1] is e; a bound below that must be rejected
        with pytest.raises(StructuralError):
            ScalarFunction("exp", np.exp, bound=2.0, interval=(0.0, 1.0))
        ok = ScalarFunction("exp", np.exp, bound=np.e, interval=(0.0, 1.0))
        assert ok.bound == np.e

    def test_bound_requires_interval(self):
        with pytest.raises(StructuralError):
            ScalarFunction("exp", np.exp, bound=1.0)

    def test_nonfinite_evaluation_names_point(self):
        f = scalar_function_by_name("inv")
        with pytest.raises(DomainError, match="0.0"):
            f.evaluate(np.array([1.0, 0.0]))

    def test_bare_callable_nonfinite_names_point(self):
        with pytest.raises(DomainError, match="not finite at .*2.5"):
            evaluate_scalar(lambda x: np.where(x > 2.0, np.inf, x), np.array([1.0, 2.5, 3.0]))

    def test_vectorized_evaluation(self):
        f = scalar_function_by_name("exp")
        np.testing.assert_allclose(f(np.array([0.0, 1.0])), [1.0, np.e])

    def test_registry_names(self):
        for name in ("identity", "exp", "sqrt", "inv", "log"):
            assert scalar_function_by_name(name).name == name
        assert scalar_function_by_name("pow:3")(np.array([2.0]))[0] == 8.0
        assert scalar_function_by_name("const:2.5")(np.array([9.0]))[0] == 2.5
        with pytest.raises(StructuralError):
            scalar_function_by_name("nope")
