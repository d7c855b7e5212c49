"""The one matrix rule, `tensors.check_matrix`.

Every function that takes a matrix requires it 2-D with every float finite,
and refuses anything else with a ValueError naming the argument before any
work: never a numpy warning, garbage codes or another exception.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillpack.quantize import hessian_factor, quantize_gptq, quantize_rtn
from skillpack.routing import LinearClassifier, RouterTrainingSet
from skillpack.tensors import check_matrix, magnitude_prune, svd

# site -> (call on the drawn array, the name its errors give that array)
SITES = {
    "svd": (svd, "svd input"),
    "magnitude_prune": (lambda a: magnitude_prune(a, 0.5), "prune input"),
    "quantize_rtn": (lambda a: quantize_rtn(a, 4), "quantizer input"),
    "quantize_gptq.m": (lambda a: quantize_gptq(a, np.ones((4, 8)), 4), "quantizer input"),
    "quantize_gptq.x": (lambda a: quantize_gptq(np.ones((3, 4)), a, 4), "calibration activations"),
    "hessian_factor": (hessian_factor, "calibration activations"),
    "RouterTrainingSet.features": (lambda a: RouterTrainingSet(a, np.eye(2), ["a", "b"]), "training features"),
    "RouterTrainingSet.losses": (lambda a: RouterTrainingSet(np.eye(2), a, ["a", "b"]), "training losses"),
    "LinearClassifier.weights": (lambda a: LinearClassifier(a, np.zeros(2), ["a", "b"]), "classifier weights"),
}
SLICE = 1 << 16  # `all_finite` tests this many values at a time


@st.composite
def bad_arrays(draw):
    """(array, the error it must raise): an array that is not 2-D, or a 2-D
    one with one NaN or infinity, placed past the first slice of `all_finite`
    in the largest shape."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    ndim = draw(st.sampled_from([0, 1, 2, 3]))
    if ndim != 2:
        shape = tuple(draw(st.integers(1, 3)) for _ in range(ndim))
        return np.ones(shape, dtype), f"must be a 2-D matrix, got shape {shape}"
    rows, cols = draw(st.sampled_from([(1, 1), (3, 4), (5, 2), (300, 256)]))
    a = np.ones((rows, cols), dtype)
    first = SLICE if a.size > SLICE else 0
    a.reshape(-1)[draw(st.integers(first, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return (a.T if draw(st.booleans()) else a), "contains non-finite values"


@settings(max_examples=90, derandomize=True, deadline=None, database=None)
@given(site=st.sampled_from(sorted(SITES)), bad=bad_arrays())
def test_every_matrix_input_refuses_a_bad_array_naming_it(site, bad):
    call, name = SITES[site]
    array, message = bad
    with pytest.raises(ValueError, match=re.escape(f"{name} {message}")):
        call(array)


def test_check_matrix_returns_the_array_it_checked():
    a = np.ones((2, 3), np.float32)
    assert check_matrix(a, "a") is a
    assert check_matrix([[1, 2]], "a").shape == (1, 2)


def test_quantize_rtn_refuses_a_nan():
    m = np.ones((3, 4))
    m[1, 2] = np.nan
    with pytest.raises(ValueError, match="quantizer input contains non-finite values"):
        quantize_rtn(m, 4)


def test_quantize_gptq_refuses_infinite_activations():
    with pytest.raises(ValueError, match="calibration activations contains non-finite values"):
        quantize_gptq(np.ones((3, 4)), np.full((4, 8), np.inf), 4)


def test_hessian_factor_refuses_a_nan():
    x = np.random.default_rng(0).standard_normal((4, 8))
    x[2, 5] = np.nan
    with pytest.raises(ValueError, match="calibration activations contains non-finite values"):
        hessian_factor(x)
