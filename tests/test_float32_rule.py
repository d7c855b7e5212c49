"""The one float32 rule, `tensors.check_float32`, and compress's one delta boundary.

A float a pack stores or a compose weight must be finite once cast to
float32: a value that rounds to the float32 maximum passes, one past it
(1e39) overflows and is refused, as are NaN and the infinities. Entry
fields, compose weights and compress deltas of every class use the one
check, so every module class makes the same decision on a delta, and every
ValueError compress raises starts with the delta's name.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillpack.classify import ModuleClass
from skillpack.compress import compress_entry
from skillpack.plans import default_plan
from skillpack.tensors import check_float32

FLOAT32_MAX = float(np.finfo(np.float32).max)
JUST_PAST = float(np.nextafter(FLOAT32_MAX, np.inf))  # a float64 that rounds to FLOAT32_MAX in float32
SPECIAL = [np.nan, np.inf, -np.inf, 1e39, JUST_PAST]
PLAN = default_plan()


def test_check_float32_states_the_rule():
    a = np.ones(3, np.float32)
    assert check_float32(a, "x") is a
    assert check_float32(np.array([JUST_PAST, -JUST_PAST]), "x").tolist() == [FLOAT32_MAX, -FLOAT32_MAX]
    assert check_float32(2.5, "x").dtype == np.float32
    for value in (np.nan, np.inf, -np.inf, 1e39, -1e39):
        with pytest.raises(ValueError, match=re.escape("x must be finite in float32")):
            check_float32(np.array([1.0, value]), "x")


@st.composite
def deltas(draw):
    """A delta of a drawn dtype and shape: values in [-4, 4], with at most one of SPECIAL at a drawn
    place (two values near the float32 maximum can give a singular value past it)."""
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from([(n,), (1, n), (draw(st.integers(2, 5)), n)]))
    size = int(np.prod(shape))
    values = np.array(draw(st.lists(st.floats(-4, 4), min_size=size, max_size=size)))
    special = draw(st.sampled_from([None, *SPECIAL]))
    if special is not None:
        values[draw(st.integers(0, size - 1))] = special
    with np.errstate(over="ignore"):  # 1e39 and JUST_PAST overflow float16
        return values.reshape(shape).astype(dtype)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(delta=deltas())
@example(delta=np.array([[JUST_PAST, 1.0]]))  # was stored dense, refused pruned or factored
@example(delta=np.array([[np.nan, 1.0]], np.float32))  # a pruned one's error did not name the delta
def test_every_class_makes_the_float32_rules_decision_and_names_the_delta(delta):
    with np.errstate(over="ignore"):
        finite = bool(np.isfinite(delta.astype(np.float32)).all())
    for mclass in ModuleClass:
        try:
            compress_entry("w", delta, mclass, PLAN)
        except ValueError as exc:
            assert not finite, f"{mclass.value} refused a delta finite in float32: {exc}"
            assert str(exc).startswith("delta 'w'"), f"{mclass.value}: {exc}"
        else:
            assert finite, f"{mclass.value} stored a delta not finite in float32"
