import warnings

import numpy as np
import pytest

from randmax import DomainError
from randmax._util import EPS, MAX, TINY, in_floats

RANGE = "x lies beyond the float range (outside [{}, 1.79769e+308])"


def test_limits_are_python_floats_that_compare_ints_exactly():
    assert all(type(c) is float for c in (TINY, MAX, EPS))
    assert (TINY, MAX, EPS) == (2.0**-1022, np.finfo(float).max, 2.0**-52)
    assert 10**400 > MAX and not 2**1023 > MAX  # a numpy scalar would overflow converting 10**400


@pytest.mark.parametrize("x, low", [
    (np.nan, TINY),
    (np.array([1.0, np.nan]), TINY),
    (np.inf, TINY),
    (np.array([-np.inf, 1.0]), -MAX),
    (np.array([1.0, np.inf]), -MAX),
    (5e-324, TINY),  # subnormal
    (np.array([TINY, TINY / 2]), TINY),
    (0.0, TINY),
    (-1.0, TINY),
    (np.array([np.nan]), -MAX),
], ids=["nan", "nan-in-array", "inf", "-inf", "inf-at-low-max", "subnormal", "subnormal-in-array",
        "zero", "negative", "nan-at-low-max"])
def test_values_beyond_the_range_are_refused_without_a_warning(x, low):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError) as info:
            in_floats(x, "x", low=low)
    assert str(info.value) == RANGE.format(f"{low:.6g}")
    assert not caught


@pytest.mark.parametrize("x, low", [
    (np.array([TINY, 1.0, MAX]), TINY),
    (1.0, TINY),
    (np.array([0.0, -1.0, -MAX, MAX]), -MAX),
    (0.0, -MAX),
    (-MAX, -MAX),
    (0.0, 0.0),
    (np.array([]), TINY),
    (np.empty((0, 2)), -MAX),
], ids=["bounds", "scalar", "zero-and-negatives", "zero", "-max", "zero-at-low-0", "empty",
        "empty-2d"])
def test_values_inside_the_range_are_returned_as_given(x, low):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert in_floats(x, "x", low=low) is x
    assert not caught
