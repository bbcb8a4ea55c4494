"""Small shared helpers, and the one rule for values beyond the float range."""

import numpy as np

from .errors import DomainError

# float64 values per working block of the quadrature oracle and the KS
# statistic (256 KB), which bounds their memory whatever the input size
BLOCK_VALUES = 1 << 15

# Python floats, so that a Python int compared with them compares exactly
TINY = float(np.finfo(float).tiny)  # the smallest normal float
MAX = float(np.finfo(float).max)
EPS = float(np.finfo(float).eps)


def apply_scalar(x, func):
    """Evaluate an array function, preserving scalar in -> scalar out."""
    arr = np.asarray(x, dtype=float)
    out = func(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def in_floats(x, what, low=TINY):
    """``x``; ``DomainError`` where a value lies outside [low, MAX] (NaN fails, empty passes)."""
    arr = np.asarray(x)
    if not (arr.min(initial=MAX) >= low and arr.max(initial=low) <= MAX):
        raise DomainError(f"{what} lies beyond the float range (outside [{low:.6g}, {MAX:.6g}])")
    return x
