"""Small shared helpers."""

import numpy as np

# float64 values per working block of the quadrature oracle and the KS
# statistic (256 KB), which bounds their memory whatever the input size
BLOCK_VALUES = 1 << 15


def apply_scalar(x, func):
    """Evaluate an array function, preserving scalar in -> scalar out."""
    arr = np.asarray(x, dtype=float)
    out = func(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out
