"""Reference forms of the library's objects that only the tests use.

The library reaches the p.g.f. through ``pgf_sf``, samples by survival
inversion (``isf``), evaluates laws through ``v``/``cdf`` and writes
tables through ``Table.csv_blocks``.  The functions here are the direct
forms those replace: the p.g.f. at ``u`` rather than at the survival
``1 - u``, base draws by quantile inversion and the slow max-of-N
construction, a marginal's quantile ``vinv(-log u)``, the mean of a count,
the extremal marginal ``exp(-t V)`` and each path's state at the horizon,
a law's max-stability norming, and the CSV text in one string.  Tests
compare the library against them.
"""

import numpy as np

from randmax import (
    Degenerate,
    DomainError,
    Geometric,
    MittagLeffler,
    Pareto,
    StdUniform,
    UnitExponential,
)
from randmax._util import apply_scalar


def pgf(family, theta, u):
    """P_theta(u) = phi(phi^{-1}(u)/theta) on [0, 1], as ``pgf_sf(theta, 1 - u)``."""
    return family.pgf_sf(theta, np.subtract(1.0, u))


def scheme_pgf(scheme, u):
    """The p.g.f. of the count N_theta of ``scheme`` at ``u``."""
    return pgf(scheme.family, scheme.theta, u)


_COUNT_MEAN = {
    Geometric: lambda family, theta: 1.0 / theta,
    MittagLeffler: lambda family, theta: theta**-family.nu,
    Degenerate: lambda family, theta: float(int(round(1.0 / theta))),
}


def count_mean(family, theta):
    """The mean of N_theta of ``family``."""
    family.validate_theta(theta)
    return _COUNT_MEAN[type(family)](family, theta)


_PPF = {
    Pareto: lambda base, u: base.isf(1.0 - np.asarray(u, dtype=float)),
    UnitExponential: lambda base, u: apply_scalar(u, lambda u: -np.log1p(-u)),
    StdUniform: lambda base, u: apply_scalar(u, lambda u: u),
}


def ppf(base, u):
    """The quantile G^{-1}(u) of a base law."""
    return _PPF[type(base)](base, u)


def marginal_ppf(marginal, u):
    """The quantile H^{-1}(u) = vinv(-log u) of a max-stable marginal."""
    with np.errstate(divide="ignore"):
        return marginal.vinv(-np.log(u))


def sample_base(base, rng, size):
    """``size`` inversion draws from a base d.f. (or a tuple of bases, one per axis)."""
    if isinstance(base, tuple):
        u = rng.random((size, len(base)))
        return np.column_stack([ppf(b, u[:, i]) for i, b in enumerate(base)])
    return ppf(base, rng.random(size))


def marginal_cdf(law, t, x):
    """P(Y(t) <= x) = exp(-t V(x)) for the extremal process driven by ``law``."""
    t = float(t)
    if not t > 0.0:
        raise DomainError(f"time must be positive, got {t}")
    v = law.v(x)
    return float(np.exp(-t * v)) if np.isscalar(v) else np.exp(-t * v)


def final_states(paths):
    """Each path's state at the horizon; the floor marks an unresolved (no-jump) path."""
    finals = np.full(len(paths.counts), paths.floor)
    jumped = paths.counts > 0
    finals[jumped] = paths.states[np.cumsum(paths.counts)[jumped] - 1]
    return finals


def norming(law, t):
    """Per-coordinate (A_t, B_t) with H^t(A_t x + B_t) = H(x) for a max-stable ``law``."""
    pairs = [m.norming(t) for m in law.marginals]
    if law.dim == 1:
        return pairs[0]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def csv_text(table):
    """The whole CSV text of ``table``, as ``emit_csv`` writes it."""
    return b"".join(table.csv_blocks()).decode("utf-8")
