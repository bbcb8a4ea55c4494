"""Reference forms of the library's objects that only the tests use.

The library reaches the p.g.f. through each family's closed-form
``pgf_sf``, samples by survival inversion (``isf``), evaluates laws through
``v``/``cdf`` and writes tables through ``Table.csv_blocks``.  The functions
here are the direct forms those replace: the p.g.f. through the transform,
``phi(phi^{-1}(1 - s)/theta)`` at the survival s or at ``u = 1 - s``, base
draws by quantile inversion and the slow max-of-N construction, a
marginal's quantile ``vinv(-log u)``, the mean of a count, the extremal
marginal ``exp(-t V)`` and each path's state at the horizon, a law's
max-stability norming, the KS statistic in one pass of absolute
deviations, the CSV text in one string, and Kanter's positive-stable
sampler, from which ``E^(1/nu) * S`` builds the Mittag-Leffler mixer the
slow way.  Tests compare the library against them.
"""

from fractions import Fraction

import numpy as np

from randmax import (
    ConfigurationError,
    Degenerate,
    DomainError,
    Geometric,
    MittagLeffler,
    Pareto,
    StdUniform,
    UnitExponential,
)
from randmax._util import apply_scalar, in_floats
from randmax.streams import open_exponential, open_uniform


def pgf_sf(family, theta, s):
    """P_theta(1 - s) = phi(phi^{-1}(1 - s)/theta) through the transform, for s in [0, 1]."""
    family.validate_theta(theta)

    def route(s):
        if np.any(s < 0.0) or np.any(s > 1.0):
            raise DomainError("p.g.f. argument must lie in [0, 1]")
        out = np.full_like(s, np.nan)  # NaN stays NaN
        out[s == 0.0] = 1.0
        out[s == 1.0] = 0.0
        inner = (s > 0.0) & (s < 1.0)
        with np.errstate(over="ignore"):  # a quotient beyond the floats is inf, where phi is 0
            out[inner] = family.lt(family.lt_inv_sf(s[inner]) / theta)
        return out

    return apply_scalar(s, route)


def pgf(family, theta, u):
    """P_theta(u) = phi(phi^{-1}(u)/theta) on [0, 1], as ``pgf_sf`` at ``1 - u``."""
    return pgf_sf(family, theta, np.subtract(1.0, u))


def scheme_pgf(scheme, u):
    """The p.g.f. of the count N_theta of ``scheme`` at ``u``."""
    return pgf(scheme.family, scheme.theta, u)


_COUNT_MEAN = {
    Geometric: lambda family, theta: 1.0 / theta,
    MittagLeffler: lambda family, theta: theta**-family.nu,
    Degenerate: lambda family, theta: float(_degenerate_count(theta)),
}


def _degenerate_count(theta):
    """The integer a decimal theta names (1e-18 names 10^18), else the one nearest 1/theta exactly."""
    q = 1 / Fraction(repr(float(theta)))
    return q.numerator if q.denominator == 1 else round(1 / Fraction(theta))


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


def ks_distance_abs(sample, cdf):
    """The one-sample KS statistic over the whole sample at once, in absolute values:
    max over i of max(|i/n - F(x_i)|, |(i-1)/n - F(x_i)|)."""
    n = sample.size
    f = np.asarray(cdf(sample), dtype=float)
    i = np.arange(1, n + 1)
    return float(np.maximum(np.abs(i / n - f).max(), np.abs((i - 1) / n - f).max()))


def csv_text(table):
    """The whole CSV text of ``table``, as ``emit_csv`` writes it."""
    return b"".join(table.csv_blocks()).decode("utf-8")


def sample_positive_stable(nu, rng, size):
    """Draw a positive nu-stable variable with Laplace transform exp(-s^nu).

    Kanter's construction (Kanter 1975; Chambers, Mallows and Stuck 1976):
    with W uniform on (0, pi) and E a unit exponential,
    ``sin(nu W) / sin(W)^(1/nu) * (sin((1-nu) W) / E)^((1-nu)/nu)``.  This
    product form equals ``(a(W)/E)^((1-nu)/nu)`` with
    ``a(w) = (sin(nu w)^nu sin((1-nu) w)^(1-nu) / sin(w))^(1/(1-nu))``, but
    forms no ``a(W)``, which overflows for nu near 1.
    """
    if not 0.0 < nu < 1.0:
        raise ConfigurationError(f"stable order must be in (0, 1), got {nu}")
    w = np.pi * open_uniform(rng, size)  # W = 0 would give sin(0)/sin(0)
    e = open_exponential(rng, size)
    # an overflow, a division by 0 and inf * 0 leave the floats, and are refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        draws = np.sin(nu * w) / np.sin(w) ** (1.0 / nu) * (
            np.sin((1.0 - nu) * w) / e
        ) ** ((1.0 - nu) / nu)
    return in_floats(draws, f"positive {nu:g}-stable draw")
