"""Classical extreme value building blocks.

The standard univariate max-stable marginals (Frechet, Gumbel, reverse
Weibull), each its type up to an affine norming, bivariate dependence
through closed-form exponent measures, Poisson-maximum distribution
functions, and the three base laws of the convergence experiments.  Each base law G is its own attraction triple: it carries its
normed law ``normed(n)``, that of (X - b_n)/a_n, and its max-stable
``target`` H, and ``normed_base`` evaluates the normed survival on a grid.

A max-stable law H is represented through its exponent function
V(x) = mu([l, x]^c), so H(x) = exp(-V(x)) and coordinates below the lower
corner l yield exactly 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import apply_scalar
from .errors import ConfigurationError, DomainError

INDEPENDENCE = "independence"
COMPLETE_DEPENDENCE = "complete"
LOGISTIC = "logistic"


# ---------------------------------------------------------------------------
# Max-stable marginal types
# ---------------------------------------------------------------------------


class _Marginal:
    """A max-stable marginal H = exp(-v); ``cdf`` and ``ppf`` follow from ``v``/``vinv``.

    Every ``v`` maps NaN to NaN, so a NaN argument never reads as a probability.
    """

    def cdf(self, x):
        return apply_scalar(x, lambda z: np.exp(-self.v(z)))

    def ppf(self, u):
        with np.errstate(divide="ignore"):
            return self.vinv(-np.log(u))


@dataclass(frozen=True)
class Frechet(_Marginal):
    """Standard Frechet type: V(x) = x^(-alpha) above 0, +inf below."""

    alpha: float

    lower = 0.0
    grid = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

    def __post_init__(self):
        _check_positive("shape parameter", self.alpha)

    def v(self, x):
        def f(z):
            below = z <= 0.0
            # a placeholder 1 below 0, so the power raises no warning and z stays unwritten
            out = np.where(below, 1.0, z) ** -self.alpha
            out[below] = np.inf
            return out

        return apply_scalar(x, f)

    def vinv(self, w):
        def f(w):
            with np.errstate(divide="ignore"):
                return w ** (-1.0 / self.alpha)

        return apply_scalar(w, f)

    def norming(self, t):
        return _norming_scale(f"Frechet({self.alpha:g})", t, 1.0 / self.alpha), 0.0


@dataclass(frozen=True)
class Gumbel(_Marginal):
    """Standard Gumbel type: V(x) = exp(-x) on the whole line."""

    lower = -np.inf
    grid = (-1.0, 0.0, 1.0, 2.0, 4.0)

    def v(self, x):
        def f(z):
            with np.errstate(over="ignore"):
                return np.exp(-z)

        return apply_scalar(x, f)

    def vinv(self, w):
        def f(w):
            with np.errstate(divide="ignore"):
                return 0.0 - np.log(w)  # 0 - log(1) is +0, where -log(1) would be -0

        return apply_scalar(w, f)

    def norming(self, t):
        return 1.0, math.log(t)


@dataclass(frozen=True)
class ReverseWeibull(_Marginal):
    """Standard reverse Weibull type: V(x) = (-x)^alpha below 0, 0 above."""

    alpha: float

    lower = -np.inf
    grid = (-4.0, -2.0, -1.0, -0.5, -0.25)

    def __post_init__(self):
        _check_positive("shape parameter", self.alpha)

    def v(self, x):
        def f(z):
            w = -z
            w[w <= 0.0] = 0.0
            return w ** self.alpha

        return apply_scalar(x, f)

    def vinv(self, w):
        # 0 - w^(1/alpha) is +0 at w = 0, where -(w^(1/alpha)) would be -0
        return apply_scalar(w, lambda w: 0.0 - w ** (1.0 / self.alpha))

    def norming(self, t):
        return _norming_scale(f"reverse-Weibull({self.alpha:g})", t, -1.0 / self.alpha), 0.0


def _check_positive(what, value):
    if not 0.0 < value < np.inf:  # also rejects NaN
        raise ConfigurationError(f"{what} must be finite and positive, got {value}")


def _beyond_float_range(what):
    return DomainError(f"{what} beyond the float range (above {np.finfo(float).max:.6g})")


def _norming_scale(law, t, power):
    """The norming scale ``t ** power`` of ``law``, refused where it leaves the normal floats."""
    try:
        a = float(t) ** power
    except OverflowError:
        raise _beyond_float_range(f"{law} norming constant") from None
    if a < np.finfo(float).tiny:
        raise DomainError(
            f"{law} norming constant beyond the float range (below {np.finfo(float).tiny:.6g})"
        )
    return a


MARGINAL_TYPES = (Frechet, Gumbel, ReverseWeibull)


# ---------------------------------------------------------------------------
# Max-stable laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaxStableLaw:
    """A d-dimensional max-stable d.f. H(x) = exp(-V(x)).

    For d = 2 the dependence structure is one of three closed forms:
    independence V1 + V2, complete dependence max(V1, V2), or the logistic
    model (V1^(1/r) + V2^(1/r))^r, the last requiring standardized
    Frechet(1) marginals.
    """

    marginals: tuple
    dependence: str = INDEPENDENCE
    r: float = None

    def __post_init__(self):
        if not self.marginals:
            raise ConfigurationError("at least one marginal is required")
        for m in self.marginals:
            if not isinstance(m, MARGINAL_TYPES):
                raise ConfigurationError(f"unsupported marginal type: {m!r}")
        if self.dim == 1:
            if self.dependence != INDEPENDENCE:
                raise ConfigurationError("dependence applies only for dimension >= 2")
            return
        if self.dependence not in (INDEPENDENCE, COMPLETE_DEPENDENCE, LOGISTIC):
            raise ConfigurationError(f"unknown dependence: {self.dependence!r}")
        if self.dependence == LOGISTIC:
            if self.dim != 2:
                raise ConfigurationError("logistic dependence is bivariate only")
            if self.r is None or not 0.0 < self.r <= 1.0:
                raise ConfigurationError(
                    f"logistic dependence requires r in (0, 1], got {self.r}"
                )
            for m in self.marginals:
                if not (isinstance(m, Frechet) and m.alpha == 1.0):
                    raise ConfigurationError(
                        "logistic dependence requires standardized Frechet(1) marginals"
                    )

    @property
    def dim(self):
        return len(self.marginals)

    @property
    def lower(self):
        if self.dim == 1:
            return self.marginals[0].lower
        return np.array([m.lower for m in self.marginals])

    def v(self, x):
        """Exponent function V(x); x has the coordinate axis last when dim >= 2."""
        if self.dim == 1:
            return self.marginals[0].v(x)
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DomainError(
                f"expected points with last axis of length {self.dim}, got shape {x.shape}"
            )
        parts = np.stack(
            [np.atleast_1d(m.v(x[..., i])) for i, m in enumerate(self.marginals)],
            axis=-1,
        )
        if self.dependence == INDEPENDENCE:
            out = parts.sum(axis=-1)
        elif self.dependence == COMPLETE_DEPENDENCE:
            out = parts.max(axis=-1)
        else:
            out = (parts[..., 0] ** (1.0 / self.r) + parts[..., 1] ** (1.0 / self.r)) ** self.r
        return float(out[0]) if x.ndim == 1 else out

    def cdf(self, x):
        v = self.v(x)
        return float(np.exp(-v)) if np.isscalar(v) else np.exp(-v)


def univariate(marginal):
    """Wrap one marginal as a dimension-1 max-stable law."""
    return MaxStableLaw((marginal,))


def standard_points(law):
    """Default evaluation grid of a law: marginal grid, or its product for d = 2."""
    if law.dim == 1:
        return np.asarray(law.marginals[0].grid)
    if law.dim == 2:
        g0, g1 = (np.asarray(m.grid) for m in law.marginals)
        a, b = np.meshgrid(g0, g1, indexing="ij")
        return np.column_stack([a.ravel(), b.ravel()])
    raise ConfigurationError("standard grids are provided for dimensions 1 and 2 only")


def _finite_exponent(law, pts, name, what):
    """V of ``law`` (called ``name``) at ``pts``, the ``what`` grid; ``DomainError`` where not finite.

    A NaN grid point is refused by name, before V is read.  V is infinite
    by definition at a point on or below the lower end of the support;
    anywhere else an infinite V overflowed the floats.
    """
    if np.any(np.isnan(pts)):
        raise DomainError(f"{what} grid of the {name} holds a NaN point")
    with np.errstate(over="ignore"):  # an infinite V is refused below
        v = np.atleast_1d(law.v(pts))
    if not np.all(np.isfinite(v)):
        if np.any(pts <= law.lower):
            raise DomainError(f"{what} grid must lie inside the support of the {name}")
        raise _beyond_float_range(f"V of the {name} on its grid")
    return v


def grid_exponent(law, what, grid=None):
    """V of ``law`` on ``grid`` (``standard_points(law)`` when None), checked before any use.

    A grid point outside the support raises ``DomainError`` naming the grid
    by ``what``; a V that overflows on the grid raises the float-range one.
    """
    pts = standard_points(law) if grid is None else np.asarray(grid, dtype=float)
    return _finite_exponent(law, pts, "base law", what)


# ---------------------------------------------------------------------------
# Base laws, normed base laws and Poisson maxima
# ---------------------------------------------------------------------------

# A base law gives G (``cdf``), its survival quantile ``isf`` and its normed
# law ``normed(n)`` in closed form, so no point a_n x + b_n or raw maximum is formed.


@dataclass(frozen=True)
class NormedBase:
    """The law of (X - b_n)/a_n: a closed survival form ``survival`` and its inverse ``isf``."""

    survival: object
    isf: object

    def sf(self, x):
        with np.errstate(divide="ignore", over="ignore"):  # a form overflows to survival 1
            return apply_scalar(x, self.survival)


@dataclass(frozen=True)
class Pareto:
    """G(x) = 1 - x^(-alpha) on [1, inf); attracted to Frechet(alpha)."""

    alpha: float = 1.0

    def __post_init__(self):
        _check_positive("Pareto exponent", self.alpha)

    @property
    def name(self):
        return f"pareto({self.alpha:g})"

    def cdf(self, x):
        def f(z):
            out = np.zeros(z.shape)
            above = z >= 1.0
            out[above] = 1.0 - z[above] ** -self.alpha
            return out

        return apply_scalar(x, f)

    def isf(self, s):
        try:
            with np.errstate(over="raise"):
                return apply_scalar(s, lambda s: s ** (-1.0 / self.alpha))
        except FloatingPointError:
            raise _beyond_float_range(f"{self.name} quantile") from None

    def normed(self, n):
        return NormedBase(
            lambda z: np.minimum(np.where(z <= 0.0, 0.0, z) ** -self.alpha / n, 1.0),
            lambda s: self.isf(n * s),
        )

    @property
    def target(self):
        return Frechet(self.alpha)


@dataclass(frozen=True)
class UnitExponential:
    """G(x) = 1 - exp(-x) on [0, inf); attracted to Gumbel."""

    name = "exponential"

    def cdf(self, x):
        return apply_scalar(x, lambda z: np.where(z > 0.0, -np.expm1(-z), 0.0))

    def isf(self, s):
        return apply_scalar(s, lambda s: -np.log(s))

    def normed(self, n):
        return NormedBase(lambda z: np.minimum(np.exp(-z) / n, 1.0), lambda s: self.isf(n * s))

    target = Gumbel()


@dataclass(frozen=True)
class StdUniform:
    """G(x) = x on [0, 1]; attracted to the reverse Weibull of order 1."""

    name = "uniform"

    def cdf(self, x):
        return apply_scalar(x, lambda z: np.clip(z, 0.0, 1.0))

    def isf(self, s):
        return apply_scalar(s, lambda s: 1.0 - s)

    def normed(self, n):
        return NormedBase(lambda z: np.clip(-z / n, 0.0, 1.0), lambda s: -n * s)

    target = ReverseWeibull(1.0)


BASE_TYPES = (Pareto, UnitExponential, StdUniform)


def normed_base(base, n, grid=None):
    """``(S, V)`` on ``grid`` or the target's grid: S = 1 - G(a_n x + b_n) and V(x).

    S is the survival of ``base.normed(n)``, so it keeps its digits where G
    rounds to 1; V is the exponent of the target H = exp(-V).  A V that is
    not finite on the grid raises ``DomainError``, as in ``grid_exponent``.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > float(np.finfo(float).max):  # a Python int compares exactly
        raise _beyond_float_range("n")
    if not isinstance(base, BASE_TYPES):
        raise ConfigurationError(f"unsupported base law: {base!r}")
    pts = np.asarray(base.target.grid if grid is None else grid, dtype=float)
    v = _finite_exponent(base.target, pts, f"{base.name} limit law", "limit")
    return np.atleast_1d(base.normed(n).sf(pts)), v


def tail_gap(n, s, v):
    """sup |n S - V| of a normed survival S."""
    return float(np.abs(n * s - v).max())


def cdf_gap(n, s, v):
    """sup |(1 - S)^n - exp(-V)| of a normed survival S, in survival space."""
    with np.errstate(divide="ignore"):  # S = 1 below the support: (1 - S)^n = 0
        power = np.exp(n * np.log1p(-s))
    return float(np.abs(power - np.exp(-v)).max())


def doa_gap(base, n, grid=None):
    """Gaps (sup |n(1 - G(a_n x + b_n)) - V(x)|, sup |G^n(a_n x + b_n) - H(x)|) of ``base``."""
    s, v = normed_base(base, n, grid)
    return tail_gap(n, s, v), cdf_gap(n, s, v)


def standard_triple(name, alpha=1.0):
    """One of the shipped base laws by name; each carries its normed law and target."""
    key = name.lower()
    if key == "pareto":
        return Pareto(alpha)
    if key == "exponential":
        return UnitExponential()
    if key == "uniform":
        return StdUniform()
    raise ConfigurationError(
        f"unknown base law {name!r}; expected pareto, exponential, or uniform"
    )


@dataclass(frozen=True)
class PoissonMax:
    """The max-infinitely-divisible d.f. exp(-a (1 - G(x))) of a Poisson(a) maximum."""

    rate: float
    base: object

    def __post_init__(self):
        if self.rate <= 0.0:
            raise DomainError(f"Poisson rate must be positive, got {self.rate}")

    @property
    def dim(self):
        return 1

    def v(self, x):
        g = self.base.cdf(x)
        scaled = self.rate * (1.0 - np.asarray(g, dtype=float))
        return float(scaled) if np.isscalar(g) else scaled

    def cdf(self, x):
        v = self.v(x)
        return float(np.exp(-v)) if np.isscalar(v) else np.exp(-v)
