"""Classical extreme value building blocks.

The standard univariate max-stable marginals (Frechet, Gumbel, reverse
Weibull), each its type up to an affine norming and each evaluated on the
grid where V takes a fixed set of levels, bivariate dependence through
closed-form exponent measures, Poisson-maximum distribution functions,
and the three base laws of the convergence experiments.  Each base law G
is its own attraction triple: it carries its normed law ``normed(n)``,
that of (X - b_n)/a_n, and its max-stable ``target`` H, and
``normed_base`` evaluates the normed survival on the target's grid.

A max-stable law H is represented through its exponent function
V(x) = mu([l, x]^c), so H(x) = exp(-V(x)) and coordinates below the lower
corner l yield exactly 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import MAX, TINY, apply_scalar, in_floats
from .errors import ConfigurationError, DomainError

INDEPENDENCE = "independence"
COMPLETE_DEPENDENCE = "complete"
LOGISTIC = "logistic"


# ---------------------------------------------------------------------------
# Max-stable marginal types
# ---------------------------------------------------------------------------


class _Marginal:
    """A max-stable marginal H = exp(-v); ``cdf`` and ``grid`` follow from ``v`` and ``vinv``.

    Every ``v`` maps NaN to NaN, so a NaN argument never reads as a probability.
    """

    def cdf(self, x):
        return apply_scalar(x, lambda z: np.exp(-self.v(z)))

    @property
    def grid(self):
        """The points ``vinv(levels)``; each must be 0 or a normal float, above the one before."""
        with np.errstate(all="ignore"):  # an overflow or underflow is refused below
            x = self.vinv(self.levels)
        normal = (np.abs(x) >= TINY) & (np.abs(x) < np.inf)
        if not (np.all(normal | (x == 0.0)) and np.all(x[1:] > x[:-1])):
            raise DomainError(
                f"the grid of {self} lies beyond the float range: "
                "its points must be strictly increasing normal floats"
            )
        return x


@dataclass(frozen=True)
class Frechet(_Marginal):
    """Standard Frechet type: V(x) = x^(-alpha) above 0, +inf below."""

    alpha: float

    levels = (4.0, 2.0, 1.0, 0.5, 0.25, 0.125)

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

    levels = tuple(math.exp(-x) for x in (-1.0, 0.0, 1.0, 2.0, 4.0))

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

    levels = (4.0, 2.0, 1.0, 0.5, 0.25)

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


def _norming_scale(law, t, power):
    """The norming scale ``t ** power`` of ``law``, refused where it leaves the normal floats."""
    with np.errstate(over="ignore"):
        return float(in_floats(np.power(float(t), power), f"{law} norming constant"))


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
        return law.marginals[0].grid
    if law.dim == 2:
        g0, g1 = (m.grid for m in law.marginals)
        a, b = np.meshgrid(g0, g1, indexing="ij")
        return np.column_stack([a.ravel(), b.ravel()])
    raise ConfigurationError("standard grids are provided for dimensions 1 and 2 only")


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
        with np.errstate(over="ignore"):
            x = apply_scalar(s, lambda s: s ** (-1.0 / self.alpha))
        # a normed quantile isf(n s) at n s > 1 may underflow to 0, the target's lower corner
        return in_floats(x, f"{self.name} quantile", low=0.0)

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


def normed_base(base, n):
    """``(S, V)`` on the target's grid: S = 1 - G(a_n x + b_n) and V(x).

    S is the survival of ``base.normed(n)``, so it keeps its digits where G
    rounds to 1; V is the exponent of the target H = exp(-V).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > MAX:  # a Python int compares exactly
        raise DomainError(f"n beyond the float range (above {MAX:.6g})")
    if not isinstance(base, BASE_TYPES):
        raise ConfigurationError(f"unsupported base law: {base!r}")
    pts = base.target.grid
    return base.normed(n).sf(pts), base.target.v(pts)


def tail_gap(n, s, v):
    """sup |n S - V| of a normed survival S."""
    return float(np.abs(n * s - v).max())


def cdf_gap(n, s, v):
    """sup |(1 - S)^n - exp(-V)| of a normed survival S, in survival space."""
    with np.errstate(divide="ignore"):  # S = 1 below the support: (1 - S)^n = 0
        power = np.exp(n * np.log1p(-s))
    return float(np.abs(power - np.exp(-v)).max())


def doa_gap(base, n):
    """Gaps (sup |n(1 - G(a_n x + b_n)) - V(x)|, sup |G^n(a_n x + b_n) - H(x)|) of ``base``."""
    s, v = normed_base(base, n)
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

    def v(self, x):
        g = self.base.cdf(x)
        scaled = self.rate * (1.0 - np.asarray(g, dtype=float))
        return float(scaled) if np.isscalar(g) else scaled

    def cdf(self, x):
        v = self.v(x)
        return float(np.exp(-v)) if np.isscalar(v) else np.exp(-v)
