"""Classical extreme value building blocks.

Univariate max-stable marginal types (Frechet, Gumbel, reverse Weibull),
bivariate dependence through closed-form exponent measures, Poisson-maximum
distribution functions, and the three attraction triples (base law plus
norming sequences plus max-stable target) used by the convergence
experiments.

A max-stable law H is represented through its exponent function
V(x) = mu([l, x]^c), so H(x) = exp(-V(x)) and coordinates below the lower
corner l yield exactly 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import apply_scalar
from .errors import ConfigurationError, DomainError
from .streams import as_generator

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
    """Frechet type: V(x) = ((x - loc)/scale)^(-alpha) above loc, +inf below."""

    alpha: float
    loc: float = 0.0
    scale: float = 1.0

    grid = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

    def __post_init__(self):
        _check_marginal(self.alpha, self.scale)

    @property
    def lower(self):
        return self.loc

    def v(self, x):
        def f(z):
            z = (z - self.loc) / self.scale
            below = z <= 0.0
            z[below] = 1.0  # placeholder, so the power raises no warning
            out = z ** -self.alpha
            out[below] = np.inf
            return out

        return apply_scalar(x, f)

    def vinv(self, w):
        def f(w):
            with np.errstate(divide="ignore"):
                return self.loc + self.scale * w ** (-1.0 / self.alpha)

        return apply_scalar(w, f)

    def norming(self, t):
        a = t ** (1.0 / self.alpha)
        return a, self.loc * (1.0 - a)


@dataclass(frozen=True)
class Gumbel(_Marginal):
    """Gumbel type: V(x) = exp(-(x - loc)/scale) on the whole line."""

    loc: float = 0.0
    scale: float = 1.0

    grid = (-1.0, 0.0, 1.0, 2.0, 4.0)

    def __post_init__(self):
        _check_marginal(1.0, self.scale)

    @property
    def lower(self):
        return -np.inf

    def v(self, x):
        def f(z):
            with np.errstate(over="ignore"):
                return np.exp(-(z - self.loc) / self.scale)

        return apply_scalar(x, f)

    def vinv(self, w):
        def f(w):
            with np.errstate(divide="ignore"):
                return self.loc - self.scale * np.log(w)

        return apply_scalar(w, f)

    def norming(self, t):
        return 1.0, self.scale * math.log(t)


@dataclass(frozen=True)
class ReverseWeibull(_Marginal):
    """Reverse Weibull type: V(x) = ((loc - x)/scale)^alpha below loc, 0 above."""

    alpha: float
    loc: float = 0.0
    scale: float = 1.0

    grid = (-4.0, -2.0, -1.0, -0.5, -0.25)

    def __post_init__(self):
        _check_marginal(self.alpha, self.scale)

    @property
    def lower(self):
        return -np.inf

    def v(self, x):
        def f(z):
            w = (self.loc - z) / self.scale
            w[w <= 0.0] = 0.0
            return w ** self.alpha

        return apply_scalar(x, f)

    def vinv(self, w):
        return apply_scalar(w, lambda w: self.loc - self.scale * w ** (1.0 / self.alpha))

    def norming(self, t):
        a = t ** (-1.0 / self.alpha)
        return a, self.loc * (1.0 - a)


def _check_positive(what, value):
    if not 0.0 < value < np.inf:  # also rejects NaN
        raise ConfigurationError(f"{what} must be finite and positive, got {value}")


def _check_marginal(alpha, scale):
    _check_positive("shape parameter", alpha)
    _check_positive("scale", scale)


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
                if not (
                    isinstance(m, Frechet)
                    and m.alpha == 1.0
                    and m.loc == 0.0
                    and m.scale == 1.0
                ):
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

    def norming(self, t):
        """Per-coordinate (A_t, B_t) with H^t(A_t x + B_t) = H(x)."""
        pairs = [m.norming(t) for m in self.marginals]
        if self.dim == 1:
            return pairs[0]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


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


# ---------------------------------------------------------------------------
# Base distributions and Poisson maxima
# ---------------------------------------------------------------------------

# A base law inverts both G (``ppf``) and its survival 1 - G (``isf``); the
# latter stays exact for survivals far below the float spacing near 1.


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

    def ppf(self, u):
        return self.isf(1.0 - np.asarray(u, dtype=float))

    def isf(self, s):
        try:
            with np.errstate(over="raise"):
                return apply_scalar(s, lambda s: s ** (-1.0 / self.alpha))
        except FloatingPointError:
            raise DomainError(
                f"{self.name} quantile beyond the float range (above {np.finfo(float).max:.6g})"
            ) from None

    def norming(self, n):
        return n ** (1.0 / self.alpha), 0.0

    def target(self):
        return Frechet(self.alpha)


@dataclass(frozen=True)
class UnitExponential:
    """G(x) = 1 - exp(-x) on [0, inf); attracted to Gumbel."""

    name = "exponential"

    def cdf(self, x):
        return apply_scalar(x, lambda z: np.where(z > 0.0, -np.expm1(-z), 0.0))

    def ppf(self, u):
        return apply_scalar(u, lambda u: -np.log1p(-u))

    def isf(self, s):
        return apply_scalar(s, lambda s: -np.log(s))

    def norming(self, n):
        return 1.0, math.log(n)

    def target(self):
        return Gumbel()


@dataclass(frozen=True)
class StdUniform:
    """G(x) = x on [0, 1]; attracted to the reverse Weibull of order 1."""

    name = "uniform"

    def cdf(self, x):
        return apply_scalar(x, lambda z: np.clip(z, 0.0, 1.0))

    def ppf(self, u):
        return apply_scalar(u, lambda u: u)

    def isf(self, s):
        return apply_scalar(s, lambda s: 1.0 - s)

    def norming(self, n):
        return 1.0 / n, 1.0

    def target(self):
        return ReverseWeibull(1.0, loc=0.0)


BASE_TYPES = (Pareto, UnitExponential, StdUniform)


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


def sample_base(base, rng, size=None):
    """Inversion sampling from a base d.f. (or a tuple of bases, one per axis)."""
    rng = as_generator(rng)
    if isinstance(base, tuple):
        u = rng.random((size if size is not None else 1, len(base)))
        out = np.column_stack([b.ppf(u[:, i]) for i, b in enumerate(base)])
        return out[0] if size is None else out
    return base.ppf(rng.random(size))


# ---------------------------------------------------------------------------
# Attraction triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttractionTriple:
    """A base d.f. G, its closed-form norming, and the max-stable target H."""

    base: object
    target: object = field(init=False, default=None)

    def __post_init__(self):
        if not isinstance(self.base, BASE_TYPES):
            raise ConfigurationError(f"unsupported base law: {self.base!r}")
        object.__setattr__(self, "target", self.base.target())

    @property
    def name(self):
        return self.base.name

    @property
    def law(self):
        return univariate(self.target)

    def norming(self, n):
        return self.base.norming(n)


def doa_gap(triple, n, grid=None):
    """Gaps (sup |n(1 - G(a_n x + b_n)) - V(x)|, sup |G^n(a_n x + b_n) - H(x)|)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    target = triple.target
    pts = np.asarray(target.grid if grid is None else grid, dtype=float)
    a, b = triple.norming(n)
    g = np.atleast_1d(triple.base.cdf(a * pts + b))
    v = np.atleast_1d(target.v(pts))
    tail = float(np.abs(n * (1.0 - g) - v).max())
    cdf = float(np.abs(g**n - np.exp(-v)).max())
    return tail, cdf


def standard_triple(name, alpha=1.0):
    """Construct one of the shipped attraction triples by name."""
    key = name.lower()
    if key == "pareto":
        return AttractionTriple(Pareto(alpha))
    if key == "exponential":
        return AttractionTriple(UnitExponential())
    if key == "uniform":
        return AttractionTriple(StdUniform())
    raise ConfigurationError(
        f"unknown base law {name!r}; expected pareto, exponential, or uniform"
    )
