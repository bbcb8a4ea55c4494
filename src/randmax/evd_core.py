"""Classical extreme value building blocks.

The standard univariate max-stable marginals (Frechet, Gumbel, reverse
Weibull), each its type up to an affine norming and each evaluated on the
grid where V takes a fixed set of levels, bivariate dependence through
closed-form exponent measures, Poisson-maximum distribution functions,
and the base laws of the convergence experiments.  Each base law G is the
generalized Pareto law of its max-stable ``target`` H = exp(-V),
1 - G(x) = min(V(x - b), 1) with b = 0, 0, 1 for the Pareto, exponential
and uniform laws (Balkema and de Haan 1974; Pickands 1975).  So it is its
own attraction triple: its normed law ``normed(n)``, that of
(X - b_n)/a_n, has survival min(V/n, 1) and quantile vinv(n s), and
``normed_base`` evaluates that survival on the target's grid.

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


class _ExponentLaw:
    """A d.f. exp(-v); every ``v`` maps NaN to NaN, so a NaN never reads as a probability."""

    def cdf(self, x):
        v = self.v(x)
        return float(np.exp(-v)) if np.isscalar(v) else np.exp(-v)


class _Marginal(_ExponentLaw):
    """A max-stable marginal H = exp(-v); ``cdf`` and ``grid`` follow from ``v`` and ``vinv``."""

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
class MaxStableLaw(_ExponentLaw):
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
# Base laws and Poisson maxima
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseLaw:
    """The generalized Pareto law 1 - G(x) = min(V(x - shift)/n, 1) of a target H = exp(-V).

    At n = 1 it is attracted to ``target``, and ``normed(n)``, the law of
    (X - b_n)/a_n, has survival min(V/n, 1) and quantile ``vinv(n s)``, so
    no point a_n x + b_n is formed and the survival keeps its digits where G
    rounds to 1.
    """

    name: str
    target: object
    shift: float = 0.0
    n: int = 1

    def sf(self, x):
        def f(z):
            with np.errstate(divide="ignore", over="ignore"):  # V overflows to survival 1
                return np.minimum(self.target.v(z - self.shift) / self.n, 1.0)

        return apply_scalar(x, f)

    def cdf(self, x):
        return 1.0 - self.sf(x)

    def isf(self, s):
        # the index and shift apply only where they act; no vinv returns -0, so 0 + x changes no bit
        with np.errstate(over="ignore"):  # an overflow is refused below
            x = self.target.vinv(s if self.n == 1 else self.n * s)
        return in_floats(x + self.shift if self.shift else x, f"{self.name} quantile", low=-MAX)

    def normed(self, n):
        return BaseLaw(self.name, self.target, 0.0, n)


class Pareto(BaseLaw):
    """G(x) = 1 - x^(-alpha) on [1, inf); attracted to Frechet(alpha)."""

    def __init__(self, alpha=1.0):
        _check_positive("Pareto exponent", alpha)
        super().__init__(f"pareto({alpha:g})", Frechet(alpha))


class UnitExponential(BaseLaw):
    """G(x) = 1 - exp(-x) on [0, inf); attracted to Gumbel."""

    def __init__(self):
        super().__init__("exponential", Gumbel())


class StdUniform(BaseLaw):
    """G(x) = x on [0, 1]; attracted to the reverse Weibull of order 1."""

    def __init__(self):
        super().__init__("uniform", ReverseWeibull(1.0), 1.0)


def normed_base(base, n):
    """``(S, V)`` on the target's grid: S = 1 - G(a_n x + b_n) and V(x).

    S is the survival of ``base.normed(n)``, so it keeps its digits where G
    rounds to 1; V is the exponent of the target H = exp(-V).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > MAX:  # a Python int compares exactly
        raise DomainError(f"n beyond the float range (above {MAX:.6g})")
    if not isinstance(base, BaseLaw):
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
class PoissonMax(_ExponentLaw):
    """The max-infinitely-divisible d.f. exp(-a (1 - G(x))) of a Poisson(a) maximum."""

    rate: float
    base: object

    def __post_init__(self):
        if not 0.0 < self.rate < np.inf:  # also rejects NaN
            raise DomainError(f"Poisson rate must be finite and positive, got {self.rate}")

    def v(self, x):
        return self.rate * self.base.sf(x)
