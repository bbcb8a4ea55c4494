"""Laplace-transform families and their count schemes.

Each family packages a Laplace transform phi that solves the Poincare
equation phi(s) = P(phi(theta*s)) together with everything the transform
induces: its survival form 1 - phi and the inverse phi^{-1}(1 - s) of
that, the probability generating function in survival space
P_theta(1 - s) = phi(phi^{-1}(1 - s)/theta) and its inverse in s (which maps
one uniform to the survival 1 - G(M) of a random maximum), both in closed
form, the positive integer count N_theta with that p.g.f., and the mixing
variable U whose Laplace transform is phi (the weak limit of theta*N_theta
as theta drops to 0).
The survival forms keep their digits where phi(theta*s) rounds to 1, so
the identities stay exact as theta drops to the smallest normal float,
below which theta is refused.  A count index or mixer draw outside the
normal floats raises ``DomainError`` through ``_util.in_floats``.

Three closed-form families are provided:

* ``Geometric``      phi(s) = 1/(1+s),     1 - phi = s/(1+s),        U a unit-mean exponential
* ``MittagLeffler``  phi(s) = 1/(1+s^nu),  1 - phi = s^nu/(1+s^nu),  U = E * r(V)^{1/nu}
* ``Degenerate``     phi(s) = exp(-s),     1 - phi = -expm1(-s),     U = 1, N_theta = 1/theta

with E a unit exponential, V uniform on (0, 1) and
r(v) = sin(nu pi (1 - v)) / sin(nu pi v), evaluated in half-angle tangents.
P_theta(1 - s) is c / (c + s) with c = theta^nu (1 - s), its own inverse, for
geometric and Mittag-Leffler, and (1 - s)^(1/theta), inverse 1 - u^theta, for degenerate.

No numerical Poincare solving is attempted; the identity is verified for
the shipped closed forms by the test suite.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import TINY, in_floats
from ._util import apply_scalar as _apply
from .errors import ConfigurationError, DomainError
from .streams import open_uniform


class LaplaceFamily:
    """Base class: a Poincare-standard Laplace transform and its count scheme."""

    name = "abstract"

    # -- transform -----------------------------------------------------

    def lt(self, s):
        """phi(s) for s in [0, +inf]; +inf maps to 0."""
        raise NotImplementedError

    def lt_sf(self, s):
        """1 - phi(s) for s in [0, +inf], exact where phi(s) rounds to 1; +inf maps to 1."""
        raise NotImplementedError

    def lt_inv_sf(self, s):
        """phi^{-1}(1 - s) for a survival s in (0, 1), exact where 1 - s rounds to 1."""
        raise NotImplementedError

    # -- count scheme ---------------------------------------------------

    def validate_theta(self, theta):
        """Refuse a theta below the smallest normal float, where theta * s loses its digits.

        Each family adds its own range check after this one.
        """
        if 0.0 < theta < TINY:
            raise ConfigurationError(
                f"theta must be at least the smallest normal float {TINY:.6g}, got {theta}"
            )

    def pgf_sf(self, theta, s):
        """P_theta(1 - s) = phi(phi^{-1}(1 - s)/theta) for a survival s in [0, 1].

        Exact where 1 - s rounds to 1; s = 0 gives 1 and s = 1 gives 0.
        """
        return self._checked_pgf(theta, s, "argument", self._pgf_sf)

    def _pgf_sf(self, theta, s):
        """``pgf_sf`` at an admitted theta and an array s in [0, 1], in closed form."""
        raise NotImplementedError

    def pgf_sf_inv(self, theta, u):
        """The survival s with ``pgf_sf(theta, s) = u``, for u in [0, 1].

        ``pgf_sf(theta, .)`` is the survival function of S = 1 - G(M), M the
        maximum of N_theta draws from a continuous G, so S = pgf_sf_inv(theta, U)
        of a uniform U draws S exactly, with no count.  u = 0 gives 1 and u = 1
        gives 0; NaN stays NaN.
        """
        return self._checked_pgf(theta, u, "value", self._pgf_sf_inv)

    def _pgf_sf_inv(self, theta, u):
        """``pgf_sf_inv`` at an admitted theta and an array u in [0, 1], in closed form."""
        raise NotImplementedError

    def _checked_pgf(self, theta, x, noun, closed_form):
        """``closed_form(theta, x)`` once ``validate_theta`` admits theta and x lies in [0, 1]."""
        self.validate_theta(theta)

        def evaluate(arr):
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise DomainError(f"p.g.f. {noun} must lie in [0, 1]")
            return closed_form(theta, arr)

        return _apply(x, evaluate)

    def index(self, n):
        """The count index theta_n of a base with G^n(a_n x + b_n) -> exp(-V(x)).

        At theta_n the random maximum converges:
        P_{theta_n}(G(a_n x + b_n)) -> phi(limit_exponent(V(x))).  A theta_n
        below the smallest normal float raises ``DomainError``.
        """
        return in_floats(1.0 / n, f"count index 1/n at n = {n:g}")

    def limit_exponent(self, v):
        """The argument of phi in the limit of the random maximum at ``index(n)``."""
        return v

    def sample_count(self, theta, rng, size):
        """Draw ``size`` values of N_theta, supported on {1, 2, 3, ...}."""
        raise NotImplementedError

    # -- mixer ----------------------------------------------------------

    def sample_mixer(self, rng, size):
        """Draw ``size`` values of U, the positive variable whose Laplace transform is phi."""
        raise NotImplementedError

    def mixer_cdf(self, x):
        """Distribution function of U, where available in closed form."""
        raise ConfigurationError(
            f"no closed-form mixer distribution function for the {self.name} family"
        )

    def mixer_density(self, t):
        """Density of U on (0, inf), where available in closed form."""
        raise ConfigurationError(
            f"no closed-form mixer density for the {self.name} family"
        )

    def __repr__(self):
        return f"{type(self).__name__}()"


class Geometric(LaplaceFamily):
    """phi(s) = 1/(1+s^nu) at nu = 1; N_theta is geometric on {1,2,...} with success theta^nu.

    ``MittagLeffler`` inherits these forms; at nu = 1 they are exact, as x**1.0 == x.
    """

    name = "geometric"
    title = "geometric"  # the family as its refusals name it
    nu = 1.0

    def lt(self, s):
        return _transform(s, lambda arr: 1.0 / (1.0 + arr**self.nu))

    def lt_sf(self, s):
        def f(arr):
            power = arr**self.nu
            with np.errstate(invalid="ignore"):
                out = power / (1.0 + power)
            out[np.isposinf(arr)] = 1.0
            return out

        return _transform(s, f)

    def lt_inv_sf(self, s):
        return _apply(s, lambda arr: (arr / (1.0 - arr)) ** (1.0 / self.nu))

    def validate_theta(self, theta):
        super().validate_theta(theta)
        if not 0.0 < theta < 1.0:
            raise ConfigurationError(
                f"{self.title} family requires theta in (0, 1), got {theta}"
            )

    def _pgf_sf(self, theta, s):
        # phi((s / (1 - s))^(1/nu) / theta) in closed form, with no power of s to go subnormal:
        # c / (c + s) with c = theta^nu (1 - s); s = 0 gives c / c = 1 and s = 1 gives 0
        c = theta**self.nu * (1.0 - s)
        return c / (c + s)

    # s -> _pgf_sf(theta, s) is its own inverse: u = c / (c + s) with c = theta^nu (1 - s)
    # solves to s = c' / (c' + u) with c' = theta^nu (1 - u)
    _pgf_sf_inv = _pgf_sf

    def sample_count(self, theta, rng, size):
        self.validate_theta(theta)
        return _geometric_counts(theta**self.nu, rng, size)

    def sample_mixer(self, rng, size):
        # unit-mean exponential by inversion; U = 0 would be no positive time
        return -np.log1p(-open_uniform(rng, size))

    def mixer_cdf(self, x):
        # 0 below the support; np.maximum keeps a NaN a NaN
        return _apply(x, lambda arr: -np.expm1(-np.maximum(arr, 0.0)))

    def mixer_density(self, t):
        return _apply(t, lambda arr: np.exp(-np.where(arr < 0.0, np.inf, arr)))


class MittagLeffler(Geometric):
    """phi(s) = 1/(1+s^nu), 0 < nu < 1; N_theta is geometric with success theta^nu."""

    title = "Mittag-Leffler"
    mixer_cdf = LaplaceFamily.mixer_cdf
    mixer_density = LaplaceFamily.mixer_density

    def __init__(self, nu):
        if not 0.0 < nu < 1.0:
            raise ConfigurationError(f"Mittag-Leffler order must be in (0, 1), got {nu}")
        self.nu = float(nu)

    @property
    def name(self):
        return f"mittag-leffler({self.nu:g})"

    def index(self, n):
        # N_theta is geometric with success theta^nu, so n theta^nu = 1 balances 1 - G ~ V/n
        return in_floats(
            n ** (-1.0 / self.nu), f"count index n^(-1/nu) at n = {n:g}, nu = {self.nu:g}"
        )

    def limit_exponent(self, v):
        # phi(V^(1/nu)) = 1/(1 + V): the geometric limit; an overflow to inf gives phi = 0
        with np.errstate(over="ignore"):
            return v ** (1.0 / self.nu)

    def sample_mixer(self, rng, size):
        # E the geometric mixer (Kozubowski and Rachev 1999; Fulger, Scalas and Germano 2008).
        # A ratio of 0 or inf (at a subnormal nu) and the law's own overflow and underflow leave
        # the floats, and are refused below
        e = super().sample_mixer(rng, size)
        with np.errstate(all="ignore"):
            ratio = _sine_ratio(self.nu, open_uniform(rng, size))
            return in_floats(e * ratio ** (1.0 / self.nu), "Mittag-Leffler mixer draw")

    def __repr__(self):
        return f"MittagLeffler(nu={self.nu!r})"


class Degenerate(LaplaceFamily):
    """phi(s) = exp(-s); theta = 1/n gives the deterministic count N = n."""

    name = "degenerate"

    def lt(self, s):
        return _transform(s, lambda arr: np.exp(-arr))

    def lt_sf(self, s):
        return _transform(s, lambda arr: -np.expm1(-arr))

    def lt_inv_sf(self, s):
        return _apply(s, lambda arr: -np.log1p(-arr))

    def validate_theta(self, theta):
        self._count(theta)

    def _count(self, theta):
        """The integer n that theta = 1/n names; any other theta is refused.

        n is the integer theta's shortest decimal names, if it names one
        (1e-18 names 10^18, though round(1/theta) is 10^18 - 128), else
        round(1/theta) taken exactly; either way 1/n must round to theta.
        """
        super().validate_theta(theta)
        if 0.0 < theta <= 1.0:
            q = 1 / Fraction(repr(float(theta)))
            n = q.numerator if q.denominator == 1 else round(1 / Fraction(theta))
            if float(Fraction(1, n)) == theta:
                return n
        raise ConfigurationError(
            f"degenerate family requires theta = 1/n for integer n >= 1, got {theta}"
        )

    def _pgf_sf(self, theta, s):
        # (1 - s)^(1/theta); s = 1 gives exp(-inf) = 0, as does a quotient beyond the floats
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(np.log1p(-s) / theta)

    def _pgf_sf_inv(self, theta, u):
        # 1 - u^theta; u = 0 gives -expm1(-inf) = 1
        with np.errstate(divide="ignore"):
            return -np.expm1(theta * np.log(u))

    def sample_count(self, theta, rng, size):
        n = self._count(theta)
        if n >= 2**63:
            raise DomainError(f"degenerate count 1/theta = {n:.6g} exceeds the int64 range")
        return np.full(size, n, dtype=np.int64)

    def sample_mixer(self, rng, size):
        return np.ones(size)

    def mixer_cdf(self, x):
        return _apply(x, lambda arr: np.heaviside(arr - 1.0, 1.0))  # NaN stays NaN


def _transform(s, func):
    """``func`` at s in [0, +inf], scalar in, scalar out; a negative or NaN s is refused."""

    def checked(arr):
        if np.any(arr < 0.0) or np.any(np.isnan(arr)):
            raise DomainError("Laplace transform argument must be >= 0")
        return func(arr)

    return _apply(s, checked)


def _sine_ratio(nu, v):
    """sin a / sin b with a = nu pi (1 - v) and b = nu pi v, for v in (0, 1).

    Written in the half-angle tangents ta, tb as ta (1 + tb^2) / (tb (1 + ta^2)),
    since numpy's tan is vectorized and its sin is not.  The halves of a and b
    are the arguments of the sines halved, exactly; 1 - v is exact where v >= 1/2.
    """
    half = 0.5 * np.pi * nu
    ta = np.tan(half * (1.0 - v))
    tb = np.tan(half * v)
    return ta * (1.0 + tb * tb) / (tb * (1.0 + ta * ta))


def _geometric_counts(p, rng, size):
    """Inversion sampling of the geometric law on {1, 2, ...} with success p."""
    u = rng.random(size)
    # an overflow to inf fails the int64 check below; p rounding to 1 gives log1p(-p) = -inf
    # and the right count 1
    with np.errstate(over="ignore", divide="ignore"):
        k = np.ceil(np.log1p(-u) / np.log1p(-p))
    k = np.maximum(k, 1.0)
    if np.any(k >= 2.0**63):
        raise DomainError(
            f"geometric count with success probability {p:g} exceeds the int64 range"
        )
    return k.astype(np.int64)


@dataclass(frozen=True)
class CountScheme:
    """A family together with an admissible theta: the law of N_theta."""

    family: LaplaceFamily
    theta: float

    def __post_init__(self):
        self.family.validate_theta(self.theta)

    def sample(self, rng, size):
        return self.family.sample_count(self.theta, rng, size)
