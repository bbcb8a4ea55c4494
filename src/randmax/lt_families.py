"""Laplace-transform families and their count schemes.

Each family packages a Laplace transform phi that solves the Poincare
equation phi(s) = P(phi(theta*s)) together with everything the transform
induces: the inverse phi^{-1}, the probability generating function
P_theta(s) = phi(phi^{-1}(s)/theta), the positive integer count N_theta
with that p.g.f., and the mixing variable U whose Laplace transform is
phi (the weak limit of theta*N_theta as theta drops to 0).

Three closed-form families are provided:

* ``Geometric``        phi(s) = 1/(1+s),      U is a unit-mean exponential
* ``MittagLeffler``    phi(s) = 1/(1+s^nu),   U = E^{1/nu} * S_nu
* ``Degenerate``       phi(s) = exp(-s),      U = 1, N_theta = 1/theta

No numerical Poincare solving is attempted; the identity is verified for
the shipped closed forms by the test suite.
"""

from dataclasses import dataclass

import numpy as np

from ._util import apply_scalar as _apply
from .errors import ConfigurationError, DomainError
from .streams import as_generator, open_uniform


class LaplaceFamily:
    """Base class: a Poincare-standard Laplace transform and its count scheme."""

    name = "abstract"

    # -- transform -----------------------------------------------------

    def lt(self, s):
        """phi(s) for s in [0, +inf]; +inf maps to 0."""
        raise NotImplementedError

    def lt_inv(self, u):
        """phi^{-1}(u) for u in (0, 1]; u = 0 maps to +inf."""
        raise NotImplementedError

    def lt_inv_sf(self, s):
        """phi^{-1}(1 - s) for a survival s in (0, 1), exact where 1 - s rounds to 1."""
        raise NotImplementedError

    # -- count scheme ---------------------------------------------------

    def validate_theta(self, theta):
        raise NotImplementedError

    def pgf(self, theta, s):
        """P_theta(s) = phi(phi^{-1}(s)/theta) on [0, 1], with exact endpoints."""
        return self._pgf(theta, s, self.lt_inv, 0.0)

    def pgf_sf(self, theta, s):
        """P_theta(1 - s) for a survival s in [0, 1]; exact where 1 - s rounds to 1."""
        return self._pgf(theta, s, self.lt_inv_sf, 1.0)

    def _pgf(self, theta, s, inverse, at_zero):
        """phi(inverse(s)/theta) on [0, 1]; s = 0 gives ``at_zero`` and s = 1 the other end."""
        self.validate_theta(theta)

        def eval_pgf(arr):
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise DomainError("p.g.f. argument must lie in [0, 1]")
            out = np.full_like(arr, np.nan)  # NaN stays NaN
            out[arr == 0.0] = at_zero
            out[arr == 1.0] = 1.0 - at_zero
            inner = (arr > 0.0) & (arr < 1.0)
            out[inner] = self.lt(inverse(arr[inner]) / theta)
            return out

        return _apply(s, eval_pgf)

    def count_mean(self, theta):
        """Mean of N_theta."""
        raise NotImplementedError

    def index(self, n):
        """The count index theta_n of a base with G^n(a_n x + b_n) -> exp(-V(x)).

        At theta_n the random maximum converges:
        P_{theta_n}(G(a_n x + b_n)) -> phi(limit_exponent(V(x))).
        """
        return 1.0 / n

    def limit_exponent(self, v):
        """The argument of phi in the limit of the random maximum at ``index(n)``."""
        return v

    def sample_count(self, theta, rng, size=None):
        """Draw N_theta, supported on {1, 2, 3, ...}."""
        raise NotImplementedError

    # -- mixer ----------------------------------------------------------

    def sample_mixer(self, rng, size=None):
        """Draw U, the positive variable whose Laplace transform is phi."""
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
    """phi(s) = 1/(1+s); N_theta is geometric on {1,2,...} with success theta."""

    name = "geometric"

    def lt(self, s):
        def f(arr):
            if np.any(arr < 0.0) or np.any(np.isnan(arr)):
                raise DomainError("Laplace transform argument must be >= 0")
            with np.errstate(invalid="ignore"):
                out = 1.0 / (1.0 + arr)
            out[np.isposinf(arr)] = 0.0
            return out

        return _apply(s, f)

    def lt_inv(self, u):
        def f(arr):
            _check_unit_interval(arr)
            return (1.0 - arr) / arr

        return _apply(u, f)

    def lt_inv_sf(self, s):
        return _apply(s, lambda arr: arr / (1.0 - arr))

    def validate_theta(self, theta):
        if not 0.0 < theta < 1.0:
            raise ConfigurationError(
                f"geometric family requires theta in (0, 1), got {theta}"
            )

    def count_mean(self, theta):
        self.validate_theta(theta)
        return 1.0 / theta

    def sample_count(self, theta, rng, size=None):
        self.validate_theta(theta)
        return _geometric_counts(theta, as_generator(rng), size)

    def sample_mixer(self, rng, size=None):
        # unit-mean exponential by inversion
        u = as_generator(rng).random(size)
        return -np.log1p(-u)

    def mixer_cdf(self, x):
        return _apply(x, lambda arr: np.where(arr > 0.0, -np.expm1(-arr), 0.0))

    def mixer_density(self, t):
        return _apply(t, lambda arr: np.where(arr >= 0.0, np.exp(-arr), 0.0))


class MittagLeffler(LaplaceFamily):
    """phi(s) = 1/(1+s^nu), 0 < nu < 1; N_theta is geometric with success theta^nu."""

    def __init__(self, nu):
        if not 0.0 < nu < 1.0:
            raise ConfigurationError(f"Mittag-Leffler order must be in (0, 1), got {nu}")
        self.nu = float(nu)

    @property
    def name(self):
        return f"mittag-leffler({self.nu:g})"

    def lt(self, s):
        def f(arr):
            if np.any(arr < 0.0) or np.any(np.isnan(arr)):
                raise DomainError("Laplace transform argument must be >= 0")
            with np.errstate(invalid="ignore"):
                out = 1.0 / (1.0 + arr**self.nu)
            out[np.isposinf(arr)] = 0.0
            return out

        return _apply(s, f)

    def lt_inv(self, u):
        def f(arr):
            _check_unit_interval(arr)
            return ((1.0 - arr) / arr) ** (1.0 / self.nu)

        return _apply(u, f)

    def lt_inv_sf(self, s):
        return _apply(s, lambda arr: (arr / (1.0 - arr)) ** (1.0 / self.nu))

    def validate_theta(self, theta):
        if not 0.0 < theta < 1.0:
            raise ConfigurationError(
                f"Mittag-Leffler family requires theta in (0, 1), got {theta}"
            )

    def count_mean(self, theta):
        self.validate_theta(theta)
        return theta**-self.nu

    def sample_count(self, theta, rng, size=None):
        self.validate_theta(theta)
        return _geometric_counts(theta**self.nu, as_generator(rng), size)

    def index(self, n):
        # N_theta is geometric with success theta^nu, so n theta^nu = 1 balances 1 - G ~ V/n
        return n ** (-1.0 / self.nu)

    def limit_exponent(self, v):
        # phi(V^(1/nu)) = 1/(1 + V): the geometric limit
        return v ** (1.0 / self.nu)

    def sample_mixer(self, rng, size=None):
        # U = E^{1/nu} * S_nu mixes a unit exponential with a positive
        # nu-stable factor; its Laplace transform is 1/(1+s^nu).
        rng = as_generator(rng)
        e = rng.exponential(size=size)
        return e ** (1.0 / self.nu) * sample_positive_stable(self.nu, rng, size)

    def __repr__(self):
        return f"MittagLeffler(nu={self.nu!r})"


class Degenerate(LaplaceFamily):
    """phi(s) = exp(-s); theta = 1/n gives the deterministic count N = n."""

    name = "degenerate"

    def lt(self, s):
        def f(arr):
            if np.any(arr < 0.0) or np.any(np.isnan(arr)):
                raise DomainError("Laplace transform argument must be >= 0")
            return np.exp(-arr)

        return _apply(s, f)

    def lt_inv(self, u):
        def f(arr):
            _check_unit_interval(arr)
            with np.errstate(divide="ignore"):
                return -np.log(arr)

        return _apply(u, f)

    def lt_inv_sf(self, s):
        return _apply(s, lambda arr: -np.log1p(-arr))

    def validate_theta(self, theta):
        if not 0.0 < theta <= 1.0:
            raise ConfigurationError(
                f"degenerate family requires theta = 1/n for integer n >= 1, got {theta}"
            )
        n = 1.0 / theta
        if abs(n - round(n)) > 1e-9:
            raise ConfigurationError(
                f"degenerate family requires theta = 1/n for integer n >= 1, got {theta}"
            )

    def count_value(self, theta):
        self.validate_theta(theta)
        return int(round(1.0 / theta))

    def count_mean(self, theta):
        return float(self.count_value(theta))

    def sample_count(self, theta, rng, size=None):
        n = self.count_value(theta)
        if size is None:
            return n
        return np.full(size, n, dtype=np.int64)

    def sample_mixer(self, rng, size=None):
        if size is None:
            return 1.0
        return np.ones(size)

    def mixer_cdf(self, x):
        return _apply(x, lambda arr: (arr >= 1.0).astype(float))


def _check_unit_interval(arr):
    if np.any(arr <= 0.0) or np.any(arr > 1.0) or np.any(np.isnan(arr)):
        raise DomainError("inverse Laplace transform argument must lie in (0, 1]")


def _geometric_counts(p, rng, size):
    """Inversion sampling of the geometric law on {1, 2, ...} with success p."""
    u = rng.random(size)
    with np.errstate(over="ignore"):  # an overflow to inf fails the int64 check below
        k = np.ceil(np.log1p(-u) / np.log1p(-p))
    k = np.maximum(k, 1.0)
    if np.any(k >= 2.0**63):
        raise DomainError(
            f"geometric count with success probability {p:g} exceeds the int64 range"
        )
    if size is None:
        return int(k)
    return k.astype(np.int64)


def sample_positive_stable(nu, rng, size=None):
    """Draw a positive nu-stable variable with Laplace transform exp(-s^nu).

    Kanter's construction: with W uniform on (0, pi) and E a unit
    exponential, ``(a(W)/E)^((1-nu)/nu)`` where
    ``a(w) = (sin(nu w)^nu sin((1-nu) w)^(1-nu) / sin(w))^(1/(1-nu))``.
    """
    if not 0.0 < nu < 1.0:
        raise ConfigurationError(f"stable order must be in (0, 1), got {nu}")
    rng = as_generator(rng)
    w = np.pi * open_uniform(rng, size)  # W = 0 would give sin(0)/sin(0)
    e = rng.exponential(size=size)
    a = (
        np.sin(nu * w) ** nu * np.sin((1.0 - nu) * w) ** (1.0 - nu) / np.sin(w)
    ) ** (1.0 / (1.0 - nu))
    return (a / e) ** ((1.0 - nu) / nu)


@dataclass(frozen=True)
class CountScheme:
    """A family together with an admissible theta: the law of N_theta."""

    family: LaplaceFamily
    theta: float

    def __post_init__(self):
        self.family.validate_theta(self.theta)

    @property
    def mean(self):
        return self.family.count_mean(self.theta)

    def pgf(self, s):
        return self.family.pgf(self.theta, s)

    def sample(self, rng, size=None):
        return self.family.sample_count(self.theta, rng, size)
