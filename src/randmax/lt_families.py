"""Laplace-transform families and their count schemes.

Each family packages a Laplace transform phi that solves the Poincare
equation phi(s) = P(phi(theta*s)) together with everything the transform
induces: its survival form 1 - phi and the inverse phi^{-1}(1 - s) of
that, the probability generating function in survival space
P_theta(1 - s) = phi(phi^{-1}(1 - s)/theta), the positive integer count
N_theta with that p.g.f., and the mixing variable U whose Laplace
transform is phi (the weak limit of theta*N_theta as theta drops to 0).
The survival forms keep their digits where phi(theta*s) rounds to 1, so
the identities stay exact as theta drops to the smallest normal float,
below which theta is refused.  A mixer or stable draw outside the floats
raises ``DomainError``.

Three closed-form families are provided:

* ``Geometric``      phi(s) = 1/(1+s),     1 - phi = s/(1+s),        U a unit-mean exponential
* ``MittagLeffler``  phi(s) = 1/(1+s^nu),  1 - phi = s^nu/(1+s^nu),  U = E^{1/nu} * S_nu
* ``Degenerate``     phi(s) = exp(-s),     1 - phi = -expm1(-s),     U = 1, N_theta = 1/theta

No numerical Poincare solving is attempted; the identity is verified for
the shipped closed forms by the test suite.
"""

from dataclasses import dataclass

import numpy as np

from ._util import apply_scalar as _apply
from .errors import ConfigurationError, DomainError
from .streams import open_exponential, open_uniform

_TINY, _MAX = np.finfo(float).tiny, np.finfo(float).max


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
        if 0.0 < theta < _TINY:
            raise ConfigurationError(
                f"theta must be at least the smallest normal float {_TINY:.6g}, got {theta}"
            )

    def pgf_sf(self, theta, s):
        """P_theta(1 - s) = phi(phi^{-1}(1 - s)/theta) for a survival s in [0, 1].

        Exact where 1 - s rounds to 1; s = 0 gives 1 and s = 1 gives 0.
        """
        self.validate_theta(theta)

        def eval_pgf(arr):
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise DomainError("p.g.f. argument must lie in [0, 1]")
            out = np.full_like(arr, np.nan)  # NaN stays NaN
            out[arr == 0.0] = 1.0
            out[arr == 1.0] = 0.0
            inner = (arr > 0.0) & (arr < 1.0)
            out[inner] = self.lt(self.lt_inv_sf(arr[inner]) / theta)
            return out

        return _apply(s, eval_pgf)

    def index(self, n):
        """The count index theta_n of a base with G^n(a_n x + b_n) -> exp(-V(x)).

        At theta_n the random maximum converges:
        P_{theta_n}(G(a_n x + b_n)) -> phi(limit_exponent(V(x))).  A theta_n
        below the smallest normal float raises ``DomainError``.
        """
        return _in_floats(1.0 / n, f"count index 1/n at n = {n:g}")

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
            with np.errstate(invalid="ignore"):
                out = arr**self.nu / (1.0 + arr**self.nu)
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

    def sample_count(self, theta, rng, size):
        self.validate_theta(theta)
        return _geometric_counts(theta**self.nu, rng, size)

    def sample_mixer(self, rng, size):
        # unit-mean exponential by inversion; U = 0 would be no positive time
        return -np.log1p(-open_uniform(rng, size))

    def mixer_cdf(self, x):
        return _apply(x, lambda arr: np.where(arr > 0.0, -np.expm1(-arr), 0.0))

    def mixer_density(self, t):
        return _apply(t, lambda arr: np.where(arr >= 0.0, np.exp(-arr), 0.0))


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
        return _in_floats(
            n ** (-1.0 / self.nu), f"count index n^(-1/nu) at n = {n:g}, nu = {self.nu:g}"
        )

    def limit_exponent(self, v):
        # phi(V^(1/nu)) = 1/(1 + V): the geometric limit; an overflow to inf gives phi = 0
        with np.errstate(over="ignore"):
            return v ** (1.0 / self.nu)

    def sample_mixer(self, rng, size):
        # U = E^{1/nu} * S_nu mixes a unit exponential with a positive
        # nu-stable factor; its Laplace transform is 1/(1+s^nu).
        e = open_exponential(rng, size)
        stable = sample_positive_stable(self.nu, rng, size)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            return _in_floats(np.power(e, 1.0 / self.nu) * stable, "Mittag-Leffler mixer draw")

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
        super().validate_theta(theta)
        if not 0.0 < theta <= 1.0:
            raise ConfigurationError(
                f"degenerate family requires theta = 1/n for integer n >= 1, got {theta}"
            )
        n = 1.0 / theta
        # 1/(1/n) is n within about 0.71 n eps for every integer n up to 2^53
        if abs(n - round(n)) > max(1e-9, 2.0 * np.finfo(float).eps / theta):
            raise ConfigurationError(
                f"degenerate family requires theta = 1/n for integer n >= 1, got {theta}"
            )

    def sample_count(self, theta, rng, size):
        self.validate_theta(theta)
        n = int(round(1.0 / theta))
        if n >= 2**63:
            raise DomainError(f"degenerate count 1/theta = {n:.6g} exceeds the int64 range")
        return np.full(size, n, dtype=np.int64)

    def sample_mixer(self, rng, size):
        return np.ones(size)

    def mixer_cdf(self, x):
        return _apply(x, lambda arr: (arr >= 1.0).astype(float))


def _transform(s, func):
    """``func`` at s in [0, +inf], scalar in, scalar out; a negative or NaN s is refused."""

    def checked(arr):
        if np.any(arr < 0.0) or np.any(np.isnan(arr)):
            raise DomainError("Laplace transform argument must be >= 0")
        return func(arr)

    return _apply(s, checked)


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
    return _in_floats(draws, f"positive {nu:g}-stable draw")


def _in_floats(draws, what):
    """``draws``; ``DomainError`` where one lies outside [tiny, max] (NaN fails too)."""
    arr = np.asarray(draws)
    if not (arr.min(initial=_MAX) >= _TINY and arr.max(initial=_TINY) <= _MAX):
        raise DomainError(
            f"{what} lies beyond the float range (outside [{_TINY:.6g}, {_MAX:.6g}])"
        )
    return draws


@dataclass(frozen=True)
class CountScheme:
    """A family together with an admissible theta: the law of N_theta."""

    family: LaplaceFamily
    theta: float

    def __post_init__(self):
        self.family.validate_theta(self.theta)

    def sample(self, rng, size):
        return self.family.sample_count(self.theta, rng, size)
