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
from .streams import as_generator, chunked_draws


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

    # -- count scheme ---------------------------------------------------

    def validate_theta(self, theta):
        raise NotImplementedError

    def pgf(self, theta, s):
        """P_theta(s) = phi(phi^{-1}(s)/theta) on [0, 1], with exact endpoints."""
        self.validate_theta(theta)

        def eval_pgf(arr):
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise DomainError("p.g.f. argument must lie in [0, 1]")
            out = np.empty_like(arr)
            out[arr == 0.0] = 0.0
            out[arr == 1.0] = 1.0
            inner = (arr > 0.0) & (arr < 1.0)
            out[inner] = self.lt(self.lt_inv(arr[inner]) / theta)
            return out

        return _apply(s, eval_pgf)

    def count_mean(self, theta):
        """Mean of N_theta."""
        raise NotImplementedError

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
    w = np.pi * rng.random(size)
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


@dataclass(frozen=True)
class Mixer:
    """The positive variable U whose Laplace transform is the family's phi."""

    family: LaplaceFamily

    def sample(self, rng, size=None):
        return self.family.sample_mixer(rng, size)

    def cdf(self, x):
        return self.family.mixer_cdf(x)


# ---------------------------------------------------------------------------
# Operation surface
# ---------------------------------------------------------------------------


def lt_eval(family, s):
    """Evaluate phi(s) for finite s >= 0."""
    s = float(s)
    if not np.isfinite(s) or s < 0.0:
        raise DomainError(f"Laplace transform argument must be finite and >= 0, got {s}")
    return family.lt(s)


def lt_inverse(family, u):
    """Evaluate phi^{-1}(u) for u in (0, 1]."""
    u = float(u)
    if not 0.0 < u <= 1.0:
        raise DomainError(f"inverse argument must lie in (0, 1], got {u}")
    return family.lt_inv(u)


def pgf_theta(scheme, s):
    """Evaluate the count p.g.f. P_theta(s) on [0, 1]."""
    return scheme.pgf(s)


def sample_count(scheme, rng, size=None):
    """Draw from N_theta."""
    return scheme.sample(rng, size)


def sample_mixer(mixer, rng, size=None):
    """Draw from the mixer U."""
    return mixer.sample(rng, size)


@dataclass(frozen=True)
class Lemma12Report:
    """Grid comparison of scaled counts theta*N_theta against the mixer law."""

    family: str
    theta: float
    n: int
    distance: float
    threshold: float
    passed: bool


def verify_lemma12(family, theta, n, seed, threshold=0.01, grid=None, threads=1):
    """Compare the empirical law of theta*N_theta with the mixer's d.f.

    Draws ``n`` counts, scales them by theta, and reports the sup distance
    between the empirical distribution function and the mixer's d.f. over
    an evaluation grid.  Small theta should pass at the given threshold;
    moderate theta visibly fails (the limit has not set in).
    """
    if isinstance(family, MittagLeffler):
        raise ConfigurationError(
            "theta*N_theta degenerates to 0 for the Mittag-Leffler family "
            "(the count is geometric with success theta^nu, so the mean of "
            "theta*N_theta is theta^(1-nu) -> 0); no scaling of N_theta "
            "converges to the mixer with transform 1/(1+s^nu), so this "
            "check is not defined for nu < 1"
        )
    family.validate_theta(theta)
    scaled = theta * chunked_draws(
        seed, n, lambda rng, m: family.sample_count(theta, rng, m), threads=threads
    ).astype(float)
    scaled.sort()
    if grid is None:
        grid = np.linspace(0.0, 12.0, 4801)
    empirical = np.searchsorted(scaled, grid, side="right") / n
    distance = float(np.abs(empirical - family.mixer_cdf(grid)).max())
    return Lemma12Report(
        family=family.name,
        theta=theta,
        n=n,
        distance=distance,
        threshold=threshold,
        passed=distance < threshold,
    )
