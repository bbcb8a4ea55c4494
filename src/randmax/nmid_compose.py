"""Count-mixed maxima: the composition F(x) = phi(-log H(x)).

A count-mixed max-stable law pairs a Laplace-transform family (phi and its
count scheme) with a max-stable base H.  The composed d.f. is evaluated
through the exponent function, F(x) = phi(V(x)), which stays accurate in
the tails where H(x) underflows.  The module also provides the quadrature
oracle integral H(x)^t dLambda(t) against the mixer density, exact sampling
of random maxima (the count first, then the maximum by inverting G^N in
survival space), and the same-type decomposition F = P_theta(F_theta).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from ._util import BLOCK_VALUES
from .errors import ConfigurationError
from .evd_core import MaxStableLaw, PoissonMax, standard_points
from .lt_families import Degenerate
from .streams import chunked_draws


@dataclass(frozen=True)
class NMaxStableLaw:
    """phi composed with a max-stable (or Poisson-maximum) base law."""

    family: object
    base: object

    def __post_init__(self):
        if not isinstance(self.base, (MaxStableLaw, PoissonMax)):
            raise ConfigurationError(
                f"base must be max-stable or a Poisson maximum, got {type(self.base).__name__}"
            )

    def v(self, x):
        return self.base.v(x)

    def cdf(self, x):
        return self.family.lt(self.base.v(x))


QUADRATURE_NODES = 256


@cache
def _half_line_rule():
    # Gauss-Legendre on [0,1] pushed to (0,inf) through t = u/(1-u).
    u, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    t = u / (1.0 - u)
    weight = w / (1.0 - u) ** 2
    t.setflags(write=False)
    weight.setflags(write=False)
    return t, weight


def mixture_cdf(law, x):
    """Quadrature oracle: integral of H(x)^t against the mixer density.

    Independent of the closed-form composition; must agree with
    ``law.cdf`` to high accuracy.  Available for families whose mixer has
    a closed-form density (geometric) or is a point mass (degenerate).
    The Gauss-Legendre rule has order ``QUADRATURE_NODES``, and the points
    are integrated ``BLOCK_VALUES // QUADRATURE_NODES`` at a time, so the
    working memory is one block of exponentials whatever the input size.
    """
    if isinstance(law.family, Degenerate):
        # the mixer is a point mass at 1, so the mixture is H itself
        return law.base.cdf(x)
    density = law.family.mixer_density  # raises for unsupported mixers
    t, weight = _half_line_rule()
    coeff = weight * density(t)
    v = np.asarray(law.v(x), dtype=float)
    flat = v.reshape(-1)
    out = np.empty(flat.shape)
    rows = BLOCK_VALUES // QUADRATURE_NODES
    for start in range(0, flat.size, rows):
        block = np.multiply.outer(-flat[start:start + rows], t)
        np.exp(block, out=block)
        out[start:start + rows] = block @ coeff
    return float(out[0]) if v.ndim == 0 else out.reshape(v.shape)


def _max_survival(u, counts):
    """Survival 1 - G(M) of the maximum M of ``counts`` draws with G(M)^counts = u.

    ``-expm1(log(u)/N)`` keeps full precision where ``1 - u**(1/N)`` would
    cancel; u = 0 gives survival 1, the lower endpoint of the base law.
    """
    with np.errstate(divide="ignore"):
        return -np.expm1(np.log(u) / counts)


def sample_random_max(scheme, base, rng, size):
    """``size`` componentwise maxima of N_theta independent draws from ``base``.

    The count is drawn first, then the maximum by inverting G^N in survival
    space, so for every theta the sample has d.f. P_theta(G(x)) at a cost
    independent of N.  A tuple base inverts each coordinate given the shared
    count.  Count and maximum uniforms come from the same positions of the
    stream at every theta, so smaller theta gives pathwise larger draws.
    """
    counts = scheme.sample(rng, size)
    if isinstance(base, tuple):
        s = _max_survival(rng.random((size, len(base))), counts[:, None])
        return np.column_stack([b.isf(s[:, i]) for i, b in enumerate(base)])
    return base.isf(_max_survival(rng.random(size), counts))


def sample_random_max_seeded(scheme, base, seed, n, threads=1):
    """Seeded, chunked version of ``sample_random_max``; ``threads`` is accepted and ignored."""
    return chunked_draws(seed, n, lambda rng, m: sample_random_max(scheme, base, rng, m))


def same_type_decompose(law, theta):
    """Split F into P_theta(F_theta) with F_theta(x) = phi(theta * V(x)).

    Returns ``(residual, norming)``: the sup residual |F(x) - P_theta(F_theta(x))|
    over ``standard_points`` of the base, and per coordinate the pair (scale, shift) with
    X_theta = scale * X + shift, which carries F_theta back to the type of F
    (for a Frechet(alpha) base the scale factor is theta^(1/alpha)).
    """
    law.family.validate_theta(theta)
    if not isinstance(law.base, MaxStableLaw):
        raise ConfigurationError("the same-type decomposition needs a max-stable base")
    v = law.base.v(standard_points(law.base))
    # P_theta(F_theta) in survival space, where 1 - F_theta = 1 - phi(theta V) keeps its digits
    f_theta_sf = law.family.lt_sf(theta * v)
    residual = float(np.abs(law.family.lt(v) - law.family.pgf_sf(theta, f_theta_sf)).max())
    return residual, tuple(m.norming(theta) for m in law.base.marginals)
