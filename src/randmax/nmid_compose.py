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
from functools import lru_cache

import numpy as np

from ._util import BLOCK_VALUES
from .errors import ConfigurationError, DomainError
from .evd_core import MaxStableLaw, PoissonMax, standard_points
from .lt_families import Degenerate
from .streams import as_generator, chunked_draws


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

    @property
    def dim(self):
        return self.base.dim

    def v(self, x):
        return self.base.v(x)

    def cdf(self, x):
        return self.family.lt(self.base.v(x))


@lru_cache(maxsize=8)
def _half_line_rule(nodes):
    # Gauss-Legendre on [0,1] pushed to (0,inf) through t = u/(1-u).
    u, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    t = u / (1.0 - u)
    weight = w / (1.0 - u) ** 2
    t.setflags(write=False)
    weight.setflags(write=False)
    return t, weight


def mixture_cdf(law, x, nodes=256):
    """Quadrature oracle: integral of H(x)^t against the mixer density.

    Independent of the closed-form composition; must agree with
    ``law.cdf`` to high accuracy.  Available for families whose mixer has
    a closed-form density (geometric) or is a point mass (degenerate).
    The points are integrated ``BLOCK_VALUES // nodes`` at a time, so the
    working memory is one block of exponentials whatever the input size.
    """
    if nodes < 64:
        raise ConfigurationError(f"at least 64 quadrature nodes required, got {nodes}")
    if isinstance(law.family, Degenerate):
        # the mixer is a point mass at 1, so the mixture is H itself
        return law.base.cdf(x)
    density = law.family.mixer_density  # raises for unsupported mixers
    t, weight = _half_line_rule(nodes)
    coeff = weight * density(t)
    v = np.asarray(law.v(x), dtype=float)
    flat = v.reshape(-1)
    out = np.empty(flat.shape)
    rows = max(1, BLOCK_VALUES // nodes)
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


def sample_random_max(scheme, base, rng, size=None):
    """Componentwise maximum of N_theta independent draws from ``base``.

    The count is drawn first, then the maximum by inverting G^N in survival
    space, so for every theta the sample has d.f. P_theta(G(x)) at a cost
    independent of N.  A tuple base inverts each coordinate given the shared
    count.  Count and maximum uniforms come from the same positions of the
    stream at every theta, so smaller theta gives pathwise larger draws.
    """
    rng = as_generator(rng)
    n = 1 if size is None else size
    counts = np.atleast_1d(scheme.sample(rng, n))
    if isinstance(base, tuple):
        s = _max_survival(rng.random((n, len(base))), counts[:, None])
        out = np.column_stack([b.isf(s[:, i]) for i, b in enumerate(base)])
    else:
        out = base.isf(_max_survival(rng.random(n), counts))
    return out[0] if size is None else out


def sample_random_max_seeded(scheme, base, seed, n, threads=1):
    """Chunked, thread-count-independent version of ``sample_random_max``."""
    return chunked_draws(
        seed, n, lambda rng, m: sample_random_max(scheme, base, rng, m), threads=threads
    )


def same_type_decompose(law, theta, grid=None):
    """Split F into P_theta(F_theta) with F_theta(x) = phi(theta * V(x)).

    Returns ``(residual, norming)``: the sup residual |F(x) - P_theta(F_theta(x))|
    over the grid, and per coordinate the pair (scale, shift) with
    X_theta = scale * X + shift, which carries F_theta back to the type of F
    (for a Frechet(alpha) base the scale factor is theta^(1/alpha)).
    """
    law.family.validate_theta(theta)
    if not isinstance(law.base, MaxStableLaw):
        raise ConfigurationError("the same-type decomposition needs a max-stable base")
    pts = standard_points(law.base) if grid is None else np.asarray(grid, dtype=float)
    v = np.atleast_1d(law.base.v(pts))
    if np.any(np.isinf(v)):
        raise DomainError("decomposition grid must lie inside the support of the base law")
    f_full = law.family.lt(v)
    f_theta = law.family.lt(theta * v)
    residual = float(np.abs(f_full - law.family.pgf(theta, f_theta)).max())
    return residual, tuple(m.norming(theta) for m in law.base.marginals)
