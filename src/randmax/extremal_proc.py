"""Extremal processes and random-time subordination.

An extremal process driven by a max-stable law has marginals
P(Y(t) <= x) = exp(-t V(x)).  Trajectories are resolved above an explicit
floor y0 (the exponent measure is infinite near the lower corner, so some
floor is unavoidable): the process first exceeds the floor at an
exponential time with rate V(y0), and from state y the holding time is
exponential with rate V(y) while the next state W satisfies
P(W <= w | W > y) = 1 - V(w)/V(y), a Pareto jump above y for Frechet
marginals.

Evaluating the process at an independent random time Z drawn from the
mixer (the variable whose Laplace transform is phi) reproduces the
count-mixed law phi(V(x)); ``verify_subordination`` checks this by a
seeded Kolmogorov-Smirnov comparison.  Y(Z) is always sampled exactly via
the conditional law given Z, never through path simulation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .evd_core import COMPLETE_DEPENDENCE, INDEPENDENCE, Frechet, MaxStableLaw
from .streams import as_generator, chunked_draws, chunked_list


@dataclass
class ExtremalPath:
    """One resolved trajectory: jump times and strictly increasing states."""

    times: np.ndarray
    states: np.ndarray
    horizon: float
    floor: float

    @property
    def n_jumps(self):
        return len(self.times)

    def count_above(self, level):
        """Number of resolved jump states above ``level``."""
        return int(np.count_nonzero(self.states > level))

    def final_state(self):
        """State at the horizon; the floor marks an unresolved (no-jump) path."""
        return float(self.states[-1]) if self.n_jumps else self.floor


def default_floor(marginal, horizon, mass=1e-3):
    """Floor at the ``mass`` quantile of Y(t0) with t0 = horizon/1000."""
    t0 = horizon / 1000.0
    return float(marginal.vinv(-np.log(mass) / t0))


def marginal_cdf(law, t, x):
    """P(Y(t) <= x) = exp(-t V(x)) for the process driven by ``law``."""
    t = float(t)
    if not t > 0.0:
        raise DomainError(f"time must be positive, got {t}")
    v = law.v(x)
    return float(np.exp(-t * v)) if np.isscalar(v) else np.exp(-t * v)


def simulate_path(law, horizon, rng, floor=None):
    """Exact jump-chain realization of a Frechet extremal process (d = 1)."""
    if not (isinstance(law, MaxStableLaw) and law.dim == 1):
        raise ConfigurationError("path simulation is implemented for dimension 1 only")
    m = law.marginals[0]
    if not isinstance(m, Frechet):
        raise ConfigurationError(
            "path simulation is implemented for Frechet marginals only; "
            "marginal-law sampling covers the other types"
        )
    if not 0.0 < horizon < np.inf:
        raise DomainError(f"horizon must be finite and positive, got {horizon}")
    y0 = default_floor(m, horizon) if floor is None else float(floor)
    if not y0 > m.lower:
        raise DomainError(f"floor must lie above the lower endpoint {m.lower}")
    rng = as_generator(rng)
    times, states = [], []
    y = y0
    t = rng.exponential(1.0 / m.v(y0))
    while t <= horizon:
        u = rng.random()
        if u == 0.0:
            u = 2.0**-53  # keep the jump finite and strictly above y
        y = m.vinv(m.v(y) * u)
        times.append(t)
        states.append(y)
        t += rng.exponential(1.0 / m.v(y))
    return ExtremalPath(
        times=np.asarray(times),
        states=np.asarray(states),
        horizon=float(horizon),
        floor=y0,
    )


def simulate_paths(law, horizon, n_paths, seed, floor=None, threads=1):
    """Independent paths from counter-split substreams, in a fixed order."""

    def build(rng, m):
        return [simulate_path(law, horizon, rng, floor=floor) for _ in range(m)]

    return chunked_list(seed, n_paths, build, threads=threads)


def sample_Y_at_time(law, t, rng, size=None):
    """Exact draw of Y(t): per-coordinate inversion of exp(-t V).

    Independence draws one exponential per coordinate; complete dependence
    drives every coordinate with the same exponential.  The logistic model
    is evaluation-only and is rejected here.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0.0)):
        raise DomainError("time must be finite and positive")
    if law.dim >= 2 and law.dependence not in (INDEPENDENCE, COMPLETE_DEPENDENCE):
        raise ConfigurationError(
            "exact sampling supports independence and complete dependence only; "
            "the logistic model ships with CDF evaluation, not a sampler"
        )
    rng = as_generator(rng)
    n = 1 if size is None else size
    if law.dim == 1:
        e = rng.exponential(size=n)
        out = law.marginals[0].vinv(e / t)
        return float(out[0]) if size is None else out
    if law.dependence == COMPLETE_DEPENDENCE:
        e = rng.exponential(size=n)
        cols = [m.vinv(e / t) for m in law.marginals]
    else:
        e = rng.exponential(size=(n, law.dim))
        cols = [m.vinv(e[:, i] / t) for i, m in enumerate(law.marginals)]
    out = np.column_stack(cols)
    return out[0] if size is None else out


@dataclass(frozen=True)
class SubordinationReport:
    """Result of the random-time check F(x) = P(Y(Z) <= x)."""

    family: str
    n: int
    distance: float
    critical: float
    passed: bool
    coordinate_distances: tuple
    table: tuple  # rows (coordinate, x, empirical, analytic)


def verify_subordination(nlaw, n, seed, threads=1):
    """Draw Z from the mixer, then Y(Z) exactly, and compare with phi(V(x)).

    d = 1 compares the full empirical d.f.; d = 2 compares each coordinate
    against its count-mixed marginal phi(V_i(x)).  Passes when every
    Kolmogorov-Smirnov distance is below 1.628/sqrt(n) (the 1 percent
    critical value).
    """
    from .verify_harness import ks_critical, ks_distance

    law = nlaw.base
    if not isinstance(law, MaxStableLaw):
        raise ConfigurationError("subordination requires a max-stable base")
    if law.dim >= 2 and law.dependence not in (INDEPENDENCE, COMPLETE_DEPENDENCE):
        raise ConfigurationError(
            "subordination sampling supports independence and complete dependence only"
        )

    def draw(rng, m):
        z = np.atleast_1d(nlaw.family.sample_mixer(rng, m))
        return sample_Y_at_time(law, z, rng, size=m)

    sample = chunked_draws(seed, n, draw, threads=threads)
    columns = [sample] if law.dim == 1 else [sample[:, i] for i in range(law.dim)]

    distances = []
    rows = []
    for i, column in enumerate(columns):
        marginal = law.marginals[i]
        cdf = lambda x, m=marginal: nlaw.family.lt(m.v(x))
        column = np.sort(column)
        distances.append(ks_distance(column, cdf))
        for x in marginal.grid:
            emp = np.searchsorted(column, x, side="right") / n
            rows.append((i, float(x), float(emp), float(cdf(x))))
    critical = ks_critical(n)
    distance = max(distances)
    return SubordinationReport(
        family=nlaw.family.name,
        n=n,
        distance=float(distance),
        critical=float(critical),
        passed=bool(distance < critical),
        coordinate_distances=tuple(float(d) for d in distances),
        table=tuple(rows),
    )
