"""Extremal processes and random-time subordination.

An extremal process driven by a max-stable law has marginals
P(Y(t) <= x) = exp(-t V(x)).  Trajectories are resolved above an explicit
floor y0 (the exponent measure is infinite near the lower corner, so some
floor is unavoidable).  In V-space the jump chain is the same for every
marginal type: the process first exceeds the floor at an exponential time
with rate V0 = V(y0); from the level V_k it holds for an exponential time
with rate V_k and jumps to V_{k+1} = V_k U_k with U_k uniform on (0, 1),
since P(W <= w | W > y) = 1 - V(w)/V(y).  So t_{k+1} = t_k + E_k / V_k,
and the states are the levels mapped back through ``vinv``.  All paths of
a substream chunk advance together, one jump index at a time.

Evaluating the process at an independent random time Z drawn from the
mixer (the variable whose Laplace transform is phi) reproduces the
count-mixed law phi(V(x)); ``verify_harness.run_thm32`` checks this by a
seeded Kolmogorov-Smirnov comparison.  Y(Z) is always sampled exactly via
the conditional law given Z, never through path simulation.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError
from .evd_core import COMPLETE_DEPENDENCE, INDEPENDENCE, MaxStableLaw
from .streams import as_generator, chunked_list, open_uniform


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


class PathColumns(NamedTuple):
    """Paths stored column-wise: path i owns the next ``counts[i]`` entries of
    the flat ``times`` and ``states``, in jump order."""

    counts: np.ndarray
    times: np.ndarray
    states: np.ndarray
    horizon: float
    floor: float

    def paths(self):
        """One ``ExtremalPath`` per path, viewing the flat columns."""
        cuts = np.cumsum(self.counts)[:-1]
        return [
            ExtremalPath(times, states, self.horizon, self.floor)
            for times, states in zip(np.split(self.times, cuts), np.split(self.states, cuts))
        ]


def default_floor(marginal, horizon, mass=1e-3):
    """Floor at the ``mass`` quantile of Y(t0) with t0 = horizon/1000.

    A horizon near the ends of the float range gives a floor outside the
    support (0 or +-inf), which ``simulate_path_columns`` rejects.
    """
    t0 = horizon / 1000.0
    with np.errstate(over="ignore", divide="ignore"):
        return float(marginal.vinv(-np.log(mass) / t0))


def marginal_cdf(law, t, x):
    """P(Y(t) <= x) = exp(-t V(x)) for the process driven by ``law``."""
    t = float(t)
    if not t > 0.0:
        raise DomainError(f"time must be positive, got {t}")
    v = law.v(x)
    return float(np.exp(-t * v)) if np.isscalar(v) else np.exp(-t * v)


def _path_marginal(law, horizon, floor):
    """The marginal of a univariate ``law``, the floor y0 and V0 = V(y0), all checked."""
    if not (isinstance(law, MaxStableLaw) and law.dim == 1):
        raise ConfigurationError("path simulation is implemented for dimension 1 only")
    if not 0.0 < horizon < np.inf:
        raise DomainError(f"horizon must be finite and positive, got {horizon}")
    m = law.marginals[0]
    y0 = default_floor(m, horizon) if floor is None else float(floor)
    v0 = m.v(y0)
    if not 0.0 < v0 < np.inf:
        if floor is None:
            raise DomainError(
                f"horizon {horizon!r} gives a default floor of {y0!r} outside the support, "
                "where 0 < V(floor) < inf; give a floor with --floor"
            )
        raise DomainError(f"floor must lie inside the support, where 0 < V(floor) < inf; got {y0}")
    return m, y0, v0


def _jump_chain(marginal, v0, horizon, rng, n):
    """Jump counts, then flat jump times and states, of ``n`` paths started at level ``v0``.

    Jump index k of every path still below the horizon is drawn at once: a
    block of uniforms for the levels, then a block of exponentials for the
    next jump times.  The levels are mapped to states once, at the end.
    """
    # an overflowing time lies past the horizon; an overflowing state is caught below
    with np.errstate(over="ignore", divide="ignore"):
        ids, t, v = np.arange(n), rng.exponential(size=n) / v0, np.full(n, v0)
        jumps = [(ids[:0], t[:0], v[:0])]
        while True:
            alive = t <= horizon
            ids, t, v = ids[alive], t[alive], v[alive]
            if not ids.size:
                break
            v = v * open_uniform(rng, ids.size)
            jumps.append((ids, t, v))
            t = t + rng.exponential(size=ids.size) / v
        ids, t, v = (np.concatenate(c) for c in zip(*jumps))
        order = np.argsort(ids, kind="stable")  # path by path, each in jump order
        states = marginal.vinv(v[order])
    # a subnormal level may repeat, and an infinite state is no number
    if not (np.all(v >= np.finfo(float).tiny) and np.all(np.isfinite(states))):
        raise DomainError(
            "a path state lies beyond the float range (a level V below "
            f"{np.finfo(float).tiny:.6g} or a state beyond {np.finfo(float).max:.6g})"
        )
    return np.bincount(ids, minlength=n), t[order], states


def simulate_path(law, horizon, rng, floor=None):
    """Exact jump-chain realization of a univariate extremal process on (0, horizon].

    Any marginal type: the chain runs in V-space from V0 = V(floor), with
    V_{k+1} = V_k U_k and t_{k+1} = t_k + E_k / V_k, and each level is
    mapped back to a state through ``vinv``.
    """
    m, y0, v0 = _path_marginal(law, horizon, floor)
    _, times, states = _jump_chain(m, v0, horizon, as_generator(rng), 1)
    return ExtremalPath(times=times, states=states, horizon=float(horizon), floor=y0)


def simulate_path_columns(law, horizon, n_paths, seed, floor=None, threads=1):
    """``n_paths`` independent paths as ``PathColumns``, one substream chunk at a time."""
    m, y0, v0 = _path_marginal(law, horizon, floor)
    chunks = chunked_list(
        seed, n_paths, lambda rng, n: [_jump_chain(m, v0, horizon, rng, n)], threads=threads
    )
    counts, times, states = (np.concatenate(c) for c in zip(*chunks))
    return PathColumns(counts, times, states, float(horizon), y0)


def simulate_paths(law, horizon, n_paths, seed, floor=None, threads=1):
    """Independent paths from counter-split substreams, in a fixed order."""
    return simulate_path_columns(law, horizon, n_paths, seed, floor, threads).paths()


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
