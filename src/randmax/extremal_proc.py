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
a group of substream chunks advance together, one jump index at a time.

Evaluating the process at an independent random time Z drawn from the
mixer (the variable whose Laplace transform is phi) reproduces the
count-mixed law phi(V(x)); ``verify_harness.run_thm32`` checks this by a
seeded Kolmogorov-Smirnov comparison.  Y(Z) is always sampled exactly via
the conditional law given Z, never through path simulation.
"""

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError
from .evd_core import COMPLETE_DEPENDENCE, INDEPENDENCE, MaxStableLaw
from .streams import chunked_list

_TINY, _MAX = np.finfo(float).tiny, np.finfo(float).max
FLOOR_MASS = 1e-3  # the default floor is this quantile of Y(horizon/1000)
_PATH_RANGE = (
    f"a path state lies beyond the float range (a level V below {_TINY:.6g} "
    f"or a state beyond {_MAX:.6g})"
)
_Y_RANGE = (
    f"Y(t) lies beyond the float range (a level E/t outside [{_TINY:.6g}, {_MAX:.6g}] "
    f"or a state beyond {_MAX:.6g})"
)


class PathColumns(NamedTuple):
    """Paths stored column-wise: path i owns the next ``counts[i]`` entries of
    the flat ``times`` and ``states``, in jump order."""

    counts: np.ndarray
    times: np.ndarray
    states: np.ndarray
    horizon: float
    floor: float

    def path_ids(self):
        """The path of each entry of ``times`` and ``states``."""
        return np.repeat(np.arange(len(self.counts)), self.counts)


def default_floor(marginal, horizon):
    """Floor at the ``FLOOR_MASS`` quantile of Y(t0) with t0 = horizon/1000.

    A horizon near the ends of the float range gives a floor outside the
    support (0 or +-inf), which ``simulate_path_columns`` rejects.
    """
    t0 = horizon / 1000.0
    with np.errstate(over="ignore", divide="ignore"):
        return float(marginal.vinv(-np.log(FLOOR_MASS) / t0))


def _path_marginal(law, horizon, floor):
    """The marginal of a univariate ``law``, the floor y0 and V0 = V(y0), all checked."""
    if not (isinstance(law, MaxStableLaw) and law.dim == 1):
        raise ConfigurationError("path simulation is implemented for dimension 1 only")
    if not 0.0 < horizon < np.inf:
        raise DomainError(f"horizon must be finite and positive, got {horizon}")
    m = law.marginals[0]
    y0 = default_floor(m, horizon) if floor is None else float(floor)
    with np.errstate(over="ignore"):  # V(y0) = inf is refused below
        v0 = m.v(y0)
    if not 0.0 < v0 < np.inf:
        if floor is None:
            raise DomainError(
                f"horizon {horizon!r} gives a default floor of {y0!r} outside the support, "
                "where 0 < V(floor) < inf; give a floor with --floor"
            )
        raise DomainError(f"floor must lie inside the support, where 0 < V(floor) < inf; got {y0}")
    return m, y0, v0


def _states(marginal, levels, message):
    """``marginal.vinv(levels)``; ``DomainError(message)`` where a level or a state leaves the floats.

    Call it with overflow and division warnings off: the overflows it refuses.
    """
    states = marginal.vinv(levels)
    # a subnormal level may repeat, and an infinite level or state is no number (NaN fails too)
    if not (levels.min(initial=_MAX) >= _TINY and levels.max(initial=_TINY) <= _MAX
            and states.min(initial=0.0) >= -_MAX and states.max(initial=0.0) <= _MAX):
        raise DomainError(message)
    return states


def _jump_chain(marginal, v0, horizon, rngs, sizes):
    """Jump counts, then flat jump times and states, of paths started at level ``v0``.

    ``sizes[j]`` paths read generator ``rngs[j]``: first the exponentials of
    their first jump times, then at each jump index a block of uniforms for
    the levels and a block of exponentials for the next jump times of those
    still below the horizon.  The arithmetic of a jump index runs once on
    the paths of every generator; each path's jumps are then placed at the
    offset its count gives, and the levels are mapped to states once.
    """
    bounds = np.cumsum([0, *sizes])
    n = int(bounds[-1])
    t = np.empty(n)
    for rng, a, b in zip(rngs, bounds[:-1], bounds[1:]):
        rng.standard_exponential(out=t[a:b])  # the bits of rng.exponential(size=b - a)
    # an overflowing time lies past the horizon; an overflowing state is caught by _states
    with np.errstate(over="ignore", divide="ignore"):
        ids, t, v = np.arange(n), t / v0, np.full(n, v0)
        jumps = [(ids[:0], t[:0], v[:0])]
        while True:
            alive = t <= horizon
            ids, t, v = ids[alive], t[alive], v[alive]
            if not ids.size:
                break
            u, e = np.empty(ids.size), np.empty(ids.size)
            cuts = np.searchsorted(ids, bounds).tolist()
            for rng, a, b in zip(rngs, cuts[:-1], cuts[1:]):
                if a < b:
                    rng.random(out=u[a:b])
                    rng.standard_exponential(out=e[a:b])
            v = v * np.maximum(u, 2.0**-54)  # open_uniform: a uniform 0 moves to 2^-54
            jumps.append((ids, t, v))
            t = t + e / v
        ids, t, v = (np.concatenate(c) for c in zip(*jumps))
        counts = np.bincount(ids, minlength=n)
        # jump k of path i goes k places after the path's first slot; jumps[0] is empty
        k = np.repeat(np.arange(-1, len(jumps) - 1), [len(j[0]) for j in jumps])
        slots = (np.cumsum(counts) - counts)[ids] + k
        times, levels = np.empty_like(t), np.empty_like(v)
        times[slots], levels[slots] = t, v
        return counts, times, _states(marginal, levels, _PATH_RANGE)


def simulate_path(law, horizon, rng, floor=None):
    """Exact jump-chain realization of a univariate extremal process on (0, horizon].

    Any marginal type: the chain runs in V-space from V0 = V(floor), with
    V_{k+1} = V_k U_k and t_{k+1} = t_k + E_k / V_k, and each level is
    mapped back to a state through ``vinv``.  The one path comes as ``PathColumns``.
    """
    m, y0, v0 = _path_marginal(law, horizon, floor)
    counts, times, states = _jump_chain(m, v0, horizon, [rng], [1])
    return PathColumns(counts, times, states, float(horizon), y0)


def simulate_path_columns(law, horizon, n_paths, seed, floor=None):
    """``n_paths`` independent paths as ``PathColumns``, a run of substream chunks at a time."""
    m, y0, v0 = _path_marginal(law, horizon, floor)
    groups = chunked_list(
        seed, n_paths, lambda rngs, sizes: _jump_chain(m, v0, horizon, rngs, sizes)
    )
    counts, times, states = (np.concatenate(c) for c in zip(*groups))
    return PathColumns(counts, times, states, float(horizon), y0)


def sample_Y_at_time(law, t, rng, size):
    """``size`` exact draws of Y(t): per coordinate, exp(-t V) inverted as the state of level E/t.

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
    if law.dim == 1 or law.dependence == COMPLETE_DEPENDENCE:
        draws = [rng.exponential(size=size)] * law.dim
    else:
        draws = list(rng.exponential(size=(size, law.dim)).T)
    with np.errstate(over="ignore", divide="ignore"):
        cols = [_states(m, e / t, _Y_RANGE) for m, e in zip(law.marginals, draws)]
    return cols[0] if law.dim == 1 else np.column_stack(cols)
