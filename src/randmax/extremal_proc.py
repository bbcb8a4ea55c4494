"""Extremal processes and random-time subordination.

An extremal process driven by a max-stable law has marginals
P(Y(t) <= x) = exp(-t V(x)).  Trajectories are resolved above an explicit
floor y0 (the exponent measure is infinite near the lower corner, so some
floor is unavoidable).  In V-space the jump chain is the same for every
marginal type: the process first exceeds the floor at an exponential time
with rate V0 = V(y0); from the level V_k it holds for an exponential time
with rate V_k and jumps to V_{k+1} = V_k U_k with U_k uniform on (0, 1),
since P(W <= w | W > y) = 1 - V(w)/V(y).  So t_{k+1} = t_k + E_k / V_k,
and the states are the levels mapped back through ``vinv``.  The paths of
one substream chunk advance together, one jump index at a time.

Evaluating the process at an independent random time Z drawn from the
mixer (the variable whose Laplace transform is phi) reproduces the
count-mixed law phi(V(x)); ``verify_harness.run_thm32`` checks this by a
seeded Kolmogorov-Smirnov comparison on the levels E/Z, which
``sample_levels`` draws.  Y(Z) is always sampled exactly via the
conditional law given Z, never through path simulation.
"""

from typing import NamedTuple

import numpy as np

from ._util import MAX, in_floats
from .errors import ConfigurationError, DomainError
from .evd_core import COMPLETE_DEPENDENCE, INDEPENDENCE, MaxStableLaw
from .streams import chunked_list, open_exponential, open_uniform

FLOOR_MASS = 1e-3  # the default floor is this quantile of Y(horizon/1000)


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


def _jump_chain(marginal, v0, horizon, rng, n):
    """Jump counts, then flat jump times and states, of ``n`` paths started at level ``v0``.

    The paths read ``rng``: first the exponentials of their first jump
    times, then at each jump index a block of uniforms for the levels and a
    block of exponentials for the next jump times of those still below the
    horizon.  The arithmetic of a jump index runs once on all ``n`` paths;
    one stable sort by path then puts each path's jumps together, and the
    levels are mapped to states once.
    """
    # an overflowing time lies past the horizon; a subnormal level (which may repeat) and an
    # overflowing state leave the floats, and are refused at the end
    with np.errstate(over="ignore", divide="ignore"):
        ids, t, v = np.arange(n), open_exponential(rng, n) / v0, np.full(n, v0)
        jumps = [(ids[:0], t[:0], v[:0])]
        while True:
            alive = t <= horizon
            ids, t, v = ids[alive], t[alive], v[alive]
            if not ids.size:
                break
            v = v * open_uniform(rng, ids.size)
            jumps.append((ids, t, v))
            t = t + open_exponential(rng, ids.size) / v
        ids, t, v = (np.concatenate(c) for c in zip(*jumps))
        # each jump index's block is in path order, so a stable sort keeps a path's jumps in order
        order = np.argsort(ids, kind="stable")
        states = marginal.vinv(in_floats(v[order], "a level V of a path"))
        states = in_floats(states, "a state of a path", low=-MAX)
        return np.bincount(ids, minlength=n), t[order], states


def simulate_path(law, horizon, rng, floor=None):
    """Exact jump-chain realization of a univariate extremal process on (0, horizon].

    Any marginal type: the chain runs in V-space from V0 = V(floor), with
    V_{k+1} = V_k U_k and t_{k+1} = t_k + E_k / V_k, and each level is
    mapped back to a state through ``vinv``.  The one path comes as ``PathColumns``.
    """
    m, y0, v0 = _path_marginal(law, horizon, floor)
    counts, times, states = _jump_chain(m, v0, horizon, rng, 1)
    return PathColumns(counts, times, states, float(horizon), y0)


def simulate_path_columns(law, horizon, n_paths, seed, floor=None):
    """``n_paths`` independent paths as ``PathColumns``, a substream chunk at a time."""
    m, y0, v0 = _path_marginal(law, horizon, floor)
    chunks = chunked_list(seed, n_paths, lambda rng, n: _jump_chain(m, v0, horizon, rng, n))
    counts, times, states = (np.concatenate(c) for c in zip(*chunks))
    return PathColumns(counts, times, states, float(horizon), y0)


def sample_levels(law, t, rng, size):
    """``size`` draws of the levels E/t whose states are Y(t): Y(t) <= x iff E/t >= V(x).

    Independence draws one exponential per coordinate, a column each;
    complete dependence drives every coordinate with the same exponential,
    so its levels are one column, as for d = 1.  The logistic model is
    evaluation-only and is rejected here, and a level outside the normal
    floats is refused.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0.0)):
        raise DomainError("time must be finite and positive")
    if law.dim >= 2 and law.dependence not in (INDEPENDENCE, COMPLETE_DEPENDENCE):
        raise ConfigurationError(
            "exact sampling supports independence and complete dependence only; "
            "the logistic model ships with CDF evaluation, not a sampler"
        )
    shared = law.dim == 1 or law.dependence == COMPLETE_DEPENDENCE
    e = open_exponential(rng, size if shared else (size, law.dim))
    with np.errstate(over="ignore"):  # t is one time, or one per draw: a row of e
        return in_floats((e.T / t).T, "a level V = E/t of Y(t)")


def sample_Y_at_time(law, t, rng, size):
    """``size`` exact draws of Y(t): per coordinate, the states of ``sample_levels``."""
    levels = sample_levels(law, t, rng, size)
    columns = [levels] * law.dim if levels.ndim == 1 else levels.T
    with np.errstate(over="ignore", divide="ignore"):
        cols = [in_floats(m.vinv(v), "a state of Y(t)", low=-MAX)
                for m, v in zip(law.marginals, columns)]
    return cols[0] if law.dim == 1 else np.column_stack(cols)
