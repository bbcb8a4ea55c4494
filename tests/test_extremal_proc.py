import math

import numpy as np
import pytest

from randmax import (
    ConfigurationError,
    Degenerate,
    DomainError,
    Frechet,
    Geometric,
    Gumbel,
    MaxStableLaw,
    MittagLeffler,
    NMaxStableLaw,
    ReverseWeibull,
    default_floor,
    ks_critical,
    ks_distance,
    ks_two_sample,
    run_thm32,
    sample_Y_at_time,
    simulate_path,
    simulate_path_columns,
    substream,
    univariate,
)
from randmax.extremal_proc import _path_marginal
from randmax.streams import CHUNK_PATHS, open_uniform
from oracles import final_states, marginal_cdf

FRECHET1 = univariate(Frechet(1.0))


def record_count_mean(horizon, rate):
    """Expected number of resolved states above a level with V(level) = rate.

    The states above the level are the records of the driving arrivals
    there, so the mean is the integral over (0, T] of (1 - exp(-t*rate))/t,
    evaluated by Gauss-Legendre quadrature.
    """
    u, w = np.polynomial.legendre.leggauss(200)
    t = 0.5 * horizon * (u + 1.0)
    w = 0.5 * horizon * w
    return float(np.sum(w * -np.expm1(-t * rate) / t))


# ---------------------------------------------------------------------------
# marginal law
# ---------------------------------------------------------------------------


def test_marginal_cdf_values():
    assert marginal_cdf(FRECHET1, 1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert marginal_cdf(FRECHET1, 2.0, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    biv = MaxStableLaw((Frechet(1.0), Frechet(1.0)))
    assert marginal_cdf(biv, 0.5, (1.0, 1.0)) == pytest.approx(math.exp(-1.0), abs=1e-15)
    with pytest.raises(DomainError):
        marginal_cdf(FRECHET1, 0.0, 1.0)
    with pytest.raises(DomainError):
        marginal_cdf(FRECHET1, -1.0, 1.0)


def test_default_floor_is_small_quantile():
    floor = default_floor(Frechet(1.0), 1.0)
    # P(Y(T/1000) <= floor) = 0.001
    assert marginal_cdf(FRECHET1, 1e-3, floor) == pytest.approx(1e-3, rel=1e-10)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------


def test_path_monotone_and_in_horizon():
    for idx in range(200):
        path = simulate_path(FRECHET1, 1.0, substream(40, idx), floor=0.01)
        assert np.all(np.diff(path.states) > 0.0)
        assert np.all(np.diff(path.times) > 0.0)
        if path.counts[0]:
            assert 0.0 < path.times[0] and path.times[-1] <= 1.0
            assert path.states[0] > 0.01


def test_path_rejects_unsupported():
    with pytest.raises(ConfigurationError):
        simulate_path(MaxStableLaw((Frechet(1.0), Frechet(1.0))), 1.0, substream(41))
    with pytest.raises(DomainError):
        simulate_path(FRECHET1, -1.0, substream(41))
    with pytest.raises(DomainError):
        simulate_path(FRECHET1, 1.0, substream(41), floor=-0.5)
    with pytest.raises(DomainError):
        simulate_path(FRECHET1, 1.0, substream(41), floor=float("nan"))
    with pytest.raises(DomainError):  # V = 0 at and above the upper endpoint
        simulate_path(univariate(ReverseWeibull(2.0)), 1.0, substream(41), floor=0.5)


def test_path_terminal_probability_horizon_ten():
    finals = final_states(simulate_path_columns(FRECHET1, 10.0, 10_000, seed=42, floor=0.01))
    assert abs((finals <= 10.0).mean() - math.exp(-1.0)) < 0.015


def test_path_terminal_marginal_ks():
    horizon = 1.0
    finals = np.sort(final_states(simulate_path_columns(FRECHET1, horizon, 10_000, seed=43)))
    distance = ks_distance(finals, lambda x: marginal_cdf(FRECHET1, horizon, x))
    assert distance < ks_critical(10_000)


def test_path_jump_count_matches_record_law():
    # the states above a level are records of the arrivals above it; their
    # mean count is integral_0^T (1 - exp(-t V(level)))/t dt, not T*V(level)
    paths = simulate_path_columns(FRECHET1, 1.0, 10_000, seed=44)
    counts = np.bincount(paths.path_ids()[paths.states > 1.0], minlength=10_000).astype(float)
    oracle = record_count_mean(1.0, 1.0)
    assert oracle == pytest.approx(0.7966, abs=1e-4)
    se = counts.std() / math.sqrt(counts.size)
    assert abs(counts.mean() - oracle) < 3.0 * se


@pytest.mark.parametrize("marginal", [Gumbel(), ReverseWeibull(2.0)], ids=repr)
def test_other_marginal_paths(marginal):
    law = univariate(marginal)
    horizon = 2.0
    paths = simulate_path_columns(law, horizon, 10_000, seed=47)
    same_path = np.diff(paths.path_ids()) == 0
    assert np.all(np.diff(paths.states)[same_path] > 0.0)
    assert np.all(np.diff(paths.times)[same_path] > 0.0)
    assert np.all(paths.states > paths.floor)
    assert np.all((paths.times > 0.0) & (paths.times <= horizon))
    finals = np.sort(final_states(paths))
    distance = ks_distance(finals, lambda x: marginal_cdf(law, horizon, x))
    assert distance < ks_critical(10_000)


@pytest.mark.filterwarnings("error")
def test_path_states_beyond_float_range_rejected():
    # at horizon 1e300 the last levels are near 1e-300: still normal floats
    for marginal in (Frechet(1.0), Gumbel()):
        path = simulate_path(univariate(marginal), 1e300, substream(49))
        assert path.counts[0] > 0 and np.all(np.isfinite(path.states))
    # at 1e308 levels near 1e-308 turn subnormal and states 1/V overflow
    with pytest.raises(DomainError, match="float range"):
        simulate_path_columns(FRECHET1, 1e308, 50, seed=49)
    # states V^(-100) exceed 1.8e308 once a level falls below about 8e-4,
    # which by time 1e4 nearly every path has done
    with pytest.raises(DomainError, match="float range"):
        simulate_path_columns(univariate(Frechet(0.01)), 1e4, 50, seed=49, floor=1.0)


def reference_chain(marginal, v0, horizon, rng, n):
    """One chunk's ``n`` paths advanced alone, sorted into path order by a stable argsort."""
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
        order = np.argsort(ids, kind="stable")
        states = marginal.vinv(v[order])
    return np.bincount(ids, minlength=n), t[order], states


@pytest.mark.parametrize("marginal", [Frechet(1.0), Gumbel(), ReverseWeibull(2.0)],
                         ids=["frechet", "gumbel", "reverse-weibull"])
@pytest.mark.parametrize("low_floor", [False, True], ids=["default-floor", "floor-at-V-1e8"])
@pytest.mark.parametrize("n_paths", [1, 99, 100, 101, "group-1", "group", "group+1", "3groups+7"])
def test_lockstep_chain_matches_per_chunk_chain(marginal, low_floor, n_paths):
    group = CHUNK_PATHS
    n_paths = {"group-1": group - 1, "group": group, "group+1": group + 1,
               "3groups+7": 3 * group + 7}.get(n_paths, n_paths)
    law, horizon, seed = univariate(marginal), 2.0, 71
    floor = float(marginal.vinv(1e8)) if low_floor else None  # 1e-8 for Frechet(1)
    m, _, v0 = _path_marginal(law, horizon, floor)
    parts = [
        reference_chain(m, v0, horizon, substream(seed, index), min(CHUNK_PATHS, n_paths - start))
        for index, start in enumerate(range(0, n_paths, CHUNK_PATHS))
    ]
    expected = [np.concatenate(c) for c in zip(*parts)]
    got = simulate_path_columns(law, horizon, n_paths, seed, floor=floor)
    for a, b in zip((got.counts, got.times, got.states), expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("marginal", [Frechet(1.0), Gumbel(), ReverseWeibull(2.0)],
                         ids=["frechet", "gumbel", "reverse-weibull"])
def test_single_path_matches_per_chunk_chain(marginal):
    law = univariate(marginal)
    m, floor, v0 = _path_marginal(law, 3.0, None)
    for index in range(20):
        path = simulate_path(law, 3.0, substream(72, index))
        _, times, states = reference_chain(m, v0, 3.0, substream(72, index), 1)
        assert path.floor == floor
        assert path.times.tobytes() == times.tobytes()
        assert path.states.tobytes() == states.tobytes()


# ---------------------------------------------------------------------------
# exact marginal sampling
# ---------------------------------------------------------------------------


def test_sample_Y_probability():
    draws = sample_Y_at_time(FRECHET1, 1.0, substream(46), size=100_000)
    assert abs((draws <= 1.0).mean() - math.exp(-1.0)) < 0.005


def test_sample_Y_homogeneity_quartiles():
    # at four times the horizon the Frechet(1) draw scales by four
    a = sample_Y_at_time(FRECHET1, 1.0, substream(47), size=100_000)
    b = sample_Y_at_time(FRECHET1, 4.0, substream(48), size=100_000)
    for q in (0.25, 0.5, 0.75):
        ratio = np.quantile(b, q) / np.quantile(a, q)
        assert abs(ratio - 4.0) < 0.08, q


def test_sample_Y_marginal_ks_all_types():
    for marginal in (Frechet(2.0), Gumbel(), ReverseWeibull(1.0)):
        law = univariate(marginal)
        draws = np.sort(sample_Y_at_time(law, 3.0, substream(49), size=100_000))
        distance = ks_distance(draws, lambda x: marginal_cdf(law, 3.0, x))
        assert distance < ks_critical(100_000), marginal


def test_sample_Y_complete_dependence_comonotone():
    law = MaxStableLaw((Frechet(1.0), Frechet(1.0)), dependence="complete")
    draws = sample_Y_at_time(law, 2.0, substream(50), size=1_000)
    assert draws.shape == (1_000, 2)
    assert np.array_equal(draws[:, 0], draws[:, 1])


def test_sample_Y_independence_is_product():
    law = MaxStableLaw((Frechet(1.0), Frechet(1.0)))
    draws = sample_Y_at_time(law, 1.0, substream(51), size=100_000)
    joint = ((draws[:, 0] <= 1.0) & (draws[:, 1] <= 1.0)).mean()
    assert abs(joint - math.exp(-2.0)) < 0.005


def test_sample_Y_rejects_logistic():
    law = MaxStableLaw((Frechet(1.0), Frechet(1.0)), dependence="logistic", r=0.5)
    with pytest.raises(ConfigurationError, match="CDF"):
        sample_Y_at_time(law, 1.0, substream(52), size=10)
    with pytest.raises(DomainError):
        sample_Y_at_time(FRECHET1, 0.0, substream(52), size=10)


def test_independent_max_increments():
    # max(Y(s), Y'(t-s)) with an independent restart matches Y(t),
    # checked on the dyadic split s = t/2
    s, t, n = 0.5, 1.0, 10_000
    ya = sample_Y_at_time(FRECHET1, s, substream(53), size=n)
    yb = sample_Y_at_time(FRECHET1, t - s, substream(54), size=n)
    combined = np.maximum(ya, yb)
    direct = sample_Y_at_time(FRECHET1, t, substream(55), size=n)
    critical = 1.628 * math.sqrt(2.0 / n)
    assert ks_two_sample(combined, direct) < critical
    # and against the analytic law
    assert ks_distance(np.sort(combined), lambda x: marginal_cdf(FRECHET1, t, x)) < ks_critical(n)


# ---------------------------------------------------------------------------
# subordination
# ---------------------------------------------------------------------------


def test_subordination_degenerate_reduces_to_base():
    report = run_thm32(Degenerate(), FRECHET1, 100_000, seed=56)
    assert report.passed
    assert report.stats["critical"] == pytest.approx(1.628 / math.sqrt(100_000))


def test_subordination_geometric_point_probability():
    # P(Y(Z) <= 1) = integral exp(-t) exp(-t) dt = 1/2
    report = run_thm32(Geometric(), FRECHET1, 100_000, seed=57)
    assert report.passed
    grid_rows = [row for row in report.tables[0].rows if row[1] == 1.0]
    assert len(grid_rows) == 1
    _, _, empirical, analytic = grid_rows[0]
    assert analytic == pytest.approx(0.5, abs=1e-15)
    assert abs(empirical - 0.5) < 0.005


def test_subordination_mittag_leffler():
    report = run_thm32(MittagLeffler(0.5), FRECHET1, 100_000, seed=58)
    assert report.passed
    # closed form of the composed law at x: 1/(1 + x^(-1/2))
    x = np.asarray(Frechet.grid)
    nlaw = NMaxStableLaw(MittagLeffler(0.5), FRECHET1)
    assert np.abs(nlaw.cdf(x) - 1.0 / (1.0 + x**-0.5)).max() < 1e-14


def test_subordination_bivariate_marginals():
    for dependence in ("independence", "complete"):
        law = MaxStableLaw((Frechet(1.0), Frechet(1.0)), dependence=dependence)
        report = run_thm32(Geometric(), law, 100_000, seed=59)
        assert report.passed, dependence
        assert {row[0] for row in report.tables[0].rows} == {0, 1}


def test_subordination_all_family_marginal_combinations():
    families = (Geometric(), MittagLeffler(0.5), Degenerate())
    marginals = (Frechet(1.0), Frechet(2.0), Gumbel(), ReverseWeibull(1.0))
    for idx, family in enumerate(families):
        for jdx, marginal in enumerate(marginals):
            report = run_thm32(family, univariate(marginal), 30_000, seed=1000 + 10 * idx + jdx)
            assert report.passed, (family.name, marginal)


def test_subordination_rejects_logistic():
    law = MaxStableLaw((Frechet(1.0), Frechet(1.0)), dependence="logistic", r=0.5)
    with pytest.raises(ConfigurationError):
        run_thm32(Geometric(), law, 1_000, seed=60)
