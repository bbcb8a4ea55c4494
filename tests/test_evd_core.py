import math
import warnings

import numpy as np
import pytest

from randmax import (
    ConfigurationError,
    DomainError,
    Frechet,
    Geometric,
    Gumbel,
    MaxStableLaw,
    NMaxStableLaw,
    Pareto,
    PoissonMax,
    ReverseWeibull,
    StdUniform,
    UnitExponential,
    doa_gap,
    ks_critical,
    ks_distance,
    run_definetti,
    run_thm24,
    standard_points,
    standard_triple,
    substream,
    univariate,
)
from randmax import evd_core
from randmax._csvtext import format_value
from oracles import marginal_ppf, norming, ppf, sample_base

MARGINALS = [Frechet(1.0), Frechet(2.0), Gumbel(), ReverseWeibull(1.0), ReverseWeibull(2.0)]
BASES = [Pareto(1.0), UnitExponential(), StdUniform()]


def bivariate(dependence, r=None):
    return MaxStableLaw((Frechet(1.0), Frechet(1.0)), dependence=dependence, r=r)


# ---------------------------------------------------------------------------
# CDF evaluation and exponent measures
# ---------------------------------------------------------------------------


def test_ms_cdf_univariate_examples():
    assert univariate(Frechet(1.0)).cdf(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert univariate(Gumbel()).cdf(1e6) == pytest.approx(1.0, abs=1e-12)
    assert univariate(Frechet(1.0)).cdf(-3.0) == 0.0
    assert univariate(ReverseWeibull(1.0)).cdf(0.5) == 1.0


def test_ms_cdf_logistic_example():
    law = bivariate("logistic", r=0.5)
    # V(x, y) = (x^(-1/r) + y^(-1/r))^r with r = 0.5 gives sqrt(2) at (1, 1)
    assert law.cdf((1.0, 1.0)) == pytest.approx(math.exp(-math.sqrt(2.0)), abs=1e-14)


def test_exponent_measure_closed_forms():
    law = univariate(Frechet(1.0))
    assert law.v(2.0) == pytest.approx(0.5, abs=1e-15)
    assert univariate(Gumbel()).v(0.0) == 1.0
    assert univariate(ReverseWeibull(2.0)).v(-2.0) == 4.0
    assert univariate(ReverseWeibull(2.0)).v(1.0) == 0.0
    assert bivariate("independence").v((1.0, 1.0)) == pytest.approx(2.0)
    assert bivariate("complete").v((1.0, 2.0)) == pytest.approx(1.0)


def test_cdf_matches_exponent_measure_everywhere():
    for marginal in MARGINALS:
        law = univariate(marginal)
        grid = np.asarray(marginal.grid)
        assert np.abs(np.exp(-law.v(grid)) - law.cdf(grid)).max() < 1e-14
    for law in [bivariate("independence"), bivariate("complete"), bivariate("logistic", 0.3)]:
        pts = standard_points(law)
        assert np.abs(np.exp(-law.v(pts)) - law.cdf(pts)).max() < 1e-14


def test_v_monotone_and_vanishing():
    for marginal in MARGINALS:
        law = univariate(marginal)
        grid = np.linspace(-20.0, 60.0, 400)
        v = law.v(grid)
        finite = np.isfinite(v)
        assert np.all(np.diff(v[finite]) <= 0.0)
        # +inf occurs only to the left of the support, never after a finite value
        assert not np.any(finite[:-1] & ~finite[1:])
        assert law.v(1e12) < 1e-10


def test_max_stability_identity():
    laws = [univariate(m) for m in MARGINALS]
    laws += [bivariate("independence"), bivariate("complete"), bivariate("logistic", 0.4)]
    for law in laws:
        pts = standard_points(law)
        h = np.atleast_1d(law.cdf(pts))
        for t in (2.0, 5.0, 10.0):
            a, b = norming(law, t)
            scaled = np.atleast_1d(law.cdf(a * pts + b)) ** t
            assert np.abs(scaled - h).max() < 1e-12, (law, t)


def test_frechet_standard_homogeneity():
    for law in [univariate(Frechet(1.0)), bivariate("independence"), bivariate("logistic", 0.7)]:
        pts = standard_points(law)
        v = np.atleast_1d(law.v(pts))
        for t in (2.0, 5.0):
            assert np.abs(law.v(t * pts) - v / t).max() < 1e-12


def test_logistic_limits():
    pts = standard_points(bivariate("independence"))
    independent = bivariate("independence").v(pts)
    assert np.abs(bivariate("logistic", 1.0).v(pts) - independent).max() < 1e-14
    # r near 0 approaches complete dependence
    assert abs(bivariate("logistic", 0.01).v((1.0, 1.0)) - 1.0) < 0.05


def test_law_validation():
    with pytest.raises(ConfigurationError):
        MaxStableLaw((Frechet(1.0),), dependence="logistic", r=0.5)
    with pytest.raises(ConfigurationError):
        bivariate("logistic", r=1.5)
    with pytest.raises(ConfigurationError):
        bivariate("logistic")  # missing r
    with pytest.raises(ConfigurationError):
        MaxStableLaw((Frechet(2.0), Frechet(1.0)), dependence="logistic", r=0.5)
    with pytest.raises(ConfigurationError):
        bivariate("nonsense")
    with pytest.raises(ConfigurationError):
        Frechet(-1.0)
    for bad in (math.nan, math.inf):
        for make in (Frechet, ReverseWeibull, Pareto):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                make(bad)


THREE_FRECHET = (Frechet(1.0),) * 3


@pytest.mark.parametrize("call, error, message", [
    (lambda: MaxStableLaw(()), ConfigurationError, "at least one marginal is required"),
    (lambda: MaxStableLaw((Pareto(1.0),)), ConfigurationError, "unsupported marginal type"),
    (lambda: MaxStableLaw(THREE_FRECHET, dependence="logistic", r=0.5), ConfigurationError,
     "logistic dependence is bivariate only"),
    (lambda: bivariate("independence").v((1.0, 2.0, 3.0)), DomainError,
     r"expected points with last axis of length 2, got shape \(3,\)"),
    (lambda: standard_points(MaxStableLaw(THREE_FRECHET)), ConfigurationError,
     "standard grids are provided for dimensions 1 and 2 only"),
    (lambda: evd_core.normed_base(Frechet(1.0), 10), ConfigurationError, "unsupported base law"),
    (lambda: doa_gap(Frechet(1.0), 10), ConfigurationError, "unsupported base law"),
], ids=["no-marginal", "non-marginal", "logistic-3d", "v-axis", "points-3d", "normed-base",
        "doa-gap"])
def test_law_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------------------
# Poisson maxima
# ---------------------------------------------------------------------------


def test_poisson_max_cdf():
    base = Pareto(1.0)
    assert PoissonMax(1.0, StdUniform()).cdf(1.0) == 1.0
    assert PoissonMax(2.0, base).cdf(2.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    with pytest.raises(DomainError):
        PoissonMax(0.0, base).cdf(1.0)
    with pytest.raises(DomainError):
        PoissonMax(-1.0, base).cdf(1.0)


def test_poisson_max_approaches_frechet():
    # exp(-n (1 - G(a_n x))) at x = 1 converges to exp(-1)
    n = 10_000
    value = PoissonMax(n, Pareto(1.0)).cdf(n * 1.0)
    assert abs(value - math.exp(-1.0)) < 1e-4


# ---------------------------------------------------------------------------
# attraction triples
# ---------------------------------------------------------------------------


def test_doa_gap_pareto_hand_value():
    triple = standard_triple("pareto", 1.0)
    points = np.array([1.0])
    s, v = triple.normed(100).sf(points), triple.target.v(points)
    tail_gap, cdf_gap = evd_core.tail_gap(100, s, v), evd_core.cdf_gap(100, s, v)
    expected = abs(0.99**100 - math.exp(-1.0))  # direct arithmetic
    assert cdf_gap == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.0019, abs=2e-4)
    assert tail_gap < 1e-12  # the Pareto tail is exact under its norming


def test_doa_gap_far_tail_in_survival_space():
    # n(1 - G(a_n x + b_n)) cancels once 1 - G nears the float spacing at 1; the normed survival
    # keeps its digits, in the classical, de Finetti and paired random-maximum gaps alike
    for name in ("pareto", "exponential", "uniform"):
        base = standard_triple(name)
        for n in (10**12, 10**16):
            tail_gap, cdf_gap = doa_gap(base, n)
            assert tail_gap < 1e-12 and cdf_gap < 1e-12, (name, n)
            assert run_definetti(Geometric(), base, ns=(n,)).stats["final_gap"] < 1e-12, (name, n)
            ((_, det_gap, ran_gap),) = run_thm24(Geometric(), base, ns=(n,)).tables[0].rows
            assert det_gap < 1e-12 and ran_gap < 1e-12, (name, n)


NORMED = [
    # base, its norming (a_n, b_n), and its raw survival 1 - G(z)
    (Pareto(1.0), lambda n: (n, 0.0), lambda z: np.minimum(z ** -1.0, 1.0)),
    (Pareto(2.5), lambda n: (n ** 0.4, 0.0), lambda z: np.minimum(z ** -2.5, 1.0)),
    (UnitExponential(), lambda n: (1.0, math.log(n)), lambda z: np.exp(-z)),
    (StdUniform(), lambda n: (1.0 / n, 1.0), lambda z: 1.0 - z),
]


@pytest.mark.parametrize("n", [10, 10_000])
@pytest.mark.parametrize("base, norming, raw_sf", NORMED, ids=[case[0].name for case in NORMED])
def test_normed_law_matches_the_raw_normed_form(base, norming, raw_sf, n):
    # oracle: (X - b_n)/a_n through raw points, at survival levels where 1 - G does not cancel
    # and n S stays away from 1, where -log(S) - log(n) would
    a, b = norming(n)
    levels = np.array([0.9, 0.5, 0.2, 0.02, 0.002])
    x = (base.isf(levels) - b) / a
    law = base.normed(n)
    np.testing.assert_allclose(law.isf(levels), x, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(law.sf(x), raw_sf(a * x + b), rtol=1e-12, atol=0.0)
    assert law.sf(-1e6) == 1.0  # below the support, or an overflowing form, with no warning
    assert math.isnan(law.sf(math.nan))


def test_doa_gap_exponential_grid():
    triple = standard_triple("exponential")
    points = np.linspace(-1.0, 5.0, 61)
    s, v = triple.normed(10_000).sf(points), triple.target.v(points)
    tail_gap, cdf_gap = evd_core.tail_gap(10_000, s, v), evd_core.cdf_gap(10_000, s, v)
    assert tail_gap < 1e-3
    assert cdf_gap < 1e-3


def test_doa_gap_tail_small_at_final_n():
    for name in ("pareto", "exponential", "uniform"):
        tail_gap, _ = doa_gap(standard_triple(name), 10_000)
        assert tail_gap < 1e-3, name


def test_doa_gap_decreasing_in_n():
    for name in ("pareto", "exponential", "uniform"):
        triple = standard_triple(name)
        gaps = [doa_gap(triple, n)[1] for n in (10, 100, 1_000, 10_000)]
        assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(3)), name
        assert doa_gap(triple, 10_000)[1] < doa_gap(triple, 10)[1] + 1e-12


def test_triple_targets():
    assert standard_triple("pareto", 2.0).target == Frechet(2.0)
    assert standard_triple("exponential").target == Gumbel()
    assert standard_triple("uniform").target == ReverseWeibull(1.0)
    with pytest.raises(ConfigurationError):
        standard_triple("cauchy")


# ---------------------------------------------------------------------------
# base sampling
# ---------------------------------------------------------------------------


def test_sample_base_support_and_moments():
    draws = sample_base(Pareto(1.0), substream(21), 100_000)
    assert draws.min() >= 1.0
    assert abs((draws <= 2.0).mean() - 0.5) < 0.005
    uniform = sample_base(StdUniform(), substream(22), 100_000)
    assert abs(uniform.mean() - 0.5) < 0.005


def test_sample_base_ks():
    for base in BASES:
        draws = np.sort(sample_base(base, substream(23), 100_000))
        distance = ks_distance(draws, base.cdf)
        assert distance < ks_critical(100_000), base


def test_sample_base_product():
    pair = sample_base((Pareto(1.0), StdUniform()), substream(24), 1_000)
    assert pair.shape == (1_000, 2)
    assert pair[:, 0].min() >= 1.0
    assert 0.0 <= pair[:, 1].min() and pair[:, 1].max() <= 1.0


def test_marginal_ppf_round_trip():
    u = np.linspace(0.01, 0.99, 50)
    for marginal in MARGINALS:
        assert np.abs(marginal.cdf(marginal_ppf(marginal, u)) - u).max() < 1e-12
    for base in BASES:
        assert np.abs(base.cdf(ppf(base, u)) - u).max() < 1e-12


@pytest.mark.parametrize("marginal", [Frechet(1.0), Gumbel(), ReverseWeibull(1.0)])
def test_nan_propagates_and_far_left_tail_is_quiet(marginal):
    assert math.isnan(marginal.v(math.nan))
    assert math.isnan(marginal.cdf(math.nan))
    with pytest.raises(DomainError):
        NMaxStableLaw(Geometric(), univariate(marginal)).cdf(math.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # Gumbel's v overflows here
        assert marginal.cdf(-1000.0) == 0.0


@pytest.mark.parametrize("marginal", MARGINALS, ids=repr)
def test_v_and_vinv_leave_their_input_unchanged(marginal):
    # an array argument reaches v and vinv as the caller's own array: neither may write into it
    for f, arg in ((marginal.v, [-2.0, -0.0, 0.0, 0.5, 3.0, math.nan]),
                   (marginal.vinv, [0.0, 0.5, 1.0, 4.0, math.inf, math.nan])):
        arg = np.array(arg)
        before = arg.tobytes()
        f(arg)
        assert arg.tobytes() == before, f


def test_standard_quantile_at_zero_prints_zero():
    # 0 - log(1) and 0 - 0^(1/alpha) are +0, where -log(1) and -(0^(1/alpha)) would print -0
    assert format_value(Gumbel().vinv(1.0)) == "0"
    assert format_value(ReverseWeibull(1.0).vinv(0.0)) == "0"


# ---------------------------------------------------------------------------
# Level grids
# ---------------------------------------------------------------------------

# the smallest and largest admitted shapes as numpy's power gives them on x86-64: below the first
# a grid point leaves the normal floats, above the second two grid points round to the same float;
# the tests stay a relative 1e-7 away from each, so an ulp of another power does not move them
SHAPE_RANGES = {Frechet: (0.0029296875, 3745988860899155.5),
                ReverseWeibull: (0.0019569471624266144, 4162209845443507.0)}
MARGIN = 1e-7


def _admitted_shapes(cls, count=200):
    low, high = SHAPE_RANGES[cls]
    low, high = low * (1.0 + MARGIN), high * (1.0 - MARGIN)
    drawn = np.exp(np.random.default_rng(11).uniform(np.log(low), np.log(high), count))
    return [low, *drawn.tolist(), high]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cls", [Frechet, ReverseWeibull], ids=lambda cls: cls.__name__)
def test_level_grid_is_increasing_normal_floats_with_finite_v(cls):
    for alpha in _admitted_shapes(cls):
        marginal = cls(alpha)
        grid = marginal.grid
        assert np.all((np.abs(grid) >= np.finfo(float).tiny) & np.isfinite(grid)), alpha
        assert np.all(grid[1:] > grid[:-1]), alpha
        assert np.all(np.isfinite(marginal.v(grid))), alpha


def test_default_level_grids_are_the_literal_grids():
    for marginal, literal in ((Frechet(1.0), (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)),
                              (ReverseWeibull(1.0), (-4.0, -2.0, -1.0, -0.5, -0.25)),
                              (Gumbel(), (-1.0, 0.0, 1.0, 2.0, 4.0))):
        grid = marginal.grid
        assert grid.tobytes() == np.array(literal).tobytes(), marginal  # the sign of 0 included


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cls", [Frechet, ReverseWeibull], ids=lambda cls: cls.__name__)
def test_unresolved_level_grids_are_refused(cls):
    low, high = SHAPE_RANGES[cls]
    for alpha in (1e-300, 1e-3, low * (1.0 - MARGIN), high * (1.0 + MARGIN), 1e16, 1e300):
        marginal = cls(alpha)
        with pytest.raises(DomainError, match="the grid of .* lies beyond the float range"):
            marginal.grid
