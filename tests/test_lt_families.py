import math
import warnings

import numpy as np
import pytest

from randmax import (
    ConfigurationError,
    CountScheme,
    Degenerate,
    DomainError,
    Frechet,
    Geometric,
    MittagLeffler,
    ks_critical,
    ks_two_sample,
    run_lemma12,
    sample_Y_at_time,
    simulate_path,
    substream,
    univariate,
)
from randmax._util import TINY
from randmax.lt_families import _sine_ratio
from randmax.streams import open_exponential

from oracles import count_mean, pgf, pgf_sf, sample_positive_stable, scheme_pgf

FAMILIES = [Geometric(), MittagLeffler(0.5), Degenerate()]
THETA_GRID = (0.5, 0.1, 0.01)
S_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


# ---------------------------------------------------------------------------
# transform evaluation and inversion
# ---------------------------------------------------------------------------


def test_lt_closed_forms():
    assert Geometric().lt(0.0) == 1.0
    assert Geometric().lt(2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert MittagLeffler(0.5).lt(4.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert Degenerate().lt(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    for family in FAMILIES:
        assert family.lt(0.0) == 1.0


def test_lt_inverse_closed_forms():
    # the survival 1 - phi(s) and its inverse phi^{-1}(1 - s), exact where phi(s) rounds to 1
    assert Geometric().lt_sf(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert MittagLeffler(0.5).lt_sf(4.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert Degenerate().lt_sf(1.0) == pytest.approx(-math.expm1(-1.0), abs=1e-15)
    assert Geometric().lt_inv_sf(0.0) == 0.0
    assert Geometric().lt_inv_sf(0.5) == pytest.approx(1.0, abs=1e-15)
    assert Degenerate().lt_inv_sf(-math.expm1(-2.0)) == pytest.approx(2.0, abs=1e-12)
    for family in FAMILIES:
        assert family.lt_sf(0.0) == 0.0
        assert family.lt_sf(np.inf) == 1.0
    # where 1 - phi(s) rounds to 0 in direct form
    assert Geometric().lt_sf(1e-300) == 1e-300
    assert Degenerate().lt_sf(1e-300) == 1e-300
    assert MittagLeffler(0.5).lt_sf(1e-300) == pytest.approx(1e-150, rel=1e-15)


def test_lt_domain_errors():
    for family in FAMILIES:
        with pytest.raises(DomainError):
            family.lt(-0.1)
        with pytest.raises(DomainError):
            family.lt(math.nan)
        with pytest.raises(DomainError):
            family.lt_sf(-0.1)
        with pytest.raises(DomainError):
            family.lt_sf(math.nan)


def test_lt_monotone_and_limits():
    s = np.linspace(0.0, 50.0, 501)
    for family in FAMILIES:
        phi = family.lt(s)
        assert phi[0] == 1.0
        assert np.all(np.diff(phi) < 0.0)
        assert family.lt(np.inf) == 0.0


def test_round_trip_inverse():
    s = np.concatenate([np.geomspace(1e-300, 1.0, 301), np.linspace(1.0, 10.0, 91)])
    for family in FAMILIES:
        # lt_sf keeps the digits of 1 - phi(s) that 1 - lt(s) loses at small s
        assert np.abs(family.lt_sf(s) - (1.0 - family.lt(s))).max() < 1e-15, family.name
        assert np.abs(family.lt_inv_sf(family.lt_sf(s)) / s - 1.0).max() < 1e-10, family.name


def test_complete_monotonicity_sign_alternation():
    # forward differences of a completely monotone function alternate in sign
    s = np.linspace(0.0, 20.0, 41)
    for family in FAMILIES:
        phi = family.lt(s)
        for order in range(1, 7):
            diffs = np.diff(phi, n=order)
            assert np.all(np.sign(diffs) == (-1.0) ** order), (family.name, order)


# ---------------------------------------------------------------------------
# count scheme
# ---------------------------------------------------------------------------


def test_pgf_endpoints_and_closed_form():
    scheme = CountScheme(Geometric(), 0.5)
    assert scheme_pgf(scheme, 1.0) == 1.0
    assert scheme_pgf(scheme, 0.0) == 0.0
    assert scheme_pgf(scheme, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # geometric closed form theta*s / (1 - (1-theta)*s)
    s = np.linspace(0.0, 1.0, 101)
    for theta in THETA_GRID:
        scheme = CountScheme(Geometric(), theta)
        closed = theta * s / (1.0 - (1.0 - theta) * s)
        assert np.abs(scheme_pgf(scheme, s) - closed).max() < 1e-14


def test_pgf_poincare_example():
    g = Geometric()
    scheme = CountScheme(g, 0.1)
    assert scheme_pgf(scheme, g.lt(0.3)) == pytest.approx(0.25, abs=1e-14)
    assert g.lt(3.0) == 0.25


def test_poincare_identity_grid():
    for family in FAMILIES:
        worst = 0.0
        for theta in THETA_GRID:
            for s in S_GRID:
                residual = abs(pgf(family, theta, family.lt(theta * s)) - family.lt(s))
                worst = max(worst, residual)
        assert worst < 1e-12, family.name


def test_pgf_maps_unit_interval_and_is_nondecreasing():
    s = np.linspace(0.0, 1.0, 201)
    for family in FAMILIES:
        for theta in THETA_GRID:
            values = pgf(family, theta, s)
            assert np.all((values >= 0.0) & (values <= 1.0))
            assert np.all(np.diff(values) >= 0.0)


def test_pgf_from_the_survival():
    u = np.linspace(0.0, 1.0, 201)
    for family in FAMILIES:
        for theta in THETA_GRID:
            assert np.abs(family.pgf_sf(theta, 1.0 - u) - pgf(family, theta, u)).max() < 1e-14
            assert np.isnan(pgf(family, theta, np.array([np.nan, 0.5]))[0])
            assert np.isnan(family.pgf_sf(theta, np.array([np.nan, 0.5]))[0])
    # theta = 1/n and s = v/n, far below the float spacing at 1: P_theta(1 - s) -> 1/(1 + v)
    v = np.array([0.5, 1.0, 2.0])
    assert np.abs(Geometric().pgf_sf(1e-16, 1e-16 * v) - 1.0 / (1.0 + v)).max() < 1e-12


def test_pgf_sf_inv_round_trip():
    # pgf_sf(theta, pgf_sf_inv(theta, u)) = u to within the spacing of the survival in floats
    eps = np.finfo(float).eps
    tail = np.geomspace(1e-6, 0.5, 400)
    u = np.concatenate([tail, 1.0 - tail])
    for family in FAMILIES:
        for theta in (0.5, *(10.0**-k for k in range(1, 301))):
            s = family.pgf_sf_inv(theta, u)
            assert np.all((s > 0.0) & (s < 1.0)), (family.name, theta)
            assert np.abs(family.pgf_sf(theta, s) - u).max() <= 2.0 * eps, (family.name, theta)


def test_closed_form_pgf_sf_keeps_its_digits():
    # the transform route phi(lt_inv_sf(s)/theta) is the reference where its power of s stays
    # normal; the closed form has ends 1 and 0 with no mask, and NaN stays NaN
    s = np.concatenate([np.geomspace(1e-12, 0.5, 200), 1.0 - np.geomspace(1e-12, 0.5, 200)])
    for family in (Geometric(), MittagLeffler(0.5), MittagLeffler(0.1)):
        for theta in THETA_GRID:
            reference = pgf_sf(family, theta, s)
            assert np.abs(family.pgf_sf(theta, s) / reference - 1.0).max() < 1e-13
        ends = family.pgf_sf(0.5, np.array([0.0, 1.0, np.nan]))
        assert ends[0] == 1.0 and ends[1] == 0.0 and np.isnan(ends[2])
    # at small nu, (s/(1 - s))^(1/nu) goes subnormal before the division by theta; the transform
    # route missed u by 2754 and 59208 ulps in these two cases
    u = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    for nu, theta in ((0.05, 7.9e-201), (0.1, 9.1e-261)):
        family = MittagLeffler(nu)
        ulps = np.abs(family.pgf_sf(theta, family.pgf_sf_inv(theta, u)) - u) / np.spacing(u)
        assert ulps.max() <= 8, (nu, theta, ulps.max())


def bits(x):
    """The float64 bit patterns of ``x``, each NaN as one pattern whatever its sign."""
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


def test_degenerate_pgf_sf_is_the_transform_route_bit_for_bit():
    # exp(log1p(-s)/theta) is exp(-((-log1p(-s))/theta)), as negation is exact; the suite turns
    # warnings into errors, so an overflow or log(0) must not warn either
    tail = np.random.default_rng(29).random(2_000)
    ends = [0.0, 1.0, np.nan, 5e-324, 1e-310, TINY, 1e-300, 1.0 - 2.0**-53, 2.0**-53]
    s = np.concatenate([tail, tail**40, 1.0 - tail**40, ends])
    family = Degenerate()
    for theta in (1.0, 1.0 / 3.0, 1e-17, 2.0**-60, TINY):
        assert np.array_equal(bits(family.pgf_sf(theta, s)), bits(pgf_sf(family, theta, s)))


def test_geometric_pgf_sf_inv_is_pgf_sf_bit_for_bit():
    # u = c/(c + s) with c = theta^nu (1 - s) solves to s = c'/(c' + u), c' = theta^nu (1 - u)
    u = np.concatenate([np.random.default_rng(30).random(2_000), [0.0, 1.0, np.nan, 5e-324]])
    for family in (Geometric(), MittagLeffler(0.5), MittagLeffler(0.05)):
        for theta in (0.5, 1e-3, 1e-17, 2.0**-60, TINY):
            assert np.array_equal(bits(family.pgf_sf_inv(theta, u)), bits(family.pgf_sf(theta, u)))


def test_pgf_sf_inv_ends_and_refusals():
    for family in FAMILIES:
        values = family.pgf_sf_inv(0.5, np.array([0.0, 1.0, np.nan]))
        assert values[0] == 1.0 and values[1] == 0.0 and np.isnan(values[2])
        assert isinstance(family.pgf_sf_inv(0.5, 0.25), float)
        for u in (-0.1, 1.1):
            with pytest.raises(DomainError, match=r"p.g.f. value must lie in \[0, 1\]"):
                family.pgf_sf_inv(0.5, u)
        with pytest.raises(ConfigurationError):
            family.pgf_sf_inv(1e-320, 0.5)
    # the geometric closed form by hand: theta = 1/2 and u = 1/3 give c = 1/3 and s = 1/2
    assert Geometric().pgf_sf_inv(0.5, 1.0 / 3.0) == pytest.approx(0.5, rel=1e-15)


def test_theta_validation():
    with pytest.raises(ConfigurationError):
        CountScheme(Geometric(), 1.0)
    with pytest.raises(ConfigurationError):
        CountScheme(Geometric(), 0.0)
    with pytest.raises(ConfigurationError):
        CountScheme(Degenerate(), 0.3)
    CountScheme(Degenerate(), 1.0)  # theta = 1/1 is admissible
    with pytest.raises(ConfigurationError):
        MittagLeffler(1.5)
    with pytest.raises(DomainError):
        scheme_pgf(CountScheme(Geometric(), 0.5), 1.5)


def test_theta_below_the_smallest_normal_float_is_refused():
    # theta * s loses its digits below it, even in survival space
    tiny = np.finfo(float).tiny
    for family in FAMILIES:
        family.validate_theta(tiny)
        for theta in (tiny / 2, 1e-320):
            with pytest.raises(ConfigurationError, match="smallest normal float"):
                family.validate_theta(theta)
    with pytest.raises(DomainError, match="exceeds the int64 range"):
        Degenerate().sample_count(1e-300, substream(0), 3)


def test_degenerate_accepts_its_own_index_in_every_decade_to_2_pow_53():
    # 1/(1/n) misses n by up to about 0.71 n eps, more than 1e-9 from n = 10^7 on; 1/(n + 1/2)
    # lies a relative 1/(2n) from the reciprocal of either integer beside it, so no 1/n rounds to it
    family, rng = Degenerate(), np.random.default_rng(8)
    for decade in range(16):
        low, high = 10**decade, min(10 ** (decade + 1), 2**53)
        for n in [low, high, *rng.integers(low, high, 2_000).tolist()]:
            theta = family.index(n)
            family.validate_theta(theta)
            if n < 10**15:
                assert round(1.0 / theta) == n
            if n < 10**14:
                with pytest.raises(ConfigurationError, match="theta = 1/n for integer n"):
                    family.validate_theta(1.0 / (n + 0.5))


def test_degenerate_admits_every_index():
    # every index(n) = 1/n is admitted, and for n to 1000 and each power of 10 or 2 in int64
    # its count is n; from about 2^52 on, other integers' reciprocals may round to the same float
    family, rng = Degenerate(), np.random.default_rng(30)
    exact = [*range(1, 1001), *(10**k for k in range(19)), *(2**k for k in range(63))]
    wide = [*(10**k for k in range(19, 308)), *(2**k for k in range(63, 1023)),
            *(int(n) for n in rng.integers(1, 2**64, 200, dtype=np.uint64, endpoint=False))]
    for n in exact + wide:
        family.validate_theta(family.index(n))
    for n in exact:
        assert family.sample_count(family.index(n), substream(0), 1).tolist() == [n]


def test_index_and_limit_exponent():
    # theta_n = index(n) gives E N = n; phi(limit_exponent(v)) is the geometric 1/(1 + v)
    v = np.array([0.0, 0.1, 1.0, 10.0, np.inf])
    for family in FAMILIES:
        assert count_mean(family, family.index(1_000)) == pytest.approx(1_000.0)
    for family in (Geometric(), MittagLeffler(0.3), MittagLeffler(0.5)):
        assert np.abs(family.lt(family.limit_exponent(v)) - Geometric().lt(v)).max() < 1e-15
    assert np.array_equal(Degenerate().limit_exponent(v), v)


def test_count_means():
    assert count_mean(Geometric(), 0.25) == 4.0
    assert count_mean(MittagLeffler(0.5), 0.25) == pytest.approx(2.0)
    assert count_mean(Degenerate(), 0.1) == 10.0


def test_sample_count_degenerate():
    scheme = CountScheme(Degenerate(), 0.1)
    assert scheme.sample(substream(0), 1).tolist() == [10]
    draws = scheme.sample(substream(1), 100)
    assert np.all(draws == 10)
    # a decimal theta counts the integer it names, though round(1/1e-18) is 10^18 - 128
    for theta, n in ((1e-18, 10**18), (1e-17, 10**17), (2.0**-60, 2**60), (1 / 3, 3), (1 / 7, 7)):
        assert Degenerate().sample_count(theta, substream(0), 2).tolist() == [n, n]
        assert count_mean(Degenerate(), theta) == n


def test_sample_count_means():
    draws = CountScheme(Geometric(), 0.5).sample(substream(2), 100_000)
    assert abs(draws.mean() - 2.0) < 0.03
    draws = CountScheme(MittagLeffler(0.5), 0.25).sample(substream(3), 100_000)
    assert abs(draws.mean() - 2.0) < 0.03
    assert draws.min() >= 1


def test_sample_count_empirical_pgf():
    # empirical E[s^N] against the p.g.f., three standard errors
    for family, theta in [(Geometric(), 0.5), (MittagLeffler(0.5), 0.25)]:
        scheme = CountScheme(family, theta)
        draws = scheme.sample(substream(4), 100_000)
        for s in (0.25, 0.5, 0.75):
            values = s ** draws.astype(float)
            se = values.std() / math.sqrt(values.size)
            gap = abs(values.mean() - scheme_pgf(scheme, s))
            assert gap < max(3.0 * se, 1e-4), (family.name, s)
            assert gap < 0.01


# ---------------------------------------------------------------------------
# mixer
# ---------------------------------------------------------------------------


def test_mixer_degenerate():
    family = Degenerate()
    assert family.sample_mixer(substream(5), 1).tolist() == [1.0]
    assert np.all(family.sample_mixer(substream(5), 50) == 1.0)


def test_mixer_geometric_is_unit_exponential():
    u = Geometric().sample_mixer(substream(6), 100_000)
    assert abs((u <= 1.0).mean() - (1.0 - math.exp(-1.0))) < 0.005


def test_mixer_mittag_leffler_transform_value():
    u = MittagLeffler(0.5).sample_mixer(substream(7), 100_000)
    assert abs(np.exp(-u).mean() - 0.5) < 0.005


def test_mixer_empirical_laplace_transform():
    for family in FAMILIES:
        u = np.atleast_1d(family.sample_mixer(substream(8), 100_000))
        for s in (0.5, 1.0, 2.0):
            assert abs(np.exp(-s * u).mean() - family.lt(s)) < 0.01, family.name


def slow_mittag_leffler_mixer(nu, rng, size):
    """E^(1/nu) * S, with E a unit exponential and S Kanter's positive nu-stable draw."""
    return open_exponential(rng, size) ** (1.0 / nu) * sample_positive_stable(nu, rng, size)


def test_mittag_leffler_mixer_matches_the_stable_construction():
    # the sine-ratio form against the slow construction E^(1/nu) * S, and against phi itself
    n = 200_000
    critical = ks_critical(n // 2)  # two samples of n draws weigh as n * n / (n + n) draws
    for seed, nu in enumerate((0.1, 0.5, 0.9, 0.99)):
        family = MittagLeffler(nu)
        draws = family.sample_mixer(substream(20 + seed), n)
        slow = slow_mittag_leffler_mixer(nu, substream(30 + seed), n)
        assert ks_two_sample(draws, slow) < critical, nu
        for s in (0.1, 1.0, 10.0):
            values = np.exp(-s * draws)
            se = values.std() / math.sqrt(n)
            assert abs(values.mean() - family.lt(s)) < 4.0 * se, (nu, s)


def test_sine_ratio_in_tangents_matches_mpmath():
    # the ratio sin a / sin b at the float arguments a = nu pi (1 - v), b = nu pi v the sine form
    # took, to 40 digits: the half-angle tangent form keeps it within 1e-15
    mpmath = pytest.importorskip("mpmath")
    v = np.concatenate([2.0 ** -np.arange(1, 54), 1.0 - 2.0 ** -np.arange(1, 54)])
    for nu in (0.05, 0.5, 0.95):
        got = _sine_ratio(nu, v)
        a, b = np.pi * nu * (1.0 - v), np.pi * nu * v
        with mpmath.workdps(40):
            want = [mpmath.sin(mpmath.mpf(x)) / mpmath.sin(mpmath.mpf(y)) for x, y in zip(a, b)]
            error = max(abs(mpmath.mpf(g) / w - 1) for g, w in zip(got, want))
        assert error <= 1e-15, (nu, float(error))


def test_mittag_leffler_mixer_near_order_one_is_finite():
    for nu in (0.999, 1.0 - 2.0**-20):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = MittagLeffler(nu).sample_mixer(substream(11), 100_000)
        assert np.all(np.isfinite(draws) & (draws > 0.0)), nu


def test_positive_stable_transform():
    for nu in (0.3, 0.7):
        draws = sample_positive_stable(nu, substream(9), 200_000)
        for s in (0.5, 1.0, 2.0):
            target = math.exp(-(s**nu))
            assert abs(np.exp(-s * draws).mean() - target) < 0.006, (nu, s)
    with pytest.raises(ConfigurationError):
        sample_positive_stable(1.2, substream(9), 10)


def test_positive_stable_near_order_one():
    # Kanter's a(W) = r^(1/(1-nu)) leaves the floats for nu near 1, though the draw
    # a(W)^((1-nu)/nu) does not
    n = 200_000
    for nu in (0.99, 0.999):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_positive_stable(nu, substream(10), n)
        assert np.all(np.isfinite(draws)), nu
        for s in (0.5, 1.0, 2.0):
            values = np.exp(-s * draws)
            se = values.std() / math.sqrt(n)
            assert abs(values.mean() - math.exp(-(s**nu))) < 4.0 * se, (nu, s)


def test_mixer_draws_beyond_the_float_range_are_refused():
    # r(V)^(1/nu) is 0 or inf at nu = 1e-16, and at a subnormal nu a tangent rounds to 0 as well;
    # Kanter's S leaves the floats at nu = 0.01
    for nu in (1e-16, 5e-324):
        with pytest.raises(DomainError, match="^Mittag-Leffler mixer draw lies beyond the float"):
            MittagLeffler(nu).sample_mixer(substream(3), 5)
    with pytest.raises(DomainError, match="float range"):
        sample_positive_stable(0.01, substream(3), 20_000)
    # theta^nu rounds to 1 at nu = 1e-300, where every count is 1
    assert np.all(CountScheme(MittagLeffler(1e-300), 0.5).sample(substream(3), 5) == 1)
    # the limit exponent V^(1/nu) overflows to inf, where phi is 0
    assert MittagLeffler(0.5).lt(MittagLeffler(0.5).limit_exponent(np.array([1e300])))[0] == 0.0


class ZeroUniforms(np.random.Generator):
    """A generator whose uniforms are all 0.0, the one value Kanter's W and the mixers' uniforms
    must avoid."""

    def random(self, size=None):
        return np.zeros(size) if size is not None else 0.0


def test_positive_stable_at_zero_uniform_is_finite():
    rng = ZeroUniforms(np.random.PCG64(9))
    for nu in (0.3, 0.5, 0.7):
        assert np.isfinite(sample_positive_stable(nu, rng, 1)).all()
        assert np.all(np.isfinite(sample_positive_stable(nu, rng, 4)))
        # the mixer's V = 2^-54 gives its largest sine ratio, about 1/(nu pi V)
        draws = MittagLeffler(nu).sample_mixer(rng, 4)
        assert np.all(np.isfinite(draws) & (draws > 0.0)), nu


def test_geometric_mixer_at_zero_uniform_is_a_positive_time():
    # -log1p(-u) at u = 0 is the time 0, which Y(t) refuses
    z = Geometric().sample_mixer(ZeroUniforms(np.random.PCG64(9)), 4)
    assert np.all(z > 0.0)
    assert np.all(sample_Y_at_time(univariate(Frechet(1.0)), z, substream(0), 4) > 0.0)


class ZeroExponentials(np.random.Generator):
    """A generator whose unit exponentials are all 0.0, as numpy's ziggurat gives when its 53-bit
    integer is 0."""

    def standard_exponential(self, size=None, **kwargs):
        return np.zeros(size)

    def exponential(self, scale=1.0, size=None):
        return np.zeros(size)


def test_zero_exponential_is_a_positive_draw():
    rng = ZeroExponentials(np.random.PCG64(9))
    y = sample_Y_at_time(univariate(Frechet(1.0)), 1.0, rng, 4)
    assert np.all(np.isfinite(y))
    for nu in (0.3, 0.5, 0.7):
        for draws in (MittagLeffler(nu).sample_mixer(rng, 4), sample_positive_stable(nu, rng, 4)):
            assert np.all((draws > 0.0) & np.isfinite(draws))
    path = simulate_path(univariate(Frechet(1.0)), 1.0, rng)
    assert path.times[0] > 0.0


def test_mixer_cdf_and_unsupported():
    g = Geometric()
    assert g.mixer_cdf(0.0) == 0.0
    assert g.mixer_cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0))
    d = Degenerate()
    assert d.mixer_cdf(0.999) == 0.0 and d.mixer_cdf(1.0) == 1.0
    with pytest.raises(ConfigurationError):
        MittagLeffler(0.5).mixer_cdf(1.0)
    with pytest.raises(ConfigurationError):
        MittagLeffler(0.5).mixer_density(1.0)


@pytest.mark.parametrize("form", [
    Geometric().mixer_cdf, Geometric().mixer_density, Degenerate().mixer_cdf,
], ids=["geometric-cdf", "geometric-density", "degenerate-cdf"])
def test_mixer_forms_map_nan_to_nan(form):
    assert math.isnan(form(math.nan))
    out = form(np.array([-math.inf, -1e300, math.nan, 0.5, 1.0, math.inf]))
    assert math.isnan(out[2]) and not np.isnan(np.delete(out, 2)).any()
    assert out[0] == out[1] == 0.0  # below the support, with no overflow warning


# ---------------------------------------------------------------------------
# scaled-count convergence
# ---------------------------------------------------------------------------


def test_lemma12_degenerate_is_exact():
    report = run_lemma12(Degenerate(), 0.1, 1_000, seed=0)
    assert report.stats["distance"] == 0.0
    assert report.passed


def test_lemma12_geometric_small_theta_passes():
    report = run_lemma12(Geometric(), 0.001, 100_000, seed=42)
    assert report.stats["distance"] < 0.01
    assert report.passed


def test_lemma12_geometric_moderate_theta_fails():
    report = run_lemma12(Geometric(), 0.5, 100_000, seed=42)
    assert report.stats["distance"] > 0.05
    assert not report.passed


def test_lemma12_rejects_mittag_leffler():
    with pytest.raises(ConfigurationError, match="degenerates"):
        run_lemma12(MittagLeffler(0.5), 0.001, 1_000, seed=0)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


def test_samplers_are_seed_deterministic():
    scheme = CountScheme(Geometric(), 0.1)
    a = scheme.sample(substream(123), 1000)
    b = scheme.sample(substream(123), 1000)
    assert np.array_equal(a, b)
    u1 = MittagLeffler(0.5).sample_mixer(substream(7, 3), 100)
    u2 = MittagLeffler(0.5).sample_mixer(substream(7, 3), 100)
    assert np.array_equal(u1, u2)
    # distinct substreams of one seed are distinct
    assert not np.array_equal(
        Geometric().sample_mixer(substream(7, 0), 100),
        Geometric().sample_mixer(substream(7, 1), 100),
    )
