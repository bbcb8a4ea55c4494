import math

import numpy as np
import pytest

from randmax import (
    ConfigurationError,
    CountScheme,
    Degenerate,
    DomainError,
    Frechet,
    Geometric,
    Gumbel,
    MaxStableLaw,
    MittagLeffler,
    NMaxStableLaw,
    Pareto,
    PoissonMax,
    ReverseWeibull,
    UnitExponential,
    ks_critical,
    ks_distance,
    ks_two_sample,
    mixture_cdf,
    same_type_decompose,
    sample_random_max,
    sample_random_max_seeded,
    substream,
    univariate,
)
from randmax._util import BLOCK_VALUES
from randmax.nmid_compose import _half_line_rule
from oracles import pgf, sample_base, scheme_pgf

GEOMETRIC = Geometric()
DEGENERATE = Degenerate()


def law_of(family, marginal):
    return NMaxStableLaw(family, univariate(marginal))


# ---------------------------------------------------------------------------
# composed CDF
# ---------------------------------------------------------------------------


def test_known_special_cases():
    # geometric + Frechet(1) is log-logistic x/(1+x)
    law = law_of(GEOMETRIC, Frechet(1.0))
    x = np.asarray(Frechet(1.0).grid)
    assert np.abs(law.cdf(x) - x / (1.0 + x)).max() < 1e-14
    assert law.cdf(1.0) == pytest.approx(0.5, abs=1e-15)
    # geometric + Gumbel is the logistic law 1/(1+exp(-x))
    law = law_of(GEOMETRIC, Gumbel())
    x = np.asarray(Gumbel().grid)
    assert np.abs(law.cdf(x) - 1.0 / (1.0 + np.exp(-x))).max() < 1e-14
    assert law.cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_degenerate_family_reduces_to_base():
    for marginal in (Frechet(1.0), Frechet(2.0), Gumbel(), ReverseWeibull(1.0)):
        law = law_of(DEGENERATE, marginal)
        x = np.asarray(marginal.grid)
        assert np.abs(law.cdf(x) - np.exp(-univariate(marginal).v(x))).max() < 1e-14
    assert law_of(DEGENERATE, Frechet(1.0)).cdf(1.0) == pytest.approx(math.exp(-1.0))


def test_zero_base_cdf_maps_to_zero():
    law = law_of(GEOMETRIC, Frechet(1.0))
    assert law.cdf(0.0) == 0.0
    assert law.cdf(-5.0) == 0.0


def test_cdf_monotone_in_each_coordinate():
    for family in (GEOMETRIC, MittagLeffler(0.5), DEGENERATE):
        law = law_of(family, Frechet(1.0))
        x = np.linspace(0.01, 50.0, 500)
        assert np.all(np.diff(law.cdf(x)) > 0.0)
    biv = NMaxStableLaw(GEOMETRIC, MaxStableLaw((Frechet(1.0), Frechet(1.0))))
    base = np.linspace(0.1, 10.0, 100)
    fixed = np.full_like(base, 2.0)
    along0 = biv.cdf(np.column_stack([base, fixed]))
    along1 = biv.cdf(np.column_stack([fixed, base]))
    assert np.all(np.diff(along0) > 0.0) and np.all(np.diff(along1) > 0.0)


def test_poisson_max_base_composition():
    mid = PoissonMax(2.0, Pareto(1.0))
    assert mid.cdf(2.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    law = NMaxStableLaw(GEOMETRIC, mid)
    # phi(a (1 - G(x))) with a = 2, G(2) = 1/2
    assert law.cdf(2.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ConfigurationError):
        NMaxStableLaw(GEOMETRIC, Pareto(1.0))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def test_mixture_against_closed_form_grid():
    for family in (GEOMETRIC, DEGENERATE):
        for marginal in (Frechet(1.0), Frechet(2.0), Gumbel()):
            law = law_of(family, marginal)
            x = np.asarray(marginal.grid)
            gap = np.abs(mixture_cdf(law, x) - law.cdf(x)).max()
            assert gap < 1e-8, (family.name, marginal)


def test_mixture_hand_values():
    law = law_of(GEOMETRIC, Frechet(1.0))
    assert mixture_cdf(law, 1.0) == pytest.approx(0.5, abs=1e-8)
    law = law_of(GEOMETRIC, Frechet(2.0))
    # 1/(1 + 2^-2) = 0.8
    assert mixture_cdf(law, 2.0) == pytest.approx(0.8, abs=1e-8)


def test_mixture_over_poisson_max_base():
    # the composition holds for any max-infinitely-divisible base, not only
    # max-stable ones; a Poisson maximum is the canonical example
    law = NMaxStableLaw(GEOMETRIC, PoissonMax(2.0, Pareto(1.0)))
    x = np.linspace(1.0, 20.0, 25)
    gap = np.abs(mixture_cdf(law, x) - law.cdf(x)).max()
    assert gap < 1e-8


def test_mixture_degenerate_is_exactly_h():
    law = law_of(DEGENERATE, Frechet(1.0))
    x = np.asarray(Frechet(1.0).grid)
    assert np.array_equal(mixture_cdf(law, x), np.exp(-1.0 / x))


def test_blocked_mixture_matches_one_shot():
    t, weight = _half_line_rule()
    coeff = weight * GEOMETRIC.mixer_density(t)

    def one_shot(law, x):
        return np.exp(-np.asarray(law.v(x))[..., None] * t) @ coeff

    law = law_of(GEOMETRIC, Frechet(1.0))
    x = np.exp(substream(67).uniform(np.log(1e-3), np.log(1e3), 5 * (BLOCK_VALUES // 256) + 7))
    assert mixture_cdf(law, x).tobytes() == one_shot(law, x).tobytes()
    law2 = NMaxStableLaw(GEOMETRIC, MaxStableLaw((Frechet(1.0), Frechet(1.0))))
    for law, shaped in ((law, x[0]), (law, x[:7].reshape(1, 7)), (law, x[:600].reshape(20, 30)),
                        (law2, x[:600].reshape(300, 2))):
        expected = one_shot(law, shaped)
        got = mixture_cdf(law, shaped)
        assert np.shape(got) == np.shape(expected)
        assert np.abs(got - expected).max() <= 1e-15


def test_mixture_rejects_unsupported():
    law = law_of(MittagLeffler(0.5), Frechet(1.0))
    with pytest.raises(ConfigurationError):
        mixture_cdf(law, 1.0)


# ---------------------------------------------------------------------------
# random maxima
# ---------------------------------------------------------------------------


def test_random_max_degenerate_theta_one_is_single_draw():
    scheme = CountScheme(DEGENERATE, 1.0)
    draws = sample_random_max(scheme, Pareto(1.0), substream(31), 10)
    assert draws.shape == (10,)
    assert np.all(draws >= 1.0)
    # N = 1, so the law is the base law itself
    big = np.sort(sample_random_max(scheme, Pareto(1.0), substream(32), 100_000))
    assert ks_distance(big, Pareto(1.0).cdf) < ks_critical(100_000)


def test_random_max_finite_theta_point_value():
    scheme = CountScheme(GEOMETRIC, 0.5)
    draws = sample_random_max(scheme, Pareto(1.0), substream(33), 100_000)
    assert abs((draws <= 2.0).mean() - 1.0 / 3.0) < 0.005


def test_random_max_finite_theta_exactness_ks():
    # the sampled maximum has d.f. P_theta(G(x)) exactly, at every theta
    base = Pareto(1.0)
    for theta in (0.5, 0.1, 0.01):
        scheme = CountScheme(GEOMETRIC, theta)
        draws = np.sort(sample_random_max_seeded(scheme, base, seed=34, n=100_000))
        distance = ks_distance(draws, lambda x: scheme_pgf(scheme, base.cdf(x)))
        assert distance < ks_critical(100_000), theta


def test_random_max_near_limit():
    # theta = 0.01 with norming a_100 = 100: close to x/(1+x), small bias allowed
    scheme = CountScheme(GEOMETRIC, 0.01)
    draws = np.sort(sample_random_max_seeded(scheme, Pareto(1.0), seed=35, n=100_000) / 100.0)
    distance = ks_distance(draws, lambda x: x / (1.0 + x))
    assert distance < 0.015


def test_random_max_monotone_coupling():
    # smaller theta gives a stochastically larger maximum, and pathwise so:
    # the count and maximum uniforms sit at the same stream positions
    base = Pareto(1.0)
    grid = np.asarray(Frechet(1.0).grid)
    previous = previous_draws = None
    for theta in (0.5, 0.1, 0.01):
        scheme = CountScheme(GEOMETRIC, theta)
        draws = sample_random_max_seeded(scheme, base, seed=36, n=100_000)
        current = np.asarray([(draws <= x).mean() for x in grid])
        if previous is not None:
            assert np.all(current <= previous + 1e-12)
            assert np.all(draws >= previous_draws)
        previous, previous_draws = current, draws


def test_random_max_product_base():
    scheme = CountScheme(GEOMETRIC, 0.5)
    pair = sample_random_max(scheme, (Pareto(1.0), UnitExponential()), substream(37), 2_000)
    assert pair.shape == (2_000, 2)
    assert abs((pair[:, 0] <= 2.0).mean() - 1.0 / 3.0) < 0.04


def literal_random_max(scheme, base, rng, size):
    """The definition itself: draw N_theta, then maximize that many base draws."""
    counts = scheme.sample(rng, size)
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    return np.maximum.reduceat(sample_base(base, rng, int(counts.sum())), offsets, axis=0)


@pytest.mark.parametrize("base", [Pareto(1.0), (Pareto(1.0), UnitExponential())],
                         ids=["pareto", "pareto-exponential"])
@pytest.mark.parametrize("theta", [0.1, 0.01])
def test_random_max_matches_literal_construction(base, theta):
    scheme = CountScheme(GEOMETRIC, theta)
    n = 20_000
    fast = sample_random_max(scheme, base, substream(39), n)
    slow = literal_random_max(scheme, base, substream(40), n)
    assert fast.shape == slow.shape
    critical = ks_critical(n / 2)  # two samples of size n
    for a, b in zip(np.atleast_2d(fast.T), np.atleast_2d(slow.T)):
        assert ks_two_sample(a, b) < critical


def test_random_max_survival_accuracy_at_large_count():
    # N = 10^8 exactly; G(M)^N = (1 - 1/M)^N must give back the uniform U
    n = 10**8
    u = substream(41).random(1_000)  # the degenerate count consumes no uniforms
    draws = sample_random_max(CountScheme(DEGENERATE, 1.0 / n), Pareto(1.0), substream(41), 1_000)
    assert np.abs(np.exp(n * np.log1p(-1.0 / draws)) - u).max() < 1e-12


# ---------------------------------------------------------------------------
# same-type decomposition
# ---------------------------------------------------------------------------


def test_decompose_hand_chain():
    law = law_of(GEOMETRIC, Frechet(1.0))
    theta = 0.5
    f_theta_at_1 = GEOMETRIC.lt(theta * 1.0)
    assert f_theta_at_1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert pgf(GEOMETRIC, theta, f_theta_at_1) == pytest.approx(0.5, abs=1e-15)
    residual, norming = same_type_decompose(law, theta)
    assert residual < 1e-12
    assert norming == ((0.5, 0.0),)  # Frechet(1): scale theta^(1/alpha)


def test_decompose_degenerate_power():
    law = law_of(DEGENERATE, Frechet(1.0))
    residual, _ = same_type_decompose(law, 0.1)
    assert residual <= 1e-14


def test_decompose_residual_grid():
    families = (GEOMETRIC, MittagLeffler(0.5), DEGENERATE)
    marginals = (Frechet(1.0), Frechet(2.0), Gumbel(), ReverseWeibull(1.0))
    for family in families:
        for marginal in marginals:
            law = law_of(family, marginal)
            for theta in (0.5, 0.1, 0.01):
                residual, _ = same_type_decompose(law, theta)
                assert residual < 1e-12, (family.name, marginal, theta)


def test_decompose_bivariate():
    law = NMaxStableLaw(GEOMETRIC, MaxStableLaw((Frechet(1.0), Frechet(2.0))))
    residual, norming = same_type_decompose(law, 0.1)
    assert residual < 1e-12
    assert norming[0] == (pytest.approx(0.1), 0.0)
    assert norming[1] == (pytest.approx(0.1**0.5), 0.0)


def test_decompose_norming_matches_type_map():
    # F_theta(x) = F(a x + b) pointwise with the reported norming
    for marginal in (Frechet(2.0), Gumbel(), ReverseWeibull(2.0)):
        family = GEOMETRIC
        law = law_of(family, marginal)
        theta = 0.1
        _, ((a, b),) = same_type_decompose(law, theta)
        x = np.asarray(marginal.grid)
        f_theta = family.lt(theta * univariate(marginal).v(x))
        # X_theta = a X + b, so F_theta(x) = F((x - b)/a)
        assert np.abs(f_theta - law.cdf((x - b) / a)).max() < 1e-12


def test_decompose_validation():
    law = law_of(GEOMETRIC, Frechet(1.0))
    with pytest.raises(ConfigurationError):
        same_type_decompose(law, 1.5)
    with pytest.raises(ConfigurationError):
        same_type_decompose(NMaxStableLaw(GEOMETRIC, PoissonMax(1.0, Pareto(1.0))), 0.5)
    # the grid points 4^(-1e-300), ..., 0.125^(-1e-300) all round to 1
    with pytest.raises(DomainError, match=r"the grid of Frechet\(alpha=1e\+300\) lies beyond"):
        same_type_decompose(law_of(GEOMETRIC, Frechet(1e300)), 0.5)
