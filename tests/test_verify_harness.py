import math
from decimal import Decimal

import numpy as np
import pytest

from randmax import (
    ConfigurationError,
    Degenerate,
    DomainError,
    Geometric,
    MittagLeffler,
    NMaxStableLaw,
    Pareto,
    PoissonMax,
    Table,
    doa_gap,
    ks_critical,
    ks_distance,
    ks_two_sample,
    run_definetti,
    run_doa_table,
    run_lemma12,
    run_poincare,
    run_thm24,
    run_thm31,
    run_thm32,
    run_thm34,
    standard_triple,
    substream,
    univariate,
)
from randmax.evd_core import Frechet, cdf_gap
from randmax.verify_harness import (
    BLOCK_VALUES,
    CSV_BLOCK_ROWS,
    KS_EXACT_BELOW,
    KS_ONE_PERCENT,
    _kolmogorov_cdf,
    format_value,
)
from oracles import csv_text, sample_base

PARETO1 = standard_triple("pareto", 1.0)
EXPONENTIAL = standard_triple("exponential")
UNIFORM = standard_triple("uniform")
GEOMETRIC = Geometric()
DEGENERATE = Degenerate()


# ---------------------------------------------------------------------------
# KS machinery
# ---------------------------------------------------------------------------


def test_ks_distance_single_point():
    assert ks_distance(np.asarray([0.0]), lambda x: np.full_like(x, 0.5)) == 0.5


def test_ks_distance_sample_from_model_passes():
    u = np.sort(substream(61).random(100_000))
    assert ks_distance(u, lambda x: x) < ks_critical(100_000)


def test_ks_distance_glivenko_cantelli():
    # shifted Pareto against the unshifted model: the distance approaches
    # sup |G - F| = F(1.5) = 1/3 (G is flat at 0 until x = 1.5)
    target = 1.0 - 1.0 / 1.5
    model = Pareto(1.0)
    gaps = {}
    for idx, n in enumerate((100, 100_000)):
        draws = np.sort(sample_base(model, substream(62, idx), n) + 0.5)
        gaps[n] = abs(ks_distance(draws, model.cdf) - target)
    assert gaps[100_000] < 0.001
    assert gaps[100_000] < gaps[100]


def test_ks_distance_validation():
    with pytest.raises(DomainError):
        ks_distance(np.asarray([]), lambda x: x)
    with pytest.raises(DomainError):
        ks_distance(np.asarray([2.0, 1.0]), lambda x: x)
    with pytest.raises(DomainError):
        ks_distance(np.asarray([[1.0, 2.0]]), lambda x: x)


def _ks_one_shot(sample, cdf):
    """The whole-sample KS formula, kept as the reference for the blocked statistic."""
    n = sample.size
    f = np.asarray(cdf(sample), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.abs(i / n - f).max(), np.abs((i - 1) / n - f).max()))


@pytest.mark.parametrize("n", [1, BLOCK_VALUES - 1, BLOCK_VALUES, BLOCK_VALUES + 1,
                               3 * BLOCK_VALUES + 7])
def test_blocked_ks_distance_is_exact(n):
    model = Pareto(1.0)
    draws = np.sort(sample_base(model, substream(64), n))
    assert ks_distance(draws, model.cdf) == _ks_one_shot(draws, model.cdf)
    sample = np.sort(substream(65).random(n))
    assert ks_distance(sample, np.sqrt) == _ks_one_shot(sample, np.sqrt)


def test_blocked_ks_distance_nan_and_unsorted_blocks():
    n = 3 * BLOCK_VALUES + 7
    sample = np.sort(substream(66).random(n))
    with_nan = sample.copy()
    with_nan[2 * BLOCK_VALUES + 3] = np.nan  # in a later block than the first
    assert math.isnan(ks_distance(with_nan, lambda x: x))
    assert math.isnan(_ks_one_shot(with_nan, lambda x: x))
    straddling = sample.copy()
    edge = BLOCK_VALUES
    straddling[edge - 1], straddling[edge] = straddling[edge], straddling[edge - 1]
    with pytest.raises(DomainError, match="sorted"):
        ks_distance(straddling, lambda x: x)


def test_ks_two_sample():
    rng = substream(63)
    a = rng.random(20_000)
    b = rng.random(20_000)
    assert ks_two_sample(a, b) < 1.628 * math.sqrt(2.0 / 20_000)
    assert ks_two_sample(a, b + 0.5) > 0.4
    with pytest.raises(DomainError):
        ks_two_sample(a, np.asarray([]))


# ---------------------------------------------------------------------------
# runners: identities
# ---------------------------------------------------------------------------


def test_run_poincare_families():
    for family in (GEOMETRIC, MittagLeffler(0.5), DEGENERATE):
        report = run_poincare(family)
        assert report.passed, family.name
        assert dict(report.stats)["max_residual"] < 1e-12


@pytest.mark.parametrize("family", [GEOMETRIC, MittagLeffler(0.5), DEGENERATE], ids=repr)
def test_identities_stay_exact_as_theta_drops(family):
    # phi(theta s) rounds to 1 here; the survival forms keep 1 - phi(theta s)
    thetas = (1e-20, 1e-300, np.finfo(float).tiny)
    for report in (run_poincare(family, thetas=thetas),
                   run_thm31(family, univariate(Frechet(1.0)), thetas=thetas)):
        assert report.passed, report.name
        assert dict(report.stats)["max_residual"] < 1e-15, report.name


def test_run_thm31_families():
    report = run_thm31(GEOMETRIC, univariate(Frechet(1.0)))
    assert report.passed
    table = report.tables[0]
    assert table.columns == ("theta", "residual", "scale_0", "shift_0")
    scales = {row[0]: row[2] for row in table.rows}
    assert scales[0.5] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# runners: limit tables
# ---------------------------------------------------------------------------


def test_run_definetti_degenerate_pareto():
    report = run_definetti(DEGENERATE, PARETO1)
    stats = dict(report.stats)
    assert stats["final_gap"] < 1e-3
    assert stats["monotone"]
    assert report.passed


def test_definetti_degenerate_is_poisson_maximum():
    # with phi = exp(-s) the tabulated quantity is the Poisson-maximum d.f.
    n = 100
    a, b = n, 0.0
    x = np.asarray(PARETO1.target.grid)
    g = PARETO1.cdf(a * x + b)
    via_family = DEGENERATE.lt(n * (1.0 - g))
    via_poisson = PoissonMax(n, PARETO1).cdf(a * x + b)
    assert np.abs(via_family - via_poisson).max() < 1e-15


def test_run_definetti_geometric_pointwise_example():
    # phi(n (1 - G(n x))) at x = 1 equals phi(1) = 0.5 for the exact Pareto tail
    n = 10_000
    g = PARETO1.cdf(n * 1.0)
    assert abs(GEOMETRIC.lt(n * (1.0 - g)) - 0.5) < 5e-4
    report = run_definetti(GEOMETRIC, PARETO1)
    assert report.passed


def test_run_thm24_pareto_geometric_table():
    report = run_thm24(GEOMETRIC, PARETO1)
    rows = {row[0]: row for row in report.tables[0].rows}
    # frozen hand arithmetic at n = 100, x = 1:
    # deterministic |0.99^100 - exp(-1)|, random |P_0.01(0.99) - 0.5|
    assert abs(0.99**100 - math.exp(-1.0)) == pytest.approx(0.0019, abs=1e-4)
    theta = 0.01
    p = theta * 0.99 / (1.0 - (1.0 - theta) * 0.99)
    assert abs(p - 0.5) == pytest.approx(0.0025, abs=1e-4)
    # the sup over the grid dominates both pointwise hand values
    assert rows[100][1] >= abs(0.99**100 - math.exp(-1.0)) - 1e-15
    assert rows[100][2] >= abs(p - 0.5) - 1e-15
    stats = dict(report.stats)
    assert stats["final_gap_deterministic"] < 2e-3
    assert stats["final_gap_random"] < 2e-3
    assert stats["monotone"] and stats["witness"]
    assert report.passed
    # strict decrease along n for this triple
    gaps = [rows[n][1] for n in (10, 100, 1_000, 10_000)]
    assert all(gaps[i + 1] < gaps[i] for i in range(3))
    gaps = [rows[n][2] for n in (10, 100, 1_000, 10_000)]
    assert all(gaps[i + 1] < gaps[i] for i in range(3))


def test_run_thm24_degenerate_columns_coincide():
    report = run_thm24(DEGENERATE, PARETO1)
    for _, det, ran in report.tables[0].rows:
        assert abs(det - ran) < 1e-14
    assert report.passed


def test_run_thm24_exponential_logistic_limit():
    report = run_thm24(GEOMETRIC, EXPONENTIAL)
    stats = dict(report.stats)
    assert stats["final_gap_deterministic"] < 2e-3
    assert stats["final_gap_random"] < 2e-3
    assert report.passed
    # the random-column limit is the logistic law 1/(1 + exp(-x))
    x = np.asarray(EXPONENTIAL.target.grid)
    limit = GEOMETRIC.lt(EXPONENTIAL.target.v(x))
    assert np.abs(limit - 1.0 / (1.0 + np.exp(-x))).max() < 1e-14


def test_run_thm24_witness_inequality_rows():
    # for the 1-Lipschitz transform the random gap is dominated once the
    # pre-limit terms are gone (n >= 100); at n = 10 the domination fails,
    # which is why the witness check starts at n = 100
    report = run_thm24(GEOMETRIC, PARETO1)
    rows = {row[0]: row for row in report.tables[0].rows}
    for n in (100, 1_000, 10_000):
        assert rows[n][2] <= rows[n][1] + 5e-3
    assert rows[10][2] > rows[10][1] + 5e-3


def test_run_thm24_mittag_leffler_lands_in_the_geometric_class():
    # at theta = n^(-1/nu) the random column converges to 1/(1 + V), the geometric limit
    for triple in (PARETO1, EXPONENTIAL):
        geometric = run_thm24(GEOMETRIC, triple).tables[0].rows
        for nu in (0.3, 0.5, 0.9):
            report = run_thm24(MittagLeffler(nu), triple)
            assert report.passed, (triple.name, nu)
            for (n, det0, ran0), (_, det1, ran1) in zip(geometric, report.tables[0].rows):
                assert det1 == det0 and abs(ran1 - ran0) < 1e-12, (triple.name, nu, n)


def test_run_thm24_grid_refinement_stability():
    # thm24's two gaps, rebuilt from the normed survival; on the target grid they are the
    # runner's, and adding the grid's midpoints moves neither by more than 10 percent
    grid = np.asarray(PARETO1.target.grid)
    refined = np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))

    def gaps(n, points):
        s, v = PARETO1.normed(n).sf(points), PARETO1.target.v(points)
        limit = GEOMETRIC.lt(GEOMETRIC.limit_exponent(v))
        return cdf_gap(n, s, v), float(np.abs(GEOMETRIC.pgf_sf(GEOMETRIC.index(n), s) - limit).max())

    for n, d0, r0 in run_thm24(GEOMETRIC, PARETO1).tables[0].rows:
        assert gaps(n, grid) == (d0, r0)
        d1, r1 = gaps(n, refined)
        assert abs(d1 - d0) <= 0.10 * max(d0, 1e-15)
        assert abs(r1 - r0) <= 0.10 * max(r0, 1e-15)


# ---------------------------------------------------------------------------
# runners: seeded experiments
# ---------------------------------------------------------------------------


def test_run_lemma12_report():
    report = run_lemma12(GEOMETRIC, 0.001, 100_000, seed=64)
    assert report.passed
    assert dict(report.stats)["distance"] < 0.01
    report = run_lemma12(GEOMETRIC, 0.5, 100_000, seed=64)
    assert not report.passed


def test_run_thm32_refuses_a_composed_law():
    law = NMaxStableLaw(GEOMETRIC, univariate(Frechet(1.0)))
    with pytest.raises(ConfigurationError, match="subordination requires a max-stable base"):
        run_thm32(GEOMETRIC, law, 100, seed=1)


def test_run_thm32_report():
    report = run_thm32(GEOMETRIC, univariate(Frechet(1.0)), 100_000, seed=65)
    stats = dict(report.stats)
    assert stats["distance"] < stats["critical"]
    assert report.passed


def test_run_thm34_pareto():
    report = run_thm34(GEOMETRIC, PARETO1, n=1_000, m=100_000, seed=66)
    stats = dict(report.stats)
    assert stats["tail_gap"] < 2e-3
    assert stats["random_gap"] < 2e-3 * 10  # pre-limit at n = 1000
    assert stats["ks_distance"] < 0.01
    assert report.passed


def test_run_thm34_pareto_full_scale():
    # the slow one: theta = 1e-4 means about 1e9 base draws behind m = 1e5
    report = run_thm34(GEOMETRIC, PARETO1, n=10_000, m=100_000, seed=71)
    stats = dict(report.stats)
    assert stats["ks_distance"] < 0.01
    assert stats["tail_gap"] < 2e-3 and stats["random_gap"] < 2e-3
    assert report.passed


@pytest.mark.parametrize("seed", [1, 2])
def test_run_thm34_mittag_leffler(seed):
    report = run_thm34(MittagLeffler(0.5), PARETO1, n=10_000, m=20_000, seed=seed)
    stats = dict(report.stats)
    assert stats["tail_gap"] < 2e-3 and stats["random_gap"] < 2e-3
    assert stats["ks_distance"] < stats["ks_critical"]
    assert report.passed


def test_run_thm34_uniform_analytic():
    report = run_thm34(GEOMETRIC, UNIFORM, n=10_000, m=10_000, seed=67)
    stats = dict(report.stats)
    assert stats["tail_gap"] < 1e-3
    assert stats["random_gap"] < 1e-3
    assert report.passed


def test_run_thm34_degenerate_reduces_to_classical():
    report = run_thm34(DEGENERATE, PARETO1, n=10_000, m=10_000, seed=68)
    stats = dict(report.stats)
    assert stats["tail_gap"] < 1e-12  # classical check with the exact tail
    assert report.passed


@pytest.mark.parametrize("base", [PARETO1, EXPONENTIAL, UNIFORM], ids=lambda base: base.name)
def test_limit_gaps_agree_across_runners(base):
    # thm34, thm24 and the classical table read one normed base, so their gaps agree bit for bit
    n = 10_000
    ((_, tail_gap, cdf_gap, random_gap),) = run_thm34(GEOMETRIC, base, n, 1_000, 3).tables[0].rows
    ((_, det_gap, ran_gap),) = run_thm24(GEOMETRIC, base, ns=(n,)).tables[0].rows
    assert (tail_gap, cdf_gap) == doa_gap(base, n)
    assert (cdf_gap, random_gap) == (det_gap, ran_gap)


def test_run_doa_table():
    report = run_doa_table(PARETO1)
    assert report.passed
    assert report.tables[0].columns == ("n", "tail_gap", "cdf_gap")


# ---------------------------------------------------------------------------
# reports and determinism
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical_given_seed():
    a = run_thm32(GEOMETRIC, univariate(Frechet(1.0)), 50_000, seed=69)
    b = run_thm32(GEOMETRIC, univariate(Frechet(1.0)), 50_000, seed=69)
    assert a.summary_text() == b.summary_text()
    assert csv_text(a.tables[0]) == csv_text(b.tables[0])
    c = run_thm34(GEOMETRIC, PARETO1, n=1_000, m=20_000, seed=70)
    d = run_thm34(GEOMETRIC, PARETO1, n=1_000, m=20_000, seed=70)
    assert c.summary_text() == d.summary_text()


def test_table_csv_shape():
    empty = Table.from_rows(name="t", columns=("a", "b"), rows=())
    assert csv_text(empty) == "a,b\n"
    four = Table.from_rows(name="t", columns=("a",), rows=((1,), (2,), (3,), (4,)))
    assert csv_text(four).count("\n") == 5
    assert len(csv_text(four).splitlines()) == 5


def test_csv_float_precision():
    table = Table.from_rows(name="t", columns=("x",), rows=((1.0 / 3.0,),))
    text = csv_text(table)
    assert "0.33333333333333331" in text


def assert_same_text(text, expected):
    """Equal texts; a failure names the first differing line, not a full diff."""
    got, want = text.split("\n"), expected.split("\n")
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
    same = text == expected
    assert same, f"line {first}: {got[first:first + 1]} != {want[first:first + 1]}"


def test_column_writer_matches_format_value():
    rng = np.random.default_rng(14)
    i64 = np.iinfo(np.int64)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e-300, -1e-300, 1.7976931348623157e308, 1.0 / 3.0, 1e16, 123456789.0]
    # random bit patterns reach every class: NaNs, infinities, subnormals, normals
    floats = np.concatenate([special, rng.integers(0, 2**64, 4000, np.uint64).view(np.float64)])
    ints = np.concatenate([[i64.min, i64.max, -1, 0, 1],
                           rng.integers(i64.min, i64.max, 1000, endpoint=True)])
    columns = [
        floats,
        rng.integers(0, 2**32, 1000, np.uint32).view(np.float32),
        ints,
        ints.astype(np.int32),
        np.array([0, 2**64 - 1], dtype=np.uint64),
        np.array([True, False, True]),
        (1, 2.5, True, np.float32(0.1), np.int8(-3), np.bool_(False), "5%d", -0.0, float("nan")),
        (),
        np.empty(0),
    ]
    for column in columns:
        expected = "".join(format_value(v) + "\n" for v in column)
        assert_same_text(csv_text(Table("t", ("c",), (column,))), "c\n" + expected)
    # more than two blocks of rows, so block edges are crossed
    f, i = np.resize(floats, 2 * CSV_BLOCK_ROWS + 1), np.resize(ints, 2 * CSV_BLOCK_ROWS + 1)
    expected = "".join(f"{format_value(a)},{format_value(b)}\n" for a, b in zip(f, i))
    assert_same_text(csv_text(Table("t", ("f", "i"), (f, i))), "f,i\n" + expected)
    assert csv_text(Table("t", ("f", "i"), (np.empty(0), ()))) == "f,i\n"


def test_integer_cells_at_width_boundaries():
    # an integer block's cells are as wide as its longest text: each value alone, then all at once
    i64 = np.iinfo(np.int64)
    values = [0, 9, -9, 10**7 - 1, -(10**7 - 1), 10**7, -(10**7), 10**8, 10**16,
              i64.max, i64.min, 2**63, 2**64 - 1]
    for dtype in (np.int32, np.int64, np.uint64):
        info = np.iinfo(dtype)
        fits = [v for v in values if info.min <= v <= info.max]
        for column in [*([v] for v in fits), fits]:
            column = np.array(column, dtype=dtype)
            expected = "".join(f"{format_value(a)},{format_value(b)}\n"
                               for a, b in zip(column, column[::-1]))
            assert_same_text(csv_text(Table("t", ("a", "b"), (column, column[::-1]))),
                             "a,b\n" + expected)


def test_csv_writer_matches_format_value_at_scale():
    # the block writer against format_value, cell by cell, where its digits are hardest
    rng = np.random.default_rng(15)
    i64 = np.iinfo(np.int64)
    # m 2^-j with m odd is an exact decimal tie at 17 digits when m 5^j has 18 digits
    ties = np.array([m * 2.0**-j for j in range(2, 26)
                     for m in rng.integers(10**17 // 5**j + 1, min(10**18 // 5**j, 2**53), 40) | 1])
    assert all(len(Decimal(t).as_tuple().digits) == 18 for t in ties)
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    near = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    edges = np.array([
        1.2345e-5, 9.9999999999999995e-5, 9.999999999999999e-5, 1e-4, 1.2345e-4,  # X = -5, -4
        1e16, 9.999999999999999e16, 99999999999999999.0, 1.2345e17, 1e17,  # X = 16, 17
        2.2250738585072014e-308, 2.225073858507201e-308, 5e-324, 1.7976931348623157e308,
        0.5, 1.0, 1.5, 123456789.0, 1.0 / 3.0,
    ])
    subnormals = rng.integers(1, 2**52, 10_000, np.uint64).view(np.float64)
    floats = np.concatenate([
        rng.integers(0, 2**64, 1_000_000, np.uint64).view(np.float64),  # every class of double
        ties, near, edges, subnormals,
    ])
    floats = np.concatenate([floats, -floats[-(len(floats) - 1_000_000):]])
    ints = np.concatenate([
        [i64.min, i64.min + 1, i64.max, -1, 0, 1],
        *(rng.integers(-(10**k), 10**k, 1_000) for k in range(1, 19)),
    ])
    columns = [
        floats,
        rng.integers(0, 2**32, 100_000, np.uint32).view(np.float32),
        ints,
        np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64),
    ]
    for column in columns:
        # format_value of Python numbers: the same text as of numpy scalars, and faster
        expected = "".join(format_value(v) + "\n" for v in column.tolist())
        assert_same_text(csv_text(Table("t", ("c",), (column,))), "c\n" + expected)
    # rows that straddle block edges, with every kind of column side by side
    n = 3 * CSV_BLOCK_ROWS + 7
    objects = tuple(("a", 1, -2.5, None)[i % 4] for i in range(n))
    mixed = (floats[:n], np.resize(ints, n), rng.random(n) < 0.5, objects)
    expected = "".join(",".join(map(format_value, row)) + "\n" for row in zip(*mixed))
    assert_same_text(csv_text(Table("t", ("f", "i", "b", "o"), mixed)), "f,i,b,o\n" + expected)


def test_ks_critical_exact_at_small_n():
    # the example of Marsaglia, Tsang and Wang (2003)
    assert abs(_kolmogorov_cdf(10, 0.274) - 0.6284796154565043) < 1e-14
    # 1 percent points: n = 1 and 2 in closed form, then Massey's (1951) table
    assert ks_critical(1) == 0.995
    assert abs(ks_critical(2) - (1 - math.sqrt(0.005))) < 1e-15
    for n, d in ((3, 0.829), (5, 0.669), (10, 0.489), (20, 0.352), (35, 0.269)):
        assert abs(ks_critical(n) - d) < 5e-4, n
    assert all(ks_critical(n) < 1 for n in range(1, KS_EXACT_BELOW))
    assert ks_critical(KS_EXACT_BELOW) == KS_ONE_PERCENT / math.sqrt(KS_EXACT_BELOW)
    for n in (0, -3, float("nan")):
        with pytest.raises(DomainError, match="at least one draw"):
            ks_critical(n)


def test_small_sample_ks_check_can_fail():
    # two draws from the top of (0, 1) are no uniform sample; 1.628/sqrt(2) = 1.15 passed them
    assert ks_distance(np.array([0.97, 0.99]), lambda u: u) > ks_critical(2)
    # seed 121 draws a 1-in-100 pair of subordinated Frechet values
    report = run_thm32(GEOMETRIC, univariate(Frechet(1.0)), 2, seed=121)
    assert report.stats["critical"] == ks_critical(2) and not report.passed
