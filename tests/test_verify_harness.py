import math

import numpy as np
import pytest

from randmax import (
    Degenerate,
    DomainError,
    Geometric,
    MittagLeffler,
    Pareto,
    PoissonMax,
    Table,
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
    sample_base,
    standard_triple,
    substream,
    univariate,
)
from randmax.evd_core import Frechet
from randmax.verify_harness import BLOCK_VALUES, CSV_BLOCK_ROWS, format_value

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
    a, b = PARETO1.norming(n)
    x = np.asarray(PARETO1.target.grid)
    g = PARETO1.base.cdf(a * x + b)
    via_family = DEGENERATE.lt(n * (1.0 - g))
    via_poisson = PoissonMax(n, PARETO1.base).cdf(a * x + b)
    assert np.abs(via_family - via_poisson).max() < 1e-15


def test_run_definetti_geometric_pointwise_example():
    # phi(n (1 - G(n x))) at x = 1 equals phi(1) = 0.5 for the exact Pareto tail
    n = 10_000
    g = PARETO1.base.cdf(n * 1.0)
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
    limit = GEOMETRIC.lt(EXPONENTIAL.law.v(x))
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
    grid = np.asarray(PARETO1.target.grid)
    refined = np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))
    coarse = run_thm24(GEOMETRIC, PARETO1).tables[0].rows
    fine = run_thm24(GEOMETRIC, PARETO1, grid=refined).tables[0].rows
    for (_, d0, r0), (_, d1, r1) in zip(coarse, fine):
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
    report = run_thm34(GEOMETRIC, PARETO1, n=10_000, m=100_000, seed=71, threads=4)
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


def test_run_doa_table():
    report = run_doa_table(PARETO1)
    assert report.passed
    assert report.tables[0].columns == ("n", "tail_gap", "cdf_gap")


# ---------------------------------------------------------------------------
# reports and determinism
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical_given_seed():
    a = run_thm32(GEOMETRIC, univariate(Frechet(1.0)), 50_000, seed=69)
    b = run_thm32(GEOMETRIC, univariate(Frechet(1.0)), 50_000, seed=69, threads=4)
    assert a.summary_text() == b.summary_text()
    assert a.tables[0].csv_text() == b.tables[0].csv_text()
    c = run_thm34(GEOMETRIC, PARETO1, n=1_000, m=20_000, seed=70)
    d = run_thm34(GEOMETRIC, PARETO1, n=1_000, m=20_000, seed=70, threads=4)
    assert c.summary_text() == d.summary_text()


def test_table_csv_shape():
    empty = Table.from_rows(name="t", columns=("a", "b"), rows=())
    assert empty.csv_text() == "a,b\n"
    four = Table.from_rows(name="t", columns=("a",), rows=((1,), (2,), (3,), (4,)))
    assert four.csv_text().count("\n") == 5
    assert len(four.csv_text().splitlines()) == 5


def test_csv_float_precision():
    table = Table.from_rows(name="t", columns=("x",), rows=((1.0 / 3.0,),))
    text = table.csv_text()
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
        assert_same_text(Table("t", ("c",), (column,)).csv_text(), "c\n" + expected)
    # more than two blocks of rows, so block edges are crossed
    f, i = np.resize(floats, 2 * CSV_BLOCK_ROWS + 1), np.resize(ints, 2 * CSV_BLOCK_ROWS + 1)
    expected = "".join(f"{format_value(a)},{format_value(b)}\n" for a, b in zip(f, i))
    assert_same_text(Table("t", ("f", "i"), (f, i)).csv_text(), "f,i\n" + expected)
    assert Table("t", ("f", "i"), (np.empty(0), ())).csv_text() == "f,i\n"
