"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them inline).
Criterion 8 is split into its three named checks; see the jump-count test
for a measured caveat about its stated target law.
"""

import math
import time

import numpy as np
import pytest

from randmax import (
    CountScheme,
    Degenerate,
    Frechet,
    Geometric,
    Gumbel,
    MaxStableLaw,
    MittagLeffler,
    NMaxStableLaw,
    Pareto,
    ReverseWeibull,
    ks_critical,
    ks_distance,
    mixture_cdf,
    run_lemma12,
    run_thm24,
    run_thm32,
    same_type_decompose,
    sample_random_max_seeded,
    simulate_path_columns,
    standard_triple,
    univariate,
)
from randmax.cli import main
from randmax.verify_harness import POINCARE_S_GRID, POINCARE_THETAS
from oracles import marginal_cdf, pgf, scheme_pgf

FAMILIES = (Geometric(), MittagLeffler(0.5), Degenerate())
KS_1E5 = 1.628 / math.sqrt(100_000)  # 0.00515


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_poincare_identity():
    start = time.perf_counter()
    worst = 0.0
    for family in FAMILIES:
        for theta in POINCARE_THETAS:
            for s in POINCARE_S_GRID:
                residual = abs(pgf(family, theta, family.lt(theta * s)) - family.lt(s))
                worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report("1 poincare-identity", ok, f"max residual {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_02_mixture_oracle():
    start = time.perf_counter()
    worst = 0.0
    for family in (Geometric(), Degenerate()):
        for marginal in (Frechet(1.0), Frechet(2.0), Gumbel()):
            law = NMaxStableLaw(family, univariate(marginal))
            x = np.asarray(marginal.grid)
            gap = np.abs(law.cdf(x) - mixture_cdf(law, x)).max()
            worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    report("2 mixture-oracle", ok, f"max |closed form - quadrature| {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 1.0


def test_criterion_03_known_special_cases():
    start = time.perf_counter()
    x = np.asarray(Frechet.grid)
    log_logistic = np.abs(
        NMaxStableLaw(Geometric(), univariate(Frechet(1.0))).cdf(x) - x / (1.0 + x)
    ).max()
    y = np.asarray(Gumbel.grid)
    logistic = np.abs(
        NMaxStableLaw(Geometric(), univariate(Gumbel())).cdf(y)
        - 1.0 / (1.0 + np.exp(-y))
    ).max()
    elapsed = time.perf_counter() - start
    worst = max(float(log_logistic), float(logistic))
    ok = worst < 1e-14 and elapsed < 1.0
    report("3 special-cases", ok, f"max pointwise gap {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-14
    assert elapsed < 1.0


def test_criterion_04_same_type_decomposition():
    start = time.perf_counter()
    worst = 0.0
    marginals = (Frechet(1.0), Frechet(2.0), Gumbel(), ReverseWeibull(1.0))
    for family in FAMILIES:
        for marginal in marginals:
            law = NMaxStableLaw(family, univariate(marginal))
            for theta in (0.5, 0.1, 0.01):
                worst = max(worst, same_type_decompose(law, theta)[0])
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report("4 same-type-decomposition", ok, f"max residual {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_05_convergence_table():
    start = time.perf_counter()
    result = run_thm24(Geometric(), standard_triple("pareto", 1.0), ns=(10, 100, 1_000, 10_000))
    rows = {row[0]: row for row in result.tables[0].rows}
    det = [rows[n][1] for n in (10, 100, 1_000, 10_000)]
    ran = [rows[n][2] for n in (10, 100, 1_000, 10_000)]
    decreasing = all(d1 < d0 for d0, d1 in zip(det, det[1:])) and all(
        r1 < r0 for r0, r1 in zip(ran, ran[1:])
    )
    # hand value at n = 100, x = 1: |P_0.01(0.99) - 1/2|
    hand = abs(0.01 * 0.99 / (1.0 - 0.99 * 0.99) - 0.5)
    g100 = standard_triple("pareto", 1.0).cdf(100.0)
    at_x1 = abs(pgf(Geometric(), 0.01, g100) - 0.5)
    hand_ok = abs(at_x1 - hand) <= 0.10 * hand and abs(hand - 0.0025) < 0.0002
    elapsed = time.perf_counter() - start
    ok = det[-1] < 2e-3 and ran[-1] < 2e-3 and decreasing and hand_ok and elapsed < 5.0
    report(
        "5 convergence-table",
        ok,
        f"final gaps ({det[-1]:.2e}, {ran[-1]:.2e}), decreasing={decreasing}, "
        f"n=100 x=1 random gap {at_x1:.5f} vs 0.0025, {elapsed:.2f}s",
    )
    assert det[-1] < 2e-3 and ran[-1] < 2e-3
    assert decreasing
    assert hand_ok
    assert elapsed < 5.0


def test_criterion_06_scaled_count_convergence():
    start = time.perf_counter()
    distance = run_lemma12(Geometric(), 0.001, 100_000, seed=2026).stats["distance"]
    elapsed = time.perf_counter() - start
    ok = distance < 0.01 and elapsed < 5.0
    report("6 scaled-count-limit", ok, f"KS {distance:.4f} < 0.01, {elapsed:.2f}s")
    assert distance < 0.01
    assert elapsed < 5.0


def test_criterion_07_subordination():
    start = time.perf_counter()
    distances = {}
    for label, family in (("geometric", Geometric()),
                          ("degenerate", Degenerate()),
                          ("mittag-leffler", MittagLeffler(0.5))):
        result = run_thm32(family, univariate(Frechet(1.0)), 100_000, seed=2027)
        distances[label] = result.stats["distance"]
    for dependence in ("independence", "complete"):
        law = MaxStableLaw((Frechet(1.0), Frechet(1.0)), dependence=dependence)
        result = run_thm32(Geometric(), law, 100_000, seed=2028)
        distances[dependence] = result.stats["distance"]
    elapsed = time.perf_counter() - start
    worst = max(distances.values())
    ok = worst < KS_1E5 and elapsed < 30.0
    report(
        "7 subordination",
        ok,
        "KS " + ", ".join(f"{k}={v:.5f}" for k, v in distances.items())
        + f" all < {KS_1E5:.5f}, {elapsed:.2f}s",
    )
    assert worst < KS_1E5
    assert elapsed < 30.0


@pytest.fixture(scope="module")
def extremal_paths():
    law = univariate(Frechet(1.0))
    start = time.perf_counter()
    paths = simulate_path_columns(law, 1.0, 10_000, seed=2029)
    return paths, time.perf_counter() - start


def test_criterion_08a_path_monotonicity(extremal_paths):
    paths, elapsed = extremal_paths
    start = time.perf_counter()
    same_path = np.diff(paths.path_ids()) == 0
    monotone = bool(
        np.all(np.diff(paths.states)[same_path] > 0.0)
        and np.all(np.diff(paths.times)[same_path] > 0.0)
    )
    elapsed += time.perf_counter() - start
    ok = monotone and elapsed < 60.0
    report(
        "8a path-monotonicity", ok, f"{len(paths.counts)} paths strictly increasing, {elapsed:.2f}s"
    )
    assert monotone
    assert elapsed < 60.0


def test_criterion_08b_jump_count_poisson(extremal_paths):
    # As stated: the number of path states above level 1 on (0, T] with
    # T = 1, alpha = 1 should have Poisson mean and variance T*1^(-alpha) = 1,
    # both within 5 percent.
    paths, _ = extremal_paths
    counts = np.bincount(paths.path_ids()[paths.states > 1.0], minlength=len(paths.counts))
    mean, var = counts.mean(), counts.var()
    ok = abs(mean - 1.0) <= 0.05 and abs(var - 1.0) <= 0.05
    # Reference law of the resolved states (the records of the arrivals
    # above the level): mean integral_0^1 (1 - exp(-t))/t dt = 0.7966.
    u, w = np.polynomial.legendre.leggauss(200)
    t = 0.5 * (u + 1.0)
    record_mean = float(np.sum(0.5 * w * -np.expm1(-t) / t))
    report(
        "8b jump-count-poisson",
        ok,
        f"mean {mean:.4f}, var {var:.4f} vs target 1.0 +/- 5%; "
        f"record-law mean {record_mean:.4f}",
    )
    assert ok, (
        f"states above level 1: mean {mean:.4f}, variance {var:.4f}; the "
        f"criterion requires Poisson(1) moments within 5%, but the resolved "
        f"jump states are the records of the arrivals above the level, whose "
        f"mean is integral_0^T (1-exp(-t V(y)))/t dt = {record_mean:.4f} "
        f"(matched by the simulation), not T*V(y) = 1; no exact simulation "
        f"of the strictly increasing jump chain can meet the stated target"
    )


def test_criterion_08c_terminal_marginal(extremal_paths):
    paths, sim_elapsed = extremal_paths
    start = time.perf_counter()
    law = univariate(Frechet(1.0))
    finals = np.sort(paths.final_states())
    distance = ks_distance(finals, lambda x: marginal_cdf(law, 1.0, x))
    elapsed = sim_elapsed + time.perf_counter() - start
    critical = ks_critical(10_000)
    ok = distance < critical and elapsed < 60.0
    report("8c terminal-marginal", ok, f"KS {distance:.5f} < {critical:.5f}, {elapsed:.2f}s")
    assert distance < critical
    assert elapsed < 60.0


def test_criterion_09_finite_theta_exactness():
    start = time.perf_counter()
    base = Pareto(1.0)
    distances = {}
    for theta in (0.5, 0.1, 0.01):
        scheme = CountScheme(Geometric(), theta)
        draws = np.sort(sample_random_max_seeded(scheme, base, seed=2030, n=100_000))
        distances[theta] = ks_distance(draws, lambda x: scheme_pgf(scheme, base.cdf(x)))
    elapsed = time.perf_counter() - start
    worst = max(distances.values())
    ok = worst < KS_1E5 and elapsed < 30.0
    report(
        "9 finite-theta-exactness",
        ok,
        "KS " + ", ".join(f"theta={k}: {v:.5f}" for k, v in distances.items())
        + f" all < {KS_1E5:.5f}, {elapsed:.2f}s",
    )
    assert worst < KS_1E5
    assert elapsed < 30.0


def test_criterion_10_cli_determinism(tmp_path):
    runs = {
        "verify": ["verify", "thm32", "--family", "geometric", "--marginal",
                   "frechet:1", "--n", "50000", "--seed", "123"],
        "sample": ["sample", "randmax", "--family", "geometric", "--theta", "0.1",
                   "--base", "pareto:1", "--n", "20000", "--seed", "123"],
    }
    identical = True
    for label, argv in runs.items():
        outputs = []
        for threads in ("1", "4"):
            for attempt in ("a", "b"):
                out = tmp_path / f"{label}{threads}{attempt}"
                code = main(argv + ["--threads", threads, "--out", str(out)])
                assert code == 0
                csvs = sorted(out.glob("*.csv"))
                assert csvs
                outputs.append(b"".join(p.read_bytes() for p in csvs))
        identical = identical and len(set(outputs)) == 1
    report("10 cli-determinism", identical, "byte-identical CSV for threads {1,4}, reruns")
    assert identical
