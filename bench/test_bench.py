"""Tests of the benchmark itself: each check rejects a wrong output, and
tracing leaves the program's output bytes unchanged.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_package()

import checks  # noqa: E402
import randmax  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def random_max_pairs(theta, n, seed, shared_count=True):
    """Pareto(1) x Exp(1) random maxima made with numpy alone.

    The maximum of N uniforms is V^(1/N); ``shared_count=False`` draws a
    separate N per coordinate, which keeps the marginals but breaks the
    joint law.
    """
    rng = np.random.default_rng(seed)
    counts = rng.geometric(theta, size=(n, 1 if shared_count else 2))
    u = rng.random((n, 2)) ** (1.0 / counts)
    return np.column_stack([1.0 / (1.0 - u[:, 0]), -np.log1p(-u[:, 1])])


def test_ks_check_rejects_draws_at_wrong_theta():
    draws = random_max_pairs(0.001, 20_000, 1)[:, 0]
    checks.check_ks(draws, checks.random_max_pareto_cdf(0.001), "right theta")
    wrong = random_max_pairs(0.002, 20_000, 1)[:, 0]
    with pytest.raises(CheckError):
        checks.check_ks(wrong, checks.random_max_pareto_cdf(0.001), "wrong theta")


def test_exponential_random_max_cdf_matches_draws():
    draws = random_max_pairs(0.1, 50_000, 2)[:, 1]
    checks.check_ks(draws, checks.random_max_exponential_cdf(0.1), "exponential")
    with pytest.raises(CheckError):
        checks.check_ks(draws, checks.random_max_exponential_cdf(0.05), "exponential")


def test_joint_check_rejects_unshared_counts():
    points = workloads.JOINT_POINTS
    checks.check_joint(random_max_pairs(0.1, 200_000, 3), 0.1, points, "shared")
    with pytest.raises(CheckError):
        checks.check_joint(random_max_pairs(0.1, 200_000, 3, shared_count=False), 0.1, points, "unshared")


@pytest.mark.parametrize("case", ["geometric-pareto", "degenerate-exponential"])
def test_thm34_check_rejects_gap_at_wrong_index(case):
    tail, random_gap = checks.thm34_gaps(case, 10_000)
    summary = {"result": "PASS", "param n": "10000", "tail_gap": repr(tail), "random_gap": repr(random_gap)}
    checks.check_thm34(summary, case, 10_000)
    _, wrong = checks.thm34_gaps(case, 20_000)
    with pytest.raises(CheckError):
        checks.check_thm34(dict(summary, random_gap=repr(wrong)), case, 10_000)
    with pytest.raises(CheckError):
        checks.check_thm34(dict(summary, result="FAIL"), case, 10_000)


def test_thm34_gaps_match_program_output(tmp_path):
    workloads.call_cli(["verify", "thm34", "--n", "1000", "--m", "2000", "--seed", "3"], tmp_path)
    summary = workloads.read_summary(tmp_path / "thm34_summary.txt")
    checks.check_thm34(summary, "geometric-pareto", 1000)


def thm32_output(tmp_path, flags, n=20_000):
    workloads.call_cli(["verify", "thm32", *flags, "--n", str(n), "--seed", "4"], tmp_path, allowed=(0, 1))
    summary = workloads.read_summary(tmp_path / "thm32_summary.txt")
    grid = workloads.read_csv(tmp_path / "thm32_grid.csv", ("coordinate", "x", "empirical", "analytic"))
    return summary, grid


def test_thm32_check_rejects_wrong_family(tmp_path):
    summary, grid = thm32_output(tmp_path, ["--family", "mittag-leffler", "--nu", "0.5"])
    checks.check_thm32(summary, grid, "mittag-leffler", 1)
    with pytest.raises(CheckError):
        checks.check_thm32(summary, grid, "geometric", 1)
    tampered = grid.copy()
    tampered[2, 2] += 0.05
    with pytest.raises(CheckError):
        checks.check_thm32(summary, tampered, "mittag-leffler", 1)


def test_thm32_check_accepts_bivariate(tmp_path):
    summary, grid = thm32_output(tmp_path, ["--dependence", "complete"])
    checks.check_thm32(summary, grid, "geometric", 2)


def path_rows(tmp_path, paths=2000, seed=5):
    workloads.call_cli(["extremal", "path", "--paths", str(paths), "--seed", str(seed)], tmp_path)
    return workloads.read_csv(tmp_path / "path.csv", ("path_id", "time", "state"))


def test_paths_check_rejects_broken_paths(tmp_path):
    floor = workloads.path_floor(1.0)
    rows = path_rows(tmp_path)
    checks.check_paths(rows, 2000, 1.0, floor)
    # first path with at least two states: swap its first two states
    i = int(np.flatnonzero(rows[1:, 0] == rows[:-1, 0])[0])
    swapped = rows.copy()
    swapped[[i, i + 1], 2] = swapped[[i + 1, i], 2]
    below = rows.copy()
    below[0, 2] = floor / 2.0
    late = rows.copy()
    late[np.flatnonzero(np.append(rows[1:, 0] != rows[:-1, 0], True))[0], 1] = 1.5
    doubled = rows.copy()
    doubled[:, 2] *= 2.0
    for broken in (swapped, below, late, doubled):
        with pytest.raises(CheckError):
            checks.check_paths(broken, 2000, 1.0, floor)


def test_record_count_mean_matches_series():
    # integral_0^1 (1 - e^-t)/t dt = sum_k (-1)^(k+1) / (k k!)
    series = sum((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 30))
    assert abs(checks.record_count_mean() - series) < 1e-12


def test_mixture_check_rejects_offset():
    x = np.linspace(0.01, 100.0, 50)
    checks.check_close(x / (1.0 + x), x / (1.0 + x), 1e-8, "mixture")
    with pytest.raises(CheckError):
        checks.check_close(x / (1.0 + x) + 1e-7, x / (1.0 + x), 1e-8, "mixture")


def test_mittag_leffler_cdf_rejects_exponential_mixer():
    rng = np.random.default_rng(6)
    # U = E^2 * S with S positive 1/2-stable (S = 1/(2 Z^2), Z standard normal)
    ml = rng.exponential(size=50_000) ** 2 / (2.0 * rng.standard_normal(50_000) ** 2)
    checks.check_ks(ml, checks.mittag_leffler_half_cdf, "mittag-leffler")
    with pytest.raises(CheckError):
        checks.check_ks(rng.exponential(size=50_000), checks.mittag_leffler_half_cdf, "exponential")


def test_thread_check_rejects_differing_bytes():
    op = workloads.thread_checks(1)[0]
    op.check([b"a", b"a"], None)
    with pytest.raises(CheckError):
        op.check([b"a", b"b"], None)


TRACE_ARGV = (
    ["verify", "thm34", "--n", "1000", "--m", "2000", "--seed", "7"],
    ["verify", "thm32", "--family", "degenerate", "--n", "20000", "--seed", "7"],
    ["sample", "randmax", "--theta", "0.01", "--n", "3000", "--seed", "7"],
    ["extremal", "path", "--paths", "300", "--seed", "7"],
    ["verify", "poincare"],
)


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    original = randmax.nmid_compose.sample_random_max
    for index, argv in enumerate(TRACE_ARGV):
        workloads.call_cli(argv, tmp_path / "plain" / str(index), allowed=(0, 1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index, argv in enumerate(TRACE_ARGV):
            workloads.call_cli(argv, tmp_path / "traced" / str(index), allowed=(0, 1))
    finally:
        tracer.uninstall()
    assert randmax.nmid_compose.sample_random_max is original
    plain = sorted(p.relative_to(tmp_path / "plain") for p in (tmp_path / "plain").rglob("*.*"))
    traced = sorted(p.relative_to(tmp_path / "traced") for p in (tmp_path / "traced").rglob("*.*"))
    assert plain == traced and len(plain) >= 8
    for rel in plain:
        assert (tmp_path / "plain" / rel).read_bytes() == (tmp_path / "traced" / rel).read_bytes()
    metrics = tracer.metrics()
    assert metrics["cli.invocations"] == len(TRACE_ARGV)
    assert metrics["extremal_proc.paths"] == 300
    assert metrics["nmid_compose.random_maxima"] == 2000 + 3000
    assert all(metrics[f"{layer}_s"] > 0.0 for layer in ("cli.parse", "cli.csv", "extremal_proc.path"))


def test_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        scheme = randmax.CountScheme(randmax.Geometric(), 0.1)
        tracer.span("root", randmax.nmid_compose.sample_random_max_seeded,
                    (scheme, randmax.Pareto(1.0), 8, 5000), {})
    finally:
        tracer.uninstall()
    root = tracer.spans[0]
    assert abs(sum(tracer.self_time.values()) - (root[2] - root[1])) < 1e-9
    assert tracer.counts["streams.substreams"] == 5
    assert tracer.counts["nmid_compose.random_maxima"] == 5000


def test_run_without_sources_exits_nonzero(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "scratch", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "many-draws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
