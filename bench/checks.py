"""Reference values and output checks, computed apart from randmax.

Nothing here imports the package under test.  Every expected value comes
from a closed form written out below (or from quadrature), and every
statistical check uses the Dvoretzky-Kiefer-Wolfowitz-Massart bound
P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2) at a level where a correct
program fails with probability below 1e-6.
"""

import math

import numpy as np

FALSE_ALARM = 1e-7  # failure probability of one statistical check on correct output


class CheckError(Exception):
    """An operation's output disagrees with its independent reference."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def dkw_limit(n, tests=1):
    """Sup distance a correct empirical d.f. of size n exceeds w.p. FALSE_ALARM/tests."""
    return math.sqrt(math.log(2.0 * tests / FALSE_ALARM) / (2.0 * n))


def ks_stat(sample, cdf, block=1 << 16):
    """One-sample Kolmogorov-Smirnov distance of ``sample`` against ``cdf``.

    Evaluated in blocks so that the check's own temporaries stay far below
    the program's memory and do not set the run's peak RSS.
    """
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = x.size
    distance = 0.0
    for lo in range(0, n, block):
        f = np.asarray(cdf(x[lo:lo + block]), dtype=float)
        i = np.arange(lo + 1, lo + 1 + f.size)
        distance = max(distance, np.abs(i / n - f).max(), np.abs((i - 1) / n - f).max())
    return float(distance)


def check_ks(sample, cdf, label, tests=1):
    sample = np.asarray(sample, dtype=float)
    require(sample.size > 0 and np.all(np.isfinite(sample)), f"{label}: empty or non-finite draws")
    d = ks_stat(sample, cdf)
    limit = dkw_limit(sample.size, tests)
    require(d < limit, f"{label}: KS distance {d:.5g} >= {limit:.5g} (n={sample.size})")


def check_close(got, want, tol, label):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{label}: shape {got.shape} != {want.shape}")
    err = float(np.abs(got - want).max()) if got.size else 0.0
    require(err <= tol, f"{label}: max error {err:.3g} > {tol:.3g}")


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

# Laplace transforms phi(s) of the three count families.
PHI = {
    "geometric": lambda s: 1.0 / (1.0 + s),
    "mittag-leffler": lambda s: 1.0 / (1.0 + np.sqrt(s)),  # nu = 1/2
    "degenerate": lambda s: np.exp(-s),
}


def geometric_pgf(theta, s):
    """P_theta(s) = theta s / (1 - (1 - theta) s) for the geometric family."""
    return theta * s / (1.0 - (1.0 - theta) * s)


def pareto_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 1.0, 1.0 - 1.0 / np.maximum(x, 1.0), 0.0)


def exponential_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, -np.expm1(-np.maximum(x, 0.0)), 0.0)


def random_max_pareto_cdf(theta):
    """d.f. of the geometric random maximum of Pareto(1) draws.

    P_theta(1 - 1/x) simplifies to theta (x - 1) / (theta (x - 1) + 1).
    """

    def cdf(x):
        y = np.maximum(np.asarray(x, dtype=float) - 1.0, 0.0)
        return theta * y / (theta * y + 1.0)

    return cdf


def random_max_exponential_cdf(theta):
    """P_theta(1 - e^-x) = theta G / (theta G + e^-x) for x > 0."""

    def cdf(x):
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        g = -np.expm1(-x)
        return theta * g / (theta * g + np.exp(-x))

    return cdf


def erfcx(z):
    """Scaled complementary error function exp(z^2) erfc(z), z >= 0."""
    if z < 5.0:
        return math.exp(z * z) * math.erfc(z)
    # asymptotic series; at z >= 5 the omitted terms are below 1e-13
    total, term = 1.0, 1.0
    for k in range(1, 8):
        term *= -(2 * k - 1) / (2.0 * z * z)
        total += term
    return total / (z * math.sqrt(math.pi))


def mittag_leffler_half_cdf(x):
    """d.f. of the mixer with Laplace transform 1/(1 + sqrt(s)).

    Pillai's law 1 - E_nu(-x^nu) at nu = 1/2, where E_{1/2}(-z) = erfcx(z).
    """
    x = np.asarray(x, dtype=float)
    return np.array([1.0 - erfcx(math.sqrt(v)) if v > 0.0 else 0.0 for v in x.ravel()])


def record_count_mean(horizon=1.0, level=1.0):
    """Mean number of Frechet(1) path states above ``level`` on (0, horizon].

    integral_0^T (1 - exp(-t/y))/t dt by composite Simpson on 2000 panels.
    """
    t = np.linspace(0.0, horizon, 4001)
    f = np.empty_like(t)
    f[0] = 1.0 / level
    f[1:] = -np.expm1(-t[1:] / level) / t[1:]
    h = t[1] - t[0]
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_joint(pairs, theta, points, label):
    """Empirical P(X1 <= a, X2 <= b) against P_theta(G1(a) G2(b)), Pareto(1) x Exp(1)."""
    pairs = np.asarray(pairs, dtype=float)
    n = pairs.shape[0]
    for a, b in points:
        p = float(geometric_pgf(theta, pareto_cdf(a) * exponential_cdf(b)))
        emp = float(np.mean((pairs[:, 0] <= a) & (pairs[:, 1] <= b)))
        limit = dkw_limit(n, len(points))
        require(abs(emp - p) < limit, f"{label}: P(X<=({a},{b})) {emp:.5g} vs {p:.5g}")


def thm34_gaps(case, n):
    """(tail_gap, random_gap) of ``verify thm34`` from the closed forms.

    ``case`` is "geometric-pareto" (a_n = n, b_n = 0 on the Frechet(1) grid)
    or "degenerate-exponential" (a_n = 1, b_n = log n on the Gumbel grid).
    """
    # in both cases n (1 - G(a_n x + b_n)) = V(x) exactly, so the tail gap is 0
    if case == "geometric-pareto":
        # P_{1/n}(s) = s x / (s x + 1) at s = 1 - 1/(n x), against F = x / (x + 1)
        x = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
        s = 1.0 - 1.0 / (n * x)
        random = 1.0 / (n * (x + 1.0) * (s * x + 1.0))
    elif case == "degenerate-exponential":
        # P_{1/n}(s) = s^n at s = 1 - e^-x / n, against F = exp(-e^-x)
        x = np.array([-1.0, 0.0, 1.0, 2.0, 4.0])
        random = np.abs(np.exp(n * np.log1p(-np.exp(-x) / n)) - np.exp(-np.exp(-x)))
    else:
        raise ValueError(f"unknown thm34 case {case!r}")
    return 0.0, float(random.max())


def check_thm34(summary, case, n):
    tail, random = thm34_gaps(case, n)
    require(summary.get("result") == "PASS", "thm34: summary does not PASS")
    require(int(summary["param n"]) == n, f"thm34: ran at n={summary['param n']}, expected {n}")
    check_close(float(summary["tail_gap"]), tail, 1e-9, "thm34 tail_gap")
    check_close(float(summary["random_gap"]), random, 1e-9, "thm34 random_gap")


def check_thm32(summary, grid, family, dim):
    """Analytic column is phi(1/x); empirical column and distance within DKW."""
    n = int(summary["param n"])
    phi = PHI[family]
    require(grid.shape == (6 * dim, 4), f"thm32: grid shape {grid.shape}")
    x = grid[:, 1]
    check_close(x, np.tile([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], dim), 0.0, "thm32 grid x")
    check_close(grid[:, 3], phi(1.0 / x), 1e-12, "thm32 analytic")
    limit = dkw_limit(n, dim)
    check_close(grid[:, 2], phi(1.0 / x), limit, "thm32 empirical")
    distance, critical = float(summary["distance"]), float(summary["critical"])
    require(distance < limit, f"thm32: distance {distance:.5g} >= {limit:.5g}")
    # the program's own 1 percent test may fail; its verdict must match its numbers
    expected = "PASS" if distance < critical else "FAIL"
    require(summary.get("result") == expected, "thm32: verdict disagrees with distance")


def check_paths(data, n_paths, horizon, floor):
    """Jump-chain CSV rows (path_id, time, state) of Frechet(1) paths."""
    data = np.asarray(data, dtype=float).reshape(-1, 3)
    pid, t, y = data[:, 0], data[:, 1], data[:, 2]
    require(np.all(np.diff(pid) >= 0.0), "paths: path ids out of order")
    require(pid.size == 0 or (pid[0] >= 0 and pid[-1] < n_paths), "paths: path id out of range")
    same = pid[1:] == pid[:-1]
    require(np.all(np.diff(t)[same] > 0.0), "paths: jump times do not strictly increase")
    require(np.all(np.diff(y)[same] > 0.0), "paths: states do not strictly increase")
    require(np.all(y > floor), "paths: a state lies at or below the floor")
    require(np.all((t > 0.0) & (t <= horizon)), "paths: a jump time lies outside (0, horizon]")
    # terminal state Y(horizon); a path without jumps ends at the floor
    final = np.full(n_paths, floor)
    last = np.append(~same, True)
    final[pid[last].astype(int)] = y[last]
    check_ks(final, lambda v: np.exp(-horizon / v), "paths terminal state")
    above = np.bincount(pid[y > 1.0].astype(int), minlength=n_paths)
    mean = record_count_mean(horizon, 1.0)
    se = above.std(ddof=1) / math.sqrt(n_paths)
    require(
        abs(above.mean() - mean) < 5.0 * se,
        f"paths: mean states above 1 is {above.mean():.4f}, expected {mean:.4f} +/- 5*{se:.4f}",
    )
