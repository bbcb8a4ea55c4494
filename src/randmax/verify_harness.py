"""Named verification experiments with deterministic, serializable reports.

Each runner reproduces one identity or limit statement at desk scale and
returns an ``ExperimentReport`` whose tables and summary render
byte-identically for a given (experiment, parameters, seed).  Three rules
separate the error regimes: closed-form identity checks at 1e-12, limit gaps
within 2K/n^2 + 8 eps max(1, ln n) of their first-order rate c/n, and Monte Carlo
comparisons (of levels V, which no shape rounds, for the sampled theorems) at
the 1 percent KS level (critical value 1.628/sqrt(n), exact below n = 100), with
a 0.01 pre-limit allowance when a finite-theta sample is held against its limit.
"""

from dataclasses import dataclass

import numpy as np

from ._csvtext import csv_rows, format_value
from ._util import BLOCK_VALUES, EPS
from .errors import ConfigurationError, DomainError
from .evd_core import MaxStableLaw, cdf_gap, doa_gap, normed_base, tail_gap
from .extremal_proc import sample_levels
from .lt_families import CountScheme, Degenerate, Geometric, MittagLeffler
from .nmid_compose import NMaxStableLaw, max_survivals, same_type_decompose
from .streams import chunked_draws

KS_ONE_PERCENT = 1.628
KS_EXACT_BELOW = 100  # sample sizes whose KS critical value is exact, not asymptotic
IDENTITY_TOL = 1e-12
PRELIMIT_ALLOWANCE = 0.01


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------


def ks_distance(sample, cdf):
    """One-sample KS statistic of a sorted sample against a d.f. callable.

    max over i of max(|i/n - F(x_i)|, |(i-1)/n - F(x_i)|), taken as
    max(i/n - F(x_i), F(x_i) - (i-1)/n): the larger of the two absolute values
    is always one of these, and a difference and its negation are the same
    bits.  ``cdf`` is evaluated and both deviations reduced ``BLOCK_VALUES``
    points at a time, so the working memory is one block whatever the sample
    size; a NaN in any block makes the statistic NaN.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise DomainError("KS distance needs a nonempty sample")
    if sample.ndim != 1:
        raise DomainError("KS distance expects a one-dimensional sample")
    if np.any(sample[1:] < sample[:-1]):
        raise DomainError("KS distance expects a sorted sample")
    n = sample.size
    distance = 0.0
    for start in range(0, n, BLOCK_VALUES):
        x = sample[start:start + BLOCK_VALUES]
        f = np.asarray(cdf(x), dtype=float)
        steps = np.arange(start, start + x.size + 1) / n  # steps[:-1] is (i-1)/n, steps[1:] is i/n
        distance = np.maximum(distance, np.maximum((steps[1:] - f).max(), (f - steps[:-1]).max()))
    return float(distance)


def ks_two_sample(a, b):
    """Two-sample KS statistic; inputs are sorted internally."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DomainError("KS distance needs nonempty samples")
    pooled = np.concatenate([a, b])
    ca = np.searchsorted(a, pooled, side="right") / a.size
    cb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(ca - cb).max())


def _kolmogorov_cdf(n, d):
    """P(D_n < d) for the one-sample KS statistic of n draws (Marsaglia, Tsang and Wang 2003).

    The (k - 1, k - 1) entry of H^n times n!/n^n, where H is their (2k - 1)-square
    matrix for k = floor(n d) + 1.  Products are summed in numpy, not BLAS, so
    the value is the same on every run.
    """
    k = int(n * d) + 1
    m = 2 * k - 1
    h = k - n * d
    i = np.arange(m)
    gap = i[:, None] - i + 1
    H = (gap >= 0).astype(float)
    H[:, 0] -= h ** (i + 1)
    H[-1] -= h ** (m - i)
    H[-1, 0] += max(2 * h - 1, 0.0) ** m
    H /= np.cumprod(np.arange(m + 1.0).clip(1))[gap.clip(0)]  # H[i, j] / (i - j + 1)!
    power, q = H, None
    for bit in bin(n)[:1:-1]:  # binary powering, lowest bit first
        if bit == "1":
            q = power if q is None else (q[:, :, None] * power).sum(axis=1)
        power = (power[:, :, None] * power).sum(axis=1)
    return float(q[k - 1, k - 1] * np.prod(np.arange(1, n + 1) / n))


def ks_critical(n):
    """Critical KS distance at the 1 percent level for sample size n.

    Below ``KS_EXACT_BELOW`` draws, the exact 1 percent quantile of D_n, by
    bisection on its d.f.; from there on the asymptotic 1.628/sqrt(n), which
    lies about 1 percent above it at n = 100.  The asymptotic value exceeds 1,
    the largest distance, for n <= 2, where no sample could fail the check.
    """
    if n >= KS_EXACT_BELOW:
        return KS_ONE_PERCENT / np.sqrt(n)
    if not n >= 1:
        raise DomainError(f"a KS check needs at least one draw, got n = {n}")
    n = int(n)
    low, high = 0.5 / n, 1.0  # P(D_n < 1/(2n)) = 0 and P(D_n < 1) = 1
    while True:
        mid = 0.5 * (low + high)
        if not low < mid < high:
            return high
        low, high = (mid, high) if _kolmogorov_cdf(n, mid) < 0.99 else (low, mid)


# ---------------------------------------------------------------------------
# Tables and reports
# ---------------------------------------------------------------------------


class _Rows:
    """The rows of a column-wise table, as tuples made on iteration."""

    def __init__(self, data):
        self._data = data

    def __len__(self):
        return len(self._data[0]) if self._data else 0

    def __iter__(self):
        return zip(*self._data)


CSV_BLOCK_ROWS = 4096  # rows formatted at a time, which bounds the memory of a CSV write


@dataclass(frozen=True)
class Table:
    """A named table held column-wise: one array or sequence per column."""

    name: str
    columns: tuple
    data: tuple

    @classmethod
    def from_rows(cls, name, columns, rows):
        return cls(name, tuple(columns), tuple(zip(*rows)) or ((),) * len(columns))

    @property
    def rows(self):
        return _Rows(self.data)

    def csv_blocks(self):
        """The CSV text as UTF-8 bytes: the header line, then ``CSV_BLOCK_ROWS`` rows at a time."""
        yield (",".join(self.columns) + "\n").encode("utf-8")
        for start in range(0, len(self.rows), CSV_BLOCK_ROWS):
            yield csv_rows([column[start:start + CSV_BLOCK_ROWS] for column in self.data])


@dataclass(frozen=True)
class ExperimentReport:
    """A named experiment outcome: parameters, seed, tables, stats, pass flag."""

    name: str
    params: dict  # printed in insertion order
    seed: object
    tables: tuple
    stats: dict  # printed in insertion order
    passed: bool

    def summary_text(self):
        lines = [f"experiment: {self.name}"]
        for key, value in self.params.items():
            lines.append(f"param {key} = {format_value(value)}")
        if self.seed is not None:
            lines.append(f"seed = {self.seed}")
        for key, value in self.stats.items():
            lines.append(f"{key} = {format_value(value)}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

POINCARE_S_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
POINCARE_THETAS = (0.5, 0.1, 0.01)
DEFAULT_NS = (10, 100, 1_000, 10_000)


def _check_ns(ns):
    """Reject an empty list of indices; ``normed_base`` refuses an index below 1."""
    if not ns:
        raise DomainError("at least one n is required")


def _first_order(v, family=None):
    """``(c, K)`` of a gap on levels ``v`` where n S = V: at n > max V it is c/n within 2K/n^2.

    |(1 - V/n)^n - e^-V| = e^-V (V^2/(2n) - (V^4/8 - V^3/3)/n^2) + O(n^-3) is the deterministic
    gap, and the random one under degenerate counts; geometric and Mittag-Leffler counts give the
    random gap r^2/(n - r) = r^2/n + r^3/n^2 + ..., r = V/(1 + V).  Any other family is refused.
    """
    if isinstance(family, Geometric):
        r = v / (1.0 + v)
        return float((r**2).max()), float((r**3).max())
    if not (family is None or isinstance(family, Degenerate)):
        raise ConfigurationError(f"no first-order rate is derived for the {family.name} family")
    e = np.exp(-v)
    return float((v**2 * e).max() / 2), float(np.abs(e * (v**4 / 8 - v**3 / 3)).max())


def _holds(rows, v, rates):
    """The limit rule: some row (n, *gaps) has n > max V, so S = V/n, and each such row holds.

    A row holds when each gap, of first order ``(c, K)`` in ``rates``, lies within
    2K/n^2 + 8 eps max(1, ln n) of c/n.  The ln n covers a count index n^(-1/nu): it rounds 1/nu,
    which moves theta^nu off 1/n by up to eps ln n / 2 relative.
    """
    checked = [row for row in rows if row[0] > float(v.max())]
    return bool(checked) and all(
        abs(gap - c / n) <= 2 * k / n / n + 8 * EPS * max(1.0, np.log(float(n)))
        for n, *gaps in checked for gap, (c, k) in zip(gaps, rates)
    )


def _random_gap(family, n, s, v):
    """sup |P_theta(1 - S) - phi(W)| at theta = ``family.index(n)``, W = ``limit_exponent(V)``."""
    gap = family.pgf_sf(family.index(n), s) - family.lt(family.limit_exponent(v))
    return float(np.abs(gap).max())


def run_poincare(family, thetas=POINCARE_THETAS, s_grid=POINCARE_S_GRID):
    """Residuals of the composition identity P_theta(phi(theta s)) = phi(s)."""
    rows = []
    worst = 0.0
    for theta in thetas:
        for s in s_grid:
            residual = abs(family.pgf_sf(theta, family.lt_sf(theta * s)) - family.lt(s))
            worst = max(worst, residual)
            rows.append((theta, s, residual))
    table = Table.from_rows(name="residuals", columns=("theta", "s", "residual"), rows=rows)
    return ExperimentReport(
        name="poincare",
        params={"family": family.name, "tolerance": IDENTITY_TOL},
        seed=None,
        tables=(table,),
        stats={"max_residual": worst},
        passed=worst < IDENTITY_TOL,
    )


def run_lemma12(family, theta, n, seed):
    """Scaled-count convergence: theta*N_theta against the mixer law.

    Draws ``n`` counts, scales them by theta, and takes the sup distance
    between their empirical d.f. and the mixer's d.f. over a grid on
    [0, 12].  Small theta passes at the threshold ``PRELIMIT_ALLOWANCE``;
    moderate theta visibly fails (the limit has not set in).
    """
    if isinstance(family, MittagLeffler):
        raise ConfigurationError(
            "theta*N_theta degenerates to 0 for the Mittag-Leffler family "
            "(the count is geometric with success theta^nu, so the mean of "
            "theta*N_theta is theta^(1-nu) -> 0); no scaling of N_theta "
            "converges to the mixer with transform 1/(1+s^nu), so this "
            "check is not defined for nu < 1"
        )
    family.validate_theta(theta)
    scaled = chunked_draws(seed, n, lambda rng, m: family.sample_count(theta, rng, m).astype(float))
    scaled *= theta
    scaled.sort()
    grid = np.linspace(0.0, 12.0, 4801)
    empirical = np.searchsorted(scaled, grid, side="right") / n
    distance = float(np.abs(empirical - family.mixer_cdf(grid)).max())
    table = Table.from_rows(
        name="distance",
        columns=("theta", "n", "distance", "threshold"),
        rows=((theta, n, distance, PRELIMIT_ALLOWANCE),),
    )
    return ExperimentReport(
        name="lemma12",
        params={"family": family.name, "theta": theta, "n": n},
        seed=seed,
        tables=(table,),
        stats={"distance": distance, "threshold": PRELIMIT_ALLOWANCE},
        passed=distance < PRELIMIT_ALLOWANCE,
    )


def run_definetti(family, base, ns=DEFAULT_NS):
    """Gap of phi(n(1 - G(a_n x + b_n))) against phi(V(x)) along n, held to 0 (``_holds``)."""
    _check_ns(ns)
    gaps = []
    for n in ns:
        s, v = normed_base(base, n)
        gaps.append(float(np.abs(family.lt(n * s) - family.lt(v)).max()))
    table = Table(name="gaps", columns=("n", "sup_gap"), data=(list(map(int, ns)), gaps))
    return ExperimentReport(
        name="definetti",
        params={"family": family.name, "triple": base.name},
        seed=None,
        tables=(table,),
        stats={"final_gap": gaps[-1]},
        passed=_holds(zip(ns, gaps), v, [(0.0, 0.0)]),
    )


def run_thm24(family, base, ns=DEFAULT_NS):
    """Paired convergence: G^n toward H against the random maximum toward its limit.

    The random column is sup |P_theta(G(a_n x + b_n)) - phi(W(x))| with the
    count index theta = ``family.index(n)`` and W = ``family.limit_exponent(V)``
    (Theorems 2.4 and 3.4).  Geometric and degenerate counts take
    theta = 1/n and W = V, so the limit is F = phi(V).  A Mittag-Leffler
    count is geometric with success theta^nu, so it takes theta = n^(-1/nu)
    and W = V^(1/nu): phi(W) = 1/(1 + V), and the Mittag-Leffler random
    maximum of a classical base lands in the geometric class.

    Both gaps are held to their first-order rates (``_holds``); n times each
    gap tends to its rate, printed as ``rate_deterministic`` and ``rate_random``.
    """
    _check_ns(ns)
    rows = []
    for n in ns:
        s, v = normed_base(base, n)
        rows.append((int(n), cdf_gap(n, s, v), _random_gap(family, n, s, v)))
    rates = _first_order(v), _first_order(v, family)
    table = Table.from_rows(
        name="convergence", columns=("n", "sup_gap_deterministic", "sup_gap_random"), rows=rows
    )
    return ExperimentReport(
        name="thm24",
        params={"family": family.name, "triple": base.name},
        seed=None,
        tables=(table,),
        stats={
            "final_gap_deterministic": rows[-1][1],
            "final_gap_random": rows[-1][2],
            "rate_deterministic": rates[0][0],
            "rate_random": rates[1][0],
        },
        passed=_holds(rows, v, rates),
    )


def run_thm31(family, law, thetas=POINCARE_THETAS):
    """Same-type decomposition residuals F = P_theta(F_theta) over theta."""
    nlaw = NMaxStableLaw(family, law)
    dim = law.dim
    columns = ["theta", "residual"]
    for i in range(dim):
        columns += [f"scale_{i}", f"shift_{i}"]
    rows = []
    worst = 0.0
    for theta in thetas:
        residual, norming = same_type_decompose(nlaw, theta)
        worst = max(worst, residual)
        row = [theta, residual]
        for scale, shift in norming:
            row += [scale, shift]
        rows.append(tuple(row))
    table = Table.from_rows(name="decomposition", columns=tuple(columns), rows=rows)
    return ExperimentReport(
        name="thm31",
        params={"family": family.name, "dim": dim, "tolerance": IDENTITY_TOL},
        seed=None,
        tables=(table,),
        stats={"max_residual": worst},
        passed=worst < IDENTITY_TOL,
    )


def run_thm32(family, law, n, seed):
    """Subordination check: Y at an independent mixer time reproduces phi(V).

    Draws Z from the mixer, then the levels E/Z of Y(Z) exactly, and runs
    the KS check on the levels: Y(Z) <= x holds exactly where E/Z >= V(x),
    so the levels have d.f. 1 - phi at every shape, where the states of a
    large shape round to a few hundred floats.  d = 2 checks each
    coordinate's levels, one column under complete dependence.  Passes when
    every Kolmogorov-Smirnov distance is below 1.628/sqrt(n) (the 1 percent
    critical value).  The logistic model has no sampler and is rejected, and
    the marginal grids are read before any draw.
    """
    if not isinstance(law, MaxStableLaw):
        raise ConfigurationError("subordination requires a max-stable base")
    grids = [m.grid for m in law.marginals]
    levels = chunked_draws(
        seed, n, lambda rng, m: sample_levels(law, family.sample_mixer(rng, m), rng, m)
    )
    levels.sort(axis=0)
    distance = max(ks_distance(column, family.lt_sf) for column in levels.reshape(n, -1).T)
    columns = [levels] * law.dim if levels.ndim == 1 else levels.T
    rows = []
    for i, (column, marginal, grid) in enumerate(zip(columns, law.marginals, grids)):
        v = marginal.v(grid)
        empirical = (n - np.searchsorted(column, v, side="left")) / n
        for x, w, emp in zip(grid, v, empirical):
            rows.append((i, float(x), float(emp), float(family.lt(w))))
    critical = float(ks_critical(n))
    table = Table.from_rows(
        name="grid", columns=("coordinate", "x", "empirical", "analytic"), rows=rows
    )
    return ExperimentReport(
        name="thm32",
        params={"family": family.name, "dim": law.dim, "n": n},
        seed=seed,
        tables=(table,),
        stats={"distance": distance, "critical": critical},
        passed=distance < critical,
    )


def run_thm34(family, base, n, m, seed):
    """Random domain of attraction (Theorem 3.4): analytic gap plus seeded sampling check.

    The count index is theta = ``family.index(n)`` and the limit is
    F = phi(W) with W = ``family.limit_exponent(V)``: theta = 1/n and
    F = phi(V) for geometric and degenerate counts; theta = n^(-1/nu) and
    F = 1/(1 + V) for Mittag-Leffler counts, whose random maximum of a
    classical base lands in the geometric class.  Analytic side, at n > max V:
    the tail gap within 8 eps max V, the cdf and random gaps at their rates
    ``cdf_rate`` and ``random_rate`` (``_holds``).  Stochastic side: M <= x holds
    exactly where the normed maximum's level n S >= V(x), S the survival of
    ``max_survivals`` at theta.  So m levels, which no shape rounds, are held
    by KS against 1 - phi(W), with the pre-limit allowance added.
    """
    s, v = normed_base(base, n)
    tail, det = tail_gap(n, s, v), cdf_gap(n, s, v)
    random_gap = _random_gap(family, n, s, v)
    rates = _first_order(v), _first_order(v, family)

    scheme = CountScheme(family, family.index(n))
    levels = chunked_draws(seed, m, lambda rng, k: n * max_survivals(scheme, rng, (k,)))
    levels.sort()
    distance = ks_distance(levels, lambda w: family.lt_sf(family.limit_exponent(w)))
    critical = float(ks_critical(m))
    if critical + PRELIMIT_ALLOWANCE >= 1.0:  # no KS distance exceeds 1
        raise DomainError(
            f"m = {m} draws cannot fail the KS check: its critical value {critical:.6g} "
            f"plus the allowance {PRELIMIT_ALLOWANCE:g} is at least 1"
        )

    analytic_ok = tail <= 8 * EPS * float(v.max()) and _holds([(n, det, random_gap)], v, rates)
    ks_ok = distance < critical + PRELIMIT_ALLOWANCE
    table = Table.from_rows(
        name="gaps",
        columns=("n", "tail_gap", "cdf_gap", "random_gap"),
        rows=((int(n), tail, det, random_gap),),
    )
    return ExperimentReport(
        name="thm34",
        params={"family": family.name, "triple": base.name, "n": n, "m": m},
        seed=seed,
        tables=(table,),
        stats={
            "tail_gap": tail,
            "random_gap": random_gap,
            "cdf_rate": rates[0][0],
            "random_rate": rates[1][0],
            "ks_distance": distance,
            "ks_critical": critical,
            "allowance": PRELIMIT_ALLOWANCE,
        },
        passed=analytic_ok and ks_ok,
    )


def run_doa_table(base, ns=DEFAULT_NS):
    """Domain-of-attraction gaps along n: tail gaps within 8 eps max V, cdf gaps at their rate."""
    _check_ns(ns)
    rows = [(int(n), *doa_gap(base, n)) for n in ns]
    _, final_tail, final_cdf = rows[-1]
    _, v = normed_base(base, 1)
    rate = _first_order(v)
    tails_ok = all(tail <= 8 * EPS * v.max() for n, tail, _ in rows if n > v.max())
    table = Table.from_rows(name="gaps", columns=("n", "tail_gap", "cdf_gap"), rows=rows)
    return ExperimentReport(
        name="doa",
        params={"triple": base.name},
        seed=None,
        tables=(table,),
        stats={"final_tail_gap": final_tail, "final_cdf_gap": final_cdf, "cdf_rate": rate[0]},
        passed=tails_ok and _holds([(n, cdf) for n, _, cdf in rows], v, [rate]),
    )
