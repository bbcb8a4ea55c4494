"""Named verification experiments with deterministic, serializable reports.

Each runner reproduces one identity or limit statement at desk scale and
returns an ``ExperimentReport`` whose tables and summary render
byte-identically for a given (experiment, parameters, seed).  Tolerances
separate the three error regimes: closed-form identity checks at 1e-12,
limit gaps at n = 10^4 below 2e-3, and Monte Carlo comparisons at the
1 percent Kolmogorov-Smirnov level (critical value 1.628/sqrt(n), exact
below n = 100), with an explicit 0.01 pre-limit allowance when a
finite-theta sample is held against its limit law.
"""

from dataclasses import dataclass

import numpy as np

from ._csvtext import csv_rows, format_value
from ._util import BLOCK_VALUES
from .errors import ConfigurationError, DomainError
from .evd_core import MaxStableLaw, cdf_gap, doa_gap, normed_base, tail_gap
from .extremal_proc import sample_Y_at_time
from .lt_families import CountScheme, MittagLeffler
from .nmid_compose import NMaxStableLaw, same_type_decompose, sample_random_max_seeded
from .streams import chunked_draws

KS_ONE_PERCENT = 1.628
KS_EXACT_BELOW = 100  # sample sizes whose KS critical value is exact, not asymptotic
IDENTITY_TOL = 1e-12
LIMIT_TOL = 2e-3
DEFINETTI_TOL = 1e-3  # the final de Finetti gap
DOA_TAIL_TOL = 1e-3  # the final tail gap of a domain-of-attraction table
PRELIMIT_ALLOWANCE = 0.01
# thm24 holds its random gap within WITNESS_SLACK of its deterministic gap at n >= WITNESS_MIN_N.
# One level grid serves every shape; both constants are empirical: Theorem 2.4 implies neither
WITNESS_SLACK = 5e-3
WITNESS_MIN_N = 100


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------


def ks_distance(sample, cdf):
    """One-sample KS statistic of a sorted sample against a d.f. callable.

    max over i of max(|i/n - F(x_i)|, |(i-1)/n - F(x_i)|).  ``cdf`` is
    evaluated and both deviations reduced ``BLOCK_VALUES`` points at a time,
    so the working memory is one block whatever the sample size; a NaN in
    any block makes the statistic NaN.
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
        distance = np.maximum(
            distance, np.maximum(np.abs(steps[1:] - f).max(), np.abs(steps[:-1] - f).max())
        )
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
    """Reject an empty list of indices, or an index below 1, before any work."""
    if not ns:
        raise DomainError("at least one n is required")
    for n in ns:
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")


def _monotone(gaps):
    """True when no gap exceeds the one before it by more than 1e-12."""
    return all(later <= earlier + 1e-12 for earlier, later in zip(gaps, gaps[1:]))


def _random_limit(family, v):
    """phi(W) with W = ``family.limit_exponent(V)``: the limit of the random maximum at index n."""
    return family.lt(family.limit_exponent(v))


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


def run_lemma12(family, theta, n, seed, threshold=PRELIMIT_ALLOWANCE):
    """Scaled-count convergence: theta*N_theta against the mixer law.

    Draws ``n`` counts, scales them by theta, and takes the sup distance
    between their empirical d.f. and the mixer's d.f. over a grid on
    [0, 12].  Small theta passes at the threshold; moderate theta visibly
    fails (the limit has not set in).
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
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError(f"threshold must be finite and in (0, 1), got {threshold}")
    scaled = chunked_draws(seed, n, lambda rng, m: family.sample_count(theta, rng, m).astype(float))
    scaled *= theta
    scaled.sort()
    grid = np.linspace(0.0, 12.0, 4801)
    empirical = np.searchsorted(scaled, grid, side="right") / n
    distance = float(np.abs(empirical - family.mixer_cdf(grid)).max())
    table = Table.from_rows(
        name="distance",
        columns=("theta", "n", "distance", "threshold"),
        rows=((theta, n, distance, threshold),),
    )
    return ExperimentReport(
        name="lemma12",
        params={"family": family.name, "theta": theta, "n": n},
        seed=seed,
        tables=(table,),
        stats={"distance": distance, "threshold": threshold},
        passed=distance < threshold,
    )


def run_definetti(family, base, ns=DEFAULT_NS):
    """Gap of phi(n(1 - G(a_n x + b_n))) against phi(V(x)) along n."""
    _check_ns(ns)
    gaps = []
    for n in ns:
        s, v = normed_base(base, n)
        gaps.append(float(np.abs(family.lt(n * s) - family.lt(v)).max()))
    monotone = _monotone(gaps)
    table = Table(name="gaps", columns=("n", "sup_gap"), data=(list(map(int, ns)), gaps))
    return ExperimentReport(
        name="definetti",
        params={"family": family.name, "triple": base.name, "tolerance": DEFINETTI_TOL},
        seed=None,
        tables=(table,),
        stats={"final_gap": gaps[-1], "monotone": monotone},
        passed=gaps[-1] < DEFINETTI_TOL and monotone,
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

    Both sup gaps must fall below ``LIMIT_TOL`` at the final n and shrink
    monotonically.  On rows with n >= ``WITNESS_MIN_N`` the random gap is
    also held to within ``WITNESS_SLACK`` of the deterministic gap.  The
    gaps are read where V takes the target's fixed levels, so the witness
    sees one level grid for every shape; it is still an empirical rule, not
    a consequence of Theorem 2.4, since the two gaps fall at different
    first-order rates.  At smaller n no domination is claimed.
    """
    _check_ns(ns)
    rows = []
    for n in ns:
        s, v = normed_base(base, n)
        det = cdf_gap(n, s, v)
        ran = float(np.abs(family.pgf_sf(family.index(n), s) - _random_limit(family, v)).max())
        rows.append((int(n), det, ran))
    _, det_gaps, ran_gaps = zip(*rows)
    monotone = _monotone(det_gaps) and _monotone(ran_gaps)
    witness = all(ran <= det + WITNESS_SLACK for n, det, ran in rows if n >= WITNESS_MIN_N)
    table = Table.from_rows(
        name="convergence", columns=("n", "sup_gap_deterministic", "sup_gap_random"), rows=rows
    )
    return ExperimentReport(
        name="thm24",
        params={"family": family.name, "triple": base.name, "tolerance": LIMIT_TOL},
        seed=None,
        tables=(table,),
        stats={
            "final_gap_deterministic": det_gaps[-1],
            "final_gap_random": ran_gaps[-1],
            "monotone": monotone,
            "witness": witness,
        },
        passed=det_gaps[-1] < LIMIT_TOL and ran_gaps[-1] < LIMIT_TOL and monotone and witness,
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

    Draws Z from the mixer, then Y(Z) exactly, and compares with phi(V(x)).
    d = 1 compares the full empirical d.f.; d = 2 compares each coordinate
    against its count-mixed marginal phi(V_i(x)).  Passes when every
    Kolmogorov-Smirnov distance is below 1.628/sqrt(n) (the 1 percent
    critical value).  The logistic model has no sampler and is rejected, and
    the marginal grids are read before any draw.
    """
    if not isinstance(law, MaxStableLaw):
        raise ConfigurationError("subordination requires a max-stable base")
    grids = [m.grid for m in law.marginals]

    def draw(rng, m):
        z = family.sample_mixer(rng, m)
        return sample_Y_at_time(law, z, rng, m)

    sample = chunked_draws(seed, n, draw)
    sample.sort(axis=0)
    columns = [sample] if law.dim == 1 else [sample[:, i] for i in range(law.dim)]
    distances = []
    rows = []
    for i, (column, marginal, grid) in enumerate(zip(columns, law.marginals, grids)):
        cdf = lambda x, m=marginal: family.lt(m.v(x))
        distances.append(ks_distance(column, cdf))
        empirical = np.searchsorted(column, grid, side="right") / n
        for x, emp in zip(grid, empirical):
            rows.append((i, float(x), float(emp), float(cdf(x))))
    distance = max(distances)
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
    classical base lands in the geometric class.  Analytic side: membership
    gaps at index n (both the classical tail gap and
    sup |P_theta(G(a_n x + b_n)) - F(x)|).  Stochastic side: m draws of the
    normalized random maximum at theta held against F by KS with the
    pre-limit allowance added to the critical value.
    """
    s, v = normed_base(base, n)
    tail, det = tail_gap(n, s, v), cdf_gap(n, s, v)
    theta = family.index(n)
    random_gap = float(np.abs(family.pgf_sf(theta, s) - _random_limit(family, v)).max())

    draws = sample_random_max_seeded(CountScheme(family, theta), base.normed(n), seed, m)
    draws.sort()
    distance = ks_distance(draws, lambda x: _random_limit(family, base.target.v(x)))
    critical = float(ks_critical(m))
    if critical + PRELIMIT_ALLOWANCE >= 1.0:  # no KS distance exceeds 1
        raise DomainError(
            f"m = {m} draws cannot fail the KS check: its critical value {critical:.6g} "
            f"plus the allowance {PRELIMIT_ALLOWANCE:g} is at least 1"
        )

    analytic_ok = tail < LIMIT_TOL and random_gap < LIMIT_TOL
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
            "ks_distance": distance,
            "ks_critical": critical,
            "allowance": PRELIMIT_ALLOWANCE,
        },
        passed=analytic_ok and ks_ok,
    )


def run_doa_table(base, ns=DEFAULT_NS):
    """Domain-of-attraction gaps along n for one base law."""
    _check_ns(ns)
    rows = [(int(n), *doa_gap(base, n)) for n in ns]
    _, final_tail, final_cdf = rows[-1]
    monotone = _monotone([cdf_gap for _, _, cdf_gap in rows])
    table = Table.from_rows(name="gaps", columns=("n", "tail_gap", "cdf_gap"), rows=rows)
    return ExperimentReport(
        name="doa",
        params={"triple": base.name},
        seed=None,
        tables=(table,),
        stats={"final_tail_gap": final_tail, "final_cdf_gap": final_cdf, "monotone": monotone},
        passed=final_tail < DOA_TAIL_TOL and monotone,
    )
