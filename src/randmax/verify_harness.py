"""Named verification experiments with deterministic, serializable reports.

Each runner reproduces one identity or limit statement at desk scale and
returns an ``ExperimentReport`` whose tables and summary render
byte-identically for a given (experiment, parameters, seed).  Tolerances
separate the three error regimes: closed-form identity checks at 1e-12,
limit gaps at n = 10^4 below 2e-3, and Monte Carlo comparisons at the
1 percent Kolmogorov-Smirnov level (critical value 1.628/sqrt(n)), with an
explicit 0.01 pre-limit allowance when a finite-theta sample is held
against its limit law.
"""

from dataclasses import dataclass

import numpy as np

from ._util import BLOCK_VALUES
from .errors import ConfigurationError, DomainError
from .evd_core import MaxStableLaw, doa_gap
from .extremal_proc import sample_Y_at_time
from .lt_families import CountScheme, MittagLeffler
from .nmid_compose import NMaxStableLaw, same_type_decompose, sample_random_max_seeded
from .streams import chunked_draws

KS_ONE_PERCENT = 1.628
IDENTITY_TOL = 1e-12
LIMIT_TOL = 2e-3
PRELIMIT_ALLOWANCE = 0.01


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


def ks_critical(n, constant=KS_ONE_PERCENT):
    """Critical KS distance at the 1 percent level for sample size n."""
    return constant / np.sqrt(n)


# ---------------------------------------------------------------------------
# Tables and reports
# ---------------------------------------------------------------------------


def format_value(value):
    """Render a cell: floats carry 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _cells(column):
    """A printf spec and the values it renders as ``format_value`` would.

    A numeric array is converted to Python numbers in one pass; any other
    column is formatted cell by cell.
    """
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind in ("i", "u"):
        return "%d", column.tolist()
    if kind == "f":
        return "%.17g", column.tolist()
    return "%s", list(map(format_value, column))


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
        """The CSV text in pieces: the header line, then ``CSV_BLOCK_ROWS`` rows at a time."""
        yield ",".join(self.columns) + "\n"
        for start in range(0, len(self.rows), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            specs, cells = zip(*(_cells(column[block]) for column in self.data))
            yield "".join(map((",".join(specs) + "\n").__mod__, zip(*cells)))

    def csv_text(self):
        return "".join(self.csv_blocks())


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


def run_poincare(family, thetas=POINCARE_THETAS, s_grid=POINCARE_S_GRID, tol=IDENTITY_TOL):
    """Residuals of the composition identity P_theta(phi(theta s)) = phi(s)."""
    rows = []
    worst = 0.0
    for theta in thetas:
        for s in s_grid:
            residual = abs(family.pgf(theta, family.lt(theta * s)) - family.lt(s))
            worst = max(worst, residual)
            rows.append((theta, s, residual))
    table = Table.from_rows(name="residuals", columns=("theta", "s", "residual"), rows=rows)
    return ExperimentReport(
        name="poincare",
        params={"family": family.name, "tolerance": tol},
        seed=None,
        tables=(table,),
        stats={"max_residual": worst},
        passed=worst < tol,
    )


def run_lemma12(family, theta, n, seed, threshold=PRELIMIT_ALLOWANCE, threads=1):
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
    scaled = chunked_draws(
        seed, n, lambda rng, m: family.sample_count(theta, rng, m).astype(float), threads=threads
    )
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


def run_definetti(family, triple, ns=DEFAULT_NS, grid=None, tol=1e-3):
    """Gap of phi(n(1 - G(a_n x + b_n))) against phi(V(x)) along n."""
    _check_ns(ns)
    target = triple.target
    pts = np.asarray(target.grid if grid is None else grid, dtype=float)
    v = np.atleast_1d(target.v(pts))
    limit = family.lt(v)
    rows = []
    for n in ns:
        a, b = triple.norming(n)
        g = np.atleast_1d(triple.base.cdf(a * pts + b))
        gap = float(np.abs(family.lt(n * (1.0 - g)) - limit).max())
        rows.append((int(n), gap))
    gaps = [r[1] for r in rows]
    monotone = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    table = Table.from_rows(name="gaps", columns=("n", "sup_gap"), rows=rows)
    return ExperimentReport(
        name="definetti",
        params={"family": family.name, "triple": triple.name, "tolerance": tol},
        seed=None,
        tables=(table,),
        stats={"final_gap": gaps[-1], "monotone": monotone},
        passed=gaps[-1] < tol and monotone,
    )


def run_thm24(
    family,
    triple,
    ns=DEFAULT_NS,
    grid=None,
    tol=LIMIT_TOL,
    witness_slack=5e-3,
    witness_min_n=100,
):
    """Paired convergence: G^n toward H against the random maximum toward its limit.

    The random column is sup |P_theta(G(a_n x + b_n)) - phi(W(x))| with the
    count index theta = ``family.index(n)`` and W = ``family.limit_exponent(V)``
    (Theorems 2.4 and 3.4).  Geometric and degenerate counts take
    theta = 1/n and W = V, so the limit is F = phi(V).  A Mittag-Leffler
    count is geometric with success theta^nu, so it takes theta = n^(-1/nu)
    and W = V^(1/nu): phi(W) = 1/(1 + V), and the Mittag-Leffler random
    maximum of a classical base lands in the geometric class.

    Both sup gaps must fall below ``tol`` at the final n and shrink
    monotonically.  The limit map V -> phi(W) is 1-Lipschitz for every
    family, so the random gap is additionally held to within
    ``witness_slack`` of the deterministic gap on rows with
    n >= ``witness_min_n``; at smaller n the pre-limit terms dominate and
    no domination is claimed.
    """
    _check_ns(ns)
    target = triple.target
    pts = np.asarray(target.grid if grid is None else grid, dtype=float)
    v = np.atleast_1d(target.v(pts))
    h = np.exp(-v)
    f = family.lt(family.limit_exponent(v))
    rows = []
    for n in ns:
        a, b = triple.norming(n)
        g = np.atleast_1d(triple.base.cdf(a * pts + b))
        det = float(np.abs(g ** int(n) - h).max())
        ran = float(np.abs(family.pgf(family.index(n), g) - f).max())
        rows.append((int(n), det, ran))
    det_gaps = [r[1] for r in rows]
    ran_gaps = [r[2] for r in rows]
    monotone = all(
        det_gaps[i + 1] <= det_gaps[i] + 1e-12 and ran_gaps[i + 1] <= ran_gaps[i] + 1e-12
        for i in range(len(rows) - 1)
    )
    witness = all(ran <= det + witness_slack for n, det, ran in rows if n >= witness_min_n)
    table = Table.from_rows(
        name="convergence", columns=("n", "sup_gap_deterministic", "sup_gap_random"), rows=rows
    )
    return ExperimentReport(
        name="thm24",
        params={"family": family.name, "triple": triple.name, "tolerance": tol},
        seed=None,
        tables=(table,),
        stats={
            "final_gap_deterministic": det_gaps[-1],
            "final_gap_random": ran_gaps[-1],
            "monotone": monotone,
            "witness": witness,
        },
        passed=det_gaps[-1] < tol and ran_gaps[-1] < tol and monotone and witness,
    )


def run_thm31(family, law, thetas=POINCARE_THETAS, grid=None, tol=IDENTITY_TOL):
    """Same-type decomposition residuals F = P_theta(F_theta) over theta."""
    nlaw = NMaxStableLaw(family, law)
    dim = law.dim
    columns = ["theta", "residual"]
    for i in range(dim):
        columns += [f"scale_{i}", f"shift_{i}"]
    rows = []
    worst = 0.0
    for theta in thetas:
        residual, norming = same_type_decompose(nlaw, theta, grid=grid)
        worst = max(worst, residual)
        row = [theta, residual]
        for scale, shift in norming:
            row += [scale, shift]
        rows.append(tuple(row))
    table = Table.from_rows(name="decomposition", columns=tuple(columns), rows=rows)
    return ExperimentReport(
        name="thm31",
        params={"family": family.name, "dim": dim, "tolerance": tol},
        seed=None,
        tables=(table,),
        stats={"max_residual": worst},
        passed=worst < tol,
    )


def run_thm32(family, law, n, seed, threads=1):
    """Subordination check: Y at an independent mixer time reproduces phi(V).

    Draws Z from the mixer, then Y(Z) exactly, and compares with phi(V(x)).
    d = 1 compares the full empirical d.f.; d = 2 compares each coordinate
    against its count-mixed marginal phi(V_i(x)).  Passes when every
    Kolmogorov-Smirnov distance is below 1.628/sqrt(n) (the 1 percent
    critical value).  The logistic model has no sampler and is rejected.
    """
    if not isinstance(law, MaxStableLaw):
        raise ConfigurationError("subordination requires a max-stable base")

    def draw(rng, m):
        z = np.atleast_1d(family.sample_mixer(rng, m))
        return sample_Y_at_time(law, z, rng, size=m)

    sample = chunked_draws(seed, n, draw, threads=threads)
    sample.sort(axis=0)
    columns = [sample] if law.dim == 1 else [sample[:, i] for i in range(law.dim)]
    distances = []
    rows = []
    for i, column in enumerate(columns):
        marginal = law.marginals[i]
        cdf = lambda x, m=marginal: family.lt(m.v(x))
        distances.append(ks_distance(column, cdf))
        empirical = np.searchsorted(column, marginal.grid, side="right") / n
        for x, emp in zip(marginal.grid, empirical):
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


def run_thm34(
    family,
    triple,
    n,
    m,
    seed,
    threads=1,
    tol=LIMIT_TOL,
    allowance=PRELIMIT_ALLOWANCE,
    grid=None,
):
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
    target = triple.target
    pts = np.asarray(target.grid if grid is None else grid, dtype=float)
    tail_gap, cdf_gap = doa_gap(triple, n, grid=pts)
    theta = family.index(n)

    def limit(x):
        return family.lt(family.limit_exponent(np.atleast_1d(target.v(x))))

    a, b = triple.norming(n)
    g = np.atleast_1d(triple.base.cdf(a * pts + b))
    random_gap = float(np.abs(family.pgf(theta, g) - limit(pts)).max())

    scheme = CountScheme(family, theta)
    draws = sample_random_max_seeded(scheme, triple.base, seed, m, threads=threads)
    distance = ks_distance(np.sort((draws - b) / a), limit)
    critical = float(ks_critical(m))

    analytic_ok = tail_gap < tol and random_gap < tol
    ks_ok = distance < critical + allowance
    table = Table.from_rows(
        name="gaps",
        columns=("n", "tail_gap", "cdf_gap", "random_gap"),
        rows=((int(n), tail_gap, cdf_gap, random_gap),),
    )
    return ExperimentReport(
        name="thm34",
        params={"family": family.name, "triple": triple.name, "n": n, "m": m},
        seed=seed,
        tables=(table,),
        stats={
            "tail_gap": tail_gap,
            "random_gap": random_gap,
            "ks_distance": distance,
            "ks_critical": critical,
            "allowance": allowance,
        },
        passed=analytic_ok and ks_ok,
    )


def run_doa_table(triple, ns=DEFAULT_NS, grid=None):
    """Domain-of-attraction gaps along n for one triple."""
    _check_ns(ns)
    rows = []
    for n in ns:
        tail_gap, cdf_gap = doa_gap(triple, n, grid=grid)
        rows.append((int(n), tail_gap, cdf_gap))
    monotone = all(
        rows[i + 1][2] <= rows[i][2] + 1e-12 for i in range(len(rows) - 1)
    )
    table = Table.from_rows(name="gaps", columns=("n", "tail_gap", "cdf_gap"), rows=rows)
    return ExperimentReport(
        name="doa",
        params={"triple": triple.name},
        seed=None,
        tables=(table,),
        stats={"final_tail_gap": rows[-1][1], "final_cdf_gap": rows[-1][2], "monotone": monotone},
        passed=rows[-1][1] < 1e-3 and monotone,
    )
