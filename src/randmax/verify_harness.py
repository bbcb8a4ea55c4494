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

from .errors import DomainError
from .evd_core import doa_gap
from .lt_families import CountScheme, MittagLeffler, verify_lemma12
from .nmid_compose import NMaxStableLaw, same_type_decompose, sample_random_max_seeded

KS_ONE_PERCENT = 1.628
IDENTITY_TOL = 1e-12
LIMIT_TOL = 2e-3
PRELIMIT_ALLOWANCE = 0.01


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------


def ks_distance(sample, cdf):
    """One-sample KS statistic of a sorted sample against a d.f. callable.

    max over i of max(|i/n - F(x_i)|, |(i-1)/n - F(x_i)|).
    """
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise DomainError("KS distance needs a nonempty sample")
    if sample.ndim != 1:
        raise DomainError("KS distance expects a one-dimensional sample")
    if np.any(np.diff(sample) < 0.0):
        raise DomainError("KS distance expects a sorted sample")
    n = sample.size
    f = np.asarray(cdf(sample), dtype=float)
    i = np.arange(1, n + 1)
    upper = np.abs(i / n - f).max()
    lower = np.abs((i - 1) / n - f).max()
    return float(max(upper, lower))


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


def convergence_table(rows, name="convergence"):
    """Rows (n, sup deterministic gap, sup random gap)."""
    return Table.from_rows(name, ("n", "sup_gap_deterministic", "sup_gap_random"), rows)


@dataclass(frozen=True)
class ExperimentReport:
    """A named experiment outcome: parameters, seed, tables, stats, pass flag."""

    name: str
    params: tuple  # (key, value) pairs in a fixed order
    seed: object
    tables: tuple
    stats: tuple  # (key, value) pairs in a fixed order
    passed: bool

    def summary_text(self):
        lines = [f"experiment: {self.name}"]
        for key, value in self.params:
            lines.append(f"param {key} = {format_value(value)}")
        if self.seed is not None:
            lines.append(f"seed = {self.seed}")
        for key, value in self.stats:
            lines.append(f"{key} = {format_value(value)}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _report(name, params, seed, tables, stats, passed):
    return ExperimentReport(
        name=name,
        params=tuple(params.items()),
        seed=seed,
        tables=tuple(tables),
        stats=tuple(stats.items()),
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

POINCARE_S_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
POINCARE_THETAS = (0.5, 0.1, 0.01)
DEFAULT_NS = (10, 100, 1_000, 10_000)


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
    return _report(
        name="poincare",
        params={"family": family.name, "tolerance": tol},
        seed=None,
        tables=[table],
        stats={"max_residual": worst},
        passed=worst < tol,
    )


def run_lemma12(family, theta, n, seed, threshold=PRELIMIT_ALLOWANCE, threads=1):
    """Scaled-count convergence: theta*N_theta against the mixer law."""
    result = verify_lemma12(family, theta, n, seed, threshold=threshold, threads=threads)
    table = Table.from_rows(
        name="distance",
        columns=("theta", "n", "distance", "threshold"),
        rows=((result.theta, result.n, result.distance, result.threshold),),
    )
    return _report(
        name="lemma12",
        params={"family": family.name, "theta": theta, "n": n},
        seed=seed,
        tables=[table],
        stats={"distance": result.distance, "threshold": result.threshold},
        passed=result.passed,
    )


def run_definetti(family, triple, ns=DEFAULT_NS, grid=None, tol=1e-3):
    """Gap of phi(n(1 - G(a_n x + b_n))) against phi(V(x)) along n."""
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
    return _report(
        name="definetti",
        params={"family": family.name, "triple": triple.name, "tolerance": tol},
        seed=None,
        tables=[table],
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
    """Paired convergence: G^n toward H against P_{1/n}(G(a_n x + b_n)) toward F.

    Both sup gaps must fall below ``tol`` at the final n and shrink
    monotonically.  For families with a 1-Lipschitz transform (geometric,
    degenerate) the random gap is additionally held to within
    ``witness_slack`` of the deterministic gap on rows with
    n >= ``witness_min_n``; at smaller n the pre-limit terms dominate and
    no domination is claimed.
    """
    target = triple.target
    pts = np.asarray(target.grid if grid is None else grid, dtype=float)
    v = np.atleast_1d(target.v(pts))
    h = np.exp(-v)
    f = family.lt(v)
    rows = []
    for n in ns:
        a, b = triple.norming(n)
        g = np.atleast_1d(triple.base.cdf(a * pts + b))
        det = float(np.abs(g ** int(n) - h).max())
        ran = float(np.abs(family.pgf(1.0 / n, g) - f).max())
        rows.append((int(n), det, ran))
    det_gaps = [r[1] for r in rows]
    ran_gaps = [r[2] for r in rows]
    monotone = all(
        det_gaps[i + 1] <= det_gaps[i] + 1e-12 and ran_gaps[i + 1] <= ran_gaps[i] + 1e-12
        for i in range(len(rows) - 1)
    )
    lipschitz_one = not isinstance(family, MittagLeffler)
    witness = True
    if lipschitz_one:
        witness = all(
            ran <= det + witness_slack
            for n, det, ran in rows
            if n >= witness_min_n
        )
    table = convergence_table(rows)
    return _report(
        name="thm24",
        params={"family": family.name, "triple": triple.name, "tolerance": tol},
        seed=None,
        tables=[table],
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
        rep = same_type_decompose(nlaw, theta, grid=grid)
        worst = max(worst, rep.residual)
        row = [theta, rep.residual]
        for scale, shift in rep.norming:
            row += [scale, shift]
        rows.append(tuple(row))
    table = Table.from_rows(name="decomposition", columns=tuple(columns), rows=rows)
    return _report(
        name="thm31",
        params={"family": family.name, "dim": dim, "tolerance": tol},
        seed=None,
        tables=[table],
        stats={"max_residual": worst},
        passed=worst < tol,
    )


def run_thm32(family, law, n, seed, threads=1):
    """Subordination check: Y at an independent mixer time reproduces phi(V)."""
    from .extremal_proc import verify_subordination

    nlaw = NMaxStableLaw(family, law)
    result = verify_subordination(nlaw, n, seed, threads=threads)
    table = Table.from_rows(
        name="grid",
        columns=("coordinate", "x", "empirical", "analytic"),
        rows=result.table,
    )
    return _report(
        name="thm32",
        params={"family": family.name, "dim": law.dim, "n": n},
        seed=seed,
        tables=[table],
        stats={"distance": result.distance, "critical": result.critical},
        passed=result.passed,
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
    """Random domain of attraction: analytic gap plus seeded sampling check.

    Analytic side: membership gaps at index n (both the classical tail gap
    and sup |P_{1/n}(G(a_n x + b_n)) - F(x)|).  Stochastic side: m draws of
    the normalized random maximum at theta = 1/n held against the limit
    F = phi(V) by KS with the pre-limit allowance added to the critical
    value.
    """
    target = triple.target
    pts = np.asarray(target.grid if grid is None else grid, dtype=float)
    v = np.atleast_1d(target.v(pts))
    f = family.lt(v)
    gaps = doa_gap(triple, n, grid=pts)
    a, b = triple.norming(n)
    g = np.atleast_1d(triple.base.cdf(a * pts + b))
    random_gap = float(np.abs(family.pgf(1.0 / n, g) - f).max())

    scheme = CountScheme(family, 1.0 / n)
    draws = sample_random_max_seeded(scheme, triple.base, seed, m, threads=threads)
    normalized = np.sort((draws - b) / a)
    distance = ks_distance(normalized, lambda x: family.lt(np.atleast_1d(target.v(x))))
    critical = float(ks_critical(m))

    analytic_ok = gaps.tail_gap < tol and random_gap < tol
    ks_ok = distance < critical + allowance
    table = Table.from_rows(
        name="gaps",
        columns=("n", "tail_gap", "cdf_gap", "random_gap"),
        rows=((gaps.n, gaps.tail_gap, gaps.cdf_gap, random_gap),),
    )
    return _report(
        name="thm34",
        params={"family": family.name, "triple": triple.name, "n": n, "m": m},
        seed=seed,
        tables=[table],
        stats={
            "tail_gap": gaps.tail_gap,
            "random_gap": random_gap,
            "ks_distance": distance,
            "ks_critical": critical,
            "allowance": allowance,
        },
        passed=analytic_ok and ks_ok,
    )


def run_doa_table(triple, ns=DEFAULT_NS, grid=None):
    """Domain-of-attraction gaps along n for one triple."""
    rows = []
    for n in ns:
        gaps = doa_gap(triple, n, grid=grid)
        rows.append((gaps.n, gaps.tail_gap, gaps.cdf_gap))
    monotone = all(
        rows[i + 1][2] <= rows[i][2] + 1e-12 for i in range(len(rows) - 1)
    )
    table = Table.from_rows(name="gaps", columns=("n", "tail_gap", "cdf_gap"), rows=rows)
    return _report(
        name="doa",
        params={"triple": triple.name},
        seed=None,
        tables=[table],
        stats={"final_tail_gap": rows[-1][1], "final_cdf_gap": rows[-1][2], "monotone": monotone},
        passed=rows[-1][1] < 1e-3 and monotone,
    )
