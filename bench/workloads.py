"""The benchmark's workloads: operation lists built from a workload seed.

An operation is either an in-process ``randmax.cli.main`` call writing into
its own output directory, or a call into the public library API.  Every
timed operation runs single-threaded (``--threads 1``).  Package functions
are looked up on their modules at call time, so the tracer's wrappers see
every call.
"""

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import randmax
import randmax.cli
import checks
from checks import CheckError, require

class OpFailed(Exception):
    """The program did not complete an operation (exception or exit code)."""


@dataclass(frozen=True)
class Op:
    name: str
    run: object  # run(outdir) -> result
    check: object  # check(result, outdir); raises CheckError
    random_max: bool = False  # calls sample_random_max (gets the tracemalloc pass)


def op_seed(seed, index):
    """Per-operation 64-bit seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------


def call_cli(argv, outdir, threads=1, allowed=(0,)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = randmax.cli.main(list(argv) + ["--out", str(outdir), "--threads", str(threads)])
    if rc not in allowed:
        raise OpFailed(f"randmax {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return rc


def read_summary(path):
    """``key = value`` lines of a ``*_summary.txt`` plus its ``result``."""
    fields = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("result: "):
            fields["result"] = line[len("result: "):]
        elif " = " in line:
            key, value = line.split(" = ", 1)
            fields[key] = value
    return fields


def read_csv(path, columns):
    lines = Path(path).read_text(encoding="utf-8").split("\n", 1)
    require(lines[0] == ",".join(columns), f"{Path(path).name}: header {lines[0]!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, len(columns))


def cli_op(name, argv, check, allowed=(0,), random_max=False):
    return Op(
        name=name,
        run=lambda outdir: call_cli(argv, outdir, allowed=allowed),
        check=check,
        random_max=random_max,
    )


def check_samples(stem, cdf, n):
    def check(_, outdir):
        data = read_csv(Path(outdir) / f"{stem}.csv", ("index", "value"))
        require(data.shape[0] == n, f"{stem}: {data.shape[0]} rows, expected {n}")
        require(np.array_equal(data[:, 0], np.arange(n)), f"{stem}: index column")
        checks.check_ks(data[:, 1], cdf, stem)

    return check


def check_passed(stem):
    def check(_, outdir):
        summary = read_summary(Path(outdir) / f"{stem}_summary.txt")
        require(summary.get("result") == "PASS", f"{stem}: summary does not PASS")

    return check


def check_thm34(case, n):
    def check(_, outdir):
        checks.check_thm34(read_summary(Path(outdir) / "thm34_summary.txt"), case, n)

    return check


def check_thm32(family, dim):
    def check(_, outdir):
        summary = read_summary(Path(outdir) / "thm32_summary.txt")
        grid = read_csv(Path(outdir) / "thm32_grid.csv", ("coordinate", "x", "empirical", "analytic"))
        checks.check_thm32(summary, grid, family, dim)

    return check


def check_lemma12(theta, n):
    def check(_, outdir):
        summary = read_summary(Path(outdir) / "lemma12_summary.txt")
        require(summary.get("result") == "PASS", "lemma12: summary does not PASS")
        require(float(summary["param theta"]) == theta and int(summary["param n"]) == n,
                "lemma12: parameters not echoed")
        require(float(summary["distance"]) < 0.01, "lemma12: distance above the threshold")

    return check


def path_floor(horizon, mass=1e-3):
    """Default floor of a Frechet(1) path: the ``mass`` quantile of Y(horizon/1000)."""
    return (horizon / 1000.0) / -np.log(mass)


def path_op(name, seed, paths, floor=None):
    argv = ["extremal", "path", "--marginal", "frechet:1", "--horizon", "1",
            "--paths", str(paths), "--seed", str(seed)]
    if floor is not None:
        argv += ["--floor", repr(floor)]

    def check(_, outdir):
        data = read_csv(Path(outdir) / "path.csv", ("path_id", "time", "state"))
        checks.check_paths(data, paths, 1.0, path_floor(1.0) if floor is None else floor)

    return cli_op(name, argv, check)


# ---------------------------------------------------------------------------
# Library operations
# ---------------------------------------------------------------------------


def random_max_op(name, seed, theta, n, tuple_base=False):
    scheme = randmax.CountScheme(randmax.Geometric(), theta)
    base = (randmax.Pareto(1.0), randmax.UnitExponential()) if tuple_base else randmax.Pareto(1.0)

    def run(_):
        return randmax.nmid_compose.sample_random_max_seeded(scheme, base, seed, n, threads=1)

    def check(draws, _):
        draws = np.asarray(draws)
        if not tuple_base:
            require(draws.shape == (n,), f"{name}: shape {draws.shape}")
            checks.check_ks(draws, checks.random_max_pareto_cdf(theta), name)
            return
        require(draws.shape == (n, 2), f"{name}: shape {draws.shape}")
        checks.check_ks(draws[:, 0], checks.random_max_pareto_cdf(theta), name, tests=3)
        checks.check_ks(draws[:, 1], checks.random_max_exponential_cdf(theta), name, tests=3)
        checks.check_joint(draws, theta, JOINT_POINTS, name)

    return Op(name, run, check, random_max=True)


JOINT_POINTS = ((2.0, 1.0), (5.0, 2.0), (20.0, 3.0), (100.0, 5.0))


def mixture_op(name, seed, points):
    # log-uniform on [1e-3, 1e3]: V(x) = 1/x spans six decades
    x = np.exp(np.random.default_rng(seed).uniform(np.log(1e-3), np.log(1e3), points))
    law = randmax.NMaxStableLaw(randmax.Geometric(), randmax.univariate(randmax.Frechet(1.0)))

    def run(_):
        return randmax.nmid_compose.mixture_cdf(law, x)

    def check(values, _):
        checks.check_close(values, x / (1.0 + x), 1e-8, name)

    return Op(name, run, check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def randmax_deep(seed):
    s = [op_seed(seed, i) for i in range(3)]
    return [
        cli_op("thm34-geometric-pareto", ["verify", "thm34", "--seed", str(s[0])],
               check_thm34("geometric-pareto", 10_000), random_max=True),
        cli_op("thm34-degenerate-exponential",
               ["verify", "thm34", "--family", "degenerate", "--triple", "exponential",
                "--seed", str(s[1])],
               check_thm34("degenerate-exponential", 10_000), random_max=True),
        cli_op("sample-randmax-0.001",
               ["sample", "randmax", "--theta", "0.001", "--base", "pareto:1", "--n", "20000",
                "--seed", str(s[2])],
               check_samples("randmax", checks.random_max_pareto_cdf(0.001), 20_000),
               random_max=True),
    ]


THM32_CASES = (
    ("geometric", ["--family", "geometric"], 1),
    ("mittag-leffler", ["--family", "mittag-leffler", "--nu", "0.5"], 1),
    ("degenerate", ["--family", "degenerate"], 1),
    ("geometric", ["--family", "geometric", "--dependence", "independence"], 2),
    ("geometric", ["--family", "geometric", "--dependence", "complete"], 2),
)


def many_draws(seed):
    s = iter(op_seed(seed, i) for i in range(32))
    ops = [
        random_max_op("random-max-0.5", next(s), 0.5, 2_000_000),
        random_max_op("random-max-0.1", next(s), 0.1, 500_000),
        random_max_op("random-max-0.01", next(s), 0.01, 100_000),
        random_max_op("random-max-tuple-0.1", next(s), 0.1, 500_000, tuple_base=True),
    ]
    for family, flags, dim in THM32_CASES:
        # the program's own verdict is a 1 percent test, so exit 1 is allowed;
        # the check holds the distance to the 1e-7 level instead
        ops.append(cli_op(f"thm32-{'-'.join(flags[1::2])}",
                          ["verify", "thm32", *flags, "--n", "1000000", "--seed", str(next(s))],
                          check_thm32(family, dim), allowed=(0, 1)))
    for family in ("geometric", "degenerate"):
        ops.append(cli_op(f"lemma12-{family}",
                          ["verify", "lemma12", "--family", family, "--n", "1000000",
                           "--seed", str(next(s))],
                          check_lemma12(0.001, 1_000_000)))
    ops += [
        cli_op("sample-randmax-0.5",
               ["sample", "randmax", "--theta", "0.5", "--n", "100000", "--seed", str(next(s))],
               check_samples("randmax", checks.random_max_pareto_cdf(0.5), 100_000),
               random_max=True),
        cli_op("sample-mixer-ml-0.5",
               ["sample", "mixer", "--family", "mittag-leffler", "--nu", "0.5", "--n", "100000",
                "--seed", str(next(s))],
               check_samples("mixer", checks.mittag_leffler_half_cdf, 100_000)),
        mixture_op("mixture-cdf", next(s), 20_000),
    ]
    for verb, experiment, stem in (
        ("verify", "poincare", "poincare"),
        ("verify", "definetti", "definetti"),
        ("verify", "thm24", "thm24"),
        ("verify", "thm31", "thm31"),
        ("table", "doa", "doa"),
    ):
        ops.append(cli_op(f"{verb}-{experiment}", [verb, experiment], check_passed(stem)))
    return ops


def extremal_paths(seed):
    return [
        path_op("path-default-floor", op_seed(seed, 0), 10_000),
        path_op("path-floor-1e-8", op_seed(seed, 1), 5_000, floor=1e-8),
    ]


WORKLOADS = {
    "randmax-deep": randmax_deep,
    "many-draws": many_draws,
    "extremal-paths": extremal_paths,
}


def build(workload, seed):
    """The operation list of one pass of ``workload``."""
    return WORKLOADS[workload](seed)


# ---------------------------------------------------------------------------
# Thread-count byte identity
# ---------------------------------------------------------------------------


def thread_checks(seed):
    """One random-max and one path operation, each run at --threads 1 and 2."""
    cases = (
        ("threads-randmax", "randmax.csv",
         ["sample", "randmax", "--theta", "0.01", "--n", "20000", "--seed", str(op_seed(seed, 100))]),
        ("threads-path", "path.csv",
         ["extremal", "path", "--paths", "1000", "--seed", str(op_seed(seed, 101))]),
    )
    ops = []
    for name, filename, argv in cases:

        def run(outdir, argv=argv, filename=filename):
            outputs = []
            for threads in (1, 2):
                call_cli(argv, Path(outdir) / f"t{threads}", threads=threads)
                outputs.append((Path(outdir) / f"t{threads}" / filename).read_bytes())
            return outputs

        def check(outputs, _, name=name):
            if outputs[0] != outputs[1]:
                raise CheckError(f"{name}: --threads 2 output differs from --threads 1")

        ops.append(Op(name, run, check))
    return ops
