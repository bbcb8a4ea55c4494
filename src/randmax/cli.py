"""Command-line front end.

One subcommand per verification experiment keeps the check-to-code map
auditable.  The table ``EXPERIMENTS`` is the only place an experiment is
described: the parser, the ``--help`` list and the dispatch are built
from it.  Every run is deterministic given its flags and seed; Monte
Carlo work is split over counter-based substreams so the output is
byte-identical for any ``--threads`` value.  Results are written as CSV
(one file per table, floats at 17 significant digits) plus a plain-text
summary, and the exit code is 0 only if every pass flag is true.
"""

import argparse
import os
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, RandmaxError
from .evd_core import (
    COMPLETE_DEPENDENCE,
    INDEPENDENCE,
    Frechet,
    Gumbel,
    MaxStableLaw,
    ReverseWeibull,
    standard_triple,
)
from .extremal_proc import sample_Y_at_time, simulate_path_columns
from .lt_families import CountScheme, Degenerate, Geometric, MittagLeffler
from .nmid_compose import sample_random_max_seeded
from .streams import check_seed, chunked_draws
from .verify_harness import (
    Table,
    run_definetti,
    run_doa_table,
    run_lemma12,
    run_poincare,
    run_thm24,
    run_thm31,
    run_thm32,
    run_thm34,
)

DEFAULT_SEED_ENV = "RANDMAX_SEED"


def _parse_int_list(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise ConfigurationError(f"expected a comma-separated integer list, got {text!r}")


def _parse_float_list(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise ConfigurationError(f"expected a comma-separated number list, got {text!r}")


def make_family(args):
    kind = args.family.lower()
    if kind == "geometric":
        return Geometric()
    if kind in ("mittag-leffler", "mittagleffler", "ml"):
        if args.nu is None:
            raise ConfigurationError("the Mittag-Leffler family requires --nu in (0, 1)")
        return MittagLeffler(args.nu)
    if kind == "degenerate":
        return Degenerate()
    raise ConfigurationError(
        f"unknown family {args.family!r}; expected geometric, mittag-leffler, or degenerate"
    )


def _parse_shape(spec, param):
    """The number after ``kind:`` in ``spec`` (1 when absent)."""
    try:
        return float(param) if param else 1.0
    except ValueError:
        raise ConfigurationError(f"expected a number after ':' in {spec!r}") from None


def parse_marginal(spec):
    kind, _, param = spec.lower().partition(":")
    if kind == "frechet":
        return Frechet(_parse_shape(spec, param))
    if kind == "gumbel":
        return Gumbel()
    if kind in ("reverse-weibull", "weibull"):
        return ReverseWeibull(_parse_shape(spec, param))
    raise ConfigurationError(
        f"unknown marginal {spec!r}; expected frechet:a, gumbel, or reverse-weibull:a"
    )


def make_law(args):
    marginal = parse_marginal(args.marginal)
    dependence = getattr(args, "dependence", "none") or "none"
    if dependence == "none":
        return MaxStableLaw((marginal,))
    if dependence not in (INDEPENDENCE, COMPLETE_DEPENDENCE):
        raise ConfigurationError(
            f"unknown dependence {dependence!r}; expected independence or complete"
        )
    return MaxStableLaw((marginal, marginal), dependence=dependence)


def parse_base(spec):
    kind, _, param = spec.lower().partition(":")
    return standard_triple(kind, _parse_shape(spec, param))


def _splice_config(argv):
    """Split ``--config PATH`` (or ``--config=PATH``) off ``argv`` and read the file.

    Every abbreviation argparse accepts for ``--config`` is split off too,
    from ``--c`` up, since no other flag starts with ``--c``.  Returns the
    remaining argv and the file's ``key=value`` lines as a dict, which
    ``build_parser`` turns into flag defaults, so explicit flags win.
    """
    for i, tok in enumerate(argv):
        flag, eq, value = tok.partition("=")
        if len(flag) < 3 or not "--config".startswith(flag):
            continue
        if eq:
            path, rest = value, argv[:i] + argv[i + 1:]
        elif i + 1 < len(argv):
            path, rest = argv[i + 1], argv[:i] + argv[i + 2:]
        else:
            raise ConfigurationError("--config needs a file path")
        break
    else:
        return argv, {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}")
    config = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        config[key] = value
    return rest, config


def emit_csv(table, path):
    """Write one table as CSV: header row, then data rows, newline \\n.

    The text is streamed in blocks of rows, never held whole in memory.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(table.csv_blocks())


def _write_report(report, outdir):
    stem = report.name
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for table in report.tables:
        emit_csv(table, outdir / f"{stem}_{table.name}.csv")
    summary = report.summary_text()
    (outdir / f"{stem}_summary.txt").write_text(summary, encoding="utf-8")
    sys.stdout.write(summary)
    return 0 if report.passed else 1


def _write_samples(table, outdir):
    stem = table.name
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    emit_csv(table, outdir / f"{stem}.csv")
    sys.stdout.write(f"{stem}: wrote {len(table.rows)} rows\n")
    return 0


def _resolve_seed(args):
    if args.seed is not None:
        return check_seed(args.seed)
    try:
        return check_seed(os.environ.get(DEFAULT_SEED_ENV, "0"))
    except ConfigurationError as exc:
        raise ConfigurationError(f"${DEFAULT_SEED_ENV}: {exc}") from None


def _sample_table(values, name):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.ndim == 1:
        columns, data = ("index", "value"), (values,)
    else:
        columns = ("index",) + tuple(f"x{i}" for i in range(values.shape[1]))
        data = tuple(values.T)
    return Table(name, columns, (np.arange(len(values)),) + data)


def _tabulate_draws(args, seed, name, draw):
    """``args.n`` draws of ``draw(rng, m)`` from seeded chunks, as the table ``name``."""
    return _sample_table(chunked_draws(seed, args.n, draw, threads=args.threads), name)


def _extremal_paths(args, seed):
    law = MaxStableLaw((parse_marginal(args.marginal),))
    paths = simulate_path_columns(
        law, args.horizon, args.paths, seed, floor=args.floor, threads=args.threads
    )
    path_id = np.repeat(np.arange(args.paths), paths.counts)
    return Table("path", ("path_id", "time", "state"), (path_id, paths.times, paths.states))


class Flag(NamedTuple):
    """One long option of a subcommand."""

    name: str
    default: object = None
    type: object = str
    required: bool = False
    help: str = None


class Experiment(NamedTuple):
    """A subcommand: its ``--help`` line, its own flags, and ``run(args, seed)``.

    ``run`` returns an ``ExperimentReport`` (written as CSV tables plus a
    summary; the exit code follows its pass flag) or a ``Table`` of draws.
    """

    description: str
    flags: tuple
    run: object


VERBS = {
    "verify": "run a verification experiment",
    "sample": "draw from a sampler",
    "extremal": "extremal process tools",
    "table": "analytic tables",
}

COMMON = (
    Flag("--seed", None, int, help=f"64-bit seed (default: ${DEFAULT_SEED_ENV} or 0)"),
    Flag("--out", ".", help="output directory (default: .)"),
    Flag("--threads", 1, int, help="worker threads; output is identical for any value"),
    Flag("--config", None, help="flat key=value file mirroring the long flags"),
)
FAMILY = (
    Flag("--family", "geometric", help="geometric | mittag-leffler | degenerate"),
    Flag("--nu", None, float, help="Mittag-Leffler order in (0, 1)"),
)
MARGINAL = Flag("--marginal", "frechet:1")
DEPENDENCE = Flag("--dependence", "none",
                  help="none | independence | complete (bivariate uses the marginal twice)")
TRIPLE = Flag("--triple", "pareto:1", help="pareto:a | exponential | uniform")
NS = Flag("--ns", "10,100,1000,10000")
THETAS = Flag("--thetas", "0.5,0.1,0.01")

EXPERIMENTS = {
    ("verify", "poincare"): Experiment(
        "composition identity P_theta(phi(theta s)) = phi(s) (Poincare equation)",
        FAMILY + (THETAS, Flag("--s-grid", "0.01,0.1,0.5,1,2,5,10")),
        lambda a, seed: run_poincare(
            make_family(a), thetas=_parse_float_list(a.thetas), s_grid=_parse_float_list(a.s_grid)
        ),
    ),
    ("verify", "lemma12"): Experiment(
        "scaled counts theta*N_theta converge to the mixer U (Lemma 1.2)",
        FAMILY + (Flag("--theta", 0.001, float), Flag("--n", 100_000, int),
                  Flag("--threshold", 0.01, float)),
        lambda a, seed: run_lemma12(
            make_family(a), a.theta, a.n, seed, threshold=a.threshold, threads=a.threads
        ),
    ),
    ("verify", "definetti"): Experiment(
        "phi(n(1 - G(a_n x + b_n))) converges to phi(-log H) (Theorems 1.1/2.2)",
        FAMILY + (TRIPLE, NS),
        lambda a, seed: run_definetti(make_family(a), parse_base(a.triple), ns=_parse_int_list(a.ns)),
    ),
    ("verify", "thm24"): Experiment(
        "paired tables G^n -> H against P_{1/n}(G) -> phi(-log H) (Theorem 2.4)",
        FAMILY + (TRIPLE, NS),
        lambda a, seed: run_thm24(make_family(a), parse_base(a.triple), ns=_parse_int_list(a.ns)),
    ),
    ("verify", "thm31"): Experiment(
        "same-type decomposition F = P_theta(F_theta) (Theorem 3.1)",
        FAMILY + (MARGINAL, DEPENDENCE, THETAS),
        lambda a, seed: run_thm31(make_family(a), make_law(a), thetas=_parse_float_list(a.thetas)),
    ),
    ("verify", "thm32"): Experiment(
        "subordination F(x) = P(Y(Z) <= x) by exact sampling (Theorem 3.2 iv)",
        FAMILY + (MARGINAL, DEPENDENCE, Flag("--n", 100_000, int)),
        lambda a, seed: run_thm32(make_family(a), make_law(a), a.n, seed, threads=a.threads),
    ),
    ("verify", "thm34"): Experiment(
        "random domain of max-attraction, analytic + sampled (Theorem 3.4)",
        FAMILY + (TRIPLE, Flag("--n", 10_000, int), Flag("--m", 20_000, int)),
        lambda a, seed: run_thm34(
            make_family(a), parse_base(a.triple), a.n, a.m, seed, threads=a.threads
        ),
    ),
    ("sample", "randmax"): Experiment(
        "draws of the random maximum max of N_theta base draws",
        FAMILY + (Flag("--theta", type=float, required=True), Flag("--base", "pareto:1"),
                  Flag("--n", 10, int)),
        lambda a, seed: _sample_table(
            sample_random_max_seeded(
                CountScheme(make_family(a), a.theta), parse_base(a.base).base, seed, a.n,
                threads=a.threads,
            ),
            "randmax",
        ),
    ),
    ("sample", "mixer"): Experiment(
        "draws of the mixer U (Laplace transform phi)",
        FAMILY + (Flag("--n", 10, int),),
        lambda a, seed: _tabulate_draws(a, seed, "mixer", make_family(a).sample_mixer),
    ),
    ("sample", "count"): Experiment(
        "draws of the count N_theta",
        FAMILY + (Flag("--theta", type=float, required=True), Flag("--n", 10, int)),
        lambda a, seed: _tabulate_draws(
            a, seed, "count", CountScheme(make_family(a), a.theta).sample
        ),
    ),
    ("sample", "extremal-marginal"): Experiment(
        "exact draws of Y(t)",
        (MARGINAL, DEPENDENCE, Flag("--t", 1.0, float), Flag("--n", 10, int)),
        lambda a, seed: _tabulate_draws(
            a, seed, "extremal-marginal", partial(sample_Y_at_time, make_law(a), a.t)
        ),
    ),
    ("extremal", "path"): Experiment(
        "jump-chain trajectories of the extremal process",
        (MARGINAL, Flag("--horizon", 1.0, float), Flag("--floor", None, float),
         Flag("--paths", 1, int)),
        _extremal_paths,
    ),
    ("table", "doa"): Experiment(
        "domain-of-attraction gap table along n",
        (TRIPLE, NS),
        lambda a, seed: run_doa_table(parse_base(a.triple), ns=_parse_int_list(a.ns)),
    ),
}


def build_parser(config=None):
    """The ``randmax`` parser; ``config`` maps flag names without ``--`` to default values."""
    config = config or {}
    width = max(len(f"{verb} {name}") for verb, name in EXPERIMENTS) + 3
    guide = "experiments:\n" + "".join(
        f"  {f'{verb} {name}':<{width}}{experiment.description}\n"
        for (verb, name), experiment in EXPERIMENTS.items()
    )
    parser = argparse.ArgumentParser(
        prog="randmax",
        description="Random max-stable laws: verification experiments and samplers.",
        epilog=guide,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    subparsers = {}
    for (verb, name), experiment in EXPERIMENTS.items():
        if verb not in subparsers:
            subparsers[verb] = verbs.add_parser(verb, help=VERBS[verb]).add_subparsers(
                dest="experiment", required=True
            )
        p = subparsers[verb].add_parser(name, help=experiment.description)
        for flag in experiment.flags + COMMON:
            key = flag.name[2:]
            p.add_argument(flag.name, type=flag.type, default=config.get(key, flag.default),
                           required=flag.required and key not in config, help=flag.help)
        p.set_defaults(run=experiment.run)
    return parser


def main(argv=None):
    try:
        argv, config = _splice_config(list(sys.argv[1:] if argv is None else argv))
    except ConfigurationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    parser = build_parser(config)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        experiment = EXPERIMENTS[args.verb, args.experiment]
        unknown = set(config) - {flag.name[2:] for flag in experiment.flags + COMMON}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")
        result = args.run(args, _resolve_seed(args))
        write = _write_samples if isinstance(result, Table) else _write_report
        return write(result, args.out)
    except (ConfigurationError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RandmaxError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
