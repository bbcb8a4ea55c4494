import argparse
import hashlib
import importlib
import importlib.util
import math
import random
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import randmax.cli
import randmax.streams
import randmax.verify_harness
from randmax.cli import COMMON, EXPERIMENTS, build_parser, emit_csv, main
from randmax.lt_families import LaplaceFamily, MittagLeffler
from randmax.verify_harness import CSV_BLOCK_ROWS, Table, format_value, ks_critical, ks_distance


def run(argv, tmp_path, sub=""):
    out = tmp_path / ("out" + sub)
    code = main(argv + ["--out", str(out)])
    return code, out


def read(path):
    return path.read_bytes()


def test_verify_poincare_exit_zero(tmp_path, capsys):
    code, out = run(["verify", "poincare", "--family", "geometric"], tmp_path)
    assert code == 0
    text = (out / "poincare_summary.txt").read_text()
    assert "result: PASS" in text
    rows = (out / "poincare_residuals.csv").read_text().splitlines()
    assert rows[0] == "theta,s,residual"
    assert all(float(line.split(",")[2]) < 1e-12 for line in rows[1:])


def test_thm31_reverse_weibull_shift_prints_zero(tmp_path):
    # a standard marginal's norming shift is exactly 0, and prints as 0, not -0
    code, out = run(["verify", "thm31", "--marginal", "reverse-weibull:1"], tmp_path)
    assert code == 0
    rows = [line.split(",") for line in (out / "thm31_decomposition.csv").read_text().splitlines()]
    assert rows[0] == ["theta", "residual", "scale_0", "shift_0"]
    assert [row[3] for row in rows[1:]] == ["0", "0", "0"]


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    # bench/tracing.py wraps package functions by name, so a name it looks up and the package
    # lost fails here rather than in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    substream = randmax.streams.substream
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert randmax.streams.substream is not substream
    finally:
        tracer.uninstall()
    assert randmax.streams.substream is substream
    # the tracer skips a class-owned entry that its class does not define, so each one reads 0
    # in its bench layer; a refactor that moves a wrapped method must add it here
    unwrapped = {
        ("Geometric", "lt_inv"), ("MittagLeffler", "lt_inv"), ("Degenerate", "lt_inv"),  # deleted
        ("Frechet", "cdf"), ("Gumbel", "cdf"), ("ReverseWeibull", "cdf"),  # inherited
        ("MaxStableLaw", "cdf"),  # inherited: exp(-v)
        ("Pareto", "cdf"), ("UnitExponential", "cdf"), ("StdUniform", "cdf"),  # from BaseLaw
        ("MittagLeffler", "lt"), ("MittagLeffler", "sample_count"),  # inherited from Geometric
        ("MaxStableLaw", "vinv"),  # never defined
        # moved to tests/oracles.py: only the tests call them
        ("LaplaceFamily", "pgf"), ("Pareto", "ppf"), ("UnitExponential", "ppf"), ("StdUniform", "ppf"),
    }
    missing = {(owner.__name__, attr) for owner, attr, *_ in tracing.layer_table()
               if isinstance(owner, type) and attr not in vars(owner)}
    assert missing == unwrapped


def bindings(owners):
    """Every callable attribute of the package's modules and of ``owners``, by (owner, name)."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "randmax"]
    return {(owner, name): value for owner in modules + list(owners)
            for name, value in vars(owner).items() if callable(value)}


def test_bench_tracer_leaves_the_cli_as_it_found_it(tmp_path, capsys):
    # bench/tracing.py rebinds cli.build_parser and every wrapped function; after uninstall
    # each binding is the original again, and the cached parser records no span
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = bindings({owner for owner, *_ in tracing.layer_table() if isinstance(owner, type)})
    randmax.cli._default_parser.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert randmax.cli.main is not before[randmax.cli, "main"]
        assert randmax.cli.main(["verify", "poincare", "--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    after = bindings(owner for owner, _ in before if isinstance(owner, type))
    assert {key for key in before if after.get(key) is not before[key]} == set()
    spans = len(tracer.spans)
    assert spans
    assert randmax.cli.main(["verify", "poincare", "--out", str(tmp_path / "plain")]) == 0
    assert len(tracer.spans) == spans
    capsys.readouterr()


def test_verify_thm32_seeded(tmp_path):
    code, out = run(
        ["verify", "thm32", "--family", "geometric", "--marginal", "frechet:1",
         "--n", "100000", "--seed", "42"],
        tmp_path,
    )
    assert code == 0
    summary = (out / "thm32_summary.txt").read_text()
    distance = float(next(l for l in summary.splitlines() if l.startswith("distance")).split("=")[1])
    assert distance < 0.00515


def test_thm32_checks_levels_that_no_shape_rounds(tmp_path, capsys):
    # Y(Z) <= x iff E/Z >= V(x): the KS check runs on the levels E/Z, which do not depend on the
    # marginal, where states of a shape from 1e14 on round to a few hundred floats near +-1
    distances = set()
    for marginal in ("frechet:1", "frechet:1e14", "reverse-weibull:1e14", "frechet:3e15"):
        code, _ = run(["verify", "thm32", "--marginal", marginal, "--seed", "3"], tmp_path)
        assert code == 0, marginal
        distances |= {l for l in capsys.readouterr().out.splitlines() if l.startswith("distance")}
    assert len(distances) == 1


THM34_FAMILIES = (("geometric",), ("mittag-leffler", "--nu", "0.5"), ("degenerate",))


def test_thm34_checks_levels_that_no_shape_rounds(tmp_path, capsys):
    # M <= x iff n S >= V(x): the KS check runs on the levels n S, which do not depend on the
    # base, where the normed draws of a Pareto shape from 1e15 on round to a few hundred floats
    # next to 1 (KS 0.0299 at 1e15 and 0.0808 at 3e15 with seed 1, against a bound of 0.0215)
    for family in THM34_FAMILIES:
        distances = set()
        for triple in ("pareto:1", "pareto:1e14", "pareto:1e15", "pareto:3e15", "exponential",
                       "uniform"):
            argv = ["verify", "thm34", "--family", *family, "--triple", triple, "--seed", "1"]
            code, _ = run(argv, tmp_path)
            assert code == 0, (family, triple)
            distances |= {l for l in capsys.readouterr().out.splitlines()
                          if l.startswith("ks_distance")}
        assert len(distances) == 1, family


def _thm34_fails_its_ks_check(tmp_path, capsys, family):
    code, _ = run(["verify", "thm34", "--family", *family, "--seed", "1"], tmp_path)
    assert code == 1
    summary = dict(l.split(" = ") for l in capsys.readouterr().out.splitlines() if " = " in l)
    bound = float(summary["ks_critical"]) + float(summary["allowance"])
    assert float(summary["ks_distance"]) > bound, family


@pytest.mark.parametrize("family", THM34_FAMILIES)
def test_thm34_fails_on_inflated_survivals(tmp_path, capsys, monkeypatch, family):
    # levels 1.2 n S: KS 0.0438 for geometric and Mittag-Leffler counts and 0.0719 for degenerate
    survivals = randmax.verify_harness.max_survivals
    monkeypatch.setattr(randmax.verify_harness, "max_survivals", lambda *a: 1.2 * survivals(*a))
    _thm34_fails_its_ks_check(tmp_path, capsys, family)


@pytest.mark.parametrize("family", THM34_FAMILIES)
def test_thm34_fails_at_a_doubled_count_index(tmp_path, capsys, monkeypatch, family):
    # success 2/n in place of 1/n: the sample and the random gap both leave the limit
    monkeypatch.setattr(LaplaceFamily, "index", lambda self, n: 2.0 / n)
    monkeypatch.setattr(MittagLeffler, "index", lambda self, n: (n / 2.0) ** (-1.0 / self.nu))
    _thm34_fails_its_ks_check(tmp_path, capsys, family)


def test_sample_randmax_degenerate(tmp_path):
    code, out = run(
        ["sample", "randmax", "--family", "degenerate", "--theta", "1",
         "--base", "pareto:1", "--n", "10", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    lines = (out / "randmax.csv").read_text().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 11
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(v >= 1.0 for v in values)  # single Pareto draws


def test_thread_count_does_not_change_bytes(tmp_path):
    argv = ["verify", "thm32", "--family", "geometric", "--marginal", "frechet:1",
            "--n", "50000", "--seed", "9"]
    code1, out1 = run(argv + ["--threads", "1"], tmp_path, "1")
    code4, out4 = run(argv + ["--threads", "4"], tmp_path, "4")
    assert code1 == code4 == 0
    assert read(out1 / "thm32_grid.csv") == read(out4 / "thm32_grid.csv")
    assert read(out1 / "thm32_summary.txt") == read(out4 / "thm32_summary.txt")


def test_rerun_same_seed_byte_identical(tmp_path):
    argv = ["sample", "mixer", "--family", "mittag-leffler", "--nu", "0.5",
            "--n", "25000", "--seed", "11", "--threads", "4"]
    code1, out1 = run(argv, tmp_path, "a")
    code2, out2 = run(argv, tmp_path, "b")
    assert code1 == code2 == 0
    assert read(out1 / "mixer.csv") == read(out2 / "mixer.csv")


def test_failed_verification_exits_one(tmp_path):
    code, _ = run(
        ["verify", "lemma12", "--family", "geometric", "--theta", "0.5",
         "--n", "20000", "--seed", "1"],
        tmp_path,
    )
    assert code == 1


def test_bad_flags_exit_two(tmp_path, capsys):
    assert main(["verify", "poincare", "--family", "geometric", "--bogus", "1"]) == 2
    assert main(["verify", "nonsense"]) == 2
    assert main([]) == 2
    code, _ = run(["verify", "poincare", "--family", "cauchy"], tmp_path)
    assert code == 2
    code, _ = run(
        ["verify", "lemma12", "--family", "mittag-leffler", "--nu", "0.5"], tmp_path
    )
    assert code == 2  # rejected scaling, a configuration error
    capsys.readouterr()


def test_env_seed_default(tmp_path, monkeypatch):
    argv = ["sample", "count", "--family", "geometric", "--theta", "0.5", "--n", "50"]
    monkeypatch.setenv("RANDMAX_SEED", "77")
    code, out_env = run(argv, tmp_path, "env")
    assert code == 0
    monkeypatch.delenv("RANDMAX_SEED")
    code, out_flag = run(argv + ["--seed", "77"], tmp_path, "flag")
    assert code == 0
    assert read(out_env / "count.csv") == read(out_flag / "count.csv")


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=geometric\ntheta=0.001\nn=20000\n")
    code, out = run(
        ["verify", "lemma12", "--config", str(cfg), "--seed", "5"], tmp_path, "cfg"
    )
    assert code == 0
    assert "param theta = 0.001" in (out / "lemma12_summary.txt").read_text()
    # explicit flags win over config values
    code, out = run(
        ["verify", "lemma12", "--config", str(cfg), "--theta", "0.5", "--seed", "5"],
        tmp_path,
        "cfg2",
    )
    assert code == 1  # moderate theta fails the threshold
    assert "param theta = 0.5" in (out / "lemma12_summary.txt").read_text()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key=1\n")
    code, _ = run(["verify", "lemma12", "--config", str(cfg)], tmp_path, "bad")
    assert code == 2
    capsys.readouterr()
    missing = tmp_path / "missing.cfg"
    assert main(["verify", "lemma12", "--config", str(missing)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text, argv, code", [
    ("theta=0.5\n", ["--config", "{cfg}", "--n", "5"], 0),  # a file value satisfies --theta
    ("theta=0.5\n", ["--config={cfg}", "--n", "5"], 0),
    (None, ["--theta", "0.5", "--config"], 2),  # no path
    ("theta 0.5\n", ["--config", "{cfg}"], 2),  # no '='
    ("theta=0.5\nunknown_key=1\n", ["--config", "{cfg}"], 2),
    ("theta=0.5\nn=abc\n", ["--config", "{cfg}"], 2),
    ("theta=0.5\n", ["--conf", "{cfg}", "--n", "5"], 0),  # abbreviations argparse accepts
    ("theta=0.5\n", ["--co={cfg}", "--n", "5"], 0),
    ("theta=0.5\n", ["--c", "{cfg}", "--n", "5"], 0),
    (None, ["--theta", "0.5", "--conf"], 2),
])
def test_config_contract(tmp_path, capsys, text, argv, code):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    head = ["sample", "count", "--out", str(out), "--seed", "1"]
    assert main(head + [arg.replace("{cfg}", str(cfg)) for arg in argv]) == code
    err = capsys.readouterr().err
    if code:
        assert err and not out.exists()
        return
    code, explicit = run(["sample", "count", "--theta", "0.5", "--n", "5", "--seed", "1"], tmp_path, "x")
    assert code == 0
    assert read(out / "count.csv") == read(explicit / "count.csv")


def test_only_config_starts_with_dash_dash_c():
    # _splice_config takes every prefix of --config from --c up as --config
    names = {flag.name for e in randmax.cli.EXPERIMENTS.values() for flag in e.flags + randmax.cli.COMMON}
    assert [name for name in names if name.startswith("--c")] == ["--config"]


def test_extremal_path_csv(tmp_path):
    code, out = run(
        ["extremal", "path", "--marginal", "frechet:1", "--horizon", "1",
         "--paths", "3", "--seed", "2"],
        tmp_path,
    )
    assert code == 0
    lines = (out / "path.csv").read_text().splitlines()
    assert lines[0] == "path_id,time,state"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) > 3
    for pid in ("0", "1", "2"):
        states = [float(row[2]) for row in body if row[0] == pid]
        assert states == sorted(states)
        assert len(set(states)) == len(states)


def test_extremal_path_explicit_floor(tmp_path):
    code, out = run(
        ["extremal", "path", "--marginal", "frechet:1", "--horizon", "1",
         "--floor", "0.5", "--paths", "2", "--seed", "2"],
        tmp_path,
        "floor",
    )
    assert code == 0
    lines = (out / "path.csv").read_text().splitlines()[1:]
    assert all(float(line.split(",")[2]) > 0.5 for line in lines)


@pytest.mark.parametrize("marginal", ["gumbel", "reverse-weibull:2"])
def test_extremal_path_other_marginals(tmp_path, marginal):
    argv = ["extremal", "path", "--marginal", marginal, "--paths", "300", "--seed", "6"]
    code1, out1 = run(argv + ["--threads", "1"], tmp_path, "1")
    code2, out2 = run(argv + ["--threads", "2"], tmp_path, "2")
    assert code1 == code2 == 0
    assert read(out1 / "path.csv") == read(out2 / "path.csv")
    lines = (out1 / "path.csv").read_text().splitlines()
    assert lines[0] == "path_id,time,state"
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    same = data[1:, 0] == data[:-1, 0]
    assert np.all(np.diff(data[:, 0]) >= 0.0) and same.any()
    assert np.all(np.diff(data[:, 1])[same] > 0.0)
    assert np.all(np.diff(data[:, 2])[same] > 0.0)


def test_table_doa(tmp_path):
    code, out = run(["table", "doa", "--triple", "exponential"], tmp_path)
    assert code == 0
    lines = (out / "doa_gaps.csv").read_text().splitlines()
    assert lines[0] == "n,tail_gap,cdf_gap"
    assert len(lines) == 5


def test_table_doa_far_tail(tmp_path, capsys):
    code, _ = run(["table", "doa", "--ns", "10000000000000000"], tmp_path)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    stats = dict(line.split(" = ") for line in lines if " = " in line)
    assert float(stats["final_tail_gap"]) < 1e-12


def test_verify_thm34_uniform_far_tail(tmp_path, capsys):
    # the normed uniform maximum is drawn as -n S, never as 1 - S rounded near 1
    code, _ = run(
        ["verify", "thm34", "--triple", "uniform", "--n", "10000000000000000", "--seed", "11"],
        tmp_path,
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    stats = dict(line.split(" = ") for line in lines if " = " in line)
    assert float(stats["tail_gap"]) < 1e-12


@pytest.mark.parametrize("argv, name, column", [
    (["table", "doa", "--triple", "pareto:0.01"], "doa_gaps.csv", "tail_gap"),
    (["verify", "definetti", "--triple", "pareto:0.01"], "definetti_gaps.csv", "sup_gap"),
])
def test_small_pareto_exponent_gaps_are_exact(tmp_path, argv, name, column):
    # n^(1/alpha) is no float here, but the normed survival x^-alpha / n needs no norming constant
    code, out = run(argv, tmp_path)
    assert code == 0
    header, *rows = (out / name).read_text().splitlines()
    index = header.split(",").index(column)
    assert rows and all(float(row.split(",")[index]) < 1e-12 for row in rows)


def test_sample_bivariate_marginal(tmp_path):
    code, out = run(
        ["sample", "extremal-marginal", "--marginal", "frechet:1",
         "--dependence", "complete", "--t", "2.0", "--n", "20", "--seed", "4"],
        tmp_path,
    )
    assert code == 0
    lines = (out / "extremal-marginal.csv").read_text().splitlines()
    assert lines[0] == "index,x0,x1"
    for line in lines[1:]:
        _, a, b = line.split(",")
        assert a == b  # comonotone coordinates


def test_emit_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(Table.from_rows(name="empty", columns=("a", "b", "c"), rows=()), path)
    assert path.read_text() == "a,b,c\n"


def test_emit_csv_streams_the_row_wise_text(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    columns = (np.arange(n), rng.standard_normal(n), rng.random(n) < 0.5,
               tuple(("a", 1, 2.5, None)[i % 4] for i in range(n)))
    path = tmp_path / "t.csv"
    emit_csv(Table("t", ("i", "x", "flag", "mixed"), columns), path)
    rows = (",".join(format_value(v) for v in row) + "\n" for row in zip(*columns))
    same = path.read_text() == "i,x,flag,mixed\n" + "".join(rows)
    assert same  # a bool, so a failure prints no diff of 8000 lines


def parse_outcome(build, argv, capsys):
    """What parsing ``argv`` with ``build(config)`` gives: the namespace or exit code, and the output."""
    argv, config = randmax.cli._splice_config(argv)
    try:
        result = vars(build(config).parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


def run_parser(config):
    """The parser ``main`` parses with: the cached full parser, or a ``--config`` run's own."""
    return build_parser(config) if config else randmax.cli._default_parser()


@pytest.mark.parametrize("key", list(EXPERIMENTS), ids=" ".join)
@pytest.mark.parametrize("tail", [
    ["-h"],
    ["--bogus", "1"],  # unrecognized: the root parser's usage line
    ["--seed", "x"],  # a bad value for a typed flag
    ["--seed"],  # a flag without its value
    [],  # a missing required flag, where the experiment has one
    ["--config", "{cfg}"],  # defaults from a file, typed by the parser
])
def test_narrowed_parser_prints_what_the_full_parser_prints(tmp_path, capsys, key, tail):
    # the parser a run is given, the cached one after other runs have used it, prints what a
    # newly built full parser prints: namespace or exit code, stdout and stderr
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=x\n")
    argv = [*key, *(arg.replace("{cfg}", str(cfg)) for arg in tail)]
    for used in ([*key, "--seed", "7", "--out", str(tmp_path)], [*key, "--bogus"]):
        try:
            randmax.cli._default_parser().parse_args(used)
        except SystemExit:
            pass
    capsys.readouterr()
    assert parse_outcome(run_parser, argv, capsys) == parse_outcome(build_parser, argv, capsys)


@pytest.mark.parametrize("argv, message", [
    ([], "error: the following arguments are required: verb\n"),
    (["--help"], "usage: randmax [-h] {verify,sample,extremal,table} ...\n"),
    (["verify"], "error: the following arguments are required: experiment\n"),
    (["verify", "--help"], "{poincare,lemma12,definetti,thm24,thm31,thm32,thm34} ...\n"),
    (["verify", "nonsense"], "error: argument experiment: invalid choice: 'nonsense' "
                             "(choose from 'poincare', 'lemma12', 'definetti', 'thm24', "
                             "'thm31', 'thm32', 'thm34')\n"),
])
def test_root_argv_gets_the_full_parser(capsys, argv, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert message in out + err
    assert (code, out, err) == parse_outcome(build_parser, argv, capsys)


def test_a_second_run_builds_no_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    randmax.cli._default_parser.cache_clear()
    assert main(["table", "doa", "--out", str(tmp_path / "first")]) == 0
    assert built
    built.clear()
    assert main(["table", "doa", "--out", str(tmp_path / "second")]) == 0
    assert built == []
    capsys.readouterr()


def test_config_defaults_stay_in_their_own_run(tmp_path, monkeypatch, capsys):
    # a --config run builds its own parser, so its values never become the cached parser's defaults
    monkeypatch.delenv("RANDMAX_SEED", raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\n")
    argv = ["verify", "lemma12", "--n", "1000"]
    randmax.cli._default_parser.cache_clear()
    main(argv + ["--config", str(cfg), "--out", str(tmp_path / "cfg")])
    main(argv + ["--out", str(tmp_path / "plain")])
    assert "seed = 5\n" in (tmp_path / "cfg" / "lemma12_summary.txt").read_text()
    assert "seed = 0\n" in (tmp_path / "plain" / "lemma12_summary.txt").read_text()
    capsys.readouterr()


def test_lemma12_takes_no_threshold(tmp_path, capsys):
    # lemma12 is held to PRELIMIT_ALLOWANCE, like every runner's allowance
    assert main(["verify", "lemma12", "--threshold", "0.5", "--out", str(tmp_path)]) == 2
    assert "unrecognized arguments: --threshold 0.5" in capsys.readouterr().err


def test_threads_flag_starts_no_thread(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    argv = ["verify", "thm32", "--n", "30000", "--threads", "4", "--seed", "1"]  # three chunks
    assert run(argv, tmp_path)[0] == 0
    capsys.readouterr()


def test_help_lists_experiments(capsys):
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for token in ("poincare", "lemma12", "definetti", "thm24", "thm31", "thm32",
                  "thm34", "randmax", "mixer", "count", "extremal-marginal",
                  "path", "doa", "Theorem 2.4", "Theorem 3.2", "Lemma 1.2"):
        assert token in text, token


@pytest.mark.parametrize("family", [
    ["--family", "geometric", "--theta", "1e-20"],
    ["--family", "mittag-leffler", "--nu", "0.5", "--theta", "1e-40"],
])
def test_count_beyond_int64_exits_two(tmp_path, capsys, family):
    code, out = run(["sample", "count", *family, "--n", "3", "--seed", "1"], tmp_path)
    assert code == 2
    assert "int64" in capsys.readouterr().err
    assert not (out / "count.csv").exists()


@pytest.mark.parametrize("family, rows", [
    ("geometric", ["0,31628276690986936", "1,32760229044769932", "2,77777078022338240",
                   "3,114189993484381120"]),
    ("degenerate", ["0,100000000000000000", "1,100000000000000000", "2,100000000000000000",
                    "3,100000000000000000"]),
])
def test_large_counts_are_written_as_integers(tmp_path, family, rows):
    # a count of 10^17 or more written through the float formatter would read
    # 1.1418999348438112e+17, which names a different integer
    code, out = run(["sample", "count", "--family", family, "--theta", "1e-17", "--n", "4",
                     "--seed", "1"], tmp_path)
    assert code == 0
    lines = (out / "count.csv").read_text().splitlines()
    assert lines == ["index,value"] + rows
    assert max(int(line.split(",")[1]) for line in lines[1:]) >= 10**17


def test_degenerate_count_is_the_integer_its_theta_names(tmp_path):
    # the float 1e-18 is nearest both 1/10^18 and 1/(10^18 - 128); round(1/theta) gave the latter
    code, out = run(["sample", "count", "--family", "degenerate", "--theta", "1e-18", "--n", "1",
                     "--seed", "1"], tmp_path)
    assert code == 0
    assert (out / "count.csv").read_text().splitlines() == ["index,value", "0,1000000000000000000"]


@pytest.mark.parametrize("theta, count", [
    (repr(1 / 3), 3), (repr(1 / 7), 7), (repr(2.0**-60), 2**60), ("1e-17", 10**17),
    # no decimal names an integer here, so the count is round(1/theta) taken exactly:
    # 1/3e-19 is 3333333333333333415.8..., which round(1.0 / theta) misses by 88
    ("1.5e-16", 6666666666666667), ("3e-19", 3333333333333333416),
])
def test_degenerate_theta_names_one_count(tmp_path, theta, count):
    # the refused thetas, whose 1/n rounds to no integer n, are in test_inadmissible_parameter_exits_two
    code, out = run(["sample", "count", "--family", "degenerate", "--theta", theta, "--n", "1",
                     "--seed", "1"], tmp_path)
    assert code == 0
    assert (out / "count.csv").read_text().splitlines() == ["index,value", f"0,{count}"]


def test_tiny_theta_sample_is_one_finite_row(tmp_path):
    # a count near 1e15 costs one uniform like any other: no base draws are stored
    code, out = run(["sample", "randmax", "--theta", "1e-15", "--n", "1", "--seed", "1"], tmp_path)
    assert code == 0
    lines = (out / "randmax.csv").read_text().splitlines()
    assert len(lines) == 2
    value = float(lines[1].split(",")[1])
    assert math.isfinite(value) and value >= 1.0


@pytest.mark.filterwarnings("error")
def test_random_max_beyond_float_range_exits_two(tmp_path, capsys):
    # the maxima lie near 10^1500; they must not be written as inf
    argv = ["sample", "randmax", "--theta", "1e-15", "--base", "pareto:0.01", "--n", "3",
            "--seed", "1"]
    code, out = run(argv, tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "float range" in err and err.count("\n") == 1
    assert not (out / "randmax.csv").exists()


def test_unallocatable_sample_exits_one(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.57 PiB")

    monkeypatch.setattr(randmax.cli, "sample_random_max", refuse)
    code, out = run(["sample", "randmax", "--theta", "0.5", "--n", "1", "--seed", "1"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert not (out / "randmax.csv").exists()


@pytest.mark.parametrize("value", ["abc", "-1", str(2**64)])
def test_bad_env_seed_exits_two(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("RANDMAX_SEED", value)
    code, out = run(["sample", "count", "--theta", "0.5"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $RANDMAX_SEED: seed must be") and err.count("\n") == 1
    assert not (out / "count.csv").exists()


def test_out_naming_a_file_exits_one(tmp_path, capsys):
    # the output directory cannot be made where a regular file stands
    out = tmp_path / "taken"
    out.write_text("keep\n")
    code = main(["sample", "count", "--theta", "0.5", "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
    assert out.read_text() == "keep\n"


@pytest.mark.filterwarnings("error")
def test_mittag_leffler_subordination_near_order_one_passes(tmp_path, monkeypatch):
    # near nu = 1 the mixer's sine ratio sin(nu pi (1 - V)) / sin(nu pi V) spans many decades
    # before its power 1/nu; no mixer draw or level may warn or leave the floats
    monkeypatch.setenv("RANDMAX_SEED", "0")
    code, out = run(["verify", "thm32", "--family", "mittag-leffler", "--nu", "0.99"], tmp_path)
    assert code == 0
    assert "result: PASS" in (out / "thm32_summary.txt").read_text()


def test_out_of_range_seed_flag_exits_two_without_randomness(tmp_path, capsys):
    # the seed is checked even where no random draw would read it
    code, _ = run(["verify", "poincare", "--seed", "-1"], tmp_path)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: seed must be a 64-bit unsigned integer")


@pytest.mark.parametrize("argv, message", [
    (["sample", "extremal-marginal", "--t", "nan"], "time must be finite and positive"),
    (["sample", "extremal-marginal", "--t", "inf"], "time must be finite and positive"),
    (["extremal", "path", "--horizon", "nan"], "horizon must be finite and positive"),
    (["extremal", "path", "--horizon", "inf"], "horizon must be finite and positive"),
])
def test_non_finite_time_exits_two(tmp_path, capsys, argv, message):
    code, out = run(argv + ["--seed", "1"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


# a marginal's grid vinv(levels) leaves the normal floats below a shape of about 0.00293
# (Frechet) or 0.00196 (reverse Weibull), and its points coincide from a shape of about 4e15
GRID = "the grid of {} lies beyond the float range"
DEGENERATE = "degenerate family requires theta = 1/n for integer n >= 1, got {}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["sample", "extremal-marginal", "--marginal", "frechet:abc"], "expected a number"),
    (["sample", "extremal-marginal", "--marginal", "frechet:nan"], "finite and positive, got nan"),
    (["extremal", "path", "--marginal", "reverse-weibull:inf"], "finite and positive, got inf"),
    (["verify", "thm24", "--triple", "pareto:x"], "expected a number"),
    (["sample", "randmax", "--theta", "0.5", "--base", "pareto:x"], "expected a number"),
    (["sample", "randmax", "--theta", "0.5", "--base", "pareto:nan"], "finite and positive, got nan"),
    (["table", "doa", "--ns", ","], "at least one n"),
    (["verify", "definetti", "--ns", ","], "at least one n"),
    (["verify", "thm24", "--ns", "0,10"], "n must be >= 1, got 0"),
    (["verify", "definetti", "--ns", "0"], "n must be >= 1, got 0"),
    (["extremal", "path", "--horizon", "1e-320"],
     "horizon 1e-320 gives a default floor of 0.0 outside the support, "
     "where 0 < V(floor) < inf; give a floor with --floor"),
    (["extremal", "path", "--horizon", "1e-320", "--floor", "0"], "floor must lie inside"),
    (["table", "doa", "--triple", "pareto:0.001"], GRID.format("Frechet(alpha=0.001)")),
    (["table", "doa", "--triple", "pareto:1e300"], GRID.format("Frechet(alpha=1e+300)")),
    (["verify", "thm34", "--triple", "pareto:0.002", "--m", "10"],
     GRID.format("Frechet(alpha=0.002)")),
    (["verify", "thm31", "--marginal", "reverse-weibull:0.001"],
     GRID.format("ReverseWeibull(alpha=0.001)")),
    (["verify", "thm31", "--marginal", "frechet:0.001"], GRID.format("Frechet(alpha=0.001)")),
    (["sample", "count", "--theta", "1e-320"], "smallest normal float"),
    (["sample", "randmax", "--theta", "1e-320"], "smallest normal float"),
    # a degenerate theta names one integer n with 1/n rounding to theta, or is refused
    (["sample", "count", "--family", "degenerate", "--theta", "0.3"], DEGENERATE.format(0.3)),
    (["sample", "count", "--family", "degenerate", "--theta", "1.0000000000000003e-15"],
     DEGENERATE.format(1.0000000000000003e-15)),
    (["sample", "count", "--family", "degenerate", "--theta", "1.0000000000000007e-15"],
     DEGENERATE.format(1.0000000000000007e-15)),
    (["verify", "lemma12", "--family", "degenerate", "--theta", "1.5"], DEGENERATE.format(1.5)),
    (["sample", "extremal-marginal", "--marginal", "frechet:1e-300", "--n", "3"],
     "Y(t) lies beyond the float range"),
    (["sample", "extremal-marginal", "--t", "1e-320", "--n", "3"], "Y(t) lies beyond the float range"),
    (["verify", "thm34", "--m", "1"], "m = 1 draws cannot fail the KS check"),
    (["verify", "thm34", "--triple", "pareto:1e300", "--m", "200"],
     GRID.format("Frechet(alpha=1e+300)")),
    (["extremal", "path", "--floor", "1e-320"], "floor must lie inside the support"),
    (["verify", "thm31", "--marginal", "frechet:1e300"], GRID.format("Frechet(alpha=1e+300)")),
    (["verify", "thm31", "--marginal", "reverse-weibull:1e300"],
     GRID.format("ReverseWeibull(alpha=1e+300)")),
    (["table", "doa", "--triple", "exponential", "--ns", "1" + "0" * 400], "n beyond the float range"),
    (["verify", "poincare", "--family", "degenerate", "--thetas", "1e-320"], "smallest normal float"),
    (["verify", "thm31", "--family", "degenerate", "--thetas", "1e-320"], "smallest normal float"),
    (["sample", "count", "--family", "degenerate", "--theta", "1e-320"], "smallest normal float"),
    (["sample", "randmax", "--family", "degenerate", "--theta", "1e-320"], "smallest normal float"),
    (["verify", "lemma12", "--family", "degenerate", "--theta", "1e-320"], "smallest normal float"),
    (["sample", "count", "--family", "degenerate", "--theta", "1e-300"], "exceeds the int64 range"),
    # a random maximum draws no count, so the int64 refusal is shown by lemma12's counts here
    (["verify", "lemma12", "--family", "geometric", "--theta", "1e-20"], "exceeds the int64 range"),
    (["verify", "lemma12", "--family", "degenerate", "--theta", "1e-300"], "exceeds the int64 range"),
    (["sample", "mixer", "--family", "mittag-leffler", "--nu", "1e-16", "--n", "5"],
     "lies beyond the float range"),
    (["verify", "thm32", "--family", "mittag-leffler", "--nu", "0.01", "--n", "2000"],
     "lies beyond the float range"),
    (["verify", "thm32", "--marginal", "frechet:1e300", "--n", "200"],
     GRID.format("Frechet(alpha=1e+300)")),
    (["verify", "thm32", "--marginal", "reverse-weibull:1e300", "--n", "200"],
     GRID.format("ReverseWeibull(alpha=1e+300)")),
    (["verify", "thm32", "--marginal", "reverse-weibull:0.0019"],
     GRID.format("ReverseWeibull(alpha=0.0019)")),
    (["verify", "thm24", "--family", "mittag-leffler", "--nu", "0.01"],
     "count index n^(-1/nu) at n = 10000, nu = 0.01 lies beyond the float range"),
    (["verify", "thm34", "--family", "mittag-leffler", "--nu", "0.01", "--m", "200"],
     "count index n^(-1/nu) at n = 10000, nu = 0.01 lies beyond the float range"),
    (["verify", "thm24", "--ns", "1" + "0" * 308], "count index 1/n at n = 1e+308 lies beyond"),
    (["verify", "thm34", "--n", "1" + "0" * 308, "--m", "200"],
     "count index 1/n at n = 1e+308 lies beyond"),
    (["verify", "definetti", "--triple", "pareto:0.0029"], GRID.format("Frechet(alpha=0.0029)")),
    (["verify", "thm24", "--triple", "pareto:1e16"], GRID.format("Frechet(alpha=1e+16)")),
    (["verify", "thm31", "--marginal", "reverse-weibull:1e16"],
     GRID.format("ReverseWeibull(alpha=1e+16)")),
    (["verify", "lemma12", "--family", "mittag-leffler"], "requires --nu in (0, 1)"),
    (["extremal", "path", "--paths", "0"], "error: path count must be positive, got 0"),
    (["extremal", "path", "--paths", "-3"], "error: path count must be positive, got -3"),
    # a law that takes no shape refuses one; it used to run as if the suffix were absent
    (["table", "doa", "--triple", "exponential:5"], "'exponential:5' gives a shape"),
    (["table", "doa", "--triple", "uniform:2"], "'uniform:2' gives a shape"),
    (["verify", "thm32", "--marginal", "gumbel:xyz"], "'gumbel:xyz' gives a shape"),
    (["sample", "extremal-marginal", "--marginal", "gumbel:7"], "'gumbel:7' gives a shape"),
    # theta (1 - U) is subnormal wherever 1 - U < 0.74, and so is the survival of the maximum
    (["sample", "randmax", "--theta", "3e-308"],
     "survival 1 - G(M) of a random maximum lies beyond the float range"),
])
def test_inadmissible_parameter_exits_two(tmp_path, capsys, argv, message):
    code, out = run(argv + ["--seed", "1"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, key, spec", [
    (["table", "doa"], "triple", "exponential:5"),
    (["table", "doa"], "triple", "uniform:2"),
    (["verify", "thm32"], "marginal", "gumbel:xyz"),
    (["sample", "extremal-marginal"], "marginal", "gumbel:7"),
])
def test_shape_of_a_shapeless_law_exits_two_through_config(tmp_path, capsys, argv, key, spec):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={spec}\n")
    code, out = run(argv + ["--config", str(cfg), "--seed", "1"], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == f"error: {spec!r} gives a shape to a law that takes none\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["table", "doa", "--triple", "pareto:6.7"],
    ["table", "doa", "--triple", "pareto:18.6"],
    ["table", "doa", "--triple", "pareto:600"],
    ["verify", "thm34", "--triple", "pareto:18.6", "--n", "67774"],
    ["verify", "thm24", "--triple", "pareto:2.5"],
    ["verify", "thm24", "--triple", "pareto:2.5", "--family", "mittag-leffler", "--nu", "0.5"],
    ["verify", "thm24", "--triple", "pareto:2.5", "--family", "degenerate"],
    ["verify", "thm24", "--triple", "pareto:600"],
    ["verify", "definetti", "--triple", "pareto:600"],
    ["verify", "definetti", "--triple", "pareto:600", "--family", "mittag-leffler", "--nu", "0.5"],
    ["verify", "thm31", "--marginal", "frechet:600"],
    ["verify", "thm31", "--marginal", "reverse-weibull:600"],
    ["verify", "thm32", "--marginal", "frechet:600"],
    ["verify", "thm32", "--marginal", "reverse-weibull:600"],
    # theta = 1/11923213 misses its integer by more than 1e-9 after the division back
    ["verify", "thm34", "--family", "degenerate", "--n", "11923213"],
    # thm32 checks the levels E/Z, where a state vinv(E/Z) of a small shape overflowed
    ["verify", "thm32", "--marginal", "frechet:0.003"],
    ["verify", "thm32", "--marginal", "reverse-weibull:0.003"],
    ["verify", "thm32", "--family", "mittag-leffler", "--nu", "0.4", "--marginal", "frechet:0.03",
     "--dependence", "complete"],
])
def test_extreme_shapes_and_indices_pass(tmp_path, capsys, argv):
    # each grid is vinv of fixed levels, so V stays in [1/8, 4] at every admitted shape; on the
    # grid 0.25, ..., 8 Pareto(2.5) met V = 32 and failed the thm24 witness at n = 100
    code, out = run(argv + ["--seed", "1"], tmp_path)
    assert code == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


DEFAULT_SHAPE_DIGESTS = {
    ("verify", "thm24", "--triple", "pareto:1"):
        "66cc0844bb1a7705cedfbd970a462122660a7c6259f29214ced3784a1923c68a",
    ("verify", "thm24", "--triple", "exponential"):
        "9137fdfe1e25304e2ded6e589bd61b4ec8c104fc0f49a2aafc4571bcdd7742cb",
    ("verify", "thm24", "--triple", "uniform"):
        "3df2f280b1ea738dd386037eaa32e7b0c32980145d96b171ba8624b32cfc7019",
    ("verify", "definetti", "--triple", "pareto:1"):
        "0c8b38054a7e3333a3867bb165a10829e6752f592e0dfafa1b050464941e04a9",
    ("verify", "definetti", "--triple", "exponential"):
        "8df87850e0260ae1ac4069d64d4d79657211d85058474583a3ef8e42910a3756",
    ("verify", "definetti", "--triple", "uniform"):
        "e1f8a1124860bd51f1f9f82a3b719f89038c21365309b0a1b71b37112385108f",
    ("table", "doa", "--triple", "pareto:1"):
        "f5e78b225831cf6d6fab36d20b675bf5c80eff0d815df3cd6fd3d730158f7cdf",
    ("table", "doa", "--triple", "exponential"):
        "90567a83505ff1a049568908089aacf289fb87e4a35aa9f1a3552fe989f87f7a",
    ("table", "doa", "--triple", "uniform"):
        "2f33135bfcafd1f0871f8f5872b12f6d92be32e9fabb89355d479b2fe9e1b786",
    ("verify", "thm31", "--marginal", "frechet:1"):
        "4bd05b483e2d5c52f549025c6f0cedd60d1e0275ecbba4f13d1fe946867689a3",
    ("verify", "thm31", "--marginal", "gumbel"):
        "e9abcf3f245291785209605141e3df7d05ba5b95b39df8cbbd0d104968ec3c75",
    ("verify", "thm31", "--marginal", "reverse-weibull:1"):
        "6bf1f08fb15099aa59655e5c315d2e2cef5fea225a29b61522e289a8b342c817",
}


@pytest.mark.parametrize("argv", sorted(DEFAULT_SHAPE_DIGESTS))
def test_default_shape_outputs_keep_their_bytes(tmp_path, argv):
    # SHA-256 of the output files (table CSV, then summary) concatenated in name order
    code, out = run(list(argv), tmp_path)
    assert code == 0
    files = sorted(out.iterdir())
    assert [path.suffix for path in files] == [".csv", ".txt"]
    digest = hashlib.sha256(b"".join(path.read_bytes() for path in files)).hexdigest()
    assert digest == DEFAULT_SHAPE_DIGESTS[argv]


# SHA-256 of the sample CSV at --n 1000 --seed 1: a change to a sampler's stream must be deliberate
STREAM_DIGESTS = {
    ("sample", "randmax", "--theta", "0.5"):
        "c445d6769dd828948f5f3450d4fea2d620ce21703bdfe1b47e3fdfebd511b49e",
    ("sample", "randmax", "--theta", "0.5", "--family", "mittag-leffler", "--nu", "0.5"):
        "1181150cab31d8f38e17f9890a3bde3bf75a61fd9488203c5760a1e66818227e",
    ("sample", "randmax", "--theta", "0.5", "--family", "degenerate"):
        "c810e5ac2c7983297ba084605f137183a099a58580ef865d85c5837e7bc05541",
    ("sample", "mixer", "--family", "mittag-leffler", "--nu", "0.5"):
        "ea5daaee9fbd18fba888894969115bcefe1fd09c0ee4b559257978bda99ce482",
}


@pytest.mark.parametrize("argv", sorted(STREAM_DIGESTS))
def test_sampler_streams_keep_their_bytes(tmp_path, argv):
    code, out = run(list(argv) + ["--n", "1000", "--seed", "1"], tmp_path)
    assert code == 0
    (path,) = out.iterdir()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STREAM_DIGESTS[argv]


# SHA-256 of path.csv at --paths 2000 --seed 1, and its line count
PATH_DIGESTS = {
    (): ("9412bdc72b13c29fcb787d8a38d672839a781613de56fcefc93b811b32e1b41e", 18853),
    ("--floor", "1e-8"): ("94c145157cd0ad2785430506049b005f9b53e5a5e72f5ea2a83f8e4d071c492c", 37954),
}


@pytest.mark.parametrize("flags", sorted(PATH_DIGESTS))
def test_extremal_paths_keep_their_bytes(tmp_path, flags):
    code, out = run(["extremal", "path", "--paths", "2000", "--seed", "1", *flags], tmp_path)
    assert code == 0
    data = (out / "path.csv").read_bytes()
    assert (hashlib.sha256(data).hexdigest(), data.count(b"\n")) == PATH_DIGESTS[flags]


# SHA-256 of sample_random_max_seeded(CountScheme(family, 0.1), (Pareto(1), UnitExponential()),
# seed 1, n 25 000).tobytes(): a tuple base draws a shared count per row, whose stream is pinned
TUPLE_BASE_DIGESTS = {
    "geometric": "d3e0ff0bb88ae7b28fe893be3412bc4469c2536f0f76d6ddb2605b282f120f09",
    "mittag-leffler": "ed12d8ceb933274504502a0e153136e51c303acfbfb7e1b6d7aa93dabfaf1215",
    "degenerate": "3224d27efd70c5273718c94f9508c3273d56a2f2fee1dfb2e36778f4d8e2cea1",
}


@pytest.mark.parametrize("family", sorted(TUPLE_BASE_DIGESTS))
def test_tuple_base_draws_keep_their_bytes(family):
    args = argparse.Namespace(family=family, nu=0.5)
    scheme = randmax.CountScheme(randmax.cli.make_family(args), 0.1)
    base = (randmax.Pareto(1.0), randmax.UnitExponential())
    draws = randmax.sample_random_max_seeded(scheme, base, seed=1, n=25_000)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == TUPLE_BASE_DIGESTS[family]


def test_degenerate_random_max_at_the_smallest_theta(tmp_path, capsys):
    # N = 10^300 is no int64, but no count is drawn: S = -expm1(theta log U), and theta M
    # of a Pareto(1) base is Frechet(1), exp(-1/x)
    code, out = run(["sample", "randmax", "--family", "degenerate", "--theta", "1e-300",
                     "--n", "2000", "--seed", "1"], tmp_path)
    assert code == 0
    assert capsys.readouterr().out == "randmax: wrote 2000 rows\n"
    values = np.loadtxt(out / "randmax.csv", delimiter=",", skiprows=1)[:, 1]
    levels = np.sort(1e-300 * values)
    assert ks_distance(levels, lambda x: np.exp(-1.0 / x)) < ks_critical(2000)


SWEEP_FLOATS = ("0", "-1", "nan", "inf", "-inf", "1e-320", "1e-300", "1e-17", "1e-16", "0.999999", "1",
                "2", "1e300")
SWEEP_INTS = ("0", "-1", "1", "2", "3")  # --threads takes these too: keep them small
SEED_EDGES = (str(2**64 - 1), str(2**64))
BASES = ("pareto:1", "pareto:600", "pareto:1e300", "pareto:0.002", "exponential", "uniform",
         "pareto:-1", "pareto:nan", "cauchy")
SWEEP_STRINGS = {
    "--marginal": ("frechet:1", "gumbel", "reverse-weibull:2", "frechet:600", "frechet:1e300",
                   "frechet:0.001", "reverse-weibull:1e300", "frechet:-1", "frechet:nan", "cauchy"),
    "--dependence": ("none", "independence", "complete", "logistic", "x"),
    "--triple": BASES,
    "--base": BASES,
    "--ns": ("10", "1,10,100", "0", "-1", ",", "x", "1" + "0" * 400),
    "--thetas": ("0.5", "1e-20", "1e-300", "1e-320", "0", "1", "nan", "inf", "x", ","),
    "--s-grid": ("0", "1e-300", "1e300", "inf", "nan", "-1", "x", ","),
}
SWEEP_FAMILIES = (("--family", "geometric"), ("--family", "mittag-leffler", "--nu", "0.5"),
                  ("--family", "degenerate"))
SWEEP_BASE = {"--n": "200", "--m": "200", "--paths": "3", "--theta": "0.5"}
ECHOED_COLUMNS = {("poincare_residuals.csv", "s")}  # a cell copied from the input
INTEGER_COLUMNS = {("count.csv", "value")}  # each cell must name its integer exactly


def sweep_cases():
    """Each experiment at its capped defaults, then with one flag at one adversarial value.

    The swept flags are the experiment's own and the int flags every experiment shares.
    """
    shared = tuple(flag for flag in COMMON if flag.type is int)
    for (verb, name), experiment in EXPERIMENTS.items():
        names = {flag.name for flag in experiment.flags}
        families = SWEEP_FAMILIES if "--family" in names else ((),)
        base = [verb, name, "--threads", "1", "--seed", "1"]
        base += [tok for key, value in SWEEP_BASE.items() if key in names for tok in (key, value)]
        for family in families:
            yield base + list(family)
            for flag in experiment.flags + shared:
                if flag.name == "--family" or (flag.name == "--nu" and "--nu" not in family):
                    continue
                if flag.type is float:
                    values = SWEEP_FLOATS
                elif flag.type is int:
                    values = SWEEP_INTS + (SEED_EDGES if flag.name == "--seed" else ())
                else:
                    assert flag.name in SWEEP_STRINGS, f"no sweep values for {flag.name}"
                    values = SWEEP_STRINGS[flag.name]
                for value in values:
                    yield base + list(family) + [f"{flag.name}={value}"]


def sweep_problems(cases, tmp_path, capsys, codes):
    """(argv, what) for each case that exits outside ``codes``, raises, warns, writes a NaN or
    infinite cell, or exits 2 without exactly one ``error:`` line."""
    problems = []
    for index, argv in enumerate(cases):
        out = tmp_path / str(index)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv + ["--out", str(out)])
            except Exception as exc:
                problems.append((argv, f"raised {exc!r}"))
                continue
        err = capsys.readouterr().err
        if code not in codes:
            problems.append((argv, f"exit {code}: {err!r}"))
        if caught:
            problems.append((argv, f"warned {caught[0].message}"))
        if code == 2 and sum("error:" in line for line in err.splitlines()) != 1:
            problems.append((argv, f"exit 2 with stderr {err!r}"))
        for path in sorted(out.glob("*.csv")) if code == 0 else ():
            header, *rows = path.read_text().splitlines()
            for column, cells in zip(header.split(","), zip(*(row.split(",") for row in rows))):
                bad = {cell for cell in cells if "nan" in cell or "inf" in cell}
                if bad and (path.name, column) not in ECHOED_COLUMNS:
                    problems.append((argv, f"{path.name} column {column} holds {sorted(bad)}"))
                if (path.name, column) in INTEGER_COLUMNS and not all(map(str.isdigit, cells)):
                    problems.append((argv, f"{path.name} column {column} holds a non-integer"))
    return problems


def test_adversarial_flag_sweep(tmp_path, capsys):
    problems = sweep_problems(sweep_cases(), tmp_path, capsys, (0, 1, 2))
    assert not problems, "\n".join(f"{' '.join(argv)}: {what}" for argv, what in problems)


INTERIOR_SEED, INTERIOR_CASES = 23, 30  # cases per experiment
# every grid is resolved from shape 0.003 to 3e15 (README); where a run draws Pareto quantiles
# or states of Y(t) or a path, those stay finite from shape 0.1 on
GRID_SHAPES, DRAW_SHAPES = (0.003, 3e15), (0.1, 3e15)
INDEX_NS = (2, 1e15)  # 1/n is an admitted degenerate theta to 2^53; n = 1 gives theta 1
THETAS = (1e-15, 0.5)  # a geometric count 1/theta stays far inside int64
SIZES = {"verify": (100, 100_000), "sample": (1, 1000), "extremal": (1, 50)}


def log_uniform(rng, low, high):
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def interior_case(rng, key, experiment):
    """``key`` with a seed and each of its flags drawn log-uniformly inside its domain."""
    draws = key[0] != "verify" or key == ("verify", "thm34")
    alpha = log_uniform(rng, *(DRAW_SHAPES if draws else GRID_SHAPES))
    # theta N_theta has no mixer limit under Mittag-Leffler counts, so lemma12 refuses them
    family = rng.choice(("geometric", "degenerate") + ("mittag-leffler",) * (key[1] != "lemma12"))
    # thm31's norming scale theta^(+-1/alpha) stays a normal float for theta >= 1e-300^alpha
    low = 10.0 ** (-300 * min(alpha, 1.0)) if key[1] == "thm31" else THETAS[0]

    def theta():
        if family == "degenerate":
            return repr(1.0 / int(log_uniform(rng, INDEX_NS[0], min(1.0 / low, INDEX_NS[1]))))
        return repr(log_uniform(rng, low, THETAS[1]))

    def index():
        return str(int(log_uniform(rng, *INDEX_NS)))

    def size():
        return str(int(log_uniform(rng, *SIZES[key[0]])))

    def floor():  # a state whose level V times the horizon lies in [1e-3, 1e3]
        level = log_uniform(rng, 1e-3, 1e3) / float(values["--horizon"])
        return repr(float(randmax.cli.parse_marginal(values["--marginal"]).vinv(level)))

    shaped = (f"pareto:{alpha!r}", "exponential", "uniform")
    draw = {
        "--family": lambda: family,
        "--nu": lambda: repr(log_uniform(rng, 0.1, 0.99)),
        "--theta": theta,
        "--thetas": lambda: ",".join(theta() for _ in range(rng.randint(1, 3))),
        "--s-grid": lambda: ",".join(
            repr(log_uniform(rng, 1e-300, 1e300)) for _ in range(rng.randint(1, 5))),
        "--ns": lambda: ",".join(index() for _ in range(rng.randint(1, 4))),
        "--n": index if key == ("verify", "thm34") else size,
        "--m": size,
        "--paths": size,
        "--t": lambda: repr(log_uniform(rng, 1e-3, 1e3)),
        "--horizon": lambda: repr(log_uniform(rng, 1e-3, 1e3)),
        "--floor": floor,
        "--marginal": lambda: rng.choice(
            (f"frechet:{alpha!r}", "gumbel", f"reverse-weibull:{alpha!r}")),
        "--dependence": lambda: rng.choice(("none", "independence", "complete")),
        "--triple": lambda: rng.choice(shaped),
        "--base": lambda: rng.choice(shaped),
    }
    values = {}
    for flag in experiment.flags:
        if flag.name != "--nu" or family == "mittag-leffler":
            values[flag.name] = draw[flag.name]()
    return list(key) + ["--seed", str(rng.randrange(2**64))] + [
        tok for item in values.items() for tok in item]


def test_interior_flag_sweep(tmp_path, capsys):
    # inside every documented domain a run passes or fails its check: no refusal, no warning,
    # no NaN or infinite cell, even at shapes to 3e15 and indices n beyond 10^7
    rng = random.Random(INTERIOR_SEED)
    cases = [interior_case(rng, key, experiment)
             for _ in range(INTERIOR_CASES) for key, experiment in EXPERIMENTS.items()]
    assert max(int(c[c.index("--n") + 1]) for c in cases if c[:2] == ["verify", "thm34"]) > 10**7
    problems = sweep_problems(cases, tmp_path, capsys, (0, 1))
    assert not problems, "\n".join(f"{' '.join(argv)}: {what}" for argv, what in problems)
