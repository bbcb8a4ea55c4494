import argparse
import importlib
import math
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import randmax.cli
import randmax.streams
from randmax.cli import COMMON, EXPERIMENTS, build_parser, emit_csv, main
from randmax.verify_harness import CSV_BLOCK_ROWS, Table, format_value


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
        ("MittagLeffler", "lt"), ("MittagLeffler", "sample_count"),  # inherited from Geometric
        ("MaxStableLaw", "vinv"),  # never defined
        # moved to tests/oracles.py: only the tests call them
        ("LaplaceFamily", "pgf"), ("Pareto", "ppf"), ("UnitExponential", "ppf"), ("StdUniform", "ppf"),
    }
    missing = {(owner.__name__, attr) for owner, attr, *_ in tracing.layer_table()
               if isinstance(owner, type) and attr not in vars(owner)}
    assert missing == unwrapped


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
    (["table", "doa", "--triple", "pareto:0.001"], "doa_gaps.csv", "tail_gap"),
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
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=x\n")
    argv = [*key, *(arg.replace("{cfg}", str(cfg)) for arg in tail)]
    narrowed = parse_outcome(lambda config: build_parser(config, only=key), argv, capsys)
    assert narrowed == parse_outcome(build_parser, argv, capsys)


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


def test_a_run_builds_only_its_experiment_parser(tmp_path, monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert main(["table", "doa", "--out", str(tmp_path)]) == 0
    assert built == ["table", "doa"]
    capsys.readouterr()


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
    ("geometric", ["0,36178517080144344", "1,188854848990483968", "2,16976248676289376"]),
    ("degenerate", ["0,100000000000000000", "1,100000000000000000", "2,100000000000000000"]),
])
def test_large_counts_are_written_as_integers(tmp_path, family, rows):
    # a count of 10^17 or more written through the float formatter would read
    # 1.8885484899048397e+17, which names a different integer
    code, out = run(["sample", "count", "--family", family, "--theta", "1e-17", "--n", "3",
                     "--seed", "1"], tmp_path)
    assert code == 0
    assert (out / "count.csv").read_text().splitlines() == ["index,value"] + rows


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
    # at nu = 0.99 some draws' Kanter factor a(W) = r^(1/(1-nu)) lies beyond the floats, though
    # the draw does not
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


V600 = "V of the pareto(600) limit law on its grid beyond the float range"
# the thm31/thm32 grids of a Frechet(600), Frechet(1e300) or reverse-Weibull(1e300) marginal lie
# inside the support; V overflows there
V_BASE = "V of the base law on its grid beyond the float range"


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
    (["table", "doa", "--triple", "pareto:600"], V600),
    (["table", "doa", "--triple", "pareto:1e300"],
     "V of the pareto(1e+300) limit law on its grid beyond the float range"),
    (["verify", "thm34", "--triple", "pareto:0.002", "--m", "10"],
     "pareto(0.002) quantile beyond the float range"),
    (["verify", "thm31", "--marginal", "reverse-weibull:0.001"],
     "reverse-Weibull(0.001) norming constant beyond the float range"),
    (["verify", "thm31", "--marginal", "frechet:0.001"],
     "Frechet(0.001) norming constant beyond the float range (below"),
    (["sample", "count", "--theta", "1e-320"], "smallest normal float"),
    (["sample", "randmax", "--theta", "1e-320"], "smallest normal float"),
    (["verify", "lemma12", "--threshold", "nan"], "threshold must be finite and in (0, 1), got nan"),
    (["verify", "lemma12", "--threshold", "inf"], "threshold must be finite and in (0, 1), got inf"),
    (["verify", "lemma12", "--threshold", "-1"], "threshold must be finite and in (0, 1), got -1.0"),
    (["verify", "lemma12", "--threshold", "1"], "threshold must be finite and in (0, 1), got 1.0"),
    (["sample", "extremal-marginal", "--marginal", "frechet:1e-300", "--n", "3"],
     "Y(t) lies beyond the float range"),
    (["sample", "extremal-marginal", "--t", "1e-320", "--n", "3"], "Y(t) lies beyond the float range"),
    (["verify", "thm34", "--m", "1"], "m = 1 draws cannot fail the KS check"),
    (["verify", "thm34", "--triple", "pareto:1e300", "--m", "200"],
     "V of the pareto(1e+300) limit law on its grid beyond the float range"),
    (["extremal", "path", "--floor", "1e-320"], "floor must lie inside the support"),
    (["verify", "thm31", "--marginal", "frechet:1e300"], V_BASE),
    (["verify", "thm31", "--marginal", "reverse-weibull:1e300"], V_BASE),
    (["table", "doa", "--triple", "exponential", "--ns", "1" + "0" * 400], "n beyond the float range"),
    (["verify", "poincare", "--family", "degenerate", "--thetas", "1e-320"], "smallest normal float"),
    (["verify", "thm31", "--family", "degenerate", "--thetas", "1e-320"], "smallest normal float"),
    (["sample", "count", "--family", "degenerate", "--theta", "1e-320"], "smallest normal float"),
    (["sample", "randmax", "--family", "degenerate", "--theta", "1e-320"], "smallest normal float"),
    (["verify", "lemma12", "--family", "degenerate", "--theta", "1e-320"], "smallest normal float"),
    (["sample", "count", "--family", "degenerate", "--theta", "1e-300"], "exceeds the int64 range"),
    (["sample", "randmax", "--family", "degenerate", "--theta", "1e-300"], "exceeds the int64 range"),
    (["verify", "lemma12", "--family", "degenerate", "--theta", "1e-300"], "exceeds the int64 range"),
    (["sample", "mixer", "--family", "mittag-leffler", "--nu", "1e-16", "--n", "5"],
     "lies beyond the float range"),
    (["verify", "thm32", "--family", "mittag-leffler", "--nu", "0.01", "--n", "2000"],
     "lies beyond the float range"),
    (["verify", "thm32", "--marginal", "frechet:1e300", "--n", "200"], V_BASE),
    (["verify", "thm32", "--marginal", "reverse-weibull:1e300", "--n", "200"], V_BASE),
    (["verify", "thm32", "--marginal", "frechet:600"], V_BASE),
    (["verify", "thm24", "--family", "mittag-leffler", "--nu", "0.01"],
     "count index n^(-1/nu) at n = 10000, nu = 0.01 lies beyond the float range"),
    (["verify", "thm34", "--family", "mittag-leffler", "--nu", "0.01", "--m", "200"],
     "count index n^(-1/nu) at n = 10000, nu = 0.01 lies beyond the float range"),
    (["verify", "thm24", "--ns", "1" + "0" * 308], "count index 1/n at n = 1e+308 lies beyond"),
    (["verify", "thm34", "--n", "1" + "0" * 308, "--m", "200"],
     "count index 1/n at n = 1e+308 lies beyond"),
    (["verify", "definetti", "--triple", "pareto:600"], V600),
    (["verify", "thm24", "--triple", "pareto:600"], V600),
    (["verify", "definetti", "--triple", "pareto:600", "--family", "mittag-leffler", "--nu", "0.5"],
     V600),
    (["verify", "lemma12", "--family", "mittag-leffler"], "requires --nu in (0, 1)"),
])
def test_inadmissible_parameter_exits_two(tmp_path, capsys, argv, message):
    code, out = run(argv + ["--seed", "1"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


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


def test_adversarial_flag_sweep(tmp_path, capsys):
    problems = []
    for index, argv in enumerate(sweep_cases()):
        out = tmp_path / str(index)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv + ["--out", str(out)])
            except Exception as exc:
                problems.append((argv, f"raised {exc!r}"))
                continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2):
            problems.append((argv, f"exit {code}"))
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
    assert not problems, "\n".join(f"{' '.join(argv)}: {what}" for argv, what in problems)
