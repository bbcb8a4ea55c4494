import math

import numpy as np
import pytest

import randmax.cli
from randmax.cli import emit_csv, main
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

    monkeypatch.setattr(randmax.cli, "sample_random_max_seeded", refuse)
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
])
def test_inadmissible_parameter_exits_two(tmp_path, capsys, argv, message):
    code, out = run(argv + ["--seed", "1"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()
