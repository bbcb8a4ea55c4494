import ast
from pathlib import Path

import numpy as np
import pytest

import randmax
from randmax import (
    ConfigurationError,
    CountScheme,
    Geometric,
    Pareto,
    UnitExponential,
    chunked_draws,
    substream,
)
from randmax import streams
from randmax.nmid_compose import sample_random_max
from randmax.streams import CHUNK_DRAWS, CHUNK_PATHS, chunked_list


@pytest.mark.parametrize("draw", [
    lambda rng, m: rng.random(m),
    lambda rng, m: sample_random_max(CountScheme(Geometric(), 0.1),
                                     (Pareto(1.0), UnitExponential()), rng, m),
    CountScheme(Geometric(), 0.01).sample,
], ids=["float", "tuple-base", "int64-counts"])
@pytest.mark.parametrize("chunks", [1, 2, 3])
def test_chunks_fill_one_output_in_place(draw, chunks):
    n = (chunks - 1) * CHUNK_DRAWS + 123  # the last chunk is partial
    spans = range(0, n, CHUNK_DRAWS)
    expected = np.concatenate(
        [draw(substream(5, index), min(CHUNK_DRAWS, n - start)) for index, start in enumerate(spans)]
    )
    got = chunked_draws(5, n, draw)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_negative_substream_index_is_refused():
    with pytest.raises(ConfigurationError, match="substream index must be nonnegative, got -1"):
        substream(5, -1)


def _stream_bytes(rng):
    # uniforms, 32-bit integers (which buffer half a 64-bit word) and ziggurat exponentials
    return (rng.random(5).tobytes() + rng.integers(0, 2**32, 3, dtype=np.uint32).tobytes()
            + rng.standard_exponential(5).tobytes())


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_chunk_generators_follow_numpys_jump_rule(monkeypatch, seed):
    # chunk i reads the PCG64DXSM stream of the seed jumped i times, as substream(seed, i) does;
    # a fake enumerate hands the chunk loop the index 2^40, where i * JUMP wraps past 2^128
    indices = [0, 1, 2, 2**40]
    monkeypatch.setattr(streams, "enumerate", lambda it: zip(indices, it), raising=False)
    for index, (_, rng, _) in zip(indices, streams._chunks(seed, 4, 1, "draws")):
        reference = _stream_bytes(np.random.Generator(np.random.PCG64DXSM(seed).jumped(index)))
        assert _stream_bytes(rng) == reference, index
        assert _stream_bytes(substream(seed, index)) == reference, index


def test_chunked_draws_build_one_bit_generator(monkeypatch):
    built = []

    class Counted(np.random.PCG64DXSM):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64DXSM", Counted)
    chunked_draws(5, 5 * CHUNK_DRAWS, lambda rng, m: rng.random(m))
    assert built == [(5,)]


def test_path_chunks_read_one_substream_each():
    n = 2 * CHUNK_PATHS + 7
    got = chunked_list(5, n, lambda rng, m: (m, rng.random(3)))
    assert [m for m, _ in got] == [CHUNK_PATHS, CHUNK_PATHS, 7]
    for index, (_, draws) in enumerate(got):
        assert draws.tobytes() == substream(5, index).random(3).tobytes()
    for n in (0, -3):
        with pytest.raises(ConfigurationError, match="count must be positive"):
            chunked_list(5, n, lambda rng, m: m)


def test_generators_and_exponentials_come_from_streams_only():
    # a generator built, a substream opened or an exponential drawn elsewhere bypasses the
    # stream contract: the seeded chunks, and open_exponential's move of a 0 draw to 2^-64
    for path in sorted(Path(randmax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "open_exponential":
                inside |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("Philox", "PCG64DXSM", "PCG64", "SFC64", "MT19937", "Generator",
                            "default_rng", "substream"):
                    assert path.name == "streams.py", f"{path.name}:{node.lineno} calls {name}"
                if name in ("exponential", "standard_exponential"):
                    assert path.name == "streams.py" and id(node) in inside, (
                        f"{path.name}:{node.lineno} draws exponentials outside open_exponential"
                    )


def test_float_range_is_decided_in_util_only():
    # _util.in_floats is the one refusal of a value beyond the float range: no module reads the
    # float limits itself, and no computation raises on overflow for a caller to catch
    for path in sorted(Path(randmax.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr == "finfo":
                assert path.name == "_util.py", f"{where} reads np.finfo"
            if isinstance(node, ast.Name):
                assert node.id not in ("FloatingPointError", "OverflowError"), f"{where} {node.id}"
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "errstate":
                values = [a.value for a in node.args] + [k.value for k in node.keywords]
                assert not any(isinstance(v, ast.Constant) and v.value == "raise"
                               for v in values), f"{where} makes numpy raise"
