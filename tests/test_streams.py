import numpy as np
import pytest

from randmax import CountScheme, Geometric, Pareto, UnitExponential, chunked_draws, substream
from randmax.nmid_compose import sample_random_max
from randmax.streams import CHUNK_DRAWS


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
