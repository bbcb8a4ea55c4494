import os
import threading
import time

import numpy as np
import pytest

from randmax import CountScheme, Geometric, Pareto, UnitExponential, chunked_draws, substream
from randmax.nmid_compose import sample_random_max
from randmax.streams import CHUNK_DRAWS


def test_chunk_workers_capped_by_cpu_count():
    idents = set()

    def draw(rng, m):
        idents.add(threading.get_ident())
        time.sleep(0.005)  # keep each chunk busy so an uncapped pool starts more threads
        return rng.random(m)

    wide = chunked_draws(7, 64, draw, threads=64, chunk=1)
    assert len(idents) <= (os.cpu_count() or 1)
    narrow = chunked_draws(7, 64, lambda rng, m: rng.random(m), threads=1, chunk=1)
    assert wide.tobytes() == narrow.tobytes()


@pytest.mark.parametrize("draw", [
    lambda rng, m: rng.random(m),
    lambda rng, m: sample_random_max(CountScheme(Geometric(), 0.1),
                                     (Pareto(1.0), UnitExponential()), rng, m),
    CountScheme(Geometric(), 0.01).sample,
], ids=["float", "tuple-base", "int64-counts"])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_chunks_fill_one_output_in_place(draw, threads):
    n = 2 * CHUNK_DRAWS + 123
    spans = range(0, n, CHUNK_DRAWS)
    expected = np.concatenate(
        [draw(substream(5, index), min(CHUNK_DRAWS, n - start)) for index, start in enumerate(spans)]
    )
    got = chunked_draws(5, n, draw, threads=threads)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
