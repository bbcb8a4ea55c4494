"""Memory ceilings: each Monte Carlo path holds its output plus a fixed working block.

Peaks are measured with ``tracemalloc`` (numpy reports its buffers to it) and
count only what a call allocates beyond its prebuilt inputs.  The 10^6-draw
cases are sized like the KS checks of ``verify thm32`` and ``verify lemma12``;
their one-shot forms peaked at 16 to 83 MB.
"""

import tracemalloc

import numpy as np
import pytest

from randmax import (
    Frechet,
    Geometric,
    MaxStableLaw,
    NMaxStableLaw,
    chunked_draws,
    ks_distance,
    mixture_cdf,
    run_lemma12,
    run_thm32,
    simulate_path_columns,
    substream,
    univariate,
)
from randmax.cli import emit_csv
from randmax.verify_harness import Table

MB = 1e6
LAW = NMaxStableLaw(Geometric(), univariate(Frechet(1.0)))


def peak_mb(call):
    """Peak memory, in MB, that ``call()`` allocates beyond what is live when it starts."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / MB
    finally:
        if started:
            tracemalloc.stop()


def test_mixture_cdf_memory():
    x = np.exp(substream(0).uniform(np.log(1e-3), np.log(1e3), 20_000))
    mixture_cdf(LAW, x[:10])  # build the cached quadrature rule outside the measurement
    assert peak_mb(lambda: mixture_cdf(LAW, x)) < 8


def test_ks_distance_memory():
    sample = np.sort(substream(1).random(1_000_000))
    assert peak_mb(lambda: ks_distance(sample, lambda u: u)) < 8


def test_thm32_memory():
    law = univariate(Frechet(1.0))
    run_thm32(Geometric(), law, 1_000, 3)  # warm caches outside the measurement
    assert peak_mb(lambda: run_thm32(Geometric(), law, 1_000_000, 3)) < 20


@pytest.mark.parametrize("dependence", ["independence", "complete"])
def test_thm32_bivariate_memory(dependence):
    # draws are stored column-major, so sorting and searching a coordinate copies nothing
    law = MaxStableLaw((Frechet(1.0), Frechet(1.0)), dependence=dependence)
    run_thm32(Geometric(), law, 1_000, 3)
    assert peak_mb(lambda: run_thm32(Geometric(), law, 1_000_000, 3)) < 21


def test_chunked_draws_memory():
    assert peak_mb(lambda: chunked_draws(3, 1_000_000, lambda rng, m: rng.random(m))) < 11


def test_lemma12_memory():
    run_lemma12(Geometric(), 0.001, 1_000, 3)
    assert peak_mb(lambda: run_lemma12(Geometric(), 0.001, 1_000_000, 3)) < 12


def test_emit_csv_memory(tmp_path):
    # one block of rows at a time: 1.7 MB at 4096-row blocks, 6.9 MB at 16384
    n = 200_000
    rng = substream(4)
    table = Table("t", ("i", "x", "y"), (np.arange(n), rng.random(n), 1.0 / rng.random(n)))
    emit_csv(Table("t", ("x",), (table.data[1][:10],)), tmp_path / "warm.csv")  # digit tables
    assert peak_mb(lambda: emit_csv(table, tmp_path / "t.csv")) < 3


def test_path_columns_memory():
    # the chain advances one CHUNK_PATHS chunk at a time: 31.8 MB, as the 100-path chunk chain's
    # 32.3 MB; all 100 000 paths at once peak at 89 MB
    simulate_path_columns(univariate(Frechet(1.0)), 1.0, 1_000, 3)
    assert peak_mb(lambda: simulate_path_columns(univariate(Frechet(1.0)), 1.0, 100_000, 3)) < 33
