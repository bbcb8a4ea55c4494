"""Seeded, splittable random streams.

Every randomized operation in the package is driven by a 64-bit seed.
Parallel Monte Carlo splits the seed into independent substreams with a
counter-based rule: chunk ``i`` of a run keyed by ``seed`` uses a Philox
generator whose 256-bit counter starts at ``i * 2**128``.  Chunk sizes are
fixed constants, so the produced numbers depend only on the seed, never on
the number of worker threads.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigurationError

# Fixed chunk sizes (draws per substream).  These are part of the
# reproducibility contract: changing them changes the stream assignment.
CHUNK_DRAWS = 10_000
CHUNK_PATHS = 100


def check_seed(seed):
    """Validate and normalize a 64-bit seed."""
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def substream(seed, index=0):
    """Independent generator for substream ``index`` of the stream keyed by ``seed``."""
    seed = check_seed(seed)
    if index < 0:
        raise ConfigurationError(f"substream index must be nonnegative, got {index}")
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def as_generator(rng):
    """Accept either an integer seed or an existing ``numpy.random.Generator``."""
    if isinstance(rng, np.random.Generator):
        return rng
    return substream(rng, 0)


def open_uniform(rng, size=None):
    """Uniforms on the open interval (0, 1).

    ``rng.random`` draws from the grid k * 2**-53, k < 2**53; its one value
    0 moves to 2**-54 and every other draw is returned unchanged.
    """
    return np.maximum(rng.random(size), 2.0**-54)


def _spans(n, chunk, what):
    """``(substream index, start, length)`` of each fixed-size chunk of ``n`` items."""
    if n <= 0:
        raise ConfigurationError(f"{what} must be positive, got {n}")
    return [(index, start, min(chunk, n - start)) for index, start in enumerate(range(0, n, chunk))]


def _map_chunks(one, spans, threads):
    """``[one(span) for span in spans]``; ``one(spans[0])`` returns before any other call starts.

    At most ``min(threads, len(spans), os.cpu_count())`` worker threads run.
    """
    workers = min(threads, len(spans), os.cpu_count() or 1)
    if workers <= 1:
        return [one(span) for span in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        first = pool.submit(one, spans[0]).result()
        return [first, *pool.map(one, spans[1:])]


def chunked_draws(seed, n, draw, threads=1, chunk=CHUNK_DRAWS):
    """Assemble ``n`` draws from fixed-size substream chunks, in place.

    ``draw(rng, m)`` must return an array whose leading axis has length ``m``.
    Chunk 0 is drawn first and sets the dtype and trailing shape of the
    output, which is allocated once; every chunk writes its own slice, so
    the memory held is the output plus one chunk per worker.  Each chunk
    reads only its own substream, so the result is identical for every
    thread count.
    """
    out = None

    def fill(span):
        nonlocal out
        index, start, m = span
        part = draw(substream(seed, index), m)
        if out is None:  # chunk 0, which no other chunk runs beside
            out = np.empty((n,) + part.shape[1:], dtype=part.dtype)
        out[start:start + m] = part

    _map_chunks(fill, _spans(n, chunk, "sample size"), threads)
    return out


def chunked_list(seed, n, build, threads=1, chunk=CHUNK_PATHS):
    """Like ``chunked_draws`` for builders returning lists of objects."""
    parts = _map_chunks(
        lambda span: build(substream(seed, span[0]), span[2]), _spans(n, chunk, "count"), threads
    )
    return [item for part in parts for item in part]
