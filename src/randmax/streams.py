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


def _map_chunks(seed, n, job, threads, chunk, what):
    """Ordered results of ``job(rng, m)`` over the fixed-size substream chunks of ``n`` items.

    At most ``min(threads, chunks, os.cpu_count())`` worker threads run.
    """
    if n <= 0:
        raise ConfigurationError(f"{what} must be positive, got {n}")
    spans = [(index, min(chunk, n - start)) for index, start in enumerate(range(0, n, chunk))]

    def one(span):
        idx, m = span
        return job(substream(seed, idx), m)

    workers = min(threads, len(spans), os.cpu_count() or 1)
    if workers <= 1:
        return [one(span) for span in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, spans))


def chunked_draws(seed, n, draw, threads=1, chunk=CHUNK_DRAWS):
    """Assemble ``n`` draws from fixed-size substream chunks.

    ``draw(rng, m)`` must return an array whose leading axis has length ``m``.
    Chunks are always assembled in index order, so the result is identical
    for every thread count.
    """
    parts = _map_chunks(seed, n, draw, threads, chunk, "sample size")
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def chunked_list(seed, n, build, threads=1, chunk=CHUNK_PATHS):
    """Like ``chunked_draws`` for builders returning lists of objects."""
    parts = _map_chunks(seed, n, build, threads, chunk, "count")
    return [item for part in parts for item in part]
