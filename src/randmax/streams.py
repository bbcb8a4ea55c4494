"""Seeded, splittable random streams.

Every randomized operation in the package is driven by a 64-bit seed.
Monte Carlo work splits the seed into independent substreams with a
counter-based rule: chunk ``i`` of a run keyed by ``seed`` uses a Philox
generator whose 256-bit counter starts at ``i * 2**128``.  Chunk sizes are
fixed constants, so the produced numbers depend only on the seed.  Every
chunk runs on the calling thread, in order.
"""

import numpy as np

from .errors import ConfigurationError

# Fixed chunk sizes (draws per substream).  These are part of the
# reproducibility contract: changing them changes the stream assignment.
CHUNK_DRAWS = 10_000
CHUNK_PATHS = 100
# Path chunks go to a builder in runs of GROUP_CHUNKS, which the jump chain
# advances together: enough to spread numpy's per-call cost over 1600 paths,
# few enough that its working arrays stay small beside its output.  The
# output does not depend on it.
GROUP_CHUNKS = 16


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


def open_uniform(rng, size):
    """``size`` uniforms on the open interval (0, 1).

    ``rng.random`` draws from the grid k * 2**-53, k < 2**53; its one value
    0 moves to 2**-54 and every other draw is returned unchanged.
    """
    return np.maximum(rng.random(size), 2.0**-54)


def _spans(n, chunk, what):
    """``(substream index, start, length)`` of each fixed-size chunk of ``n`` items."""
    if n <= 0:
        raise ConfigurationError(f"{what} must be positive, got {n}")
    return [(index, start, min(chunk, n - start)) for index, start in enumerate(range(0, n, chunk))]


def chunked_draws(seed, n, draw):
    """Assemble ``n`` draws from substream chunks of ``CHUNK_DRAWS``, in place.

    ``draw(rng, m)`` must return an array whose leading axis has length ``m``.
    Chunk 0 sets the dtype and trailing shape of the output, which is
    allocated once; every chunk writes its own slice, so the memory held is
    the output plus one chunk.
    """
    out = None
    for index, start, m in _spans(n, CHUNK_DRAWS, "sample size"):
        part = draw(substream(seed, index), m)
        if out is None:
            out = np.empty((n,) + part.shape[1:], dtype=part.dtype, order="F")
        out[start:start + m] = part
    return out


def chunked_list(seed, n, build):
    """``[build(rngs, sizes) for each run of GROUP_CHUNKS consecutive chunks]``, in order.

    The ``n`` items are cut into chunks of ``CHUNK_PATHS`` as in ``chunked_draws``;
    chunk ``j`` of a run holds ``sizes[j]`` items and reads ``rngs[j]``, its
    own substream.
    """
    spans = _spans(n, CHUNK_PATHS, "count")
    runs = [spans[start:start + GROUP_CHUNKS] for start in range(0, len(spans), GROUP_CHUNKS)]
    return [
        build([substream(seed, index) for index, _, _ in run], [m for _, _, m in run])
        for run in runs
    ]
