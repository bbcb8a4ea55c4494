"""Seeded, splittable random streams.

Every randomized operation in the package is driven by a 64-bit seed.
Monte Carlo work splits the seed into independent substreams with numpy's
jump rule: chunk ``i`` of a run keyed by ``seed`` uses the PCG64DXSM
generator (O'Neill 2014) seeded by ``seed`` and advanced ``i * JUMP``
steps, ``PCG64DXSM(seed).jumped(i)``.  ``JUMP`` is the golden-ratio share of
the 2**128 period, so chunks ``i`` and ``j`` start at least
``0.38 * 2**128 / |i - j|`` steps apart, and no chunk draws anywhere near
2**64 values: the chunks never overlap.  (A jump by a power of two would
leave the low 64 state bits of every chunk identical.)  A chunk holds
``CHUNK_DRAWS`` (10 000) draws or ``CHUNK_PATHS`` (1600) paths, so the
produced numbers depend only on the seed.  Every chunk runs on the calling
thread, in order, on one bit generator that is reset and advanced per
chunk.  Only this module builds generators, and only ``open_exponential``
calls numpy's exponential sampler; the geometric mixer draws its unit
exponential by inverting ``open_uniform`` instead.
"""

import numpy as np

from .errors import ConfigurationError

# Fixed chunk sizes (items per substream).  These are part of the
# reproducibility contract: changing them changes the stream assignment.  A
# path chunk spreads numpy's per-call cost of a jump index over many paths,
# and keeps the chain's working arrays small beside its output.
CHUNK_DRAWS = 10_000
CHUNK_PATHS = 1600

# numpy's PCG64DXSM.jumped step: (phi - 1) * 2**128 rounded to the nearest odd integer
JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


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
    return np.random.Generator(np.random.PCG64DXSM(seed).jumped(index))


def open_uniform(rng, size):
    """``size`` uniforms on the open interval (0, 1).

    ``rng.random`` draws from the grid k * 2**-53, k < 2**53; its one value
    0 moves to 2**-54 and every other draw is returned unchanged.
    """
    return np.maximum(rng.random(size), 2.0**-54)


def open_exponential(rng, size):
    """``size`` unit exponentials, all positive.

    numpy's ziggurat returns 0 when its 53-bit integer is 0; that one value
    moves to 2**-64, below the least nonzero draw (about 7e-18), and every
    other draw is returned unchanged.
    """
    return np.maximum(rng.standard_exponential(size), 2.0**-64)


def _chunks(seed, n, size, what):
    """``(start, rng, m)`` of each chunk of ``size`` of ``n`` items; chunk ``i`` reads substream ``i``.

    Every chunk gets the same generator, its state set to substream ``i``'s,
    since a state reset and an advance cost a small part of building a new
    bit generator.  The generator is valid until the next chunk is taken.
    """
    if n <= 0:
        raise ConfigurationError(f"{what} must be positive, got {n}")
    bits = np.random.PCG64DXSM(check_seed(seed))
    origin = bits.state
    rng = np.random.Generator(bits)
    for index, start in enumerate(range(0, n, size)):
        bits.state = origin
        bits.advance(index * JUMP)
        yield start, rng, min(size, n - start)


def chunked_draws(seed, n, draw):
    """Assemble ``n`` draws from substream chunks of ``CHUNK_DRAWS``, in place.

    ``draw(rng, m)`` must return an array whose leading axis has length ``m``.
    Chunk 0 sets the dtype and trailing shape of the output, which is
    allocated once; every chunk writes its own slice, so the memory held is
    the output plus one chunk.
    """
    out = None
    for start, rng, m in _chunks(seed, n, CHUNK_DRAWS, "sample size"):
        part = draw(rng, m)
        if out is None:
            out = np.empty((n,) + part.shape[1:], dtype=part.dtype, order="F")
        out[start:start + m] = part
    return out


def chunked_list(seed, n, build):
    """``[build(rng, m) for each chunk of CHUNK_PATHS]``, in order; the last chunk holds the rest."""
    return [build(rng, m) for _, rng, m in _chunks(seed, n, CHUNK_PATHS, "path count")]
