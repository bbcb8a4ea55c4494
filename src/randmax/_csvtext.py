"""CSV text of column blocks, formatted in numpy with the bytes of ``format_value``.

``format_value`` renders one cell: floats as ``"%.17g"``, integers in full,
booleans as ``true``/``false``.  ``csv_rows`` renders a block of equal-length
columns at once.  A cell is a run of little-endian uint64 words (byte k of a
word at bits 8k), as many in every row of a column's block, that holds every
character the cell might print; a byte the row leaves out is set to 0xFF,
which no UTF-8 text contains, and the row text is the block's bytes with
every 0xFF deleted.

Float digits come from an exact scaling by a power of ten (Gay 1990; Adams
2019): ``|x| = M 2^E`` with an integer ``M < 2^53`` is multiplied by
``c(E) = 2^E 10^-q`` held as a double-double, which gives the 17-digit
integer ``D = round(|x| 10^-q)`` and the decimal exponent ``q + 16``.  Cells
this arithmetic cannot settle (possible decimal ties, zeros, infinities, NaN,
integers beyond int64) and columns of any other type are formatted by
``format_value`` itself.
"""

import bisect
import functools

import numpy as np

# frexp exponents less 53, so |x| = M 2^E with 2^52 <= M < 2^53; subnormals included
_E_MIN, _E_MAX = -1126, 971
_X_MIN, _X_MAX = -324, 308  # decimal exponents of the finite nonzero doubles
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's factor for 26-bit halves
# The computed fraction of y = M c(E) is within 3 * 2^-49 of the exact one (see
# _digits); one closer than _TIE_BAND to 1/2 may be a decimal tie, whose
# round-half-even digits only format_value gets right.
_TIE_BAND = 2.0**-44
_INT64 = np.iinfo(np.int64)
_ZEROS = np.uint64(0x3030303030303030)  # "00000000"
_LOW = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)  # the low b bytes of a word
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
_TRUE, _FALSE = (int.from_bytes(text.ljust(8, b"\xff"), "little") for text in (b"true", b"false"))
# A dot inserted at byte c of a word, from c = -1 (the dot lies in an earlier
# word) to c = 8 (a later one): the bytes kept in place, the dot, and the bytes
# taken from the word shifted up by one byte, indexed by c + 1.
_IN_PLACE = np.array([0, *_LOW[:8].tolist(), 2**64 - 1], dtype=np.uint64)
_DOT = np.array([0, *(0x2E << 8 * c for c in range(8)), 0], dtype=np.uint64)
_SHIFTED = np.array([2**64 - 1, *(2**64 - 1 ^ int(m) for m in _LOW[1:]), 0], dtype=np.uint64)


def format_value(value):
    """Render a cell: floats carry 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


@functools.cache
def _tables():
    """Per E, the scales of q(E) and q(E) + 1; per decimal exponent, its ``e+dd`` word.

    Built on first use, from integer arithmetic, so importing costs nothing.
    q(E) = floor(log10 2^(52+E)) - 16 puts every y = M c(E) in [10^16, 2 10^17);
    ``threshold[E]``, the least M with M 2^E >= 10^(q+17), marks where the
    scale of q + 1 takes over and y falls back into [10^16, 10^17).
    """
    p10 = [10**k for k in range(360)]
    exps = range(_E_MIN, _E_MAX + 1)
    # floor(log10 2^k) - 16, found among the powers of ten
    q = [(bisect.bisect_right(p10, 1 << k) - 1 if k >= 0 else -bisect.bisect_left(p10, 1 << -k))
         - 16 for k in range(52 + _E_MIN, 53 + _E_MAX)]
    threshold = []
    for e, qe in zip(exps, q):
        num, den = (p10[qe + 17], 1) if qe >= -17 else (1, p10[-qe - 17])
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        threshold.append(min(-(-num // den), 1 << 53))
    # 10^-k as (hi + lo) 2^-shift with hi in [1/2, 2), each of hi and lo correctly rounded
    k_min = min(q)
    hi, lo, shift = [], [], []
    for k in range(k_min, max(q) + 2):
        num, den = (p10[-k], 1) if k <= 0 else (1, p10[k])
        b = den.bit_length() - num.bit_length()
        num, den = (num << b, den) if b >= 0 else (num, den << -b)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
        shift.append(b)
    q = np.array(q)
    k = np.stack([q, q + 1], axis=1) - k_min  # row E: the scales of q(E) and q(E) + 1
    scale = np.arange(_E_MIN, _E_MAX + 1)[:, None] - np.array(shift)[k]
    c_hi = np.ldexp(np.array(hi)[k], scale).ravel()
    c_lo = np.ldexp(np.array(lo)[k], scale).ravel()
    t = c_hi * _SPLIT
    c_hh = t - (t - c_hi)
    # bytes 1..5 of a float cell's last word: "e+dd" or "e-ddd", or nothing for -4 <= X <= 16
    exponent = [b"\xff" + (b"" if -4 <= x <= 16 else b"e%+03d" % x).ljust(7, b"\xff")
                for x in range(_X_MIN, _X_MAX + 1)]
    return (
        (c_hh, c_hi - c_hh, c_lo, (k + k_min).ravel() + 16),
        np.array(threshold, dtype=np.int64),
        np.array([int.from_bytes(word, "little") for word in exponent], dtype=np.uint64),
    )


def _digits(a):
    """``(D, X, tie)`` for finite positive float64 ``a``: ``a ~ D 10^(X-16)``, 10^16 <= D < 10^17.

    D is ``a`` rounded to 17 significant digits unless ``tie`` is set.  With
    c = c_hi + c_lo, ``p + err = M c_hi`` exactly (Dekker's product on 26-bit
    halves), and r = err + M c_lo is the rest of y = M c.  |err| <= 8 and
    |M c_lo| <= 12, so r's two roundings and c's own error of 2^-106 c each
    shift it by at most 2^-49: the fraction of y is r - floor(r) to within
    3 * 2^-49, and p, a multiple of 2 above 2^53, is y's integer part less
    floor(r).
    """
    (c_hh, c_hl, c_lo, exponent), threshold, _ = _tables()
    m, e = np.frexp(a)
    M = m * 9007199254740992.0  # 2^53
    row = e - (53 + _E_MIN)
    pick = 2 * row + (M.astype(np.int64) >= threshold[row])
    hh, hl, lo = c_hh[pick], c_hl[pick], c_lo[pick]
    t = M * _SPLIT
    mh = t - (t - M)
    ml = M - mh
    p = M * (hh + hl)
    r = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + M * lo
    whole = np.floor(r)
    frac = r - whole
    D = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    X = exponent[pick]
    carry = D == 10**17  # 99999999999999999.5 and above round up to the next decade
    D[carry] = 10**16
    return D, X + carry, np.abs(frac - 0.5) < _TIE_BAND


def _ascii8(v):
    """Each integer ``0 <= v < 10^8`` as 8 decimal digits: a uint64 of ASCII bytes in reading order.

    The digits are split SIMD-within-a-register: into 4-digit halves in the two
    32-bit lanes, then 2-digit quarters, then single digits, each division by
    100 or 10 an exact multiply and shift within its lane.
    """
    hi, lo = np.divmod(v.astype(np.uint64), np.uint64(10_000))
    x = hi | lo << np.uint64(32)
    h = (x * np.uint64(10486) >> np.uint64(20)) & np.uint64(0x0000007F0000007F)
    x = h | (x - h * np.uint64(100)) << np.uint64(16)
    h = (x * np.uint64(103) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)
    return (h | (x - h * np.uint64(10)) << np.uint64(8)) + _ZEROS


def _kept(words, start, stop):
    """``words`` (a row per word of a cell), the cell's bytes outside [start, stop) set to 0xFF."""
    first = 8 * np.arange(len(words))[:, None]
    return words | ~(_LOW[np.clip(stop - first, 0, 8)] & ~_LOW[np.clip(start - first, 0, 8)])


def _put_texts(cells, rows, texts):
    """Write UTF-8 ``texts`` at the front of the cells of ``rows``, padded with 0xFF."""
    width = 8 * cells.shape[1]
    cells.view(np.uint8)[rows] = np.frombuffer(
        b"".join(text.ljust(width, b"\xff") for text in texts), dtype=np.uint8
    ).reshape(-1, width)


def _fall_back(values, rows, cells):
    """Write ``format_value`` of ``values[rows]`` into those rows' cells."""
    if len(rows):
        _put_texts(cells, rows, [format_value(values[i]).encode("utf-8") for i in rows])


def _float_cells(x):
    """Four words a row: [pad] [-] [0000] 17 digits with a dot inserted, [e+dd(d)].

    The digits of D start at byte 7, after seven "0"s: the zeros of 0.000ddd
    are those just before it, and the sign is the byte before them.  The bytes
    from the dot on move up one byte.  Only what ``%.17g`` prints is kept.
    """
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN warns as it widens
        x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    regular = np.isfinite(a) & (a != 0)
    D, X, tie = _digits(np.where(regular, a, 1.0))
    top, rest = np.divmod(D, 10**16)
    fixed = (X >= -4) & (X <= 16)
    zeros = np.where(fixed & (X < 0), -X, 0)
    begin = 7 - zeros  # the first printed digit, or the 0 of 0.000ddd
    cells = np.empty((len(x), 4), dtype="<u8")
    words = np.empty((3, len(x)), dtype=np.uint64)
    words[0] = _ZEROS + (top.astype(np.uint64) << np.uint64(56))
    words[0] -= np.uint64(3) << (8 * (6 - zeros)).astype(np.uint64)  # "0" to "-" at the sign's byte
    words[1:] = _ascii8(np.stack(np.divmod(rest, 10**8)))
    # the last nonzero byte of each digit word, -1 for none: less "0"s, every byte is at most 9,
    # so the word's float keeps its bit length
    last = (np.frexp((words[1:] ^ _ZEROS).astype(np.float64))[1] - 1) // 8
    printed = np.where(last[1] >= 0, 10 + last[1], 2 + last[0]) + zeros  # the zeros of 0.000 too
    dot = np.where(fixed & (X > 0), X + 1, 1)  # digits before the dot
    stop = begin + np.maximum(printed, dot) + (printed > dot)
    # byte 24 takes the last digit when all 17 follow a dot; the exponent comes after it
    last_digit = words[2] >> np.uint64(56) | ~np.uint64(0xFF) | (stop < 25) * np.uint64(0xFF)
    cells[:, 3] = last_digit & _tables()[2][X - _X_MIN]
    shifted = words << np.uint64(8)
    shifted[1:] |= words[:-1] >> np.uint64(56)
    c = np.clip(begin + dot - 8 * np.arange(3)[:, None], -1, 8) + 1
    words = (words & _IN_PLACE[c]) | _DOT[c] | (shifted & _SHIFTED[c])
    words = _kept(words, begin - np.signbit(x), stop)
    cells[:, :3] = words.T
    _fall_back(x, np.flatnonzero(~regular | tie), cells)
    return cells


def _int_cells(v):
    """The fewest words a row that hold the block's longest number and a separator.

    The digits end at the cell's next to last byte, the sign just before them:
    the last word takes the lowest 7 digits, each word before it 8 more.
    """
    beyond = v > _INT64.max if v.dtype == np.uint64 else v == _INT64.min
    w = np.where(beyond, 0, v).astype(np.int64)
    u = np.abs(w)
    length = np.searchsorted(_POW10, u, side="right") + 1 + (w < 0)
    # the texts beyond int64 that format_value writes are at most 20 bytes long
    width = max(int(length.max(initial=0)), 20 * bool(beyond.any())) // 8 + 1
    rest, low = np.divmod(u, 10**7)
    words = _ascii8(np.stack([*np.divmod(rest, 10**8), low][3 - width:]))
    words[-1] >>= np.uint64(8)  # "0ddddddd" to the 7 digits at bytes 0-6
    stop = 8 * width - 1
    words = _kept(words, stop - length, stop)
    neg = np.flatnonzero(w < 0)
    at = stop - length[neg]  # the sign's byte, a leading "0" until now
    words[at // 8, neg] -= np.uint64(0x30 - 0x2D) << (8 * (at % 8)).astype(np.uint64)
    cells = np.ascontiguousarray(words.T)
    _fall_back(v, np.flatnonzero(beyond), cells)
    return cells


def _cells(column):
    """The cells of a column: an (n, words) array, each cell's last byte left free."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return _float_cells(column)
    if kind in ("i", "u"):
        return _int_cells(column)
    if kind == "b":
        return np.where(column, _TRUE, _FALSE).astype("<u8")[:, None]
    texts = [format_value(v).encode("utf-8") for v in column]
    cells = np.empty((len(texts), max(map(len, texts), default=0) // 8 + 1), dtype="<u8")
    _put_texts(cells, slice(None), texts)
    return cells


def csv_rows(columns):
    """The CSV lines of equal-length columns in UTF-8, each cell as ``format_value`` renders it."""
    cells = [_cells(column) for column in columns]
    block = np.concatenate(cells, axis=1)
    ends = 8 * np.cumsum([c.shape[1] for c in cells]) - 1  # the free last byte of each cell
    block.view(np.uint8)[:, ends] = ord(",")
    block.view(np.uint8)[:, ends[-1]] = ord("\n")
    return block.tobytes().translate(None, b"\xff")
