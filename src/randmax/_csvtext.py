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
_ZEROS = 0x3030303030303030  # "00000000"
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


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
    """Per E, the scales of q(E) and q(E) + 1 (rows c_hh, c_hl, c_lo), their X - _X_MIN, and ``threshold``.

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
    return (
        np.stack([c_hh, c_hi - c_hh, c_lo]),
        (k + k_min).ravel() + 16 - _X_MIN,
        np.array(threshold, dtype=np.float64),  # integers up to 2^53, exact
    )


@functools.cache
def _layouts():
    """Per decimal exponent X, its layout class and its ``e+dd`` word; per layout, three masks.

    A float cell is four words, 32 bytes: "0000000", the 17 digits, and at
    bytes 25-31 the exponent text, if any.  Its layout is set by the class of
    X (-4 <= X <= 16 prints X + 4 in fixed notation, 21 stands for e-notation),
    the sign and the count p of digits printed, so row ``(class * 2 + sign) * 17
    + p - 1`` of each mask: the bytes kept in place, the bytes taken from the
    cell shifted up by one (after the dot), and the bytes written over them
    (the dot, the sign, and 0xFF for every byte not printed).
    """
    xs = np.arange(_X_MIN, _X_MAX + 1)
    # bytes 0..6 of a float cell's last word before the shift: "e+dd" or "e-ddd", or nothing
    exponent = [(b"e%+03d" % x if x < -4 or x > 16 else b"").ljust(7, b"\xff") for x in xs]
    cls, sign, p = (a.ravel() for a in np.meshgrid(range(22), range(2), range(1, 18), indexing="ij"))
    x = np.where(cls < 21, cls - 4, 0)  # e-notation lays out one digit before the dot, as X = 0
    zeros = np.maximum(-x, 0)  # the zeros of 0.000ddd, its leading 0 included
    begin = 7 - zeros  # the first printed digit, or the 0 of 0.000ddd
    dot = begin + np.maximum(x, 0) + 1  # the byte of the dot
    stop = np.maximum(begin + zeros + p, dot)
    stop += stop > dot  # the printed bytes end here
    b = np.arange(32)[:, None]
    fill = np.where((b < begin - sign) | (b >= stop) & (b < 25), 0xFF, 0)
    fill[(b == dot) & (dot < stop)] = ord(".")
    fill[(b == begin - 1) & (sign == 1)] = ord("-")
    in_place = (b >= begin) & (b < np.minimum(dot, stop))
    after_dot = (b > dot) & (b < stop) | (b > 24)
    return (
        np.where((xs >= -4) & (xs <= 16), xs + 4, 21),
        np.array([int.from_bytes(word, "little") for word in exponent], dtype=np.int64),
        _mask_words(in_place * 0xFF, after_dot * 0xFF, fill),
    )


def _mask_words(*masks):
    """Tables of bytes, each (bytes, layouts), as little-endian words: (tables, words, layouts)."""
    masks = np.stack(masks).astype(np.uint8).transpose(0, 2, 1)
    return np.ascontiguousarray(masks).view("<u8").transpose(0, 2, 1).copy()


def _digits(a):
    """``(D, X - _X_MIN, tie)`` for finite positive float64 ``a``: ``a ~ D 10^(X-16)``, 10^16 <= D < 10^17.

    D is ``a`` rounded to 17 significant digits unless ``tie`` is set.  With
    c = c_hi + c_lo, ``p + err = M c_hi`` exactly (Dekker's product on 26-bit
    halves), and r = err + M c_lo is the rest of y = M c.  |err| <= 8 and
    |M c_lo| <= 12, so r's two roundings and c's own error of 2^-106 c each
    shift it by at most 2^-49: the fraction of y is r - floor(r) to within
    3 * 2^-49, and p, a multiple of 2 above 2^53, is y's integer part less
    floor(r).
    """
    scales, exponent, threshold = _tables()
    m, e = np.frexp(a)
    M = m * 9007199254740992.0  # 2^53
    row = e - (53 + _E_MIN)
    pick = 2 * row + (M >= np.take(threshold, row))
    hh, hl, lo = np.take(scales, pick, axis=1)
    t = M * _SPLIT
    mh = t - (t - M)
    ml = M - mh
    p = M * (hh + hl)
    r = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + M * lo
    whole = np.floor(r)
    frac = r - whole
    D = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = D == 10**17  # 99999999999999999.5 and above round up to the next decade
    D[carry] = 10**16
    return D, np.take(exponent, pick) + carry, np.abs(frac - 0.5) < _TIE_BAND


def _ascii8(v):
    """Each int64 ``0 <= v < 10^8`` as 8 decimal digits: an int64 of ASCII bytes in reading order.

    The digits are split SIMD-within-a-register: into 4-digit halves in the two
    32-bit lanes, then 2-digit quarters, then single digits, each division by
    10^4, 100 or 10 an exact multiply and shift (within its lane).
    """
    hi = v * 109951163 >> 40  # v // 10^4, exact below 10^8
    x = hi | (v - hi * 10_000) << 32
    h = (x * 10486 >> 20) & 0x0000007F0000007F
    x = h | (x - h * 100) << 16
    h = (x * 103 >> 10) & 0x000F000F000F000F
    return (h | (x - h * 10) << 8) + _ZEROS


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
    """Four words a row: "0000000", 17 digits and the exponent text, laid out as ``%.17g``.

    The digits of D start at byte 7, after seven "0"s: the zeros of 0.000ddd
    are those just before it, and the sign is the byte before them.  The
    masks of the row's layout keep the bytes before the dot in place, take
    those after it from the cell shifted up one byte, and write the dot, the
    sign and 0xFF over the rest.
    """
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN warns as it widens
        x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    regular = np.isfinite(a) & (a != 0)
    D, xi, tie = _digits(np.where(regular, a, 1.0))
    layout, exponent, masks = _layouts()
    head = D // 10**8  # the first 9 digits
    top = head // 10**8
    words = np.empty((4, len(x)), dtype=np.int64)
    words[0] = top << 56 | _ZEROS
    words[1:3] = _ascii8(np.stack([head - top * 10**8, D - head * 10**8]))
    words[3] = np.take(exponent, xi)
    # the last nonzero byte of each digit word, -1 for none: less "0"s, every byte is at most 9,
    # so the word's float keeps its bit length
    last = (np.frexp((words[1:3] ^ _ZEROS).astype(np.float64))[1] - 1) // 8
    printed = np.where(last[1] >= 0, 10 + last[1], 2 + last[0])  # digits of D, 1 to 17
    row = (np.take(layout, xi) * 2 + np.signbit(x)) * 17 + printed - 1
    in_place, after_dot, fill = np.take(masks, row, axis=2)
    words = words.view(np.uint64)
    shifted = words << np.uint64(8)
    shifted[1:] |= words[:-1] >> np.uint64(56)
    words &= in_place
    shifted &= after_dot
    words |= shifted
    cells = np.empty((len(x), 4), dtype="<u8")
    np.bitwise_or(words, fill, out=cells.T)
    _fall_back(x, np.flatnonzero(~regular | tie), cells)
    return cells


@functools.cache
def _int_layouts(width):
    """Per length (the sign included) and sign, row ``2 * length + sign``: the masks of an integer cell.

    The digits end at byte ``8 width - 2``: the bytes kept in place, and the
    bytes written over them (the sign, and 0xFF for every byte not printed).
    """
    length, sign = (a.ravel() for a in np.meshgrid(range(21), range(2), indexing="ij"))
    start, stop = 8 * width - 1 - length, 8 * width - 1
    b = np.arange(8 * width)[:, None]
    fill = np.where((b < start) | (b >= stop), 0xFF, 0)
    fill[(b == start) & (sign == 1)] = ord("-")
    return _mask_words(((b >= start + sign) & (b < stop)) * 0xFF, fill)


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
    rest = u // 10**7
    high = rest // 10**8
    words = _ascii8(np.stack([high, rest - high * 10**8, u - rest * 10**7][3 - width:]))
    words[-1] >>= 8  # "0ddddddd" to the 7 digits at bytes 0-6
    in_place, fill = np.take(_int_layouts(width), 2 * length + (w < 0), axis=2)
    words = words.view(np.uint64)
    words &= in_place
    cells = np.empty((len(v), width), dtype="<u8")
    np.bitwise_or(words, fill, out=cells.T)
    _fall_back(v, np.flatnonzero(beyond), cells)
    return cells


def _cells(column):
    """The cells of a column: an (n, words) array, each cell's last byte left free."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return _float_cells(column)
    if kind in ("i", "u"):
        return _int_cells(column)
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
