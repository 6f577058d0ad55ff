"""Bulk number formatting of the emitted tables: numpy word kernels that
write exactly the text CPython's ``%`` writes.

Each kernel spells a block of values into fixed-width slots of little-endian
``'<u8'`` words, with zero bytes as padding, and joins the block by one
boolean compress of its bytes.  A value the kernel cannot certify gets a
``%`` placeholder in its slot instead, and one ``%`` on the block text fills
all of them, so every byte is CPython's:

- :func:`format_csv`, ``%.9g`` (CSV tables),
- :func:`format_json_rows`, ``%r``, that is ``repr`` (JSON tables),
- :func:`format_points`, ``%.3f`` (SVG polyline points).

Only the emitting commands import this module, on first use.
"""

from __future__ import annotations

import numpy as np

# rows formatted per block: bounds each kernel's word buffers and the tuple
# of placeholder values built for one %
BLOCK_ROWS = 4096
# the JSON kernel holds some 25 temporary words per value; blocks of at
# most this many values keep those to about 3 MB, and run as fast as
# larger ones
_JSON_BLOCK_VALUES = 16384

_U8 = np.uint64
_ONES = _U8(0x0101010101010101)
_ZEROS = _U8(0x3030303030303030)  # ASCII "0" in every byte


def _masks(nbytes: np.ndarray) -> np.ndarray:
    """Words whose low ``nbytes`` bytes are 0xFF (``nbytes`` in [0, 8])."""
    return np.array([(1 << 8 * n) - 1 for n in nbytes.tolist()], dtype=_U8)


def _ascii(text: str) -> _U8:
    """Up to 8 ASCII bytes as a little-endian word: first byte lowest."""
    return _U8(int.from_bytes(text.encode("ascii"), "little"))


def _digits8(v: np.ndarray) -> np.ndarray:
    """Two 4-digit numbers in the 32-bit lanes of ``v`` (the more
    significant one low) as 8 digit bytes, most significant in byte 0.

    SWAR: each lane / 100 into 16-bit lanes, then / 10 into bytes.  The
    bytes hold digit values 0-9, not ASCII.
    """
    q = ((v * _U8(5243)) >> _U8(19)) & _U8(0x0000007F0000007F)
    v = q | ((v - q * _U8(100)) << _U8(16))
    q = ((v * _U8(103)) >> _U8(10)) & _U8(0x000F000F000F000F)
    return q | ((v - q * _U8(10)) << _U8(8))


def _int_digits8(n: np.ndarray) -> np.ndarray:
    """:func:`_digits8` of integers ``n`` in [0, 1e8)."""
    n = n.astype(_U8)
    high4 = n // _U8(10_000)
    return _digits8(high4 | ((n - high4 * _U8(10_000)) << _U8(32)))


def _block_text(words: np.ndarray, placeholders: np.ndarray, values: np.ndarray) -> str:
    """The text of a block's slot words, zero bytes dropped, with each
    placeholder filled by ``%`` from the unspelled ``values``."""
    raw = words.view(np.uint8)
    text = raw[raw != 0].tobytes().decode("ascii")
    if placeholders.any():
        text %= tuple(values[placeholders].tolist())
    return text


# --- %.9g -----------------------------------------------------------------

# exact powers of ten that scale |x| in [1, 1e9) to a 9-digit mantissa
_POW10 = np.array([float(10**k) for k in range(9)])
# per decimal exponent X = 0..8: the first X bytes of a word (integer digits)
_INT_BYTES = _masks(np.arange(9))
_INT_FLAGS = _INT_BYTES & _ONES
# the dot sits at byte X + 2 of a 16-byte slot: after the sign, the leading
# digit and X more integer digits
_DOT_LO = np.array([ord(".") << 8 * (x + 2) if x < 6 else 0 for x in range(9)],
                   dtype=_U8)
_DOT_HI = np.array([ord(".") << 8 * (x - 6) if x >= 6 else 0 for x in range(9)],
                   dtype=_U8)
_CSV_PLACEHOLDER = _ascii("%.9g")


def _csv_slots(values: np.ndarray, sep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.9g`` text of each value, and where it is exact.

    Returns 16-byte slots as ``(..., 2)`` little-endian words, and the mask
    of the values they spell.  A slot holds the sign (or a pad byte), the
    digits with the dot placed by whole-word shifts, pad bytes, and ``sep``
    in its last byte; pad bytes are zero.  Every other value's slot holds
    ``%.9g`` as a placeholder.  A value is spelled when ``log10`` puts |x|
    in [1, 1e9), its mantissa ``m`` has 9 digits (``log10`` gave the right
    decade, and rounding did not carry into the next one), and the scaled
    value is not within 1e-6 of a rounding tie, where the one rounding of
    the product could decide it.
    """
    a = np.abs(values)
    e = np.floor(np.log10(a))
    # fmax/fmin clip a NaN decade (of a NaN) to 0 as well
    x = np.fmin(np.fmax(e, 0.0), 8.0).astype(np.intp)
    p = a * _POW10[8 - x]
    m = np.rint(p)
    spelled = ((e == x) & (m >= 1e8) & (m < 1e9)
               & (np.abs(p - np.floor(p) - 0.5) > 1e-6))
    m = np.where(spelled, m, 1e8)
    # leading digit, then the other 8 as two 4-digit halves in 32-bit lanes
    lead = np.floor(m / 1e8)
    low = m - lead * 1e8
    high4 = np.floor(low / 1e4)
    v = _digits8((high4 + (low - high4 * 1e4) * 2.0**32).astype(_U8))
    # keep the integer digits and every digit up to the last nonzero one:
    # flag those bytes, smear each flag down to byte 0, widen flags to masks
    f = ((v + _U8(0x7F7F7F7F7F7F7F7F)) >> _U8(7)) & _ONES
    f |= _INT_FLAGS[x]
    f |= f >> _U8(8)
    f |= f >> _U8(16)
    f |= f >> _U8(32)
    digits = (v | _ZEROS) & (f * _U8(0xFF))
    int_digits = digits & _INT_BYTES[x]
    frac_digits = digits ^ int_digits
    has_frac = frac_digits != 0
    lo = (np.where(values < 0, _U8(ord("-")), _U8(0))
          | ((lead.astype(_U8) + _U8(ord("0"))) << _U8(8))
          | (int_digits << _U8(16)) | (frac_digits << _U8(24))
          | np.where(has_frac, _DOT_LO[x], _U8(0)))
    hi = ((int_digits >> _U8(48)) | (frac_digits >> _U8(40))
          | np.where(has_frac, _DOT_HI[x], _U8(0)) | sep)
    slots = np.empty(values.shape + (2,), dtype="<u8")
    slots[..., 0] = np.where(spelled, lo, _CSV_PLACEHOLDER)
    slots[..., 1] = np.where(spelled, hi, sep)
    return slots, spelled


def format_csv(table: np.ndarray):
    """CSV text of a 2-D float table, each value as ``"%.9g" % x``.

    Yields one string per block of ``BLOCK_ROWS`` rows, each row ending in a
    newline.  Most values are spelled by :func:`_csv_slots`; the rest are
    filled in by one ``%`` per block.
    """
    sep = np.full(table.shape[1], ord(","), dtype=_U8)
    sep[-1] = ord("\n")
    sep <<= _U8(56)
    with np.errstate(all="ignore"):
        for start in range(0, len(table), BLOCK_ROWS):
            block = table[start:start + BLOCK_ROWS]
            slots, spelled = _csv_slots(block, sep)
            yield _block_text(slots, ~spelled, block)


# --- %r -------------------------------------------------------------------

# exact powers of ten 10**k for k <= 22, and their Dekker halves
_P10 = np.array([float(10**k) for k in range(23)])
_SPLIT = 134217729.0  # 2**27 + 1


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: ``a == hi + lo`` exactly, each half of 26 bits."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


_P10_HI, _P10_LO = _halves(_P10)
_E16 = 10**16
_P10_INT = np.array([10**k for k in range(17)])
_EXPONENT = _U8(0x7FF << 52)
# per byte count n = 0..24: a 24-byte string's first n bytes, as 3 words
_PREFIX = np.stack([_masks(np.clip(np.arange(25) - 8 * w, 0, 8)) for w in range(3)])
# per dot position t = 1..17: the dot at byte t of a 24-byte string
_DOT = np.stack([np.where(np.arange(25) // 8 == w,
                          _U8(ord(".")) << (_U8(8) * (np.arange(25) % 8).astype(_U8)),
                          _U8(0)) for w in range(3)])
_SIGN_FLIP = _U8(ord("0") ^ ord("-"))
_REPR_PLACEHOLDER = _ascii("%r")


def _nearest(d: np.ndarray, fl: np.ndarray, step):
    """For ``V = d + fl`` (``d`` an integer, |fl| <= 1/2) and a power of ten
    ``step``: the quotient ``q = d // step``, whether ``(q + 1) * step``
    lies nearer to ``V`` than ``q * step``, the distance to the nearer one,
    and whether both are equally near."""
    q = d // step
    rem = d - q * step
    below = np.abs(rem + fl)
    above = (step - rem) - fl
    return q, above < below, np.minimum(below, above), above == below


def _shortest(a: np.ndarray):
    """The shortest round-trip digits of ``a`` (|x|, flat), where certain.

    Returns ``(c, e, j, ok)``: ``c * 10**(e - 16)`` is the number ``repr``
    spells, ``c`` the nearest multiple of ``10**j`` to ``V = a * 10**(16 - e)``
    in [1e16, 1e17), and ``ok`` marks the values that this holds for (a zero
    is ``c = 0``, ``e = 0``, ``j = 16``).  The rule is Steele & White's and
    ``dtoa`` mode 0's: the fewest digits that read back as ``a``, and of
    those the nearest.  A multiple of ``10**j`` reads back when it lies
    within ``H``, half the spacing of ``a`` scaled by ``10**(16 - e)``, of
    ``V``; if none does, no multiple of ``10**(j + 1)`` does either.  So the
    largest such ``j`` is found by trying 1, 2 and 3 in turn, where most
    values stop, and by bisection above.

    ``V`` is exact as ``hi + lo``, by Dekker's product, in the decades
    e = -4..15 (repr's positional range [1e-4, 1e16)), where ``10**(16 - e)``
    is an exact float.  So is every distance that is compared with ``H``:
    those below 16 are multiples of 2**-47 there.  No candidate lies on the
    interval's edge, where the evenness of ``a`` would decide: the edge, a
    binary midpoint, needs at least 18 significant digits in that range.
    At ``j = 0`` the candidate is ``rint(V)``, whose tie rule, half to
    even, is ``repr``'s.  Powers of two have half the interval below them;
    on none of the 67 in the range does that change the digits.

    Not certain, so not ``ok``: values outside the range or whose ``log10``
    decade is off by one, and two equidistant candidates (``repr`` then
    takes the even digit).  No candidate carries into the next decade: only
    a float within ``H`` of a power of ten could, and none of those does.
    """
    e = np.floor(np.log10(a))
    ok = (e >= -4) & (e <= 15)
    e = np.where(ok, e, 0.0).astype(np.intp)
    k = 16 - e
    ten_k = _P10[k]
    hi = a * ten_k
    ah, al = _halves(a)
    bh, bl = _P10_HI[k], _P10_LO[k]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    ok &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0.0))) & (hi < 1e17)
    r = np.rint(lo)
    f = lo - r
    # hi is an even integer below 2**57, so the int64 sum is exact; the
    # casts of values that are not ok are discarded
    c = hi.astype(np.int64) + r.astype(np.int64)
    zero = a == 0.0
    j = zero * 16
    # H: a float's exponent bits alone are the power of two below it, and
    # its spacing is that power times 2**-52
    h = (a.view(_U8) & _EXPONENT).view(np.float64) * ten_k * 2.0**-53
    # j = 1, 2, 3 in turn, where most values stop
    d, fl, live = c, f, None
    for digits in (1, 2, 3):
        q, up, near, tie = _nearest(d, fl, 10**digits)
        keep = near < h
        if live is None:
            # only at j = 1 can both neighbours be inside the interval
            tie &= keep & ok
            ok &= ~tie
            live = np.flatnonzero(keep & ok)
            sel = live
        else:
            sel = np.flatnonzero(keep)
            live = live[sel]
        d, fl, h = d[sel], fl[sel], h[sel]
        c[live] = (q[sel] + up[sel]) * 10**digits
        j[live] = digits
    # the rest have at most 14 digits: bisect j in [3, 17)
    low = np.full(len(live), 3)
    high = low + 14
    for _ in range(4):
        mid = (low + high) >> 1
        passes = _nearest(d, fl, _P10_INT[mid])[2] < h
        low = np.where(passes, mid, low)
        high = np.where(passes, high, mid)
    step = _P10_INT[low]
    q, up = _nearest(d, fl, step)[:2]
    c[live] = (q + up) * step
    j[live] = low
    return c, e, j, ok | zero


def _repr_words(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ``repr`` text of each value into ``out``, and return the
    mask of the values spelled.

    ``out`` has the shape of ``values`` plus a last axis of 3 words: a
    24-byte string, zero padded, of the sign, the integer digits (``0``
    below 1), the dot, and the fraction without trailing zeros but with at
    least one digit.  The values :func:`_shortest` certifies are spelled;
    every other value's words hold the placeholder ``%r``.

    The 17 digits of ``c`` are a lead digit and two 8-digit SWAR words.
    The string is those 17 bytes shifted up by ``s`` bytes (the sign's byte,
    and the zeros of ``0.000ddd``), cleared after its last significant byte,
    with a dot inserted after the integer part.
    """
    values = values.ravel()
    c, e, j, spelled = _shortest(np.abs(values))
    neg = np.signbit(values)
    lead = c // _E16
    rest = c - lead * _E16
    high8 = rest // 10**8
    da = _int_digits8(high8)
    db = _int_digits8(rest - high8 * 10**8)
    g0 = lead.astype(_U8) | (da << _U8(8))
    g1 = (da >> _U8(56)) | (db << _U8(8))
    g2 = db >> _U8(56)
    s = neg + np.maximum(-e, 0)
    up = (s * 8).astype(_U8)
    down = _U8(64) - up
    # the dot goes before byte t; keep bytes up to the last significant
    # one, and at least one fraction digit
    t = neg + np.maximum(e, 0) + 1
    last = np.maximum(t, s + 16 - j) + 1
    s0 = ((g0 << up) | _ZEROS) & _PREFIX[0][last]
    s0 ^= neg * _SIGN_FLIP
    s1 = (((g1 << up) | (g0 >> down)) | _ZEROS) & _PREFIX[1][last]
    s2 = (((g2 << up) | (g1 >> down)) | _ZEROS) & _PREFIX[2][last]
    i0 = s0 & _PREFIX[0][t]
    i1 = s1 & _PREFIX[1][t]
    i2 = s2 & _PREFIX[2][t]
    s0 ^= i0
    s1 ^= i1
    s2 ^= i2
    shape = out.shape[:-1]
    out[..., 0] = (i0 | (s0 << _U8(8)) | _DOT[0][t]).reshape(shape)
    out[..., 1] = (i1 | (s1 << _U8(8)) | (s0 >> _U8(56)) | _DOT[1][t]).reshape(shape)
    out[..., 2] = (i2 | (s2 << _U8(8)) | (s1 >> _U8(56)) | _DOT[2][t]).reshape(shape)
    spelled = spelled.reshape(shape)
    if not spelled.all():
        out[~spelled] = (_REPR_PLACEHOLDER, 0, 0)
    return spelled


_ROW_OPEN = _ascii("    [\n")
_NEXT_ROW = _ascii(",\n    [\n")
_INDENT = _ascii("      ")
_NEXT_VALUE = _ascii(",\n      ")
_ROW_CLOSE = _ascii("\n    ]")


def format_json_rows(table: np.ndarray):
    """The rows of a 2-D float table as ``json.dumps(indent=2)`` lays out a
    list of lists at depth 1, each value as ``repr(x)``.

    Yields one string per block of ``BLOCK_ROWS`` rows, or fewer so that a
    block holds at most ``_JSON_BLOCK_VALUES`` values; joined, they are the
    text between the list's ``[`` and ``]`` lines, without the newlines
    next to those.  Each row is ``2 + 4 * columns`` words: the row opening
    and the first indent, then per value the 3 words of :func:`_repr_words`
    and the text that follows the value.  Values the kernel cannot certify
    are filled in by one ``%r`` per block.
    """
    rows, cols = table.shape
    after = np.full(cols, _NEXT_VALUE)
    after[-1] = _ROW_CLOSE
    block_rows = max(1, min(BLOCK_ROWS, _JSON_BLOCK_VALUES // cols))
    with np.errstate(all="ignore"):
        for start in range(0, rows, block_rows):
            block = table[start:start + block_rows]
            slots = np.empty((len(block), 2 + 4 * cols), dtype="<u8")
            slots[:, 0] = _NEXT_ROW
            slots[0, 0] = _NEXT_ROW if start else _ROW_OPEN
            slots[:, 1] = _INDENT
            words = slots[:, 2:].reshape(len(block), cols, 4)
            words[..., 3] = after
            spelled = _repr_words(block, words[..., :3])
            yield _block_text(slots, ~spelled, block)


# --- %.3f -----------------------------------------------------------------

_POINT_PLACEHOLDER = _ascii("%.3f")
_DOT_AT_6 = _U8(ord(".") << 48)


def _points_slots(values: np.ndarray, sep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.3f`` text of each value, and where it is exact.

    Returns 16-byte slots as ``(..., 2)`` words, laid out as sign, 5
    integer digits, dot, 3 fraction digits and ``sep`` (bytes 0-10), and
    the mask of the values they spell.  The 8 digits are those of
    ``m = rint(|x| * 1000)``; the integer part's leading zeros stay zero
    bytes (pad), all but the units digit.  A value is spelled when
    ``m < 1e8`` and ``|x| * 1000`` is not within 1e-6 of a rounding tie,
    where the one rounding of the product could decide it; every other
    value's slot holds ``%.3f``.  The sign is the sign bit, so that small
    negatives read ``-0.000`` as they do for ``%``.
    """
    p = np.abs(values) * 1000.0
    m = np.rint(p)
    spelled = (m < 1e8) & (np.abs(p - np.floor(p) - 0.5) > 1e-6)
    v = _int_digits8(np.where(spelled, m, 0.0))
    # flag the nonzero integer digits (bytes 0-3) and the units digit (byte
    # 4), smear each flag up to byte 4, widen flags to masks
    f = (((v + _U8(0x7F7F7F7F7F7F7F7F)) >> _U8(7)) & _U8(0x01010101)) | _U8(1 << 32)
    f |= f << _U8(8)
    f |= f << _U8(16)
    f |= f << _U8(32)
    digits = v | _ZEROS
    int_digits = digits & (f * _U8(0xFF)) & _U8(0xFFFFFFFFFF)
    frac_digits = digits >> _U8(40)
    lo = (np.where(np.signbit(values), _U8(ord("-")), _U8(0)) | (int_digits << _U8(8))
          | _DOT_AT_6 | (frac_digits << _U8(56)))
    hi = (frac_digits >> _U8(8)) | sep
    slots = np.empty(values.shape + (2,), dtype="<u8")
    slots[..., 0] = np.where(spelled, lo, _POINT_PLACEHOLDER)
    slots[..., 1] = np.where(spelled, hi, sep)
    return slots, spelled


def format_points(px: np.ndarray, py: np.ndarray) -> str:
    """``x,y`` pairs to 3 decimals (``"%.3f"``), space separated."""
    table = np.column_stack((px, py))
    sep = np.array([ord(","), ord(" ")], dtype=_U8) << _U8(16)
    chunks = []
    with np.errstate(all="ignore"):
        for start in range(0, len(table), BLOCK_ROWS):
            block = table[start:start + BLOCK_ROWS]
            slots, spelled = _points_slots(block, sep)
            chunks.append(_block_text(slots, ~spelled, block))
    # every pair ends in a space, the last one too
    return "".join(chunks)[:-1]
