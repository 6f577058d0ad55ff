"""Bulk number formatting of the emitted tables: numpy word kernels that
write exactly the text CPython's ``%`` writes.

One writer, :func:`_positional`, lays out every number in a slot of
little-endian ``'<u8'`` words (zero bytes pad), and a block of slots is
joined by one boolean compress of its bytes.  The formats differ only in
their digit source: :func:`format_csv` (``%.9g``, CSV tables),
:func:`format_json_rows` (``%r``, that is ``repr``, JSON tables) and
:func:`format_points` (``%.3f``, SVG polyline points).  A value whose digits
its source cannot certify gets a ``%`` placeholder instead, and one ``%`` on
the block text fills all of them, so every byte is CPython's.

Only the emitting commands import this module, on first use.
"""

from __future__ import annotations

import numpy as np

# values formatted per block (at least one row): bounds each kernel's word
# buffers and the tuple of placeholder values built for one %; the JSON
# kernel, the widest, holds some 25 temporary words per value, so about
# 3 MB, and blocks of this size run as fast as larger ones
BLOCK_VALUES = 16384

_U8 = np.uint64
_ZEROS = _U8(0x3030303030303030)  # ASCII "0" in every byte


def _ascii(text: str) -> _U8:
    """Up to 8 ASCII bytes as a little-endian word: first byte lowest."""
    return _U8(int.from_bytes(text.encode("ascii"), "little"))


def _int_digits8(n: np.ndarray) -> np.ndarray:
    """The 8 digit values (not ASCII) of integers ``n`` in [0, 1e8) as
    bytes, the most significant in byte 0.  SWAR: / 10**4 into 32-bit lanes,
    / 100 into 16-bit lanes, / 10 into bytes, each quotient low; ``v * 2**16
    - q * (100 * 2**16 - 1)`` is ``q | (v - 100 * q) << 16``, and so on."""
    n = n.astype(_U8, copy=False)
    v = (n << _U8(32)) - (n // _U8(10_000)) * _U8((10_000 << 32) - 1)
    q = ((v * _U8(5243)) >> _U8(19)) & _U8(0x0000007F0000007F)
    v = (v << _U8(16)) - q * _U8(6553599)
    q = ((v * _U8(103)) >> _U8(10)) & _U8(0x000F000F000F000F)
    return (v << _U8(8)) - q * _U8(2559)


# --- the positional layout --------------------------------------------------

# The string of c * 10**(e - 16) is at most 23 bytes.  Per decade e, in row
# e + 4: c's bytes that are integer digits, the dot and the zeros of
# 0.000ddd, and how far the fraction digits move.
_DECADES = range(-4, 16)


def _word_rows(strings) -> list[np.ndarray]:
    """Byte strings of up to 24 bytes as a table per 8-byte word."""
    return [np.array([int.from_bytes(s[w:w + 8], "little") for s in strings], dtype=_U8)
            for w in (0, 8, 16)]


_INT_DIGITS = _word_rows([b"\xff" * (e + 1) for e in _DECADES])
_TEXT = _word_rows([b"\0" + (b"0." + b"0" * (-e - 1) if e < 0 else b"\0" * (e + 1) + b".")
                    for e in _DECADES])
_FRAC_SHIFT = np.array([8 * (2 + max(-e, 0)) for e in _DECADES], dtype=_U8)


def _kept_bytes(e: int, n: int, min_frac: int) -> int:
    """The string's length when c's last nonzero digit is its ``n``-th (0
    for c = 0): the sign and integer bytes and, if that digit is a fraction
    digit or ``min_frac`` > 0, the dot and at least ``min_frac`` digits."""
    integer = max(e, 0) + 2
    end = 0 if n == 0 else n + 1 + (n > e + 1) * (1 + max(-e, 0))
    return max(end, integer + 1 + min_frac) if end > integer or min_frac else integer


# row 127 + (e + 4) * _N + n of a table is for decade e and digit n, the
# row _positional computes; the rows below are for c = 0
_N = 25
_KEEP = {k: _word_rows([b"\xff" * _kept_bytes(0, 0, k)] * 127
                       + [b"\xff" * _kept_bytes(e, n, k) for e in _DECADES for n in range(_N)])
         for k in (0, 1, 3)}


def _positional(out: np.ndarray, sign: np.ndarray, digits: list[np.ndarray],
                e: np.ndarray, min_frac: int, tail=None) -> None:
    """Write ``c * 10**(e - 16)`` into the words ``out[..., w]``: the sign
    byte (``-`` or a pad), the integer digits (``0`` below 1) and, if any
    fraction digit is kept, the dot and the fraction, to c's last nonzero
    digit and at least ``min_frac`` digits (which ``digits`` must hold).

    ``digits`` holds c's digit values, the first in byte 0 of the first
    word; ``e`` is in [-4, 15], and at most 0 where c is 0; ``sign`` is the
    sign bit; ``tail`` is ORed into the last word.  Each digit word is cut
    into integer and fraction bytes, which move up past the sign, and past
    the sign, the dot and the zeros of 0.000ddd, respectively."""
    row = e + 4
    shift = _FRAC_SHIFT.take(row)
    spill = _U8(64) - shift
    x = digits[0].astype(np.float64)
    for w in range(1, len(digits)):
        x += digits[w].astype(np.float64) * 2.0 ** (64 * w)
    # the float of the digit string has its top nonzero byte in (exponent
    # + 1) // 8 - 128, and that of c = 0 gives 0
    kept = x.view(np.int64)
    kept += 1 << 52
    kept >>= 55
    kept += row * _N
    carry = sign * _U8(ord("-"))
    for w in range(out.shape[-1]):
        word = _TEXT[w].take(row)
        word |= carry
        carry = _U8(0)
        if w < len(digits):
            fraction = digits[w] | _ZEROS
            integer = _INT_DIGITS[w].take(row)
            integer &= fraction
            fraction ^= integer
            if w < out.shape[-1] - 1:
                carry = (integer >> _U8(56)) | (fraction >> spill)
            integer <<= _U8(8)
            fraction <<= shift
            word |= integer
            word |= fraction
        keep = _KEEP[min_frac][w].take(kept)
        if w < out.shape[-1] - 1 or tail is None:
            np.bitwise_and(word, keep, out=out[..., w])
        else:
            word &= keep
            np.bitwise_or(word, tail, out=out[..., w])


def _spell(table: np.ndarray, source, min_frac: int, placeholder: str, frame):
    """Yield the text of ``table``, as many whole rows at a time as hold
    ``BLOCK_VALUES`` values, or one.  ``source(|x|)`` gives a block's
    digits, decades and certain values, laid out into the ``(rows, columns,
    width)`` view that ``frame(rows, start)`` returns with the block's slots
    and a tail per column (or None).  Values not certain get
    ``placeholder``, filled by one ``%`` per block."""
    block_rows = max(1, BLOCK_VALUES // table.shape[1])
    with np.errstate(all="ignore"):
        for start in range(0, len(table), block_rows):
            block = table[start:start + block_rows]
            slots, out, tail = frame(len(block), start)
            digits, e, ok = source(np.abs(block))
            _positional(out, block.view(_U8) >> _U8(63), digits, e, min_frac, tail)
            bad = ~ok
            if bad.any():
                out[bad] = (_ascii(placeholder),) + (0,) * (out.shape[-1] - 1)
                if tail is not None:
                    out[bad, -1] = np.broadcast_to(tail, bad.shape)[bad]
            raw = slots.view(np.uint8)
            text = raw[raw != 0].tobytes().decode("ascii")
            yield text % tuple(block[bad].tolist()) if bad.any() else text


def _separated(columns):
    """Frames of 16-byte slots that end in their column's character."""
    tail = np.array([ord(c) for c in columns], dtype=_U8) << _U8(56)

    def frame(rows, start):
        slots = np.empty((rows, len(columns), 2), dtype="<u8")
        return slots, slots, tail
    return frame


# --- %.9g -----------------------------------------------------------------

# exact powers of ten 10**k for k <= 22
_P10 = np.array([float(10**k) for k in range(23)])


def _csv_digits(a: np.ndarray):
    """``%.9g``'s digits of ``a`` (|x|): those of ``m = rint(a * 10**(8 -
    e))``.  Certain are ±0.0 and the values that ``log10`` puts in [1e-4,
    1e9) whose ``m`` has 9 digits (the decade was right, and rounding did not
    carry into the next) and is not within 1e-6 of a rounding tie, where the
    one rounding of the product could decide it."""
    e = np.floor(np.log10(a))
    # fmax/fmin clip a NaN decade (of a NaN) to -4 as well
    x = np.fmin(np.fmax(e, -4.0), 8.0)
    ei = x.astype(np.intp)
    p = a * _P10.take(8 - ei)
    m = np.rint(p)
    ok = ((e == x) & (m >= 1e8) & (m < 1e9) & (np.abs(p - m) < 0.5 - 1e-6)) | (a == 0.0)
    n = m.astype(_U8)
    lead = n // _U8(10**8)
    v = _int_digits8(n - lead * _U8(10**8))
    return [lead | (v << _U8(8)), v >> _U8(56)], ei, ok


def format_csv(table: np.ndarray):
    """CSV text of a 2-D float table, each value as ``"%.9g" % x``: one
    string per block of rows, each row ending in a newline."""
    frame = _separated("," * (table.shape[1] - 1) + "\n")
    yield from _spell(table, _csv_digits, 0, "%.9g", frame)


# --- %r -------------------------------------------------------------------

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

    Returns ``(c, e, ok)``: ``c * 10**(e - 16)`` is the number ``repr``
    spells, ``c`` the nearest multiple of ``10**j`` to ``V = a * 10**(16 - e)``
    in [1e16, 1e17) for the ``j`` below, and ``ok`` marks the values that
    this holds for (a zero is ``c = 0``, ``e = 0``).  The rule is Steele & White's and
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
    return c, e, ok | zero


def _json_digits(a: np.ndarray):
    """``repr``'s digits of ``a`` (|x|): the 17 digits of :func:`_shortest`'s
    ``c`` as a lead digit and two 8-digit words."""
    c, e, ok = _shortest(a.ravel())
    lead = c // _E16
    high8, low8 = np.divmod(c - lead * _E16, 10**8)
    da, db = _int_digits8(high8), _int_digits8(low8)
    digits = [lead.astype(_U8) | (da << _U8(8)), (da >> _U8(56)) | (db << _U8(8)), db >> _U8(56)]
    return [d.reshape(a.shape) for d in digits], e.reshape(a.shape), ok.reshape(a.shape)


_ROW_OPEN = _ascii("    [\n")
_NEXT_ROW = _ascii(",\n    [\n")
_INDENT = _ascii("      ")
_NEXT_VALUE = _ascii(",\n      ")
_ROW_CLOSE = _ascii("\n    ]")


def format_json_rows(table: np.ndarray):
    """The rows of a 2-D float table as ``json.dumps(indent=2)`` lays out a
    list of lists at depth 1, each value as ``repr(x)``.

    Yields one string per block of rows; joined, they are the text between
    the list's ``[`` and ``]`` lines, without the newlines next to those.
    A row's words: its opening, the first indent, and per value 3 words and
    the text after it."""
    cols = table.shape[1]
    after = np.full(cols, _NEXT_VALUE)
    after[-1] = _ROW_CLOSE

    def frame(block_rows, start):
        slots = np.empty((block_rows, 2 + 4 * cols), dtype="<u8")
        slots[:, 0] = _NEXT_ROW
        slots[0, 0] = _NEXT_ROW if start else _ROW_OPEN
        slots[:, 1] = _INDENT
        words = slots[:, 2:].reshape(block_rows, cols, 4)
        words[..., 3] = after
        return slots, words[..., :3], None

    yield from _spell(table, _json_digits, 1, "%r", frame)


# --- %.3f -----------------------------------------------------------------


def _points_digits(a: np.ndarray):
    """``%.3f``'s digits of ``a`` (|x|): those of ``m = rint(a * 1000)``,
    certain where ``m < 1e8`` and not within 1e-6 of a rounding tie.  m's
    digit bytes move down past their leading zeros, whose count (of m = 0:
    7) is the exponent of the lowest set bit over 8, and gives the decade."""
    p = a * 1000.0
    m = np.rint(p)
    p -= m
    ok = (m < 1e8) & (np.abs(p, out=p) < 0.5 - 1e-6)
    v = _int_digits8(m)
    low = v | _U8(1 << 56)
    low &= -low
    zeros8 = low.astype(np.float64).view(np.int64) >> 52
    zeros8 -= 1023
    zeros8 &= ~7
    v >>= zeros8.view(_U8)
    return [v], 4 - (zeros8 >> 3), ok


def format_points(px: np.ndarray, py: np.ndarray) -> str:
    """``x,y`` pairs to 3 decimals (``"%.3f"``), space separated."""
    table = np.column_stack((px, py))
    text = "".join(_spell(table, _points_digits, 3, "%.3f", _separated(", ")))
    return text[:-1]  # every pair ends in a space, the last one too
