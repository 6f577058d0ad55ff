"""Minimal deterministic SVG line plots, and the bulk number formatting of
the emitted tables.

Byte-identical output for identical input is a hard requirement for the
emitted artifacts, so this module builds the document by plain string
formatting: no timestamps, no library version strings, no dict-order
dependence, fixed numeric formatting throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 800
_HEIGHT = 560
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 56
# rows formatted per block, by one % or by the CSV kernel: bounds the tuple
# of values built for a %, and the kernel's word buffers
BLOCK_ROWS = 4096

# exact powers of ten that scale |x| in [1, 1e9) to a 9-digit mantissa
_POW10 = np.array([float(10**k) for k in range(9)])
# per decimal exponent X = 0..8: the first X bytes of a word (integer digits)
_INT_BYTES = np.array([(1 << 8 * x) - 1 for x in range(9)], dtype=np.uint64)
_INT_FLAGS = _INT_BYTES & np.uint64(0x0101010101010101)
# the dot sits at byte X + 2 of a 16-byte slot: after the sign, the leading
# digit and X more integer digits
_DOT_LO = np.array([ord(".") << 8 * (x + 2) if x < 6 else 0 for x in range(9)],
                   dtype=np.uint64)
_DOT_HI = np.array([ord(".") << 8 * (x - 6) if x >= 6 else 0 for x in range(9)],
                   dtype=np.uint64)
_PLACEHOLDER = np.uint64(int.from_bytes(b"%.9g", "little"))


@dataclass(frozen=True)
class Series:
    name: str
    x: Sequence[float]
    y: Sequence[float]


def _nice_step(span: float) -> float:
    """1, 2 or 5 times a power of ten, at least ``span / 5``; 0.0 when that
    underflows (a subnormal span)."""
    raw = span / 5.0
    if raw == 0.0:
        return 0.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    """Multiples of a nice step in [lo, hi]; none for a subnormal span.

    The span is at most 5 steps, so there are at most 6 ticks, give or
    take the rounding of ``lo / step`` far from zero: the index range is
    bounded, however little the step adds to the axis values.
    """
    step = _nice_step(hi - lo)
    if step == 0.0:
        return []
    first = math.ceil(lo / step)
    last = min(math.floor(hi / step + 1e-9), first + 8)
    return [k * step for k in range(first, last + 1)]


def _axis(lo: float, hi: float) -> tuple[float, float]:
    """Axis limits for data in [lo, hi]: 4% padding so curves do not sit
    on the frame, after widening constant data by 1.0 or, where that is
    larger, one ulp.

    Raises ValueError when the span overflows.
    """
    if hi == lo:
        # lo +- 1.0 is lo where |lo| >= 2**53
        widen = max(1.0, math.ulp(lo))
        lo, hi = lo - widen, hi + widen
    pad = 0.04 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise ValueError("axis span overflows float64")
    return lo, hi


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _px(value: float) -> str:
    return f"{value:.3f}"


def format_rows(table: np.ndarray, row_format: str, separator: str):
    """Text of a 2-D float table, one ``%`` per block of rows.

    Yields one string per block of ``BLOCK_ROWS`` rows, its rows joined by
    ``separator``.  ``%`` applies the same float formatting as ``format()``,
    so ``"%r"`` gives ``repr(x)`` (the JSON tables) and ``"%.3f"`` gives
    ``f"{x:.3f}"`` (the SVG points); CSV's ``%.9g`` is :func:`format_csv`.
    """
    for start in range(0, len(table), BLOCK_ROWS):
        block = table[start:start + BLOCK_ROWS]
        yield separator.join([row_format] * len(block)) % tuple(block.ravel().tolist())


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
    v = (high4 + (low - high4 * 1e4) * 2.0**32).astype(np.uint64)
    # SWAR: each 32-bit lane / 100 into 16-bit lanes, then / 10 into bytes;
    # the most significant digit lands in the lowest byte
    q = ((v * np.uint64(5243)) >> np.uint64(19)) & np.uint64(0x0000007F0000007F)
    v = q | ((v - q * np.uint64(100)) << np.uint64(16))
    q = ((v * np.uint64(103)) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)
    v = q | ((v - q * np.uint64(10)) << np.uint64(8))
    # keep the integer digits and every digit up to the last nonzero one:
    # flag those bytes, smear each flag down to byte 0, widen flags to masks
    f = (((v + np.uint64(0x7F7F7F7F7F7F7F7F)) >> np.uint64(7))
         & np.uint64(0x0101010101010101))
    f |= _INT_FLAGS[x]
    f |= f >> np.uint64(8)
    f |= f >> np.uint64(16)
    f |= f >> np.uint64(32)
    digits = (v | np.uint64(0x3030303030303030)) & (f * np.uint64(0xFF))
    int_digits = digits & _INT_BYTES[x]
    frac_digits = digits ^ int_digits
    has_frac = frac_digits != 0
    lo = (np.where(values < 0, np.uint64(ord("-")), np.uint64(0))
          | ((lead.astype(np.uint64) + np.uint64(ord("0"))) << np.uint64(8))
          | (int_digits << np.uint64(16)) | (frac_digits << np.uint64(24))
          | np.where(has_frac, _DOT_LO[x], np.uint64(0)))
    hi = ((int_digits >> np.uint64(48)) | (frac_digits >> np.uint64(40))
          | np.where(has_frac, _DOT_HI[x], np.uint64(0)) | sep)
    slots = np.empty(values.shape + (2,), dtype="<u8")
    slots[..., 0] = np.where(spelled, lo, _PLACEHOLDER)
    slots[..., 1] = np.where(spelled, hi, sep)
    return slots, spelled


def format_csv(table: np.ndarray):
    """CSV text of a 2-D float table, each value as ``"%.9g" % x``.

    Yields one string per block of ``BLOCK_ROWS`` rows, each row ending in a
    newline.  Most values are spelled by :func:`_csv_slots`; the block's
    pad bytes go in one boolean compress, and the values it left as
    placeholders are formatted by one ``%`` on the block text, so every
    byte is CPython's.
    """
    sep = np.full(table.shape[1], ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    sep <<= np.uint64(56)
    with np.errstate(all="ignore"):
        for start in range(0, len(table), BLOCK_ROWS):
            block = table[start:start + BLOCK_ROWS]
            slots, spelled = _csv_slots(block, sep)
            raw = slots.view(np.uint8)
            text = raw[raw != 0].tobytes().decode("ascii")
            if not spelled.all():
                text %= tuple(block[~spelled].tolist())
            yield text


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """``x,y`` pairs to 3 decimals, space separated."""
    return " ".join(format_rows(np.column_stack((px, py)), "%.3f,%.3f", " "))


def render_svg(
    series: Sequence[Series],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Standalone SVG document with one polyline per series.

    Axes are linear with auto ticks; the legend lists series in input
    order.  Raises ValueError for an empty series set, an empty series,
    non-finite data, or data whose span overflows.
    """
    if not series:
        raise ValueError("render_svg requires at least one series")
    xs = [np.asarray(s.x, dtype=np.float64) for s in series]
    ys = [np.asarray(s.y, dtype=np.float64) for s in series]
    for s, x, y in zip(series, xs, ys):
        if len(x) == 0 or len(x) != len(y):
            raise ValueError(f"series {s.name!r} must have matching non-empty x/y")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"series {s.name!r} has non-finite values")

    x_lo, x_hi = _axis(min(float(x.min()) for x in xs),
                       max(float(x.max()) for x in xs))
    y_lo, y_hi = _axis(min(float(y.min()) for y in ys),
                       max(float(y.max()) for y in ys))

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )

    # gridlines and tick labels
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(
            f'<line x1="{_px(px)}" y1="{_MARGIN_T}" x2="{_px(px)}" '
            f'y2="{_HEIGHT - _MARGIN_B}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_px(px)}" y="{_HEIGHT - _MARGIN_B + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{_fmt(tx)}</text>"
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_px(py)}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{_px(py)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{_px(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt(ty)}</text>'
        )

    # frame
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#000000" stroke-width="1"/>'
    )

    # data
    for i, (x, y) in enumerate(zip(xs, ys)):
        color = _PALETTE[i % len(_PALETTE)]
        points = _points(sx(x), sy(y))
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )

    # legend
    legend_x = _WIDTH - _MARGIN_R - 170
    legend_y = _MARGIN_T + 10
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        row_y = legend_y + 18 * i
        out.append(
            f'<line x1="{legend_x}" y1="{row_y}" x2="{legend_x + 24}" '
            f'y2="{row_y}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{legend_x + 30}" y="{row_y + 4}" '
            f'font-family="sans-serif" font-size="12">{s.name}</text>'
        )

    # axis labels
    out.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="14">'
        f"{x_label}</text>"
    )
    out.append(
        f'<text x="18" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h // 2})">{y_label}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
