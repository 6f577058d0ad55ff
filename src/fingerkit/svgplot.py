"""Minimal deterministic SVG line plots.

Byte-identical output for identical input is a hard requirement for the
emitted artifacts, so this module builds the document by plain string
formatting: no timestamps, no library version strings, no dict-order
dependence, fixed numeric formatting throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 800
_HEIGHT = 560
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 56


class Series(NamedTuple):
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
    from ._numfmt import format_points

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
        points = format_points(sx(x), sy(y))
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
