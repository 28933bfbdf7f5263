"""Minimal SVG line charts, no plotting dependencies.

Just enough for trajectory plots: multiple named series on shared axes,
"nice" tick placement, a legend, and vertical stacking of several charts
into one document.  Output is a pure function of the input data.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

from .atomic import atomic_write

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

#: Size of one chart in pixels; stacked charts share the width.
_WIDTH, _HEIGHT = 640.0, 320.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 34.0, 44.0
#: Number of ticks an axis aims for.
_TICKS = 6
#: ``str.translate`` table that writes a title, label or name as XML text.
_XML = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _resolvable(lo: float, hi: float) -> tuple[float, float]:
    """``(lo, hi)``, widened about its ends where it is narrower than 1e-9 of
    its magnitude, and kept finite.

    At 1e17, ``lo + 1.0 == lo``; a span of a few units there would give a
    tick step that adding to a tick does not move.
    """
    least = 1e-9 * max(abs(lo), abs(hi))
    if hi - lo >= least:
        return lo, hi
    return max(lo - least, -sys.float_info.max), min(hi + least, sys.float_info.max)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], about :data:`_TICKS` of them."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    lo, hi = _resolvable(lo, hi if hi > lo else lo + 1.0)
    raw = (hi - lo) / (_TICKS - 1)
    if math.isinf(raw):  # hi - lo overflows: (-1e308, 1e308)
        raw = hi / (_TICKS - 1) - lo / (_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while math.isfinite(v) and v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks or [lo, hi]


def _axis(lo: float, hi: float, start: float, end: float) -> Callable[[float], float]:
    """The pixel of a value on an axis that maps ``lo`` to ``start`` and
    ``hi`` to ``end``.  Where ``hi - lo`` overflows (-1e308 to 1e308), the
    value and the ends are halved first, as :meth:`LineChart._bounds` scales
    its pad."""
    if math.isinf(hi - lo):
        return lambda v: start + (v / 2 - lo / 2) / (hi / 2 - lo / 2) * (end - start)
    return lambda v: start + (v - lo) / (hi - lo) * (end - start)


def _pixels(values: list[float], lo: float, hi: float, start: float, end: float) -> list[float]:
    """The pixel of each value on the axis of :func:`_axis`, by its formula
    in its order of operations."""
    span, size = hi - lo, end - start
    if math.isinf(span):
        return list(map(_axis(lo, hi, start, end), values))
    return [start + (v - lo) / span * size for v in values]


def _finite_pairs(x: list[float], y: list[float]) -> tuple[list[float], list[float]]:
    """``x`` and ``y`` without the pairs in which either value is not finite."""
    if all(map(math.isfinite, x)) and all(map(math.isfinite, y)):
        return x, y
    kept = [(a, b) for a, b in zip(x, y) if math.isfinite(a) and math.isfinite(b)]
    return [a for a, _ in kept], [b for _, b in kept]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:.4g}"


@dataclass
class Series:
    name: str
    x: Sequence[float]
    y: Sequence[float]
    color: str


@dataclass
class LineChart:
    """One set of axes, :data:`_WIDTH` by :data:`_HEIGHT` pixels, with any
    number of line series coloured in turn from the palette."""

    title: str
    xlabel: str = ""
    ylabel: str = ""
    series: list[Series] = field(default_factory=list)

    def add_series(self, name: str, x: Sequence[float], y: Sequence[float]) -> None:
        """Add the series ``name`` of the points ``(x[i], y[i])``.  The
        sequences are kept as given, not copied: pass floats (for example
        from ``ndarray.tolist``), and do not change them afterwards."""
        if len(x) != len(y):
            raise ValueError(f"series {name!r}: x and y lengths differ ({len(x)} vs {len(y)})")
        color = _PALETTE[len(self.series) % len(_PALETTE)]
        self.series.append(Series(name, x, y, color))

    def _bounds(self) -> tuple[float, float, float, float]:
        xs = list(filter(math.isfinite, chain.from_iterable(s.x for s in self.series)))
        ys = list(filter(math.isfinite, chain.from_iterable(s.y for s in self.series)))
        if not xs or not ys:
            return 0.0, 1.0, 0.0, 1.0
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        pad = 0.04 * (y_hi - y_lo)
        if math.isinf(pad):  # y_hi - y_lo overflows
            pad = 0.04 * y_hi - 0.04 * y_lo
        return (*_resolvable(x_lo, max(x_hi, x_lo + 1e-12)),
                *_resolvable(y_lo - pad, y_hi + pad))

    def render_group(self, y_offset: float = 0.0) -> str:
        """SVG fragment for this chart, translated down by ``y_offset``."""
        x_lo, x_hi, y_lo, y_hi = self._bounds()
        px_l, px_r = _MARGIN_L, _WIDTH - _MARGIN_R
        px_t, px_b = _MARGIN_T, _HEIGHT - _MARGIN_B

        sx, sy = _axis(x_lo, x_hi, px_l, px_r), _axis(y_lo, y_hi, px_b, px_t)
        title, xlabel, ylabel = (t.translate(_XML) for t in (self.title, self.xlabel, self.ylabel))

        out = [f'<g transform="translate(0,{y_offset:g})">']
        out.append(
            f'<rect x="{px_l:g}" y="{px_t:g}" width="{px_r - px_l:g}" '
            f'height="{px_b - px_t:g}" fill="white" stroke="#333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{(px_l + px_r) / 2:g}" y="{px_t - 12:g}" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif" font-weight="bold">{title}</text>'
        )
        for tick in _nice_ticks(x_lo, x_hi):
            x = sx(tick)
            out.append(f'<line x1="{x:.2f}" y1="{px_t:g}" x2="{x:.2f}" y2="{px_b:g}" '
                       'stroke="#ddd" stroke-width="0.5"/>')
            out.append(f'<text x="{x:.2f}" y="{px_b + 16:g}" text-anchor="middle" '
                       f'font-size="11" font-family="sans-serif">{_fmt(tick)}</text>')
        for tick in _nice_ticks(y_lo, y_hi):
            y = sy(tick)
            out.append(f'<line x1="{px_l:g}" y1="{y:.2f}" x2="{px_r:g}" y2="{y:.2f}" '
                       'stroke="#ddd" stroke-width="0.5"/>')
            out.append(f'<text x="{px_l - 6:g}" y="{y + 4:.2f}" text-anchor="end" '
                       f'font-size="11" font-family="sans-serif">{_fmt(tick)}</text>')
        if xlabel:
            out.append(f'<text x="{(px_l + px_r) / 2:g}" y="{px_b + 34:g}" text-anchor="middle" '
                       f'font-size="12" font-family="sans-serif">{xlabel}</text>')
        if ylabel:
            out.append(
                f'<text x="16" y="{(px_t + px_b) / 2:g}" text-anchor="middle" font-size="12" '
                f'font-family="sans-serif" transform="rotate(-90 16 {(px_t + px_b) / 2:g})">'
                f'{ylabel}</text>'
            )
        for s in self.series:
            x, y = _finite_pairs(s.x, s.y)
            flat = [0.0] * (2 * len(x))
            flat[0::2] = _pixels(x, x_lo, x_hi, px_l, px_r)
            flat[1::2] = _pixels(y, y_lo, y_hi, px_b, px_t)
            pts = " ".join(["%.2f,%.2f"] * len(x)) % tuple(flat)
            out.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                       'stroke-width="1.5"/>')
        lx, ly = px_l + 10.0, px_t + 14.0
        for i, s in enumerate(self.series):
            yy = ly + 16.0 * i
            out.append(f'<line x1="{lx:g}" y1="{yy - 4:g}" x2="{lx + 22:g}" y2="{yy - 4:g}" '
                       f'stroke="{s.color}" stroke-width="2"/>')
            out.append(f'<text x="{lx + 28:g}" y="{yy:g}" font-size="11" '
                       f'font-family="sans-serif">{s.name.translate(_XML)}</text>')
        out.append("</g>")
        return "\n".join(out)


def render_svg(charts: Sequence[LineChart]) -> str:
    """Stack charts vertically into one standalone SVG document."""
    if not charts:
        raise ValueError("need at least one chart")
    width, height = _WIDTH, _HEIGHT * len(charts)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    offset = 0.0
    for chart in charts:
        parts.append(chart.render_group(offset))
        offset += _HEIGHT
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_svg(charts: Sequence[LineChart], path: str) -> None:
    with atomic_write(path) as fh:
        fh.write(render_svg(charts))
