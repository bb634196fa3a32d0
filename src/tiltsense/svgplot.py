"""Minimal SVG line charts built from primitives; no plotting dependency.

The CSV files are the normative output of the CLI; these renderings exist so
the curve shapes can be eyeballed directly.  A chart is one grid and the
curves over it, held as lists of finite floats, and writes its points with
plain float arithmetic, so rendering needs neither numpy nor a plotting
library.
"""

from __future__ import annotations

import math
from pathlib import Path

COLORS = ("#000000", "#c0392b", "#2a6fb0", "#1e8a4c", "#8a6d1e", "#7d3bb0")
DASHES = ("", "8 4", "2 3", "8 3 2 3", "5 2", "1 2")
WIDTH, HEIGHT = 720, 480  # px
TICKS = 6  # ticks aimed at per axis


def nice_ticks(lo: float, hi: float):
    """1-2-5 tick positions covering [lo, hi], at most TICKS + 1 and each distinct."""
    if hi <= lo:
        hi = lo + (abs(lo) if lo != 0.0 else 1.0)
    span = hi - lo
    if not span < math.inf:  # a NaN or infinite bound, or a span past the float range
        return [0.0, 1.0]
    raw = span / (TICKS - 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if raw <= step:
            break
    ticks = []
    t = math.ceil(lo / step) * step
    # bounded: on a span of a few ulps of lo, step is below ulp(t) and t += step stalls
    while t <= hi + 1e-9 * step and len(ticks) <= TICKS:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return list(dict.fromkeys(ticks)) or [lo, hi]


def _fmt_tick(value: float) -> str:
    if value == 0.0:
        return "0"
    if 1e-3 <= abs(value) < 1e4:
        return f"{value:g}"
    return f"{value:.2e}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _stroke(index: int) -> str:
    dash = DASHES[index % len(DASHES)]
    dash = f' stroke-dasharray="{dash}"' if dash else ""
    return f'stroke="{COLORS[index % len(COLORS)]}" stroke-width="1.6"{dash}'


def _finite_floats(values, name: str) -> list:
    """``values`` as a list of floats; a non-finite one raises ValueError naming ``name``."""
    values = list(map(float, values))
    if not all(map(math.isfinite, values)):
        index = [math.isfinite(v) for v in values].index(False)
        raise ValueError(f"{name} is not finite at index {index}: {values[index]!r}")
    return values


class LineChart:
    """A line chart of ``curves``, (y, label) pairs, each y a value per point of the grid ``x``.

    Each list is converted to floats and checked finite once, here: a
    non-finite value raises ValueError naming its curve.
    """

    def __init__(self, title: str, xlabel: str, ylabel: str, x, curves):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.x = _finite_floats(x, "x")
        self.curves = [
            (_finite_floats(y, f"curve {index} {label!r}"), label)
            for index, (y, label) in enumerate(curves)
        ]

    def to_svg(self) -> str:
        margin_l, margin_r, margin_t, margin_b = 86, 24, 40, 58
        plot_w = WIDTH - margin_l - margin_r
        plot_h = HEIGHT - margin_t - margin_b

        ys = [y for y, _ in self.curves if y]
        x_lo, x_hi = (min(self.x), max(self.x)) if self.x else (0.0, 1.0)
        y_lo, y_hi = (min(map(min, ys)), max(map(max, ys))) if ys else (0.0, 1.0)
        if x_hi == x_lo:
            x_hi = x_lo + (abs(x_lo) or 1.0)
        if y_hi == y_lo:
            pad = abs(y_lo) or 1.0
            y_lo, y_hi = y_lo - 0.05 * pad, y_hi + 0.05 * pad
        else:
            pad = 0.04 * (y_hi - y_lo)
            y_lo, y_hi = y_lo - pad, y_hi + pad

        # ticks and curve points share these expressions, which keeps their rounding alike
        x_span, y_span, y_base = x_hi - x_lo, y_hi - y_lo, margin_t + plot_h
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(self.title)}</text>',
            # axes box
            f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
            f'fill="none" stroke="#404040" stroke-width="1"/>',
        ]
        for t in nice_ticks(x_lo, x_hi):
            if x_lo <= t <= x_hi:
                x = margin_l + (t - x_lo) / x_span * plot_w
                parts += [
                    f'<line x1="{x:.1f}" y1="{margin_t + plot_h}" x2="{x:.1f}" '
                    f'y2="{margin_t + plot_h + 5}" stroke="#404040"/>',
                    f'<text x="{x:.1f}" y="{margin_t + plot_h + 19}" text-anchor="middle" '
                    f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>',
                ]
        for t in nice_ticks(y_lo, y_hi):
            if y_lo <= t <= y_hi:
                y = y_base - (t - y_lo) / y_span * plot_h
                parts += [
                    f'<line x1="{margin_l - 5}" y1="{y:.1f}" x2="{margin_l}" y2="{y:.1f}" '
                    f'stroke="#404040"/>',
                    f'<text x="{margin_l - 8}" y="{y + 4:.1f}" text-anchor="end" '
                    f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>',
                ]
        parts += [
            f'<text x="{margin_l + plot_w / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_escape(self.xlabel)}</text>',
            f'<text x="20" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 20 {margin_t + plot_h / 2:.1f})">{_escape(self.ylabel)}</text>',
        ]

        # the grid's pixel x once per chart, between which each curve's pixel y goes;
        # then the curve's points in one % call
        xs = [margin_l + (x - x_lo) / x_span * plot_w for x in self.x]
        pairs = xs * 2
        pairs[0::2] = xs
        points = " ".join(["%.2f,%.2f"] * len(xs))
        strokes = [_stroke(index) for index in range(len(self.curves))]
        for (y, _), stroke in zip(self.curves, strokes):
            pairs[1::2] = [y_base - (v - y_lo) / y_span * plot_h for v in y]
            parts.append(f'<polyline points="{points % tuple(pairs)}" fill="none" {stroke}/>')

        labelled = [(label, stroke) for (_, label), stroke in zip(self.curves, strokes) if label]
        if labelled:
            lx, ly = margin_l + plot_w - 170, margin_t + 10
            parts.append(
                f'<rect x="{lx - 8}" y="{ly - 4}" width="178" height="{18 * len(labelled) + 8}" '
                f'fill="#ffffff" fill-opacity="0.85" stroke="#b0b0b0"/>'
            )
            for i, (label, stroke) in enumerate(labelled):
                yy = ly + 10 + 18 * i
                parts.append(f'<line x1="{lx}" y1="{yy}" x2="{lx + 26}" y2="{yy}" {stroke}/>')
                parts.append(
                    f'<text x="{lx + 32}" y="{yy + 4}" font-family="sans-serif" '
                    f'font-size="11">{_escape(label)}</text>'
                )

        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def write(self, path):
        Path(path).write_text(self.to_svg(), encoding="utf-8")
