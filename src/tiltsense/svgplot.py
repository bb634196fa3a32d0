"""Minimal SVG line charts built from primitives; no plotting dependency.

The CSV files are the normative output of the CLI; these renderings exist so
the curve shapes can be eyeballed directly.  A chart holds each curve as lists
of floats and writes its points in one pass of plain float arithmetic, so
rendering needs neither numpy nor a plotting library.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

COLORS = ("#000000", "#c0392b", "#2a6fb0", "#1e8a4c", "#8a6d1e", "#7d3bb0")
DASHES = ("", "8 4", "2 3", "8 3 2 3", "5 2", "1 2")
WIDTH, HEIGHT = 720, 480  # px
TICKS = 6  # ticks aimed at per axis


def nice_ticks(lo: float, hi: float):
    """1-2-5 tick positions covering [lo, hi]."""
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + (abs(lo) if lo != 0.0 else 1.0)
    span = hi - lo
    raw = span / (TICKS - 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks or [lo, hi]


def _fmt_tick(value: float) -> str:
    if value == 0.0:
        return "0"
    if 1e-3 <= abs(value) < 1e4:
        return f"{value:g}"
    return f"{value:.2e}"


class Curve(NamedTuple):
    x: list
    y: list
    label: str
    color: str
    dash: str


class LineChart:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.curves = []

    def add(self, x, y, label=""):
        index = len(self.curves)
        self.curves.append(
            Curve(
                x=list(map(float, x)),
                y=list(map(float, y)),
                label=label,
                color=COLORS[index % len(COLORS)],
                dash=DASHES[index % len(DASHES)],
            )
        )
        return self

    def to_svg(self) -> str:
        margin_l, margin_r, margin_t, margin_b = 86, 24, 40, 58
        plot_w = WIDTH - margin_l - margin_r
        plot_h = HEIGHT - margin_t - margin_b

        xs = [v for c in self.curves for v in c.x if math.isfinite(v)]
        ys = [v for c in self.curves for v in c.y if math.isfinite(v)]
        x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
        y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
        if x_hi == x_lo:
            x_hi = x_lo + (abs(x_lo) or 1.0)
        if y_hi == y_lo:
            pad = abs(y_lo) or 1.0
            y_lo, y_hi = y_lo - 0.05 * pad, y_hi + 0.05 * pad
        else:
            pad = 0.04 * (y_hi - y_lo)
            y_lo, y_hi = y_lo - pad, y_hi + pad

        # ticks and curve points share these expressions (inlined for the points),
        # which keeps their rounding alike
        x_span, y_span, y_base = x_hi - x_lo, y_hi - y_lo, margin_t + plot_h

        def px(v):
            return margin_l + (v - x_lo) / x_span * plot_w

        def py(v):
            return y_base - (v - y_lo) / y_span * plot_h

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{self.title}</text>',
        ]

        # axes box
        parts.append(
            f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
            f'fill="none" stroke="#404040" stroke-width="1"/>'
        )
        for t in nice_ticks(x_lo, x_hi):
            if not x_lo <= t <= x_hi:
                continue
            x = px(t)
            parts.append(
                f'<line x1="{x:.1f}" y1="{margin_t + plot_h}" x2="{x:.1f}" '
                f'y2="{margin_t + plot_h + 5}" stroke="#404040"/>'
            )
            parts.append(
                f'<text x="{x:.1f}" y="{margin_t + plot_h + 19}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
            )
        for t in nice_ticks(y_lo, y_hi):
            if not y_lo <= t <= y_hi:
                continue
            y = py(t)
            parts.append(
                f'<line x1="{margin_l - 5}" y1="{y:.1f}" x2="{margin_l}" y2="{y:.1f}" '
                f'stroke="#404040"/>'
            )
            parts.append(
                f'<text x="{margin_l - 8}" y="{y + 4:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt_tick(t)}</text>'
            )
        parts.append(
            f'<text x="{margin_l + plot_w / 2:.1f}" y="{HEIGHT - 14}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">{self.xlabel}</text>'
        )
        parts.append(
            f'<text x="20" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 20 {margin_t + plot_h / 2:.1f})">{self.ylabel}</text>'
        )

        isfinite = math.isfinite
        for curve in self.curves:
            points = " ".join(
                "%.2f,%.2f" % (
                    margin_l + (x - x_lo) / x_span * plot_w,
                    y_base - (y - y_lo) / y_span * plot_h,
                )
                for x, y in zip(curve.x, curve.y)
                if isfinite(x) and isfinite(y)
            )
            dash = f' stroke-dasharray="{curve.dash}"' if curve.dash else ""
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{curve.color}" '
                f'stroke-width="1.6"{dash}/>'
            )

        labelled = [c for c in self.curves if c.label]
        if labelled:
            lx, ly = margin_l + plot_w - 170, margin_t + 10
            parts.append(
                f'<rect x="{lx - 8}" y="{ly - 4}" width="178" height="{18 * len(labelled) + 8}" '
                f'fill="#ffffff" fill-opacity="0.85" stroke="#b0b0b0"/>'
            )
            for i, curve in enumerate(labelled):
                yy = ly + 10 + 18 * i
                dash = f' stroke-dasharray="{curve.dash}"' if curve.dash else ""
                parts.append(
                    f'<line x1="{lx}" y1="{yy}" x2="{lx + 26}" y2="{yy}" '
                    f'stroke="{curve.color}" stroke-width="1.6"{dash}/>'
                )
                parts.append(
                    f'<text x="{lx + 32}" y="{yy + 4}" font-family="sans-serif" '
                    f'font-size="11">{curve.label}</text>'
                )

        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def write(self, path):
        Path(path).write_text(self.to_svg(), encoding="utf-8")
