"""Dependency-free SVG scatter and line charts for CLI artifacts."""

from __future__ import annotations

import math
from html import escape

WIDTH, HEIGHT = 640, 480
MARGIN = 60
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


class SvgChart:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []  # (name, kind, xs, ys)

    def add_series(self, name: str, xs, ys, kind: str = "scatter"):
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if len(xs) != len(ys):
            raise ValueError("x and y lengths differ")
        self.series.append((name, kind, xs, ys))

    def render(self) -> str:
        all_x = [v for _, _, xs, _ in self.series for v in xs] or [0.0, 1.0]
        all_y = [v for _, _, _, ys in self.series for v in ys] or [0.0, 1.0]
        x_lo, x_hi = min(all_x), max(all_x)
        y_lo, y_hi = min(all_y), max(all_y)
        if x_hi == x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad_x = 0.05 * (x_hi - x_lo)
        pad_y = 0.05 * (y_hi - y_lo)
        x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
        y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

        def sx(v):
            return MARGIN + (v - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

        def sy(v):
            return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-size="16">{escape(self.title, quote=False)}</text>',
        ]
        # axes
        parts.append(
            f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
            f'y2="{HEIGHT - MARGIN}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
            f'y2="{HEIGHT - MARGIN}" stroke="black"/>'
        )
        for t in _ticks(x_lo, x_hi):
            parts.append(
                f'<line x1="{sx(t):.1f}" y1="{HEIGHT - MARGIN}" x2="{sx(t):.1f}" '
                f'y2="{HEIGHT - MARGIN + 5}" stroke="black"/>'
                f'<text x="{sx(t):.1f}" y="{HEIGHT - MARGIN + 18}" '
                f'text-anchor="middle" font-size="10">{t:g}</text>'
            )
        for t in _ticks(y_lo, y_hi):
            parts.append(
                f'<line x1="{MARGIN - 5}" y1="{sy(t):.1f}" x2="{MARGIN}" '
                f'y2="{sy(t):.1f}" stroke="black"/>'
                f'<text x="{MARGIN - 8}" y="{sy(t):.1f}" text-anchor="end" '
                f'font-size="10">{t:g}</text>'
            )
        parts.append(
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 16}" text-anchor="middle" '
            f'font-size="12">{escape(self.xlabel, quote=False)}</text>'
        )
        parts.append(
            f'<text x="18" y="{HEIGHT / 2}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 18 {HEIGHT / 2})">{escape(self.ylabel, quote=False)}</text>'
        )
        # series
        for idx, (name, kind, xs, ys) in enumerate(self.series):
            color = PALETTE[idx % len(PALETTE)]
            if kind == "line":
                points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
                parts.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>'
                )
            for x, y in zip(xs, ys):
                parts.append(
                    f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" '
                    f'fill="{color}" fill-opacity="0.7"/>'
                )
            # legend entry
            ly = MARGIN + 16 * idx
            parts.append(
                f'<rect x="{WIDTH - MARGIN - 110}" y="{ly - 8}" width="10" '
                f'height="10" fill="{color}"/>'
                f'<text x="{WIDTH - MARGIN - 95}" y="{ly + 1}" '
                f'font-size="11">{escape(name, quote=False)}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
