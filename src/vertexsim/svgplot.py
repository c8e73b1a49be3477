"""Tiny static SVG charts (scatter and line), no plotting dependency.

Only what the CLI needs: one axes box, linear scales, round ticks, a few
series with distinct markers and an inline legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_WIDTH, _HEIGHT = 640, 440  # pixels
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


@dataclass
class Series:
    xs: list[float]
    ys: list[float]
    label: str = ""
    kind: str = "scatter"  # or "line"


@dataclass
class Chart:
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    series: list[Series] = field(default_factory=list)

    def add(self, xs, ys, label="", kind="scatter"):
        self.series.append(Series(list(map(float, xs)), list(map(float, ys)), label, kind))


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


def render(chart: Chart) -> str:
    pad_l, pad_r, pad_t, pad_b = 64, 16, 34, 46
    w, h = _WIDTH, _HEIGHT
    xs = [x for s in chart.series for x in s.xs]
    ys = [y for s in chart.series for y in s.ys if math.isfinite(y)]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    mx = 0.04 * (x1 - x0)
    my = 0.06 * (y1 - y0)
    x0, x1, y0, y1 = x0 - mx, x1 + mx, y0 - my, y1 + my

    def sx(x):
        return pad_l + (x - x0) / (x1 - x0) * (w - pad_l - pad_r)

    def sy(y):
        return h - pad_b - (y - y0) / (y1 - y0) * (h - pad_t - pad_b)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{pad_l}" y="{pad_t}" width="{w - pad_l - pad_r}" '
        f'height="{h - pad_t - pad_b}" fill="none" stroke="#333"/>',
    ]
    if chart.title:
        parts.append(f'<text x="{w / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-size="14">{_esc(chart.title)}</text>')
    for t in _ticks(x0, x1):
        if x0 <= t <= x1:
            parts.append(f'<line x1="{sx(t):.1f}" y1="{h - pad_b}" x2="{sx(t):.1f}" '
                         f'y2="{h - pad_b + 5}" stroke="#333"/>')
            parts.append(f'<text x="{sx(t):.1f}" y="{h - pad_b + 18}" '
                         f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y0, y1):
        if y0 <= t <= y1:
            parts.append(f'<line x1="{pad_l - 5}" y1="{sy(t):.1f}" x2="{pad_l}" '
                         f'y2="{sy(t):.1f}" stroke="#333"/>')
            parts.append(f'<text x="{pad_l - 8}" y="{sy(t) + 4:.1f}" '
                         f'text-anchor="end">{t:g}</text>')
    if chart.xlabel:
        parts.append(f'<text x="{(pad_l + w - pad_r) / 2:.1f}" y="{h - 10}" '
                     f'text-anchor="middle">{_esc(chart.xlabel)}</text>')
    if chart.ylabel:
        cy = (pad_t + h - pad_b) / 2
        parts.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {cy:.1f})">{_esc(chart.ylabel)}</text>')

    for i, s in enumerate(chart.series):
        color = _COLORS[i % len(_COLORS)]
        pts = [(sx(x), sy(y)) for x, y in zip(s.xs, s.ys) if math.isfinite(y)]
        if s.kind == "line" and len(pts) > 1:
            path = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        else:
            for px, py in pts:
                parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}" '
                             f'fill-opacity="0.75"/>')
        if s.label:
            ly = pad_t + 16 + 16 * i
            parts.append(f'<rect x="{w - pad_r - 120}" y="{ly - 9}" width="10" height="10" '
                         f'fill="{color}"/>')
            parts.append(f'<text x="{w - pad_r - 105}" y="{ly}">{_esc(s.label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
