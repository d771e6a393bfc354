"""Write-only SVG pictures of planar horoball families and geodesics.

Horoballs draw as circles tangent to the boundary line, the reference
horosphere as a horizontal line, vertical geodesics as segments and arc
geodesics as semicircular paths.  Output is plain SVG 1.1 text.
"""

from __future__ import annotations

import math
from typing import Optional

from .halfspace import (
    ArcGeodesic,
    AtInfinityHoroball,
    Geodesic,
    TangentHoroball,
    VerticalGeodesic,
)
from .packings import HoroballFamily

#: picture width in pixels
WIDTH = 800

_STYLE_BALL = 'fill="#9ecae1" fill-opacity="0.55" stroke="#3182bd" stroke-width="{w}"'
_STYLE_GEO = 'fill="none" stroke="#d7301f" stroke-width="{w}"'
_STYLE_REF = 'stroke="#555555" stroke-width="{w}" stroke-dasharray="{d},{d}"'


class _View:
    """Maps model coordinates (x up-positive height) onto SVG pixels."""

    def __init__(self, x_lo, x_hi, y_hi):
        self.x_lo, self.x_hi = x_lo, x_hi
        span = x_hi - x_lo
        self.k = WIDTH / span
        self.width = WIDTH
        self.height = y_hi * self.k
        self.y_hi = y_hi

    def x(self, x):
        return (float(x) - self.x_lo) * self.k

    def y(self, y):
        return self.height - float(y) * self.k


def family_svg(fam: HoroballFamily,
               geodesics: Optional[list[Geodesic]] = None) -> str:
    """SVG picture of a planar family with optional geodesics on top."""
    if fam.dim != 2:
        raise ValueError("can only render planar families")
    tangs = [h for h in fam.horoballs if isinstance(h, TangentHoroball)]
    if not tangs:
        raise ValueError("nothing to draw")
    x_lo = min(float(h.base[0]) - 2 * float(h.radius) for h in tangs)
    x_hi = max(float(h.base[0]) + 2 * float(h.radius) for h in tangs)
    y_hi = max(max(2 * float(h.radius) for h in tangs), 1.2)
    pad = 0.05 * (x_hi - x_lo)
    view = _View(x_lo - pad, x_hi + pad, y_hi * 1.1)
    lw = max(0.75, WIDTH / 1200)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{view.width:.0f}" height="{view.height:.0f}" '
        f'viewBox="0 0 {view.width:.2f} {view.height:.2f}">',
        f'<line x1="0" y1="{view.y(0):.2f}" x2="{view.width:.2f}" '
        f'y2="{view.y(0):.2f}" stroke="#000" stroke-width="{lw}"/>',
    ]
    for h in fam.horoballs:
        if isinstance(h, AtInfinityHoroball):
            parts.append(
                f'<line x1="0" y1="{view.y(h.height):.2f}" '
                f'x2="{view.width:.2f}" y2="{view.y(h.height):.2f}" '
                + _STYLE_REF.format(w=lw, d=4 * lw) + "/>")
        else:
            r = float(h.radius) * view.k
            parts.append(
                f'<circle cx="{view.x(h.base[0]):.2f}" '
                f'cy="{view.y(float(h.radius)):.2f}" r="{r:.2f}" '
                + _STYLE_BALL.format(w=lw) + "/>")
    for g in geodesics or []:
        parts.append(_geodesic_svg(g, view, lw))
    parts.append("</svg>")
    return "\n".join(parts)


def _geodesic_svg(g: Geodesic, view: _View, lw: float) -> str:
    if isinstance(g, VerticalGeodesic):
        x = view.x(g.foot[0])
        lo, hi = g.param_range
        y_top = view.y_hi if math.isinf(hi) else math.exp(hi)
        y_bot = 0.0 if math.isinf(lo) else math.exp(lo)
        return (f'<line x1="{x:.2f}" y1="{view.y(y_bot):.2f}" '
                f'x2="{x:.2f}" y2="{view.y(y_top):.2f}" '
                + _STYLE_GEO.format(w=lw) + "/>")
    assert isinstance(g, ArcGeodesic)
    lo, hi = g.param_range
    if math.isinf(lo) and math.isinf(hi):
        a, b = float(g.a[0]), float(g.b[0])
        r = abs(b - a) / 2 * view.k
        return (f'<path d="M {view.x(a):.2f} {view.y(0):.2f} '
                f'A {r:.2f} {r:.2f} 0 0 {1 if b < a else 0} '
                f'{view.x(b):.2f} {view.y(0):.2f}" '
                + _STYLE_GEO.format(w=lw) + "/>")
    # restricted arc: draw as a polyline sample
    lo = max(lo, -20.0)
    hi = min(hi, 20.0)
    pts = []
    for k in range(161):
        p = g.point_at(lo + (hi - lo) * k / 160)
        pts.append(f"{view.x(p.base[0]):.2f},{view.y(p.height):.2f}")
    return ('<polyline points="' + " ".join(pts) + '" '
            + _STYLE_GEO.format(w=lw) + "/>")
