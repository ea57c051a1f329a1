"""Static SVG figures for quads, ellipses, fit lines, and marked points.

Output is deterministic: identical scenes produce identical bytes. The
y-axis is flipped so counterclockwise in math coordinates stays
counterclockwise on screen, and the viewBox pads the content box by 5%.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .conic import EllipseGeom
from .errors import DomainError, EmptyScene
from .geom import Line, Point

_QUAD_STYLE = 'fill="none" stroke="#111827" stroke-width="1.5"'
_ELLIPSE_STYLE = 'fill="none" stroke="#2563eb" stroke-width="1.5"'
_LINE_STYLE = 'stroke="#dc2626" stroke-width="1" stroke-dasharray="6 4"'
_POINT_STYLE = 'fill="#dc2626"'
_POINT_RADIUS = 3.0


class Scene(NamedTuple):
    """Drawable primitives in math coordinates (y up)."""

    quads: tuple[tuple[Point, Point, Point, Point], ...] = ()
    ellipses: tuple[EllipseGeom, ...] = ()
    lines: tuple[Line, ...] = ()
    points: tuple[Point, ...] = ()

    def is_empty(self) -> bool:
        return not (self.quads or self.ellipses or self.lines or self.points)


def _fmt(x: float) -> str:
    # Fixed-width so -0.0 and 0.0 render identically.
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _content_points(scene: Scene) -> list[Point]:
    pts: list[Point] = []
    for quad in scene.quads:
        pts.extend(quad)
    for geom in scene.ellipses:
        cx, cy = geom.center
        pts.append((cx - geom.a, cy - geom.a))
        pts.append((cx + geom.a, cy + geom.a))
    pts.extend(scene.points)
    if not pts:
        # Lines alone carry no scale; anchor the box on each line.
        for line in scene.lines:
            px, py = line.some_point()
            pts.append((px - 1.0, py - 1.0))
            pts.append((px + 1.0, py + 1.0))
    return pts


def _clip_line(line: Line, x0: float, x1: float, y0: float, y1: float):
    """Both intersections of an infinite line with a padded box, or None."""
    eps = 1e-12 * (abs(x1 - x0) + abs(y1 - y0))
    hits: list[Point] = []
    if line.b != 0.0:
        for x in (x0, x1):
            y = -(line.a * x + line.c) / line.b
            if y0 - eps <= y <= y1 + eps:
                hits.append((x, y))
    if line.a != 0.0:
        for y in (y0, y1):
            x = -(line.b * y + line.c) / line.a
            if x0 - eps <= x <= x1 + eps:
                hits.append((x, y))
    if len(hits) < 2:
        return None
    best = max(
        ((p, q) for i, p in enumerate(hits) for q in hits[i + 1 :]),
        key=lambda pq: (pq[0][0] - pq[1][0]) ** 2 + (pq[0][1] - pq[1][1]) ** 2,
    )
    return best


def render_svg(scene: Scene, width: int = 640) -> bytes:
    """Serialize a scene to a standalone SVG document.

    Raises EmptyScene when there is nothing to draw and DomainError when
    any coordinate is not finite.
    """
    if scene.is_empty():
        raise EmptyScene("scene has no primitives to draw")
    pts = _content_points(scene)
    coords = [c for p in pts for c in p]
    for geom in scene.ellipses:
        coords.extend((geom.a, geom.b, geom.phi))
    for line in scene.lines:
        coords.extend((line.a, line.b, line.c))
    if not all(math.isfinite(c) for c in coords):
        raise DomainError("scene contains non-finite coordinates")

    x0 = min(p[0] for p in pts)
    x1 = max(p[0] for p in pts)
    y0 = min(p[1] for p in pts)
    y1 = max(p[1] for p in pts)
    span = max(x1 - x0, y1 - y0)
    if span <= 0.0:
        span = 1.0
        x0 -= 0.5
        x1 += 0.5
        y0 -= 0.5
        y1 += 0.5
    pad = 0.05 * span
    x0 -= pad
    x1 += pad
    y0 -= pad
    y1 += pad
    scale = width / (x1 - x0)
    height = (y1 - y0) * scale

    def to_screen(p: Point) -> tuple[float, float]:
        return ((p[0] - x0) * scale, (y1 - p[1]) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_fmt(height)}" viewBox="0 0 {width} {_fmt(height)}">',
    ]
    for quad in scene.quads:
        joined = " ".join(
            f"{_fmt(sx)},{_fmt(sy)}" for sx, sy in (to_screen(p) for p in quad)
        )
        parts.append(f'<polygon points="{joined}" {_QUAD_STYLE}/>')
    for geom in scene.ellipses:
        cx, cy = to_screen(geom.center)
        # Written as _fmt writes coordinates, to 6 places: no -0.
        angle = f"{-math.degrees(geom.phi):.6f}"
        if angle == "-0.000000":
            angle = "0.000000"
        parts.append(
            f'<ellipse cx="{_fmt(cx)}" cy="{_fmt(cy)}" rx="{_fmt(geom.a * scale)}" '
            f'ry="{_fmt(geom.b * scale)}" {_ELLIPSE_STYLE} '
            f'transform="rotate({angle} {_fmt(cx)} {_fmt(cy)})"/>'
        )
    for line in scene.lines:
        clipped = _clip_line(line, x0, x1, y0, y1)
        if clipped is None:
            continue
        (ax, ay), (bx, by) = (to_screen(p) for p in clipped)
        parts.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" '
            f'y2="{_fmt(by)}" {_LINE_STYLE}/>'
        )
    for point in scene.points:
        sx, sy = to_screen(point)
        parts.append(
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="{_POINT_RADIUS:g}" '
            f"{_POINT_STYLE}/>"
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
