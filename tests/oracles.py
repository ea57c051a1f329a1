"""Test oracles: the paper's rigid-frame inscribed families, and a frozen
copy of quad.validate.

The paper writes the inscribed ellipses of a rectangle [0, l] x [0, k], and
of the parallelogram (0,0), (l,0), (d+l,k), (d,k) sheared from it, as closed
forms in v, the height at which the member touches the left side. The
package builds every member from the dual pencil instead
(quadellipse.family); these formulas are an independent route the tests
compare the pencil against. Their members carry v as ``parameter``, not
the pencil position lam.

reference_validate is quad.validate as it stood before validate became a
single pass over scalar edges: the rewrite must give the same quad, or
the same error with the same message, on every input.
"""

from __future__ import annotations

import math

from quadellipse.conic import ConicCoeffs, conic_to_ellipse
from quadellipse.errors import DegenerateVertices, DomainError, NotConvex, ParameterOutOfRange
from quadellipse.family import InscribedMember
from quadellipse.geom import cross2
from quadellipse.quad import (
    _COINCIDENT_RTOL,
    _COLLINEAR_RTOL,
    _MAX_DIAMETER,
    _MIN_DIAMETER,
    _MIN_NORMAL,
    PARALLEL_RTOL,
    PITOT_RTOL,
    ConvexQuad,
)


def rectangle_family(l: float, k: float, v: float) -> InscribedMember:
    """Inscribed ellipse of the rectangle [0, l] x [0, k] tangent at (0, v).

    Conic: k^2 x^2 + l^2 y^2 - 2 l (k - 2v) x y - 2 l k v x - 2 l^2 v y
    + l^2 v^2 = 0, tangent to the four sides at (lv/k, 0), (l, k - v),
    (l(k - v)/k, k), and (0, v). Valid for 0 < v < k.
    """
    if not (l > 0.0 and k > 0.0):
        raise ParameterOutOfRange("rectangle sides l, k must be positive")
    if not (0.0 < v < k):
        raise ParameterOutOfRange(f"tangency height v = {v} must lie in (0, {k})")
    conic = ConicCoeffs(
        a=k * k,
        b=l * l,
        c=-l * (k - 2.0 * v),
        d=-2.0 * l * k * v,
        e=-2.0 * l * l * v,
        f=l * l * v * v,
    )
    tangency = (
        (l * v / k, 0.0),
        (l, k - v),
        (l * (k - v) / k, k),
        (0.0, v),
    )
    return InscribedMember(
        parameter=v,
        conic=conic,
        geom=conic_to_ellipse(conic),
        tangency=tangency,
    )


def rectangle_semi_axes_sq(l: float, k: float, v: float) -> tuple[float, float]:
    """Closed-form squared semi-axes of the rectangle family member."""
    s2 = k * k + l * l
    root = math.sqrt(s2 * s2 - 16.0 * l * l * (k - v) * v)
    num = 2.0 * l * l * (k - v) * v
    return (num / (s2 - root), num / (s2 + root))


def parallelogram_family(l: float, k: float, d: float, v: float) -> InscribedMember:
    """Inscribed ellipse of the frame parallelogram, tangent at height v.

    The frame has vertices (0,0), (l,0), (d+l,k), (d,k); the member is
    tangent to the left side at the point at height v. Shearing the
    rectangle family gives the conic

        k^3 x^2 + (k (d+l)^2 - 4 d l v) y^2 - 2 k (k (d+l) - 2 l v) x y
        - 2 k^2 l v x + 2 k l v (d - l) y + k l^2 v^2 = 0,

    and its tangency points are the rectangle family's under the same shear
    x -> x + (d/k) y: (lv/k, 0), (l + d(k - v)/k, k - v), (l(k - v)/k + d, k)
    and (dv/k, v).
    """
    if not (l > 0.0 and k > 0.0) or d < 0.0:
        raise ParameterOutOfRange("frame needs l, k > 0 and d >= 0")
    if not (0.0 < v < k):
        raise ParameterOutOfRange(f"tangency height v = {v} must lie in (0, {k})")
    dl = d + l
    conic = ConicCoeffs(
        a=k * k * k,
        b=k * dl * dl - 4.0 * d * l * v,
        c=-k * (k * dl - 2.0 * l * v),
        d=-2.0 * k * k * l * v,
        e=2.0 * k * l * v * (d - l),
        f=k * l * l * v * v,
    )
    tangency = (
        (l * v / k, 0.0),
        (l + d * (k - v) / k, k - v),
        (l * (k - v) / k + d, k),
        (d * v / k, v),
    )
    return InscribedMember(
        parameter=v,
        conic=conic,
        geom=conic_to_ellipse(conic),
        tangency=tangency,
    )


def reference_validate(points) -> ConvexQuad:
    """quad.validate in its earlier form: side vectors in tuples, the
    convexity test in a loop, the parallel tests through cross2."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    if len(pts) != 4:
        raise DegenerateVertices(f"exactly four vertices required, got {len(pts)}")
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts
    if not all(map(math.isfinite, (x0, y0, x1, y1, x2, y2, x3, y3))):
        raise DegenerateVertices("vertices must be finite")
    gaps = (
        math.hypot(x0 - x1, y0 - y1), math.hypot(x0 - x2, y0 - y2), math.hypot(x0 - x3, y0 - y3),
        math.hypot(x1 - x2, y1 - y2), math.hypot(x1 - x3, y1 - y3), math.hypot(x2 - x3, y2 - y3),
    )
    diam = max(gaps)
    if diam == 0.0:
        raise DegenerateVertices("all vertices coincide")
    if not _MIN_DIAMETER <= diam <= _MAX_DIAMETER:
        raise DomainError(
            f"diameter {diam:.3g} is outside [{_MIN_DIAMETER:.3g}, {_MAX_DIAMETER:.3g}]: "
            "products of coordinate differences would leave the normal float range"
        )
    for (i, j), gap in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), gaps):
        if gap < _COINCIDENT_RTOL * diam:
            raise DegenerateVertices(f"vertices {i} and {j} coincide")
    cx = (x0 + x1 + x2 + x3) / 4.0
    cy = (y0 + y1 + y2 + y3) / 4.0
    pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    start = pts.index(min(pts))
    pts = pts[start:] + pts[:start]
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts
    edges = ((x1 - x0, y1 - y0), (x2 - x1, y2 - y1), (x3 - x2, y3 - y2), (x0 - x3, y0 - y3))
    lengths = [math.hypot(*e) for e in edges]
    for i in range(4):
        (ux, uy), (wx, wy) = edges[i], edges[i - 3]
        z = ux * wy - uy * wx
        if abs(z) <= _COLLINEAR_RTOL * lengths[i] * lengths[i - 3]:
            raise DegenerateVertices("three vertices are collinear")
        if z < _MIN_NORMAL:
            if z < 0.0:
                raise NotConvex("vertices are not in convex position")
            raise DomainError(
                f"the triangle at vertex {(i + 1) % 4} has doubled area {z:.3g}, "
                "below the normal float range"
            )
    e0, e1, e2, e3 = edges
    l0, l1, l2, l3 = lengths
    para02 = abs(cross2(e0, e2)) < PARALLEL_RTOL * l0 * l2
    para13 = abs(cross2(e1, e3)) < PARALLEL_RTOL * l1 * l3
    return ConvexQuad(
        vertices=tuple(pts),
        is_parallelogram=para02 and para13,
        is_trapezoid=para02 or para13,
        is_tangential=abs((l0 + l2) - (l1 + l3)) < PITOT_RTOL * (l0 + l1 + l2 + l3),
    )
