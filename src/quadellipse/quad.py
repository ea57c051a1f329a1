"""Convex quadrilaterals: validation, classification flags, the diagonal
frame, the canonical (s, t) form, diagonal midpoints, and parallelogram
frames.

The canonical form places one vertex at the origin, its two neighbors at
(1, 0) and (0, 1), and the opposite vertex at (s, t) with s + t > 1 and
s != 1 != t. Every convex non-trapezoid admits such a form; trapezoids are
refused because one of s, t degenerates to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    CanonicalFormViolated,
    DegenerateVertices,
    IsTrapezoid,
    NotConvex,
    NotParallelogram,
)
from .geom import AffineMap, Line, Point, cross2, distance, dot2, midpoint, sub2

# Opposite sides count as parallel when their cross product is below this
# multiple of the product of their lengths.
PARALLEL_RTOL = 1e-10

# Pitot test tolerance for the tangential flag, relative to the perimeter.
PITOT_RTOL = 1e-9

_COINCIDENT_RTOL = 1e-12
_COLLINEAR_RTOL = 1e-12


@dataclass(frozen=True)
class ConvexQuad:
    """A strictly convex quadrilateral.

    Vertices are ordered counterclockwise starting from the lexicographically
    smallest, exactly as produced by validate().
    """

    vertices: tuple[Point, Point, Point, Point]
    is_parallelogram: bool
    is_trapezoid: bool
    is_tangential: bool

    def side_vectors(self) -> tuple[Point, Point, Point, Point]:
        v = self.vertices
        return tuple(sub2(v[(i + 1) % 4], v[i]) for i in range(4))

    def sides(self) -> tuple[Line, Line, Line, Line]:
        """Side lines in vertex order; normals point into the quad."""
        v = self.vertices
        return tuple(Line.through(v[i], v[(i + 1) % 4]) for i in range(4))

    def diameter(self) -> float:
        v = self.vertices
        return max(distance(v[i], v[j]) for i in range(4) for j in range(i + 1, 4))


@dataclass(frozen=True)
class NormalizedQuad:
    """Canonical (s, t) form together with the maps between frames.

    to_canonical sends the anchored quad onto (0,0), (1,0), (s,t), (0,1);
    from_canonical is its inverse.
    """

    s: float
    t: float
    to_canonical: AffineMap
    from_canonical: AffineMap


@dataclass(frozen=True)
class ParallelogramFrame:
    """Parallelogram with vertices (0,0), (l,0), (d+l,k), (d,k), l,k > 0,
    d >= 0, plus the rigid placement mapping the frame onto the input."""

    l: float
    k: float
    d: float
    placement: AffineMap

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """Frame vertices in counterclockwise order from the origin."""
        return ((0.0, 0.0), (self.l, 0.0), (self.d + self.l, self.k), (self.d, self.k))

    def placed_corners(self) -> tuple[Point, Point, Point, Point]:
        return tuple(self.placement(p) for p in self.corners())


def validate(points) -> ConvexQuad:
    """Check four points for strict convexity and orient them.

    Vertices are reordered counterclockwise (angular sort about the
    centroid) starting from the lexicographically smallest. Coincident or
    collinear triples raise DegenerateVertices; a point set that is not in
    convex position raises NotConvex. The six vertex distances and the four
    side lengths are each computed once and shared by every test using them.
    """
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
        if z < 0.0:
            raise NotConvex("vertices are not in convex position")
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


def quad_area(q: ConvexQuad) -> float:
    """Half the cross product of the diagonals; positive for the
    counterclockwise vertex order.

    Unlike the shoelace sum, it multiplies only vertex differences, so a
    quad far from the origin keeps its digits.
    """
    v = q.vertices
    return 0.5 * cross2(sub2(v[2], v[0]), sub2(v[3], v[1]))


def diagonal_frame(q: ConvexQuad) -> tuple[float, float, AffineMap]:
    """Where the diagonals cross, and the affine map built on them.

    The diagonals meet at P = v0 + alpha (v2 - v0) = v1 + beta (v3 - v1),
    with alpha, beta in (0, 1) from Cramer's rule on vertex differences.
    ``back`` maps (x, y) to P + x (v2 - v0) + y (v3 - v1), so the frame quad
    (-alpha, 0), (0, -beta), (1 - alpha, 0), (0, 1 - beta) of frame_vertices
    is carried onto q, vertex for vertex. Its diagonals are perpendicular
    unit segments and its area is exactly 1/2: scale, placement and aspect
    are gone, and only (alpha, beta) describe the shape. Parallelograms are
    alpha = beta = 1/2; trapezoids have alpha = beta or alpha + beta = 1.
    """
    alpha, beta = diagonal_ratios(q)
    v0, v1, v2, v3 = q.vertices
    d1, d2 = sub2(v2, v0), sub2(v3, v1)
    back = AffineMap(d1[0], d2[0], d1[1], d2[1], v0[0] + alpha * d1[0], v0[1] + alpha * d1[1])
    return alpha, beta, back


def diagonal_ratios(q: ConvexQuad) -> tuple[float, float]:
    """(alpha, beta) of diagonal_frame, without building its map."""
    v0, v1, v2, v3 = q.vertices
    d1, d2, w = sub2(v2, v0), sub2(v3, v1), sub2(v1, v0)
    det = cross2(d1, d2)
    return cross2(w, d2) / det, cross2(w, d1) / det


def frame_vertices(alpha: float, beta: float) -> tuple[Point, Point, Point, Point]:
    """Vertices of the diagonal-frame quad, in the input's vertex order."""
    return ((-alpha, 0.0), (0.0, -beta), (1.0 - alpha, 0.0), (0.0, 1.0 - beta))


def diagonal_midpoints(q: ConvexQuad) -> tuple[Point, Point]:
    """Midpoints (M1, M2) of the two diagonals.

    M1 belongs to the diagonal joining the second and fourth vertices of the
    counterclockwise order, M2 to the one through the first vertex. In the
    canonical frame this makes M1 = (1/2, 1/2) and M2 = (s/2, t/2).
    """
    v = q.vertices
    return (midpoint(v[1], v[3]), midpoint(v[0], v[2]))


def _anchor_index(q: ConvexQuad) -> int:
    """Vertex whose interior angle is closest to a right angle.

    The canonical frame has a right angle at the origin, so anchoring at the
    most nearly right-angled vertex makes canonical inputs round-trip
    exactly. Minimizing |cos| needs no arccos; ties go to the earliest
    counterclockwise index.
    """
    v = q.vertices
    best, best_val = 0, math.inf
    for i in range(4):
        u = sub2(v[(i + 1) % 4], v[i])
        w = sub2(v[(i + 3) % 4], v[i])
        val = abs(dot2(u, w)) / (math.hypot(*u) * math.hypot(*w))
        if val < best_val:
            best, best_val = i, val
    return best


def require_canonical_pair(s: float, t: float) -> None:
    """Raise CanonicalFormViolated unless (s, t) is the far vertex of a
    canonical quad: s, t > 0, s + t > 1 and s != 1 != t."""
    if not (s > 0.0 and t > 0.0 and s + t > 1.0) or s == 1.0 or t == 1.0:
        raise CanonicalFormViolated(
            f"(s, t) = ({s}, {t}) must satisfy s, t > 0, s + t > 1, s != 1 != t"
        )


def normalize(q: ConvexQuad) -> NormalizedQuad:
    """Affinely map a convex non-trapezoid onto its canonical (s, t) form.

    The anchor vertex goes to the origin, its counterclockwise successor to
    (1, 0), its predecessor to (0, 1), and the opposite vertex to (s, t).
    (s, t) come from Cramer's rule on vertex differences, so a quad far from
    the origin keeps its digits. Trapezoids (including parallelograms) are
    refused.
    """
    if q.is_trapezoid or q.is_parallelogram:
        raise IsTrapezoid(
            "canonical (s, t) form requires a non-trapezoid; parallelograms "
            "use parallelogram_frame instead"
        )
    i = _anchor_index(q)
    v = q.vertices
    anchor = v[i]
    e1 = sub2(v[(i + 1) % 4], anchor)
    e2 = sub2(v[(i + 3) % 4], anchor)
    far = sub2(v[(i + 2) % 4], anchor)
    det = cross2(e1, e2)
    s, t = cross2(far, e2) / det, cross2(e1, far) / det
    from_canonical = AffineMap(e1[0], e2[0], e1[1], e2[1], anchor[0], anchor[1])
    to_canonical = from_canonical.inverse()
    require_canonical_pair(s, t)
    return NormalizedQuad(s=s, t=t, to_canonical=to_canonical, from_canonical=from_canonical)


def parallelogram_frame(q: ConvexQuad) -> ParallelogramFrame:
    """Extract (l, k, d) and the rigid placement of a parallelogram.

    The base side is chosen so the shear d is nonnegative; the placement is
    a rotation plus translation (determinant +1) taking the frame corners
    onto the input vertices.
    """
    if not q.is_parallelogram:
        raise NotParallelogram("parallelogram_frame requires both opposite side pairs parallel")
    v = q.vertices
    frames = []
    for base in (0, 1):
        a = v[base]
        u = sub2(v[(base + 1) % 4], a)
        w = sub2(v[(base + 3) % 4], a)
        l = math.hypot(*u)
        theta = math.atan2(u[1], u[0])
        ct, st = math.cos(theta), math.sin(theta)
        d = ct * w[0] + st * w[1]
        k = -st * w[0] + ct * w[1]
        if abs(d) <= 1e-12 * l:
            d = 0.0
        frame = ParallelogramFrame(l=l, k=k, d=d, placement=AffineMap(ct, -st, st, ct, a[0], a[1]))
        if d >= 0.0:
            return frame
        frames.append(frame)
    # An exact parallelogram has a base with d >= 0. Within the flag's
    # tolerance both shears can come out slightly negative: take the larger
    # and snap it to 0.
    return replace(max(frames, key=lambda f: f.d), d=0.0)
