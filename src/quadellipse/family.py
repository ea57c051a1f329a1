"""Families of ellipses inscribed in convex quadrilaterals.

Closed-form one-parameter families for rectangles and parallelograms, the
center locus and area profile in the canonical (s, t) frame, the dual-pencil
construction that produces the unique inscribed ellipse at any admissible
center, and the maximal-area member.

The dual pencil: tangency to all four side lines means the dual conic passes
through four fixed dual points. That pencil is spanned by the two degenerate
dual members built from the diagonals, sym(v1, v3) and sym(v0, v2); with
homogeneous vertices (x, y, 1) the pole of the line at infinity of the
combination (1 - lam) * sym(v1, v3) + lam * sym(v0, v2) is just its third
column, so the center is the affine combination (1 - lam) * M1 + lam * M2 of
the diagonal midpoints and the pencil parameter solves a linear condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conic import (
    ConicCoeffs,
    ConicKind,
    EllipseGeom,
    TangencyKind,
    classify_conic,
    conic_to_ellipse,
    conic_transform,
    ellipse_area,
    ellipse_area_of_coeffs,
    line_tangency,
)
from .errors import (
    CanonicalFormViolated,
    CenterOffLocus,
    IsParallelogram,
    OptimizationFailed,
    ParameterOutOfRange,
    TrapezoidUnsupported,
)
from .geom import AffineMap, Line, Point, golden_max, quadratic_roots
from .quad import (
    ConvexQuad,
    ParallelogramFrame,
    diagonal_midpoints,
    normalize,
    parallelogram_frame,
)

# Near t = 1 the closed-form critical abscissa cancels catastrophically; the
# stationarity quadratic is solved directly instead below this threshold.
_T_NEAR_ONE = 1e-8

_LAM_EDGE = 1e-12


@dataclass(frozen=True)
class CenterLocus:
    """Open segment of admissible inscribed-ellipse centers, canonical frame.

    The segment joins the diagonal midpoints m1 = (1/2, 1/2) and
    m2 = (s/2, t/2); its supporting line is y = line_at(x) and the admissible
    abscissas form the open interval with endpoints 1/2 and s/2.
    """

    s: float
    t: float
    m1: Point
    m2: Point

    def line_at(self, x: float) -> float:
        return 0.5 * (self.s - self.t + 2.0 * x * (self.t - 1.0)) / (self.s - 1.0)

    def line(self) -> Line:
        return Line.through(self.m1, self.m2)

    def interval(self) -> tuple[float, float]:
        lo, hi = 0.5, 0.5 * self.s
        return (lo, hi) if lo <= hi else (hi, lo)


@dataclass(frozen=True)
class InscribedMember:
    """One inscribed ellipse of a quadrilateral family.

    ``parameter`` is the family coordinate named by ``param_kind``: "h" for
    the canonical-frame center abscissa of a general quad, "v" for the
    tangency height on a parallelogram frame, "pencil" for the raw dual
    pencil parameter (used for trapezoids, which have no canonical frame).
    ``tangency`` holds one point per side, in side order.
    """

    parameter: float
    param_kind: str
    conic: ConicCoeffs
    geom: EllipseGeom
    tangency: tuple[Point, Point, Point, Point]


def _validate_eq3(s: float, t: float) -> None:
    if not (s > 0.0 and t > 0.0 and s + t > 1.0) or s == 1.0 or t == 1.0:
        raise CanonicalFormViolated(
            f"(s, t) = ({s}, {t}) must satisfy s, t > 0, s + t > 1, s != 1 != t"
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
        param_kind="v",
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
        - 2 k^2 l v x + 2 k l v (d - l) y + k l^2 v^2 = 0.
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
    corners = ((0.0, 0.0), (l, 0.0), (dl, k), (d, k))
    tangency = []
    for i in range(4):
        side = Line.through(corners[i], corners[(i + 1) % 4])
        res = line_tangency(conic, side)
        if res.kind is not TangencyKind.TANGENT:  # pragma: no cover
            raise OptimizationFailed(f"family member failed tangency on side {i}")
        tangency.append(res.point)
    return InscribedMember(
        parameter=v,
        param_kind="v",
        conic=conic,
        geom=conic_to_ellipse(conic),
        tangency=tuple(tangency),
    )


def _place_member(member: InscribedMember, placement: AffineMap) -> InscribedMember:
    """Push a frame-coordinate member through the frame placement.

    Rigid placements carry the semi-axes over exactly; re-deriving them from
    the transformed conic loses digits to the placement offset.
    """
    conic = conic_transform(member.conic, placement)
    if placement.is_rigid():
        theta = math.atan2(placement.m10, placement.m00)
        g = member.geom
        geom = EllipseGeom(
            center=placement(g.center), a=g.a, b=g.b, phi=(g.phi + theta) % math.pi
        )
    else:
        geom = conic_to_ellipse(conic)
    return InscribedMember(
        parameter=member.parameter,
        param_kind=member.param_kind,
        conic=conic,
        geom=geom,
        tangency=tuple(placement(p) for p in member.tangency),
    )


def midpoint_ellipse(frame: ParallelogramFrame) -> InscribedMember:
    """The inscribed ellipse tangent at the four side midpoints.

    This is the v = k/2 member of the frame family, pushed through the rigid
    placement. It is the unique maximal-area inscribed ellipse of the
    parallelogram, with area (pi/4) * l * k, a quarter-pi of the
    parallelogram area.
    """
    return _place_member(
        parallelogram_family(frame.l, frame.k, frame.d, 0.5 * frame.k), frame.placement
    )


def locus_line(s: float, t: float) -> CenterLocus:
    """Center locus of the inscribed family in the canonical (s, t) frame."""
    _validate_eq3(s, t)
    return CenterLocus(s=s, t=t, m1=(0.5, 0.5), m2=(0.5 * s, 0.5 * t))


def area_sq(h: float, s: float, t: float) -> float:
    """Squared area of the inscribed ellipse centered at abscissa h.

    area^2(h) = (pi^2 / (4 (s-1)^2)) * (2h - 1)(s - 2h)(s + 2h(t - 1)) on the
    closed interval with endpoints 1/2 and s/2; both endpoints give zero.
    """
    _validate_eq3(s, t)
    lo, hi = locus_line(s, t).interval()
    span = hi - lo
    if h < lo - 1e-12 * max(span, 1.0) or h > hi + 1e-12 * max(span, 1.0):
        raise ParameterOutOfRange(f"abscissa h = {h} outside [{lo}, {hi}]")
    sm1 = s - 1.0
    poly = (2.0 * h - 1.0) * (s - 2.0 * h) * (s + 2.0 * h * (t - 1.0))
    return (math.pi * math.pi / (4.0 * sm1 * sm1)) * poly


def max_area_param(s: float, t: float) -> float:
    """Abscissa of the maximal-area member in the canonical frame.

    Closed form of the interior stationary point of area_sq:

        h = (st + t - 2s - 1 + sqrt((t-1)^2 + s^2 (t^2 - t + 1)
             - s (t^2 - 3t + 2))) / (6 (t - 1)).

    Near t = 1 the expression cancels; the cubic's stationarity quadratic is
    solved directly there and the root inside the admissible interval is
    returned.
    """
    _validate_eq3(s, t)
    lo, hi = locus_line(s, t).interval()
    if abs(t - 1.0) >= _T_NEAR_ONE:
        rad = (t - 1.0) ** 2 + s * s * (t * t - t + 1.0) - s * (t * t - 3.0 * t + 2.0)
        h = (s * t + t - 2.0 * s - 1.0 + math.sqrt(rad)) / (6.0 * (t - 1.0))
        return h
    qa = -24.0 * (t - 1.0)
    qb = 8.0 * ((s + 1.0) * (t - 1.0) - s)
    qc = 2.0 * s * (s + 2.0 - t)
    margin = 1e-9 * max(hi - lo, 1.0)
    for root in quadratic_roots(qa, qb, qc):
        if lo - margin <= root <= hi + margin:
            return root
    raise OptimizationFailed("no stationary point inside the center interval")  # pragma: no cover


def _sym3_points(p: Point, q: Point) -> tuple[float, float, float, float, float, float]:
    """Entries (n00, n01, n02, n11, n12, n22) of sym(P Q^T) for homogeneous
    points P = (px, py, 1), Q = (qx, qy, 1)."""
    return (
        p[0] * q[0],
        0.5 * (p[0] * q[1] + p[1] * q[0]),
        0.5 * (p[0] + q[0]),
        p[1] * q[1],
        0.5 * (p[1] + q[1]),
        1.0,
    )


def _adjugate_conic(n00, n01, n02, n11, n12, n22) -> ConicCoeffs:
    return ConicCoeffs(
        a=n11 * n22 - n12 * n12,
        b=n00 * n22 - n02 * n02,
        c=n02 * n12 - n01 * n22,
        d=2.0 * (n01 * n12 - n02 * n11),
        e=2.0 * (n01 * n02 - n00 * n12),
        f=n00 * n11 - n01 * n01,
    )


def _pencil_conic(vertices: tuple[Point, Point, Point, Point], lam: float) -> ConicCoeffs:
    v0, v1, v2, v3 = vertices
    na = _sym3_points(v1, v3)
    nb = _sym3_points(v0, v2)
    mu = 1.0 - lam
    return _adjugate_conic(*(mu * x + lam * y for x, y in zip(na, nb)))


def ellipse_at_center(q: ConvexQuad, center: Point) -> InscribedMember:
    """The unique inscribed ellipse of a convex quad with the given center.

    Admissible centers form the open segment between the diagonal midpoints;
    anything off that segment (beyond 1e-9 of the diameter transversally, or
    outside the open range) raises CenterOffLocus. Parallelograms collapse
    the segment to a point and are refused.
    """
    if q.is_parallelogram:
        raise IsParallelogram(
            "parallelogram centers are fixed at the diagonal midpoint; "
            "use midpoint_ellipse on its frame"
        )
    m1, m2 = diagonal_midpoints(q)
    sx, sy = m2[0] - m1[0], m2[1] - m1[1]
    wx, wy = center[0] - m1[0], center[1] - m1[1]
    seg2 = sx * sx + sy * sy
    lam = (wx * sx + wy * sy) / seg2
    off = math.hypot(wx - lam * sx, wy - lam * sy)
    if off > 1e-9 * q.diameter():
        raise CenterOffLocus(
            f"center {center} lies {off:.3g} off the diagonal-midpoint segment"
        )
    if not (_LAM_EDGE < lam < 1.0 - _LAM_EDGE):
        raise CenterOffLocus(
            f"center {center} falls outside the open midpoint segment (lam = {lam})"
        )
    # Work about the requested center: the adjugate entries cancel against the
    # coordinate offset, costing several digits on thin or far-away quads.
    cx0, cy0 = center
    local_vertices = tuple((x - cx0, y - cy0) for x, y in q.vertices)
    local = _pencil_conic(local_vertices, lam).canonical()
    if classify_conic(local) is not ConicKind.ELLIPSE:
        raise CenterOffLocus("pencil member at the requested center is not a real ellipse")
    g = conic_to_ellipse(local)
    geom = EllipseGeom(
        center=(g.center[0] + cx0, g.center[1] + cy0), a=g.a, b=g.b, phi=g.phi
    )
    conic = conic_transform(local, AffineMap.translation(cx0, cy0)).canonical()
    tangency = []
    for i in range(4):
        side = Line.through(local_vertices[i], local_vertices[(i + 1) % 4])
        res = line_tangency(local, side)
        if res.kind is not TangencyKind.TANGENT:
            raise CenterOffLocus(
                f"member is not tangent to side {i} (residual {res.residual:.3g})"
            )
        tangency.append((res.point[0] + cx0, res.point[1] + cy0))
    if q.is_trapezoid:
        parameter, kind = lam, "pencil"
    else:
        parameter, kind = normalize(q).to_canonical(center)[0], "h"
    return InscribedMember(
        parameter=parameter,
        param_kind=kind,
        conic=conic,
        geom=geom,
        tangency=tuple(tangency),
    )


def max_area_ellipse(q: ConvexQuad) -> InscribedMember:
    """Maximal-area inscribed ellipse.

    Parallelograms route to the midpoint ellipse. General quads use the
    canonical frame: the maximal member sits at the closed-form abscissa of
    max_area_param, mapped back to the input frame. Non-parallelogram
    trapezoids have no canonical frame and are refused; see
    max_area_by_search for the numerical route.
    """
    if q.is_parallelogram:
        return midpoint_ellipse(parallelogram_frame(q))
    if q.is_trapezoid:
        raise TrapezoidUnsupported(
            "trapezoids lack the canonical (s, t) route; use max_area_by_search"
        )
    nq = normalize(q)
    locus = locus_line(nq.s, nq.t)
    h = max_area_param(nq.s, nq.t)
    center = nq.from_canonical((h, locus.line_at(h)))
    return ellipse_at_center(q, center)


def max_area_by_search(q: ConvexQuad) -> InscribedMember:
    """Maximal-area inscribed ellipse by golden-section over the dual pencil.

    Numerical fallback for quads without the canonical route (trapezoids);
    also a useful cross-check for general quads. Parallelograms are refused
    since their pencil degenerates to the single midpoint member.
    """
    if q.is_parallelogram:
        raise IsParallelogram("the parallelogram family has a single admissible center")
    gx = sum(x for x, _ in q.vertices) / 4.0
    gy = sum(y for _, y in q.vertices) / 4.0
    local_vertices = tuple((x - gx, y - gy) for x, y in q.vertices)

    def area_at(u: float) -> float:
        a = ellipse_area_of_coeffs(*_pencil_conic(local_vertices, u).as_tuple())
        return a if math.isfinite(a) else 0.0

    lam, _ = golden_max(area_at, 0.0, 1.0, tol=1e-12)
    m1, m2 = diagonal_midpoints(q)
    center = (m1[0] + lam * (m2[0] - m1[0]), m1[1] + lam * (m2[1] - m1[1]))
    return ellipse_at_center(q, center)


def family_areas(q: ConvexQuad, count: int) -> list[tuple[float, float, Point]]:
    """Sample (parameter, area, center) along the inscribed family.

    Parallelograms sweep the tangency height v over (0, k); other quads sweep
    the pencil parameter over (0, 1). Rows are in increasing parameter order.
    """
    if count < 1:
        raise ParameterOutOfRange(f"sample count must be positive, got {count}")
    rows: list[tuple[float, float, Point]] = []
    if q.is_parallelogram:
        frame = parallelogram_frame(q)
        for i in range(count):
            v = frame.k * (i + 1.0) / (count + 1.0)
            member = _place_member(
                parallelogram_family(frame.l, frame.k, frame.d, v), frame.placement
            )
            rows.append((v, ellipse_area(member.geom), member.geom.center))
        return rows
    gx = sum(x for x, _ in q.vertices) / 4.0
    gy = sum(y for _, y in q.vertices) / 4.0
    local_vertices = tuple((x - gx, y - gy) for x, y in q.vertices)
    m1, m2 = diagonal_midpoints(q)
    for i in range(count):
        lam = (i + 1.0) / (count + 1.0)
        area = ellipse_area_of_coeffs(*_pencil_conic(local_vertices, lam).as_tuple())
        center = (m1[0] + lam * (m2[0] - m1[0]), m1[1] + lam * (m2[1] - m1[1]))
        rows.append((lam, area, center))
    return rows
