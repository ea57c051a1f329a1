"""Families of ellipses inscribed in convex quadrilaterals.

Closed-form one-parameter families for rectangles and parallelograms, the
center locus and area profile in the canonical (s, t) frame, the dual-pencil
construction that produces the unique inscribed ellipse at any admissible
center, and the maximal-area member in closed form for every convex quad.
Members of a given quad are built in its unit frame (quad.unit_frame) and
placed back, so units and placement do not cost digits.

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
    CenterOffLocus,
    IsParallelogram,
    OptimizationFailed,
    ParameterOutOfRange,
)
from .geom import AffineMap, Line, Point, cross2, golden_max, quadratic_roots, sub2
from .quad import (
    ConvexQuad,
    ParallelogramFrame,
    diagonal_midpoints,
    normalize,
    parallelogram_frame,
    require_canonical_pair,
    unit_frame,
)

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
    tangency height on a parallelogram frame, "pencil" for the position lam
    of the center along the diagonal-midpoint segment M1 -> M2 (used for
    trapezoids, which have no canonical frame).
    ``tangency`` holds one point per side, in side order.
    """

    parameter: float
    param_kind: str
    conic: ConicCoeffs
    geom: EllipseGeom
    tangency: tuple[Point, Point, Point, Point]


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
    """Push a frame-coordinate member through a similarity placement (a
    rotation times a uniform scale, plus a shift).

    The semi-axes, and the tangency height of a "v" member, are carried
    over times the scale; re-deriving them from the transformed conic loses
    digits to the placement offset.
    """
    scale = math.hypot(placement.m00, placement.m10)
    theta = math.atan2(placement.m10, placement.m00)
    g = member.geom
    return InscribedMember(
        parameter=member.parameter * scale if member.param_kind == "v" else member.parameter,
        param_kind=member.param_kind,
        conic=conic_transform(member.conic, placement).canonical(),
        geom=EllipseGeom(
            center=placement(g.center), a=g.a * scale, b=g.b * scale, phi=g.phi + theta
        ),
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
    require_canonical_pair(s, t)
    return CenterLocus(s=s, t=t, m1=(0.5, 0.5), m2=(0.5 * s, 0.5 * t))


def area_sq(h: float, s: float, t: float) -> float:
    """Squared area of the inscribed ellipse centered at abscissa h.

    area^2(h) = (pi^2 / (4 (s-1)^2)) * (2h - 1)(s - 2h)(s + 2h(t - 1)) on the
    closed interval with endpoints 1/2 and s/2; both endpoints give zero.
    """
    require_canonical_pair(s, t)
    lo, hi = locus_line(s, t).interval()
    span = hi - lo
    if h < lo - 1e-12 * max(span, 1.0) or h > hi + 1e-12 * max(span, 1.0):
        raise ParameterOutOfRange(f"abscissa h = {h} outside [{lo}, {hi}]")
    sm1 = s - 1.0
    poly = (2.0 * h - 1.0) * (s - 2.0 * h) * (s + 2.0 * h * (t - 1.0))
    return (math.pi * math.pi / (4.0 * sm1 * sm1)) * poly


def _max_area_lambda(s: float, t: float) -> float:
    """Position lam of the maximal-area center along M1 -> M2 for the far
    vertex (s, t) of the quad mapped onto (0,0), (1,0), (s,t), (0,1).

    With A = s + t - 1 and B = (s - 1)(t - 1), the squared area along the
    segment is (pi^2 / 4) lam (1 - lam) (A + B lam) (Horwitz, Austral. J.
    Math. Anal. Appl., 2005). Its derivative -3B lam^2 + 2(B - A) lam + A is
    A > 0 at lam = 0 and -st < 0 at lam = 1, so exactly one root lies in
    (0, 1). The other root is negative for B > 0 and above 1 for B < 0, so
    the wanted root is the smallest positive one; a trapezoid (B = 0) leaves
    the linear equation and lam = 1/2.
    """
    a = s + t - 1.0
    b = (s - 1.0) * (t - 1.0)
    return min(r for r in quadratic_roots(-3.0 * b, 2.0 * (b - a), a) if r > 0.0)


def max_area_param(s: float, t: float) -> float:
    """Abscissa of the maximal-area member in the canonical frame.

    h = 1/2 + (s - 1) lam / 2 for the lam of _max_area_lambda. The paper's
    radical form, h = (st + t - 2s - 1 + sqrt((t-1)^2 + s^2 (t^2 - t + 1)
    - s (t^2 - 3t + 2))) / (6 (t - 1)), is the same number but cancels
    near t = 1.
    """
    require_canonical_pair(s, t)
    return 0.5 + 0.5 * (s - 1.0) * _max_area_lambda(s, t)


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
    frame, back = unit_frame(q)
    m1, m2 = diagonal_midpoints(frame)
    cx, cy = back.inverse()(center)
    sx, sy = m2[0] - m1[0], m2[1] - m1[1]
    wx, wy = cx - m1[0], cy - m1[1]
    lam = (wx * sx + wy * sy) / (sx * sx + sy * sy)
    off = math.hypot(wx - lam * sx, wy - lam * sy) / frame.diameter()
    if off > 1e-9:
        raise CenterOffLocus(
            f"center {center} lies {off:.3g} diameters off the diagonal-midpoint segment"
        )
    if not (_LAM_EDGE < lam < 1.0 - _LAM_EDGE):
        raise CenterOffLocus(
            f"center {center} falls outside the open midpoint segment (lam = {lam})"
        )
    return _pencil_member(q, frame, back, lam)


def _pencil_member(
    q: ConvexQuad, frame: ConvexQuad, back: AffineMap, lam: float
) -> InscribedMember:
    """The inscribed ellipse of q centered at M1 + lam (M2 - M1), built on
    its unit frame ``frame`` and placed back onto q by ``back``."""
    conic = _pencil_conic(frame.vertices, lam).canonical()
    if classify_conic(conic) is not ConicKind.ELLIPSE:
        raise CenterOffLocus("pencil member at the requested center is not a real ellipse")
    tangency = []
    for i, side in enumerate(frame.sides()):
        res = line_tangency(conic, side)
        if res.kind is not TangencyKind.TANGENT:
            raise CenterOffLocus(
                f"member is not tangent to side {i} (residual {res.residual:.3g})"
            )
        tangency.append(res.point)
    geom = conic_to_ellipse(conic)
    if q.is_trapezoid:
        parameter, kind = lam, "pencil"
    else:
        parameter, kind = normalize(frame).to_canonical(geom.center)[0], "h"
    return _place_member(
        InscribedMember(
            parameter=parameter,
            param_kind=kind,
            conic=conic,
            geom=geom,
            tangency=tuple(tangency),
        ),
        back,
    )


def max_area_ellipse(q: ConvexQuad) -> InscribedMember:
    """Maximal-area inscribed ellipse, in closed form for every convex quad.

    Works on the quad's unit frame. A parallelogram's maximal member is its
    midpoint ellipse. Any other quad is written v2 - v0 = s (v1 - v0) +
    t (v3 - v0) (Cramer's rule), which puts the diagonal midpoints M1, M2 of
    diagonal_midpoints at (1/2, 1/2) and (s/2, t/2); by Newton's theorem
    every inscribed center lies on M1 -> M2, and the maximal one sits at the
    lam of _max_area_lambda. Trapezoids have s or t equal to 1 and take the
    same route.
    """
    frame, back = unit_frame(q)
    if q.is_parallelogram:
        return _place_member(midpoint_ellipse(parallelogram_frame(frame)), back)
    v0, v1, v2, v3 = frame.vertices
    e1, e3, d = sub2(v1, v0), sub2(v3, v0), sub2(v2, v0)
    det = cross2(e1, e3)
    lam = _max_area_lambda(cross2(d, e3) / det, cross2(e1, d) / det)
    return _pencil_member(q, frame, back, lam)


def max_area_by_search(q: ConvexQuad) -> InscribedMember:
    """Maximal-area inscribed ellipse by golden-section over the dual pencil.

    A numerical cross-check of max_area_ellipse for tests and benchmarks;
    no route of the package calls it. Parallelograms are refused since
    their pencil degenerates to the single midpoint member.
    """
    if q.is_parallelogram:
        raise IsParallelogram("the parallelogram family has a single admissible center")
    frame, back = unit_frame(q)

    def area_at(u: float) -> float:
        a = ellipse_area_of_coeffs(*_pencil_conic(frame.vertices, u).as_tuple())
        return a if math.isfinite(a) else 0.0

    lam, _ = golden_max(area_at, 0.0, 1.0, tol=1e-12)
    return _pencil_member(q, frame, back, lam)


def family_areas(q: ConvexQuad, count: int) -> list[tuple[float, float, Point]]:
    """Sample (parameter, area, center) along the inscribed family.

    Parallelograms sweep the tangency height v over (0, k); other quads sweep
    the pencil parameter over (0, 1). Rows are in increasing parameter order.
    """
    if count < 1:
        raise ParameterOutOfRange(f"sample count must be positive, got {count}")
    rows: list[tuple[float, float, Point]] = []
    frame, back = unit_frame(q)
    if q.is_parallelogram:
        pf = parallelogram_frame(frame)
        placement = back.compose(pf.placement)
        for i in range(count):
            v = pf.k * (i + 1.0) / (count + 1.0)
            member = _place_member(parallelogram_family(pf.l, pf.k, pf.d, v), placement)
            rows.append((member.parameter, ellipse_area(member.geom), member.geom.center))
        return rows
    m1, m2 = diagonal_midpoints(q)
    for i in range(count):
        lam = (i + 1.0) / (count + 1.0)
        area = ellipse_area_of_coeffs(*_pencil_conic(frame.vertices, lam).as_tuple()) * back.det()
        center = (m1[0] + lam * (m2[0] - m1[0]), m1[1] + lam * (m2[1] - m1[1]))
        rows.append((lam, area, center))
    return rows
