"""Families of ellipses inscribed in convex quadrilaterals.

Closed-form one-parameter families for rectangles and parallelograms, the
center locus and area profile in the canonical (s, t) frame, the dual-pencil
construction that produces the unique inscribed ellipse at any admissible
center, and the maximal-area member in closed form for every convex quad.
Members of a given quad are built in its diagonal frame (quad.diagonal_frame),
where the diagonals are perpendicular unit segments, and mapped back; units,
placement and aspect do not cost digits.

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
from dataclasses import dataclass, replace

from .conic import (
    ConicCoeffs,
    ConicKind,
    EllipseGeom,
    TangencyKind,
    classify_conic,
    conic_to_ellipse,
    conic_transform,
    ellipse_area_of_coeffs,
    line_tangency,
)
from .errors import (
    CenterOffLocus,
    IsParallelogram,
    OptimizationFailed,
    ParameterOutOfRange,
)
from .geom import AffineMap, Line, Point, golden_max, quadratic_roots
from .quad import (
    ConvexQuad,
    ParallelogramFrame,
    _anchor_index,
    diagonal_frame,
    diagonal_midpoints,
    frame_vertices,
    parallelogram_frame,
    require_canonical_pair,
    validate,
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
    """Push a frame-coordinate member through an affine placement.

    The center and the tangency points go through the map. The image
    ellipse is center + M u over unit vectors u, with M = L R(phi) diag(a, b)
    and L the placement's linear part; its semi-axes are M's singular values
    and its angle that of M's leading left singular vector, both in closed
    form for 2x2. The minor axis is |det L| a b / major, which cancels
    nothing however thin the image. A circle has no axis and, as in
    conic_to_ellipse, gets angle 0.
    """
    g = member.geom
    cp, sp = math.cos(g.phi), math.sin(g.phi)
    m00 = (placement.m00 * cp + placement.m01 * sp) * g.a
    m10 = (placement.m10 * cp + placement.m11 * sp) * g.a
    m01 = (placement.m01 * cp - placement.m00 * sp) * g.b
    m11 = (placement.m11 * cp - placement.m10 * sp) * g.b
    e, f = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
    h, k = 0.5 * (m10 - m01), 0.5 * (m10 + m01)
    spread = math.hypot(f, k)
    major = math.hypot(e, h) + spread
    minor = min(abs(placement.det()) * g.a * g.b / major, major)
    phi = 0.5 * (math.atan2(k, f) + math.atan2(h, e)) if spread > 1e-14 * major else 0.0
    return InscribedMember(
        parameter=member.parameter,
        param_kind=member.param_kind,
        conic=conic_transform(member.conic, placement).canonical(),
        geom=EllipseGeom(center=placement(g.center), a=major, b=minor, phi=phi),
        tangency=tuple(placement(p) for p in member.tangency),
    )


def midpoint_ellipse(frame: ParallelogramFrame) -> InscribedMember:
    """The inscribed ellipse tangent at the four side midpoints.

    This is the v = k/2 member of the frame family and the unique
    maximal-area inscribed ellipse of the parallelogram, with area
    (pi/4) * l * k. It is max_area_ellipse of the placed corners, built in
    their diagonal frame however thin or sheared the parallelogram is, with
    tangency points in the frame's side order.
    """
    corners = frame.placed_corners()
    q = validate(corners)
    member = max_area_ellipse(q)
    i = q.vertices.index(corners[0])
    tangency = member.tangency[i:] + member.tangency[:i]
    return replace(member, parameter=0.5 * frame.k, param_kind="v", tangency=tangency)


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


def _max_area_lambda(a: float, b: float) -> float:
    """Position lam of the maximal-area center along M1 -> M2.

    For the quad mapped onto (0,0), (1,0), (s,t), (0,1), take A = s + t - 1
    and B = (s - 1)(t - 1); the squared area along the segment is
    (pi^2 / 4) lam (1 - lam) (A + B lam) (Horwitz, Austral. J. Math. Anal.
    Appl., 2005). Its derivative -3B lam^2 + 2(B - A) lam + A is A > 0 at
    lam = 0 and -st < 0 at lam = 1, so exactly one root lies in (0, 1). The
    other root is negative for B > 0 and above 1 for B < 0, so the wanted
    root is the smallest positive one; a trapezoid (B = 0) leaves the linear
    equation and lam = 1/2. Any positive multiple of (A, B) gives the same
    roots.
    """
    return min(r for r in quadratic_roots(-3.0 * b, 2.0 * (b - a), a) if r > 0.0)


def max_area_param(s: float, t: float) -> float:
    """Abscissa of the maximal-area member in the canonical frame.

    h = 1/2 + (s - 1) lam / 2 for the lam of _max_area_lambda. The paper's
    radical form, h = (st + t - 2s - 1 + sqrt((t-1)^2 + s^2 (t^2 - t + 1)
    - s (t^2 - 3t + 2))) / (6 (t - 1)), is the same number but cancels
    near t = 1.
    """
    require_canonical_pair(s, t)
    return 0.5 + 0.5 * (s - 1.0) * _max_area_lambda(s + t - 1.0, (s - 1.0) * (t - 1.0))


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
    anything off that segment (beyond 1e-9 transversally, measured in the
    diagonal frame, where both diagonals have unit length, or outside the
    open range) raises CenterOffLocus. Parallelograms collapse the segment
    to a point and are refused.
    """
    if q.is_parallelogram:
        raise IsParallelogram(
            "parallelogram centers are fixed at the diagonal midpoint; "
            "use midpoint_ellipse on its frame"
        )
    alpha, beta, back = diagonal_frame(q)
    cx, cy = back.inverse()(center)
    # In the frame M1 = (0, 1/2 - beta) and M2 = (1/2 - alpha, 0).
    sx, sy = 0.5 - alpha, beta - 0.5
    wx, wy = cx, cy + sy
    lam = (wx * sx + wy * sy) / (sx * sx + sy * sy)
    off = math.hypot(wx - lam * sx, wy - lam * sy)
    if off > 1e-9:
        raise CenterOffLocus(
            f"center {center} lies {off:.3g} off the diagonal-midpoint segment"
        )
    if not (_LAM_EDGE < lam < 1.0 - _LAM_EDGE):
        raise CenterOffLocus(
            f"center {center} falls outside the open midpoint segment (lam = {lam})"
        )
    return _pencil_member(q, alpha, beta, back, lam)


def _pencil_member(
    q: ConvexQuad, alpha: float, beta: float, back: AffineMap, lam: float
) -> InscribedMember:
    """The inscribed ellipse of q centered at M1 + lam (M2 - M1), built in
    q's diagonal frame (alpha, beta) and placed back onto q by ``back``.

    Its parameter is "v" = k/2 for a parallelogram, "pencil" = lam for a
    trapezoid, and otherwise the canonical abscissa "h" of the center for
    the anchor normalize uses: relabelling the vertices from anchor i maps
    (alpha, beta, lam) as below, and then s = (1 - beta) / alpha.
    """
    frame = frame_vertices(alpha, beta)
    conic = _pencil_conic(frame, lam).canonical()
    if classify_conic(conic) is not ConicKind.ELLIPSE:
        raise CenterOffLocus("pencil member at the requested center is not a real ellipse")
    tangency = []
    for i in range(4):
        res = line_tangency(conic, Line.through(frame[i], frame[(i + 1) % 4]))
        if res.kind is not TangencyKind.TANGENT:
            raise CenterOffLocus(
                f"member is not tangent to side {i} (residual {res.residual:.3g})"
            )
        tangency.append(res.point)
    if q.is_parallelogram:
        parameter, kind = 0.5 * parallelogram_frame(q).k, "v"
    elif q.is_trapezoid:
        parameter, kind = lam, "pencil"
    else:
        a, b, u = (
            (alpha, beta, lam),
            (beta, 1.0 - alpha, 1.0 - lam),
            (1.0 - alpha, 1.0 - beta, lam),
            (1.0 - beta, alpha, 1.0 - lam),
        )[_anchor_index(q)]
        parameter, kind = 0.5 + 0.5 * ((1.0 - b) / a - 1.0) * u, "h"
    return _place_member(
        InscribedMember(
            parameter=parameter,
            param_kind=kind,
            conic=conic,
            geom=conic_to_ellipse(conic),
            tangency=tuple(tangency),
        ),
        back,
    )


def max_area_ellipse(q: ConvexQuad) -> InscribedMember:
    """Maximal-area inscribed ellipse, in closed form for every convex quad.

    Works in the quad's diagonal frame, (-alpha, 0), (0, -beta),
    (1 - alpha, 0), (0, 1 - beta). There the diagonal midpoints are
    M1 = (0, 1/2 - beta) and M2 = (1/2 - alpha, 0); by Newton's theorem
    every inscribed center lies on M1 -> M2, and the maximal one sits at the
    root lam in (0, 1) of -3B lam^2 + 2(B - A) lam + A with A = alpha
    (1 - alpha) and B = (1 - alpha - beta)(beta - alpha) (_max_area_lambda).
    Trapezoids (B = 0) and parallelograms (alpha = beta = 1/2, where the
    member is the circle of radius 1/(2 sqrt 2) in the frame) take the same
    route.
    """
    alpha, beta, back = diagonal_frame(q)
    lam = _max_area_lambda(alpha * (1.0 - alpha), (1.0 - alpha - beta) * (beta - alpha))
    return _pencil_member(q, alpha, beta, back, lam)


def max_area_by_search(q: ConvexQuad) -> InscribedMember:
    """Maximal-area inscribed ellipse by golden-section over the dual pencil.

    A numerical cross-check of max_area_ellipse for tests and benchmarks;
    no route of the package calls it.
    """
    alpha, beta, back = diagonal_frame(q)
    frame = frame_vertices(alpha, beta)

    def area_at(u: float) -> float:
        a = ellipse_area_of_coeffs(*_pencil_conic(frame, u).as_tuple())
        return a if math.isfinite(a) else 0.0

    lam, _ = golden_max(area_at, 0.0, 1.0, tol=1e-12)
    return _pencil_member(q, alpha, beta, back, lam)


def family_areas(q: ConvexQuad, count: int) -> list[tuple[float, float, Point]]:
    """Sample (parameter, area, center) along the inscribed family.

    One dual pencil is swept over lam in (0, 1) for every quad, and rows are
    labelled by lam. A parallelogram labels them by the tangency height
    v = k lam in (0, k) of its frame: in the diagonal frame its pencil
    member is x^2 / (lam / 4) + y^2 / ((1 - lam) / 4) = 1, with a fixed
    center and an area symmetric in lam <-> 1 - lam. Rows are in increasing
    parameter order.
    """
    if count < 1:
        raise ParameterOutOfRange(f"sample count must be positive, got {count}")
    scale = parallelogram_frame(q).k if q.is_parallelogram else 1.0
    alpha, beta, back = diagonal_frame(q)
    frame = frame_vertices(alpha, beta)
    m1, m2 = diagonal_midpoints(q)
    rows: list[tuple[float, float, Point]] = []
    for i in range(count):
        lam = (i + 1.0) / (count + 1.0)
        area = ellipse_area_of_coeffs(*_pencil_conic(frame, lam).as_tuple()) * back.det()
        center = (m1[0] + lam * (m2[0] - m1[0]), m1[1] + lam * (m2[1] - m1[1]))
        rows.append((scale * (i + 1.0) / (count + 1.0), area, center))
    return rows
