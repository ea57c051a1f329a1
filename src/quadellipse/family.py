"""Families of ellipses inscribed in convex quadrilaterals.

Closed-form one-parameter families for rectangles and parallelograms, the
center locus and area profile in the canonical (s, t) frame, the dual-pencil
construction that produces the unique inscribed ellipse at any admissible
center, and the maximal-area member in closed form for every convex quad.
Members of a given quad are built in its diagonal frame (quad.diagonal_frame),
where the diagonals are perpendicular unit segments, and mapped back; units,
placement and aspect do not cost digits.

The dual pencil: tangency to all four side lines means the dual conic passes
through four fixed dual points, and that pencil is spanned by the point
pairs at the ends of the two diagonals. In the diagonal frame, with
p = alpha (1 - alpha) and r = beta (1 - beta), its member at lam is

    N(lam) = [[-lam p, 0, cx], [0, -(1 - lam) r, cy], [cx, cy, 1]],

    c = (cx, cy) = M1 + lam (M2 - M1) = (lam (1/2 - alpha), (1 - lam) (1/2 - beta)),

the ellipse (x - c)^T S^-1 (x - c) = 1 with S = diag(lam p, (1 - lam) r) + c c^T
and det S = lam (1 - lam) (p + (r - p) lam) / 4, positive exactly for lam in
(0, 1). Its area is pi sqrt(det S) in the frame: det S is the area profile
that _max_area_lambda maximises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .conic import (
    ConicCoeffs,
    EllipseGeom,
    TangencyKind,
    conic_to_ellipse,
    conic_transform,
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


def _member_shape(
    alpha: float, beta: float, lam: float
) -> tuple[float, float, float, float, float, float]:
    """Centre c and shape S of the pencil member at lam in the diagonal
    frame (alpha, beta), as (cx, cy, s00, s01, s11, det S); see the module
    docstring. det S is written in closed form, with both of its terms
    positive, and is positive exactly for lam in (0, 1)."""
    mu = 1.0 - lam
    p, r = alpha * (1.0 - alpha), beta * (1.0 - beta)
    cx, cy = lam * (0.5 - alpha), mu * (0.5 - beta)
    det = 0.25 * lam * mu * (mu * p + lam * r)
    return cx, cy, lam * p + cx * cx, cx * cy, mu * r + cy * cy, det


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
    q's diagonal frame (alpha, beta) from _member_shape and placed back onto
    q by ``back``.

    In the frame its conic is (x - c)^T adj(S) (x - c) = det S, written out
    without cancellation: with D = diag(lam p, (1 - lam) r), the quadratic
    part is adj S, the linear part -2 adj(D) c and the constant -det D. It
    must touch the four frame sides. The centre and the tangency points go
    through ``back``; the semi-axes and the angle are those of the placed
    shape P = L S L^T, L the linear part of ``back``: major^2 is the larger
    eigenvalue of P, minor = |det L| sqrt(det S) / major, which cancels
    nothing however thin the member, and a circle gets angle 0.

    Its parameter is "v" = k/2 for a parallelogram, "pencil" = lam for a
    trapezoid, and otherwise the canonical abscissa "h" of the center for
    the anchor normalize uses: relabelling the vertices from anchor i maps
    (alpha, beta, lam) as below, and then s = (1 - beta) / alpha.
    """
    cx, cy, s00, s01, s11, det = _member_shape(alpha, beta, lam)
    if not det > 0.0:
        raise CenterOffLocus("pencil member at the requested center is not a real ellipse")
    dp, dr = lam * alpha * (1.0 - alpha), (1.0 - lam) * beta * (1.0 - beta)
    conic = ConicCoeffs(s11, s00, -s01, -2.0 * dr * cx, -2.0 * dp * cy, -dp * dr)
    frame = frame_vertices(alpha, beta)
    tangency = []
    for i in range(4):
        res = line_tangency(conic, Line.through(frame[i], frame[(i + 1) % 4]))
        if res.kind is not TangencyKind.TANGENT:
            raise CenterOffLocus(
                f"member is not tangent to side {i} (residual {res.residual:.3g})"
            )
        tangency.append(back(res.point))
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
    m00, m01, m10, m11 = back.m00, back.m01, back.m10, back.m11
    u0, u1 = m00 * s00 + m01 * s01, m00 * s01 + m01 * s11
    w0, w1 = m10 * s00 + m11 * s01, m10 * s01 + m11 * s11
    p00, p01, p11 = u0 * m00 + u1 * m01, u0 * m10 + u1 * m11, w0 * m10 + w1 * m11
    tr, disc = p00 + p11, math.hypot(p00 - p11, 2.0 * p01)
    major = math.sqrt(0.5 * (tr + disc))
    minor = min(abs(back.det()) * math.sqrt(det) / major, major)
    phi = 0.5 * math.atan2(2.0 * p01, p00 - p11) if disc > 1e-14 * tr else 0.0
    return InscribedMember(
        parameter=parameter,
        param_kind=kind,
        conic=conic_transform(conic, back).canonical(),
        geom=EllipseGeom(center=back((cx, cy)), a=major, b=minor, phi=phi),
        tangency=tuple(tangency),
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
    """Maximal-area inscribed ellipse by golden-section search of det S
    (_member_shape) over the pencil, lam in (0, 1).

    An independent check of _max_area_lambda's choice of root, for tests
    and benchmarks; no route of the package calls it.
    """
    alpha, beta, back = diagonal_frame(q)
    lam, _ = golden_max(lambda u: _member_shape(alpha, beta, u)[5], 0.0, 1.0, tol=1e-12)
    return _pencil_member(q, alpha, beta, back, lam)


def family_areas(q: ConvexQuad, count: int) -> list[tuple[float, float, Point]]:
    """Sample (parameter, area, center) along the inscribed family.

    One dual pencil is swept over lam in (0, 1) for every quad, and rows are
    labelled by lam; each area is pi sqrt(det S) (_member_shape) times the
    frame's area scale. A parallelogram labels them by the tangency height
    v = k lam in (0, k) of its frame: in the diagonal frame its pencil
    member is x^2 / (lam / 4) + y^2 / ((1 - lam) / 4) = 1, with a fixed
    center and an area symmetric in lam <-> 1 - lam. Rows are in increasing
    parameter order.
    """
    if count < 1:
        raise ParameterOutOfRange(f"sample count must be positive, got {count}")
    scale = parallelogram_frame(q).k if q.is_parallelogram else 1.0
    alpha, beta, back = diagonal_frame(q)
    m1, m2 = diagonal_midpoints(q)
    rows: list[tuple[float, float, Point]] = []
    for i in range(count):
        lam = (i + 1.0) / (count + 1.0)
        area = math.pi * math.sqrt(_member_shape(alpha, beta, lam)[5]) * back.det()
        center = (m1[0] + lam * (m2[0] - m1[0]), m1[1] + lam * (m2[1] - m1[1]))
        rows.append((scale * (i + 1.0) / (count + 1.0), area, center))
    return rows
