"""Families of ellipses inscribed in convex quadrilaterals.

The center locus and area profile in the canonical (s, t) frame, and the
dual pencil, the package's one construction of inscribed members: it gives
the unique inscribed ellipse at any admissible center and the maximal-area
member in closed form for every convex quad, parallelograms and trapezoids
included. Members of a given quad are built in its diagonal frame (quad.diagonal_frame),
where the diagonals are perpendicular unit segments, and mapped back; units,
placement and aspect do not cost digits. Each is labelled by its pencil
position lam in (0, 1), its centre being M1 + lam (M2 - M1) with
(M1, M2) = diagonal_midpoints(q), whatever the quad's flags.

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

The member touches a side line l0 x + l1 y + l2 = 0 at its pole N(lam) l,
((cx l2 - lam p l0) / w, (cy l2 - (1 - lam) r l1) / w) with w = cx l0 +
cy l1 + l2, nonzero as c lies strictly inside. The frame sides are
(beta, alpha, alpha beta), (-beta, 1 - alpha, (1 - alpha) beta),
(-(1 - beta), -(1 - alpha), (1 - alpha)(1 - beta)) and
(1 - beta, -alpha, alpha (1 - beta)).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .conic import ConicCoeffs, EllipseGeom, _placed_ellipse, conic_transform
from .errors import CenterOffLocus, IsParallelogram, ParameterOutOfRange
from .geom import AffineMap, Point, golden_max, quadratic_roots
from .quad import (
    ConvexQuad,
    ParallelogramFrame,
    diagonal_frame,
    diagonal_midpoints,
    require_canonical_pair,
    validate,
)

_LAM_EDGE = 1e-12
_EPS = 2.0**-52


class CenterLocus(NamedTuple):
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

    def interval(self) -> tuple[float, float]:
        lo, hi = 0.5, 0.5 * self.s
        return (lo, hi) if lo <= hi else (hi, lo)


class InscribedMember(NamedTuple):
    """One inscribed ellipse of a quad's family.

    ``parameter`` is the member's pencil position lam in (0, 1), its center
    being M1 + lam (M2 - M1) on the diagonal-midpoint segment.
    ``tangency`` holds one point per side, in side order.
    """

    parameter: float
    conic: ConicCoeffs
    geom: EllipseGeom
    tangency: tuple[Point, Point, Point, Point]


def midpoint_ellipse(frame: ParallelogramFrame) -> InscribedMember:
    """The inscribed ellipse tangent at the four side midpoints.

    This is the v = k/2 member of the frame family and the unique
    maximal-area inscribed ellipse of the parallelogram, with area
    (pi/4) * l * k. It is max_area_ellipse of the placed corners, built in
    their diagonal frame however thin or sheared the parallelogram is, with
    tangency points in the frame's side order; its parameter is the pencil
    position lam, 1/2 up to the rounding of the corners.
    """
    corners = frame.placed_corners()
    q = validate(corners)
    member = max_area_ellipse(q)
    i = q.vertices.index(corners[0])
    return member._replace(tangency=member.tangency[i:] + member.tangency[:i])


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
    lam is the center's projection onto M1 -> M2 in input coordinates. A
    center outside the open segment, or whose frame image back^-1(c) lies
    farther than 1e-9 + 8 eps max(|c|, |t|, |L|_F) |L^-1|_F from the frame
    point at lam (back = L x + t: the rounding that c, alpha and beta carry
    into the frame), raises CenterOffLocus. Parallelograms collapse the
    segment and are refused.
    """
    if q.is_parallelogram:
        raise IsParallelogram(
            "parallelogram centers are fixed at the diagonal midpoint; "
            "use max_area_ellipse"
        )
    alpha, beta, back = diagonal_frame(q)
    (m1x, m1y), (m2x, m2y) = diagonal_midpoints(q)
    sx, sy = m2x - m1x, m2y - m1y
    span = sx * sx + sy * sy
    if span == 0.0:
        raise CenterOffLocus("the diagonal midpoints coincide; there is no segment of centers")
    lam = ((center[0] - m1x) * sx + (center[1] - m1y) * sy) / span
    inv = back.inverse()
    cx, cy = inv(center)
    off = math.hypot(cx - lam * (0.5 - alpha), cy - (1.0 - lam) * (0.5 - beta))
    reach = max(abs(center[0]), abs(center[1]), abs(back.tx), abs(back.ty))
    reach = max(reach, math.hypot(back.m00, back.m01, back.m10, back.m11))
    if off > 1e-9 + 8.0 * _EPS * reach * math.hypot(inv.m00, inv.m01, inv.m10, inv.m11):
        raise CenterOffLocus(
            f"center {center} lies {off:.3g} off the diagonal-midpoint segment"
        )
    if not (_LAM_EDGE < lam < 1.0 - _LAM_EDGE):
        raise CenterOffLocus(
            f"center {center} falls outside the open midpoint segment (lam = {lam})"
        )
    return _pencil_member(alpha, beta, back, lam)


def _pencil_member(alpha: float, beta: float, back: AffineMap, lam: float) -> InscribedMember:
    """The inscribed ellipse centered at M1 + lam (M2 - M1), built in the
    diagonal frame (alpha, beta) from _member_shape and placed back onto the
    quad by ``back``; its parameter is lam.

    In the frame its conic is (x - c)^T adj(S) (x - c) = det S, written out
    without cancellation: with D = diag(lam p, (1 - lam) r), the quadratic
    part is adj S, the linear part -2 adj(D) c and the constant -det D. It
    touches side l at its pole ((cx l2 - dp l0) / w, (cy l2 - dr l1) / w),
    w = cx l0 + cy l1 + l2 (module docstring). The tangency points go
    through ``back``, and conic._placed_ellipse places the centre and the
    shape S: its semi-axes and angle are those of L S L^T, L the linear part
    of ``back``.
    """
    cx, cy, s00, s01, s11, det = _member_shape(alpha, beta, lam)
    if not det > 0.0:
        raise CenterOffLocus("pencil member at the requested center is not a real ellipse")
    dp, dr = lam * alpha * (1.0 - alpha), (1.0 - lam) * beta * (1.0 - beta)
    conic = ConicCoeffs(s11, s00, -s01, -2.0 * dr * cx, -2.0 * dp * cy, -dp * dr)
    a1, b1 = 1.0 - alpha, 1.0 - beta
    tangency = []
    for l0, l1, l2 in (
        (beta, alpha, alpha * beta),
        (-beta, a1, a1 * beta),
        (-b1, -a1, a1 * b1),
        (b1, -alpha, alpha * b1),
    ):
        w = cx * l0 + cy * l1 + l2
        tangency.append(back(((cx * l2 - dp * l0) / w, (cy * l2 - dr * l1) / w)))
    return InscribedMember(
        parameter=lam,
        conic=conic_transform(conic, back).canonical(),
        geom=_placed_ellipse(back, (cx, cy), s00, s01, s11, math.sqrt(det)),
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
    return _pencil_member(alpha, beta, back, lam)


def max_area_by_search(q: ConvexQuad) -> InscribedMember:
    """Maximal-area inscribed ellipse by golden-section search of det S
    (_member_shape) over the pencil, lam in (0, 1).

    An independent check of _max_area_lambda's choice of root, for tests
    and benchmarks; no route of the package calls it.
    """
    alpha, beta, back = diagonal_frame(q)
    lam, _ = golden_max(lambda u: _member_shape(alpha, beta, u)[5], 0.0, 1.0, tol=1e-12)
    return _pencil_member(alpha, beta, back, lam)


def family_areas(q: ConvexQuad, count: int) -> list[tuple[float, float, Point]]:
    """Sample (lam, area, center) along the inscribed family, at
    lam = (i + 1) / (count + 1) in increasing order, for every quad.

    Each center is M1 + lam (M2 - M1) and each area pi sqrt(det S)
    (_member_shape) times the frame's area scale. A parallelogram's center
    stays fixed: its frame member is x^2 / (lam / 4) + y^2 / ((1 - lam) / 4) = 1.
    """
    if count < 1:
        raise ParameterOutOfRange(f"sample count must be positive, got {count}")
    alpha, beta, back = diagonal_frame(q)
    m1, m2 = diagonal_midpoints(q)
    rows: list[tuple[float, float, Point]] = []
    for i in range(count):
        lam = (i + 1.0) / (count + 1.0)
        area = math.pi * math.sqrt(_member_shape(alpha, beta, lam)[5]) * back.det()
        center = (m1[0] + lam * (m2[0] - m1[0]), m1[1] + lam * (m2[1] - m1[1]))
        rows.append((lam, area, center))
    return rows
