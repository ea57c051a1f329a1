"""Conic sections in the six-coefficient form a*x^2 + b*y^2 + 2c*x*y + d*x + e*y + f = 0.

Note the cross-term convention: the stored coefficient ``c`` is half the
full x*y coefficient, so the associated symmetric matrix is

    [[a,   c,   d/2],
     [c,   b,   e/2],
     [d/2, e/2, f  ]]

Classification, ellipse geometry extraction, foci, line/conic tangency,
and pushforward under affine maps. Every ellipse's semi-axes and angle
come from _placed_ellipse, which maps a centre and a shape matrix.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import NotAnEllipse
from .geom import AffineMap, Line, Point

# A conic counts as degenerate when its value at the center (or, without a
# center, its 3x3 determinant) is below this multiple of its scale; see
# classify_conic.
DEGENERACY_RTOL = 1e-12

# A line counts as tangent when its squared half-chord, over the conic's
# squared major semi-axis, is below this bound (see line_tangency).
TANGENCY_TOL = 1e-9


class ConicKind(Enum):
    ELLIPSE = "ellipse"
    PARABOLA = "parabola"
    HYPERBOLA = "hyperbola"
    DEGENERATE = "degenerate"


class TangencyKind(Enum):
    TANGENT = "tangent"
    SECANT = "secant"
    DISJOINT = "disjoint"


_ConicCoeffs = NamedTuple("_ConicCoeffs", [(name, float) for name in "abcdef"])


class ConicCoeffs(_ConicCoeffs):
    """Coefficients of a*x^2 + b*y^2 + 2c*x*y + d*x + e*y + f = 0."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float, d: float, e: float, f: float) -> "ConicCoeffs":
        if a == 0.0 and b == 0.0 and c == 0.0:
            raise ValueError("quadratic part must not vanish identically")
        return tuple.__new__(cls, (a, b, c, d, e, f))

    # _replace copies through _make, which would skip the check above.
    _make = classmethod(lambda cls, values: cls(*values))

    def evaluate(self, x: float, y: float) -> float:
        return (
            self.a * x * x
            + self.b * y * y
            + 2.0 * self.c * x * y
            + self.d * x
            + self.e * y
            + self.f
        )

    def det2(self) -> float:
        """Determinant of the quadratic part, a*b - c^2."""
        return self.a * self.b - self.c * self.c

    def det3(self) -> float:
        """Determinant of the full 3x3 symmetric matrix."""
        a, b, c, d, e, f = self.a, self.b, self.c, self.d, self.e, self.f
        return (
            a * b * f
            + 0.5 * c * d * e
            - 0.25 * (a * e * e + b * d * d)
            - c * c * f
        )

    def max_abs(self) -> float:
        return max(abs(v) for v in (self.a, self.b, self.c, self.d, self.e, self.f))

    def scaled(self, k: float) -> "ConicCoeffs":
        return ConicCoeffs(k * self.a, k * self.b, k * self.c, k * self.d, k * self.e, k * self.f)

    def canonical(self) -> "ConicCoeffs":
        """Scale so the largest-magnitude coefficient becomes +1.

        Ties go to the earliest coefficient in (a, b, c, d, e, f) order, which
        makes the representative deterministic and comparison-friendly; a
        coefficient within 1e-12 of the largest magnitude ties, so rounding
        in the last bits cannot flip the representative's sign.
        """
        coeffs = self.as_tuple()
        top = max(map(abs, coeffs))
        return self.scaled(1.0 / next(v for v in coeffs if abs(v) >= (1.0 - 1e-12) * top))

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)


_EllipseGeom = NamedTuple(
    "_EllipseGeom", [("center", Point), ("a", float), ("b", float), ("phi", float)]
)


class EllipseGeom(_EllipseGeom):
    """Ellipse as center, semi-axes a >= b > 0, and major-axis angle in [0, pi)."""

    __slots__ = ()

    def __new__(cls, center: Point, a: float, b: float, phi: float) -> "EllipseGeom":
        if not (a >= b > 0.0):
            raise ValueError("semi-axes must satisfy a >= b > 0")
        return tuple.__new__(cls, (center, a, b, phi % math.pi))

    # _replace copies through _make, which would skip the checks above.
    _make = classmethod(lambda cls, values: cls(*values))

    def boundary_point(self, theta: float) -> Point:
        """Point at eccentric angle theta."""
        cp, sp = math.cos(self.phi), math.sin(self.phi)
        u = self.a * math.cos(theta)
        v = self.b * math.sin(theta)
        return (self.center[0] + u * cp - v * sp, self.center[1] + u * sp + v * cp)


class TangencyResult(NamedTuple):
    """Outcome of restricting a conic to a line.

    ``residual`` is the squared ratio of the half-chord the conic cuts from
    the line to the conic's major semi-axis: 0 for a tangent line and 1 for
    the major axis. It is dimensionless, so it does not change when the
    plane or the conic's coefficients are rescaled.
    """

    kind: TangencyKind
    point: Point | None
    residual: float


def _sign_normalized_quad(coeffs: ConicCoeffs) -> tuple[float, float, float, float, float, float]:
    """Coefficients scaled so the quadratic part has positive trace."""
    if coeffs.a + coeffs.b < 0.0:
        return (-coeffs.a, -coeffs.b, -coeffs.c, -coeffs.d, -coeffs.e, -coeffs.f)
    return coeffs.as_tuple()


def _eigenframe(
    a: float, b: float, c: float, d: float, e: float, f: float
) -> tuple[float, float, float, float]:
    """(lam_max, lam_min, fc, fc_terms) of a central conic whose quadratic
    part has positive trace.

    lam_max >= lam_min are the quadratic part's eigenvalues. fc, the value
    at the center, is summed in their eigenframe as
    f - du^2 / (4 lam_max) - dv^2 / (4 lam_min), with (du, dv) the linear
    part rotated into it; fc_terms is the sum of the magnitudes of those
    three terms. A thin ellipse keeps its digits there, where
    f + (d*cx + e*cy) / 2 at a Cramer's-rule center cancels to nothing.
    """
    lam_max = 0.5 * (a + b + math.hypot(a - b, 2.0 * c))
    lam_min = (a * b - c * c) / lam_max
    phi = 0.5 * math.atan2(2.0 * c, a - b)
    cp, sp = math.cos(phi), math.sin(phi)
    du, dv = d * cp + e * sp, e * cp - d * sp
    tu, tv = du * du / (4.0 * lam_max), dv * dv / (4.0 * lam_min)
    return lam_max, lam_min, f - tu - tv, abs(f) + tu + abs(tv)


def _classified(coeffs: ConicCoeffs) -> tuple[ConicKind, tuple[float, ...], float, float]:
    """classify_conic's kind, the sign-normalized coefficients, a*b - c^2
    and the value at the center fc (0 without a center)."""
    a, b, c, d, e, f = quad = _sign_normalized_quad(coeffs)
    det2 = a * b - c * c
    qscale = max(abs(a), abs(b), abs(c))
    if abs(det2) < DEGENERACY_RTOL * qscale * qscale:
        scale = coeffs.max_abs()
        flat = abs(coeffs.det3()) < DEGENERACY_RTOL * scale * scale * scale
        return (ConicKind.DEGENERATE if flat else ConicKind.PARABOLA), quad, det2, 0.0
    _, _, fc, fc_terms = _eigenframe(a, b, c, d, e, f)
    if abs(fc) <= DEGENERACY_RTOL * fc_terms:
        kind = ConicKind.DEGENERATE
    elif det2 < 0.0:
        kind = ConicKind.HYPERBOLA
    else:
        # det2 > 0 and the quadratic trace is positive: a real ellipse needs
        # a negative center value; otherwise the point set is empty.
        kind = ConicKind.ELLIPSE if fc < 0.0 else ConicKind.DEGENERATE
    return kind, quad, det2, fc


def classify_conic(coeffs: ConicCoeffs) -> ConicKind:
    """Classify by the sign of a*b - c^2 and the value at the center.

    A central conic (a*b - c^2 clear of zero) is degenerate when its value
    at the center, fc from _eigenframe, vanishes to within DEGENERACY_RTOL
    of the terms summed to form it, or when it has no real points. That
    test does not depend on the conic's size or placement, so a thin
    ellipse stays an ellipse. A non-central conic is degenerate when its
    3x3 determinant is below DEGENERACY_RTOL of the cubed coefficient
    scale, and a parabola otherwise.
    """
    return _classified(coeffs)[0]


def _placed_ellipse(
    tmap: AffineMap, center: Point, s00: float, s01: float, s11: float, root_det: float
) -> EllipseGeom:
    """Image under ``tmap`` of the ellipse (x - c)^T S^-1 (x - c) = 1, with
    S = [[s00, s01], [s01, s11]] and root_det = sqrt(det S). Its shape is
    P = L S L^T, L the linear part of ``tmap``: major^2 is P's larger
    eigenvalue and minor = |det L| root_det / major, which cancels nothing
    however thin the ellipse; a circle gets angle 0."""
    m00, m01, m10, m11 = tmap.m00, tmap.m01, tmap.m10, tmap.m11
    u0, u1 = m00 * s00 + m01 * s01, m00 * s01 + m01 * s11
    w0, w1 = m10 * s00 + m11 * s01, m10 * s01 + m11 * s11
    p00, p01, p11 = u0 * m00 + u1 * m01, u0 * m10 + u1 * m11, w0 * m10 + w1 * m11
    tr, disc = p00 + p11, math.hypot(p00 - p11, 2.0 * p01)
    major = math.sqrt(0.5 * (tr + disc))
    minor = min(abs(tmap.det()) * root_det / major, major)
    phi = 0.5 * math.atan2(2.0 * p01, p00 - p11) if disc > 1e-14 * tr else 0.0
    return EllipseGeom(center=tmap(center), a=major, b=minor, phi=phi)


def conic_to_ellipse(coeffs: ConicCoeffs) -> EllipseGeom:
    """Recover center, semi-axes, and axis angle of a real ellipse.

    The center solves the vanishing-gradient system (Cramer's rule). With Q
    the sign-normalized quadratic part and fc the value at the center from
    _eigenframe, which keeps a thin ellipse's digits, the shape is
    S = (-fc / det Q) adj Q, with sqrt(det S) = -fc / sqrt(det Q).
    """
    kind, (a, b, c, d, e, _), det2, fc = _classified(coeffs)
    if kind is not ConicKind.ELLIPSE:
        raise NotAnEllipse("coefficients do not describe a real ellipse")
    # ELLIPSE means det2 >= DEGENERACY_RTOL * max(|a|,|b|,|c|)^2 > 0 and
    # fc < 0, so the centre system is nonsingular and S is positive definite.
    center = ((c * e - b * d) / (2.0 * det2), (c * d - a * e) / (2.0 * det2))
    k = -fc / det2
    return _placed_ellipse(
        AffineMap.identity(), center, k * b, -k * c, k * a, -fc / math.sqrt(det2)
    )


def geometry_to_conic(geom: EllipseGeom) -> ConicCoeffs:
    """Six-coefficient form of an ellipse given by center, semi-axes, angle."""
    cp, sp = math.cos(geom.phi), math.sin(geom.phi)
    ia2 = 1.0 / (geom.a * geom.a)
    ib2 = 1.0 / (geom.b * geom.b)
    a = cp * cp * ia2 + sp * sp * ib2
    b = sp * sp * ia2 + cp * cp * ib2
    c = cp * sp * (ia2 - ib2)
    cx, cy = geom.center
    d = -2.0 * (a * cx + c * cy)
    e = -2.0 * (b * cy + c * cx)
    f = a * cx * cx + b * cy * cy + 2.0 * c * cx * cy - 1.0
    return ConicCoeffs(a, b, c, d, e, f)


def ellipse_area(geom: EllipseGeom) -> float:
    return math.pi * geom.a * geom.b


def foci(geom: EllipseGeom) -> tuple[Point, Point]:
    """The two foci; they coincide with the center for circles."""
    cdist = math.sqrt(max(geom.a * geom.a - geom.b * geom.b, 0.0))
    ux, uy = math.cos(geom.phi), math.sin(geom.phi)
    cx, cy = geom.center
    return (
        (cx + cdist * ux, cy + cdist * uy),
        (cx - cdist * ux, cy - cdist * uy),
    )


def line_tangency(coeffs: ConicCoeffs, line: Line) -> TangencyResult:
    """Classify the intersection of an ellipse with a line.

    Restricted to a unit-speed parameterization of the line, the conic is
    q(t) = qa*t^2 + qb*t + qc, with roots 2w apart, w^2 = disc / (4 qa^2).
    The residual is |w^2| over the squared major semi-axis -fc / lam_min, so
    it has no unit; fc, the value at the center, comes from _eigenframe.
    Residual below TANGENCY_TOL counts as tangent; det2 = 0, fc = 0 or
    qa = 0 raises NotAnEllipse.
    """
    a, b, c, d, e, f = _sign_normalized_quad(coeffs)
    if a * b - c * c == 0.0:
        raise NotAnEllipse("conic has no center; it is not an ellipse")
    _, lam_min, fc, _ = _eigenframe(a, b, c, d, e, f)
    n = math.hypot(line.a, line.b)
    dx, dy = line.b / n, -line.a / n
    x0 = -line.a * line.c / (n * n)
    y0 = -line.b * line.c / (n * n)
    qa = a * dx * dx + b * dy * dy + 2.0 * c * dx * dy
    scale = 4.0 * qa * qa * abs(fc)
    if scale == 0.0:
        raise NotAnEllipse("restricted quadratic degenerates; conic is not an ellipse")
    qb = (
        2.0 * (a * x0 * dx + b * y0 * dy)
        + 2.0 * c * (x0 * dy + y0 * dx)
        + d * dx
        + e * dy
    )
    qc = a * x0 * x0 + b * y0 * y0 + 2.0 * c * x0 * y0 + d * x0 + e * y0 + f
    disc = qb * qb - 4.0 * qa * qc
    residual = abs(disc * lam_min) / scale
    if residual < TANGENCY_TOL:
        t = -qb / (2.0 * qa)
        return TangencyResult(TangencyKind.TANGENT, (x0 + t * dx, y0 + t * dy), residual)
    if disc > 0.0:
        return TangencyResult(TangencyKind.SECANT, None, residual)
    return TangencyResult(TangencyKind.DISJOINT, None, residual)


def conic_transform(coeffs: ConicCoeffs, tmap: AffineMap) -> ConicCoeffs:
    """Coefficients of the image curve under an invertible affine map.

    Substitutes the inverse map into the quadratic form, so a point p lies on
    the input conic exactly when tmap(p) lies on the result.
    """
    inv = tmap.inverse()
    p, q, r = inv.m00, inv.m01, inv.tx
    s, t, u = inv.m10, inv.m11, inv.ty
    a, b, c, d, e, f = coeffs.as_tuple()
    na = a * p * p + b * s * s + 2.0 * c * p * s
    nb = a * q * q + b * t * t + 2.0 * c * q * t
    nc = a * p * q + b * s * t + c * (p * t + q * s)
    nd = 2.0 * (a * p * r + b * s * u) + 2.0 * c * (p * u + r * s) + d * p + e * s
    ne = 2.0 * (a * q * r + b * t * u) + 2.0 * c * (q * u + r * t) + d * q + e * t
    nf = a * r * r + b * u * u + 2.0 * c * r * u + d * r + e * u + f
    return ConicCoeffs(na, nb, nc, nd, ne, nf)


def ellipse_transform(geom: EllipseGeom, tmap: AffineMap) -> EllipseGeom:
    """Image of an ellipse under an invertible affine map; a singular map
    raises ValueError. It places the centre and the shape R diag(a^2, b^2)
    R^T, R the rotation by phi, and forms no conic coefficients, whose
    rounding grows with the square of the distance from the origin."""
    if tmap.det() == 0.0:
        raise ValueError("affine map is singular")
    cp, sp = math.cos(geom.phi), math.sin(geom.phi)
    a2, b2 = geom.a * geom.a, geom.b * geom.b
    s00, s01, s11 = cp * cp * a2 + sp * sp * b2, cp * sp * (a2 - b2), sp * sp * a2 + cp * cp * b2
    return _placed_ellipse(tmap, geom.center, s00, s01, s11, geom.a * geom.b)


def proportional(c1: ConicCoeffs, c2: ConicCoeffs, tol: float = 1e-9) -> bool:
    """True when the two conics agree up to scale, compared canonically."""
    u = c1.canonical().as_tuple()
    v = c2.canonical().as_tuple()
    return all(abs(x - y) <= tol for x, y in zip(u, v))
