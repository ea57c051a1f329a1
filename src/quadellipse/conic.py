"""Conic sections in the six-coefficient form a*x^2 + b*y^2 + 2c*x*y + d*x + e*y + f = 0.

Note the cross-term convention: the stored coefficient ``c`` is half the
full x*y coefficient, so the associated symmetric matrix is

    [[a,   c,   d/2],
     [c,   b,   e/2],
     [d/2, e/2, f  ]]

Classification, ellipse geometry extraction (center, semi-axes, rotation
angle), foci, line/conic tangency, and pushforward under affine maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NotAnEllipse, SingularCenterSystem
from .geom import AffineMap, Line, Point

# A conic counts as degenerate when its value at the center (or, without a
# center, its 3x3 determinant) is below this multiple of its scale; see
# classify_conic.
DEGENERACY_RTOL = 1e-12

# A line counts as tangent when the normalized restricted discriminant is
# below this bound (see line_tangency).
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


@dataclass(frozen=True)
class ConicCoeffs:
    """Coefficients of a*x^2 + b*y^2 + 2c*x*y + d*x + e*y + f = 0."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self) -> None:
        if self.a == 0.0 and self.b == 0.0 and self.c == 0.0:
            raise ValueError("quadratic part must not vanish identically")

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


@dataclass(frozen=True)
class EllipseGeom:
    """Ellipse as center, semi-axes a >= b > 0, and major-axis angle in [0, pi)."""

    center: Point
    a: float
    b: float
    phi: float

    def __post_init__(self) -> None:
        if not (self.a >= self.b > 0.0):
            raise ValueError("semi-axes must satisfy a >= b > 0")
        phi = self.phi % math.pi
        object.__setattr__(self, "phi", phi)

    def boundary_point(self, theta: float) -> Point:
        """Point at eccentric angle theta."""
        cp, sp = math.cos(self.phi), math.sin(self.phi)
        u = self.a * math.cos(theta)
        v = self.b * math.sin(theta)
        return (self.center[0] + u * cp - v * sp, self.center[1] + u * sp + v * cp)


@dataclass(frozen=True)
class TangencyResult:
    """Outcome of restricting a conic to a line.

    ``residual`` is the restricted discriminant after normalizing the
    restricted quadratic's leading coefficient to one, which makes it
    invariant under rescaling of both the conic and the line.
    """

    kind: TangencyKind
    point: Point | None
    residual: float


def _sign_normalized_quad(coeffs: ConicCoeffs) -> tuple[float, float, float, float, float, float]:
    """Coefficients scaled so the quadratic part has positive trace."""
    if coeffs.a + coeffs.b < 0.0:
        return (-coeffs.a, -coeffs.b, -coeffs.c, -coeffs.d, -coeffs.e, -coeffs.f)
    return coeffs.as_tuple()


def classify_conic(coeffs: ConicCoeffs) -> ConicKind:
    """Classify by the sign of a*b - c^2 and the value at the center.

    A central conic (a*b - c^2 clear of zero) is degenerate when its value
    at the center, fc = det3 / (a*b - c^2), vanishes to within
    DEGENERACY_RTOL of the terms summed to form it, or when it has no real
    points. That test does not depend on the conic's size or placement, so
    a thin ellipse stays an ellipse. A non-central conic is degenerate when
    its 3x3 determinant is below DEGENERACY_RTOL of the cubed coefficient
    scale, and a parabola otherwise.
    """
    a, b, c, d, e, f = coeffs.as_tuple()
    det2 = coeffs.det2()
    qscale = max(abs(a), abs(b), abs(c))
    if abs(det2) < DEGENERACY_RTOL * qscale * qscale:
        scale = coeffs.max_abs()
        if abs(coeffs.det3()) < DEGENERACY_RTOL * scale * scale * scale:
            return ConicKind.DEGENERATE
        return ConicKind.PARABOLA
    cx = (c * e - b * d) / (2.0 * det2)
    cy = (c * d - a * e) / (2.0 * det2)
    fc = f + 0.5 * (d * cx + e * cy)
    if abs(fc) <= DEGENERACY_RTOL * (abs(f) + 0.5 * (abs(d * cx) + abs(e * cy))):
        return ConicKind.DEGENERATE
    if det2 < 0.0:
        return ConicKind.HYPERBOLA
    # det2 > 0: a real ellipse needs the center value and the quadratic
    # trace on opposite signs; otherwise the point set is empty.
    if (a + b) * fc < 0.0:
        return ConicKind.ELLIPSE
    return ConicKind.DEGENERATE


def rotation_angle(coeffs: ConicCoeffs) -> float:
    """Angle in [0, pi) from the x-axis to the major axis of an ellipse.

    Case table on the sign-normalized quadratic part (positive trace):

        c == 0, a < b   ->  0
        c == 0, a > b   ->  pi/2
        c != 0, a < b   ->  (1/2) * arccot((a - b) / (2c))        mod pi
        c != 0, a > b   ->  pi/2 + (1/2) * arccot((a - b) / (2c))
        c < 0,  a == b  ->  pi/4
        c > 0,  a == b  ->  3*pi/4

    arccot here takes values in (-pi/2, 0) u (0, pi/2), i.e. arctan of the
    reciprocal; the a < b branch then lands in (-pi/4, pi/4) and is lifted
    into [0, pi). a < b pairs with angles near the x-axis and a > b with
    angles near the y-axis, which is why only the a > b branch carries the
    pi/2 shift. Circles (c == 0, a == b) have no preferred axis; 0 is
    returned.
    """
    if classify_conic(coeffs) is not ConicKind.ELLIPSE:
        raise NotAnEllipse("rotation angle is defined for ellipses only")
    a, b, c, *_ = _sign_normalized_quad(coeffs)
    if c == 0.0:
        return 0.0 if a <= b else math.pi / 2.0
    if a == b:
        return math.pi / 4.0 if c < 0.0 else 3.0 * math.pi / 4.0
    acot = math.atan(2.0 * c / (a - b))
    phi = 0.5 * acot
    if a > b:
        phi += math.pi / 2.0
    elif phi < 0.0:
        phi += math.pi
    return phi


def conic_to_ellipse(coeffs: ConicCoeffs) -> EllipseGeom:
    """Recover center, semi-axes, and axis angle of a real ellipse.

    The center solves the vanishing-gradient system; semi-axes come from the
    eigenvalues of the quadratic part, and the axis angle from the eigenvector
    of the smaller eigenvalue. The angle agrees with rotation_angle up to
    floating-point error.
    """
    if classify_conic(coeffs) is not ConicKind.ELLIPSE:
        raise NotAnEllipse("coefficients do not describe a real ellipse")
    a, b, c, d, e, f = _sign_normalized_quad(coeffs)
    det2 = a * b - c * c
    qscale = max(abs(a), abs(b), abs(c))
    if det2 <= DEGENERACY_RTOL * qscale * qscale:
        raise SingularCenterSystem("quadratic part is singular; no unique center")
    cx = (c * e - b * d) / (2.0 * det2)
    cy = (c * d - a * e) / (2.0 * det2)
    # Value at the center; the gradient vanishes there, so the quadratic part
    # contributes -(d*cx + e*cy)/2.
    fc = f + 0.5 * (d * cx + e * cy)
    tr = a + b
    disc = math.hypot(a - b, 2.0 * c)
    # tr - disc cancels badly for thin ellipses; recover the small eigenvalue
    # from the exact product lam_min * lam_max = det2 instead. For a circle
    # that quotient can round above lam_max, which would swap the axes.
    lam_max = 0.5 * (tr + disc)
    lam_min = min(det2 / lam_max, lam_max)
    if fc >= 0.0 or lam_min <= 0.0:
        raise NotAnEllipse("coefficients describe an ellipse with no real points")
    major = math.sqrt(-fc / lam_min)
    minor = math.sqrt(-fc / lam_max)
    if disc <= 1e-14 * tr:
        phi = 0.0
    else:
        # Eigenvector of lam_min; pick the better-conditioned expression.
        v1 = (c, lam_min - a)
        v2 = (lam_min - b, c)
        v = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
        phi = math.atan2(v[1], v[0]) % math.pi
    return EllipseGeom(center=(cx, cy), a=major, b=minor, phi=phi)


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

    The conic is restricted to a unit-speed parameterization of the line,
    giving q(t) = qa*t^2 + qb*t + qc. The reported residual is
    |qb^2 - 4*qa*qc| / qa^2, i.e. the squared distance between the two
    parameter roots, which is invariant under rescaling the conic or the
    line. Residual below TANGENCY_TOL counts as tangent.
    """
    n = math.hypot(line.a, line.b)
    dx, dy = line.b / n, -line.a / n
    x0 = -line.a * line.c / (n * n)
    y0 = -line.b * line.c / (n * n)
    a, b, c, d, e, f = coeffs.as_tuple()
    qa = a * dx * dx + b * dy * dy + 2.0 * c * dx * dy
    if qa == 0.0:
        raise NotAnEllipse("restricted quadratic degenerates; conic is not an ellipse")
    qb = (
        2.0 * (a * x0 * dx + b * y0 * dy)
        + 2.0 * c * (x0 * dy + y0 * dx)
        + d * dx
        + e * dy
    )
    qc = coeffs.evaluate(x0, y0)
    disc = qb * qb - 4.0 * qa * qc
    residual = abs(disc) / (qa * qa)
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
    """Image of an ellipse under an invertible affine map."""
    return conic_to_ellipse(conic_transform(geometry_to_conic(geom), tmap))


def proportional(c1: ConicCoeffs, c2: ConicCoeffs, tol: float = 1e-9) -> bool:
    """True when the two conics agree up to scale, compared canonically."""
    u = c1.canonical().as_tuple()
    v = c2.canonical().as_tuple()
    return all(abs(x - y) <= tol for x, y in zip(u, v))
