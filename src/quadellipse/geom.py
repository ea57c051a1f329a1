"""Small planar-geometry primitives shared across the package.

Points are plain ``(x, y)`` tuples of floats, lines are implicit
``a*x + b*y + c = 0``, and affine maps carry a 2x2 linear part plus a shift.
Also here: a stable quadratic solver and golden-section search. The cubic
solver lives in bounds, beside its one caller.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateLine

Point = tuple[float, float]


def cross2(u: Point, v: Point) -> float:
    return u[0] * v[1] - u[1] * v[0]


def dot2(u: Point, v: Point) -> float:
    return u[0] * v[0] + u[1] * v[1]


def sub2(p: Point, q: Point) -> Point:
    return (p[0] - q[0], p[1] - q[1])


def midpoint(p: Point, q: Point) -> Point:
    return (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))


def distance(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


_Line = NamedTuple("_Line", [("a", float), ("b", float), ("c", float)])


class Line(_Line):
    """Implicit line ``a*x + b*y + c = 0`` with a nonzero normal ``(a, b)``."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float) -> "Line":
        if not all(math.isfinite(v) for v in (a, b, c)):
            raise DegenerateLine("line coefficients must be finite")
        if a == 0.0 and b == 0.0:
            raise DegenerateLine("line normal (a, b) must be nonzero")
        return tuple.__new__(cls, (a, b, c))

    # _replace copies through _make, which would skip the checks above.
    _make = classmethod(lambda cls, values: cls(*values))

    @classmethod
    def through(cls, p: Point, q: Point) -> "Line":
        """Line through two distinct points, normal pointing left of p->q."""
        a = p[1] - q[1]
        b = q[0] - p[0]
        return cls(a, b, -(a * p[0] + b * p[1]))

    @classmethod
    def from_point_direction(cls, p: Point, direction: Point) -> "Line":
        dx, dy = direction
        return cls(-dy, dx, dy * p[0] - dx * p[1])

    def unit(self) -> "Line":
        n = math.hypot(self.a, self.b)
        return Line(self.a / n, self.b / n, self.c / n)

    def value_at(self, p: Point) -> float:
        return self.a * p[0] + self.b * p[1] + self.c

    def distance_to(self, p: Point) -> float:
        return abs(self.value_at(p)) / math.hypot(self.a, self.b)

    def direction(self) -> Point:
        n = math.hypot(self.a, self.b)
        return (self.b / n, -self.a / n)

    def some_point(self) -> Point:
        """The point of the line closest to the origin."""
        n2 = self.a * self.a + self.b * self.b
        return (-self.a * self.c / n2, -self.b * self.c / n2)


class AffineMap(NamedTuple):
    """Affine map ``(x, y) -> (m00*x + m01*y + tx, m10*x + m11*y + ty)``."""

    m00: float
    m01: float
    m10: float
    m11: float
    tx: float = 0.0
    ty: float = 0.0

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def rotation(cls, theta: float, center: Point = (0.0, 0.0)) -> "AffineMap":
        c, s = math.cos(theta), math.sin(theta)
        cx, cy = center
        return cls(c, -s, s, c, cx - c * cx + s * cy, cy - s * cx - c * cy)

    @classmethod
    def translation(cls, tx: float, ty: float) -> "AffineMap":
        return cls(1.0, 0.0, 0.0, 1.0, tx, ty)

    def __call__(self, p: Point) -> Point:
        x, y = p
        return (
            self.m00 * x + self.m01 * y + self.tx,
            self.m10 * x + self.m11 * y + self.ty,
        )

    def det(self) -> float:
        return self.m00 * self.m11 - self.m01 * self.m10

    def inverse(self) -> "AffineMap":
        d = self.det()
        if d == 0.0:
            raise ValueError("affine map is singular")
        i00, i01 = self.m11 / d, -self.m01 / d
        i10, i11 = -self.m10 / d, self.m00 / d
        return AffineMap(
            i00, i01, i10, i11,
            -(i00 * self.tx + i01 * self.ty),
            -(i10 * self.tx + i11 * self.ty),
        )

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """Map equal to ``self(inner(p))``."""
        return AffineMap(
            self.m00 * inner.m00 + self.m01 * inner.m10,
            self.m00 * inner.m01 + self.m01 * inner.m11,
            self.m10 * inner.m00 + self.m11 * inner.m10,
            self.m10 * inner.m01 + self.m11 * inner.m11,
            self.m00 * inner.tx + self.m01 * inner.ty + self.tx,
            self.m10 * inner.tx + self.m11 * inner.ty + self.ty,
        )

    def is_rigid(self, tol: float = 1e-12) -> bool:
        """True when the linear part is a pure rotation (orthogonal, det +1)."""
        r0 = self.m00 * self.m00 + self.m10 * self.m10 - 1.0
        r1 = self.m01 * self.m01 + self.m11 * self.m11 - 1.0
        r2 = self.m00 * self.m01 + self.m10 * self.m11
        return abs(r0) <= tol and abs(r1) <= tol and abs(r2) <= tol and self.det() > 0.0


def quadratic_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of a*x^2 + b*x + c, at most two, in no particular order.

    Uses the subtraction-free variant (divide by the large root's numerator)
    so nearly-cancelling coefficient combinations stay accurate. A negative
    discriminant yields an empty tuple; a linear equation yields one root.
    """
    if a == 0.0:
        return (-c / b,) if b != 0.0 else ()
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
    if q == 0.0:
        return (0.0,)
    return (q / a, c / q)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_min(f, a: float, b: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section search for the minimum of a unimodal f on [a, b].

    Returns (argmin, min value) once the bracket width falls below tol.
    """
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


def golden_max(f, a: float, b: float, tol: float = 1e-12) -> tuple[float, float]:
    x, y = golden_min(lambda u: -f(u), a, b, tol)
    return x, -y
