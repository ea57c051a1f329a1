"""Small planar-geometry primitives shared across the package.

Points are plain ``(x, y)`` tuples of floats, lines are implicit
``a*x + b*y + c = 0``, and affine maps carry a 2x2 linear part plus a shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Line:
    """Implicit line ``a*x + b*y + c = 0`` with a nonzero normal ``(a, b)``."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c)):
            raise DegenerateLine("line coefficients must be finite")
        if self.a == 0.0 and self.b == 0.0:
            raise DegenerateLine("line normal (a, b) must be nonzero")

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


@dataclass(frozen=True)
class AffineMap:
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


# A deflated quadratic whose discriminant is negative by no more than this
# multiple of its size has a double root lost to rounding, not complex roots.
_DOUBLE_ROOT_RTOL = 1e-14


def cubic_roots(a: float, b: float, c: float, d: float) -> tuple[float, ...]:
    """Real roots of a*x^3 + b*x^2 + c*x + d, at most three, in no
    particular order; a repeated root appears once per multiplicity.

    Kahan's method ("To Solve a Real Cubic Equation", 1986): Newton's
    iteration from a start beyond the root on the far side of the
    inflection point converges monotonically to one real root; dividing it
    out, from whichever end of the polynomial is stable, leaves a quadratic
    for quadratic_roots. Unlike the trigonometric and Cardano forms it stays
    accurate when the leading coefficient is tiny beside the others. A
    zero leading coefficient falls back to quadratic_roots.

    The iteration runs in y = x / 2**k, where 2**k bounds the roots (from
    the coefficients' exponents, as in Fujiwara's bound), on the cubic
    divided by a power of two, and the quadratic left is divided by one
    too; powers of two scale without rounding, so the size of the
    coefficients does not matter, only the spread of the roots: roots
    further apart than the float range can lose the smaller ones.
    Non-finite coefficients raise ValueError; a root beyond the float range
    raises OverflowError.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise ValueError(f"cubic coefficients must be finite, got {(a, b, c, d)}")
    if a == 0.0:
        return quadratic_roots(b, c, d)
    if d == 0.0:
        return (0.0,) + _quotient_roots(*_pow2_normalized(a, b, c))
    ea = math.frexp(a)[1]
    k = (math.frexp(d)[1] - ea) // 3
    if b != 0.0:
        k = max(k, math.frexp(b)[1] - ea)
    if c != 0.0:
        k = max(k, (math.frexp(c)[1] - ea) // 2)
    # In y the leading coefficient lies in [1/2, 1), the others below 4 in
    # magnitude and the roots below 4.
    a_ = math.ldexp(a, -ea)
    y, b1, c2, from_end = _kahan_root(
        a_, math.ldexp(b, -k - ea), math.ldexp(c, -2 * k - ea), math.ldexp(d, -3 * k - ea)
    )
    x = math.ldexp(y, k)
    if from_end:
        # In x, from c and d as given: the rescaled ones may have underflowed
        # and taken the smaller roots with them. A tiny a scales a, c and d
        # up by 2**-ea, exactly, so that -d / x does not underflow beside a
        # huge root; where that overflows, they stay as given.
        if ea < 0:
            try:
                a, c, d = math.ldexp(a, -ea), math.ldexp(c, -ea), math.ldexp(d, -ea)
            except OverflowError:
                pass
        c2 = -d / x
        b1 = (c2 - c) / x
        return (x,) + _quotient_roots(*_pow2_normalized(a, b1, c2))
    rest = _quotient_roots(*_pow2_normalized(a_, b1, c2))
    if len(rest) == 2:
        return x, math.ldexp(rest[0], k), math.ldexp(rest[1], k)
    return (x,) + rest  # () or (0.0,)


def _pow2_normalized(a: float, b: float, c: float) -> tuple[float, float, float]:
    """The quadratic's coefficients divided by the power of two nearest
    max(|b|, sqrt|a*c|), so its discriminant neither overflows nor
    underflows; the roots do not change."""
    e = (math.frexp(a)[1] + math.frexp(c)[1]) // 2 if c != 0.0 else math.frexp(a)[1]
    if b != 0.0:
        e = max(e, math.frexp(b)[1])
    return math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)


def _quotient_roots(a: float, b1: float, c2: float) -> tuple[float, ...]:
    """Roots of the quadratic a*x^2 + b1*x + c2 left by dividing out one
    root of a cubic."""
    rest = quadratic_roots(a, b1, c2)
    if not rest and b1 * b1 - 4.0 * a * c2 >= -_DOUBLE_ROOT_RTOL * b1 * b1:
        rest = (-0.5 * b1 / a,) * 2
    return rest


def _kahan_root(a: float, b: float, c: float, d: float) -> tuple[float, float, float, bool]:
    """Kahan's first root x of a cubic with a, d != 0, the coefficients
    b1, c2 of the quotient a*x^2 + b1*x + c2 left by dividing it out from
    the leading end, and whether the constant end divides it out more
    stably (the cubic term dominates at x)."""
    x = -(b / a) / 3.0
    fx, slope, b1, c2 = _cubic_eval(a, b, c, d, x)
    t = fx / a
    r = abs(t) ** (1.0 / 3.0)
    s = math.copysign(1.0, t)
    t = -slope / a
    # Kahan's bound: x - s*r lies beyond the root, and each Newton step,
    # shortened by one part in 1e15, stays on that side of it.
    if t > 0.0:
        r = 1.324718 * max(r, math.sqrt(t))
    x_next = x - s * r
    if x_next == x:
        return x, b1, c2, False
    # The residual must fall at every step, which also ends the loop:
    # rounding noise near a multiple root can throw a step past the root,
    # and the last point whose residual fell is kept.
    best = math.inf
    while True:
        fx, slope, b1_next, c2_next = _cubic_eval(a, b, c, d, x_next)
        if not abs(fx) < best:
            break
        x, best, b1, c2 = x_next, abs(fx), b1_next, c2_next
        x_next = x if slope == 0.0 else x - (fx / slope) / 1.000000000000001
        if s * x_next <= s * x:
            break
    return x, b1, c2, abs(a * x * x * x) > abs(d)


def _cubic_eval(a: float, b: float, c: float, d: float, x: float):
    """Value and slope of the cubic at x, and the coefficients b1, c2 of the
    quotient a*x^2 + b1*x + c2 left by dividing out (x - root)."""
    q0 = a * x
    b1 = q0 + b
    c2 = b1 * x + c
    return c2 * x + d, (q0 + b1) * x + c2, b1, c2


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
