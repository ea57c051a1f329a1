"""The paper's bounds on one quad.

The maximal inscribed ellipse covers at most pi/4 of a convex quad's area,
with equality exactly for parallelograms, whose maximal member has both
foci on the vertices' best-fit line. The minimal ellipse through the four
vertices has at least pi/2 times its area, which verify's scan tests as a
conjecture. These are the checks ``verify DOC`` runs; verify re-exports
them for the seeded suite and the scan.

The circumscribed construction works in the quad's diagonal frame
(quad.diagonal_frame), where the vertices are (-alpha, 0), (0, -beta),
(1 - alpha, 0), (0, 1 - beta) and the area is 1/2. With p = alpha (1 - alpha)
and r = beta (1 - beta), the conics through them are

    r x^2 + p y^2 + 2c xy + (2 alpha - 1) r x + (2 beta - 1) p y - pr = 0,

one for each c. A member is an ellipse where pr - c^2 > 0 and its center
value has the opposite sign, and its area ratio is then
2 pi pr (n - m c - c^2) / (pr - c^2)^{3/2}, with m = (2 alpha - 1)(2 beta - 1)/2
and n = (p + r)/4 - pr. The ratio is stationary at the real roots of the
monic cubic c^3 + 2m c^2 + (2pr - 3n) c + m pr, and the minimum is the best
of those roots. The ratio depends on (alpha, beta) alone, so units,
placement and aspect do not move it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bestfit import best_fit_line
from .conic import ellipse_area, foci
from .errors import IdentityMismatch, NotParallelogram, OptimizationFailed
from .family import max_area_ellipse
from .geom import distance, quadratic_roots
from .quad import ConvexQuad, diagonal_ratios, quad_area

QUARTER_PI = math.pi / 4.0


class InequalityReport(NamedTuple):
    """Maximal inscribed-area ratio of one quad against the pi/4 bound."""

    ratio: float
    bound_gap: float
    is_parallelogram: bool
    is_trapezoid: bool


def check_area_inequality(q: ConvexQuad) -> InequalityReport:
    """Ratio of the maximal inscribed ellipse area to the quad area.

    Every quad, trapezoids included, uses the closed-form maximal member of
    max_area_ellipse. The gap pi/4 - ratio is zero (to rounding) exactly
    for parallelograms and strictly positive otherwise.
    """
    ratio = ellipse_area(max_area_ellipse(q).geom) / quad_area(q)
    return InequalityReport(
        ratio=ratio,
        bound_gap=QUARTER_PI - ratio,
        is_parallelogram=q.is_parallelogram,
        is_trapezoid=q.is_trapezoid,
    )


def check_foci_on_bestfit(q: ConvexQuad) -> float:
    """Largest distance from the foci of max_area_ellipse(q) to the
    orthogonal best-fit line of q's own vertices.

    The quad must carry the parallelogram flag, else NotParallelogram is
    raised; within the flag's tolerance it is judged as given, not
    re-placed on an exact parallelogram. For squares the vertex moment
    vanishes and no single best-fit line exists; the member must then be a
    circle whose coincident foci sit on the centroid, and the distance to
    the centroid is returned instead.
    """
    if not q.is_parallelogram:
        raise NotParallelogram("the foci check requires both opposite side pairs parallel")
    member = max_area_ellipse(q)
    f1, f2 = foci(member.geom)
    fit = best_fit_line(q.vertices)
    if fit.degenerate:
        if member.geom.a - member.geom.b > 1e-9 * member.geom.a:
            raise IdentityMismatch(
                "vertex moment vanished but the maximal member is not a circle"
            )
        g = (fit.centroid.real, fit.centroid.imag)
        return max(distance(f1, g), distance(f2, g))
    line = fit.line()
    return max(line.distance_to(f1), line.distance_to(f2))


def circumscribed_min_ratio(q: ConvexQuad) -> float:
    """Minimal area ratio over ellipses through the four vertices.

    Works in the diagonal frame (see the module docstring). The ratio is
    infinite at both ends of the ellipse range of c, so the minimum is at a
    root of the stationarity cubic. A root is scored only where both
    pr - c^2 and n - m c - c^2 are positive, that is, where the member is a
    real ellipse: on a trapezoid the two parallel sides form a member with
    both zero, and rounding can put that root just inside the range with a
    ratio <= 0. Before the ratio is reported, the winning conic, scaled so
    that its largest coefficient is 1 as ConicCoeffs.canonical scales it,
    is checked to pass through the four frame vertices to 1e-9. Only
    (alpha, beta) are taken from the quad: no frame map or conic object is
    built.
    """
    alpha, beta = diagonal_ratios(q)
    p, r = alpha * (1.0 - alpha), beta * (1.0 - beta)
    pr = p * r
    m = 0.5 * (2.0 * alpha - 1.0) * (2.0 * beta - 1.0)
    n = 0.25 * (p + r) - pr
    best_c, best = math.nan, math.inf
    for c in cubic_roots(1.0, 2.0 * m, 2.0 * pr - 3.0 * n, m * pr):
        det2, center = pr - c * c, n - m * c - c * c
        if det2 > 0.0 and center > 0.0:
            ratio = 2.0 * math.pi * pr * center / (det2 * math.sqrt(det2))
            if ratio < best:
                best_c, best = c, ratio
    if not math.isfinite(best):
        raise OptimizationFailed("no ellipse member found in the vertex pencil")
    # Each frame vertex lies on an axis, so the terms dropped from the
    # conic's value there are exact zeros.
    d, e = (2.0 * alpha - 1.0) * r, (2.0 * beta - 1.0) * p
    k = 1.0 / max((r, p, best_c, d, e, -pr), key=abs)
    a, b, d, e, f = k * r, k * p, k * d, k * e, k * -pr
    worst = max(
        abs(a * alpha * alpha - d * alpha + f),
        abs(b * beta * beta - e * beta + f),
        abs(a * (1.0 - alpha) * (1.0 - alpha) + d * (1.0 - alpha) + f),
        abs(b * (1.0 - beta) * (1.0 - beta) + e * (1.0 - beta) + f),
    )
    if worst > 1e-9:
        raise OptimizationFailed(
            f"minimal member misses a vertex by {worst:.3g} in the diagonal frame"
        )
    return best


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
