"""Orthogonal least-squares line fitting through planar point sets.

Points are complex numbers (pairs are accepted and coerced). With g the
centroid and w_j = z_j - g, the sum of squared orthogonal distances to the
line through g at angle theta is

    obj(theta) = (1/2) * sum |w_j|^2 - (1/2) * Re(exp(-2i*theta) * sum w_j^2),

so everything is governed by the second central moment Z = sum w_j^2: the
optimal line passes through the centroid, its direction is parallel to the
principal square root of Z, and when Z vanishes (e.g. the vertices of a
square) every direction through the centroid fits equally well.

Also provides three algebraically distinct closed forms for the best-fit
slope of a sheared parallelogram's vertices, used to cross-validate each
other.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateLine, EmptyInput, ParameterOutOfRange, ZeroImaginaryPart
from .geom import Line

# |Z| below this multiple of the spread means no direction is preferred.
_DEGENERATE_RTOL = 1e-12


def _as_complex(p) -> complex:
    if isinstance(p, (tuple, list)):
        return complex(float(p[0]), float(p[1]))
    return complex(p)


class BestFitResult(NamedTuple):
    """Orthogonal least-squares fit of a line to a point set.

    ``moment`` is Z = sum (z - g)^2 and ``spread`` is sum |z - g|^2;
    ``direction`` is the unit complex direction of the unique optimal line
    (parallel to the principal square root of Z), or None when the fit is
    degenerate and every line through the centroid is equally good.
    """

    centroid: complex
    moment: complex
    spread: float
    direction: complex | None

    @property
    def degenerate(self) -> bool:
        return self.direction is None

    def line(self) -> Line:
        if self.direction is None:
            raise DegenerateLine("point set admits no unique best-fit line")
        return Line.from_point_direction(
            (self.centroid.real, self.centroid.imag),
            (self.direction.real, self.direction.imag),
        )

    def objective(self, theta: float) -> float:
        """Sum of squared orthogonal distances to the line through the
        centroid at angle theta."""
        return 0.5 * (self.spread - (self.moment * cmath.exp(-2j * theta)).real)

    def min_objective(self) -> float:
        return 0.5 * (self.spread - abs(self.moment))


def centroid(points: Sequence) -> complex:
    """Arithmetic mean of the points as a complex number."""
    if len(points) == 0:
        raise EmptyInput("centroid of an empty point set")
    return sum(_as_complex(p) for p in points) / len(points)


def second_moment(points: Sequence) -> complex:
    """Second central moment Z = sum (z - g)^2 about the centroid g."""
    g = centroid(points)
    return sum((_as_complex(p) - g) ** 2 for p in points)


def best_fit_line(points: Sequence) -> BestFitResult:
    """Fit a line minimizing the sum of squared orthogonal distances.

    The minimizing line always passes through the centroid; its direction is
    parallel to the principal square root of the moment Z. The fit is
    degenerate exactly when Z vanishes (detected as |Z| below 1e-12 of the
    spread), in which case all lines through the centroid tie.
    """
    if len(points) < 2:
        raise EmptyInput("need at least two points to fit a line")
    g = centroid(points)
    moment = complex(0.0, 0.0)
    spread = 0.0
    for p in points:
        w = _as_complex(p) - g
        moment += w * w
        spread += w.real * w.real + w.imag * w.imag
    if abs(moment) <= _DEGENERATE_RTOL * spread:
        direction = None
    else:
        # The principal square root halves the argument, so Re >= 0 and the
        # direction lands in the closed right half plane; lines are
        # sign-agnostic, so the branch choice is observationally irrelevant.
        w = cmath.sqrt(moment)
        direction = w / abs(w)
    return BestFitResult(centroid=g, moment=moment, spread=spread, direction=direction)


def sum_sq_dist(points: Iterable, line: Line) -> float:
    """Sum of squared Euclidean point-line distances."""
    n2 = line.a * line.a + line.b * line.b
    acc = 0.0
    for p in points:
        z = _as_complex(p)
        acc += line.value_at((z.real, z.imag)) ** 2
    return acc / n2


class SlopeIdentityReport(NamedTuple):
    """Three closed forms of the best-fit slope for a sheared frame.

    The frame has corners (0,0), (l,0), (d+l,k), (d,k) with d > 0; its
    vertex moment is Z = d^2 + l^2 - k^2 + 2*i*d*k and the slope of the
    best-fit line is tan(arg(Z)/2), evaluated three different ways:

      via_sqrt     Im(sqrt(Z)) / Re(sqrt(Z)), principal square root
      via_modulus  (|Z| - Re(Z)) / Im(Z) with the modulus in factored form
                   |Z| = sqrt(((k+l)^2 + d^2) ((k-l)^2 + d^2))
      via_product  ((k^2-d^2-l^2)/(2dk)) * (1 + |Z|/(k^2-d^2-l^2)); at
                   k^2 = d^2 + l^2 the singular factor is removable and the
                   value is |Z|/(2dk)

    ``max_abs_gap`` is the largest pairwise absolute difference.
    """

    d: float
    k: float
    l: float
    via_sqrt: float
    via_modulus: float
    via_product: float
    max_abs_gap: float


def slope_identities(d: float, k: float, l: float) -> SlopeIdentityReport:
    """Evaluate the three slope closed forms for a sheared frame.

    Requires d, k, l > 0. A zero shear d makes the vertex moment real and
    two of the forms divide by zero, so rectangles are rejected with
    ZeroImaginaryPart; the best-fit line is then axis-aligned by the sign of
    the real moment and needs no slope formula.
    """
    if not all(math.isfinite(x) for x in (d, k, l)) or k <= 0.0 or l <= 0.0 or d < 0.0:
        raise ParameterOutOfRange("frame needs finite d >= 0 and k, l > 0")
    if d == 0.0:
        raise ZeroImaginaryPart("rectangle frames have a real vertex moment")
    moment = complex(d * d + l * l - k * k, 2.0 * d * k)
    w = cmath.sqrt(moment)
    via_sqrt = w.imag / w.real
    modulus = math.sqrt(((k + l) ** 2 + d * d) * ((k - l) ** 2 + d * d))
    via_modulus = (modulus - moment.real) / moment.imag
    anti = k * k - d * d - l * l
    if anti == 0.0:
        via_product = modulus / (2.0 * d * k)
    else:
        via_product = (anti / (2.0 * d * k)) * (1.0 + modulus / anti)
    gaps = (
        abs(via_sqrt - via_modulus),
        abs(via_sqrt - via_product),
        abs(via_modulus - via_product),
    )
    return SlopeIdentityReport(
        d=d,
        k=k,
        l=l,
        via_sqrt=via_sqrt,
        via_modulus=via_modulus,
        via_product=via_product,
        max_abs_gap=max(gaps),
    )
