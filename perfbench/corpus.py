"""Seeded inputs and independent reference answers for the benchmark.

Nothing here calls into ``quadellipse``: the shapes, their placements and
the reference ratios come from closed forms written out again in this file,
so a defect in the library cannot leak into the answers it is checked
against. The one exception is the scan workload, whose inputs are by
definition the library's own slot sampler; its references still come from
``dense_circumscribed_ratio`` below, not from ``verify``'s helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)
QUARTER_PI = math.pi / 4.0

GENERAL, TRAPEZOID, PARALLELOGRAM = "general", "trapezoid", "parallelogram"

# Shares of the inscribe corpus by shape, and of placements that are "wide".
KIND_SHARES = ((GENERAL, 0.6), (TRAPEZOID, 0.2), (PARALLELOGRAM, 0.2))
WIDE_SHARE = 0.25

# Area over squared diameter below which a document counts as thin. The
# library refuses some thin unit-scale quads with a typed error; over 180
# seeded inscribe corpora no refused non-wide document was thicker than
# 0.006, and refusals grew about threefold rarer per 0.001 above 0.003.
THIN = 0.02

# Points on the dense circumscribed reference's grid over the ellipse arc,
# grid points evaluated at a time (which bounds its memory), and
# golden-section polish rounds.
_DENSE_GRID = 512
_DENSE_SLICE = 64
_DENSE_ROUNDS = 64

# Canonical pairs and trapezoid side ratios keep this relative margin from
# the parallelogram/trapezoid boundary, where the closed forms are singular.
_MARGIN = 0.05


@dataclass(frozen=True)
class Doc:
    """One quad document with everything needed to judge an answer to it.

    ``offset_diams`` is the distance of the placed quad from the origin in
    units of its diameter; the answer tolerance grows with it because the
    input rounding does.
    """

    index: int
    kind: str
    wide: bool
    vertices: tuple[tuple[float, float], ...]
    ref_ratio: float
    offset_diams: float
    diameter: float
    area: float
    render: bool
    ref_angle: float | None
    angle_scale: float

    @property
    def thin(self) -> bool:
        return self.area / self.diameter**2 < THIN

    def tolerance(self) -> float:
        """Relative tolerance on an affine-invariant answer."""
        return 1e-9 + 1e3 * EPS * self.offset_diams


def paper_ratio(s: float, t: float) -> float:
    """Maximal inscribed ellipse area over quad area, canonical (s, t) quad.

    The quad is (0,0), (1,0), (s,t), (0,1). This is the paper's factored
    form: ratio^2 = (pi^2/27) f1 f2 f3 / ((s-1)^2 (t-1)^2 (s+t)^2) with
    b = (st - (s+t-1))^2 + st(s+t-1) and
    f1 = 2st - s - t + 1 - sqrt(b), f2 = st - 2s - 2t + 2 + sqrt(b),
    f3 = s + st + t - 1 + sqrt(b).
    """
    core = s * t - (s + t - 1.0)
    rb = math.sqrt(core * core + s * t * (s + t - 1.0))
    f1 = 2.0 * s * t - s - t + 1.0 - rb
    f2 = s * t - 2.0 * s - 2.0 * t + 2.0 + rb
    f3 = s + s * t + t - 1.0 + rb
    den = (s - 1.0) ** 2 * (t - 1.0) ** 2 * (s + t) ** 2
    return math.sqrt((math.pi * math.pi / 27.0) * f1 * f2 * f3 / den)


def trapezoid_ratio(p: float, r: float) -> float:
    """Maximal inscribed ratio of a trapezoid with parallel sides p and r."""
    return (math.pi / 2.0) * math.sqrt(p * r) / (p + r)


def _canonical_pair(rng: np.random.Generator) -> tuple[float, float]:
    while True:
        s, t = rng.uniform(_MARGIN, 4.0, 2)
        if s + t > 1.0 + 2 * _MARGIN and abs(s - 1.0) > _MARGIN and abs(t - 1.0) > _MARGIN:
            return float(s), float(t)


def _shape(rng: np.random.Generator, kind: str) -> tuple[np.ndarray, float]:
    """Unplaced vertices (counterclockwise) and the shape's reference ratio."""
    if kind == GENERAL:
        s, t = _canonical_pair(rng)
        return np.array([(0.0, 0.0), (1.0, 0.0), (s, t), (0.0, 1.0)]), paper_ratio(s, t)
    if kind == TRAPEZOID:
        while True:
            rho = float(10.0 ** rng.uniform(-1.0, 1.0))
            if abs(rho - 1.0) > _MARGIN:
                break
        h = float(10.0 ** rng.uniform(-0.5, 0.5))
        x = float(rng.uniform(-rho, 1.0))
        verts = np.array([(0.0, 0.0), (1.0, 0.0), (x + rho, h), (x, h)])
        return verts, trapezoid_ratio(1.0, rho)
    d = float(rng.uniform(-1.0, 1.0))
    k = float(10.0 ** rng.uniform(-0.5, 0.5))
    return np.array([(0.0, 0.0), (1.0, 0.0), (1.0 + d, k), (d, k)]), QUARTER_PI


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _diameter(pts) -> float:
    return max(math.dist(pts[i], pts[j]) for i in range(4) for j in range(i + 1, 4))


def shoelace(pts) -> float:
    acc = 0.0
    for i in range(4):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % 4]
        acc += x0 * y1 - x1 * y0
    return 0.5 * abs(acc)


def make_doc(
    rng: np.random.Generator, index: int, kind: str, wide: bool, render: bool, strata
) -> Doc:
    """Place one shape by a random affine map.

    The map is a rotation, an anisotropic squash of up to 100:1, another
    rotation and a uniform scale of 10^[-1, 1], then an offset of up to 3
    diameters. Wide placements scale by 10^[-4, 4] and sit 10^[0, 7]
    diameters from the origin. The first vertex is rotated at random, so
    documents do not arrive in the library's own vertex order. ``strata``
    holds the uniform variates that set squash, scale and offset.
    """
    u_aniso, u_scale, u_offset = strata
    shape, ref = _shape(rng, kind)
    shape = shape - shape.mean(axis=0)
    aniso = float(10.0 ** (2.0 * u_aniso))
    scale = float(10.0 ** ((8.0 * u_scale - 4.0) if wide else (2.0 * u_scale - 1.0)))
    linear = scale * _rotation(rng.uniform(0.0, 2 * math.pi)) @ np.diag([1.0, 1.0 / aniso])
    linear = linear @ _rotation(rng.uniform(0.0, 2 * math.pi))
    pts = shape @ linear.T
    diam = _diameter(pts)
    offset_diams = float(10.0 ** (7.0 * u_offset)) if wide else float(3.0 * u_offset)
    phi = rng.uniform(0.0, 2 * math.pi)
    offset = offset_diams * diam * np.array([math.cos(phi), math.sin(phi)])
    placed = pts + offset
    start = int(rng.integers(4))
    verts = tuple((float(x), float(y)) for x, y in np.roll(placed, -start, axis=0))
    ref_angle, angle_scale = principal_angle(pts)
    return Doc(
        index=index,
        kind=kind,
        wide=wide,
        vertices=verts,
        ref_ratio=ref,
        offset_diams=offset_diams,
        diameter=diam,
        area=float(shoelace(pts)),
        render=render,
        ref_angle=ref_angle,
        angle_scale=angle_scale,
    )


def _exact_kinds(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` kinds in the KIND_SHARES proportions, shuffled."""
    kinds: list[str] = []
    for kind, share in KIND_SHARES:
        kinds.extend([kind] * round(share * count))
    kinds = (kinds + [GENERAL] * count)[:count]
    return [kinds[i] for i in rng.permutation(count)]


def _strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """Squash, scale and offset variates for ``count`` documents, stratified:
    each of ``count`` equal slices of every range holds one document. A
    corpus then spans the same ranges on every seed, so the share of thin
    or far-off quads, which the library fails most, varies less from seed
    to seed than independent draws would let it."""
    return (np.stack([rng.permutation(count) for _ in range(3)], axis=1) + rng.random((count, 3))) / count


def inscribe_corpus(seed: int, count: int) -> list[Doc]:
    """``count`` documents, a WIDE_SHARE of them wide, in exact kind shares
    and stratified placements within the wide and the other documents,
    shuffled together; about one in eight is marked for rendering."""
    rng = np.random.default_rng((seed, 0x1A5C))
    wide = np.zeros(count, dtype=bool)
    wide[rng.permutation(count)[: round(WIDE_SHARE * count)]] = True
    kinds = np.empty(count, dtype=object)
    strata = np.empty((count, 3))
    for group in (wide, ~wide):
        size = int(group.sum())
        kinds[group] = _exact_kinds(rng, size)
        strata[group] = _strata(rng, size)
    render = rng.random(count) < 1.0 / 8.0
    return [
        make_doc(rng, i, kinds[i], bool(wide[i]), bool(render[i]), strata[i]) for i in range(count)
    ]


def cold_corpus(seed: int, count: int) -> list[Doc]:
    """``count`` unit-scale documents in exact kind shares, with stratified
    placements, so that a small corpus spans the same ranges on every seed."""
    rng = np.random.default_rng((seed, 0xC01D))
    kinds = _exact_kinds(rng, count)
    strata = _strata(rng, count)
    return [make_doc(rng, i, kinds[i], False, False, strata[i]) for i in range(count)]


def principal_angle(pts) -> tuple[float | None, float]:
    """Angle in [0, pi) of the orthogonal best-fit line through ``pts``,
    from the 2x2 scatter matrix, and the factor spread / |moment| by which
    coordinate errors are amplified in that angle. The angle is None when
    the point set is too close to having no preferred direction."""
    n = len(pts)
    gx = sum(p[0] for p in pts) / n
    gy = sum(p[1] for p in pts) / n
    sxx = sum((p[0] - gx) ** 2 for p in pts)
    syy = sum((p[1] - gy) ** 2 for p in pts)
    sxy = sum((p[0] - gx) * (p[1] - gy) for p in pts)
    moment = math.hypot(sxx - syy, 2.0 * sxy)
    if moment <= 1e-6 * (sxx + syy):
        return None, math.inf
    return (0.5 * math.atan2(2.0 * sxy, sxx - syy)) % math.pi, (sxx + syy) / moment


def angle_gap(a: float, b: float) -> float:
    """Distance between two line angles, modulo pi."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def inside_quad(pts, p, slack: float) -> bool:
    """Point-in-convex-quad test with an absolute slack, any orientation."""
    signs = []
    for i in range(4):
        (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % 4]
        cross = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0)
        signs.append(cross / math.hypot(x1 - x0, y1 - y0))
    return all(v >= -slack for v in signs) or all(v <= slack for v in signs)


def dense_circumscribed_ratio(verts) -> np.ndarray:
    """Minimal circumscribed-ellipse area over quad area, for ``(N, 4, 2)``
    counterclockwise vertex arrays.

    Every conic through the four vertices is cos(th) C1 + sin(th) C2, with
    C1 and C2 the products of opposite side lines. The quadratic-part
    determinant is m + R cos(2 th - phi), so the ellipse members are the
    open arc |2 th - phi| < arccos(-m / R). The area pi |det M| / det2^(3/2)
    is evaluated on a dense grid over that arc and the best grid point is
    polished by golden-section search between its neighbours.
    """
    v = np.asarray(verts, dtype=np.float64)
    v = v - v.mean(axis=1, keepdims=True)
    v = v / np.abs(v).max(axis=(1, 2), keepdims=True)
    p, q = v, np.roll(v, -1, axis=1)
    lines = np.stack(
        [p[..., 1] - q[..., 1], q[..., 0] - p[..., 0], p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1]],
        axis=-1,
    )
    lines /= np.hypot(lines[..., 0], lines[..., 1])[..., None]

    def pair(a, b):
        outer = a[:, :, None] * b[:, None, :]
        return 0.5 * (outer + np.swapaxes(outer, 1, 2))

    c1 = pair(lines[:, 0], lines[:, 2])
    c2 = pair(lines[:, 1], lines[:, 3])

    def det2(m):
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]

    alpha = det2(c1)
    gamma = det2(c2)
    beta = (
        c1[:, 0, 0] * c2[:, 1, 1] + c1[:, 1, 1] * c2[:, 0, 0] - 2.0 * c1[:, 0, 1] * c2[:, 0, 1]
    )
    mid = 0.5 * (alpha + gamma)
    amp = np.hypot(0.5 * (alpha - gamma), 0.5 * beta)
    phase = np.arctan2(beta, alpha - gamma)
    half_width = 0.5 * np.arccos(np.clip(-mid / amp, -1.0, 1.0))
    centre = 0.5 * phase

    def area(u):
        # The member is symmetric; its six entries are built one at a time
        # so that no (N, grid, 3, 3) array is ever held.
        th = centre[:, None] + half_width[:, None] * u
        cs, sn = np.cos(th), np.sin(th)

        def entry(i, j):
            return cs * c1[:, i, j, None] + sn * c2[:, i, j, None]

        a, b, c = entry(0, 0), entry(0, 1), entry(1, 1)
        d, e, f = entry(0, 2), entry(1, 2), entry(2, 2)
        d2 = a * c - b * b
        d3 = a * (c * f - e * e) - b * (b * f - e * d) + d * (b * e - c * d)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = math.pi * np.abs(d3) / d2**1.5
        return np.where(d2 > 0.0, out, np.inf)

    grid = _DENSE_GRID
    u = -1.0 + (2.0 * np.arange(grid) + 1.0) / grid
    vals = np.concatenate(
        [area(u[None, j : j + _DENSE_SLICE]) for j in range(0, grid, _DENSE_SLICE)], axis=1
    )
    best = np.argmin(vals, axis=1)
    lo = u[np.maximum(best - 1, 0)][:, None] - (best == 0)[:, None] / grid
    hi = u[np.minimum(best + 1, grid - 1)][:, None] + (best == grid - 1)[:, None] / grid
    lo = np.maximum(lo, -1.0 + 1e-12)
    hi = np.minimum(hi, 1.0 - 1e-12)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = area(x1), area(x2)
    for _ in range(_DENSE_ROUNDS):
        left = f1 < f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        xn = np.where(left, hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo))
        fn = area(xn)
        x1, x2 = np.where(left, xn, x2), np.where(left, x1, xn)
        f1, f2 = np.where(left, fn, f2), np.where(left, f1, fn)
    best_area = np.minimum(np.min(vals, axis=1), np.minimum(f1, f2)[:, 0])
    quad = 0.5 * np.abs(np.sum(p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1], axis=1))
    return best_area / quad
