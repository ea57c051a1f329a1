"""Executable checks of the package's mathematical claims.

Covers the inscribed-area ratio bound (three independent evaluations of the
ratio that must agree), the bounding profile z and its grid scan, the
critical-abscissa interval membership, the second-derivative-root
counterexample, a seeded sampling harness for the circumscribed-ratio
conjecture, and the suite that runs them all. The per-quad bounds the suite
and the scan call (the pi/4 inscribed ratio, the foci on the best-fit line
and the circumscribed minimum) live in bounds, which a one-document check
loads without this module, and are re-exported here.

numpy is imported inside the functions that draw samples or scan the
z-grid, not at module level, so importing the package (and every CLI
command that reads a document) does not load it.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from .bestfit import slope_identities
# The suite and the scan call these through this module's names, bound to
# bounds' very objects, so rebinding a name here (a test's stub, a tracer's
# span) reaches those calls.
from .bounds import (
    QUARTER_PI,
    InequalityReport,
    check_area_inequality,
    check_foci_on_bestfit,
    circumscribed_min_ratio,
)
from .conic import ellipse_area, foci
from .errors import (
    DegenerateVertices,
    DomainError,
    IdentityMismatch,
    NotConvex,
    QuadEllipseError,
)
from .family import (
    ellipse_at_center,
    locus_line,
    max_area_ellipse,
    max_area_param,
)
from .geom import Point, distance
from .quad import (
    ConvexQuad,
    diagonal_midpoints,
    normalize,
    quad_area,
    require_canonical_pair,
    validate,
)

# Mutual agreement demanded of the three analytic ratio evaluations.
RATIO_AGREE_RTOL = 1e-10

# A circumscribed ratio below pi/2 by more than this flags a counterexample.
CONJECTURE_TOL = 1e-9

HALF_PI = math.pi / 2.0

# Canonical pairs sampled for identity checks keep this margin from the
# excluded values s = 1, t = 1; the identities hold right up to the boundary
# but the shared factors cancel there and drag the attainable agreement
# below the advertised tolerance.
_UNIT_MARGIN = 0.05

_SCAN_BIN_WIDTH = 0.1
_SCAN_BINS = 16


class ProofVars(NamedTuple):
    """Substitution variables behind the area-ratio bound.

    u = s + t - 1 and v = s*t; w is u/v when u < v (case 1) and v/u when
    v < u (case 2), so 0 < w < 1 always. The cases partition all valid
    (s, t): u = v would force (s-1)(t-1) = 0, which the domain excludes.
    """

    s: float
    t: float
    u: float
    v: float
    w: float
    case: int


def proof_vars(s: float, t: float) -> ProofVars:
    require_canonical_pair(s, t)
    u = s + t - 1.0
    v = s * t
    if u < v:
        return ProofVars(s=s, t=t, u=u, v=v, w=u / v, case=1)
    return ProofVars(s=s, t=t, u=u, v=v, w=v / u, case=2)


def b_fn(s: float, t: float) -> float:
    """(st - (s+t-1))^2 + st(s+t-1); equals c_fn(s+t-1, st)."""
    if not (s > 0.0 and t > 0.0 and s + t > 1.0):
        raise DomainError("b_fn needs s, t > 0 with s + t > 1")
    core = s * t - (s + t - 1.0)
    return core * core + s * t * (s + t - 1.0)


def c_fn(u: float, v: float) -> float:
    """u^2 - uv + v^2 on the image of the (s, t) -> (u, v) substitution."""
    if not (u > 0.0 and v > 0.0):
        raise DomainError("c_fn needs u, v > 0")
    if (u + 1.0) * (u + 1.0) < 4.0 * v:
        raise DomainError("no real (s, t) maps to this (u, v): (u+1)^2 < 4v")
    return u * u - u * v + v * v


def d_fn(u: float, v: float) -> float:
    """((v-2u)(2v-u)(u+v) + 2 c(u,v)^{3/2}) / ((u+1)^2 (v-u)^2).

    The squared area ratio equals (pi^2/27) * d_fn(u, v). Undefined at
    u = v, which corresponds to the excluded boundary (s-1)(t-1) = 0.
    """
    c = c_fn(u, v)
    if u == v:
        raise DomainError("d_fn is singular at u = v")
    num = (v - 2.0 * u) * (2.0 * v - u) * (u + v) + 2.0 * c * math.sqrt(c)
    den = (u + 1.0) ** 2 * (v - u) ** 2
    return num / den


def z_fn(w: float) -> float:
    """Bounding profile ((1-2w)(2-w)(1+w) + 2(w^2-w+1)^{3/2}) / (1-w)^2.

    Defined on (0, 1) with z -> 4 at 0 and z -> 27/4 at 1; strictly below
    27/4 inside. Past w = 1/2 the direct form subtracts nearly equal
    quantities, so the equivalent -27 w^2 / (P - 2 Q^{3/2}) with
    P = 2w^3 - 3w^2 - 3w + 2 and Q = w^2 - w + 1 is used there; the two
    agree because P^2 - 4 Q^3 = -27 w^2 (w-1)^2.
    """
    if not 0.0 < w < 1.0:
        raise DomainError(f"z_fn domain is the open interval (0, 1), got {w}")
    q = (w - 1.0) * w + 1.0
    if w <= 0.5:
        num = (1.0 - 2.0 * w) * (2.0 - w) * (1.0 + w) + 2.0 * q * math.sqrt(q)
        return num / ((1.0 - w) * (1.0 - w))
    p = ((2.0 * w - 3.0) * w - 3.0) * w + 2.0
    return -27.0 * w * w / (p - 2.0 * q * math.sqrt(q))


def _z_values(w: np.ndarray) -> np.ndarray:
    """Vectorized z_fn for grid scans; same direct/reciprocal split."""
    import numpy as np

    q = (w - 1.0) * w + 1.0
    out = np.empty_like(w)
    low = w <= 0.5
    wl, ql = w[low], q[low]
    out[low] = ((1.0 - 2.0 * wl) * (2.0 - wl) * (1.0 + wl) + 2.0 * ql * np.sqrt(ql)) / (
        (1.0 - wl) * (1.0 - wl)
    )
    wh, qh = w[~low], q[~low]
    p = ((2.0 * wh - 3.0) * wh - 3.0) * wh + 2.0
    out[~low] = -27.0 * wh * wh / (p - 2.0 * qh * np.sqrt(qh))
    return out


def scan_z_bound(grid_n: int) -> float:
    """Maximum of z_fn over the uniform open-interval grid i/(grid_n+1).

    Beyond the grid maximum (which must stay below 27/4), the scan verifies
    that the derivative of z has no interior zero: rationalizing
    z'(w) = (A + B sqrt(Q)) / (w-1)^3 with A = 2w^3 - 6w^2 + 9w - 1 and
    B = 2w^2 - 5w - 1 gives A^2 - B^2 Q = 27 w (w-1)^3, which is checked to
    be strictly negative (hence nonzero) across the grid.
    """
    import numpy as np

    if grid_n < 2:
        raise DomainError("grid_n must be at least 2")
    w = np.arange(1, grid_n + 1, dtype=np.float64) / (grid_n + 1.0)
    z = _z_values(w)
    zmax = float(z.max())
    if zmax >= 27.0 / 4.0:
        raise IdentityMismatch(f"profile reached {zmax} >= 27/4 on the grid")
    lead = ((2.0 * w - 6.0) * w + 9.0) * w - 1.0
    trail = (2.0 * w - 5.0) * w - 1.0
    q = (w - 1.0) * w + 1.0
    lhs = lead * lead - trail * trail * q
    rhs = 27.0 * w * (w - 1.0) ** 3
    if float(rhs.max()) >= 0.0:
        raise IdentityMismatch("critical-point factor lost its sign on (0, 1)")
    gap = float(np.max(np.abs(lhs - rhs)))
    scale = float(np.max(np.abs(rhs))) + 1.0
    if gap > 1e-9 * scale:
        raise IdentityMismatch(f"rationalized derivative identity off by {gap:.3g}")
    return zmax


def check_ratio_formula(s: float, t: float) -> float:
    """Squared maximal-area ratio of the canonical quad, triple-checked.

    Evaluates (A_max / quad area)^2 three algebraically independent ways:
    the direct factored form in (s, t), the substituted form
    (pi^2/27) d_fn(u, v), and the case-split profile form
    (pi^2/27) (v/(u+1)^2) z(u/v) or (pi^2/27) (u/(u+1)^2) z(v/u).
    The three must agree to relative 1e-10 and stay below (pi/4)^2;
    violations raise IdentityMismatch. The result is symmetric in (s, t)
    by construction: the pair is sorted before evaluating.
    """
    require_canonical_pair(s, t)
    s, t = (s, t) if s <= t else (t, s)
    rb = math.sqrt(b_fn(s, t))
    f1 = 2.0 * t * s - s - t + 1.0 - rb
    f2 = t * s - 2.0 * t - 2.0 * s + 2.0 + rb
    f3 = s + t * s + t - 1.0 + rb
    den = (s - 1.0) ** 2 * (t - 1.0) ** 2 * (s + t) ** 2
    direct = (math.pi * math.pi / 27.0) * f1 * f2 * f3 / den
    pv = proof_vars(s, t)
    substituted = (math.pi * math.pi / 27.0) * d_fn(pv.u, pv.v)
    large = pv.v if pv.case == 1 else pv.u
    profiled = (math.pi * math.pi / 27.0) * (large / (pv.u + 1.0) ** 2) * z_fn(pv.w)
    scale = max(abs(direct), abs(substituted), abs(profiled))
    spread = max(abs(direct - substituted), abs(direct - profiled), abs(substituted - profiled))
    if spread > RATIO_AGREE_RTOL * scale:
        raise IdentityMismatch(
            f"ratio evaluations disagree at (s, t) = ({s}, {t}): "
            f"{direct!r}, {substituted!r}, {profiled!r}"
        )
    if not 0.0 < direct < QUARTER_PI * QUARTER_PI:
        raise IdentityMismatch(f"ratio^2 = {direct} escaped (0, (pi/4)^2)")
    return direct


def check_lemma22(samples: int, seed: int) -> dict[str, tuple[int, int]]:
    """Interval membership of the maximal-area abscissa, per sign regime.

    Draws canonical pairs stratified over the four regimes of (s, t)
    relative to 1 and counts, per regime, how many critical abscissas fall
    strictly inside the open interval with endpoints 1/2 and s/2 versus
    not. All samples should land inside. The pairs come from a child stream
    of ``seed``, not from default_rng(seed), on which the suite's first
    claim walks the regimes in the same order, nor from a scan slot's.
    """
    import numpy as np

    if samples < 4:
        raise DomainError("need at least one sample per regime")
    counts: dict[str, list[int]] = {label: [0, 0] for label in _PAIR_REGIMES}
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(22,)))
    for i in range(samples):
        label = _PAIR_REGIMES[i % 4]
        s, t = sample_canonical_pair(rng, label)
        lo, hi = locus_line(s, t).interval()
        h = max_area_param(s, t)
        counts[label][0 if lo < h < hi else 1] += 1
    return {label: (passed, failed) for label, (passed, failed) in counts.items()}


class MardenReport(NamedTuple):
    """Foci of the maximal inscribed ellipse versus the roots of the second
    derivative of the vertex polynomial prod (x - z_j).

    For triangles the analogous roots (of the first derivative) are exactly
    the inscribed-ellipse foci; ``min_distance`` being large shows the
    quadrilateral analogue fails.
    """

    vertices: tuple[complex, complex, complex, complex]
    foci: tuple[complex, complex]
    second_derivative_roots: tuple[complex, complex]
    min_distance: float


def marden_check(q: ConvexQuad) -> MardenReport:
    zs = tuple(complex(x, y) for x, y in q.vertices)
    e1 = zs[0] + zs[1] + zs[2] + zs[3]
    e2 = sum(zs[i] * zs[j] for i in range(4) for j in range(i + 1, 4))
    # Second derivative of prod (x - z_j) is 12 x^2 - 6 e1 x + 2 e2.
    root = cmath.sqrt(36.0 * e1 * e1 - 96.0 * e2)
    dd_roots = ((6.0 * e1 + root) / 24.0, (6.0 * e1 - root) / 24.0)
    f1, f2 = foci(max_area_ellipse(q).geom)
    focal = (complex(*f1), complex(*f2))
    min_distance = min(abs(f - r) for f in focal for r in dd_roots)
    return MardenReport(
        vertices=zs,
        foci=focal,
        second_derivative_roots=dd_roots,
        min_distance=min_distance,
    )


# A frozen dataclass, unlike the other records: perfbench's tests copy it
# with dataclasses.replace.
@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of a seeded circumscribed-ratio scan.

    ``histogram`` counts ratios in bins of width ``bin_width`` starting at
    ``bin_origin`` (= pi/2), with the last bin absorbing everything beyond.
    ``candidates`` holds (index, vertices, ratio) for any sample whose ratio
    fell below pi/2 - 1e-9; an empty tuple means no counterexample found.
    """

    sample_count: int
    seed: int
    min_ratio: float
    argmin_vertices: tuple[Point, Point, Point, Point]
    histogram: tuple[int, ...]
    bin_origin: float
    bin_width: float
    candidates: tuple[tuple[int, tuple[Point, Point, Point, Point], float], ...]


_PAIR_REGIMES = ("s>1,t>1", "s<1<t", "t<1<s", "s<1,t<1")


def sample_canonical_pair(rng: np.random.Generator, regime: str | None = None) -> tuple[float, float]:
    """Draw a valid canonical pair, optionally from one sign regime.

    Pairs keep a 0.05 margin from s = 1 and t = 1 so that downstream
    identity checks are well conditioned.
    """
    if regime is None:
        regime = _PAIR_REGIMES[int(rng.integers(4))]
    lo, hi = 1.0 + _UNIT_MARGIN, 4.0
    below = (_UNIT_MARGIN, 1.0 - _UNIT_MARGIN)
    if regime == "s>1,t>1":
        return float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi))
    if regime == "s<1<t":
        return float(rng.uniform(*below)), float(rng.uniform(lo, hi))
    if regime == "t<1<s":
        return float(rng.uniform(lo, hi)), float(rng.uniform(*below))
    if regime == "s<1,t<1":
        while True:
            s = float(rng.uniform(0.55, 1.0 - _UNIT_MARGIN))
            t = float(rng.uniform(0.55, 1.0 - _UNIT_MARGIN))
            if s + t > 1.1:
                return s, t
    raise DomainError(f"unknown sampling regime {regime!r}")


def sample_convex_quad(
    rng: np.random.Generator,
    min_cross: float = 1e-6,
    require_canonical: bool = False,
) -> ConvexQuad:
    """Rejection-sample a strictly convex quad from the unit square.

    Acceptance needs every consecutive-edge cross product above min_cross.
    With require_canonical, trapezoids and pairs within 0.05 of the excluded
    s = 1 / t = 1 boundary are also resampled, so normalize() is safe and
    well conditioned on the result.
    """
    while True:
        try:
            q = validate(rng.random((4, 2)).tolist())
        except (NotConvex, DegenerateVertices):
            continue
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = q.vertices
        if min(
            (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1),
            (x2 - x1) * (y3 - y2) - (y2 - y1) * (x3 - x2),
            (x3 - x2) * (y0 - y3) - (y3 - y2) * (x0 - x3),
            (x0 - x3) * (y1 - y0) - (y0 - y3) * (x1 - x0),
        ) <= min_cross:
            continue
        if require_canonical:
            if q.is_trapezoid:
                continue
            try:
                nq = normalize(q)
            except QuadEllipseError:
                continue
            if min(abs(nq.s - 1.0), abs(nq.t - 1.0)) < _UNIT_MARGIN:
                continue
        return q


def sample_parallelogram_vertices(rng: np.random.Generator) -> tuple[Point, Point, Point, Point]:
    """Vertices of a random parallelogram whose edge pair has a cross
    product of at least 0.1.

    The fourth vertex is computed as third + side, so opposite edges stay
    parallel to the last floating-point bit. Coordinates are Python floats.
    """
    while True:
        ux, uy = rng.uniform(-1.0, 1.0, 2).tolist()
        wx, wy = rng.uniform(-1.0, 1.0, 2).tolist()
        if math.hypot(ux, uy) < 0.25 or math.hypot(wx, wy) < 0.25:
            continue
        if abs(ux * wy - uy * wx) < 0.1:
            continue
        x0, y0 = rng.uniform(-1.0, 1.0, 2).tolist()
        v1 = (x0 + ux, y0 + uy)
        return ((x0, y0), v1, (v1[0] + wx, v1[1] + wy), (x0 + wx, y0 + wy))


def scan_sample_vertices(seed: int, index: int) -> tuple[Point, Point, Point, Point]:
    """Deterministic vertex sample for one scan slot.

    Slot 0 is the unit square. Later slots rotate through four strata:
    two of free convex quads, one of exact parallelograms, and one of
    parallelograms with 1e-3 vertex noise. Each slot draws from its own
    generator keyed by (seed, index), so samples are independent of
    evaluation order.
    """
    return _scan_slot(seed, index)[0]


def _scan_slot(seed: int, index: int) -> tuple[tuple[Point, Point, Point, Point], ConvexQuad | None]:
    """Vertices of one scan slot, plus the validated quad when drawing them
    already validated one (free quads and noisy parallelograms)."""
    if index == 0:
        return ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), None
    import numpy as np

    rng = np.random.default_rng((seed, index))
    stratum = index % 4
    if stratum == 2:
        return sample_parallelogram_vertices(rng), None
    if stratum == 3:
        while True:
            verts = sample_parallelogram_vertices(rng)
            noise = rng.uniform(-1e-3, 1e-3, (4, 2)).tolist()
            bumped = tuple((x + dx, y + dy) for (x, y), (dx, dy) in zip(verts, noise))
            try:
                return bumped, validate(bumped)
            except (NotConvex, DegenerateVertices):
                continue
    q = sample_convex_quad(rng)
    return q.vertices, q


def conjecture_scan(n: int, seed: int, candidate_path: str | None = None) -> ConjectureReport:
    """Scan n seeded quads for circumscribed ratios below pi/2.

    Any ratio under pi/2 - 1e-9 is recorded as a counterexample candidate
    (and appended to candidate_path as JSON lines when given) rather than
    raised: the bound is conjectural, so the harness gathers evidence
    instead of asserting.
    """
    if n < 1:
        raise DomainError("need at least one sample")
    histogram = [0] * _SCAN_BINS
    min_ratio = math.inf
    argmin: tuple[Point, Point, Point, Point] | None = None
    candidates: list[tuple[int, tuple[Point, Point, Point, Point], float]] = []
    for i in range(n):
        verts, q = _scan_slot(seed, i)
        if q is None:
            q = validate(verts)
        ratio = circumscribed_min_ratio(q)
        slot = int((ratio - HALF_PI) / _SCAN_BIN_WIDTH)
        histogram[min(max(slot, 0), _SCAN_BINS - 1)] += 1
        if ratio < min_ratio:
            min_ratio = ratio
            argmin = q.vertices
        if ratio < HALF_PI - CONJECTURE_TOL:
            candidates.append((i, q.vertices, ratio))
    if candidate_path is not None and candidates:
        with open(candidate_path, "a", encoding="utf-8") as fh:
            for index, verts, ratio in candidates:
                fh.write(
                    json.dumps(
                        {
                            "seed": seed,
                            "index": index,
                            "vertices": [list(v) for v in verts],
                            "ratio": ratio,
                        }
                    )
                    + "\n"
                )
    assert argmin is not None
    return ConjectureReport(
        sample_count=n,
        seed=seed,
        min_ratio=min_ratio,
        argmin_vertices=argmin,
        histogram=tuple(histogram),
        bin_origin=HALF_PI,
        bin_width=_SCAN_BIN_WIDTH,
        candidates=tuple(candidates),
    )


class CheckOutcome(NamedTuple):
    name: str
    passed: bool
    detail: str


def run_verification_suite(samples: int = 1000, seed: int = 0) -> list[CheckOutcome]:
    """Run every claim check at a configurable sample size.

    Returns one outcome per check; nothing raises, so a report is always
    produced even when a check fails.
    """
    import numpy as np

    outcomes: list[CheckOutcome] = []

    def record(name: str, fn) -> None:
        try:
            passed, detail = fn()
        except QuadEllipseError as exc:
            passed, detail = False, f"error: {exc}"
        outcomes.append(CheckOutcome(name=name, passed=passed, detail=detail))

    rng = np.random.default_rng(seed)

    def ratio_routes():
        worst_an, worst_geo = 0.0, 0.0
        for i in range(samples):
            s, t = sample_canonical_pair(rng, _PAIR_REGIMES[i % 4])
            ratio_sq = check_ratio_formula(s, t)
            quad = validate(((0.0, 0.0), (1.0, 0.0), (s, t), (0.0, 1.0)))
            geo = ellipse_area(max_area_ellipse(quad).geom) / quad_area(quad)
            worst_geo = max(worst_geo, abs(geo * geo - ratio_sq) / ratio_sq)
            pv = proof_vars(s, t)
            worst_an = max(
                worst_an,
                abs(b_fn(s, t) - c_fn(pv.u, pv.v)) / c_fn(pv.u, pv.v),
            )
        ok = worst_an < 1e-10 and worst_geo < 1e-8
        return ok, f"max substitution gap {worst_an:.2e}, max geometric gap {worst_geo:.2e}"

    def strict_inequality():
        worst = math.inf
        for _ in range(samples):
            q = sample_convex_quad(rng, require_canonical=True)
            rep = check_area_inequality(q)
            worst = min(worst, rep.bound_gap)
        return worst > 0.0, f"min gap to pi/4: {worst:.3e}"

    def parallelogram_equality():
        worst = 0.0
        for _ in range(max(samples // 4, 1)):
            q = validate(sample_parallelogram_vertices(rng))
            rep = check_area_inequality(q)
            worst = max(worst, abs(rep.bound_gap))
        return worst < 1e-12, f"max |ratio - pi/4|: {worst:.2e}"

    def z_bound():
        zmax = scan_z_bound(max(samples * 10, 10_000))
        near0 = abs(z_fn(1e-9) - 4.0)
        near1 = abs(z_fn(1.0 - 1e-6) - 27.0 / 4.0)
        ok = zmax < 27.0 / 4.0 and near0 < 1e-6 and near1 < 1e-4
        return ok, f"grid max {zmax:.12f}, edge gaps {near0:.1e} / {near1:.1e}"

    def critical_interval():
        counts = check_lemma22(max(samples, 4), seed)
        failed = sum(bad for _, bad in counts.values())
        detail = ", ".join(f"{k}: {ok}/{ok + bad}" for k, (ok, bad) in counts.items())
        return failed == 0, detail

    def foci_line():
        worst = 0.0
        for _ in range(max(samples // 4, 1)):
            q = validate(sample_parallelogram_vertices(rng))
            worst = max(worst, check_foci_on_bestfit(q))
        return worst < 1e-9, f"max focus-to-line distance {worst:.2e}"

    def slope_forms():
        worst = 0.0
        for i in range(samples):
            d = float(rng.uniform(0.2, 3.0))
            l = float(rng.uniform(0.2, 3.0))
            if i % 2 == 0:
                k = float(rng.uniform(math.hypot(d, l) + 0.1, 5.0))
            else:
                k = float(rng.uniform(0.2, max(math.hypot(d, l) - 0.1, 0.25)))
            worst = max(worst, slope_identities(d, k, l).max_abs_gap)
        return worst < 1e-10, f"max pairwise slope gap {worst:.2e}"

    def marden_rectangle():
        rep = marden_check(validate(((0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (0.0, 2.0))))
        expect = {0.5 + 0.5j, 0.5 + 1.5j}
        got_ok = all(
            min(abs(r - e) for e in expect) < 1e-12 for r in rep.second_derivative_roots
        )
        return (
            got_ok and rep.min_distance > 0.1,
            f"separation {rep.min_distance:.4f} between foci and derivative roots",
        )

    def center_locus():
        worst = 0.0
        for _ in range(max(samples // 10, 1)):
            q = sample_convex_quad(rng, require_canonical=True)
            m1, m2 = diagonal_midpoints(q)
            for lam in (0.15, 0.35, 0.5, 0.7, 0.9):
                want = (m1[0] + lam * (m2[0] - m1[0]), m1[1] + lam * (m2[1] - m1[1]))
                got = ellipse_at_center(q, want).geom.center
                worst = max(worst, distance(want, got))
        return worst < 1e-9, f"max center reproduction error {worst:.2e}"

    def conjecture():
        rep = conjecture_scan(samples, seed)
        ok = not rep.candidates and rep.min_ratio >= HALF_PI - CONJECTURE_TOL
        return ok, (
            f"min ratio {rep.min_ratio:.12f} over {rep.sample_count} quads, "
            f"{len(rep.candidates)} candidate(s)"
        )

    record("ratio-formula-agreement", ratio_routes)
    record("inscribed-ratio-strict", strict_inequality)
    record("parallelogram-equality", parallelogram_equality)
    record("profile-bound", z_bound)
    record("critical-abscissa-interval", critical_interval)
    record("foci-on-best-fit", foci_line)
    record("slope-identities", slope_forms)
    record("derivative-root-mismatch", marden_rectangle)
    record("center-locus-roundtrip", center_locus)
    record("circumscribed-conjecture", conjecture)
    return outcomes
