"""Release gate: every guarantee the package makes, at its stated tolerance.

One test per criterion, in order. Each prints a single PASS line with the
measured margins (visible with -s); under plain pytest the per-test verdict
is the pass/fail line. Seeds are fixed so failures reproduce exactly.
"""

import math
import time

import numpy as np
import pytest

from quadellipse import (
    AffineMap,
    CenterOffLocus,
    ConicCoeffs,
    ParallelogramFrame,
    TangencyKind,
    area_sq,
    best_fit_line,
    check_ratio_formula,
    circumscribed_min_ratio,
    conjecture_scan,
    diagonal_midpoints,
    ellipse_area,
    ellipse_at_center,
    foci,
    line_tangency,
    locus_line,
    marden_check,
    max_area_ellipse,
    max_area_param,
    normalize,
    parallelogram_frame,
    proportional,
    quad_area,
    sample_canonical_pair,
    sample_convex_quad,
    sample_parallelogram_vertices,
    scan_sample_vertices,
    scan_z_bound,
    second_moment,
    slope_identities,
    validate,
    z_fn,
)
from quadellipse.verify import _PAIR_REGIMES

from oracles import rectangle_family

QUARTER_PI = math.pi / 4.0
HALF_PI = math.pi / 2.0


def _passed(num: int, detail: str) -> None:
    print(f"criterion {num:2d}: PASS - {detail}")


def _lerp(p, q, lam):
    return ((1.0 - lam) * p[0] + lam * q[0], (1.0 - lam) * p[1] + lam * q[1])


def _match_coverage(points, targets, tol):
    """Every point within tol of a target, and every target hit once."""
    hits = set()
    worst = 0.0
    for p in points:
        dists = [math.hypot(p[0] - t[0], p[1] - t[1]) for t in targets]
        j = min(range(len(targets)), key=dists.__getitem__)
        worst = max(worst, dists[j])
        hits.add(j)
    return worst <= tol and hits == set(range(len(targets))), worst


def test_criterion_01_rectangle_example():
    start = time.perf_counter()
    member = rectangle_family(1.0, 2.0, 1.0)
    assert proportional(member.conic, ConicCoeffs(4.0, 1.0, 0.0, -4.0, -2.0, 1.0), tol=1e-12)

    f1, f2 = sorted(foci(member.geom), key=lambda p: p[1])
    half = math.sqrt(3.0) / 2.0
    assert math.hypot(f1[0] - 0.5, f1[1] - (1.0 - half)) <= 1e-12
    assert math.hypot(f2[0] - 0.5, f2[1] - (1.0 + half)) <= 1e-12

    report = marden_check(validate(((0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (0.0, 2.0))))
    expected = (complex(0.5, 0.5), complex(0.5, 1.5))
    gaps = [min(abs(r - e) for r in report.second_derivative_roots) for e in expected]
    assert max(gaps) <= 1e-12
    assert report.min_distance > 0.1

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"root gap {max(gaps):.2e}, focus-root distance {report.min_distance:.7f}, {elapsed * 1e3:.1f} ms")


def test_criterion_02_parallelogram_equality():
    rng = np.random.default_rng(2002)
    worst_ratio = 0.0
    worst_tangency = 0.0
    for _ in range(1000):
        q = validate(sample_parallelogram_vertices(rng))
        member = max_area_ellipse(q)
        ratio = ellipse_area(member.geom) / quad_area(q)
        worst_ratio = max(worst_ratio, abs(ratio - QUARTER_PI))

        vs = q.vertices
        midpoints = [_lerp(vs[i], vs[(i + 1) % 4], 0.5) for i in range(4)]
        ok, gap = _match_coverage(member.tangency, midpoints, 1e-10)
        worst_tangency = max(worst_tangency, gap)
        assert ok

    assert worst_ratio <= 1e-12
    _passed(2, f"1000 parallelograms, ratio gap {worst_ratio:.2e}, midpoint gap {worst_tangency:.2e}")


def test_criterion_03_strict_inequality_and_ratio_routes():
    start = time.perf_counter()
    rng = np.random.default_rng(2003)
    min_gap = math.inf
    worst_geo = 0.0
    for _ in range(10_000):
        q = sample_convex_quad(rng, min_cross=1e-3, require_canonical=True)
        nq = normalize(q)
        ratio_sq = check_ratio_formula(nq.s, nq.t)  # raises unless routes agree to 1e-10
        geo = ellipse_area(max_area_ellipse(q).geom) / quad_area(q)
        gap = QUARTER_PI - geo
        assert gap > 0.0
        min_gap = min(min_gap, gap)
        rel = abs(geo * geo - ratio_sq) / ratio_sq
        worst_geo = max(worst_geo, rel)
        assert rel <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(3, f"10000 quads, min gap {min_gap:.3e}, geometric rel err {worst_geo:.2e}, {elapsed:.1f} s")


def test_criterion_04_critical_abscissa_and_grid():
    base = np.linspace(0.0, 1.0, 10_000)
    worst_excess = -math.inf
    for regime in _PAIR_REGIMES:
        rng = np.random.default_rng(hash(regime) % 2**32)
        for _ in range(2500):
            s, t = sample_canonical_pair(rng, regime)
            lo, hi = locus_line(s, t).interval()
            ha = max_area_param(s, t)
            assert lo < ha < hi
            best = area_sq(ha, s, t)
            h = lo + (hi - lo) * base
            pref = math.pi * math.pi / (4.0 * (s - 1.0) ** 2)
            grid = pref * (2.0 * h - 1.0) * (s - 2.0 * h) * (s + 2.0 * h * (t - 1.0))
            excess = (float(grid.max()) - best) / best
            worst_excess = max(worst_excess, excess)
            assert excess <= 1e-10
    _passed(4, f"4x2500 samples, worst grid excess {worst_excess:.2e} relative")


def test_criterion_05_profile_bound():
    zmax = scan_z_bound(1_000_000)
    assert zmax < 27.0 / 4.0
    near_zero = abs(z_fn(1e-7) - 4.0)
    near_one = abs(z_fn(1.0 - 1e-6) - 27.0 / 4.0)
    assert near_zero < 1e-6
    assert near_one < 1e-4
    _passed(5, f"grid max {zmax:.9f} < 6.75, |z(1e-7)-4| = {near_zero:.2e}, |z(1-1e-6)-27/4| = {near_one:.2e}")


def test_criterion_06_bestfit_brute_force_oracle():
    rng = np.random.default_rng(2006)
    theta = np.arange(720) * (math.pi / 720.0)
    # Rows (cos^2, cos sin, sin^2): the objective on the whole grid is one
    # (1681 x 3) . (3 x 720) product per point set.
    angle_terms = np.stack([np.cos(theta) ** 2, np.cos(theta) * np.sin(theta), np.sin(theta) ** 2])
    grid = np.linspace(0.0, 1.0, 41)
    worst_improvement = -math.inf
    worst_centroid = 0.0
    for _ in range(1000):
        pts = rng.uniform(-1.0, 1.0, (4, 2))
        fit = best_fit_line([(float(x), float(y)) for x, y in pts])
        assert not fit.degenerate
        line = fit.line()
        g = (fit.centroid.real, fit.centroid.imag)
        worst_centroid = max(worst_centroid, line.distance_to(g))

        x, y = pts[:, 0], pts[:, 1]
        ax = x.min() + (x.max() - x.min()) * grid
        ay = y.min() + (y.max() - y.min()) * grid
        axx, ayy = (m.ravel() for m in np.meshgrid(ax, ay))
        sxx = (x * x).sum() - 2.0 * axx * x.sum() + 4.0 * axx * axx
        syy = (y * y).sum() - 2.0 * ayy * y.sum() + 4.0 * ayy * ayy
        sxy = (x * y).sum() - axx * y.sum() - ayy * x.sum() + 4.0 * axx * ayy
        obj = np.stack([syy, -2.0 * sxy, sxx], axis=1) @ angle_terms
        improvement = fit.min_objective() - float(obj.min())
        worst_improvement = max(worst_improvement, improvement)
        assert improvement <= 1e-9
    assert worst_centroid <= 1e-12
    _passed(
        6,
        f"1000 sets x 41x41x720 lines, best improvement {worst_improvement:.2e}, "
        f"centroid distance {worst_centroid:.2e}",
    )


def test_criterion_07_foci_on_bestfit_line():
    rng = np.random.default_rng(2007)
    worst = 0.0
    count = 0
    while count < 1000:
        q = validate(sample_parallelogram_vertices(rng))
        if abs(second_moment(q.vertices)) < 0.05:  # keep clear of the square branch
            continue
        frame = parallelogram_frame(q)
        member = max_area_ellipse(q)
        fit = best_fit_line(frame.placed_corners())
        assert not fit.degenerate
        line = fit.line()
        dist = max(line.distance_to(f) for f in foci(member.geom))
        worst = max(worst, dist)
        assert dist <= 1e-9
        count += 1

    rep = slope_identities(3.0, 5.0, 4.0)
    assert max(abs(v - 1.0) for v in (rep.via_sqrt, rep.via_modulus, rep.via_product)) <= 1e-12
    fit = best_fit_line(ParallelogramFrame(4.0, 5.0, 3.0, AffineMap.identity()).placed_corners())
    slope = fit.direction.imag / fit.direction.real
    assert abs(slope - 1.0) <= 1e-12

    worst_z = 0.0
    for _ in range(100):
        cx, cy = rng.uniform(-2.0, 2.0, 2)
        r = rng.uniform(0.4, 1.5)
        phi = rng.uniform(0.0, math.tau)
        corners = tuple(
            (cx + r * math.cos(phi + i * HALF_PI), cy + r * math.sin(phi + i * HALF_PI))
            for i in range(4)
        )
        square_fit = best_fit_line(corners)
        assert square_fit.degenerate
        worst_z = max(worst_z, abs(square_fit.moment))
        assert abs(square_fit.moment) < 1e-12
    _passed(7, f"1000 frames, foci distance {worst:.2e}; 3-4-5 slope 1; 100 squares |Z| <= {worst_z:.2e}")


def test_criterion_08_slope_identities():
    rng = np.random.default_rng(2008)
    worst = 0.0
    for i in range(10_000):
        d = float(rng.uniform(0.2, 3.0))
        l = float(rng.uniform(0.2, 3.0))
        edge = math.hypot(d, l)
        if i % 2 == 0:
            k = float(rng.uniform(1.05 * edge, 2.0 * edge + 1.0))  # k^2 > d^2 + l^2
        else:
            k = float(rng.uniform(0.1, 0.95 * edge))  # k^2 < d^2 + l^2
        rep = slope_identities(d, k, l)
        worst = max(worst, rep.max_abs_gap)
        assert rep.max_abs_gap <= 1e-10
    _passed(8, f"10000 triples over both signs of k^2-d^2-l^2, worst pairwise gap {worst:.2e}")


def test_criterion_09_center_locus_contract():
    rng = np.random.default_rng(2009)
    worst_center = 0.0
    worst_side = 0.0
    worst_area = 0.0
    for _ in range(1000):
        q = sample_convex_quad(rng, min_cross=1e-3, require_canonical=True)
        nq = normalize(q)
        det2 = nq.from_canonical.det() ** 2
        m1, m2 = diagonal_midpoints(q)
        for i in range(16):
            center = _lerp(m1, m2, (i + 1) / 17.0)
            member = ellipse_at_center(q, center)
            cgap = math.hypot(member.geom.center[0] - center[0], member.geom.center[1] - center[1])
            worst_center = max(worst_center, cgap)
            assert cgap <= 1e-9

            for side in q.sides():
                res = line_tangency(member.conic, side)
                assert res.kind is TangencyKind.TANGENT
            for point in member.tangency:
                gap = min(side.distance_to(point) for side in q.sides())
                worst_side = max(worst_side, gap)
                assert gap <= 1e-9

            h = nq.to_canonical(center)[0]
            expected_sq = area_sq(h, nq.s, nq.t) * det2
            area = ellipse_area(member.geom)
            rel = abs(area * area - expected_sq) / expected_sq
            worst_area = max(worst_area, rel)
            assert rel <= 1e-8

        for lam in (-0.05, 1.05):
            with pytest.raises(CenterOffLocus):
                ellipse_at_center(q, _lerp(m1, m2, lam))
        off = (m1[0] + 0.02 * q.diameter(), m1[1])
        mid = _lerp(m1, m2, 0.5)
        perp = (mid[0] - (m2[1] - m1[1]) * 0.05, mid[1] + (m2[0] - m1[0]) * 0.05)
        for bad in (off, perp):
            if min(math.hypot(bad[0] - p[0], bad[1] - p[1]) for p in (m1, m2)) > 1e-6:
                with pytest.raises(CenterOffLocus):
                    ellipse_at_center(q, bad)
    _passed(
        9,
        f"1000 quads x 16 centers, center gap {worst_center:.2e}, side gap {worst_side:.2e}, "
        f"area rel err {worst_area:.2e}; exterior and off-line centers rejected",
    )


def test_criterion_10_conjecture_scan():
    start = time.perf_counter()
    report = conjecture_scan(10_000, seed=42)
    assert report.sample_count == 10_000
    assert report.min_ratio >= HALF_PI - 1e-9
    assert report.candidates == ()

    square = validate(scan_sample_vertices(42, 0))
    square_gap = abs(circumscribed_min_ratio(square) - HALF_PI)
    assert square_gap <= 1e-12

    worst_par = 0.0
    for index in range(2, 10_000, 4):
        q = validate(scan_sample_vertices(42, index))
        assert q.is_parallelogram
        gap = abs(circumscribed_min_ratio(q) - HALF_PI)
        worst_par = max(worst_par, gap)
        assert gap <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(
        10,
        f"min ratio {report.min_ratio:.12f} >= pi/2 - 1e-9, square gap {square_gap:.2e}, "
        f"2500 parallelograms gap {worst_par:.2e}, {elapsed:.1f} s",
    )
