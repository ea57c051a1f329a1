import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quadellipse.conic import (
    ConicKind,
    TangencyKind,
    classify_conic,
    conic_to_ellipse,
    ellipse_area,
    line_tangency,
    proportional,
)
from quadellipse.errors import (
    CenterOffLocus,
    IsParallelogram,
    ParameterOutOfRange,
    QuadEllipseError,
)
from quadellipse.family import (
    area_sq,
    ellipse_at_center,
    family_areas,
    locus_line,
    max_area_by_search,
    max_area_ellipse,
    max_area_param,
    midpoint_ellipse,
    parallelogram_family,
    rectangle_family,
    rectangle_semi_axes_sq,
)
from quadellipse.geom import AffineMap, distance, midpoint
from quadellipse.quad import diagonal_midpoints, parallelogram_frame, quad_area, validate
from quadellipse.verify import (
    check_foci_on_bestfit,
    marden_check,
    sample_convex_quad,
    sample_parallelogram_vertices,
)

GENERIC = validate(((0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.0, 1.0)))

# Area / diameter^2 = 6.8e-4, sides 1 and 3 parallel: its maximal member has
# aspect ~1e-3, which a degeneracy test tied to coordinate units refuses.
THIN_TRAPEZOID = (
    (-15.423665215509395, 2.9106699605767044),
    (-11.284400999334729, 2.923599932738859),
    (20.12996830657746, 3.372806725002258),
    (-9.817647353875547, 2.9908326809061534),
)


EPS = 2.0**-52


def canonical_quad(s, t):
    return validate(((0.0, 0.0), (1.0, 0.0), (s, t), (0.0, 1.0)))


def inscribed_ratio(verts):
    q = validate(verts)
    return ellipse_area(max_area_ellipse(q).geom) / quad_area(q)


class TestRectangleFamily:
    def test_unit_example_conic(self):
        member = rectangle_family(1.0, 2.0, 1.0)
        want = (4.0, 1.0, 0.0, -4.0, -2.0, 1.0)
        got = member.conic.canonical().as_tuple()
        ratio = want[0] / got[0]
        assert got == pytest.approx(tuple(w / ratio for w in want), abs=1e-12)

    def test_tangency_points_by_formula(self):
        l, k, v = 3.0, 2.0, 0.5
        member = rectangle_family(l, k, v)
        want = {
            (l * v / k, 0.0),
            (l, k - v),
            (l * (k - v) / k, k),
            (0.0, v),
        }
        got = {tuple(round(c, 12) for c in p) for p in member.tangency}
        assert got == {tuple(round(c, 12) for c in p) for p in want}

    def test_tangency_points_satisfy_conic(self):
        member = rectangle_family(2.5, 1.25, 0.9)
        scale = member.conic.max_abs()
        for x, y in member.tangency:
            assert abs(member.conic.evaluate(x, y)) < 1e-9 * scale

    def test_members_are_ellipses_throughout(self):
        for v in np.linspace(0.05, 1.95, 15):
            member = rectangle_family(1.0, 2.0, float(v))
            assert classify_conic(member.conic) is ConicKind.ELLIPSE

    def test_semi_axes_match_geometry(self):
        for v in (0.2, 0.7, 1.0, 1.6):
            member = rectangle_family(1.5, 2.0, v)
            big, small = rectangle_semi_axes_sq(1.5, 2.0, v)
            assert member.geom.a ** 2 == pytest.approx(big, rel=1e-10)
            assert member.geom.b ** 2 == pytest.approx(small, rel=1e-10)

    def test_midpoint_member_axes(self):
        # v = k/2 gives the inscribed ellipse with semi-axes l/2, k/2.
        member = rectangle_family(2.0, 1.0, 0.5)
        assert member.geom.a == pytest.approx(1.0, rel=1e-12)
        assert member.geom.b == pytest.approx(0.5, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            rectangle_family(1.0, 2.0, 0.0)
        with pytest.raises(ParameterOutOfRange):
            rectangle_family(1.0, 2.0, 2.0)
        with pytest.raises(ParameterOutOfRange):
            rectangle_family(-1.0, 2.0, 0.5)


class TestParallelogramFamily:
    def test_zero_shear_matches_rectangle(self):
        rect = rectangle_family(1.5, 2.5, 0.8)
        para = parallelogram_family(1.5, 2.5, 0.0, 0.8)
        assert proportional(rect.conic, para.conic, tol=1e-12)

    def test_tangency_on_all_sides(self):
        member = parallelogram_family(2.0, 1.0, 0.7, 0.4)
        corners = ((0.0, 0.0), (2.0, 0.0), (2.7, 1.0), (0.7, 1.0))
        scale = member.conic.max_abs()
        for x, y in member.tangency:
            assert abs(member.conic.evaluate(x, y)) < 1e-8 * scale
        # One tangency point inside each closed side segment.
        for p, (u, w) in zip(
            member.tangency,
            [(corners[i], corners[(i + 1) % 4]) for i in range(4)],
        ):
            seg = distance(u, w)
            assert distance(u, p) + distance(p, w) == pytest.approx(seg, rel=1e-9)

    def test_midpoint_ellipse_centers_on_parallelogram_center(self):
        verts = ((1.0, 1.0), (4.0, 2.0), (5.0, 5.0), (2.0, 4.0))
        q = validate(verts)
        member = midpoint_ellipse(parallelogram_frame(q))
        cx = sum(v[0] for v in verts) / 4.0
        cy = sum(v[1] for v in verts) / 4.0
        assert member.geom.center == pytest.approx((cx, cy), abs=1e-10)

    def test_midpoint_ellipse_touches_side_midpoints(self):
        verts = ((1.0, 1.0), (4.0, 2.0), (5.0, 5.0), (2.0, 4.0))
        q = validate(verts)
        member = midpoint_ellipse(parallelogram_frame(q))
        mids = {
            (
                round((q.vertices[i][0] + q.vertices[(i + 1) % 4][0]) / 2.0, 9),
                round((q.vertices[i][1] + q.vertices[(i + 1) % 4][1]) / 2.0, 9),
            )
            for i in range(4)
        }
        got = {tuple(round(c, 9) for c in p) for p in member.tangency}
        assert got == mids

    @pytest.mark.parametrize(
        "verts",
        [
            ((0.0, 0.0), (2e4, 0.0), (3e4, 1e4), (1e4, 1e4)),
            ((0.0, 0.0), (1.0, 0.0), (1.0, 1e4), (0.0, 1e4)),
        ],
        ids=["large", "tall"],
    )
    def test_any_units(self, verts):
        # Tangency used to be checked in input units, where its residual (a
        # squared length) grows with the frame: both raised
        # OptimizationFailed at unit scale and above.
        for k in range(-8, 9):
            q = validate(tuple((x * 10.0**k, y * 10.0**k) for x, y in verts))
            frame = parallelogram_frame(q)
            member = midpoint_ellipse(frame)
            assert ellipse_area(member.geom) / quad_area(q) == pytest.approx(math.pi / 4.0, rel=1e-12)
            corners = frame.placed_corners()
            for i, p in enumerate(member.tangency):
                mid = midpoint(corners[i], corners[(i + 1) % 4])
                assert math.dist(p, mid) <= 1e-12 * q.diameter(), (k, i)
            assert check_foci_on_bestfit(frame) <= 1e-12 * q.diameter()
            rows = family_areas(q, 5)
            assert rows[2][0] == pytest.approx(0.5 * frame.k, rel=1e-15)
            assert rows[2][1] == pytest.approx(ellipse_area(member.geom), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_thin_sheared_midpoint_member(self, scale):
        # Area / diameter^2 = 5e-5: the frame-family member built on a frame
        # similar to the quad stayed this thin and failed tangency at every
        # scale, and with it the foci and Marden checks.
        verts = ((0.0, 0.0), (1.0, 0.0), (10001.0, 1e4), (1e4, 1e4))
        q = validate(tuple((x * scale, y * scale) for x, y in verts))
        frame = parallelogram_frame(q)
        member = midpoint_ellipse(frame)
        assert (member.param_kind, member.parameter) == ("v", 0.5 * frame.k)
        assert ellipse_area(member.geom) / quad_area(q) == pytest.approx(math.pi / 4.0, rel=1e-12)
        corners = frame.placed_corners()
        for i, p in enumerate(member.tangency):
            mid = midpoint(corners[i], corners[(i + 1) % 4])
            assert math.dist(p, mid) <= 1e-12 * q.diameter(), i
        assert check_foci_on_bestfit(frame) <= 1e-15 * q.diameter()
        assert marden_check(frame).min_distance > 0.1 * q.diameter()
        rows = family_areas(q, 5)
        assert rows[2][0] == 0.5 * frame.k
        for i, (_, area, _) in enumerate(rows):
            lam = (i + 1) / 6
            want = 0.5 * math.pi * math.sqrt(lam * (1.0 - lam)) * quad_area(q)
            assert area == pytest.approx(want, rel=1e-12, abs=0.0), i

    def test_midpoint_ellipse_area_ratio(self):
        verts = ((0.0, 0.0), (3.0, 1.0), (4.0, 4.0), (1.0, 3.0))
        q = validate(verts)
        member = midpoint_ellipse(parallelogram_frame(q))
        assert ellipse_area(member.geom) / quad_area(q) == pytest.approx(
            math.pi / 4.0, rel=1e-12
        )


class TestLocusAndAreaProfile:
    def test_locus_endpoints_are_diagonal_midpoints(self):
        s, t = 2.0, 3.0
        locus = locus_line(s, t)
        assert locus.line_at(0.5) == pytest.approx(0.5)
        assert locus.line_at(s / 2.0) == pytest.approx(t / 2.0)

    def test_interval_is_sorted(self):
        lo, hi = locus_line(2.0, 3.0).interval()
        assert (lo, hi) == (0.5, 1.0)
        lo, hi = locus_line(0.8, 0.7).interval()
        assert (lo, hi) == (0.4, 0.5)

    def test_area_sq_vanishes_at_interval_ends(self):
        s, t = 2.0, 3.0
        lo, hi = locus_line(s, t).interval()
        assert area_sq(lo, s, t) == pytest.approx(0.0, abs=1e-12)
        assert area_sq(hi, s, t) == pytest.approx(0.0, abs=1e-12)

    def test_area_sq_rejects_outside_interval(self):
        with pytest.raises(ParameterOutOfRange):
            area_sq(0.3, 2.0, 3.0)
        with pytest.raises(ParameterOutOfRange):
            area_sq(1.2, 2.0, 3.0)

    def test_known_critical_point(self):
        # s=2, t=3: the cubic's maximum sits at (2 + sqrt 7)/6.
        assert max_area_param(2.0, 3.0) == pytest.approx((2.0 + math.sqrt(7.0)) / 6.0, rel=1e-14)

    def test_critical_point_beats_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            s = float(rng.uniform(1.1, 4.0))
            t = float(rng.uniform(1.1, 4.0))
            lo, hi = locus_line(s, t).interval()
            h = max_area_param(s, t)
            assert lo < h < hi
            best = area_sq(h, s, t)
            grid = np.linspace(lo, hi, 400)
            assert best >= max(area_sq(float(g), s, t) for g in grid) - 1e-12 * best

    def test_matches_radical_form(self):
        # The paper's radical abscissa, which cancels only near t = 1.
        rng = np.random.default_rng(21)
        for _ in range(400):
            s, t = (float(x) for x in rng.uniform(0.05, 6.0, size=2))
            if s + t <= 1.05 or min(abs(s - 1.0), abs(t - 1.0)) < 0.05:
                continue
            rad = (t - 1.0) ** 2 + s * s * (t * t - t + 1.0) - s * (t * t - 3.0 * t + 2.0)
            want = (s * t + t - 2.0 * s - 1.0 + math.sqrt(rad)) / (6.0 * (t - 1.0))
            assert max_area_param(s, t) == pytest.approx(want, rel=1e-12, abs=0.0), (s, t)

    def test_near_unit_t_uses_stable_branch(self):
        # Either side of the |t - 1| switchover must give the same abscissa.
        s = 3.0
        h_quad = max_area_param(s, 1.0 + 5e-9)
        h_form = max_area_param(s, 1.0 + 2e-8)
        assert h_quad == pytest.approx(h_form, abs=1e-6)
        lo, hi = locus_line(s, 1.0 + 5e-9).interval()
        assert lo < h_quad < hi
        h_below = max_area_param(s, 1.0 - 5e-9)
        assert h_below == pytest.approx(h_quad, abs=1e-6)


class TestEllipseAtCenter:
    def test_reproduces_requested_center(self):
        locus = locus_line(2.0, 3.0)
        q = canonical_quad(2.0, 3.0)
        for h in (0.55, 0.7, 0.9):
            member = ellipse_at_center(q, (h, locus.line_at(h)))
            assert member.geom.center == pytest.approx((h, locus.line_at(h)), abs=1e-10)

    def test_tangent_to_all_sides(self):
        q = canonical_quad(2.0, 3.0)
        member = ellipse_at_center(q, (0.7, locus_line(2.0, 3.0).line_at(0.7)))
        assert len(member.tangency) == 4
        for p, side in zip(member.tangency, q.sides()):
            assert side.distance_to(p) < 1e-9

    def test_area_matches_profile(self):
        s, t = 2.0, 3.0
        q = canonical_quad(s, t)
        for h in (0.6, 0.75, 0.95):
            member = ellipse_at_center(q, (h, locus_line(s, t).line_at(h)))
            assert ellipse_area(member.geom) ** 2 == pytest.approx(
                area_sq(h, s, t), rel=1e-10
            )

    def test_rejects_center_off_locus_line(self):
        q = canonical_quad(2.0, 3.0)
        with pytest.raises(CenterOffLocus):
            ellipse_at_center(q, (0.7, locus_line(2.0, 3.0).line_at(0.7) + 0.05))

    def test_rejects_center_beyond_segment(self):
        s, t = 2.0, 3.0
        q = canonical_quad(s, t)
        locus = locus_line(s, t)
        with pytest.raises(CenterOffLocus):
            ellipse_at_center(q, (0.3, locus.line_at(0.3)))
        with pytest.raises(CenterOffLocus):
            ellipse_at_center(q, (1.4, locus.line_at(1.4)))

    def test_rejects_parallelogram(self):
        q = validate(((0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (1.0, 1.0)))
        with pytest.raises(IsParallelogram):
            ellipse_at_center(q, (1.5, 0.5))

    def test_works_on_generic_frames(self):
        # Same construction after rotating and translating the quad.
        tmap = AffineMap.rotation(0.8, (0.0, 0.0)).compose(AffineMap.translation(2.0, -1.0))
        q = validate(tuple(tmap(v) for v in GENERIC.vertices))
        from quadellipse.quad import diagonal_midpoints

        m1, m2 = diagonal_midpoints(q)
        center = (0.5 * (m1[0] + m2[0]), 0.5 * (m1[1] + m2[1]))
        member = ellipse_at_center(q, center)
        assert member.geom.center == pytest.approx(center, abs=1e-9)
        for side in q.sides():
            assert min(side.distance_to(p) for p in member.tangency) < 1e-8

    @pytest.mark.parametrize("lam", [2e-12, 1.0 - 2e-12])
    def test_centers_next_to_the_segment_ends(self, lam):
        # Just inside the open segment the member is a thin ellipse along a
        # diagonal; it is still real, centred as asked and tangent to every
        # side, which by Newton's theorem makes it the unique member there.
        q = validate(((0.238, 0.301), (0.941, 0.507), (0.978, 0.521), (0.431, 0.72)))
        m1, m2 = diagonal_midpoints(q)
        center = (m1[0] + lam * (m2[0] - m1[0]), m1[1] + lam * (m2[1] - m1[1]))
        member = ellipse_at_center(q, center)
        assert distance(member.geom.center, center) <= 1e-9 * q.diameter()
        for side in q.sides():
            assert line_tangency(member.conic, side).kind is TangencyKind.TANGENT


class TestMaximalMember:
    def test_closed_form_matches_search(self):
        member = max_area_ellipse(GENERIC)
        searched = max_area_by_search(GENERIC)
        assert ellipse_area(member.geom) == pytest.approx(
            ellipse_area(searched.geom), rel=1e-9
        )
        assert member.geom.center == pytest.approx(searched.geom.center, abs=1e-6)

    def test_parallelogram_route_gives_midpoint_member(self):
        verts = ((0.0, 0.0), (3.0, 1.0), (4.0, 4.0), (1.0, 3.0))
        q = validate(verts)
        member = max_area_ellipse(q)
        assert ellipse_area(member.geom) / quad_area(q) == pytest.approx(
            math.pi / 4.0, rel=1e-12
        )

    @pytest.mark.parametrize(
        "verts, p, r",
        [
            (((0.0, 0.0), (4.0, 0.0), (3.0, 1.0), (1.0, 1.0)), 4.0, 2.0),
            (((0.0, 0.0), (1.0, 0.0), (1.0, 3.0), (0.0, 1.0)), 3.0, 1.0),
            (((0.0, 0.0), (8.0, 0.5), (6.0, 2.5), (2.0, 2.25)), math.hypot(8.0, 0.5), math.hypot(4.0, 0.25)),
            (THIN_TRAPEZOID, math.dist(*THIN_TRAPEZOID[1:3]), math.dist(THIN_TRAPEZOID[3], THIN_TRAPEZOID[0])),
        ],
        ids=["isosceles", "right", "oblique", "thin"],
    )
    def test_trapezoid_takes_the_closed_form(self, verts, p, r):
        # Parallel sides of lengths p and r: the ratio is (pi/2) sqrt(pr) / (p + r).
        q = validate(verts)
        assert q.is_trapezoid and not q.is_parallelogram
        member = max_area_ellipse(q)
        ratio = ellipse_area(member.geom) / quad_area(q)
        assert ratio == pytest.approx(0.5 * math.pi * math.sqrt(p * r) / (p + r), rel=1e-12, abs=0.0)
        searched = ellipse_area(max_area_by_search(q).geom) / quad_area(q)
        assert ratio == pytest.approx(searched, rel=1e-9, abs=0.0)

    def test_trapezoid_by_search_stays_under_bound(self):
        q = validate(((0.0, 0.0), (4.0, 0.0), (3.0, 1.0), (1.0, 1.0)))
        member = max_area_by_search(q)
        ratio = ellipse_area(member.geom) / quad_area(q)
        assert 0.0 < ratio < math.pi / 4.0
        for side in q.sides():
            assert min(side.distance_to(p) for p in member.tangency) < 1e-7

    @pytest.mark.parametrize(
        "verts",
        [
            ((0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (1.0, 1.0)),
            ((0.0, 0.0), (1.0, 0.0), (10001.0, 1e4), (1e4, 1e4)),
        ],
        ids=["sheared", "thin"],
    )
    def test_search_finds_parallelogram_maximum(self, verts):
        # A parallelogram's pencil keeps its center fixed and its area
        # profile unimodal, so the search needs no parallelogram case.
        q = validate(verts)
        searched = max_area_by_search(q)
        ratio = ellipse_area(searched.geom) / quad_area(q)
        assert ratio == pytest.approx(math.pi / 4.0, rel=1e-12, abs=0.0)
        center = max_area_ellipse(q).geom.center
        assert math.dist(searched.geom.center, center) <= 1e-12 * q.diameter()

    def test_ratio_is_affine_invariant(self):
        base = max_area_ellipse(GENERIC)
        base_ratio = ellipse_area(base.geom) / quad_area(GENERIC)
        for tmap in [
            AffineMap(2.0, 0.5, -0.3, 1.5, 3.0, -2.0),
            AffineMap(0.4, 0.0, 0.0, 0.4, 0.0, 0.0),
            AffineMap.rotation(1.1, (0.5, 0.5)),
        ]:
            moved = validate(tuple(tmap(v) for v in GENERIC.vertices))
            member = max_area_ellipse(moved)
            ratio = ellipse_area(member.geom) / quad_area(moved)
            assert ratio == pytest.approx(base_ratio, rel=1e-9)

    def test_tangency_points_follow_side_order(self):
        # tangency[i] must lie on side i. Parallelograms whose frame takes
        # base 1, such as the first one here, used to come out rotated by
        # one side.
        rng = np.random.default_rng(17)
        quads = [validate(((-2.0, -1.0), (0.0, -2.0), (0.0, 0.0), (-2.0, 1.0)))]
        quads += [validate(sample_parallelogram_vertices(rng)) for _ in range(40)]
        quads += [sample_convex_quad(rng) for _ in range(40)]
        quads += [validate(((0.0, 0.0), (8.0, 0.5), (6.0, 2.5), (2.0, 2.25))), validate(THIN_TRAPEZOID)]
        for q in quads:
            member = max_area_ellipse(q)
            for i, (p, side) in enumerate(zip(member.tangency, q.sides())):
                assert side.distance_to(p) <= 1e-9 * q.diameter(), (q.vertices, i)

    def test_maximum_dominates_family(self):
        member = max_area_ellipse(GENERIC)
        best = ellipse_area(member.geom)
        for _, area, _ in family_areas(GENERIC, 97):
            assert area <= best * (1.0 + 1e-9)


class TestFamilyAreas:
    def test_row_count_and_shape(self):
        rows = family_areas(GENERIC, 25)
        assert len(rows) == 25
        for param, area, center in rows:
            assert 0.0 < param < 1.0
            assert area > 0.0
            assert len(center) == 2

    def test_parallelogram_sweep_in_v(self):
        # Rows are labelled by v, the tangency height of the frame family,
        # and sit on its closed form at that v, about the vertex centroid.
        sheared = ((0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (1.0, 1.0))
        rectangle = ((0.0, 0.0), (3.0, 0.0), (3.0, 2.0), (0.0, 2.0))
        for verts in (sheared, rectangle):
            q = validate(verts)
            frame = parallelogram_frame(q)
            rows = family_areas(q, 11)
            assert len(rows) == 11
            centroid = (sum(x for x, _ in verts) / 4.0, sum(y for _, y in verts) / 4.0)
            for i, (param, area, center) in enumerate(rows):
                lam = (i + 1) / 12
                assert param == pytest.approx(lam * frame.k, rel=1e-15)
                want = 0.5 * math.pi * math.sqrt(lam * (1.0 - lam)) * quad_area(q)
                assert area == pytest.approx(want, rel=1e-12, abs=0.0), (verts, i)
                ref = ellipse_area(parallelogram_family(frame.l, frame.k, frame.d, param).geom)
                assert area == pytest.approx(ref, rel=1e-12, abs=0.0), (verts, i)
                assert math.dist(center, centroid) <= 1e-12 * q.diameter(), (verts, i)

    def test_peak_matches_closed_form(self):
        rows = family_areas(GENERIC, 301)
        best_area = max(area for _, area, _ in rows)
        member = max_area_ellipse(GENERIC)
        assert best_area <= ellipse_area(member.geom) * (1.0 + 1e-9)
        assert best_area >= ellipse_area(member.geom) * (1.0 - 1e-3)

    def test_count_validation(self):
        with pytest.raises(ParameterOutOfRange):
            family_areas(GENERIC, 0)


def _diameter(verts):
    return max(math.dist(p, q) for p in verts for q in verts)


class TestPlacementInvariance:
    """The inscribed ratio depends only on the quad's shape: under a
    similarity map it must keep its value, or the call must raise a typed
    error, which only a thin quad (area / diameter^2 < 1e-3) may do."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.one_of(st.just(1.0), st.floats(0.05, 4.0)),
        st.one_of(st.just(1.0), st.floats(0.05, 4.0)),
        st.floats(-1.0, 1.0),
        st.floats(-3.0, 0.0),
        st.floats(-8.0, 8.0),
        st.floats(0.0, 2.0 * math.pi),
        st.one_of(st.just(0.0), st.floats(0.0, 6.0).map(lambda e: 10.0**e)),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_ratio_survives_similarity_maps(
        self, s, t, shear, log_aspect, log_scale, angle, diams, direction
    ):
        # A canonical quad (trapezoids and parallelograms included) under a
        # shear and a squash, then scaled, rotated and moved off the origin.
        assume(s + t > 1.05)
        aspect = 10.0**log_aspect
        base = tuple(
            (x + shear * y, aspect * y) for x, y in ((0.0, 0.0), (1.0, 0.0), (s, t), (0.0, 1.0))
        )
        k = 10.0**log_scale
        c, sn = k * math.cos(angle), k * math.sin(angle)
        placed = tuple((c * x - sn * y, sn * x + c * y) for x, y in base)
        off = diams * k * _diameter(base)
        ox, oy = off * math.cos(direction), off * math.sin(direction)
        moved = tuple((x + ox, y + oy) for x, y in placed)
        # The offset reference sees the rounded input, translated back exactly.
        back = tuple(
            (float(Fraction(x) - Fraction(ox)), float(Fraction(y) - Fraction(oy))) for x, y in moved
        )
        try:
            want = inscribed_ratio(base)
            rotated = inscribed_ratio(placed)
            got, ref = inscribed_ratio(moved), inscribed_ratio(back)
        except QuadEllipseError:
            (x0, y0), (x1, y1), (x2, y2), (x3, y3) = base
            area = 0.5 * abs((x2 - x0) * (y3 - y1) - (y2 - y0) * (x3 - x1))
            assert area / _diameter(base) ** 2 < 1e-3
            return
        assert abs(rotated - want) <= 1e-9 * want
        assert abs(got - ref) <= (1e-9 + 64.0 * diams * EPS) * ref

    def test_ratio_is_continuous_across_the_trapezoid_flag(self):
        trap = ((0.0, 0.0), (4.0, 0.0), (3.0, 1.0), (1.0, 1.0))
        want = inscribed_ratio(trap)
        flags = []
        for nudge in (1e-11, 2e-10):
            verts = ((0.0, 0.0), (4.0, 0.0), (3.0, 1.0 + nudge), (1.0, 1.0))
            flags.append(validate(verts).is_trapezoid)
            assert abs(inscribed_ratio(verts) - want) < 1e-9, nudge
        assert flags == [True, False]
