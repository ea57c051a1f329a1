import math
from fractions import Fraction

import numpy as np
import pytest

from quadellipse.errors import (
    CanonicalFormViolated,
    DegenerateVertices,
    DomainError,
    IsTrapezoid,
    NotConvex,
    NotParallelogram,
)
from quadellipse.geom import cross2, distance
from quadellipse.quad import (
    ConvexQuad,
    diagonal_frame,
    diagonal_midpoints,
    diagonal_ratios,
    frame_vertices,
    normalize,
    parallelogram_frame,
    quad_area,
    validate,
)
from quadellipse.family import max_area_ellipse
from quadellipse.verify import (
    circumscribed_min_ratio,
    sample_parallelogram_vertices,
    scan_sample_vertices,
)
from oracles import reference_validate

SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
KITE = ((0.0, 0.0), (2.0, -1.0), (4.0, 0.0), (2.0, 3.0))
GENERIC = ((0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.0, 1.0))


class TestValidate:
    def test_accepts_square(self):
        q = validate(SQUARE)
        assert q.vertices == SQUARE
        assert q.is_parallelogram and q.is_trapezoid and q.is_tangential

    def test_reorders_scrambled_input(self):
        q = validate((SQUARE[0], SQUARE[2], SQUARE[1], SQUARE[3]))
        assert q.vertices == SQUARE

    def test_reorders_clockwise_input(self):
        q = validate(tuple(reversed(SQUARE)))
        assert q.vertices == SQUARE

    def test_starts_at_lexicographic_minimum(self):
        shifted = (SQUARE[2], SQUARE[3], SQUARE[0], SQUARE[1])
        assert validate(shifted).vertices == SQUARE

    def test_rejects_collinear(self):
        with pytest.raises(DegenerateVertices):
            validate(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0)))

    def test_rejects_interior_point(self):
        with pytest.raises(NotConvex):
            validate(((0.0, 0.0), (1.0, 0.0), (0.1, 0.1), (0.0, 1.0)))

    def test_rejects_coincident_points(self):
        with pytest.raises(DegenerateVertices):
            validate(((0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(DegenerateVertices):
            validate(((0.0, 0.0), (1.0, math.nan), (1.0, 1.0), (0.0, 1.0)))

    def test_rejects_wrong_count(self):
        with pytest.raises(DegenerateVertices):
            validate(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))

    def test_flags_non_parallelogram(self):
        q = validate(GENERIC)
        assert not q.is_parallelogram
        assert not q.is_trapezoid

    def test_flags_trapezoid(self):
        q = validate(((0.0, 0.0), (4.0, 0.0), (3.0, 1.0), (1.0, 1.0)))
        assert q.is_trapezoid and not q.is_parallelogram

    def test_tangential_flag_uses_side_sums(self):
        # Kite: adjacent side pairs equal, so opposite sums match (Pitot).
        q = validate(KITE)
        sides = q.side_vectors()
        lengths = [math.hypot(*v) for v in sides]
        assert lengths[0] + lengths[2] == pytest.approx(lengths[1] + lengths[3])
        assert q.is_tangential

    def test_ccw_orientation(self):
        q = validate(GENERIC)
        edges = q.side_vectors()
        assert all(cross2(edges[i], edges[(i + 1) % 4]) > 0.0 for i in range(4))


class TestFloatRange:
    """Scales at which the area and the diagonal frame, products of
    coordinate differences, leave the normal float range are refused with a
    DomainError; below them the answer does not depend on the scale."""

    BASE = ((0.0, 0.0), (1.3, 0.1), (1.1, 0.9), (0.2, 1.0))

    def scaled(self, s):
        return [(x * s, y * s) for x, y in self.BASE]

    @pytest.mark.parametrize("s", [1e150, 1e-150])
    def test_wide_scales_match_unit_scale(self, s):
        def ratios(points):
            q = validate(points)
            member = max_area_ellipse(q)
            return (
                math.pi * member.geom.a * member.geom.b / quad_area(q),
                circumscribed_min_ratio(q),
            )

        assert ratios(self.scaled(s)) == pytest.approx(ratios(self.BASE), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("exponent", [154, 155, 160, 200, 250, 300])
    def test_extreme_scales_are_refused(self, exponent):
        for s in (10.0**exponent, 10.0**-exponent):
            with pytest.raises(DomainError, match="normal float range"):
                validate(self.scaled(s))

    def test_subnormal_triangle_is_refused(self):
        # The diameter is in range, but one vertex triangle's doubled area
        # is 1e-310.
        with pytest.raises(DomainError, match="normal float range"):
            validate(((0.0, 0.0), (1e-150, -1e-160), (2e-150, 0.0), (1e-150, 1e-150)))


def validate_inputs():
    """About 34,600 point sets, valid and invalid, in every input form."""
    rng = np.random.default_rng(808)
    for _ in range(3000):
        pts = rng.random((4, 2))
        yield pts
        yield pts.tolist()
        yield (pts - 0.5) * 10.0 ** rng.integers(-9, 10) + rng.integers(-3, 4) * 1e6
        yield (pts - 0.5) * 10.0 ** rng.uniform(-8.0, 8.0) + rng.uniform(-1e6, 1e6, 2)
    for _ in range(1500):
        verts = sample_parallelogram_vertices(rng)
        yield verts
        yield [verts[i] for i in rng.permutation(4)]
    for seed in (7, 42):
        for index in range(1500):
            verts = scan_sample_vertices(seed, index)
            yield verts
            for _ in range(2):
                yield [verts[i] for i in rng.permutation(4)]
    for _ in range(1500):
        yield rng.integers(-3, 4, (4, 2))
        yield rng.integers(-3, 4, (4, 2)).tolist()
    for _ in range(1000):
        # Coincident and nearly coincident vertices.
        pts = rng.random((4, 2))
        i, j = rng.choice(4, 2, replace=False)
        pts[j] = pts[i] + rng.choice([0.0, 1e-14, 1e-12, 1e-11]) * rng.standard_normal(2)
        yield pts[rng.permutation(4)]
    for _ in range(1000):
        # Three vertices on a line, exactly or within rounding of it.
        a, b, c = rng.random((3, 2))
        u = rng.uniform(-0.5, 1.5)
        mid = a + u * (b - a) + rng.choice([0.0, 1e-16, 1e-13, 1e-11]) * rng.standard_normal(2)
        yield np.array([a, b, mid, c])[rng.permutation(4)]
    for _ in range(1000):
        # A vertex on the segment joining its two neighbours.
        a, b, c = rng.random((3, 2))
        yield [a, a + rng.uniform(0.0, 1.0) * (b - a), b, c]
    for _ in range(1000):
        # Parallelograms and trapezoids near the parallel and Pitot tolerances.
        slot = 4 * int(rng.integers(1, 10**6)) + 2
        v0, v1, v2, v3 = (np.array(v) for v in scan_sample_vertices(3, slot))
        bump = rng.choice([0.0, 10.0 ** rng.uniform(-14.0, -6.0)])
        yield [v0, v1, v2 + bump * rng.standard_normal(2), v3]
        yield [v0, v1, v2, v0 + rng.uniform(0.2, 0.8) * (v3 - v0) + bump * rng.standard_normal(2)]
        # Kites are tangential; moving the apex sideways breaks Pitot by ~bump.
        half = rng.uniform(0.5, 2.0)
        yield [(0.0, 0.0), (half, -1.0), (2.0 * half, 0.0), (half + bump, rng.uniform(0.5, 3.0))]
    for k in range(500):
        pts = rng.random((4, 2))
        pts[k % 4, k % 2] = (math.nan, math.inf, -math.inf)[k % 3]
        yield pts.tolist()
    for k in range(500):
        yield rng.random((3 + 2 * (k % 2), 2))
    for c in (0.0, -0.0, 1.0, 1e300):
        yield [(c, c)] * 4
    for _ in range(200):
        # Diameters either side of the normal-range limits, and a vertex
        # triangle with a subnormal doubled area.
        yield rng.random((4, 2)) * 10.0 ** rng.choice([rng.uniform(-160, -150), rng.uniform(150, 160)])
        h = 10.0 ** rng.uniform(-162.0, -157.0)
        yield [(0.0, 0.0), (1e-150, -h), (2e-150, 0.0), (1e-150, 1e-150)]
    for _ in range(200):
        # Signed zeros, which sum() and + treat alike only through the
        # start value.
        pts = rng.choice([-0.0, 0.0, 1.0, -1.0], (4, 2))
        yield pts.tolist()


def outcome(fn, points):
    try:
        q = fn(points)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(q.vertices), q.is_parallelogram, q.is_trapezoid, q.is_tangential


class TestValidateMatchesReference:
    def test_same_answer_or_same_error_everywhere(self):
        count = 0
        kinds = set()
        for points in validate_inputs():
            want = outcome(reference_validate, points)
            assert outcome(validate, points) == want, points
            count += 1
            kinds.add(want[0] if isinstance(want[0], type) else want[1:])
        assert count >= 20_000
        # Both refusal classes, and every flag combination but a tangential
        # trapezoid that is not a parallelogram, were exercised.
        assert {DegenerateVertices, DomainError, NotConvex} <= kinds
        assert {
            (False, False, False),
            (False, False, True),
            (False, True, False),
            (True, True, False),
            (True, True, True),
        } <= kinds


class TestAreaAndMidpoints:
    def test_unit_square_area(self):
        assert quad_area(validate(SQUARE)) == 1.0

    def test_generic_area(self):
        # Shoelace by hand: (0,0),(1,0),(2,3),(0,1) -> 5/2.
        assert quad_area(validate(GENERIC)) == pytest.approx(2.5)

    def test_canonical_area_formula(self):
        # Canonical quad (0,0),(1,0),(s,t),(0,1) has area (s+t)/2.
        for s, t in [(2.0, 3.0), (0.8, 0.7), (1.5, 0.6)]:
            q = validate(((0.0, 0.0), (1.0, 0.0), (s, t), (0.0, 1.0)))
            assert quad_area(q) == pytest.approx((s + t) / 2.0)

    @pytest.mark.parametrize("verts", [GENERIC, KITE, ((0.1, 0.2), (3.0, 0.0), (2.2, 1.3), (0.4, 1.1))])
    def test_area_far_from_origin(self, verts):
        # Reference: the shoelace sum of the rounded input, in exact arithmetic.
        diam = validate(verts).diameter()
        for diams in (1.0, 1e2, 1e4, 1e6, 1e8):
            for angle in (0.3, 2.0, 4.0):
                ox, oy = diams * diam * math.cos(angle), diams * diam * math.sin(angle)
                q = validate(tuple((x + ox, y + oy) for x, y in verts))
                v = [(Fraction(x), Fraction(y)) for x, y in q.vertices]
                exact = sum(
                    v[i][0] * v[(i + 1) % 4][1] - v[(i + 1) % 4][0] * v[i][1] for i in range(4)
                ) / 2
                assert abs(Fraction(quad_area(q)) - exact) <= Fraction(1e-15) * abs(exact), (diams, angle)

    def test_diagonal_midpoints(self):
        m1, m2 = diagonal_midpoints(validate(GENERIC))
        assert m1 == pytest.approx((0.5, 0.5))
        assert m2 == pytest.approx((1.0, 1.5))

    def test_midpoints_coincide_for_parallelogram(self):
        m1, m2 = diagonal_midpoints(validate(SQUARE))
        assert m1 == pytest.approx(m2)


class TestDiagonalFrame:
    def test_frame_maps_back_onto_the_quad(self):
        for verts in (SQUARE, KITE, GENERIC):
            q = validate(tuple((3e5 + 40.0 * x, -7e5 + 40.0 * y) for x, y in verts))
            alpha, beta, back = diagonal_frame(q)
            assert 0.0 < alpha < 1.0 and 0.0 < beta < 1.0
            frame = validate(frame_vertices(alpha, beta))
            assert quad_area(frame) == 0.5
            assert (frame.is_parallelogram, frame.is_trapezoid) == (q.is_parallelogram, q.is_trapezoid)
            for p, want in zip(frame_vertices(alpha, beta), q.vertices):
                assert back(p) == pytest.approx(want, rel=1e-15)
            assert back.det() == pytest.approx(2.0 * quad_area(q), rel=1e-15)

    def test_known_crossings(self):
        # Diagonals of GENERIC meet at (0.4, 0.6): a fifth of the way from
        # (0, 0) to (2, 3), three fifths from (1, 0) to (0, 1).
        assert diagonal_frame(validate(GENERIC))[:2] == pytest.approx((0.2, 0.6), rel=1e-15)
        assert diagonal_frame(validate(SQUARE))[:2] == (0.5, 0.5)


class TestNormalize:
    def test_canonical_quad_is_fixed_point(self):
        # s > t and s + t >= 2 is the labelling normalize picks, so the
        # canonical quad comes back bit for bit, anchored at the origin.
        for s, t in ((3.0, 2.0), (5.0, 0.5), (2.0, 0.5)):
            q = validate(((0.0, 0.0), (1.0, 0.0), (s, t), (0.0, 1.0)))
            nq = normalize(q)
            assert (nq.s, nq.t) == (s, t)
            assert nq.from_canonical((0.0, 0.0)) == q.vertices[0]
            for want, v in zip(SQUARE[:2], q.vertices[:2]):
                assert nq.to_canonical(v) == pytest.approx(want, abs=1e-12)

    def test_generic_takes_the_labelling_with_small_ratios(self):
        # GENERIC is the canonical quad (2, 3) seen from vertex 0; from
        # vertex 3 its ratios are alpha = 2/5, beta = 1/5, both below 1/2.
        q = validate(GENERIC)
        nq = normalize(q)
        assert (nq.s, nq.t) == pytest.approx((2.0, 0.5), abs=1e-15)
        assert nq.from_canonical((0.0, 0.0)) == q.vertices[3]

    @pytest.mark.parametrize(
        "verts, anchor",
        [
            (((0.0, 0.0), (1.0, 0.0), (1.5, 0.5), (0.0, 1.0)), 0),
            (((0.0, 0.0), (1.0, 0.0), (0.5, 1.5), (0.0, 1.0)), 2),
        ],
    )
    def test_half_open_rule_at_alpha_one_half(self, verts, anchor):
        # alpha is exactly 1/2 on both, with beta = 1/4 and 3/4: the ties
        # go to the labelling with beta < 1/2 (k = 0 and k = 2), never to
        # the one with beta = 1/2, which would give (2, 2).
        q = validate(verts)
        assert diagonal_ratios(q)[0] == 0.5
        nq = normalize(q)
        assert (nq.s, nq.t) == (1.5, 0.5)
        assert nq.from_canonical((0.0, 0.0)) == q.vertices[anchor]

    def test_maps_are_mutually_inverse(self):
        nq = normalize(validate(GENERIC))
        for p in [(0.3, 0.4), (1.5, 2.0), (-1.0, 0.25)]:
            assert nq.from_canonical(nq.to_canonical(p)) == pytest.approx(p, abs=1e-12)

    def test_canonical_constraints_hold(self):
        rng = np.random.default_rng(11)
        seen = 0
        while seen < 200:
            pts = rng.random((4, 2)) * 3.0
            try:
                q = validate(pts)
            except Exception:
                continue
            if q.is_trapezoid:
                continue
            nq = normalize(q)
            assert nq.s + nq.t > 1.0
            assert nq.s != 1.0 and nq.t != 1.0
            seen += 1

    def test_refuses_trapezoid(self):
        q = validate(((0.0, 0.0), (4.0, 0.0), (3.0, 1.0), (1.0, 1.0)))
        with pytest.raises(IsTrapezoid):
            normalize(q)

    @pytest.mark.parametrize("verts", [GENERIC, KITE, ((0.1, 0.2), (3.0, 0.0), (2.2, 1.3), (0.4, 1.1))])
    def test_far_from_origin_keeps_digits(self, verts):
        # Reference: (s, t) of the rounded input in exact arithmetic. Taking
        # them through the inverse map lost offset/diameter * eps (5e-6
        # relative at 1e9 diameters).
        diam = validate(verts).diameter()
        for diams in (1.0, 1e3, 1e6, 1e9):
            for angle in (0.3, 2.0, 4.0):
                ox, oy = diams * diam * math.cos(angle), diams * diam * math.sin(angle)
                q = validate(tuple((x + ox, y + oy) for x, y in verts))
                nq = normalize(q)
                anchor = next(i for i in range(4) if nq.from_canonical((0.0, 0.0)) == q.vertices[i])
                v = [(Fraction(x), Fraction(y)) for x, y in q.vertices[anchor:] + q.vertices[:anchor]]
                e1, e2, far = ((p[0] - v[0][0], p[1] - v[0][1]) for p in (v[1], v[3], v[2]))
                det = e1[0] * e2[1] - e1[1] * e2[0]
                s = (far[0] * e2[1] - far[1] * e2[0]) / det
                t = (e1[0] * far[1] - e1[1] * far[0]) / det
                for got, want in ((nq.s, s), (nq.t, t)):
                    assert abs(Fraction(got) - want) <= Fraction(8 * 2**-52) * abs(want), (diams, angle)

    def test_affine_images_share_one_pair(self):
        # (s, t) depend only on the affine class and the orientation: one
        # pair over the orientation-preserving maps, and the mirror
        # labelling's pair besides over reflections.
        rng = np.random.default_rng(17)
        pairs = {True: set(), False: set()}
        maps = 0
        while maps < 1200:
            m = rng.normal(size=(2, 2))
            det = float(np.linalg.det(m))
            if abs(det) < 0.2:
                continue
            shift = rng.uniform(-100.0, 100.0, 2)
            image = tuple(tuple(float(c) for c in m @ v + shift) for v in np.array(GENERIC))
            nq = normalize(validate(image))
            pairs[det > 0.0].add((round(nq.s, 9), round(nq.t, 9)))
            maps += 1
        assert pairs[True] == {(2.0, 0.5)}
        assert pairs[True] | pairs[False] == {(2.0, 0.5), (3.0, 2.0)}

    def test_vertex_images_form_canonical_quad(self):
        q = validate(KITE)
        nq = normalize(q)
        images = sorted(tuple(round(c, 9) for c in nq.to_canonical(v)) for v in q.vertices)
        assert (0.0, 0.0) in images
        assert (0.0, 1.0) in images
        assert (1.0, 0.0) in images


class TestParallelogramFrame:
    def test_square_frame(self):
        frame = parallelogram_frame(validate(SQUARE))
        assert frame.l == pytest.approx(1.0)
        assert frame.k == pytest.approx(1.0)
        assert frame.d == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_parallelogram(self):
        with pytest.raises(NotParallelogram):
            parallelogram_frame(validate(GENERIC))

    def test_placed_corners_reproduce_vertices(self):
        verts = ((1.0, 2.0), (4.0, 3.0), (5.0, 6.0), (2.0, 5.0))
        q = validate(verts)
        frame = parallelogram_frame(q)
        placed = frame.placed_corners()
        assert sorted(placed) == pytest.approx(sorted(q.vertices), abs=1e-12)

    def test_near_rectangle_with_both_shears_negative(self):
        # A unit square turned by 1 rad and moved 4.5e5 away: rounding leaves
        # both candidate shears slightly negative, so the frame snaps d to 0.
        c, s = math.cos(1.0), math.sin(1.0)
        off = 10.0**5.5 * math.sqrt(2.0)
        q = validate(tuple((c * x - s * y + off, s * x + c * y) for x, y in SQUARE))
        assert q.is_parallelogram
        frame = parallelogram_frame(q)
        assert frame.d == 0.0
        for got, want in zip(sorted(frame.placed_corners()), sorted(q.vertices)):
            assert math.dist(got, want) < 1e-9

    def test_shear_is_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x0, y0 = rng.uniform(-2, 2, 2)
            ux, uy = rng.uniform(-2, 2, 2)
            wx, wy = rng.uniform(-2, 2, 2)
            if abs(ux * wy - uy * wx) < 0.1:
                continue
            v1 = (x0 + ux, y0 + uy)
            verts = ((x0, y0), v1, (v1[0] + wx, v1[1] + wy), (x0 + wx, y0 + wy))
            frame = parallelogram_frame(validate(verts))
            assert frame.d >= 0.0
            assert frame.l > 0.0 and frame.k > 0.0

    def test_placement_is_rigid(self):
        verts = ((1.0, 2.0), (4.0, 3.0), (5.0, 6.0), (2.0, 5.0))
        frame = parallelogram_frame(validate(verts))
        assert frame.placement.is_rigid()
        # Corner distances survive the placement.
        c0, c1 = frame.corners()[:2]
        p0, p1 = frame.placed_corners()[:2]
        assert distance(c0, c1) == pytest.approx(distance(p0, p1), rel=1e-12)
