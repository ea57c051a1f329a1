import math

import numpy as np
import pytest

from quadellipse.conic import (
    ConicCoeffs,
    ConicKind,
    EllipseGeom,
    TangencyKind,
    classify_conic,
    conic_to_ellipse,
    conic_transform,
    ellipse_area,
    ellipse_transform,
    foci,
    geometry_to_conic,
    line_tangency,
    proportional,
)
from quadellipse.errors import NotAnEllipse, QuadEllipseError
from quadellipse.family import ellipse_at_center, max_area_ellipse
from quadellipse.geom import AffineMap, Line
from quadellipse.quad import diagonal_midpoints, validate

UNIT_CIRCLE = ConicCoeffs(1.0, 1.0, 0.0, 0.0, 0.0, -1.0)
_EPS = 2.0**-52


class TestClassify:
    def test_circle_is_ellipse(self):
        assert classify_conic(UNIT_CIRCLE) is ConicKind.ELLIPSE

    def test_parabola(self):
        # y = x^2
        assert classify_conic(ConicCoeffs(1.0, 0.0, 0.0, 0.0, -1.0, 0.0)) is ConicKind.PARABOLA

    def test_hyperbola(self):
        assert classify_conic(ConicCoeffs(1.0, -1.0, 0.0, 0.0, 0.0, -1.0)) is ConicKind.HYPERBOLA

    def test_crossing_line_pair_is_degenerate(self):
        # x^2 - y^2 = 0
        assert classify_conic(ConicCoeffs(1.0, -1.0, 0.0, 0.0, 0.0, 0.0)) is ConicKind.DEGENERATE

    def test_imaginary_ellipse_is_degenerate(self):
        # x^2 + y^2 + 1 = 0 has no real points.
        assert classify_conic(ConicCoeffs(1.0, 1.0, 0.0, 0.0, 0.0, 1.0)) is ConicKind.DEGENERATE

    def test_scaling_does_not_change_kind(self):
        tilted = ConicCoeffs(2.0, 1.0, 0.4, -1.0, 0.5, -1.0)
        kind = classify_conic(tilted)
        assert classify_conic(tilted.scaled(-7.5)) is kind

    def test_thin_ellipse_is_an_ellipse_in_any_units(self):
        # Aspect 1e-3: in unit coordinates det3 is ~1e-12 of the cubed
        # coefficient scale, yet the kind must not depend on the units.
        thin = geometry_to_conic(EllipseGeom(center=(0.3, -0.2), a=1.0, b=1e-3, phi=0.4))
        for k in (1e-6, 1.0, 1e6):
            scaled = conic_transform(thin, AffineMap(k, 0.0, 0.0, k, 0.0, 0.0))
            assert classify_conic(scaled) is ConicKind.ELLIPSE, k

    def test_all_zero_quadratic_part_rejected(self):
        with pytest.raises(ValueError):
            ConicCoeffs(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)


class TestThinMembers:
    """Members of one quad near the ends of its family, aspect 1.2e-7 to
    4e-4. At a Cramer's-rule centre the value there cancels to noise:
    members with aspect 1.3e-5 were refused and those with 8e-5 read 2%
    long. Summed in the eigenframe it keeps the digits the coefficients
    carry."""

    QUAD = validate(((0.238, 0.301), (0.941, 0.507), (0.978, 0.521), (0.431, 0.72)))

    def member(self, lam):
        m1, m2 = diagonal_midpoints(self.QUAD)
        return ellipse_at_center(
            self.QUAD, (m1[0] + lam * (m2[0] - m1[0]), m1[1] + lam * (m2[1] - m1[1]))
        )

    @pytest.mark.parametrize(
        "lam, rtol", [(1e-9, 1e-4), (1e-6, 1e-7), (1.0 - 1e-6, 1e-7), (1.0 - 1e-9, 1e-4)]
    )
    def test_recovers_the_member(self, lam, rtol):
        member = self.member(lam)
        assert classify_conic(member.conic) is ConicKind.ELLIPSE
        geom = conic_to_ellipse(member.conic)
        assert geom.a == pytest.approx(member.geom.a, rel=rtol)
        assert geom.b == pytest.approx(member.geom.b, rel=rtol)
        assert geom.center == pytest.approx(member.geom.center, abs=rtol)

    @pytest.mark.parametrize("lam", [2e-12, 1.0 - 2e-12])
    def test_thinner_members_are_refused(self, lam):
        # Their centre value is below DEGENERACY_RTOL of its terms; summed
        # anyway it would put the semi-axes ~0.2% off.
        with pytest.raises(QuadEllipseError):
            conic_to_ellipse(self.member(lam).conic)


class TestRotationAngle:
    """The major-axis angle, read as conic_to_ellipse(...).phi."""

    def test_axis_aligned_wide(self):
        # a < b: major axis along x, angle 0.
        assert conic_to_ellipse(ConicCoeffs(1.0, 4.0, 0.0, 0.0, 0.0, -4.0)).phi == 0.0

    def test_axis_aligned_tall(self):
        assert conic_to_ellipse(ConicCoeffs(4.0, 1.0, 0.0, 0.0, 0.0, -4.0)).phi == pytest.approx(
            math.pi / 2.0
        )

    def test_diagonal_tilt(self):
        # Equal diagonal entries with cross term: axes at 45 degrees.
        angle = conic_to_ellipse(ConicCoeffs(2.0, 2.0, -0.5, 0.0, 0.0, -1.0)).phi
        assert angle == pytest.approx(math.pi / 4.0)

    def test_rejects_hyperbola(self):
        with pytest.raises(NotAnEllipse):
            conic_to_ellipse(ConicCoeffs(1.0, -1.0, 0.0, 0.0, 0.0, -1.0))

    def test_matches_generated_geometry(self):
        for phi in (0.1, 0.7, 1.2, 2.0, 2.9):
            geom = EllipseGeom(center=(0.0, 0.0), a=3.0, b=1.0, phi=phi)
            angle = conic_to_ellipse(geometry_to_conic(geom)).phi
            assert angle == pytest.approx(phi, abs=1e-12)


class TestEllipseRoundtrip:
    CASES = [
        EllipseGeom(center=(0.0, 0.0), a=1.0, b=1.0, phi=0.0),
        EllipseGeom(center=(2.0, -1.0), a=3.0, b=0.5, phi=0.3),
        EllipseGeom(center=(-4.0, 7.0), a=2.0, b=2.0, phi=0.0),
        EllipseGeom(center=(0.1, 0.2), a=5.0, b=4.999, phi=1.4),
        EllipseGeom(center=(10.0, -5.0), a=0.1, b=0.05, phi=3.0),
    ]

    @pytest.mark.parametrize("geom", CASES)
    def test_geometry_conic_geometry(self, geom):
        back = conic_to_ellipse(geometry_to_conic(geom))
        assert back.center == pytest.approx(geom.center, rel=1e-9, abs=1e-9)
        assert back.a == pytest.approx(geom.a, rel=1e-9)
        assert back.b == pytest.approx(geom.b, rel=1e-9)
        if geom.a != geom.b:
            assert back.phi == pytest.approx(geom.phi, abs=1e-9)

    @pytest.mark.parametrize("geom", CASES)
    def test_boundary_points_satisfy_conic(self, geom):
        conic = geometry_to_conic(geom)
        scale = conic.max_abs()
        for theta in np.linspace(0.0, 2.0 * math.pi, 17):
            x, y = geom.boundary_point(theta)
            assert abs(conic.evaluate(x, y)) < 1e-9 * scale * (1.0 + x * x + y * y)

    def test_circle_keeps_axis_order(self):
        # Here det2 / lam_max = a*a / a rounds above a; the semi-axes must
        # come out equal, not swapped into an invalid EllipseGeom.
        conic = ConicCoeffs(
            220.90271625578177, 220.90271625578177, 0.0,
            157.25927811343888, -1135.8762639933914, 1487.1498402828354,
        )
        back = conic_to_ellipse(conic)
        assert back.a == back.b

    def test_conic_to_ellipse_rejects_hyperbola(self):
        with pytest.raises(NotAnEllipse):
            conic_to_ellipse(ConicCoeffs(1.0, -2.0, 0.0, 0.0, 0.0, -1.0))

    def test_geom_requires_positive_axes_order(self):
        with pytest.raises(ValueError):
            EllipseGeom(center=(0.0, 0.0), a=1.0, b=2.0, phi=0.0)
        with pytest.raises(ValueError):
            EllipseGeom(center=(0.0, 0.0), a=1.0, b=0.0, phi=0.0)


class TestAreaAndFoci:
    def test_area(self):
        geom = EllipseGeom(center=(0.0, 0.0), a=3.0, b=2.0, phi=0.0)
        assert ellipse_area(geom) == pytest.approx(6.0 * math.pi)

    def test_foci_axis_aligned(self):
        geom = EllipseGeom(center=(1.0, 1.0), a=5.0, b=3.0, phi=0.0)
        f1, f2 = foci(geom)
        assert sorted([f1[0], f2[0]]) == pytest.approx([-3.0, 5.0])
        assert f1[1] == pytest.approx(1.0)
        assert f2[1] == pytest.approx(1.0)

    def test_foci_of_circle_coincide_at_center(self):
        geom = EllipseGeom(center=(2.0, 3.0), a=1.5, b=1.5, phi=0.0)
        f1, f2 = foci(geom)
        assert f1 == pytest.approx((2.0, 3.0))
        assert f2 == pytest.approx((2.0, 3.0))

    def test_focal_distance_sum_is_constant(self):
        geom = EllipseGeom(center=(0.5, -0.25), a=2.0, b=1.0, phi=0.9)
        f1, f2 = foci(geom)
        for theta in (0.0, 0.7, 2.1, 4.4):
            x, y = geom.boundary_point(theta)
            total = math.hypot(x - f1[0], y - f1[1]) + math.hypot(x - f2[0], y - f2[1])
            assert total == pytest.approx(2.0 * geom.a, rel=1e-12)


class TestLineTangency:
    def test_tangent_line_to_unit_circle(self):
        res = line_tangency(UNIT_CIRCLE, Line.through((1.0, 0.0), (1.0, 1.0)))
        assert res.kind is TangencyKind.TANGENT
        assert res.point == pytest.approx((1.0, 0.0), abs=1e-9)

    def test_secant_line(self):
        res = line_tangency(UNIT_CIRCLE, Line.through((0.0, 0.0), (1.0, 0.0)))
        assert res.kind is TangencyKind.SECANT

    def test_disjoint_line(self):
        res = line_tangency(UNIT_CIRCLE, Line.through((2.0, 0.0), (2.0, 1.0)))
        assert res.kind is TangencyKind.DISJOINT

    def test_tangency_point_lies_on_both(self):
        geom = EllipseGeom(center=(1.0, 2.0), a=2.0, b=1.0, phi=0.5)
        conic = geometry_to_conic(geom)
        # Tangent at a boundary point: perpendicular to the gradient there.
        x0, y0 = geom.boundary_point(1.1)
        gx = 2.0 * conic.a * x0 + 2.0 * conic.c * y0 + conic.d
        gy = 2.0 * conic.b * y0 + 2.0 * conic.c * x0 + conic.e
        line = Line.from_point_direction((x0, y0), (-gy, gx))
        res = line_tangency(conic, line)
        assert res.kind is TangencyKind.TANGENT
        assert res.point == pytest.approx((x0, y0), abs=1e-6)


    @pytest.mark.parametrize("k", [-20, 0, 20])
    def test_residual_is_dimensionless(self, k):
        # Squared half-chord over the squared parallel half-diameter: the
        # line x = R/2 cuts a circle of radius R with ratio 3/4 at any R.
        r = 2.0**k
        circle = ConicCoeffs(1.0, 1.0, 0.0, 0.0, 0.0, -r * r)
        res = line_tangency(circle, Line(1.0, 0.0, -0.5 * r))
        assert res.kind is TangencyKind.SECANT
        assert res.residual == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("k", [-20, 0, 20])
    def test_member_sides_are_tangent_in_any_units(self, k):
        # The residual used to be a squared length in input units: from a
        # scale of about 1e3 true tangent sides read SECANT or DISJOINT, and
        # at small scales sides moved off the member still read TANGENT.
        from quadellipse.family import max_area_ellipse
        from quadellipse.quad import validate

        u = 2.0**k
        q = validate(((0.0, 0.0), (u, 0.0), (2.0 * u, 3.0 * u), (0.0, u)))
        member = max_area_ellipse(q)
        for i, side in enumerate(q.sides()):
            assert line_tangency(member.conic, side).kind is TangencyKind.TANGENT, i
            n = math.hypot(side.a, side.b)
            for shift in (-1e-6, 1e-6):
                moved = Line(side.a, side.b, side.c + shift * q.diameter() * n)
                assert line_tangency(member.conic, moved).kind is not TangencyKind.TANGENT, (i, shift)

    def test_parabola_raises(self):
        with pytest.raises(NotAnEllipse):
            line_tangency(ConicCoeffs(1.0, 0.0, 0.0, 0.0, -1.0, 0.0), Line(0.0, 1.0, -1.0))


class TestTransforms:
    def test_conic_transform_tracks_points(self):
        conic = geometry_to_conic(EllipseGeom(center=(1.0, -1.0), a=2.0, b=1.0, phi=0.4))
        tmap = AffineMap(1.5, 0.3, -0.2, 2.0, 4.0, -1.0)
        moved = conic_transform(conic, tmap)
        geom = conic_to_ellipse(conic)
        for theta in (0.0, 0.9, 2.5, 5.0):
            x, y = tmap(geom.boundary_point(theta))
            assert abs(moved.evaluate(x, y)) < 1e-9 * moved.max_abs() * (1 + x * x + y * y)

    def test_ellipse_transform_rigid_preserves_axes(self):
        geom = EllipseGeom(center=(1.0, 1.0), a=3.0, b=1.0, phi=0.2)
        moved = ellipse_transform(geom, AffineMap.rotation(0.7, (0.0, 0.0)))
        assert moved.a == pytest.approx(3.0, rel=1e-12)
        assert moved.b == pytest.approx(1.0, rel=1e-12)
        assert moved.phi == pytest.approx((0.2 + 0.7) % math.pi, abs=1e-12)

    def test_area_scales_with_determinant(self):
        geom = EllipseGeom(center=(0.0, 0.0), a=2.0, b=1.0, phi=0.0)
        tmap = AffineMap(2.0, 1.0, 0.0, 3.0, 1.0, 1.0)
        moved = ellipse_transform(geom, tmap)
        assert ellipse_area(moved) == pytest.approx(
            abs(tmap.det()) * ellipse_area(geom), rel=1e-12
        )

    # (a, b, phi) = (1, 0.3, 0.4) centred at (s, -0.7 s). Its conic
    # coefficients carry rounding like eps s^2 (a = 0.99999989 at s = 1e4,
    # NotAnEllipse at s = 1e6), so the image must not be taken from them.
    FAR = (1e2, 1e4, 1e6, 1e12)

    @pytest.mark.parametrize("s", FAR)
    @pytest.mark.parametrize("shift", [(0.0, 0.0), (-3.0, 2.5)])
    def test_ellipse_transform_rotation_far_from_origin(self, s, shift):
        geom = EllipseGeom(center=(s, -0.7 * s), a=1.0, b=0.3, phi=0.4)
        for theta in (0.3, 1.9, 4.0):
            tmap = AffineMap.translation(shift[0] * s, shift[1] * s).compose(
                AffineMap.rotation(theta)
            )
            moved = ellipse_transform(geom, tmap)
            assert moved.a == pytest.approx(1.0, rel=4 * _EPS, abs=0.0)
            assert moved.b == pytest.approx(0.3, rel=4 * _EPS, abs=0.0)
            turn = (moved.phi - 0.4 - theta + math.pi / 2.0) % math.pi - math.pi / 2.0
            assert abs(turn) <= 1e-15, (s, theta)

    @pytest.mark.parametrize("s", FAR)
    def test_ellipse_transform_shear_far_from_origin(self, s):
        geom = EllipseGeom(center=(s, -0.7 * s), a=1.0, b=0.3, phi=0.4)
        tmap = AffineMap(1.0, 0.7, 0.0, 1.0, 0.5 * s, 0.0)
        moved = ellipse_transform(geom, tmap)
        rot = np.array([[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]])
        lin = np.array([[1.0, 0.7], [0.0, 1.0]])
        placed = lin @ rot @ np.diag([1.0, 0.09]) @ rot.T @ lin.T
        minor, major = np.sqrt(np.linalg.eigvalsh(placed))
        assert moved.a == pytest.approx(major, rel=1e-12)
        assert moved.b == pytest.approx(minor, rel=1e-12)

    def test_ellipse_transform_singular_map_raises(self):
        geom = EllipseGeom(center=(1.0, -0.7), a=1.0, b=0.3, phi=0.4)
        for tmap in (AffineMap(1.0, 2.0, 0.5, 1.0), AffineMap(0.0, 0.0, 0.0, 0.0, 1.0, 1.0)):
            with pytest.raises(ValueError):
                ellipse_transform(geom, tmap)


class TestCanonicalAndProportional:
    def test_canonical_leading_magnitude_is_one(self):
        conic = ConicCoeffs(2.0, -8.0, 1.0, 3.0, -5.0, 4.0).canonical()
        assert max(abs(c) for c in conic.as_tuple()) == pytest.approx(1.0)
        assert 1.0 in conic.as_tuple()

    def test_canonical_idempotent(self):
        conic = ConicCoeffs(2.0, -8.0, 1.0, 3.0, -5.0, 4.0).canonical()
        assert conic.canonical() == conic

    def test_canonical_is_idempotent_everywhere(self):
        # pivot * (1/pivot) is not always 1 in floating point; the pivot is
        # set to 1.0 instead, so a second call scales by exactly 1. Random
        # coefficients, and maximal members of random quads as the CLI
        # prints them.
        rng = np.random.default_rng(17)
        conics = [
            ConicCoeffs(*(rng.standard_normal(6) * 10.0 ** rng.uniform(-5.0, 5.0)).tolist())
            for _ in range(10_000)
        ]
        while len(conics) < 20_000:
            pts = (rng.random((4, 2)) - 0.5) * 10.0 ** rng.uniform(-5.0, 5.0)
            try:
                conics.append(max_area_ellipse(validate(pts + rng.uniform(-1e3, 1e3, 2))).conic)
            except QuadEllipseError:
                continue
        for conic in conics:
            once = conic.canonical()
            assert once.canonical() == once, conic
            assert 1.0 in once.as_tuple()

    def test_proportional_ignores_scale_and_sign(self):
        c1 = ConicCoeffs(1.0, 2.0, 0.5, -1.0, 0.0, 3.0)
        assert proportional(c1, c1.scaled(-2.5))
        assert not proportional(c1, ConicCoeffs(1.0, 2.0, 0.5, -1.0, 0.1, 3.0))
