import math
import sys

import pytest
from hypothesis import given, strategies as st

from quadellipse.geom import (
    AffineMap,
    Line,
    cross2,
    cubic_roots,
    distance,
    golden_max,
    golden_min,
    midpoint,
    quadratic_roots,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestLine:
    def test_through_contains_both_points(self):
        line = Line.through((0.0, 0.0), (2.0, 1.0))
        assert line.value_at((0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
        assert line.value_at((2.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_through_normal_points_left_of_direction(self):
        # Left of the +x direction is +y.
        line = Line.through((0.0, 0.0), (1.0, 0.0))
        assert line.value_at((0.5, 1.0)) > 0.0
        assert line.value_at((0.5, -1.0)) < 0.0

    def test_distance_is_absolute(self):
        line = Line.through((0.0, 0.0), (1.0, 0.0))
        assert line.distance_to((3.0, -2.0)) == pytest.approx(2.0)

    def test_unit_has_unit_normal(self):
        line = Line.through((1.0, 1.0), (4.0, 5.0)).unit()
        assert math.hypot(line.a, line.b) == pytest.approx(1.0, rel=1e-15)

    def test_from_point_direction_matches_through(self):
        a = Line.through((1.0, 2.0), (3.0, 7.0))
        b = Line.from_point_direction((1.0, 2.0), (2.0, 5.0))
        assert a.value_at((10.0, -3.0)) == pytest.approx(b.value_at((10.0, -3.0)))

    def test_direction_is_perpendicular_to_normal(self):
        line = Line.through((0.0, 0.0), (3.0, 4.0))
        dx, dy = line.direction()
        assert line.a * dx + line.b * dy == pytest.approx(0.0, abs=1e-15)
        assert math.hypot(dx, dy) == pytest.approx(1.0)

    def test_some_point_lies_on_line(self):
        line = Line.through((2.0, -1.0), (5.0, 3.0))
        assert line.value_at(line.some_point()) == pytest.approx(0.0, abs=1e-12)


class TestAffineMap:
    def test_identity(self):
        assert AffineMap.identity()((3.0, 4.0)) == (3.0, 4.0)

    def test_rotation_quarter_turn(self):
        rot = AffineMap.rotation(math.pi / 2.0, (0.0, 0.0))
        x, y = rot((1.0, 0.0))
        assert (x, y) == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_inverse_roundtrip(self):
        tmap = AffineMap(2.0, 1.0, -0.5, 3.0, 4.0, -2.0)
        inv = tmap.inverse()
        for p in [(0.0, 0.0), (1.0, 2.0), (-3.5, 0.25)]:
            assert inv(tmap(p)) == pytest.approx(p, abs=1e-12)

    def test_compose_applies_inner_first(self):
        shift = AffineMap.translation(1.0, 0.0)
        rot = AffineMap.rotation(math.pi / 2.0, (0.0, 0.0))
        assert rot.compose(shift)((0.0, 0.0)) == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_det_of_rotation_is_one(self):
        assert AffineMap.rotation(0.731, (2.0, 3.0)).det() == pytest.approx(1.0)

    def test_rigid_detection(self):
        assert AffineMap.rotation(1.0, (0.0, 0.0)).is_rigid()
        assert not AffineMap(2.0, 0.0, 0.0, 1.0, 0.0, 0.0).is_rigid()


class TestGoldenSection:
    def test_min_of_shifted_parabola(self):
        x, fx = golden_min(lambda u: (u - 0.3) ** 2 + 1.0, 0.0, 1.0, tol=1e-12)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert fx == pytest.approx(1.0, abs=1e-12)

    def test_max_of_cubic(self):
        x, fx = golden_max(lambda u: u * (1.0 - u) ** 2, 0.0, 1.0, tol=1e-12)
        assert x == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert fx == pytest.approx(4.0 / 27.0, rel=1e-12)

    def test_monotone_lands_on_boundary(self):
        x, _ = golden_min(lambda u: u, 2.0, 5.0, tol=1e-10)
        assert x == pytest.approx(2.0, abs=1e-8)


class TestQuadraticRoots:
    def test_two_roots(self):
        roots = sorted(quadratic_roots(1.0, -3.0, 2.0))
        assert roots == pytest.approx([1.0, 2.0], rel=1e-15)

    def test_linear_fallback(self):
        assert quadratic_roots(0.0, 2.0, -6.0) == (3.0,)

    def test_no_real_roots(self):
        assert quadratic_roots(1.0, 0.0, 1.0) == ()

    def test_degenerate_all_zero_linear(self):
        assert quadratic_roots(0.0, 0.0, 1.0) == ()

    def test_zero_linear_coefficient(self):
        roots = sorted(quadratic_roots(1.0, 0.0, -4.0))
        assert roots == pytest.approx([-2.0, 2.0], rel=1e-15)

    def test_root_at_zero(self):
        roots = sorted(quadratic_roots(1.0, -2.0, 0.0))
        assert roots == pytest.approx([0.0, 2.0])

    def test_cancellation_stability(self):
        # Tiny root next to a huge one: the naive formula loses it.
        roots = sorted(quadratic_roots(1.0, -1e8, 1.0))
        assert roots[0] == pytest.approx(1e-8, rel=1e-12)
        assert roots[1] == pytest.approx(1e8, rel=1e-12)

    @given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
    def test_reconstructs_monic_coefficients(self, r1, r2):
        roots = quadratic_roots(1.0, -(r1 + r2), r1 * r2)
        assert len(roots) == 2 or r1 == pytest.approx(r2, abs=1e-6)
        if len(roots) == 2:
            assert sorted(roots) == pytest.approx(sorted([r1, r2]), abs=1e-6)


class TestCubicRoots:
    def test_three_distinct_roots(self):
        roots = sorted(cubic_roots(2.0, -12.0, 22.0, -12.0))
        assert roots == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)

    def test_one_real_root(self):
        # x^3 + x + 1: the discriminant is negative, so only one root is real.
        roots = cubic_roots(1.0, 0.0, 1.0, 1.0)
        assert len(roots) == 1
        x = roots[0]
        assert x == pytest.approx(-0.6823278038280193, rel=1e-15)
        assert abs(x**3 + x + 1.0) < 1e-15

    def test_double_root(self):
        # (x - 1)^2 (x + 2), exact in binary.
        roots = sorted(cubic_roots(1.0, 0.0, -3.0, 2.0))
        assert roots == pytest.approx([-2.0, 1.0, 1.0], rel=1e-15)

    def test_double_root_survives_rounded_discriminant(self):
        # (x - 0.3)^2 (x - 3): after dividing out x = 3 the quadratic's
        # discriminant rounds below zero.
        roots = sorted(cubic_roots(1.0, -3.6, 1.89, -0.27))
        assert roots == pytest.approx([0.3, 0.3, 3.0], rel=1e-12)

    def test_triple_root(self):
        assert cubic_roots(2.0, -6.0, 6.0, -2.0) == (1.0, 1.0, 1.0)

    def test_tiny_constant_beside_a_huge_root_adds_no_root(self):
        # Dividing out the huge root from the constant end leaves -d / x of
        # about 5e-354, which underflowed to a spurious root 0.
        roots = cubic_roots(
            -1.809861573057764e-209,
            -1.7172505182174955e-62,
            1.7026390003123337e-182,
            -4.925828614080827e-207,
        )
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-9.488297579113733e146, rel=1e-15)

    def test_zero_leading_coefficient_falls_back_to_quadratic(self):
        assert cubic_roots(0.0, 1.0, -3.0, 2.0) == quadratic_roots(1.0, -3.0, 2.0)
        assert cubic_roots(0.0, 0.0, 2.0, -6.0) == (3.0,)

    @pytest.mark.parametrize("a", [1e-6, -1e-6, 1e-17, -1e-17, 1e-100])
    def test_tiny_leading_coefficient(self, a):
        # One root runs off to about -1/a; the other two stay within ~a of
        # 1 and 2, where the trigonometric form loses them entirely.
        roots = sorted(cubic_roots(a, 1.0, -3.0, 2.0), key=abs)
        assert len(roots) == 3
        assert roots[2] == pytest.approx(-1.0 / a, rel=1e-5)
        assert sorted(roots[:2]) == pytest.approx([1.0, 2.0], rel=10.0 * abs(a) + 1e-15)

    @pytest.mark.parametrize("a", [1e-120, 1e-200, 1e-300, -1e-300])
    def test_leading_coefficient_far_below_the_others(self, a):
        # The far root -1/a - 3 is -1/a to working precision; its cube, and
        # the value of the unscaled cubic near it, would overflow.
        roots = cubic_roots(a, 1.0, -3.0, 2.0)
        assert len(roots) == 3
        for want in (1.0, 2.0):
            assert min(abs(x - want) for x in roots) <= 1e-12
        far = min(roots, key=lambda x: abs(x + 1.0 / a))
        assert far == pytest.approx(-1.0 / a, rel=1e-12)

    @pytest.mark.parametrize(
        "coeffs, want",
        [
            # The quotient's discriminant would overflow: 2, 1 and 1e250/2e280.
            ((1e280, -3e280, 2e280, -1e250), [5e-31, 1.0, 2.0]),
            # ... or underflow: (x - 1)(x - 2)(x - 3) times 1e-300.
            ((1e-300, -6e-300, 11e-300, -6e-300), [1.0, 2.0, 3.0]),
        ],
    )
    def test_all_coefficients_huge_or_tiny(self, coeffs, want):
        assert sorted(cubic_roots(*coeffs)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("j, m", [(300, 0), (-300, 0), (0, 1000), (0, -1000), (100, -700)])
    def test_roots_scale_exactly_with_powers_of_two(self, j, m):
        # Roots times 2**j and coefficients times 2**m: the iteration runs on
        # the same rescaled cubic, so the roots come out scaled bit for bit.
        coeffs = (2.0, -12.0, 22.0, -12.0)
        scaled = [math.ldexp(v, m + i * j) for i, v in enumerate(coeffs)]
        assert cubic_roots(*scaled) == tuple(math.ldexp(x, j) for x in cubic_roots(*coeffs))

    @pytest.mark.parametrize(
        "coeffs", [(math.nan, 1.0, 1.0, 1.0), (1.0, math.inf, 0.0, 1.0), (0.0, 1.0, -math.inf, 1.0)]
    )
    def test_non_finite_coefficients_raise(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            cubic_roots(*coeffs)

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
    )
    def test_reconstructs_monic_coefficients(self, r1, r2, r3):
        b, c, d = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
        roots = cubic_roots(1.0, b, c, d)
        for x in roots:
            assert min(abs(x - r) for r in (r1, r2, r3)) < 1e-4
        if min(abs(r1 - r2), abs(r1 - r3), abs(r2 - r3)) > 1e-2:
            assert sorted(roots) == pytest.approx(sorted([r1, r2, r3]), abs=1e-8)
            for x in roots:
                size = abs(x) ** 3 + abs(b) * x * x + abs(c * x) + abs(d)
                # Relative to the terms' size, floored where they underflow.
                assert abs(((x + b) * x + c) * x + d) <= 1e-14 * size + sys.float_info.min


class TestSmallHelpers:
    def test_cross_sign(self):
        assert cross2((1.0, 0.0), (0.0, 1.0)) == 1.0
        assert cross2((0.0, 1.0), (1.0, 0.0)) == -1.0

    def test_midpoint_and_distance(self):
        assert midpoint((0.0, 0.0), (2.0, 4.0)) == (1.0, 2.0)
        assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    @given(finite, finite, finite, finite)
    def test_distance_symmetry(self, ax, ay, bx, by):
        assert distance((ax, ay), (bx, by)) == distance((bx, by), (ax, ay))
