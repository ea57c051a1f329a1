import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadellipse.conic import ellipse_area, foci
from quadellipse.errors import (
    CanonicalFormViolated,
    DegenerateVertices,
    DomainError,
    IdentityMismatch,
    NotConvex,
    NotParallelogram,
)
from quadellipse.family import max_area_ellipse, midpoint_ellipse
from quadellipse import verify
from quadellipse.geom import AffineMap, golden_min, quadratic_roots
from quadellipse.bestfit import best_fit_line
from quadellipse.quad import (
    PARALLEL_RTOL,
    ParallelogramFrame,
    diagonal_frame,
    frame_vertices,
    quad_area,
    validate,
)
from quadellipse.verify import (
    _scan_slot,
    b_fn,
    c_fn,
    check_area_inequality,
    check_foci_on_bestfit,
    check_lemma22,
    check_ratio_formula,
    circumscribed_min_ratio,
    conjecture_scan,
    d_fn,
    marden_check,
    proof_vars,
    run_verification_suite,
    sample_canonical_pair,
    sample_convex_quad,
    sample_parallelogram_vertices,
    scan_sample_vertices,
    scan_z_bound,
    z_fn,
)

HALF_PI = math.pi / 2.0
EPS = 2.0**-52


def _line_pair(p, r):
    """Conic coefficients of the degenerate product line p times line r."""
    return (
        p.a * r.a,
        p.b * r.b,
        0.5 * (p.a * r.b + p.b * r.a),
        p.a * r.c + r.a * p.c,
        p.b * r.c + r.b * p.c,
        p.c * r.c,
    )


def ellipse_area_of_coeffs(a: float, b: float, c: float, d: float, e: float, f: float) -> float:
    """Area of the conic with these coefficients when it is a real ellipse,
    +inf otherwise: the objective of golden_oracle_ratio's search, with no
    classification and no geometry."""
    det2 = a * b - c * c
    if det2 <= 0.0:
        return math.inf
    cx = (c * e - b * d) / (2.0 * det2)
    cy = (c * d - a * e) / (2.0 * det2)
    fc = f + 0.5 * (d * cx + e * cy)
    if fc * (a + b) >= 0.0:
        return math.inf
    return math.pi * abs(fc) / math.sqrt(det2)


def golden_oracle_ratio(q):
    """Circumscribed ratio by 3-start golden-section search over the pencil
    of conics through q's vertices, spanned by the products of opposite side
    lines and built in q's own coordinates: the search the closed form
    replaced, kept as an independent oracle.

    The members between the two roots of the quadratic-part determinant
    are the ellipses; the search shrinks that interval by 1e-9 at each end.
    """
    u0, u1, u2, u3 = (side.unit() for side in q.sides())
    base = _line_pair(u0, u2)
    delta = tuple(y - x for x, y in zip(base, _line_pair(u1, u3)))
    qa = delta[0] * delta[1] - delta[2] * delta[2]
    qb = base[0] * delta[1] + base[1] * delta[0] - 2.0 * base[2] * delta[2]
    qc = base[0] * base[1] - base[2] * base[2]
    roots = quadratic_roots(qa, qb, qc)
    lo, hi = min(roots), max(roots)
    shrink = 1e-9 * (hi - lo)
    lo += shrink
    hi -= shrink
    third = (hi - lo) / 3.0
    best = math.inf
    for k in range(3):
        _, area = golden_min(
            lambda m: ellipse_area_of_coeffs(*(b + m * d for b, d in zip(base, delta))),
            lo + k * third,
            lo + (k + 1) * third,
            tol=1e-12,
        )
        best = min(best, area)
    return best / quad_area(q)


def centered(q):
    """q moved to its vertex centroid and divided by its largest coordinate,
    where the oracle's side lines keep their digits."""
    cx = sum(x for x, _ in q.vertices) / 4.0
    cy = sum(y for _, y in q.vertices) / 4.0
    k = max(max(abs(x - cx), abs(y - cy)) for x, y in q.vertices)
    return validate(tuple(((x - cx) / k, (y - cy) / k) for x, y in q.vertices))


class TestProfile:
    def test_half_is_three_root_three(self):
        assert z_fn(0.5) == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-14)

    def test_branch_crossover_is_continuous(self):
        below = z_fn(0.5 - 1e-12)
        above = z_fn(0.5 + 1e-12)
        assert below == pytest.approx(above, rel=1e-11)

    def test_limit_at_zero(self):
        assert z_fn(1e-9) == pytest.approx(4.0, abs=1e-6)

    def test_limit_at_one(self):
        assert z_fn(1.0 - 1e-6) == pytest.approx(27.0 / 4.0, abs=1e-4)

    def test_strictly_below_bound_inside(self):
        for w in np.linspace(0.001, 0.999, 997):
            assert z_fn(float(w)) < 27.0 / 4.0

    def test_domain_enforced(self):
        for bad in (0.0, 1.0, -0.3, 1.3, 2.0):
            with pytest.raises(DomainError):
                z_fn(bad)

    def test_scan_returns_supremum_side(self):
        zmax = scan_z_bound(4000)
        assert 6.7 < zmax < 27.0 / 4.0

    def test_scan_needs_grid(self):
        with pytest.raises(DomainError):
            scan_z_bound(1)


class TestSubstitutionPolynomials:
    def test_exact_integer_case(self):
        assert b_fn(2.0, 3.0) == 28.0
        assert c_fn(4.0, 6.0) == 28.0

    def test_b_equals_c_after_substitution(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            s, t = sample_canonical_pair(rng)
            u, v = s + t - 1.0, s * t
            assert b_fn(s, t) == pytest.approx(c_fn(u, v), rel=1e-12)

    def test_b_positive_on_domain(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s, t = sample_canonical_pair(rng)
            assert b_fn(s, t) > 0.0

    def test_d_known_value(self):
        # u=4, v=6: ((6-8)(12-4)(10) + 2*28^{3/2}) / (25*16/4) -> 1.3632...
        want = (-160.0 + 2.0 * 28.0 * math.sqrt(28.0)) / 100.0
        assert d_fn(4.0, 6.0) == pytest.approx(want, rel=1e-15)

    def test_d_singular_on_diagonal(self):
        with pytest.raises(DomainError):
            d_fn(2.0, 2.0)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            b_fn(0.2, 0.3)
        with pytest.raises(DomainError):
            c_fn(1.0, 5.0)


class TestProofVars:
    def test_case_one_when_both_above_one(self):
        pv = proof_vars(2.0, 3.0)
        assert pv.case == 1
        assert pv.u == 4.0 and pv.v == 6.0
        assert pv.w == pytest.approx(2.0 / 3.0)

    def test_case_one_when_both_below_one(self):
        pv = proof_vars(0.8, 0.9)
        assert pv.case == 1
        assert 0.0 < pv.w < 1.0

    def test_case_two_for_mixed_signs(self):
        pv = proof_vars(0.5, 2.0)
        assert pv.case == 2
        assert pv.w == pytest.approx(1.0 / 1.5)

    def test_rejects_boundary(self):
        with pytest.raises(CanonicalFormViolated):
            proof_vars(1.0, 2.0)
        with pytest.raises(CanonicalFormViolated):
            proof_vars(0.4, 0.6)


class TestRatioFormula:
    def test_known_value(self):
        want = (math.pi * math.pi / 27.0) * d_fn(4.0, 6.0)
        assert check_ratio_formula(2.0, 3.0) == pytest.approx(want, rel=1e-12)

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s, t = sample_canonical_pair(rng)
            assert check_ratio_formula(s, t) == check_ratio_formula(t, s)

    def test_always_below_parallelogram_bound(self):
        rng = np.random.default_rng(9)
        bound = (math.pi / 4.0) ** 2
        for _ in range(300):
            s, t = sample_canonical_pair(rng)
            assert 0.0 < check_ratio_formula(s, t) < bound

    def test_matches_geometric_construction(self):
        from quadellipse.family import max_area_ellipse

        rng = np.random.default_rng(14)
        for _ in range(40):
            s, t = sample_canonical_pair(rng)
            q = validate(((0.0, 0.0), (1.0, 0.0), (s, t), (0.0, 1.0)))
            geo = ellipse_area(max_area_ellipse(q).geom) / quad_area(q)
            assert geo * geo == pytest.approx(check_ratio_formula(s, t), rel=1e-8)

    def test_rejects_invalid_pairs(self):
        with pytest.raises(CanonicalFormViolated):
            check_ratio_formula(1.0, 3.0)
        with pytest.raises(CanonicalFormViolated):
            check_ratio_formula(-2.0, 3.0)


class TestInequalityAndInterval:
    def test_parallelogram_reports_equality(self):
        q = validate(((0.0, 0.0), (2.0, 0.5), (2.5, 2.0), (0.5, 1.5)))
        report = check_area_inequality(q)
        assert report.is_parallelogram
        assert report.bound_gap == pytest.approx(0.0, abs=1e-13)

    def test_generic_quad_strictly_below(self):
        q = validate(((0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.0, 1.0)))
        report = check_area_inequality(q)
        assert not report.is_parallelogram
        assert report.bound_gap > 1e-4

    def test_trapezoid_takes_the_closed_form(self):
        # Parallel sides 4 and 2: the ratio is (pi/2) sqrt(pr) / (p + r).
        q = validate(((0.0, 0.0), (4.0, 0.0), (3.0, 1.0), (1.0, 1.0)))
        report = check_area_inequality(q)
        assert report.is_trapezoid and not report.is_parallelogram
        assert report.ratio == pytest.approx(HALF_PI * math.sqrt(8.0) / 6.0, rel=1e-12, abs=0.0)

    def test_interval_membership_across_regimes(self):
        counts = check_lemma22(200, seed=12)
        assert set(counts) == {"s>1,t>1", "s<1<t", "t<1<s", "s<1,t<1"}
        for label, (passed, failed) in counts.items():
            assert failed == 0, label
            assert passed == 50

    def test_interval_claim_draws_its_own_pairs(self, monkeypatch):
        # The suite's first claim draws its pairs from default_rng(seed),
        # walking the regimes in the same order; drawing them again would
        # re-test exactly those pairs.
        seen = []
        locus_line = verify.locus_line

        def recording(s, t):
            seen.append((s, t))
            return locus_line(s, t)

        monkeypatch.setattr(verify, "locus_line", recording)
        check_lemma22(8, seed=42)
        rng = np.random.default_rng(42)
        first = [sample_canonical_pair(rng, verify._PAIR_REGIMES[i % 4]) for i in range(8)]
        assert len(seen) == 8
        assert not set(seen) & set(first)


class TestFociAndMarden:
    def test_rectangle_foci_identity(self):
        # Vertex second moment gives the foci directly: g +/- sqrt(Z)/2.
        frame = ParallelogramFrame(l=1.0, k=2.0, d=0.0, placement=AffineMap.identity())
        member = midpoint_ellipse(frame)
        f1, f2 = foci(member.geom)
        got = {tuple(round(c, 12) for c in f) for f in (f1, f2)}
        want = {
            (0.5, round(1.0 + math.sqrt(3.0) / 2.0, 12)),
            (0.5, round(1.0 - math.sqrt(3.0) / 2.0, 12)),
        }
        assert got == want

    def test_foci_on_line_random_parallelograms(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert check_foci_on_bestfit(validate(sample_parallelogram_vertices(rng))) < 1e-9

    def test_foci_check_judges_the_input_itself(self):
        # Flagged a parallelogram within PARALLEL_RTOL, not exactly one: the
        # check measures these vertices and their own maximal member.
        q = validate(((0.0, 0.0), (2.0, 0.0), (3.0 + 3e-11, 1.0), (1.0, 1.0)))
        assert q.is_parallelogram and q.vertices[2] != (3.0, 1.0)
        line = best_fit_line(q.vertices).line()
        want = max(line.distance_to(f) for f in foci(max_area_ellipse(q).geom))
        assert check_foci_on_bestfit(q) == want

    def test_foci_check_refuses_a_non_parallelogram(self):
        trapezoid = validate(((0.0, 0.0), (4.0, 0.0), (3.0, 1.0), (1.0, 1.0)))
        for verts in (((0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.0, 1.0)), trapezoid.vertices):
            with pytest.raises(NotParallelogram):
                check_foci_on_bestfit(validate(verts))
        near = validate(((0.0, 0.0), (2.0, 0.0), (3.0, 1.0 + 100.0 * PARALLEL_RTOL), (1.0, 1.0)))
        with pytest.raises(NotParallelogram):
            check_foci_on_bestfit(near)

    def test_square_takes_degenerate_branch(self):
        square = validate(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)))
        assert check_foci_on_bestfit(square) == pytest.approx(0.0, abs=1e-12)

    def test_marden_rectangle_roots(self):
        report = marden_check(validate(((0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (0.0, 2.0))))
        roots = sorted(report.second_derivative_roots, key=lambda z: z.imag)
        assert roots[0] == pytest.approx(0.5 + 0.5j, abs=1e-12)
        assert roots[1] == pytest.approx(0.5 + 1.5j, abs=1e-12)
        assert report.min_distance > 0.1

    def test_marden_roots_average_to_centroid(self):
        # Q'' roots always average to e1/4, the vertex centroid.
        rng = np.random.default_rng(21)
        report = marden_check(validate(sample_parallelogram_vertices(rng)))
        mean_root = sum(report.second_derivative_roots) / 2.0
        mean_vertex = sum(report.vertices) / 4.0
        assert mean_root == pytest.approx(mean_vertex, abs=1e-12)


class TestCircumscribed:
    def test_square_attains_half_pi(self):
        q = validate(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        assert circumscribed_min_ratio(q) == pytest.approx(HALF_PI, abs=1e-12)

    def test_rectangle_attains_half_pi(self):
        q = validate(((0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (0.0, 1.0)))
        assert circumscribed_min_ratio(q) == pytest.approx(HALF_PI, abs=1e-9)

    def test_sheared_parallelogram_attains_half_pi(self):
        q = validate(((0.0, 0.0), (2.0, 0.5), (2.7, 2.1), (0.7, 1.6)))
        assert circumscribed_min_ratio(q) == pytest.approx(HALF_PI, abs=1e-9)

    def test_generic_quads_stay_above(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            q = sample_convex_quad(rng)
            assert circumscribed_min_ratio(q) >= HALF_PI - 1e-9

    def test_affine_invariance(self):
        verts = ((0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.0, 1.0))
        base = circumscribed_min_ratio(validate(verts))
        tmap = AffineMap(1.5, 0.4, -0.2, 2.0, 1.0, -3.0)
        moved = circumscribed_min_ratio(validate(tuple(tmap(v) for v in verts)))
        assert moved == pytest.approx(base, rel=1e-9)

    def test_matches_golden_oracle_on_scan_slots(self):
        # Slots 1..2000 of seed 42 cover the four strata 500 times each.
        worst = 0.0
        for index in range(1, 2001):
            q = validate(scan_sample_vertices(42, index))
            got = circumscribed_min_ratio(q)
            want = golden_oracle_ratio(centered(q))
            worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-10

    # The stationarity cubic has a root on the edge of the ellipse range
    # whenever a pair of sides is parallel: on a trapezoid that member is the
    # pair of parallel sides, on a parallelogram both line pairs, with roots
    # at exactly c = +-sqrt(pr). Rounding can put such a root just inside
    # the range, with a center value of the wrong sign; it must not be scored.
    @pytest.mark.parametrize(
        "verts",
        [
            ((0.0, 0.0), (8.0, 0.0), (0.0, 1.0), (-5.0, 1.0)),
            ((0.0, 0.0), (4.0, 0.0), (3.0, 1.0), (1.0, 1.0)),
            ((0.0, 0.0), (8.0, 0.5), (6.0, 2.5), (2.0, 2.25)),
        ],
        ids=["sheared", "isosceles", "oblique"],
    )
    def test_trapezoid_edge_root_is_not_scored(self, verts):
        q = validate(verts)
        assert q.is_trapezoid and not q.is_parallelogram
        assert circumscribed_min_ratio(q) == pytest.approx(golden_oracle_ratio(centered(q)), rel=1e-10)

    def test_parallelograms_keep_their_edge_roots_out(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            q = validate(sample_parallelogram_vertices(rng))
            got = circumscribed_min_ratio(q)
            assert got == pytest.approx(HALF_PI, rel=1e-12)
            assert got == pytest.approx(golden_oracle_ratio(centered(q)), rel=1e-10)

    def test_noisy_parallelograms_match_oracle(self):
        for index in range(3, 800, 4):
            q = validate(scan_sample_vertices(7, index))
            want = golden_oracle_ratio(centered(q))
            assert circumscribed_min_ratio(q) == pytest.approx(want, rel=1e-10), index


# A quad far from square, a generic quad and the thin offset
# parallelogram of the benchmark's cold corpus (seed 721, document 4).
_FRAME_QUADS = (
    ((0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.0, 1.0)),
    ((0.1, 0.2), (3.0, 0.0), (2.2, 1.3), (0.4, 1.1)),
    (
        (0.3618141525858097, 1.2513852404286878),
        (-0.012831905050241843, 1.932378755378577),
        (0.04413188331379336, 1.8040155082157248),
        (0.4187779409498449, 1.1230219932658356),
    ),
)


class TestCircumscribedFrame:
    """The ratio depends only on the quad's shape: units and placement
    must not move it beyond the rounding of the input itself. Without
    recentring, the first quad was off by 6e-4 at an offset of 1e6 and
    raised OptimizationFailed at scale 1e8."""

    @pytest.mark.parametrize("verts", _FRAME_QUADS)
    def test_scale_invariance(self, verts):
        ref = circumscribed_min_ratio(validate(verts))
        for k in range(-8, 9):
            scaled = tuple((x * 10.0**k, y * 10.0**k) for x, y in verts)
            assert circumscribed_min_ratio(validate(scaled)) == pytest.approx(ref, rel=1e-12), k

    @pytest.mark.parametrize("verts", _FRAME_QUADS)
    def test_offset_invariance(self, verts):
        diam = validate(verts).diameter()
        for diams in (1.0, 1e2, 1e4, 1e6):
            for angle in (0.3, 2.0, 4.0):
                ox, oy = diams * diam * math.cos(angle), diams * diam * math.sin(angle)
                moved = tuple((x + ox, y + oy) for x, y in verts)
                # The reference sees the rounded input, translated back exactly.
                back = tuple(
                    (float(Fraction(x) - Fraction(ox)), float(Fraction(y) - Fraction(oy)))
                    for x, y in moved
                )
                ref = circumscribed_min_ratio(validate(back))
                got = circumscribed_min_ratio(validate(moved))
                assert abs(got - ref) <= (1e-12 + 64.0 * diams * EPS) * ref, (diams, angle)

    def test_thin_offset_parallelogram_attains_half_pi(self):
        q = validate(_FRAME_QUADS[2])
        assert q.is_parallelogram
        assert circumscribed_min_ratio(q) == pytest.approx(HALF_PI, rel=1e-12)


def reference_ratios(q):
    """Inscribed and circumscribed ratios to 50 digits, from where the
    diagonals of q's rounded vertices cross, in exact arithmetic.

    With A = alpha (1 - alpha) and B = (1 - alpha - beta)(beta - alpha), the
    inscribed ratio is pi sqrt(lam (1 - lam)(A + B lam)) at the root lam in
    (0, 1) of -3B lam^2 + 2(B - A) lam + A. The circumscribed ratio is the
    least 2 pi pr (n - m c - c^2) / (pr - c^2)^{3/2} over the real roots c of
    c^3 + 2m c^2 + (2pr - 3n) c + m pr inside the ellipse range, with
    p = A, r = beta (1 - beta), m = (2 alpha - 1)(2 beta - 1)/2 and
    n = (p + r)/4 - pr.
    """
    mpmath = pytest.importorskip("mpmath")
    v = [(Fraction(x), Fraction(y)) for x, y in q.vertices]
    d1 = (v[2][0] - v[0][0], v[2][1] - v[0][1])
    d2 = (v[3][0] - v[1][0], v[3][1] - v[1][1])
    w = (v[1][0] - v[0][0], v[1][1] - v[0][1])
    det = d1[0] * d2[1] - d1[1] * d2[0]
    alpha = (w[0] * d2[1] - w[1] * d2[0]) / det
    beta = (w[0] * d1[1] - w[1] * d1[0]) / det
    with mpmath.workdps(50):
        al = mpmath.mpf(alpha.numerator) / alpha.denominator
        be = mpmath.mpf(beta.numerator) / beta.denominator
        a, b = al * (1 - al), (1 - al - be) * (be - al)
        qb = 2 * (b - a)
        if b == 0:
            lam = -a / qb
        else:
            root = -(qb + mpmath.sign(qb) * mpmath.sqrt(qb * qb + 12 * a * b)) / 2
            lam = next(x for x in (root / (-3 * b), a / root) if 0 < x < 1)
        inscribed = mpmath.pi * mpmath.sqrt(lam * (1 - lam) * (a + b * lam))
        p, r = a, be * (1 - be)
        pr = p * r
        m = (2 * al - 1) * (2 * be - 1) / 2
        n = (p + r) / 4 - pr
        circumscribed = mpmath.inf
        for c in mpmath.polyroots([1, 2 * m, 2 * pr - 3 * n, m * pr], maxsteps=200, extraprec=100):
            if abs(mpmath.im(c)) > mpmath.mpf(10) ** -40:
                continue
            c = mpmath.re(c)
            if pr - c * c > 0 and n - m * c - c * c > 0:
                ratio = 2 * mpmath.pi * pr * (n - m * c - c * c) / (pr - c * c) ** 1.5
                circumscribed = min(circumscribed, ratio)
        return float(inscribed), float(circumscribed)


class TestAffineGate:
    """Both ratios are affine invariants: whatever the linear map, aspect
    and offset, they must keep the value the quad's shape gives, up to the
    rounding of the input itself, and a quad that validate accepts never
    gets a typed refusal.

    The bound is the conditioning of (alpha, beta) in doubles: their cross
    products of vertex differences carry eps diameter^2 / area relative to
    the area, and alpha or beta within t of 0 or 1 (a near-triangle) takes
    that over its own size t; an offset adds eps per diameter.
    """

    @staticmethod
    def check(verts, diams):
        try:
            q = validate(verts)
        except (NotConvex, DegenerateVertices):
            return
        inscribed = ellipse_area(max_area_ellipse(q).geom) / quad_area(q)
        circumscribed = circumscribed_min_ratio(q)
        want_in, want_circ = reference_ratios(q)
        alpha, beta, _ = diagonal_frame(q)
        t = min(alpha, 1.0 - alpha, beta, 1.0 - beta)
        shape = q.diameter() ** 2 / (2.0 * t * quad_area(q))
        tol = 1e-13 + 64.0 * EPS * (shape + diams)
        assert abs(inscribed - want_in) <= tol * want_in
        assert abs(circumscribed - want_circ) <= tol * want_circ

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.floats(1e-3, 1.0 - 1e-3),
        st.floats(1e-3, 1.0 - 1e-3),
        st.floats(-8.0, 8.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.0, 2.0 * math.pi),
        st.one_of(st.just(0.0), st.floats(0.0, 6.0).map(lambda e: 10.0**e)),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_ratios_depend_on_shape_alone(
        self, alpha, beta, log_big, squash, turn_in, turn_out, diams, direction
    ):
        # Singular values 10^log_big and 10^log_small, both in 10^[-8, 8],
        # with an aspect down to 1e-8.
        log_small = log_big - squash * min(8.0, log_big + 8.0)
        big, small = 10.0**log_big, 10.0**log_small
        ci, si, co, so = math.cos(turn_in), math.sin(turn_in), math.cos(turn_out), math.sin(turn_out)
        placed = []
        for x, y in frame_vertices(alpha, beta):
            u, w = big * (ci * x - si * y), small * (si * x + ci * y)
            placed.append((co * u - so * w, so * u + co * w))
        off = diams * max(math.dist(p, q) for p in placed for q in placed)
        ox, oy = off * math.cos(direction), off * math.sin(direction)
        self.check(tuple((x + ox, y + oy) for x, y in placed), diams)

    @pytest.mark.parametrize("squash", [1e-4, 1e-5, 1e-8])
    @pytest.mark.parametrize("diams", [0.0, 1e6])
    def test_thin_rotated_quad(self, squash, diams):
        # Built in a similarity frame, squash 1e-4 raised CenterOffLocus and
        # put the circumscribed ratio 0.33% off; at 1e-5 it was 316% off.
        tmap = AffineMap.rotation(0.5).compose(AffineMap(1.0, 0.0, 0.0, squash))
        placed = [tmap(p) for p in ((0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.0, 1.0))]
        off = diams * max(math.dist(p, q) for p in placed for q in placed)
        self.check(tuple((x + 0.6 * off, y - 0.8 * off) for x, y in placed), diams)


class TestScan:
    def test_slot_zero_is_unit_square(self):
        assert scan_sample_vertices(42, 0) == (
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (0.0, 1.0),
        )

    def test_slots_are_deterministic(self):
        for i in (1, 2, 3, 7, 20):
            assert scan_sample_vertices(9, i) == scan_sample_vertices(9, i)
        assert scan_sample_vertices(9, 5) != scan_sample_vertices(10, 5)

    def test_coordinates_are_python_floats_in_every_stratum(self):
        for index in range(9):
            samples = (
                scan_sample_vertices(42, index),
                sample_parallelogram_vertices(np.random.default_rng((42, index))),
            )
            for verts in samples:
                assert all(type(x) is float for vertex in verts for x in vertex), (index, verts)

    def test_parallelogram_stratum(self):
        for i in (2, 6, 10):
            q = validate(scan_sample_vertices(1, i))
            assert q.is_parallelogram

    def test_report_contents(self):
        report = conjecture_scan(60, seed=42)
        assert report.sample_count == 60
        assert report.seed == 42
        assert sum(report.histogram) == 60
        assert report.min_ratio >= HALF_PI - 1e-9
        assert report.candidates == ()
        assert len(report.argmin_vertices) == 4

    def test_scan_is_reproducible(self):
        a = conjecture_scan(40, seed=5)
        b = conjecture_scan(40, seed=5)
        assert a == b

    def test_candidate_file_untouched_without_candidates(self, tmp_path):
        path = tmp_path / "candidates.jsonl"
        conjecture_scan(20, seed=5, candidate_path=str(path))
        assert not path.exists()

    def test_rejects_empty_scan(self):
        with pytest.raises(DomainError):
            conjecture_scan(0, seed=1)


# Seed-42 scan data recorded with the golden-section search: slot vertices
# and the 200-slot report.
_PINNED_SLOTS_42 = {
    1: ((0.40442633394152905, 0.6327551812452089), (0.7935026873922878, 0.24595865734140498),
        (0.8161942055222156, 0.5774497720210826), (0.7689730663445705, 0.8280223501522802)),
    2: ((-0.26864108817982957, 0.8212668230777924), (-0.6896231727791011, 1.7252602503080472),
        (-1.5035344085064917, 1.3674120847670963), (-1.0825523239072201, 0.4634186575368415)),
    3: ((0.6897012033163581, -0.055522797411930655), (0.12777198854901844, 0.058662506120034694),
        (0.8477736775212784, 0.2536447285891777), (1.4097328497356862, 0.1414943370366148)),
    4: ((0.028096608809864088, 0.5395787386969095), (0.13714728488907868, 0.30207411314161736),
        (0.9868868225706193, 0.002884334139457101), (0.7481469997204558, 0.2619289236408897)),
    5: ((0.05700415924816693, 0.1710941328434602), (0.7330272992774572, 0.20301952299532244),
        (0.38886569611324295, 0.719219955851034), (0.17468642449495608, 0.9786105134051767)),
    6: ((-0.6102419646958286, -0.23720758308644707), (-0.8323203724946251, -0.7379624597560825),
        (-0.3571172603999806, -0.31417123856216866), (-0.1350388526011841, 0.1865836381074668)),
    7: ((0.9713560925424483, -0.07231512367267046), (1.7368136081869205, -0.930165770821411),
        (1.2961030057378458, -1.5844757253250639), (0.5303280519262654, -0.7259283612319869)),
    8: ((0.1328394414220292, 0.9727075687845547), (0.6304109293681539, 0.8143965097325286),
        (0.676768298002493, 0.8950272176871705), (0.7101291976825125, 0.9917709419832221)),
}
_PINNED_SCAN_200_42 = {
    "argmin_vertices": (
        (0.17812244186151416, 1.2279664133792596), (0.7680982227511153, 0.8029225472340298),
        (1.057255021629473, 0.8171555218102788), (0.4672792407398718, 1.2421993879555087),
    ),
    "histogram": (114, 16, 8, 6, 4, 8, 3, 7, 4, 4, 2, 5, 0, 1, 1, 17),
    "min_ratio": 1.5707963267947689,
}

# Full 2,000-slot reports, recorded before validate, the circumscribed
# residual check and the samplers' draws were restructured; the scan must
# reproduce them bit for bit.
_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
_PINNED_SCANS_2000 = {
    42: {
        "min_ratio": 1.5707963267948966,
        "argmin_vertices": _SQUARE,
        "histogram": (1145, 136, 105, 99, 87, 56, 53, 45, 38, 25, 20, 20, 18, 12, 7, 134),
        "candidates": (),
    },
    7: {
        "min_ratio": 1.5707963267948966,
        "argmin_vertices": _SQUARE,
        "histogram": (1149, 132, 111, 97, 88, 62, 67, 33, 37, 20, 16, 23, 13, 7, 8, 137),
        "candidates": (),
    },
}


class TestScanPinned:
    @pytest.mark.parametrize("seed", sorted(_PINNED_SCANS_2000))
    def test_2000_slot_reports_are_unchanged(self, seed):
        report = conjecture_scan(2000, seed)
        want = _PINNED_SCANS_2000[seed]
        assert report.min_ratio == want["min_ratio"]
        assert report.argmin_vertices == want["argmin_vertices"]
        assert report.histogram == want["histogram"]
        assert report.candidates == want["candidates"]

    def test_slot_vertices_are_unchanged(self):
        for index, want in _PINNED_SLOTS_42.items():
            assert scan_sample_vertices(42, index) == want, index

    def test_scan_data_is_unchanged_under_the_old_search(self, monkeypatch):
        # With the search the report was recorded with, the scan reproduces
        # it bit for bit: drawing and validating the slots moves no data.
        monkeypatch.setattr(verify, "circumscribed_min_ratio", golden_oracle_ratio)
        report = conjecture_scan(200, seed=42)
        assert report.argmin_vertices == _PINNED_SCAN_200_42["argmin_vertices"]
        assert report.histogram == _PINNED_SCAN_200_42["histogram"]
        assert report.min_ratio == _PINNED_SCAN_200_42["min_ratio"]

    def test_scan_report_matches_record(self):
        report = conjecture_scan(200, seed=42)
        assert report.histogram == _PINNED_SCAN_200_42["histogram"]
        assert report.min_ratio == pytest.approx(_PINNED_SCAN_200_42["min_ratio"], rel=1e-12)
        # Every parallelogram slot attains pi/2, so which of them reads
        # lowest is decided by rounding: the recorded argmin must tie.
        pinned = circumscribed_min_ratio(validate(_PINNED_SCAN_200_42["argmin_vertices"]))
        assert pinned == pytest.approx(report.min_ratio, rel=1e-12)
        assert circumscribed_min_ratio(validate(report.argmin_vertices)) == report.min_ratio

    def test_each_slot_is_validated_once(self, monkeypatch):
        for index in range(200):
            verts, q = _scan_slot(42, index)
            assert q is None or q == validate(verts)
        calls = []
        real = verify.validate

        def counting(points):
            calls.append(1)
            return real(points)

        monkeypatch.setattr(verify, "validate", counting)
        unvalidated = sum(_scan_slot(42, index)[1] is None for index in range(200))
        sampling = len(calls)
        conjecture_scan(200, seed=42)
        assert len(calls) - sampling == sampling + unvalidated


class TestSamplers:
    def test_canonical_pair_regimes(self):
        rng = np.random.default_rng(40)
        for regime, check in [
            ("s>1,t>1", lambda s, t: s > 1.0 and t > 1.0),
            ("s<1<t", lambda s, t: s < 1.0 < t),
            ("t<1<s", lambda s, t: t < 1.0 < s),
            ("s<1,t<1", lambda s, t: s < 1.0 and t < 1.0 and s + t > 1.0),
        ]:
            for _ in range(50):
                s, t = sample_canonical_pair(rng, regime)
                assert check(s, t), (regime, s, t)
                assert min(abs(s - 1.0), abs(t - 1.0)) >= 0.05 - 1e-12

    def test_unknown_regime_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DomainError):
            sample_canonical_pair(rng, "nonsense")

    def test_convex_sampler_respects_canonical_margin(self):
        from quadellipse.quad import normalize

        rng = np.random.default_rng(44)
        for _ in range(30):
            q = sample_convex_quad(rng, require_canonical=True)
            assert not q.is_trapezoid
            nq = normalize(q)
            assert min(abs(nq.s - 1.0), abs(nq.t - 1.0)) >= 0.05

    def test_parallelogram_sampler_is_exact(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            v0, v1, v2, v3 = sample_parallelogram_vertices(rng)
            assert v2[0] - v1[0] == v3[0] - v0[0]
            assert v2[1] - v1[1] == v3[1] - v0[1]


class TestSuite:
    def test_small_suite_passes(self):
        outcomes = run_verification_suite(samples=120, seed=3)
        names = [o.name for o in outcomes]
        assert len(names) == len(set(names)) == 10
        for outcome in outcomes:
            assert outcome.passed, f"{outcome.name}: {outcome.detail}"
