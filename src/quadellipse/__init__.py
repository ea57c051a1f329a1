"""Inscribed and circumscribed ellipses of convex quadrilaterals.

Exact conic arithmetic, the tangent inscribed family with its closed-form
maximal member, orthogonal best-fit lines through vertex sets, and
executable checks of the area-ratio bounds.

Importing the package loads none of its submodules. Each public name below
loads its submodule on first use (PEP 562) and is then cached here.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        (
            "bestfit",
            "BestFitResult SlopeIdentityReport best_fit_line centroid "
            "second_moment slope_identities sum_sq_dist"
        ),
        (
            "bounds",
            "InequalityReport check_area_inequality check_foci_on_bestfit "
            "circumscribed_min_ratio cubic_roots"
        ),
        (
            "conic",
            "ConicCoeffs ConicKind EllipseGeom TangencyKind TangencyResult "
            "classify_conic conic_to_ellipse conic_transform ellipse_area "
            "ellipse_transform foci geometry_to_conic line_tangency "
            "proportional rotation_angle"
        ),
        (
            "errors",
            "CanonicalFormViolated CenterOffLocus DegenerateLine "
            "DegenerateVertices DomainError EmptyInput EmptyScene "
            "IdentityMismatch IsParallelogram IsTrapezoid NotAnEllipse "
            "NotConvex NotParallelogram OptimizationFailed ParameterOutOfRange "
            "QuadEllipseError SingularCenterSystem TrapezoidUnsupported "
            "ZeroImaginaryPart"
        ),
        (
            "family",
            "CenterLocus InscribedMember area_sq ellipse_at_center family_areas "
            "locus_line max_area_by_search max_area_ellipse max_area_param "
            "midpoint_ellipse"
        ),
        (
            "geom",
            "AffineMap Line Point golden_max golden_min quadratic_roots"
        ),
        (
            "quad",
            "ConvexQuad NormalizedQuad ParallelogramFrame diagonal_frame "
            "diagonal_midpoints frame_vertices normalize parallelogram_frame "
            "quad_area require_canonical_pair validate"
        ),
        ("svgfig", "Scene render_svg"),
        (
            "verify",
            "CheckOutcome ConjectureReport MardenReport ProofVars b_fn c_fn "
            "check_lemma22 check_ratio_formula conjecture_scan d_fn "
            "marden_check proof_vars run_verification_suite "
            "sample_canonical_pair sample_convex_quad "
            "sample_parallelogram_vertices scan_sample_vertices scan_z_bound "
            "z_fn"
        ),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
