import importlib
import math
import types

import pytest

import quadellipse
from quadellipse import bounds, verify
from quadellipse.bestfit import best_fit_line, slope_identities
from quadellipse.conic import ConicCoeffs, EllipseGeom, line_tangency
from quadellipse.errors import DegenerateLine
from quadellipse.family import InscribedMember, locus_line, max_area_ellipse
from quadellipse.geom import Line
from quadellipse.quad import diagonal_frame, normalize, parallelogram_frame, validate
from quadellipse.svgfig import Scene
from quadellipse.verify import (
    check_area_inequality,
    marden_check,
    proof_vars,
    run_verification_suite,
)

GENERIC = validate([(0, 0), (1, 0), (2, 3), (0, 1)])
SHEARED = validate([(0, 0), (2, 0), (3, 1), (1, 1)])


class TestExportTable:
    def test_ninety_three_names(self):
        assert len(quadellipse.__all__) == len(set(quadellipse.__all__)) == 93

    def test_each_name_resolves_to_its_submodule_attribute(self):
        for name, module in quadellipse._EXPORTS.items():
            submodule = importlib.import_module(f"quadellipse.{module}")
            assert getattr(quadellipse, name) is getattr(submodule, name), name

    def test_each_function_and_class_maps_to_the_module_defining_it(self):
        # A name mapped to a module that only re-exports it would load that
        # module, and all it imports, on first use.
        for name, module in quadellipse._EXPORTS.items():
            value = getattr(quadellipse, name)
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == f"quadellipse.{module}", name

    @pytest.mark.parametrize(
        "name",
        [
            "InequalityReport",
            "check_area_inequality",
            "check_foci_on_bestfit",
            "circumscribed_min_ratio",
        ],
    )
    def test_verify_reexports_the_bounds_objects(self, name):
        # A tracer that rebinds a function wherever a module binds that very
        # object reaches the suite's and the scan's calls through verify.
        assert getattr(verify, name) is getattr(bounds, name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from quadellipse import *", namespace)
        for name in quadellipse.__all__:
            assert namespace[name] is getattr(quadellipse, name), name

    def test_dir_lists_every_name(self):
        assert set(quadellipse.__all__) <= set(dir(quadellipse))

    def test_unknown_name_raises_naming_the_module(self):
        with pytest.raises(AttributeError, match="'quadellipse' has no attribute 'no_such_name'"):
            quadellipse.no_such_name


# Each record kind with a builder going through the public API.
RECORDS = {
    "ConvexQuad": lambda: GENERIC,
    "NormalizedQuad": lambda: normalize(GENERIC),
    "ParallelogramFrame": lambda: parallelogram_frame(SHEARED),
    "Line": lambda: GENERIC.sides()[0],
    "AffineMap": lambda: diagonal_frame(GENERIC)[2],
    "InscribedMember": lambda: max_area_ellipse(GENERIC),
    "ConicCoeffs": lambda: max_area_ellipse(GENERIC).conic,
    "EllipseGeom": lambda: max_area_ellipse(GENERIC).geom,
    "TangencyResult": lambda: line_tangency(max_area_ellipse(GENERIC).conic, GENERIC.sides()[0]),
    "CenterLocus": lambda: locus_line(2.0, 3.0),
    "BestFitResult": lambda: best_fit_line(GENERIC.vertices),
    "SlopeIdentityReport": lambda: slope_identities(1.0, 2.0, 3.0),
    "Scene": lambda: Scene(quads=(GENERIC.vertices,)),
    "ProofVars": lambda: proof_vars(2.0, 3.0),
    "InequalityReport": lambda: check_area_inequality(GENERIC),
    "MardenReport": lambda: marden_check(SHEARED),
    "CheckOutcome": lambda: run_verification_suite(samples=8)[0],
}


class TestRecords:
    @pytest.mark.parametrize("kind", RECORDS)
    def test_fields_cannot_be_set(self, kind):
        record = RECORDS[kind]()
        assert type(record).__name__ == kind
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 0.0

    def test_inscribed_member_has_no_kind_field(self):
        # Every member is a pencil member, labelled by lam.
        assert InscribedMember._fields == ("parameter", "conic", "geom", "tangency")

    def test_replace_rechecks_line(self):
        assert Line(1.0, 2.0, 3.0)._replace(c=4.0) == Line(1.0, 2.0, 4.0)
        with pytest.raises(DegenerateLine):
            Line(1.0, 0.0, 0.0)._replace(a=0.0)
        with pytest.raises(DegenerateLine):
            Line(1.0, 0.0, 0.0)._replace(c=math.inf)

    def test_replace_rechecks_conic(self):
        conic = ConicCoeffs(1.0, 1.0, 0.0, 0.0, 0.0, -1.0)
        assert conic._replace(f=-4.0) == ConicCoeffs(1.0, 1.0, 0.0, 0.0, 0.0, -4.0)
        with pytest.raises(ValueError):
            conic._replace(a=0.0, b=0.0)

    def test_replace_rechecks_ellipse(self):
        geom = EllipseGeom(center=(0.0, 0.0), a=1.0, b=0.5, phi=0.0)
        assert geom._replace(phi=4.0).phi == 4.0 - math.pi
        with pytest.raises(ValueError):
            geom._replace(b=2.0)
