import math
import re
import xml.etree.ElementTree as ET

import pytest

from quadellipse.conic import EllipseGeom, foci
from quadellipse.errors import DomainError, EmptyScene
from quadellipse.family import midpoint_ellipse
from quadellipse.geom import AffineMap, Line
from quadellipse.quad import ParallelogramFrame
from quadellipse.svgfig import Scene, render_svg

SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
NS = "{http://www.w3.org/2000/svg}"


def parse(blob: bytes) -> ET.Element:
    return ET.fromstring(blob.decode("utf-8"))


class TestSceneValidation:
    def test_empty_scene_rejected(self):
        with pytest.raises(EmptyScene):
            render_svg(Scene())

    def test_nonfinite_rejected(self):
        bad = ((0.0, 0.0), (1.0, 0.0), (1.0, math.inf), (0.0, 1.0))
        with pytest.raises(DomainError):
            render_svg(Scene(quads=(bad,)))

    def test_nonfinite_ellipse_rejected(self):
        geom = EllipseGeom(center=(0.0, 0.0), a=1.0, b=0.5, phi=math.nan)
        with pytest.raises(DomainError):
            render_svg(Scene(ellipses=(geom,)))


class TestDocumentShape:
    def test_quad_only_single_polygon(self):
        root = parse(render_svg(Scene(quads=(SQUARE,))))
        assert root.tag == f"{NS}svg"
        polys = root.findall(f"{NS}polygon")
        assert len(polys) == 1
        assert len(root.findall(f"{NS}ellipse")) == 0

    def test_element_counts(self):
        geom = EllipseGeom(center=(0.5, 0.5), a=0.5, b=0.25, phi=0.3)
        scene = Scene(
            quads=(SQUARE,),
            ellipses=(geom,),
            lines=(Line.through((0.0, 0.0), (1.0, 1.0)),),
            points=((0.25, 0.25), (0.75, 0.75)),
        )
        root = parse(render_svg(scene))
        assert len(root.findall(f"{NS}polygon")) == 1
        assert len(root.findall(f"{NS}ellipse")) == 1
        assert len(root.findall(f"{NS}line")) == 1
        assert len(root.findall(f"{NS}circle")) == 2

    def test_deterministic_bytes(self):
        geom = EllipseGeom(center=(0.5, 0.5), a=0.5, b=0.25, phi=0.3)
        scene = Scene(quads=(SQUARE,), ellipses=(geom,), points=((0.5, 0.5),))
        assert render_svg(scene) == render_svg(scene)

    def test_viewbox_has_padding(self):
        root = parse(render_svg(Scene(quads=(SQUARE,))))
        _, _, w, h = (float(v) for v in root.get("viewBox").split())
        assert w == 640.0
        # The unit square plus 5% padding on each side stays square.
        assert h == pytest.approx(640.0, abs=0.01)

    def test_lines_only_scene_renders(self):
        blob = render_svg(Scene(lines=(Line.through((0.0, 0.0), (1.0, 0.0)),)))
        root = parse(blob)
        assert len(root.findall(f"{NS}line")) == 1


class TestEllipseAttributes:
    def test_rectangle_midpoint_member_rotated_ninety(self):
        frame = ParallelogramFrame(l=1.0, k=2.0, d=0.0, placement=AffineMap.identity())
        member = midpoint_ellipse(frame)
        scene = Scene(
            quads=(frame.placed_corners(),),
            ellipses=(member.geom,),
            points=foci(member.geom),
        )
        root = parse(render_svg(scene))
        ellipse = root.find(f"{NS}ellipse")
        match = re.match(r"rotate\((-?\d+\.\d+) ", ellipse.get("transform"))
        assert match, ellipse.get("transform")
        assert abs(float(match.group(1))) == pytest.approx(90.0, abs=1e-6)
        # rx scales from the semi-major axis a=1 against a 1x2 box.
        rx = float(ellipse.get("rx"))
        ry = float(ellipse.get("ry"))
        assert rx == pytest.approx(2.0 * ry, rel=1e-3)

    def test_axis_aligned_ellipse_zero_rotation(self):
        geom = EllipseGeom(center=(0.0, 0.0), a=2.0, b=1.0, phi=0.0)
        root = parse(render_svg(Scene(ellipses=(geom,))))
        transform = root.find(f"{NS}ellipse").get("transform")
        assert transform.startswith("rotate(0.000000 ")

    def test_y_axis_flip(self):
        # Higher math y must come out as smaller screen y.
        low = (0.0, 0.0)
        high = (0.0, 1.0)
        root = parse(render_svg(Scene(points=(low, high))))
        circles = root.findall(f"{NS}circle")
        ys = [float(c.get("cy")) for c in circles]
        assert ys[0] > ys[1]
