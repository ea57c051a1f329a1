import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadellipse.cli import main, run

RECT = {"vertices": [[0, 0], [1, 0], [1, 2], [0, 2]], "id": "rect-1x2"}
SQUARE = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
GENERIC = {"vertices": [[0, 0], [1, 0], [2, 3], [0, 1]]}
# A thin sheared parallelogram: area / diameter^2 = 5e-5.
THIN = {"vertices": [[0, 0], [1, 0], [10001, 1e4], [1e4, 1e4]]}
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def doc(tmp_path):
    def write(payload, name="quad.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_generic_quad(self, doc, capsys):
        code, payload = run_json(capsys, ["analyze", doc(GENERIC)])
        assert code == 0
        assert payload["is_parallelogram"] is False
        assert payload["is_trapezoid"] is False
        assert payload["area"] == pytest.approx(2.5)
        assert payload["canonical"]["s"] == pytest.approx(2.0)
        assert payload["canonical"]["t"] == pytest.approx(0.5)
        assert payload["diagonal_midpoints"][0] == pytest.approx([0.5, 0.5])

    def test_output_reingests_as_document(self, doc, capsys, tmp_path):
        code, payload = run_json(capsys, ["analyze", doc(GENERIC)])
        assert code == 0
        second = tmp_path / "roundtrip.json"
        second.write_text(json.dumps(payload), encoding="utf-8")
        code2, payload2 = run_json(capsys, ["analyze", str(second)])
        assert code2 == 0
        for key in ("is_parallelogram", "is_trapezoid", "is_tangential", "vertices"):
            assert payload2[key] == payload[key]

    def test_id_is_echoed(self, doc, capsys):
        code, payload = run_json(capsys, ["analyze", doc(RECT)])
        assert code == 0
        assert payload["id"] == "rect-1x2"
        assert payload["canonical"] is None  # rectangles are trapezoids

    def test_nonconvex_exits_two_with_diagnostic(self, doc, capsys):
        bad = {"vertices": [[0, 0], [1, 0], [0.1, 0.1], [0, 1]]}
        code = run(["analyze", doc(bad)])
        assert code == 2
        assert "NotConvex" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["analyze", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_wrong_vertex_count_exits_two(self, doc, capsys):
        code = run(["analyze", doc({"vertices": [[0, 0], [1, 0], [1, 1]]})])
        assert code == 2
        assert "four" in capsys.readouterr().err

    def test_non_numeric_vertex_exits_two(self, doc, capsys):
        code = run(["analyze", doc({"vertices": [[0, 0], [1, "x"], [1, 1], [0, 1]]})])
        assert code == 2
        assert "number" in capsys.readouterr().err

    def test_coordinate_too_large_for_a_float_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        huge = "1" + "0" * 400
        path.write_text(f'{{"vertices": [[0, 0], [1, 0], [{huge}, 1], [0, 1]]}}', encoding="utf-8")
        assert run(["analyze", str(path)]) == 2
        assert "DomainError" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e154, 1e-154, 1e300, 1e-300])
    def test_scale_outside_the_float_range_exits_two(self, doc, capsys, scale):
        huge = {"vertices": [[x * scale, y * scale] for x, y in GENERIC["vertices"]]}
        for command in ("analyze", "max-ellipse", "verify"):
            assert run([command, doc(huge)]) == 2
            assert "DomainError" in capsys.readouterr().err

    def test_document_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        text = '{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "id": "caf\u00e9"}'
        path.write_bytes(text.encode("latin-1"))
        assert run(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON document" in err and "utf-8" in err

    def test_missing_file_exits_two(self, capsys):
        assert run(["analyze", "/nonexistent/quad.json"]) == 2
        assert capsys.readouterr().err


# max-ellipse output for the documents above, every key but "tangency":
# floats print as repr, so equal values and key order mean equal bytes.
TRAPEZOID = {"vertices": [[0, 0], [4, 0], [3, 1], [1, 1]]}
PINNED_MAX_ELLIPSE = [
    (RECT, {"id": "rect-1x2", "method": "closed-form", "parameter": 0.5, "parameter_kind": "pencil", "conic": [1.0, 0.25, 0.0, -1.0, -0.5, 0.25], "equation": "4x^2 + y^2 - 4x - 2y + 1 = 0", "center": [0.5, 1.0], "semi_axes": [1.0, 0.5], "rotation": 1.5707963267948966, "foci": [[0.5, 1.8660254037844386], [0.49999999999999994, 0.1339745962155614]], "area": 1.5707963267948966, "quad_area": 2.0, "ratio": 0.7853981633974483, "bound_gap": 0.0}),
    (SQUARE, {"method": "closed-form", "parameter": 0.5, "parameter_kind": "pencil", "conic": [1.0, 1.0, 0.0, -1.0, -1.0, 0.25], "equation": "4x^2 + 4y^2 - 4x - 4y + 1 = 0", "center": [0.5, 0.5], "semi_axes": [0.5, 0.5], "rotation": 0.0, "foci": [[0.5, 0.5], [0.5, 0.5]], "area": 0.7853981633974483, "quad_area": 1.0, "ratio": 0.7853981633974483, "bound_gap": 0.0}),
    (GENERIC, {"method": "closed-form", "parameter": 0.5485837703548635, "parameter_kind": "pencil", "conic": [1.0, 0.5452593887471201, -0.5331395201422103, -0.43050087404306026, -0.31788908312068026, 0.04633275063795982], "equation": "21.5830052443x^2 + 11.7683362468y^2 - 23.0135061183xy - 9.29150262213x - 6.86100174809y + 1 = 0", "center": [0.7742918851774317, 1.0485837703548637], "semi_axes": [1.2193495033082504, 0.4606979874984972], "rotation": 0.9869575298526985, "foci": [[1.3966143801641193, 1.9905419901111627], [0.15196939019074418, 0.10662555059856482]], "area": 1.7647955235265615, "quad_area": 2.5, "ratio": 0.7059182094106247, "bound_gap": 0.07947995398682361}),
    (THIN, {"method": "closed-form", "parameter": 0.5, "parameter_kind": "pencil", "conic": [0.9999999900000002, 1.0, -0.9999999900000002, -0.9999999900000002, 0.9998999900010002, 0.24999999750000004], "equation": "4x^2 + 4.00000004y^2 - 8xy - 4x + 3.9996y + 1 = 0", "center": [5000.5, 5000.0], "semi_axes": [7071.06782070431, 0.353553390151332], "rotation": 0.7853981608974483, "foci": [[10000.5000125, 9999.9999875], [0.4999875000003158, 1.2500000593718141e-05]], "area": 7853.981633974483, "quad_area": 10000.0, "ratio": 0.7853981633974483, "bound_gap": 0.0}),
    (TRAPEZOID, {"method": "closed-form", "parameter": 0.5, "parameter_kind": "pencil", "conic": [0.125, 1.0, 0.0, -0.5, -1.0000000000000002, 0.5], "equation": "x^2 + 8y^2 - 4x - 8y + 4 = 0", "center": [2.0, 0.5], "semi_axes": [1.4142135623730951, 0.49999999999999994], "rotation": 0.0, "foci": [[3.3228756555322954, 0.5], [0.6771243444677046, 0.5]], "area": 2.2214414690791826, "quad_area": 3.0, "ratio": 0.7404804896930609, "bound_gap": 0.04491767370438737}),
]


class TestMaxEllipse:
    def test_rectangle_example(self, doc, capsys):
        code, payload = run_json(capsys, ["max-ellipse", doc(RECT)])
        assert code == 0
        assert payload["equation"] == "4x^2 + y^2 - 4x - 2y + 1 = 0"
        a, b, c, d, e, f = payload["conic"]
        scale = 4.0 / a
        assert [x * scale for x in (a, b, c, d, e, f)] == pytest.approx(
            [4.0, 1.0, 0.0, -4.0, -2.0, 1.0], abs=1e-12
        )
        ys = sorted(p[1] for p in payload["foci"])
        assert ys[0] == pytest.approx(1.0 - math.sqrt(3.0) / 2.0, abs=1e-12)
        assert ys[1] == pytest.approx(1.0 + math.sqrt(3.0) / 2.0, abs=1e-12)
        assert payload["ratio"] == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert payload["method"] == "closed-form"

    def test_trapezoid_uses_closed_form(self, doc, capsys):
        trap = {"vertices": [[0, 0], [4, 0], [3, 1], [1, 1]]}
        code, payload = run_json(capsys, ["max-ellipse", doc(trap)])
        assert code == 0
        assert payload["method"] == "closed-form"
        # Parallel sides 4 and 2: (pi/2) sqrt(pr) / (p + r).
        want = 0.5 * math.pi * math.sqrt(8.0) / 6.0
        assert payload["ratio"] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_tangency_has_four_points(self, doc, capsys):
        code, payload = run_json(capsys, ["max-ellipse", doc(GENERIC)])
        assert code == 0
        assert len(payload["tangency"]) == 4

    @pytest.mark.parametrize("document, want", PINNED_MAX_ELLIPSE)
    def test_pinned_output_but_tangency(self, doc, capsys, document, want):
        code, payload = run_json(capsys, ["max-ellipse", doc(document)])
        assert code == 0
        assert len(payload.pop("tangency")) == 4
        assert list(payload) == list(want)
        assert payload == want


class TestFamily:
    def test_csv_default(self, doc, capsys):
        code = run(["family", doc(GENERIC), "--samples", "7"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["param", "area", "center_x", "center_y"]
        assert len(rows) == 8
        params = [float(r[0]) for r in rows[1:]]
        assert params == sorted(params)

    def test_json_format(self, doc, capsys):
        code, payload = run_json(capsys, ["family", doc(GENERIC), "--samples", "5", "--format", "json"])
        assert code == 0
        assert payload["columns"] == ["param", "area", "center_x", "center_y"]
        assert len(payload["rows"]) == 5

    def test_csv_numbers_roundtrip(self, doc, capsys):
        code = run(["family", doc(GENERIC), "--samples", "3"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        for row in rows:
            for cell in row:
                float(cell)  # 17-digit output parses back

    def test_thin_sheared_parallelogram(self, doc, capsys):
        # The sweep answers however thin the parallelogram: rows are
        # symmetric about the middle one, the maximal member.
        code, payload = run_json(capsys, ["family", doc(THIN), "--samples", "5", "--format", "json"])
        assert code == 0
        areas = [row[1] for row in payload["rows"]]
        assert areas == pytest.approx([areas[4], areas[3], areas[2], areas[1], areas[0]], rel=1e-12)
        assert areas[2] == pytest.approx(0.25 * math.pi * 1e4, rel=1e-12)


class TestBestfit:
    def test_square_degenerate(self, doc, capsys):
        code, payload = run_json(capsys, ["bestfit", doc(SQUARE)])
        assert code == 0
        assert payload["degenerate"] is True
        assert payload["line"] is None
        assert payload["direction"] is None
        assert payload["centroid"] == pytest.approx([0.5, 0.5])

    def test_generic_line(self, doc, capsys):
        code, payload = run_json(capsys, ["bestfit", doc(GENERIC)])
        assert code == 0
        assert payload["degenerate"] is False
        a, b, c = payload["line"]
        gx, gy = payload["centroid"]
        assert a * gx + b * gy + c == pytest.approx(0.0, abs=1e-12)
        assert payload["objective"] >= 0.0


class TestVerify:
    def test_square_document_passes(self, doc, capsys):
        code, payload = run_json(capsys, ["verify", doc(SQUARE)])
        assert code == 0
        assert payload["bestfit_degenerate"] is True
        assert payload["inscribed_ratio"] == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert payload["all_passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "parallelogram-equality" in names

    def test_generic_document_passes(self, doc, capsys):
        code, payload = run_json(capsys, ["verify", doc(GENERIC)])
        assert code == 0
        names = {c["name"] for c in payload["checks"]}
        assert "strict-inequality" in names

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_thin_sheared_parallelogram_passes(self, doc, capsys, scale):
        # --tol is dimensionless: the foci's distance is taken relative to
        # the diameter, so the verdict does not depend on the units.
        thin = {"vertices": [[x * scale, y * scale] for x, y in THIN["vertices"]]}
        code, payload = run_json(capsys, ["verify", doc(thin)])
        assert code == 0
        assert payload["all_passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "foci-on-best-fit" in names

    def test_suite_mode_small(self, capsys):
        code, payload = run_json(capsys, ["verify", "--samples", "60", "--seed", "2"])
        assert code == 0
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 10


class TestConjecture:
    def test_small_scan(self, capsys):
        code, payload = run_json(capsys, ["conjecture", "--samples", "40", "--seed", "3"])
        assert code == 0
        assert payload["samples"] == 40
        assert payload["min_ratio"] >= math.pi / 2.0 - 1e-9
        assert payload["candidates"] == []
        assert sum(payload["histogram"]) == 40

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["conjecture", "--samples", "25", "--seed", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["samples"] == 25
        assert capsys.readouterr().out == ""


class TestRender:
    def test_svg_to_stdout(self, doc, capsys):
        code = run(["render", doc(RECT)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("<?xml")
        assert "<ellipse" in out and "<polygon" in out

    def test_svg_to_file_byte_stable(self, doc, tmp_path):
        path_a = tmp_path / "a.svg"
        path_b = tmp_path / "b.svg"
        document = doc(GENERIC)
        assert run(["render", document, "--out", str(path_a)]) == 0
        assert run(["render", document, "--out", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_square_has_no_bestfit_line(self, doc, capsys):
        code = run(["render", doc(SQUARE)])
        assert code == 0
        assert "<line" not in capsys.readouterr().out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert run([]) == 2

    def test_bad_samples(self, doc, capsys):
        assert run(["family", doc(GENERIC), "--samples", "0"]) == 2

    def test_bad_tol(self, doc, capsys):
        assert run(["verify", doc(SQUARE), "--tol", "-1"]) == 2

    def test_bad_seed_names_the_flag(self, capsys):
        assert run(["conjecture", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_format_mismatch(self, doc, capsys):
        assert run(["analyze", doc(GENERIC), "--format", "svg"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "DOC", "--seed", "1"],
            ["max-ellipse", "DOC", "--samples", "5"],
            ["bestfit", "DOC", "--tol", "1e-3"],
            ["render", "DOC", "--format", "svg"],
            ["family", "DOC", "--seed", "1"],
            ["family", "DOC", "--tol", "1e-3"],
            ["conjecture", "--samples", "5", "--tol", "1e-3"],
            ["conjecture", "--samples", "5", "--format", "json"],
            ["verify", "DOC", "--format", "json"],
            ["verify", "DOC", "--samples", "5"],
            ["verify", "--tol", "1e-3"],
        ],
    )
    def test_flag_the_command_does_not_read(self, doc, capsys, argv):
        path = doc(GENERIC)
        assert run([path if arg == "DOC" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert argv[-2] in captured.err  # the unread flag is named

    def test_main_wrapper(self, doc, capsys):
        assert main(["analyze", doc(GENERIC)]) == 0
        capsys.readouterr()


# Runs each document command in one interpreter, with stdout redirected,
# and names the first whose call left numpy imported; then checks that the
# sampling commands, which do import it, still run there.
_DOCUMENT_COMMANDS_SCRIPT = """
import io, sys
from quadellipse import cli
path = sys.argv[1]
def call(argv):
    stdout, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
    try:
        code = cli.run(argv)
    finally:
        sys.stdout = stdout
    assert code == 0, (argv, code)
for argv in (
    ["analyze", path],
    ["max-ellipse", path],
    ["family", path],
    ["bestfit", path],
    ["render", path],
    ["verify", path],
):
    call(argv)
    assert "numpy" not in sys.modules, f"{argv[0]} imported numpy"
call(["verify", "--samples", "8"])
call(["conjecture", "--samples", "8"])
"""


class TestImportCost:
    def test_document_commands_do_not_import_numpy(self, doc):
        # A new interpreter that imports the package from this checkout's src.
        result = subprocess.run(
            [sys.executable, "-c", _DOCUMENT_COMMANDS_SCRIPT, doc(GENERIC)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "command, loaded",
        [
            ("analyze", set()),
            ("bestfit", {"bestfit"}),
            ("max-ellipse", {"conic", "family"}),
            ("family", {"conic", "family"}),
            ("render", {"conic", "family", "bestfit", "svgfig"}),
            ("verify", {"conic", "family", "bestfit", "bounds"}),
        ],
    )
    def test_each_document_command_loads_only_what_it_runs(self, doc, command, loaded):
        # Every command validates its document, so cli, errors, geom and
        # quad always load; the handler adds the modules it calls. Results
        # are named tuples, and verify DOC takes its checks from bounds, so
        # no document command loads verify or, with its ConjectureReport,
        # dataclasses.
        modules = _fresh_modules(_ONE_COMMAND_SCRIPT, command, doc(GENERIC))
        assert modules == {"cli", "errors", "geom", "quad"} | loaded
        assert "numpy" not in modules

    def test_bare_package_import_loads_no_submodule(self):
        assert _fresh_modules("import quadellipse") == set()


# Runs the command given as arguments, with stdout redirected.
_ONE_COMMAND_SCRIPT = """
import io, sys
from quadellipse import cli
stdout, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
try:
    code = cli.run(sys.argv[1:])
finally:
    sys.stdout = stdout
assert code == 0, code
"""

# Prints the loaded package submodules, and numpy and dataclasses if
# loaded, as JSON.
_PRINT_MODULES = """
import json, sys
prefix = "quadellipse."
names = [m[len(prefix):] for m in sys.modules if m.startswith(prefix)]
print(json.dumps(names + [m for m in ("numpy", "dataclasses") if m in sys.modules]))
"""


def _fresh_modules(script: str, *argv: str) -> set[str]:
    """Submodules of the package loaded by ``script`` in a new interpreter
    that imports the package from this checkout's src."""
    result = subprocess.run(
        [sys.executable, "-c", script + "\n" + _PRINT_MODULES, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))
