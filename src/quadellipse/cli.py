"""Command-line surface: analysis reports, family sweeps, scans, figures.

Input documents are JSON objects with a ``vertices`` field holding four
[x, y] pairs and an optional ``id`` string. Reports are JSON (CSV for
family sweeps, SVG for figures); numbers round-trip losslessly. Exit code
0 means success, 1 means a verification failure or a counterexample
candidate, 2 means bad input or usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .bestfit import best_fit_line
from .conic import ConicCoeffs, ellipse_area, foci
from .errors import DomainError, QuadEllipseError
from .family import family_areas, max_area_ellipse
from .quad import ConvexQuad, diagonal_midpoints, normalize, parallelogram_frame, quad_area, validate
from .svgfig import Scene, render_svg
from .verify import (
    check_area_inequality,
    check_foci_on_bestfit,
    circumscribed_min_ratio,
    conjecture_scan,
    run_verification_suite,
)

_CSV_COLUMNS = ("param", "area", "center_x", "center_y")

# Natural output format per subcommand; --format may narrow but not bend
# a report into a shape that loses information.
_FORMATS = {
    "analyze": ("json",),
    "max-ellipse": ("json",),
    "family": ("csv", "json"),
    "bestfit": ("json",),
    "verify": ("json",),
    "conjecture": ("json",),
    "render": ("svg",),
}


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _pair(p) -> list[float]:
    return [float(p[0]), float(p[1])]


def _load_document(path: str) -> tuple[ConvexQuad, str | None]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise DomainError("document must be a JSON object")
    verts = doc.get("vertices")
    if not isinstance(verts, list) or len(verts) != 4:
        raise DomainError("document field 'vertices' must list exactly four points")
    points = []
    for entry in verts:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DomainError("each vertex must be an [x, y] pair")
        x, y = entry
        if isinstance(x, bool) or isinstance(y, bool):
            raise DomainError("vertex coordinates must be numbers")
        if not isinstance(x, (int, float)) or not isinstance(y, (int, float)):
            raise DomainError("vertex coordinates must be numbers")
        points.append((float(x), float(y)))
    doc_id = doc.get("id")
    if doc_id is not None and not isinstance(doc_id, str):
        raise DomainError("document field 'id' must be a string when present")
    return validate(tuple(points)), doc_id


def _emit_text(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_bytes(args, blob: bytes) -> None:
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)


def _equation(conic: ConicCoeffs) -> str:
    """Human-readable a x^2 + b y^2 + 2c xy + d x + e y + f = 0, rescaled
    so the smallest nonzero coefficient magnitude is 1."""
    raw = conic.as_tuple()
    terms = (raw[0], raw[1], 2.0 * raw[2], raw[3], raw[4], raw[5])
    unit = min(abs(c) for c in terms if c != 0.0)
    names = ("x^2", "y^2", "xy", "x", "y", "")
    pieces: list[str] = []
    for coeff, name in zip(terms, names):
        value = coeff / unit
        if value == 0.0:
            continue
        mag = abs(value)
        body = format(mag, ".12g") if (mag != 1.0 or not name) else ""
        term = f"{body}{name}" if body or name else "1"
        if not pieces:
            pieces.append(f"-{term}" if value < 0.0 else term)
        else:
            pieces.append(f"{'-' if value < 0.0 else '+'} {term}")
    return " ".join(pieces) + " = 0"


def _cmd_analyze(args) -> int:
    q, doc_id = _load_document(args.document)
    m1, m2 = diagonal_midpoints(q)
    payload: dict = {}
    if doc_id is not None:
        payload["id"] = doc_id
    payload.update(
        {
            "vertices": [_pair(v) for v in q.vertices],
            "is_parallelogram": q.is_parallelogram,
            "is_trapezoid": q.is_trapezoid,
            "is_tangential": q.is_tangential,
            "area": quad_area(q),
            "diagonal_midpoints": [_pair(m1), _pair(m2)],
        }
    )
    if q.is_trapezoid:
        payload["canonical"] = None
    else:
        nq = normalize(q)
        payload["canonical"] = {"s": nq.s, "t": nq.t}
    _emit_text(args, _dump_json(payload))
    return 0


def _cmd_max_ellipse(args) -> int:
    q, doc_id = _load_document(args.document)
    member = max_area_ellipse(q)
    conic = member.conic.canonical()
    area = ellipse_area(member.geom)
    ratio = area / quad_area(q)
    f1, f2 = foci(member.geom)
    payload: dict = {}
    if doc_id is not None:
        payload["id"] = doc_id
    payload.update(
        {
            "method": "closed-form",
            "parameter": member.parameter,
            "parameter_kind": member.param_kind,
            "conic": list(conic.as_tuple()),
            "equation": _equation(conic),
            "center": _pair(member.geom.center),
            "semi_axes": [member.geom.a, member.geom.b],
            "rotation": member.geom.phi,
            "foci": [_pair(f1), _pair(f2)],
            "tangency": [_pair(p) for p in member.tangency],
            "area": area,
            "quad_area": quad_area(q),
            "ratio": ratio,
            "bound_gap": math.pi / 4.0 - ratio,
        }
    )
    _emit_text(args, _dump_json(payload))
    return 0


def _cmd_family(args) -> int:
    q, _ = _load_document(args.document)
    rows = family_areas(q, args.samples)
    fmt = args.fmt or "csv"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for param, area, center in rows:
            writer.writerow(
                (_fmt17(param), _fmt17(area), _fmt17(center[0]), _fmt17(center[1]))
            )
        _emit_text(args, buf.getvalue())
    else:
        payload = {
            "columns": list(_CSV_COLUMNS),
            "rows": [[param, area, center[0], center[1]] for param, area, center in rows],
        }
        _emit_text(args, _dump_json(payload))
    return 0


def _cmd_bestfit(args) -> int:
    q, doc_id = _load_document(args.document)
    fit = best_fit_line(q.vertices)
    payload: dict = {}
    if doc_id is not None:
        payload["id"] = doc_id
    payload.update(
        {
            "centroid": [fit.centroid.real, fit.centroid.imag],
            "moment": [fit.moment.real, fit.moment.imag],
            "spread": fit.spread,
            "degenerate": fit.degenerate,
            "objective": fit.min_objective(),
        }
    )
    if fit.degenerate:
        payload["direction"] = None
        payload["line"] = None
    else:
        line = fit.line()
        payload["direction"] = [fit.direction.real, fit.direction.imag]
        payload["line"] = [line.a, line.b, line.c]
    _emit_text(args, _dump_json(payload))
    return 0


def _cmd_verify(args) -> int:
    if args.document:
        return _verify_document(args)
    outcomes = run_verification_suite(samples=args.samples, seed=args.seed)
    payload = {
        "samples": args.samples,
        "seed": args.seed,
        "checks": [
            {"name": o.name, "passed": o.passed, "detail": o.detail} for o in outcomes
        ],
        "all_passed": all(o.passed for o in outcomes),
    }
    _emit_text(args, _dump_json(payload))
    return 0 if payload["all_passed"] else 1


def _verify_document(args) -> int:
    q, doc_id = _load_document(args.document)
    tol = args.tol
    report = check_area_inequality(q)
    fit = best_fit_line(q.vertices)
    circ = circumscribed_min_ratio(q)
    checks = [
        {
            "name": "inscribed-ratio-bound",
            "passed": report.ratio <= math.pi / 4.0 + tol,
            "detail": f"ratio {report.ratio!r} vs pi/4",
        },
        {
            "name": "circumscribed-bound",
            "passed": circ >= math.pi / 2.0 - tol,
            "detail": f"ratio {circ!r} vs pi/2",
        },
    ]
    if q.is_parallelogram:
        checks.append(
            {
                "name": "parallelogram-equality",
                "passed": abs(report.bound_gap) <= tol,
                "detail": f"|ratio - pi/4| = {abs(report.bound_gap):.3e}",
            }
        )
        rel = check_foci_on_bestfit(parallelogram_frame(q)) / q.diameter()
        checks.append(
            {
                "name": "foci-on-best-fit",
                "passed": rel <= tol,
                "detail": f"max focus distance / diameter {rel:.3e}",
            }
        )
    else:
        checks.append(
            {
                "name": "strict-inequality",
                "passed": report.bound_gap > 0.0,
                "detail": f"gap to pi/4: {report.bound_gap!r}",
            }
        )
    payload: dict = {}
    if doc_id is not None:
        payload["id"] = doc_id
    payload.update(
        {
            "is_parallelogram": q.is_parallelogram,
            "is_trapezoid": q.is_trapezoid,
            "bestfit_degenerate": fit.degenerate,
            "inscribed_ratio": report.ratio,
            "circumscribed_ratio": circ,
            "checks": checks,
            "all_passed": all(c["passed"] for c in checks),
        }
    )
    _emit_text(args, _dump_json(payload))
    return 0 if payload["all_passed"] else 1


def _cmd_conjecture(args) -> int:
    candidate_path = f"{args.out}.candidates.jsonl" if args.out else None
    report = conjecture_scan(args.samples, args.seed, candidate_path)
    payload = {
        "samples": report.sample_count,
        "seed": report.seed,
        "min_ratio": report.min_ratio,
        "argmin_vertices": [_pair(v) for v in report.argmin_vertices],
        "bin_origin": report.bin_origin,
        "bin_width": report.bin_width,
        "histogram": list(report.histogram),
        "candidates": [
            {"index": idx, "vertices": [_pair(v) for v in verts], "ratio": ratio}
            for idx, verts, ratio in report.candidates
        ],
    }
    _emit_text(args, _dump_json(payload))
    return 1 if report.candidates else 0


def _cmd_render(args) -> int:
    q, _ = _load_document(args.document)
    member = max_area_ellipse(q)
    fit = best_fit_line(q.vertices)
    lines = () if fit.degenerate else (fit.line(),)
    scene = Scene(
        quads=(q.vertices,),
        ellipses=(member.geom,),
        lines=lines,
        points=foci(member.geom),
    )
    _emit_bytes(args, render_svg(scene))
    return 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "max-ellipse": _cmd_max_ellipse,
    "family": _cmd_family,
    "bestfit": _cmd_bestfit,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
    "render": _cmd_render,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadellipse",
        description="Inscribed and circumscribed ellipse analysis of convex quadrilaterals.",
        epilog=(
            "family CSV columns, in this order: "
            + ", ".join(_CSV_COLUMNS)
            + ". Documents are JSON: {\"vertices\": [[x, y] * 4], \"id\": optional}."
        ),
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    shared.add_argument(
        "--samples", type=int, default=10000, help="sample or grid count (default 10000)"
    )
    shared.add_argument(
        "--tol", type=float, default=1e-9, help="verification tolerance (default 1e-9)"
    )
    shared.add_argument("--out", default=None, help="output path (default stdout)")
    shared.add_argument(
        "--format",
        dest="fmt",
        choices=("json", "csv", "svg"),
        default=None,
        help="output format; each subcommand lists its supported choices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "analyze": "classification, area, diagonal midpoints, canonical (s, t)",
        "max-ellipse": "maximal inscribed ellipse: conic, geometry, tangency, ratio",
        "family": f"inscribed family sweep; CSV columns: {', '.join(_CSV_COLUMNS)}",
        "bestfit": "orthogonal best-fit line of the four vertices",
        "verify": "claim checks: full suite, or one document when given",
        "conjecture": "seeded scan for circumscribed ratios below pi/2",
        "render": "SVG figure: quad, maximal ellipse, best-fit line, foci",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, parents=[shared], help=help_text, description=help_text)
        if name in ("verify", "conjecture"):
            if name == "verify":
                p.add_argument("document", nargs="?", default=None, help="optional quad document")
        else:
            p.add_argument("document", help="path to a quad document, or - for stdin")
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    if args.samples <= 0:
        print("error: --samples must be positive", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not args.tol > 0.0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    if args.fmt is not None and args.fmt not in _FORMATS[args.command]:
        allowed = ", ".join(_FORMATS[args.command])
        print(
            f"error: format {args.fmt!r} not supported by {args.command} (use {allowed})",
            file=sys.stderr,
        )
        return 2
    try:
        return _HANDLERS[args.command](args)
    except QuadEllipseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON document: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
