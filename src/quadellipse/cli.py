"""Command-line surface: analysis reports, family sweeps, scans, figures.

Input documents are JSON objects with a ``vertices`` field holding four
[x, y] pairs and an optional ``id`` string. Reports are JSON (CSV for
family sweeps, SVG for figures); numbers round-trip losslessly. Exit code
0 means success, 1 means a verification failure or a counterexample
candidate, 2 means bad input or usage.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

# Every command validates a document, so only errors and quad load up
# front; each handler imports the rest of the library it runs.
from .errors import DomainError, QuadEllipseError
from .quad import ConvexQuad, diagonal_midpoints, normalize, quad_area, validate

_CSV_COLUMNS = ("param", "area", "center_x", "center_y")


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
        try:
            points.append((float(x), float(y)))
        except OverflowError:
            raise DomainError("vertex coordinates must fit in a float") from None
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


def _emit_report(args, doc_id: str | None, fields: dict) -> None:
    """Write a document's report as JSON, led by the document's id if it has one."""
    payload = fields if doc_id is None else {"id": doc_id, **fields}
    _emit_text(args, _dump_json(payload))


def _emit_bytes(args, blob: bytes) -> None:
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)


def _equation(conic) -> str:
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
    fields = {
        "vertices": [_pair(v) for v in q.vertices],
        "is_parallelogram": q.is_parallelogram,
        "is_trapezoid": q.is_trapezoid,
        "is_tangential": q.is_tangential,
        "area": quad_area(q),
        "diagonal_midpoints": [_pair(m1), _pair(m2)],
    }
    if q.is_trapezoid:
        fields["canonical"] = None
    else:
        nq = normalize(q)
        fields["canonical"] = {"s": nq.s, "t": nq.t}
    _emit_report(args, doc_id, fields)
    return 0


def _cmd_max_ellipse(args) -> int:
    from .conic import ellipse_area, foci
    from .family import max_area_ellipse

    q, doc_id = _load_document(args.document)
    member = max_area_ellipse(q)
    conic = member.conic
    area = ellipse_area(member.geom)
    ratio = area / quad_area(q)
    f1, f2 = foci(member.geom)
    fields = {
        "method": "closed-form",
        "parameter": member.parameter,
        "parameter_kind": "pencil",
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
    _emit_report(args, doc_id, fields)
    return 0


def _cmd_family(args) -> int:
    import csv

    from .family import family_areas

    q, _ = _load_document(args.document)
    rows = family_areas(q, args.samples)
    if args.fmt == "csv":
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
    from .bestfit import best_fit_line

    q, doc_id = _load_document(args.document)
    fit = best_fit_line(q.vertices)
    fields = {
        "centroid": [fit.centroid.real, fit.centroid.imag],
        "moment": [fit.moment.real, fit.moment.imag],
        "spread": fit.spread,
        "degenerate": fit.degenerate,
        "objective": fit.min_objective(),
    }
    if fit.degenerate:
        fields["direction"] = None
        fields["line"] = None
    else:
        line = fit.line()
        fields["direction"] = [fit.direction.real, fit.direction.imag]
        fields["line"] = [line.a, line.b, line.c]
    _emit_report(args, doc_id, fields)
    return 0


def _cmd_verify(args) -> int:
    if args.document:
        return _verify_document(args)
    from .verify import run_verification_suite

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
    from .bestfit import best_fit_line
    from .bounds import check_area_inequality, check_foci_on_bestfit, circumscribed_min_ratio

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
        rel = check_foci_on_bestfit(q) / q.diameter()
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
    all_passed = all(c["passed"] for c in checks)
    fields = {
        "is_parallelogram": q.is_parallelogram,
        "is_trapezoid": q.is_trapezoid,
        "bestfit_degenerate": fit.degenerate,
        "inscribed_ratio": report.ratio,
        "circumscribed_ratio": circ,
        "checks": checks,
        "all_passed": all_passed,
    }
    _emit_report(args, doc_id, fields)
    return 0 if all_passed else 1


def _cmd_conjecture(args) -> int:
    from .verify import conjecture_scan

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
    from .bestfit import best_fit_line
    from .conic import foci
    from .family import max_area_ellipse
    from .svgfig import Scene, render_svg

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


def _bounded(convert, ok, rule: str):
    """argparse type: convert a flag's text, then refuse values that break the rule."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


# The options a command may read, by flag; --out is every command's.
_OPTIONS = {
    "--samples": {
        "type": _bounded(int, lambda n: n > 0, "positive"),
        "default": 10000,
        "help": "sample or grid count (default 10000)",
    },
    "--seed": {
        "type": _bounded(int, lambda n: n >= 0, "nonnegative"),
        "default": 42,
        "help": "RNG seed (default 42)",
    },
    "--tol": {
        "type": _bounded(float, lambda x: x > 0.0, "positive"),
        "default": 1e-9,
        "help": "verification tolerance (default 1e-9)",
    },
    "--format": {
        "dest": "fmt",
        "choices": ("csv", "json"),
        "default": "csv",
        "help": "output format (default csv)",
    },
}

# name: (handler, document arity, options read besides --out, help text)
_COMMANDS = {
    "analyze": (
        _cmd_analyze, "required", (), "classification, area, diagonal midpoints, canonical (s, t)"
    ),
    "max-ellipse": (
        _cmd_max_ellipse, "required", (), "maximal inscribed ellipse: conic, axes, tangency, ratio"
    ),
    "family": (
        _cmd_family,
        "required",
        ("--samples", "--format"),
        f"inscribed family sweep; CSV columns: {', '.join(_CSV_COLUMNS)}",
    ),
    "bestfit": (_cmd_bestfit, "required", (), "orthogonal best-fit line of the four vertices"),
    "verify": (
        _cmd_verify,
        "optional",
        ("--samples", "--seed", "--tol"),
        "claim checks: the seeded suite, which reads --samples and --seed, "
        "or one document when given, which reads --tol",
    ),
    "conjecture": (
        _cmd_conjecture,
        "none",
        ("--samples", "--seed"),
        "seeded scan for circumscribed ratios below pi/2 - 1e-9",
    ),
    "render": (
        _cmd_render, "required", (), "SVG figure: quad, maximal ellipse, best-fit line, foci"
    ),
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
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, document, options, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[out], help=help_text, description=help_text)
        if document != "none":
            nargs = "?" if document == "optional" else None
            p.add_argument("document", nargs=nargs, help="path to a quad document, or - for stdin")
        for flag in options:
            spec = _OPTIONS[flag]
            # verify reads some flags with a document and the others
            # without; they stay None unless given, so run() can tell.
            p.add_argument(flag, **(dict(spec, default=None) if name == "verify" else spec))
        p.set_defaults(handler=handler)
    return parser


def _settle_verify_flags(parser: argparse.ArgumentParser, args) -> None:
    """Refuse a verify flag its mode does not read, and default the rest."""
    reads = ("--tol",) if args.document else ("--samples", "--seed")
    given = [f for f in _COMMANDS["verify"][2] if getattr(args, f[2:]) is not None]
    unread = [f for f in given if f not in reads]
    if unread:
        mode = "with" if args.document else "without"
        parser.error(f"unrecognized arguments {mode} a document: {' '.join(unread)}")
    for flag in reads:
        if getattr(args, flag[2:]) is None:
            setattr(args, flag[2:], _OPTIONS[flag]["default"])


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            _settle_verify_flags(parser, args)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except QuadEllipseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: invalid JSON document: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
