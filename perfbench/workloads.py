"""The four workloads: seeded set-up, one op, and the check of its output.

Each workload is built from the workload seed; building it is the set-up
(corpus, references, warm-up). ``op(k)`` makes the k-th call of the closed
loop and returns its raw output; ``check(k, raw)`` judges that output,
outside the timed region, and returns a ``Verdict``. Ops 0 to
``pass_ops`` - 1 are the workload's first pass, the fixed item set whose
verdicts the run's ``attempted`` and ``failed`` count. A failure is marked
``known`` when it falls in a defect class the library is known to have
(see each workload's ``check``); any other failure makes the run incorrect.

Why these four: ``scan`` spends nearly all its time in the circumscribed
minimum and the slot sampler and never touches ``family``, ``svgfig`` or
``cli``; ``inscribe`` is the reverse, all ``quad``, ``family``, ``conic``,
``bestfit`` and ``svgfig``; ``suite`` is the only one that runs the identity
checks and samplers; ``cold`` pays interpreter start and imports on every
call, which the in-process workloads never see.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
from quadellipse import bestfit, cli, conic, errors, family, quad, svgfig, verify

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
HALF_PI = math.pi / 2.0
WRONG, UNTYPED = "wrong_answer", "untyped"

# Typed failure causes, one per QuadEllipseError subclass at the time the
# benchmark was written; any other typed error counts under the base class.
ERROR_CLASSES = (
    "CanonicalFormViolated",
    "CenterOffLocus",
    "DegenerateLine",
    "DegenerateVertices",
    "DomainError",
    "EmptyInput",
    "EmptyScene",
    "IdentityMismatch",
    "IsParallelogram",
    "IsTrapezoid",
    "NotAnEllipse",
    "NotConvex",
    "NotParallelogram",
    "OptimizationFailed",
    "ParameterOutOfRange",
    "SingularCenterSystem",
    "TrapezoidUnsupported",
    "ZeroImaginaryPart",
    "QuadEllipseError",
)
CAUSES = ERROR_CLASSES + (UNTYPED, WRONG)


def _typed_cause(name: str) -> str:
    return name if name in ERROR_CLASSES else "QuadEllipseError"


@dataclass(frozen=True)
class Raised:
    """An exception an op let escape, classified by cause."""

    cause: str
    message: str

    @classmethod
    def of(cls, exc: Exception) -> "Raised":
        text = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, errors.QuadEllipseError):
            return cls(_typed_cause(type(exc).__name__), text)
        return cls(UNTYPED, text)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one op: ``failed`` of its ``items`` failed, for ``cause``;
    ``first`` describes the failing input, and ``known`` says whether the
    failure is one of the library's known defects."""

    items: int
    failed: int = 0
    cause: str | None = None
    first: dict | None = None
    known: bool = False


@dataclass(frozen=True)
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    cpu_s: float
    maxrss_kb: int


def _fail(items: int, cause: str, first: dict, known: bool = False) -> Verdict:
    return Verdict(items=items, failed=items, cause=cause, first=first, known=known)


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class Scan:
    """Ops are whole ``conjecture_scan`` calls over CHUNK slots, each under a
    fresh scan seed, so no (seed, slot) pair repeats in a run.

    Every report is checked for its slot count, histogram total, candidates
    and minimum. The dense reference, computed in ``check`` outside the
    timed region, covers the reported minimum's quad and CHECKED of the
    other slots, drawn per op: none may lie below the minimum, and each
    must be counted in its histogram bin.
    """

    CHUNK = 100
    CHECKED = 31
    items_per_op = CHUNK
    pass_ops = 64
    children = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Warm up the check too, so its one-time cost falls in set-up.
        self.check(-1, verify.conjecture_scan(self.CHUNK, self.scan_seed(-1)))

    def scan_seed(self, k: int) -> int:
        return self.seed * 1_000_000 + k + 1

    def op(self, k: int):
        return verify.conjecture_scan(self.CHUNK, self.scan_seed(k))

    def check(self, k: int, rep) -> Verdict:
        first = {"scan_seed": self.scan_seed(k), "slots": self.CHUNK}
        if isinstance(rep, Raised):
            return _fail(self.CHUNK, rep.cause, {**first, "error": rep.message})
        problem = self._problem(k, rep)
        if problem:
            return _fail(self.CHUNK, WRONG, {**first, "problem": problem})
        return Verdict(items=self.CHUNK)

    def _problem(self, k: int, rep) -> str | None:
        scan_seed = self.scan_seed(k)
        if rep.sample_count != self.CHUNK or rep.seed != scan_seed:
            return f"report echoes {rep.sample_count} slots, seed {rep.seed}"
        if rep.candidates or not rep.min_ratio >= HALF_PI - 1e-9:
            return f"candidates {len(rep.candidates)}, min ratio {rep.min_ratio!r} below pi/2"
        hist = rep.histogram
        if sum(hist) != self.CHUNK:
            return f"histogram holds {sum(hist)} of {self.CHUNK} slots"
        slots = np.random.default_rng((scan_seed, 0x5CA)).choice(self.CHUNK, self.CHECKED, replace=False)
        verts = [rep.argmin_vertices] + [
            quad.validate(verify.scan_sample_vertices(scan_seed, int(i))).vertices for i in slots
        ]
        refs = corpus.dense_circumscribed_ratio(np.array(verts))
        if _rel_gap(rep.min_ratio, float(refs[0])) > 1e-9:
            return f"min ratio {rep.min_ratio!r}, dense reference {float(refs[0])!r}"
        last = len(hist) - 1

        def slot(r: float) -> int:
            return min(max(int((r - rep.bin_origin) / rep.bin_width), 0), last)

        for i, r in zip(slots, refs[1:]):
            if r < rep.min_ratio * (1.0 - 1e-9):
                return f"slot {i} dense reference {float(r)!r} is below the reported minimum"
        # Slots whose reference sits clear of a bin edge must each be counted.
        sure = Counter(slot(r) for r in refs[1:] if slot(r * (1.0 - 1e-9)) == slot(r * (1.0 + 1e-9)))
        for b, n in sure.items():
            if n > hist[b]:
                return f"histogram bin {b} holds {hist[b]}, {n} checked slots fall in it"
        return None

    def facts(self, ks) -> dict:
        return {"chunk": self.CHUNK, "checked_slots_per_op": self.CHECKED + 1}


def _answer_problems(doc: corpus.Doc, ratio: float, focal) -> str | None:
    """Ratio against the reference; both foci inside the quad."""
    tol = doc.tolerance()
    if not _rel_gap(ratio, doc.ref_ratio) <= tol:
        return f"ratio {ratio!r}, reference {doc.ref_ratio!r}, tolerance {tol:.3g}"
    for f in focal:
        if not corpus.inside_quad(doc.vertices, f, tol * doc.diameter):
            return f"focus {f} lies outside the quad"
    return None


def _direction_problem(doc: corpus.Doc, direction) -> str | None:
    """Best-fit direction (None when reported degenerate) against the
    reference angle, with the tolerance scaled by its conditioning."""
    if doc.ref_angle is None:
        return None
    if direction is None:
        return "best-fit line reported degenerate"
    got = math.atan2(direction[1], direction[0]) % math.pi
    if not corpus.angle_gap(got, doc.ref_angle) <= doc.tolerance() * doc.angle_scale:
        return f"best-fit angle {got!r}, reference {doc.ref_angle!r}"
    return None


def _doc_input(doc: corpus.Doc) -> dict:
    return {
        "doc": doc.index,
        "kind": doc.kind,
        "wide": doc.wide,
        "offset_diams": doc.offset_diams,
        "area_over_diam2": doc.area / doc.diameter**2,
        "vertices": [list(v) for v in doc.vertices],
    }


class Inscribe:
    """Ops answer one document each through the library: validate, the
    maximal member, its ratio, foci and the best-fit line, and an SVG for
    about one document in eight."""

    DOCS = 4096
    WARMUP = 256
    items_per_op = 1
    pass_ops = DOCS
    children = False

    def __init__(self, seed: int) -> None:
        self.docs = corpus.inscribe_corpus(seed, self.DOCS)
        for k in range(self.WARMUP):
            with contextlib.suppress(Exception):
                self.op(k)

    def op(self, k: int):
        doc = self.docs[k % self.DOCS]
        q = quad.validate(doc.vertices)
        try:
            member = family.max_area_ellipse(q)
        except errors.TrapezoidUnsupported:
            member = family.max_area_by_search(q)
        ratio = conic.ellipse_area(member.geom) / quad.quad_area(q)
        focal = conic.foci(member.geom)
        fit = bestfit.best_fit_line(q.vertices)
        svg = None
        if doc.render:
            scene = svgfig.Scene(
                quads=(q.vertices,),
                ellipses=(member.geom,),
                lines=() if fit.degenerate else (fit.line(),),
                points=focal,
            )
            svg = svgfig.render_svg(scene)
        direction = None if fit.degenerate else (fit.direction.real, fit.direction.imag)
        return ratio, focal, direction, svg

    def check(self, k: int, raw) -> Verdict:
        """Any failure on a wide document is a known defect, and so is a
        typed refusal of a thin one."""
        doc = self.docs[k % self.DOCS]
        if isinstance(raw, Raised):
            known = doc.wide or (doc.thin and raw.cause != UNTYPED)
            return _fail(1, raw.cause, {**_doc_input(doc), "error": raw.message}, known)
        ratio, focal, direction, svg = raw
        problem = _answer_problems(doc, ratio, focal) or _direction_problem(doc, direction)
        if problem is None and doc.render and not _svg_ok(svg):
            problem = "SVG is not a complete document with an ellipse"
        if problem:
            return _fail(1, WRONG, {**_doc_input(doc), "problem": problem}, doc.wide)
        return Verdict(items=1)

    def facts(self, ks) -> dict:
        docs = [self.docs[k % self.DOCS] for k in ks]
        n = max(len(docs), 1)
        return {
            "corpus_docs": self.DOCS,
            "trapezoid_share": sum(d.kind == corpus.TRAPEZOID for d in docs) / n,
            "parallelogram_share": sum(d.kind == corpus.PARALLELOGRAM for d in docs) / n,
            "wide_share": sum(d.wide for d in docs) / n,
            "render_share": sum(d.render for d in docs) / n,
        }


def _svg_ok(svg) -> bool:
    return (
        isinstance(svg, bytes)
        and svg.startswith(b"<?xml")
        and svg.endswith(b"</svg>\n")
        and b"<ellipse" in svg
    )


SUITE_CHECKS = (
    "ratio-formula-agreement",
    "inscribed-ratio-strict",
    "parallelogram-equality",
    "profile-bound",
    "critical-abscissa-interval",
    "foci-on-best-fit",
    "slope-identities",
    "derivative-root-mismatch",
    "center-locus-roundtrip",
    "circumscribed-conjecture",
)


class Suite:
    """Ops are whole ``run_verification_suite`` calls at SAMPLES samples,
    each under a fresh suite seed; every claim must pass."""

    SAMPLES = 200
    items_per_op = 1
    pass_ops = 64
    children = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        verify.run_verification_suite(samples=20, seed=seed)

    def suite_seed(self, k: int) -> int:
        return self.seed * 100_000 + k

    def op(self, k: int):
        return verify.run_verification_suite(samples=self.SAMPLES, seed=self.suite_seed(k))

    def check(self, k: int, raw) -> Verdict:
        """A failure is a known defect when every failing claim failed
        because the library refused one of its quads with a typed error
        (the suite reports those as ``error: ...``); a claim that evaluates
        false is not."""
        first = {"suite_seed": self.suite_seed(k), "samples": self.SAMPLES}
        if isinstance(raw, Raised):
            return _fail(1, raw.cause, {**first, "error": raw.message})
        names = tuple(o.name for o in raw)
        if names != SUITE_CHECKS:
            return _fail(1, WRONG, {**first, "problem": f"checks {names}"})
        failing = [o for o in raw if not o.passed]
        if failing:
            known = all(o.detail.startswith("error: ") for o in failing)
            problem = [f"{o.name}: {o.detail}" for o in failing]
            return _fail(1, WRONG, {**first, "problem": problem}, known)
        return Verdict(items=1)

    def facts(self, ks) -> dict:
        return {"samples": self.SAMPLES}


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], env: dict, cwd: Path) -> ChildResult:
    """Run one child to completion; CPU and peak RSS come from wait4."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        code=proc.returncode,
        stdout=out,
        stderr=err,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


_TIMED_IMPORT = (
    "import time; t = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t)"
)


def child_import_seconds(module: str, env: dict, cwd: Path) -> float:
    """Seconds a fresh interpreter spends importing ``module``."""
    res = run_child([sys.executable, "-c", _TIMED_IMPORT.format(module=module)], env, cwd)
    if res.code != 0:
        raise RuntimeError(f"importing {module} failed: {res.stderr.decode(errors='replace')}")
    return float(res.stdout)


# Problems from ``verify`` that start with this word concern the
# circumscribed ratio, which the library computes without recentring the
# quad: on quads a few diameters from the origin it is off by up to 2e-6.
CIRCUMSCRIBED = "circumscribed"

CLI_COMMANDS = ("max-ellipse", "analyze", "bestfit", "render", "verify")
CLI_METRICS = ("cli.interp.ms", "cli.import_numpy.ms", "cli.import.ms") + tuple(
    f"cli.run.{cmd}.us" for cmd in CLI_COMMANDS
)


class Cold:
    """Ops run ``python -m quadellipse.cli <cmd> <doc>`` in a fresh child,
    cycling through the five document commands on unit-scale documents."""

    DOCS = 16
    PROBES = 5
    items_per_op = 1
    # Every (command, document) pairing once; see ``_pick``.
    pass_ops = DOCS * len(CLI_COMMANDS)
    children = True

    def __init__(self, seed: int) -> None:
        self.env = child_env(ROOT / "src")
        self.docs = corpus.cold_corpus(seed, self.DOCS)
        self.circ_refs = corpus.dense_circumscribed_ratio(
            np.array([d.vertices for d in self.docs])
        )
        doc_dir = OUT_DIR / f"cold-{seed}"
        doc_dir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for doc in self.docs:
            path = doc_dir / f"doc-{doc.index}.json"
            path.write_text(json.dumps({"vertices": [list(v) for v in doc.vertices], "id": f"doc-{doc.index}"}))
            self.paths.append(path)
        self.op(0)

    def _pick(self, k: int) -> tuple[str, int]:
        # DOCS is prime to the command count, so the first DOCS * 5 ops make
        # every (command, document) pairing once.
        return CLI_COMMANDS[k % len(CLI_COMMANDS)], k % self.DOCS

    def op(self, k: int) -> ChildResult:
        cmd, i = self._pick(k)
        argv = [sys.executable, "-m", "quadellipse.cli", cmd, str(self.paths[i])]
        return run_child(argv, self.env, ROOT)

    def check(self, k: int, res) -> Verdict:
        """A typed refusal of a thin document is a known defect, and so is
        a wrong circumscribed ratio from ``verify`` on any document."""
        cmd, i = self._pick(k)
        doc = self.docs[i]
        first = {"cmd": cmd, **_doc_input(doc)}
        if isinstance(res, Raised):
            return _fail(1, res.cause, {**first, "error": res.message})
        stderr = res.stderr.decode(errors="replace").strip()
        if res.code == 2 and stderr.startswith("error: "):
            name = stderr[len("error: ") :].split(":", 1)[0]
            cause = _typed_cause(name) if hasattr(errors, name) else UNTYPED
            return _fail(1, cause, {**first, "error": stderr}, doc.thin and cause != UNTYPED)
        if res.code not in (0, 1):
            return _fail(1, UNTYPED, {**first, "exit": res.code, "error": stderr[-400:]})
        try:
            problem = self._problem(cmd, i, res)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc}"
        if problem:
            known = problem.startswith(CIRCUMSCRIBED)
            return _fail(1, WRONG, {**first, "exit": res.code, "problem": problem}, known)
        return Verdict(items=1)

    def _problem(self, cmd: str, i: int, res: ChildResult) -> str | None:
        doc = self.docs[i]
        if cmd == "render":
            return None if res.code == 0 and _svg_ok(res.stdout) else "bad SVG"
        if res.code != 0 and cmd != "verify":
            return f"exit code {res.code}"
        out = json.loads(res.stdout)
        tol = doc.tolerance()
        if cmd == "max-ellipse":
            return _answer_problems(doc, out["ratio"], out["foci"])
        if cmd == "analyze":
            want = (doc.kind == corpus.PARALLELOGRAM, doc.kind != corpus.GENERAL)
            got = (out["is_parallelogram"], out["is_trapezoid"])
            if got != want:
                return f"flags (parallelogram, trapezoid) = {got}, expected {want}"
            if not _rel_gap(out["area"], doc.area) <= tol:
                return f"area {out['area']!r}, reference {doc.area!r}"
            return None
        if cmd == "bestfit":
            return _direction_problem(doc, None if out["degenerate"] else out["direction"])
        failing = [c["name"] for c in out["checks"] if not c["passed"]]
        if out["all_passed"] == bool(failing) or res.code != (1 if failing else 0):
            return f"exit code {res.code}, all_passed {out['all_passed']}, failing checks {failing}"
        if not _rel_gap(out["inscribed_ratio"], doc.ref_ratio) <= tol:
            return f"inscribed ratio {out['inscribed_ratio']!r}, reference {doc.ref_ratio!r}"
        if failing not in ([], ["circumscribed-bound"]):
            return f"checks failed: {failing}"
        circ = float(self.circ_refs[i])
        if failing or not _rel_gap(out["circumscribed_ratio"], circ) <= tol:
            return (
                f"{CIRCUMSCRIBED} ratio {out['circumscribed_ratio']!r}, dense reference {circ!r}, "
                f"failing checks {failing}"
            )
        return None

    def probes(self) -> dict[str, float]:
        """Interpreter start, the numpy import and the package import in
        fresh children, and each command's in-process ``cli.run`` time."""
        interp = []
        for _ in range(self.PROBES):
            t0 = time.perf_counter()
            run_child([sys.executable, "-c", "pass"], self.env, ROOT)
            interp.append(time.perf_counter() - t0)
        out = {
            "cli.interp.ms": 1e3 * statistics.median(interp),
            "cli.import_numpy.ms": 1e3 * statistics.median(
                child_import_seconds("numpy", self.env, ROOT) for _ in range(self.PROBES)
            ),
            "cli.import.ms": 1e3 * statistics.median(
                child_import_seconds("quadellipse.cli", self.env, ROOT) for _ in range(self.PROBES)
            ),
        }
        for cmd in CLI_COMMANDS:
            times = []
            for i in range(self.PROBES):
                sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.perf_counter()
                    cli.run([cmd, str(self.paths[i])])
                    times.append(time.perf_counter() - t0)
            out[f"cli.run.{cmd}.us"] = 1e6 * statistics.median(times)
        return out

    def facts(self, ks) -> dict:
        return {"docs": self.DOCS, "commands": list(CLI_COMMANDS)}


WORKLOADS = {"scan": Scan, "inscribe": Inscribe, "suite": Suite, "cold": Cold}
