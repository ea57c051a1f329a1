"""Tests of the benchmark itself: its checker, its tail statistic, its
references, and that the metrics it prints are the ones BENCHMARK.json names.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

assert run.load_package() is None

import corpus  # noqa: E402
import workloads  # noqa: E402
from quadellipse import conic, errors, family, quad, verify  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _doc(kind: str, seed: int = 3) -> corpus.Doc:
    rng = np.random.default_rng(seed)
    return corpus.make_doc(rng, 0, kind, wide=False, render=False, strata=rng.random(3))


def _inscribe_with(doc: corpus.Doc) -> workloads.Inscribe:
    bench = object.__new__(workloads.Inscribe)
    bench.docs = [doc]
    bench.DOCS = 1
    return bench


@pytest.mark.parametrize("kind", [corpus.GENERAL, corpus.PARALLELOGRAM])
def test_checker_accepts_library_answer_and_rejects_perturbed_ratio(kind):
    doc = _doc(kind)
    bench = _inscribe_with(doc)
    ratio, focal, direction, svg = bench.op(0)
    assert bench.check(0, (ratio, focal, direction, svg)).failed == 0
    bad = bench.check(0, (ratio * (1.0 + 1e-6), focal, direction, svg))
    assert (bad.failed, bad.cause) == (1, workloads.WRONG)
    assert "ratio" in bad.first["problem"]


def test_checker_classifies_exceptions_by_cause():
    bench = _inscribe_with(_doc(corpus.GENERAL))
    untyped = bench.check(0, workloads.Raised.of(ZeroDivisionError("float division by zero")))
    assert (untyped.failed, untyped.cause) == (1, workloads.UNTYPED)
    assert untyped.first["error"].startswith("ZeroDivisionError")
    typed = bench.check(0, workloads.Raised.of(errors.CenterOffLocus("off")))
    assert typed.cause == "CenterOffLocus"


def test_known_defects_are_wide_documents_and_thin_refusals():
    thick = _doc(corpus.GENERAL)
    assert not thick.thin
    refusal = workloads.Raised.of(errors.CenterOffLocus("off"))
    untyped = workloads.Raised.of(ZeroDivisionError("float division by zero"))
    thin = dataclasses.replace(thick, area=0.5 * corpus.THIN * thick.diameter**2)
    wide = dataclasses.replace(thick, wide=True)
    assert not _inscribe_with(thick).check(0, refusal).known
    assert _inscribe_with(thin).check(0, refusal).known
    assert not _inscribe_with(thin).check(0, untyped).known
    assert _inscribe_with(wide).check(0, untyped).known


def test_suite_refusals_are_known_and_false_claims_are_not():
    bench = object.__new__(workloads.Suite)
    bench.seed = 0
    passing = [verify.CheckOutcome(name, True, "") for name in workloads.SUITE_CHECKS]
    assert bench.check(0, passing).failed == 0
    refused = list(passing)
    refused[3] = verify.CheckOutcome(passing[3].name, False, "error: not a real ellipse")
    assert bench.check(0, refused).known
    false_claim = list(refused)
    false_claim[0] = verify.CheckOutcome(passing[0].name, False, "worst gap 1e-3")
    verdict = bench.check(0, false_claim)
    assert verdict.failed == 1 and not verdict.known


def test_scan_checker_rejects_perturbed_reports():
    bench = object.__new__(workloads.Scan)
    bench.seed = 7
    rep = verify.conjecture_scan(bench.CHUNK, bench.scan_seed(0))
    assert bench.check(0, rep).failed == 0
    low = dataclasses.replace(rep, min_ratio=rep.min_ratio * (1.0 + 1e-6))
    assert bench.check(0, low).cause == workloads.WRONG
    hist = rep.histogram
    shifted = dataclasses.replace(rep, histogram=hist[-1:] + hist[:-1])
    bad = bench.check(0, shifted)
    assert (bad.failed, bad.cause, bad.known) == (bench.CHUNK, workloads.WRONG, False)
    assert "histogram" in bad.first["problem"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(270) == 95.0
    assert run.tail_percentile(1000) == 95.0
    assert run.tail_percentile(50_000) == 95.0
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert sum(x > 90.0 for x in samples) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_first_pass_counts_each_op_once_and_answers_the_rest():
    bench = _inscribe_with(_doc(corpus.GENERAL))
    first = run.FirstPass(3)
    wrong = workloads.Verdict(items=1, failed=1, cause=workloads.WRONG, first={}, known=True)
    first.add(0, wrong)
    first.add(0, workloads.Verdict(items=1))
    first.add(5, wrong)
    first.complete(bench)
    assert (first.tally.attempted, first.tally.failed, first.after_loop) == (3, 1, 2)
    assert first.tally.causes[workloads.WRONG]["count"] == 1


def test_references_match_known_values():
    assert corpus.paper_ratio(2.0, 3.0) == pytest.approx(0.7059182094106247, rel=1e-14)
    assert corpus.paper_ratio(2.0, 3.0) == pytest.approx(corpus.paper_ratio(3.0, 2.0), rel=1e-14)
    assert corpus.trapezoid_ratio(1.0, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-15)
    square = np.array([[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]])
    assert corpus.dense_circumscribed_ratio(square)[0] == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_trapezoid_reference_matches_search():
    doc = _doc(corpus.TRAPEZOID, seed=5)
    member = family.max_area_by_search(quad.validate(doc.vertices))
    ratio = conic.ellipse_area(member.geom) / quad.quad_area(quad.validate(doc.vertices))
    assert ratio == pytest.approx(doc.ref_ratio, rel=1e-9)


def _printed(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inscribe", "--seed", "0", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _printed(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
