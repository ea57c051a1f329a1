"""Benchmark for quadellipse: one seeded workload per run, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scan,inscribe,suite,cold} \\
        --seed N --seconds S --trace {0,1}

The library is imported from the checkout's ``src``; a run refuses to start
(exit 2, no result) when that package is missing. Set-up builds the
workload from the seed (corpus, independent references, warm-up) three
times and reports the median, with the import of ``quadellipse`` timed in
a fresh interpreter each time. Then one caller runs ops in a closed loop for
``--seconds`` of op time; each output is checked against the references
between ops, outside the timed region. Timings are reported at a nominal
host speed measured during the same run (see ``speed.py``); the facts line
gives the factor and the raw figures. The run keeps itself and its children
on one CPU.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics named in BENCHMARK.json. With ``--trace 1`` the first half of the
time runs untraced and the second half with a span around every call into
the library's public functions (see ``spans.py``); the last line then holds
the per-layer metrics, including ``trace.overhead_pct``, the difference in
items per second between the two halves. Span times from the loop are at
nominal host speed too; the ``cli.*`` probes that ``cold`` makes after it
are as measured. Spans are written to ``perfbench/out/``. Earlier lines
give the run facts and, per failure cause, the count and the first failing
input.

``attempted``, ``failed``, ``ok_frac`` and the ``errors.*`` counts cover
the workload's first pass: its ops 0 to ``pass_ops`` - 1, a fixed item set
drawn from the seed. The loop answers them first; any it did not reach are
answered and checked after it, untimed. So these counts depend on the seed
alone, not on how many ops fit into the run. ``items_per_s`` counts the
correct items of the timed loop.

``correct`` is false when any item, in the loop or the first pass, fails
outside the defect classes the library is known to have: any failure on a
wide placement and a typed refusal of a thin quad on ``inscribe``; a typed
refusal of a thin quad and a wrong circumscribed ratio on ``cold``; a claim
failed by a typed refusal on ``suite``; and nothing on ``scan``. Failures
inside those classes are counted in ``failed``; each failure line says how
many fell outside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 3

E2E_UNITS = {
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_item": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Candidate tail percentiles; the highest with ten samples beyond it is used.
# The ladder stops at p95: p99.9 moved by half from run to run, and p99 by
# a tenth, on the host this was written on; p95 still falls among inscribe's
# trapezoids, the slow route.
TAIL_LADDER = (75.0, 90.0, 95.0)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name's last part."""
    suffix = name.rsplit(".", 1)[1]
    if suffix in ("calls", "fails", "count"):
        return "count"
    if suffix.startswith("us"):
        return "us"
    return {"ms": "ms", "bytes": "bytes", "overhead_pct": "%"}[suffix]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile whose nearest-rank sample has at least ten
    samples beyond it, or None when there are too few samples for any."""
    best = None
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the tail latency; the maximum when fewer than
    eleven samples exist."""
    ordered = sorted(samples)
    p = tail_percentile(len(ordered))
    if p is None:
        return 100.0, ordered[-1]
    return p, ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


@dataclass
class Tally:
    """Verdicts added up: items attempted and failed, and per failure cause
    its failed-item count and first input, with the count and first input
    of those outside the known defects; ``unexplained`` totals the latter."""

    attempted: int = 0
    failed: int = 0
    unexplained: int = 0
    causes: dict[str, dict] = field(default_factory=dict)

    def add(self, verdict) -> None:
        self.attempted += verdict.items
        if not verdict.failed:
            return
        self.failed += verdict.failed
        entry = self.causes.setdefault(verdict.cause, {"count": 0, "unexplained": 0, "first": verdict.first})
        entry["count"] += verdict.failed
        if not verdict.known:
            self.unexplained += verdict.failed
            entry.setdefault("first_unexplained", verdict.first)
            entry["unexplained"] += verdict.failed

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


class FirstPass:
    """Verdicts on ops 0 to n - 1, each counted the first time it is seen."""

    def __init__(self, n: int) -> None:
        self.seen = bytearray(n)
        self.tally = Tally()
        self.after_loop = 0

    def add(self, k: int, verdict) -> None:
        if k < len(self.seen) and not self.seen[k]:
            self.seen[k] = 1
            self.tally.add(verdict)

    def complete(self, bench) -> None:
        """Answer and check, untimed, every op the loop did not reach."""
        for k in range(len(self.seen)):
            if not self.seen[k]:
                self.after_loop += 1
                self.add(k, bench.check(k, call(bench, k)))


def call(bench, k: int):
    """The k-th op's output, or the exception it raised, classified."""
    from workloads import Raised

    try:
        return bench.op(k)
    except Exception as exc:
        return Raised.of(exc)


@dataclass
class Measured:
    """One closed-loop measurement and the verdicts on its outputs.

    ``latencies_ns`` are raw and ``slowness`` holds the speed-probe factor
    around each op. ``cpu_s`` is the CPU time spent inside ops (in the
    children, for ``cold``); checks and probes are outside both.
    """

    latencies_ns: array
    slowness: array
    cpu_s: float
    rss_mb: float
    loop: Tally

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    @property
    def speed(self) -> float:
        """Mean slowness over the loop, weighted by op time."""
        return sum(self.latencies_ns) / sum(t / f for t, f in zip(self.latencies_ns, self.slowness))

    def end_to_end(self, setup_s: float, first_pass: Tally) -> dict[str, float]:
        """The end-to-end metrics, timings at nominal host speed."""
        correct = self.loop.attempted - self.loop.failed
        lat_ms = [t / 1e6 / f for t, f in zip(self.latencies_ns, self.slowness)]
        speed = self.speed
        return {
            "items_per_s": correct / self.wall_s * speed,
            "op_p50_ms": statistics.median(lat_ms),
            "op_tail_ms": tail(lat_ms)[1],
            "cpu_ms_per_item": 1e3 * self.cpu_s / self.loop.attempted / speed,
            "ok_frac": first_pass.ok_frac,
            "peak_rss_mb": self.rss_mb,
            "setup_s": setup_s,
        }


def measure(bench, seconds: float, probe, first_pass: FirstPass, tracer=None) -> Measured:
    """Run ops back to back for ``seconds`` of op time. Between ops, the
    previous output is checked and the host speed probed; neither counts
    towards the op's wall or CPU time, and no output is kept."""
    from workloads import Raised

    gc.collect()
    gc.freeze()
    lat, before = array("q"), array("q")
    loop = Tally()
    cpu = 0.0
    rss_kb = 0
    clock, cpu_clock = time.perf_counter_ns, time.process_time
    budget = int(seconds * 1e9)
    spent = 0
    probe.sample()
    k = 0
    while spent < budget:
        if tracer is not None:
            tracer.op_id = k
        before.append(len(probe.samples) - 1)
        c0 = cpu_clock()
        t0 = clock()
        raw = call(bench, k)
        t1 = clock()
        c1 = cpu_clock()
        lat.append(t1 - t0)
        spent += t1 - t0
        if bench.children and not isinstance(raw, Raised):
            cpu += raw.cpu_s
            rss_kb = max(rss_kb, raw.maxrss_kb)
        else:
            cpu += c1 - c0
        if tracer is not None:
            tracer.recording = False
        verdict = bench.check(k, raw)
        if tracer is not None:
            tracer.recording = True
        loop.add(verdict)
        first_pass.add(k, verdict)
        k += 1
        probe.maybe_sample(clock())
    probe.sample()
    gc.unfreeze()
    if not bench.children:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return Measured(
        latencies_ns=lat,
        slowness=array("d", (probe.factor(j) for j in before)),
        cpu_s=cpu,
        rss_mb=rss_kb / 1024.0,
        loop=loop,
    )


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, the one the speed
    probe runs on; on a host whose CPUs change speed independently, a child
    elsewhere would not be slowed the way the probe is."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def load_package() -> str | None:
    """Import quadellipse from this checkout's src; an error message if not."""
    if not (SRC / "quadellipse" / "__init__.py").is_file():
        return f"no quadellipse package under {SRC}"
    sys.path.insert(0, str(SRC))
    import quadellipse

    if Path(quadellipse.__file__).resolve().parent != (SRC / "quadellipse").resolve():
        return f"quadellipse was imported from {quadellipse.__file__}, not {SRC}"
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description="quadellipse benchmark")
    parser.add_argument("--workload", required=True, choices=("scan", "inscribe", "suite", "cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = load_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    import numpy

    import spans
    import speed
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    env = workloads.child_env(SRC)
    probe = speed.bare_start_probe(env, ROOT) if cls.children else speed.SpeedProbe()
    setup_runs, setup_raw, bench = [], [], None
    for _ in range(SETUP_REPEATS):
        bench = None
        gc.collect()
        probe.sample()
        import_s = workloads.child_import_seconds("quadellipse", env, ROOT)
        t0 = time.perf_counter()
        bench = cls(args.seed)
        setup_raw.append(import_s + time.perf_counter() - t0)
        probe.sample()
        setup_runs.append(setup_raw[-1] / probe.factor(len(probe.samples) - 2))
    setup_s = statistics.median(setup_runs)

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "items_per_op": bench.items_per_op,
        "setup_s_raw": setup_raw,
    }
    if not bench.children:
        # Peak so far, from imports and set-up; peak_rss_mb above it was
        # reached in the loop.
        facts["peak_rss_before_loop_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first_pass = FirstPass(bench.pass_ops)
    if args.trace:
        plain = measure(bench, args.seconds / 2.0, probe, first_pass)
        tracer = spans.Tracer()
        tracer.install()
        try:
            run = measure(bench, args.seconds / 2.0, probe, first_pass, tracer)
            tracer.op_id = -1
            cli_probes = bench.probes() if hasattr(bench, "probes") else {}
        finally:
            tracer.uninstall()
        first_pass.complete(bench)
        span_path = workloads.OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(span_path)
        metrics = tracer.layer_metrics(run.slowness)
        for name in workloads.CLI_METRICS:
            metrics[name] = cli_probes.get(name, 0.0)
        for cause in workloads.CAUSES:
            metrics[f"errors.{cause}.count"] = first_pass.tally.causes.get(cause, {}).get("count", 0)
        plain_rate = plain.end_to_end(setup_s, first_pass.tally)["items_per_s"]
        traced_rate = run.end_to_end(setup_s, first_pass.tally)["items_per_s"]
        metrics["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
        units = {name: layer_unit(name) for name in metrics}
        facts["spans"] = str(span_path.relative_to(ROOT))
        facts["spans_recorded"] = len(tracer.op)
    else:
        run = measure(bench, args.seconds, probe, first_pass)
        first_pass.complete(bench)
        metrics = run.end_to_end(setup_s, first_pass.tally)
        units = E2E_UNITS
    tallies = {"untraced": plain.loop, "traced": run.loop} if args.trace else {"loop": run.loop}
    tallies["first_pass"] = first_pass.tally
    unexplained = sum(t.unexplained for t in tallies.values())
    done = first_pass.tally
    p_tail, _ = tail(run.latencies_ns)
    facts.update(
        op_tail_pct=p_tail,
        op_samples=len(run.latencies_ns),
        speed=run.speed,
        speed_probes=len(probe.samples),
        raw_items_per_s=(run.loop.attempted - run.loop.failed) / run.wall_s,
        raw_op_p50_ms=statistics.median(run.latencies_ns) / 1e6,
        pass_ops=bench.pass_ops,
        pass_ops_after_loop=first_pass.after_loop,
        fail_frac=done.failed / done.attempted,
        loop_fail_frac=run.loop.failed / run.loop.attempted,
        unexplained_failures=unexplained,
        units=units,
        **bench.facts(range(len(run.latencies_ns))),
    )
    print(json.dumps({"facts": facts}))
    for label, tally in tallies.items():
        for cause, entry in sorted(tally.causes.items()):
            print(json.dumps({"failure": {"cause": cause, "scope": label, **entry}}))
    result = {
        "correct": unexplained == 0,
        "attempted": done.attempted,
        "failed": done.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
