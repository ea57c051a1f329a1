"""Machine-speed probe, so that timings from a shared host can be compared.

The host this benchmark was written on switches between a fast and a slow
state every few seconds, the slow one about half again as slow, and CPU
time slows with wall time. Timings taken as they are therefore spread by
20-30% between runs of the same code. The probe times a fixed pure-Python
kernel, written out in this benchmark and so the same in every commit it
measures, at least every EVERY_NS; each op's time is divided by the mean of
the probes just before and just after it over NOMINAL_S, which reports it
at a nominal host speed. A change to the library moves the op's time but
not the kernel's, so it still shows. The two CPUs of that host change speed
independently, so ``run.py`` keeps the benchmark and its children on one.

Child processes spend much of their start-up in the operating system and
follow the kernel only part of the way, so workloads whose ops are child
processes probe with a bare interpreter start instead.
"""

from __future__ import annotations

import subprocess
import sys
import time

import corpus

# Probe times that define the nominal speed, and the probing interval.
NOMINAL_S = 1e-3
BARE_START_NOMINAL_S = 0.05
EVERY_NS = 25_000_000

_QUADS = (
    ((0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (0.0, 1.0)),
    ((0.0, 0.0), (2.0, 0.1), (2.5, 1.7), (-0.3, 1.2)),
    ((-1.0, -0.5), (1.5, -0.7), (1.1, 0.9), (-0.8, 0.6)),
    ((0.2, 0.1), (3.0, 0.4), (2.2, 2.9), (0.1, 1.4)),
)


def kernel() -> float:
    """Float arithmetic, calls and small tuples, like the library's own code."""
    acc = 0.0
    for _ in range(20):
        for i, pts in enumerate(_QUADS):
            acc += corpus.shoelace(pts)
            acc += corpus.principal_angle(pts)[0] or 0.0
            acc += corpus.inside_quad(pts, (0.5, 0.5), 0.0)
            acc += corpus.paper_ratio(2.0 + 0.1 * i, 3.0)
    return acc


class SpeedProbe:
    """Times ``probe`` (``kernel`` unless given), whose time at nominal host
    speed is ``nominal_s``."""

    def __init__(self, probe=kernel, nominal_s: float = NOMINAL_S) -> None:
        self.probe = probe
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self._last_ns = 0

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        self.probe()
        self._last_ns = time.perf_counter_ns()
        self.samples.append((self._last_ns - t0) / 1e9)

    def maybe_sample(self, now_ns: int) -> None:
        if now_ns - self._last_ns >= EVERY_NS:
            self.sample()

    def factor(self, j: int) -> float:
        """Host slowness around the gap after probe ``j``: the mean of the
        probes on either side over nominal; above one when running slow."""
        return 0.5 * (self.samples[j] + self.samples[j + 1]) / self.nominal_s


def bare_start_probe(env: dict, cwd) -> SpeedProbe:
    """Probe that times ``python -c pass``, for ops that are child processes."""

    def start() -> None:
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)

    return SpeedProbe(start, BARE_START_NOMINAL_S)
