"""Spans around the library's public functions, for the traced run.

A traced run swaps each function in ``TRACED`` for a wrapper wherever a
module of the package binds it, so calls the library makes to itself are
recorded too (``max_area_ellipse`` calling ``normalize``, say). Nothing is
changed on disk, and ``Tracer.uninstall`` puts the originals back. Spans are
kept in memory as flat columns and written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
import time
from array import array
from pathlib import Path

# (module, function) pairs measured as layers, in report order.
TRACED = (
    ("verify", "conjecture_scan"),
    ("verify", "circumscribed_min_ratio"),
    ("verify", "scan_sample_vertices"),
    ("verify", "sample_convex_quad"),
    ("verify", "check_ratio_formula"),
    ("verify", "scan_z_bound"),
    ("verify", "check_lemma22"),
    ("verify", "check_area_inequality"),
    ("verify", "check_foci_on_bestfit"),
    ("family", "max_area_ellipse"),
    ("family", "max_area_by_search"),
    ("family", "ellipse_at_center"),
    ("family", "midpoint_ellipse"),
    ("conic", "conic_to_ellipse"),
    ("conic", "line_tangency"),
    ("conic", "foci"),
    ("conic", "ellipse_area"),
    ("quad", "validate"),
    ("quad", "normalize"),
    ("quad", "parallelogram_frame"),
    ("quad", "quad_area"),
    ("bestfit", "best_fit_line"),
    ("svgfig", "render_svg"),
)

# Layers that report only a derived figure rather than .us/.calls/.fails.
_PER_QUAD_ONLY = {"verify.conjecture_scan"}

PACKAGE = "quadellipse"


class Tracer:
    """Records one span per traced call: its op id, parent span, layer,
    start and end (ns), whether it raised, and a size (bytes or quads, else
    0). A span's id is its row number. Calls made while ``recording`` is
    false, such as the benchmark's own checks, are not recorded."""

    def __init__(self) -> None:
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.op = array("q")
        self.parent = array("q")
        self.layer = array("h")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self.size = array("q")
        self.op_id = -1
        self.recording = True
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: int, fn):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(self.op)
            for column, value in (
                (self.op, self.op_id),
                (self.parent, self._stack[-1] if self._stack else -1),
                (self.layer, layer),
                (self.start, 0),
                (self.end, 0),
                (self.failed, 0),
                (self.size, 0),
            ):
                column.append(value)
            self._stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failed[sid] = 1
                raise
            finally:
                self.end[sid] = clock()
                self.start[sid] = t0
                self._stack.pop()
            if isinstance(out, bytes):
                self.size[sid] = len(out)
            elif hasattr(out, "sample_count"):
                self.size[sid] = out.sample_count
            return out

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded package module."""
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, (mod_name, fn_name) in enumerate(TRACED):
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_metrics(self, slowness) -> dict[str, float]:
        """Median microseconds, call count and failure count per layer.

        Each span's time is divided by the speed-probe ``slowness`` of its
        op; spans recorded outside the timed loop (op -1) are taken as they
        are.
        """
        durations: list[list[float]] = [[] for _ in TRACED]
        per_quad: list[list[float]] = [[] for _ in TRACED]
        sizes: list[list[int]] = [[] for _ in TRACED]
        fails = [0] * len(TRACED)
        for op, layer, t0, t1, failed, size in zip(
            self.op, self.layer, self.start, self.end, self.failed, self.size
        ):
            us = (t1 - t0) / 1e3 / (slowness[op] if op >= 0 else 1.0)
            durations[layer].append(us)
            fails[layer] += failed
            if size:
                sizes[layer].append(size)
                per_quad[layer].append(us / size)
        out: dict[str, float] = {}
        for layer, name in enumerate(self.names):
            if name in _PER_QUAD_ONLY:
                out[f"{name}.us_per_quad"] = _median(per_quad[layer])
                continue
            out[f"{name}.us"] = _median(durations[layer])
            out[f"{name}.calls"] = len(durations[layer])
            out[f"{name}.fails"] = fails[layer]
        out["svgfig.render_svg.bytes"] = _median(sizes[self.names.index("svgfig.render_svg")])
        return out

    def write(self, path: Path) -> None:
        """Write all spans as gzipped tab-separated rows with a header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_ns\tend_ns\tfailed\tsize\n")
            names = self.names
            for row in zip(range(len(self.op)), self.op, self.parent, self.layer, self.start, self.end, self.failed, self.size):
                fh.write(
                    f"{row[0]}\t{row[1]}\t{row[2]}\t{names[row[3]]}\t{row[4]}\t{row[5]}\t{row[6]}\t{row[7]}\n"
                )


def _median(values) -> float:
    """Median, or 0 for a layer the workload never called."""
    return float(statistics.median(values)) if values else 0.0
