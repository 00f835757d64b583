"""Spans around calls into each fireimpact module, recorded from outside.

``install`` rebinds module attributes to timing wrappers. Every module
attribute that refers to a traced function is rebound, so names brought
in with ``from .x import y`` (``pipeline.building_loss``,
``impact.polygons_cell_indices``, ``perimeters.trace_mask_boundary``)
are traced as well as calls inside the defining module. Functions called
thousands of times per run are aggregated: one span per parent span with
a call count and the summed time.

Spans stay in memory and are returned as plain dicts at the end. Counts
are taken from arguments and results after the traced call has returned,
inside a ``trace.count`` span, so their cost is charged to tracing and
not to the caller's self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from typing import Any, Callable

import numpy as np

READERS = (
    "read_manifest", "read_detections", "read_ascii_grid", "read_blocks",
    "read_roads", "read_buildings", "read_pois", "read_districts",
    "read_weights", "read_costs", "read_demographics",
)
WRITERS = ("write_ascii_grid", "write_daily_perimeters_geojson", "write_report")


def _count_kde(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    points, grid, params = args[:3]
    counts["perimeters.kde_points"] += len(points)
    if not points:
        return
    radius = params.cutoff_sigmas * params.bandwidth_m
    px = np.array([p.location.x for p in points])
    py = np.array([p.location.y for p in points])
    xs = grid.center_xs()
    ys = grid.center_ys()[::-1]
    n_cols = np.searchsorted(xs, px + radius, "right") - np.searchsorted(xs, px - radius, "left")
    n_rows = np.searchsorted(ys, py + radius, "right") - np.searchsorted(ys, py - radius, "left")
    counts["perimeters.kde_cell_evals"] += int(
        (np.maximum(n_cols, 0) * np.maximum(n_rows, 0)).sum()
    )


def _count_extract(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    for day in result:
        counts["perimeters.new_burn_cells"] += day.new_burn.popcount()
        counts["perimeters.active_cells"] += day.active.popcount()


def _count_trace(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["geometry.trace_rings"] += len(result)
    counts["geometry.trace_holes"] += sum(len(p.holes) for p in result)


def _count_building_loss(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["impact.buildings_charged"] += result[1]


def _count_downscale(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    report = result[1]
    counts["dasymetric.blocks"] += len(report.allocations)
    counts["dasymetric.fallback_blocks"] += len(report.fallback_ids())
    counts["dasymetric.overlap_cells"] += report.overlap_cells


def _count_detections(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["io_formats.detections_read"] += len(result)


def _count_bytes(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["io_formats.bytes_written"] += os.path.getsize(kwargs.get("path", args[-1]))


# (module, function, span name, aggregate, counter)
TRACED: tuple[tuple[str, str, str, bool, Callable | None], ...] = (
    ("cli", "main", "cli.main", False, None),
    ("pipeline", "load_layers", "pipeline.load_layers", False, None),
    ("pipeline", "compute_perimeters", "pipeline.compute_perimeters", False, None),
    ("pipeline", "compute_population", "pipeline.compute_population", False, None),
    ("pipeline", "exposure_by_block", "pipeline.exposure_by_block", False, None),
    ("pipeline", "assess", "pipeline.assess", False, None),
    *(
        ("io_formats", name, "io_formats.read", False,
         _count_detections if name == "read_detections" else None)
        for name in READERS
    ),
    *(("io_formats", name, "io_formats.write", False, _count_bytes) for name in WRITERS),
    ("perimeters", "extract_daily_perimeters", "perimeters.extract", False, _count_extract),
    ("perimeters", "kde_surface", "perimeters.kde", False, _count_kde),
    ("perimeters", "threshold_surface", "perimeters.threshold", False, None),
    ("geometry", "trace_mask_boundary", "geometry.trace_mask_boundary", False, _count_trace),
    ("geometry", "point_in_polygon", "geometry.point_in_polygon", True, None),
    ("geometry", "polygons_cell_indices", "geometry.polygons_cell_indices", True, None),
    ("geometry", "rasterize_polyline", "geometry.rasterize_polyline", True, None),
    ("dasymetric", "rasterize_blocks", "dasymetric.rasterize_blocks", False, None),
    ("dasymetric", "downscale", "dasymetric.downscale", False, _count_downscale),
    ("dasymetric", "validate_mass", "dasymetric.validate_mass", False, None),
    ("impact", "building_loss", "impact.building_loss", False, _count_building_loss),
    ("impact", "land_use_loss", "impact.land_use_loss", False, None),
    ("impact", "road_loss", "impact.road_loss", False, None),
    ("impact", "poi_exposure", "impact.poi_exposure", False, None),
    ("impact", "population_exposure", "impact.population_exposure", False, None),
    ("impact", "demographic_breakdown", "impact.demographic_breakdown", False, None),
)


class Tracer:
    """Span recorder for one run; spans are [name, start, end, parent, calls, busy].

    ``busy`` is the time spent inside the span: end - start for a plain
    span, the summed call time for an aggregated one.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.aggregated: dict[tuple[int, str], int] = {}
        self.counts: Counter = Counter()

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 1, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable, aggregate: bool, counter: Callable | None):
        clock = time.perf_counter

        if aggregate:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    parent = self.stack[-1] if self.stack else -1
                    idx = self.aggregated.get((parent, name))
                    if idx is None:
                        self.aggregated[(parent, name)] = len(self.spans)
                        self.spans.append([name, start, end, parent, 1, end - start])
                    else:
                        span = self.spans[idx]
                        span[2] = end
                        span[4] += 1
                        span[5] += end - start
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = self._open(name)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    span[5] = span[2] - span[1]
                    self.stack.pop()
                if counter is not None:
                    bookkeeping = self._open("trace.count")
                    bookkeeping[1] = clock()
                    counter(self.counts, args, kwargs, result)
                    bookkeeping[2] = clock()
                    bookkeeping[5] = bookkeeping[2] - bookkeeping[1]
                    self.stack.pop()
                return result

        return traced

    def install(self) -> list[str]:
        """Rebind every traced function in every imported fireimpact module.

        Returns the functions that do not exist in this version of the
        program; their metrics read zero.
        """
        modules = {
            name.removeprefix("fireimpact."): mod
            for name, mod in sys.modules.items()
            if name.startswith("fireimpact.")
        }
        missing = []
        for module, func, span, aggregate, counter in TRACED:
            original = getattr(modules.get(module), func, None)
            if original is None:
                missing.append(f"{module}.{func}")
                continue
            wrapper = self.wrap(span, original, aggregate, counter)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return missing

    def export(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id,
                 "calls": c, "busy": b}
                for n, s, e, p, c, b in self.spans
            ],
            "counts": dict(self.counts),
        }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Busy time minus the busy time of direct children, summed by name."""
    child_busy = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_busy[span["parent"]] += span["busy"]
    out: dict[str, float] = {}
    for span, inner in zip(spans, child_busy):
        out[span["name"]] = out.get(span["name"], 0.0) + span["busy"] - inner
    return out


def calls(spans: list[dict], parent_name: str | None = None) -> dict[str, int]:
    """Call counts by span name, optionally only under parents of one name."""
    out: dict[str, int] = {}
    for span in spans:
        if parent_name is not None:
            if span["parent"] < 0 or spans[span["parent"]]["name"] != parent_name:
                continue
        out[span["name"]] = out.get(span["name"], 0) + span["calls"]
    return out
