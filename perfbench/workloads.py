"""The two benchmark workloads: seeded inputs, CLI arguments and gates.

Both share one scenario: a 208x416-cell grid (20 m cells) with two
200x200-cell districts and a 10-day scripted burn, built by
``fireimpact.scenario.generate`` from the workload seed. The program only
ever sees the files written here.

A gate returns a list of problems; an empty list means the run's output
is correct. Gates read the output files directly and share no code with
the pipeline they check; they use only the scenario's parameters and the
projection's earth radius.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fireimpact.geometry import EARTH_RADIUS_M, Point, unproject_to_lonlat
from fireimpact.grid import AnalysisGrid
from fireimpact.scenario import DistrictSpec, ScenarioSpec, generate

N_ROWS, N_COLS, CELL = 208, 416, 20.0
N_DAYS = 10
DISTRICTS = (
    DistrictSpec("district-a", 4, 203, 4, 203, 2, 400_000),
    DistrictSpec("district-b", 4, 203, 212, 411, 6, 300_000),
)
# perimeters-noisy: probability that a district cell first burns on day 1, 2, 3.
NOISY_DAY_PROBS = (0.62, 0.10, 0.08)


def scenario_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        seed=seed, n_days=N_DAYS, n_rows=N_ROWS, n_cols=N_COLS, cell_size=CELL,
        districts=list(DISTRICTS),
    )


@dataclass
class Inputs:
    """One generated input tree plus what the gates need to know about it."""

    root: Path
    spec: ScenarioSpec
    n_buildings: int
    # perimeters-noisy only: district name -> first-burn day (0 = never)
    # over the district's own rows and columns.
    first_day: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def manifest(self) -> Path:
        return self.root / "manifest.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], Inputs]
    argv: Callable[[Inputs, Path], list[str]]
    gate: Callable[[Inputs, Path], list[str]]
    event_days: int

    @property
    def cells(self) -> int:
        return N_ROWS * N_COLS


def build_scripted(seed: int, root: Path) -> Inputs:
    spec = scenario_spec(seed)
    generate(spec, root)
    n_buildings = (root / "buildings.geojson").read_text().count('"Feature"')
    return Inputs(root, spec, n_buildings)


def build_noisy(seed: int, root: Path) -> Inputs:
    """The scenario tree with detections.csv replaced by salt-and-pepper burns.

    Each district cell first burns on day 1, 2 or 3 with the probabilities
    in NOISY_DAY_PROBS, or never; one detection sits at the center of each
    burning cell on its day. At the 4 m bandwidth the thresholded KDE
    recovers exactly these cells, so they are the expected new-burn masks.
    """
    inputs = build_scripted(seed, root)
    (root / "ground_truth.csv").unlink()
    spec = inputs.spec
    grid = AnalysisGrid(0.0, 0.0, spec.cell_size, spec.n_rows, spec.n_cols)
    rng = np.random.default_rng([seed, 1])
    edges = np.cumsum(NOISY_DAY_PROBS)
    rows: list[tuple[str, str, str]] = []
    for d in spec.districts:
        u = rng.random((d.n_rows(), d.n_cols()))
        first = np.where(u < edges[-1], np.searchsorted(edges, u, side="right") + 1, 0)
        inputs.first_day[d.name] = first.astype(np.int8)
        for day in range(1, len(NOISY_DAY_PROBS) + 1):
            date = (spec.start_date + dt.timedelta(days=day - 1)).isoformat()
            for r, c in zip(*np.nonzero(first == day)):
                lon, lat = unproject_to_lonlat(
                    Point(grid.center_x(int(c) + d.col0), grid.center_y(int(r) + d.row0)),
                    spec.origin_lon, spec.origin_lat,
                )
                # repr of a Python float; a numpy scalar's repr would not parse.
                rows.append((repr(float(lat)), repr(float(lon)), date))
    with (root / "detections.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["latitude", "longitude", "acq_date", "frp", "confidence"])
        for lat, lon, date in rows:
            writer.writerow([lat, lon, date, "10.0", "n"])
    return inputs


def argv_assess_scripted(inputs: Inputs, out: Path) -> list[str]:
    return ["assess", "--manifest", str(inputs.manifest), "--out", str(out),
            "--bandwidth-m", "4"]


def argv_perimeters(inputs: Inputs, out: Path) -> list[str]:
    return ["perimeters", "--manifest", str(inputs.manifest), "--out", str(out),
            "--bandwidth-m", "4"]


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def gate_assess_scripted(inputs: Inputs, out: Path) -> list[str]:
    """report.csv equals ground_truth.csv on every ground-truth column."""
    report_path = out / "report.csv"
    if not report_path.is_file():
        return ["report.csv missing"]
    truth = _read_csv(inputs.root / "ground_truth.csv")
    report = _read_csv(report_path)
    by_key = {(r.get("date"), r.get("district")): r for r in report}
    problems = []
    if len(by_key) != len(report) or len(report) != len(truth):
        problems.append(f"{len(report)} report rows for {len(truth)} ground-truth rows")
    for t in truth:
        row = by_key.get((t["date"], t["district"]))
        if row is None:
            problems.append(f"no report row for {t['date']} {t['district']}")
            continue
        for col, want in t.items():
            if row.get(col) != want:
                problems.append(
                    f"{t['date']} {t['district']} {col}: {row.get(col)!r} != {want!r}"
                )
    return problems


def gate_perimeters(inputs: Inputs, out: Path) -> list[str]:
    """Each day's new-burn .asc is the scripted mask, and its GeoJSON
    rasterizes back to it; the cumulative .asc is the union of the days."""
    spec = inputs.spec
    problems = []
    n_event_days = len(NOISY_DAY_PROBS)
    expected_files = set()
    for d in spec.districts:
        slug = d.name.replace(" ", "_")
        union = np.zeros((spec.n_rows, spec.n_cols), dtype=bool)
        for day in range(1, n_event_days + 1):
            want = np.zeros((spec.n_rows, spec.n_cols), dtype=bool)
            want[d.row0 : d.row1 + 1, d.col0 : d.col1 + 1] = inputs.first_day[d.name] == day
            union |= want
            stem = f"new_burn_{slug}_{(spec.start_date + dt.timedelta(days=day - 1)).isoformat()}"
            expected_files |= {f"{stem}.asc", f"{stem}.geojson"}
            where = f"{d.name} day {day}"
            problems += _compare(where + " .asc", _read_asc_mask(out / f"{stem}.asc", spec), want)
            problems += _compare(
                where + " .geojson", _rasterize_geojson(out / f"{stem}.geojson", spec), want
            )
        expected_files.add(f"cumulative_{slug}.asc")
        problems += _compare(
            f"{d.name} cumulative .asc", _read_asc_mask(out / f"cumulative_{slug}.asc", spec), union
        )
    extra = sorted({p.name for p in out.iterdir()} - expected_files) if out.is_dir() else []
    if extra:
        problems.append(f"unexpected output files: {extra[:5]}")
    return problems


def _compare(where: str, got: np.ndarray | str, want: np.ndarray) -> list[str]:
    if isinstance(got, str):
        return [f"{where}: {got}"]
    diff = int(np.count_nonzero(got != want))
    return [f"{where}: {diff} cells differ from the scripted mask"] if diff else []


def _read_asc_mask(path: Path, spec: ScenarioSpec) -> np.ndarray | str:
    if not path.is_file():
        return "missing"
    tokens = path.read_text().split()
    header = dict(zip(tokens[0:12:2], tokens[1:12:2]))
    if header.get("ncols") != str(spec.n_cols) or header.get("nrows") != str(spec.n_rows):
        return f"bad header {header}"
    body = tokens[12:]
    if len(body) != spec.n_rows * spec.n_cols or set(body) - {"0", "1"}:
        return "body is not a 0/1 grid of the expected size"
    return np.array(body).reshape(spec.n_rows, spec.n_cols) == "1"


def _rasterize_geojson(path: Path, spec: ScenarioSpec) -> np.ndarray | str:
    """Even-odd fill of rings that run along cell edges.

    Every ring vertex must sit on a grid corner. A vertical edge at corner
    column j spanning corner rows i0..i1 toggles the cells right of it in
    rows i0..i1-1; the parity of toggles left of a cell's center is its
    value. Overlapping polygons therefore cancel instead of merging.
    """
    if not path.is_file():
        return "missing"
    try:
        features = json.loads(path.read_text())["features"]
        if any(f["geometry"]["type"] != "Polygon" for f in features):
            return "a geometry is not a Polygon"
        rings = [np.asarray(r, dtype=float).reshape(-1, 2)
                 for f in features for r in f["geometry"]["coordinates"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable GeoJSON ({exc!r})"
    mask = np.zeros((spec.n_rows, spec.n_cols), dtype=bool)
    if not rings:
        return mask
    lengths = np.array([len(r) for r in rings])
    lonlat = np.concatenate(rings)
    k = math.pi / 180.0
    x = EARTH_RADIUS_M * (lonlat[:, 0] - spec.origin_lon) * k * math.cos(spec.origin_lat * k)
    y = EARTH_RADIUS_M * (lonlat[:, 1] - spec.origin_lat) * k
    j_f = x / spec.cell_size
    i_f = spec.n_rows - y / spec.cell_size
    j, i = np.rint(j_f).astype(np.int64), np.rint(i_f).astype(np.int64)
    if max(np.abs(j_f - j).max(), np.abs(i_f - i).max()) > 1e-6:
        return "ring vertex off the cell-corner lattice"
    if i.min() < 0 or j.min() < 0 or i.max() > spec.n_rows or j.max() > spec.n_cols:
        return "ring leaves the grid"
    last = np.cumsum(lengths) - 1
    first = last - lengths + 1
    if lengths.min() < 5 or np.any(i[first] != i[last]) or np.any(j[first] != j[last]):
        return "ring is not closed"
    # Edges join consecutive vertices of one ring, never the last vertex of
    # a ring to the first of the next.
    within = np.ones(len(i) - 1, dtype=bool)
    within[last[:-1]] = False
    i0, i1 = i[:-1][within], i[1:][within]
    j0, j1 = j[:-1][within], j[1:][within]
    if np.any((i0 != i1) & (j0 != j1)):
        return "ring edge is not axis-aligned"
    vertical = i0 != i1
    col = j0[vertical]
    toggles = np.zeros((spec.n_rows + 1, spec.n_cols + 1), dtype=np.int64)
    np.add.at(toggles, (np.minimum(i0, i1)[vertical], col), 1)
    np.add.at(toggles, (np.maximum(i0, i1)[vertical], col), -1)
    crossings = np.cumsum(toggles, axis=0)[: spec.n_rows]
    mask[:] = (np.cumsum(crossings, axis=1)[:, : spec.n_cols] % 2) == 1
    return mask


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "assess-scripted",
            "overlay and downscale work with an exact ground truth; "
            "building footprint rasterization dominates",
            build_scripted, argv_assess_scripted, gate_assess_scripted, N_DAYS,
        ),
        Workload(
            "perimeters-noisy",
            "salt-and-pepper masks make boundary tracing dominate; "
            "no impact or dasymetric work",
            build_noisy, argv_perimeters, gate_perimeters, len(NOISY_DAY_PROBS),
        ),
    )
}
