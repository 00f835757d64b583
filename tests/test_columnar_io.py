"""The array-native detections reader and perimeter writers against their
former per-object implementations, kept here verbatim as references.

Each reference works one Python object per detection, vertex or cell; the
rewrites must give the same detections, the same error text and the same
bytes.
"""

import csv
import datetime as dt
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireimpact.errors import FormatError, SchemaError, ValidationError
from fireimpact.geometry import Polygon, project_lonlat, unproject_to_lonlat
from fireimpact.grid import AnalysisGrid, CategoryRaster, Mask, RealRaster
from fireimpact.io_formats import (
    _open_text,
    read_detections,
    write_ascii_grid,
    write_daily_perimeters_geojson,
)
from fireimpact.perimeters import DailyPerimeter, Detection
from test_geometry import reference_trace_mask_boundary

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

_CONFIDENCE = {
    "l": "low", "low": "low",
    "n": "nominal", "nominal": "nominal",
    "h": "high", "high": "high",
}


def reference_read_detections(
    path: str | Path,
    origin_lon: float,
    origin_lat: float,
    start_date: dt.date | None = None,
    end_date: dt.date | None = None,
) -> list[Detection]:
    """Parse a FIRMS-style CSV: latitude, longitude, acq_date [, frp, confidence].

    Bad rows are collected and reported together with their line numbers
    after the whole file has been scanned; rows outside the configured
    event window are dropped.
    """
    path = Path(path)
    detections: list[Detection] = []
    problems: list[str] = []
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a CSV header") from None
        cols = {name.strip().lower(): i for i, name in enumerate(header)}
        for required in ("latitude", "longitude", "acq_date"):
            if required not in cols:
                raise SchemaError(f"{path}: missing required column {required!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                lat = float(row[cols["latitude"]])
                lon = float(row[cols["longitude"]])
            except (ValueError, IndexError):
                problems.append(f"line {lineno}: unparseable coordinate")
                continue
            try:
                date = dt.date.fromisoformat(row[cols["acq_date"]].strip())
            except (ValueError, IndexError):
                problems.append(f"line {lineno}: unparseable acq_date")
                continue
            frp = None
            if "frp" in cols and cols["frp"] < len(row) and row[cols["frp"]].strip():
                try:
                    frp = float(row[cols["frp"]])
                    if frp < 0 or not math.isfinite(frp):
                        raise ValueError
                except ValueError:
                    problems.append(f"line {lineno}: bad frp value")
                    continue
            confidence = None
            if "confidence" in cols and cols["confidence"] < len(row):
                raw = row[cols["confidence"]].strip().lower()
                if raw:
                    if raw not in _CONFIDENCE:
                        problems.append(f"line {lineno}: bad confidence {raw!r}")
                        continue
                    confidence = _CONFIDENCE[raw]
            if start_date and date < start_date:
                continue
            if end_date and date > end_date:
                continue
            try:
                detections.append(
                    Detection(
                        location=project_lonlat(lon, lat, origin_lon, origin_lat),
                        date=date,
                        frp=frp,
                        confidence=confidence,
                    )
                )
            except ValidationError as exc:
                raise type(exc)(f"{path}: line {lineno}: {exc}") from None
    if problems:
        raise SchemaError(f"{path}: {len(problems)} bad row(s): " + "; ".join(problems))
    return detections


def reference_write_ascii_grid(
    raster: CategoryRaster | RealRaster, path: str | Path
) -> None:
    """Write an ESRI ASCII grid; reals keep 17 significant digits."""
    path = Path(path)
    g = raster.grid
    if isinstance(raster, CategoryRaster):
        nodata: float = raster.nodata
        fmt = str  # class codes are int32, so tolist() gives ints
    else:
        nodata = -9999
        fmt = "{:.17g}".format
    with path.open("w") as fh:
        fh.write(f"ncols {g.n_cols}\n")
        fh.write(f"nrows {g.n_rows}\n")
        fh.write(f"xllcorner {g.origin_x:.17g}\n")
        fh.write(f"yllcorner {g.origin_y:.17g}\n")
        fh.write(f"cellsize {g.cell_size:.17g}\n")
        fh.write(f"NODATA_value {nodata}\n")
        for row in raster.cells:
            fh.write(" ".join(map(fmt, row.tolist())) + "\n")


def write_feature_collection(features: list[dict], path: str | Path) -> None:
    doc = {"type": "FeatureCollection", "features": features}
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def polygon_to_geojson_coords(
    poly: Polygon, origin_lon: float, origin_lat: float
) -> list[list[list[float]]]:
    rings = []
    for ring in poly.rings():
        rings.append(
            [list(unproject_to_lonlat(p, origin_lon, origin_lat)) for p in ring]
        )
    return rings


def reference_write_daily_perimeters_geojson(
    district: str,
    day: DailyPerimeter,
    origin_lon: float,
    origin_lat: float,
    path: str | Path,
) -> None:
    features = []
    for poly in reference_trace_mask_boundary(day.new_burn):
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Polygon",
                    "coordinates": polygon_to_geojson_coords(poly, origin_lon, origin_lat),
                },
                "properties": {
                    "district": district,
                    "date": day.date.isoformat(),
                    "kind": "new_burn",
                },
            }
        )
    write_feature_collection(features, path)


# ---------------------------------------------------------------------------
# Detections reader
# ---------------------------------------------------------------------------

ORIGIN = (-118.25, 34.05)
D0 = dt.date(2025, 1, 7)

# Per column: values the reader keeps, and values it rejects or that
# project to non-finite coordinates.
GOOD = {
    "latitude": st.floats(-0.2, 0.2).map(lambda d: repr(ORIGIN[1] + d)),
    "longitude": st.floats(-0.2, 0.2).map(lambda d: repr(ORIGIN[0] + d)),
    "acq_date": st.one_of(
        st.integers(-2, 4).map(lambda k: (D0 + dt.timedelta(days=k)).isoformat()),
        st.just(" 2025-01-08 "),
    ),
    "frp": st.sampled_from(["", " ", "10.0", "0", "312.5"]),
    "confidence": st.sampled_from(["", " ", "l", "n", "h", "low", "NOMINAL", " High "]),
    "extra": st.just("z"),
}
BAD = {
    "latitude": st.sampled_from(["", "nan", "inf", "-inf", "1e999", "1e305", "abc"]),
    "longitude": st.sampled_from(["", "nan", "-inf", "1e305", "x"]),
    "acq_date": st.sampled_from(["", "2025-13-01", "20250108", "x"]),
    "frp": st.sampled_from(["-1", "nan", "inf", "x"]),
    "confidence": st.sampled_from(["x", "m", "hi"]),
    "extra": st.just("z"),
}
OPTIONAL_COLUMNS = st.lists(st.sampled_from(["frp", "confidence", "extra"]), unique=True)


@st.composite
def detection_csvs(draw):
    """CSV text with blank lines, short rows, bad values and extreme coordinates."""
    header = ["latitude", "longitude", "acq_date", *draw(OPTIONAL_COLUMNS)]
    header = draw(st.permutations(header))
    lines = [",".join(f" {name.upper()} " if draw(st.booleans()) else name for name in header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["good"] * 6 + ["bad", "blank", "spaces", "short"]))
        row = [draw(GOOD[name]) for name in header]
        if kind == "bad":
            k = draw(st.integers(0, len(header) - 1))
            row[k] = draw(BAD[header[k]])
        elif kind == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        lines.append({"blank": "", "spaces": " , ,"}.get(kind, ",".join(row)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def outcome(read, path, **window):
    """The detections in file order, or the error type and text."""
    try:
        return [*read(path, *ORIGIN, **window)]
    except (FormatError, ValidationError) as exc:
        return type(exc), str(exc)


WINDOW = st.fixed_dictionaries({}, optional={
    "start_date": st.integers(-1, 3).map(lambda k: D0 + dt.timedelta(days=k)),
    "end_date": st.integers(-1, 3).map(lambda k: D0 + dt.timedelta(days=k)),
})


class TestReadDetectionsMatchesReference:
    @given(detection_csvs(), WINDOW)
    @settings(max_examples=300, deadline=None)
    def test_same_detections_and_errors(self, tmp_path_factory, text, window):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text)
        assert outcome(read_detections, path, **window) == outcome(
            reference_read_detections, path, **window
        )

    @pytest.mark.parametrize("first_bad", ["nan", "1e999", "abc"])
    def test_format_error_after_a_bad_row(self, tmp_path, first_bad):
        # The undecodable byte lies past the first read buffer, so the
        # reader meets it only after the row before it.
        good = f"{ORIGIN[1]},{ORIGIN[0]},2025-01-07\n" * 2000
        path = tmp_path / "d.csv"
        path.write_bytes(
            b"latitude,longitude,acq_date\n"
            + f"{first_bad},{ORIGIN[0]},2025-01-07\n".encode()
            + good.encode() + b"\xff\n"
        )
        got = outcome(read_detections, path)
        assert got == outcome(reference_read_detections, path)
        assert got[0] is (FormatError if first_bad == "abc" else ValidationError)

    def test_benchmark_shaped_file(self, tmp_path):
        lines = ["latitude,longitude,acq_date,frp,confidence"]
        rng = np.random.default_rng(5)
        for k in range(3000):
            lat, lon = ORIGIN[1] + rng.uniform(0, 0.05), ORIGIN[0] + rng.uniform(0, 0.05)
            lines.append(f"{lat!r},{lon!r},2025-01-{7 + k % 3:02d},10.0,n")
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        got = read_detections(path, *ORIGIN)
        assert len(got) == 3000
        assert [*got] == reference_read_detections(path, *ORIGIN)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

GRIDS = st.builds(
    AnalysisGrid,
    st.floats(-1e5, 1e5),
    st.floats(-1e5, 1e5),
    st.one_of(st.sampled_from([20.0, 0.3, 1.0]), st.floats(0.01, 1000)),
    st.integers(1, 24),
    st.integers(1, 24),
)


@st.composite
def masks(draw):
    grid = draw(GRIDS)
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    return Mask(grid, rng.random(grid.shape) < density)


class TestWritersMatchReference:
    @given(
        masks(),
        st.floats(-179, 179),
        st.floats(-80, 80),
        st.text(min_size=1, max_size=12),
        st.integers(0, 3000),
    )
    @settings(max_examples=150, deadline=None)
    def test_geojson_bytes(self, tmp_path_factory, mask, lon, lat, district, day):
        out = tmp_path_factory.mktemp("geojson")
        first = np.where(mask.bits, 0, -1).astype(np.int16)
        perimeter = DailyPerimeter(D0 + dt.timedelta(days=day), 0, first, mask)
        write_daily_perimeters_geojson(district, perimeter, lon, lat, out / "new.geojson")
        reference_write_daily_perimeters_geojson(district, perimeter, lon, lat, out / "ref.geojson")
        assert (out / "new.geojson").read_bytes() == (out / "ref.geojson").read_bytes()

    def test_geojson_with_holes_and_non_ascii_name(self, tmp_path):
        g = AnalysisGrid(-310.5, 12.25, 7.5, 9, 11)
        r, c = np.indices(g.shape)
        bits = (np.minimum.reduce([r, c, 8 - r, 10 - c]) % 2 == 0) | ((r + c) % 5 == 0)
        mask = Mask(g, bits)
        perimeter = DailyPerimeter(D0, 0, np.where(bits, 0, -1).astype(np.int16), mask)
        for name, write in (("new", write_daily_perimeters_geojson),
                            ("ref", reference_write_daily_perimeters_geojson)):
            write("Zoë \"Süd\" 東", perimeter, *ORIGIN, tmp_path / f"{name}.geojson")
        text = (tmp_path / "new.geojson").read_bytes()
        assert text == (tmp_path / "ref.geojson").read_bytes()
        doc = json.loads(text)
        assert any(len(f["geometry"]["coordinates"]) > 1 for f in doc["features"])

    @given(
        GRIDS,
        st.integers(0, 2**32 - 1),
        st.sampled_from([(0, 1), (-1, 1), (-9999, 95), (-(2**31), 2**31 - 1)]),
        st.integers(-(2**31), 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_class_grid_bytes(self, tmp_path_factory, grid, seed, code_range, nodata):
        out = tmp_path_factory.mktemp("asc")
        rng = np.random.default_rng(seed)
        lo, hi = code_range
        cells = rng.integers(lo, hi, grid.shape, endpoint=True)
        if rng.random() < 0.5:
            cells = np.where(rng.random(grid.shape) < 0.3, nodata, cells)
        raster = CategoryRaster(grid, cells, nodata=nodata)
        write_ascii_grid(raster, out / "new.asc")
        reference_write_ascii_grid(raster, out / "ref.asc")
        assert (out / "new.asc").read_bytes() == (out / "ref.asc").read_bytes()

    @pytest.mark.parametrize("value", [0, 1, -1, 42])
    def test_1x1_class_grid(self, tmp_path, value):
        raster = CategoryRaster(AnalysisGrid(0, 0, 20, 1, 1), np.array([[value]]), nodata=-1)
        write_ascii_grid(raster, tmp_path / "new.asc")
        reference_write_ascii_grid(raster, tmp_path / "ref.asc")
        assert (tmp_path / "new.asc").read_bytes() == (tmp_path / "ref.asc").read_bytes()
        assert (tmp_path / "new.asc").read_text().endswith(f"NODATA_value -1\n{value}\n")

    @given(GRIDS, st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_real_grid_bytes(self, tmp_path_factory, grid, seed):
        out = tmp_path_factory.mktemp("asc")
        rng = np.random.default_rng(seed)
        cells = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-300, 300, grid.shape)
        raster = RealRaster(grid, cells)
        write_ascii_grid(raster, out / "new.asc")
        reference_write_ascii_grid(raster, out / "ref.asc")
        assert (out / "new.asc").read_bytes() == (out / "ref.asc").read_bytes()
