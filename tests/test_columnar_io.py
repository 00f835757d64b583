"""The array-native readers and perimeter writers against their former
per-object implementations, kept here verbatim as references.

Each reference works one Python object per detection, feature, vertex or
cell; the rewrites must give the same detections, the same polygon
coordinates, the same error text and the same bytes.
"""

import csv
import datetime as dt
import gc
import itertools
import json
import math
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireimpact import io_formats
from fireimpact.dasymetric import Blocks
from fireimpact.errors import FormatError, GeometryError, SchemaError, ValidationError
from fireimpact.geometry import (
    Point,
    PolygonLayer,
    project_lonlat,
    ragged_cell_indices,
    unproject_to_lonlat,
)
from fireimpact.grid import AnalysisGrid, CategoryRaster, Mask, RealRaster
from fireimpact.impact import Districts, Pois, Roads
from fireimpact.io_formats import (
    _ASC_HEADER,
    _finite,
    _load_json,
    _number,
    _object,
    _open_text,
    _required,
    _text,
    _whole,
    parse_value,
    read_ascii_grid,
    read_blocks,
    read_buildings,
    read_detections,
    read_districts,
    read_pois,
    read_roads,
    write_ascii_grid,
    write_daily_perimeters_geojson,
)
from fireimpact.perimeters import DailyPerimeter, Detection
from fireimpact.scenario import ScenarioSpec, generate

import layer_tables as tables
from layer_tables import District, Polygon, polygon_area, polygon_layer
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


# The reference readers build one row object per feature; the readers
# under test build column tables.


@dataclass(frozen=True)
class CensusBlock:
    """One census block: boundary part(s), total population, parent tract."""

    block_id: str
    parts: list[Polygon]
    pop: float
    tract_id: str

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValidationError(f"block {self.block_id} has no boundary parts")
        if not (self.pop >= 0):
            raise ValidationError(f"block {self.block_id} has negative pop {self.pop}")


@dataclass(frozen=True)
class PolyLine:
    """Open chain of at least two points; consecutive vertices distinct."""

    vertices: list[Point]

    def __post_init__(self) -> None:
        pts = [Point(float(p[0]), float(p[1])) for p in self.vertices]
        if not all(math.isfinite(p.x) and math.isfinite(p.y) for p in pts):
            raise GeometryError("polyline has non-finite coordinates")
        if len(pts) < 2:
            raise GeometryError("polyline needs >= 2 vertices")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise GeometryError("polyline has repeated consecutive vertices")
        object.__setattr__(self, "vertices", pts)


@dataclass(frozen=True)
class RoadFeature:
    line: PolyLine
    road_class: str

    def __post_init__(self) -> None:
        if not self.road_class:
            raise ValidationError("road feature needs a class")


@dataclass(frozen=True)
class BuildingFeature:
    footprints: list[Polygon]
    building_id: str

    def __post_init__(self) -> None:
        if not self.footprints:
            raise ValidationError(f"building {self.building_id} has no footprint")

    def area(self) -> float:
        return math.fsum(polygon_area(p) for p in self.footprints)


@dataclass(frozen=True)
class PoiFeature:
    location: Point
    category: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.location.x) and math.isfinite(self.location.y)):
            raise ValidationError("poi has non-finite coordinates")
        if not self.category:
            raise ValidationError("poi feature needs a category")


def reference_read_layer(path, origin_lon, origin_lat, types, properties, build, unique=None):
    """``build(values, shape)`` for each feature of a GeoJSON FeatureCollection.

    Geometry types must be in ``types``; ``values`` holds each property in
    ``properties`` parsed by its function, and ``unique`` names one that
    must not repeat. ``shape`` is the projected Point, PolyLine or list of
    Polygons. Malformed input is a FormatError (exit 2); invalid geometry,
    a repeated value or one ``build`` rejects is a ValidationError (exit 1).
    Both name the file and the feature.
    """
    path = Path(path)
    doc = _load_json(path)
    features = doc.get("features") if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        raise FormatError(f"{path}: expected a FeatureCollection with a features list")

    def position(p) -> Point:
        lon, lat = p[0], p[1]
        if lon.__class__ is bool or lat.__class__ is bool:  # as in _number
            raise TypeError(p)
        return project_lonlat(lon, lat, origin_lon, origin_lat)

    def project(ring) -> list[Point]:
        return [position(p) for p in ring]

    def polygon(rings) -> Polygon:
        return Polygon(project(rings[0]), [project(r) for r in rings[1:]])

    shapes = {
        "Point": position,
        "LineString": lambda c: PolyLine(project(c)),
        "Polygon": lambda c: [polygon(c)],
        "MultiPolygon": lambda c: [polygon(rings) for rings in c],
    }
    out = []
    seen = set()
    for i, feat in enumerate(features):
        features[i] = None  # each feature's JSON is freed once it is built
        where = f"{path}: feature {i}"
        geom = feat.get("geometry") if isinstance(feat, dict) else None
        gtype = geom.get("type") if isinstance(geom, dict) else None
        if gtype not in types:
            raise FormatError(f"{where}: expected {' or '.join(types)}, got {gtype!r}")
        props = parse_value(where, "properties", feat.get("properties") or {}, _object)
        values = {name: _required(where, props, name, parse) for name, parse in properties.items()}
        if unique is not None:
            if values[unique] in seen:
                raise ValidationError(f"{where}: duplicate {unique} {values[unique]!r}")
            seen.add(values[unique])
        try:
            shape = parse_value(where, "coordinates", geom.get("coordinates"), shapes[gtype])
            out.append(build(values, shape))
        except ValidationError as exc:
            raise type(exc)(f"{where}: {exc}") from None
    return out


_POLYGONAL = ("Polygon", "MultiPolygon")


def reference_read_blocks(path, origin_lon, origin_lat):
    return reference_read_layer(
        path, origin_lon, origin_lat, _POLYGONAL,
        {"block_id": _text, "pop": _number, "tract_id": _text},
        lambda v, parts: CensusBlock(v["block_id"], parts, v["pop"], v["tract_id"]),
        unique="block_id",
    )


def reference_read_buildings(path, origin_lon, origin_lat):
    return reference_read_layer(
        path, origin_lon, origin_lat, _POLYGONAL, {"id": _text},
        lambda v, parts: BuildingFeature(parts, v["id"]),
    )


def reference_read_districts(path, origin_lon, origin_lat):
    return reference_read_layer(
        path, origin_lon, origin_lat, _POLYGONAL, {"name": _text},
        lambda v, parts: District(v["name"], parts),
        unique="name",
    )


def reference_read_roads(path, origin_lon, origin_lat):
    return reference_read_layer(
        path, origin_lon, origin_lat, ("LineString",), {"class": _text},
        lambda v, line: RoadFeature(line, v["class"]),
    )


def reference_read_pois(path, origin_lon, origin_lat):
    return reference_read_layer(
        path, origin_lon, origin_lat, ("Point",), {"category": _text},
        lambda v, point: PoiFeature(point, v["category"]),
    )


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
    "frp": st.sampled_from(["", " ", "\x0c", "10.0", "0", "312.5"]),
    "confidence": st.sampled_from(["", " ", "l", "n", "h", "low", "NOMINAL", " High ", "\u2028l"]),
    # \x0c and \u2028 end a line for str.splitlines, not for csv.reader.
    "extra": st.sampled_from(["z", "\x0c", "x\u2028y"]),
}
# Extra-column values only a quoted field can hold.
QUOTED_EXTRA = st.sampled_from(["a,b", "two\nlines", "three\r\nlines", 'say "hi"'])
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
    """CSV text with blank and comma-only lines, short and long rows, bad
    values, extreme coordinates, mixed row ends and, in half the files,
    quoted fields (an extra column may then hold a comma or a newline)."""
    quoting = draw(st.booleans())

    def field(value):
        if quoting and (draw(st.booleans()) or any(c in value for c in ',"\r\n')):
            return '"' + value.replace('"', '""') + '"'
        return value

    header = ["latitude", "longitude", "acq_date", *draw(OPTIONAL_COLUMNS)]
    header = draw(st.permutations(header))
    lines = [",".join(field(f" {name.upper()} " if draw(st.booleans()) else name)
                      for name in header)]
    for _ in range(draw(st.integers(0, 12))):
        kinds = ["good"] * 6 + ["bad", "blank", "spaces", "short", "long"]
        kind = draw(st.sampled_from(kinds))
        row = [draw(GOOD[name]) for name in header]
        if quoting and "extra" in header and draw(st.booleans()):
            row[header.index("extra")] = draw(QUOTED_EXTRA)
        if kind == "bad":
            k = draw(st.integers(0, len(header) - 1))
            row[k] = draw(BAD[header[k]])
        elif kind == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif kind == "long":
            row += ["q", "r"]
        spaces = draw(st.sampled_from([" , ,", ",,,", "\x0c,\u2028"]))
        lines.append({"blank": "", "spaces": spaces}.get(kind, ",".join(map(field, row))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


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


def same_as_reference(tmp_path_factory, text, window):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode())
    assert outcome(read_detections, path, **window) == outcome(
        reference_read_detections, path, **window
    )


class TestReadDetectionsMatchesReference:
    @given(detection_csvs(), WINDOW)
    @settings(max_examples=300, deadline=None)
    def test_same_detections_and_errors(self, tmp_path_factory, text, window):
        same_as_reference(tmp_path_factory, text, window)

    # Blocks of one character end at every line end; 40 cut the files
    # above into a few blocks each, so quotes start past the first one.
    @pytest.mark.parametrize("block_chars", [1, 40])
    @given(detection_csvs(), WINDOW)
    @settings(max_examples=300, deadline=None)
    def test_same_at_small_block_sizes(self, tmp_path_factory, block_chars, text, window):
        with mock.patch.object(io_formats, "BLOCK_CHARS", block_chars):
            same_as_reference(tmp_path_factory, text, window)

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

    # A NUL is data to csv.reader from Python 3.11 on and an error before;
    # a field past the csv field limit (lowered here to 50) is an error.
    @pytest.mark.parametrize("row", [
        "34.1,-118.2,2025-01-07,a\0b", "34.1\0,-118.2,2025-01-07,z",
        "34.1,-118.2,2025-01-07," + "z" * 60, "abc,-118.2,2025-01-07," + "z" * 60,
    ], ids=["nul-extra", "nul-latitude", "long", "bad-then-long"])
    def test_nul_and_overlong_fields(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text("latitude,longitude,acq_date,extra\n" + "34.1,-118.2,2025-01-08,z\n" * 3
                        + row + "\n34.1,-118.2,2025-01-09,z\n")
        limit = csv.field_size_limit(50)
        try:
            got = outcome(read_detections, path)
            assert got == outcome(reference_read_detections, path)
        finally:
            csv.field_size_limit(limit)

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

    def test_viirs_export(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "latitude,longitude,bright_ti4,scan,track,acq_date,acq_time,satellite,"
            "instrument,confidence,version,bright_ti5,frp,daynight\n"
            "34.07411,-118.23522,334.85,0.39,0.36,2025-01-07,0954,N,VIIRS,n,2.0NRT,290.12,5.63,N\n"
            "34.07469,-118.23101,367.0,0.39,0.36,2025-01-07,0954,N,VIIRS,h,2.0NRT,293.4,18.2,N\n"
            "34.0522,-118.2611,301.2,0.52,0.5,2025-01-08,2112,1,VIIRS,l,2.0NRT,280.0,,D\n"
        )
        got = read_detections(path, *ORIGIN)
        assert [*got] == reference_read_detections(path, *ORIGIN)
        assert [d.confidence for d in got] == ["nominal", "high", "low"]
        assert [d.frp for d in got] == [5.63, 18.2, None]
        assert [d.date.day for d in got] == [7, 7, 8]


# Texts that float reads and a plain decimal parser would not: digit
# separators, signs and spaces, full-width digits.
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
ODD = {
    "latitude": ["3_4.1", " +34.1 ", "34.1".translate(FULL_WIDTH)],
    "longitude": ["-11_8.2", " -118.2 ", "-118.2".translate(FULL_WIDTH)],
    "frp": ["1_0.5", " +10 ", "10".translate(FULL_WIDTH)],
}
MEMO_COLUMNS = ["latitude", "longitude", "acq_date", "frp", "confidence"]


def distinct_text(name, k, style):
    """The ``k``-th of a run of distinct texts for column ``name``."""
    if name == "acq_date":
        return (D0 + dt.timedelta(days=k % 400 - 2)).isoformat()
    base = {"latitude": ORIGIN[1], "longitude": ORIGIN[0], "frp": 10.0}[name]
    text = repr(base + k * 1e-6)
    return {"plain": text, "full-width": text.translate(FULL_WIDTH),
            "spaced": f" {text} "}[style]


@st.composite
def repetitive_detection_csvs(draw):
    """Many rows drawn from a few texts per column, so every memo is warm
    long before the end of the file. One late row may bring a bad text not
    seen before, a short row or a blank frp, and one column may turn
    distinct part way, so that its memo is dropped."""
    header = draw(st.permutations(MEMO_COLUMNS))
    pools = {
        name: draw(st.lists(st.one_of(GOOD[name], st.sampled_from(ODD[name]))
                            if name in ODD else GOOD[name], min_size=1, max_size=3))
        for name in header
    }
    n = draw(st.integers(20, 120))
    picks = {name: draw(st.lists(st.integers(0, len(pools[name]) - 1), min_size=n, max_size=n))
             for name in header}
    rows = [[pools[name][picks[name][k]] for name in header] for k in range(n)]
    if draw(st.booleans()):
        name = draw(st.sampled_from(["latitude", "longitude", "acq_date", "frp"]))
        style = draw(st.sampled_from(["plain", "full-width", "spaced"]))
        for k in range(draw(st.integers(n // 4, n // 2)), n):
            rows[k][header.index(name)] = distinct_text(name, k, style)
    late = draw(st.integers(n // 2, n - 1))
    event = draw(st.sampled_from(["none", "bad", "short", "blank frp"]))
    if event == "bad":
        name = draw(st.sampled_from(header))
        rows[late][header.index(name)] = draw(BAD[name])
    elif event == "short":
        rows[late] = rows[late][:draw(st.integers(0, len(header) - 1))]
    elif event == "blank frp":
        rows[late][header.index("frp")] = draw(st.sampled_from(["", " "]))
    return "".join(",".join(row) + "\n" for row in [header, *rows])


class TestReadDetectionsMemos:
    """Each column converts a field text once per file, through a memo
    kept from block to block, until most of its texts prove distinct."""

    # Blocks of one character end at every line end; 40 hold a line or
    # two; the default holds these files whole. A memo may be dropped
    # after 16 fields here.
    @pytest.mark.parametrize("block_chars", [1, 40, io_formats.BLOCK_CHARS])
    @given(repetitive_detection_csvs(), WINDOW)
    @settings(max_examples=150, deadline=None)
    def test_same_as_reference(self, tmp_path_factory, block_chars, text, window):
        with mock.patch.object(io_formats, "BLOCK_CHARS", block_chars), \
                mock.patch.object(io_formats, "_MEMO_TRIAL", 16):
            same_as_reference(tmp_path_factory, text, window)

    @staticmethod
    def recorded_memos():
        """Patch the reader to record its memos, in column order."""
        memos = []

        class Recorded(io_formats._Memo):
            def __init__(self, convert):
                super().__init__(convert)
                memos.append(self)

        return memos, mock.patch.object(io_formats, "_Memo", Recorded)

    @staticmethod
    def dropped(memos):
        """Whether each memo was dropped: its fields then go to ``convert`` itself."""
        return [memo.lookup is memo.convert for memo in memos]

    def test_memo_dropped_mid_file(self, tmp_path):
        # Latitude comes from four texts for 1,000 rows, then from a new
        # text on every row, so its memo is dropped near row 2,000; a bad
        # latitude and a bad confidence text follow.
        lines = ["latitude,longitude,acq_date,frp,confidence"]
        for k in range(3000):
            lat = (repr(ORIGIN[1] + k % 4 * 0.001) if k < 1000
                   else distinct_text("latitude", k, "plain"))
            lines.append(f"{lat},{ORIGIN[0]},2025-01-0{7 + k % 3},12.5,{'nlh'[k % 3]}")
        lines[2500] = f"x,{ORIGIN[0]},2025-01-07,12.5,n"
        lines[2700] = f"{ORIGIN[1]},{ORIGIN[0]},2025-01-07,12.5,m"
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        memos, recording = self.recorded_memos()
        with recording:
            got = outcome(read_detections, path)
        assert got == outcome(reference_read_detections, path)
        assert got[1].endswith("line 2501: unparseable coordinate; line 2701: bad confidence 'm'")
        assert self.dropped(memos) == [True, False, False, False, False]

    # tracemalloc peak of read_detections on this file, measured with the
    # reader of 55d5c0c (one memo per block, rebuilt in each) on CPython
    # 3.11.7 and numpy 2.4.6.
    BLOCK_MEMO_PEAK = 5_244_202

    def test_memory_on_a_distinct_export(self, tmp_path):
        # A VIIRS-shaped export whose coordinates and frp never repeat:
        # memos of all their texts would hold several times the peak.
        rng = np.random.default_rng(17)
        lat = (ORIGIN[1] + rng.uniform(0, 0.4, 60_000)).tolist()
        lon = (ORIGIN[0] + rng.uniform(0, 0.4, 60_000)).tolist()
        frp = rng.uniform(0.5, 300, 60_000).tolist()
        path = tmp_path / "d.csv"
        path.write_text(
            "latitude,longitude,bright_ti4,scan,track,acq_date,acq_time,satellite,"
            "instrument,confidence,version,bright_ti5,frp,daynight\n"
            + "".join(
                f"{lat[k]!r},{lon[k]!r},334.85,0.39,0.36,2025-01-{7 + k % 9:02d},0954,N,VIIRS,"
                f"{'nlh'[k % 3]},2.0NRT,290.12,{frp[k]!r},N\n"
                for k in range(60_000)
            )
        )
        memos, recording = self.recorded_memos()
        with recording:
            read_detections(path, *ORIGIN)
        tracemalloc.start()
        try:
            got = read_detections(path, *ORIGIN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 60_000
        assert peak <= 1.5 * self.BLOCK_MEMO_PEAK
        assert self.dropped(memos) == [True, True, False, True, False]


class TestReadDetectionsInput:
    """Inputs where the reader departs from the reference on purpose."""

    GOOD_ROW = f"{ORIGIN[1]},{ORIGIN[0]},2025-01-07\n"

    @pytest.mark.parametrize("header", [b"latitude,longitude,acq_date\n",
                                        b'latitude,longitude,"acq_date"\n'],
                             ids=["plain", "quoted"])
    @pytest.mark.parametrize("good_rows", [0, 10, 2000])
    def test_non_finite_row_before_an_undecodable_byte(self, tmp_path, header, good_rows):
        # Every complete line before the byte is read, however far the
        # byte is from the start of the file.
        path = tmp_path / "d.csv"
        path.write_bytes(
            header + f"nan,{ORIGIN[0]},2025-01-07\n".encode()
            + (self.GOOD_ROW * good_rows).encode() + b"\xff\n"
        )
        with pytest.raises(ValidationError, match=r"line 2: detection has non-finite"):
            read_detections(path, *ORIGIN)

    @pytest.mark.parametrize("good_rows", [0, 2000])
    @pytest.mark.parametrize("tail", [b"\xff\n", b"\xe2\x82A\n", b"\xe2\x82", b"2025\xed\xa0\x80"])
    def test_undecodable_byte_gives_the_strict_decoder_reason(self, tmp_path, good_rows, tail):
        path = tmp_path / "d.csv"
        path.write_bytes(
            b"latitude,longitude,acq_date\n" + (self.GOOD_ROW * good_rows).encode()
            + f"nan,{ORIGIN[0]},".encode() + tail
        )
        got = outcome(read_detections, path)
        assert got[0] is FormatError and "not UTF-8 text" in got[1]
        with pytest.raises(UnicodeDecodeError) as strict:
            path.read_bytes().decode("utf-8")
        assert got[1] == f"{path}: not UTF-8 text ({strict.value.reason})"

    def test_byte_order_mark(self, tmp_path):
        text = "latitude,longitude,acq_date\n" + self.GOOD_ROW
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert [*read_detections(marked, *ORIGIN)] == [*read_detections(plain, *ORIGIN)]


# ---------------------------------------------------------------------------
# Polygon layer readers
# ---------------------------------------------------------------------------

# Positions are degrees from a (0, 0) origin, so -0.0 projects to -0.0.
ZERO = (0.0, 0.0)
COORD = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 0.5, -1.25]),
    st.floats(-2, 2, allow_nan=False),
)
ALTITUDE = st.sampled_from([0, 12.5, -3, "m", None, [1]])
BAD_POSITION = st.sampled_from([
    "a", "ab", True, None, 5, {}, [], [1], [1, "x"], ["1", 2], [True, 0], [0, False],
    [None, 0], [[0], 0], [math.nan, 0], [0, math.inf], [1e308, 0], [10**400, 0],
])
BAD_RING = st.sampled_from([5, None, True, "", "ab", {}, {"k": 1}, [[0, 0]] * 2])
BAD_RINGS = st.sampled_from([[], None, 7, "", "ab", {}, {"k": []}, [5]])
BAD_MULTI = st.sampled_from([None, 3, "", "ab", {}, {"k": 1}, [[]], [None]])
BAD_PROPERTY = st.sampled_from([
    ("pop", "abc"), ("pop", -1.0), ("pop", True), ("pop", None), ("block_id", {}),
    ("name", ""), ("name", None), ("id", [1]), ("tract_id", None), ("pop", "169"),
])


@st.composite
def polygon_collections(draw):
    """FeatureCollections of Polygons and MultiPolygons, half of them bad.

    Rings take three or more distinct vertices from a small pool and may
    repeat some (0.0 and -0.0 alike); they are open or closed, and some
    positions carry an altitude. In a faulty collection some rings have
    fewer than three distinct vertices and now and then a position, ring,
    polygon, coordinates value or property is malformed.
    """
    pool = draw(st.lists(st.tuples(COORD, COORD), min_size=3, max_size=6, unique=True))
    faulty = draw(st.booleans())

    def rare(n: int) -> bool:
        return faulty and draw(st.integers(0, n - 1)) == 0

    def ring():
        pts = [list(p) for p in draw(st.permutations(pool))[:draw(st.integers(3, len(pool)))]]
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, len(pts) - 1))
            pts.insert(k, [-v if v == 0 else v for v in pts[k]])
        if rare(8):
            pts = pts[:draw(st.integers(0, 2))]
        if pts and draw(st.booleans()):
            pts.append(list(pts[0]))
        for p in pts:
            if draw(st.integers(0, 5)) == 0:
                p.append(draw(ALTITUDE))
        if pts and rare(12):
            pts[draw(st.integers(0, len(pts) - 1))] = draw(BAD_POSITION)
        return pts

    def polygon():
        rings = [ring() for _ in range(draw(st.integers(1, 3)))]
        if rare(15):
            rings[draw(st.integers(0, len(rings) - 1))] = draw(BAD_RING)
        return draw(BAD_RINGS) if rare(20) else rings

    features = []
    for i in range(draw(st.integers(1, 6))):
        polys = [polygon() for _ in range(0 if rare(10) else draw(st.integers(1, 3)))]
        if len(polys) == 1 and draw(st.booleans()):
            gtype, coords = "Polygon", polys[0]
        else:
            gtype, coords = "MultiPolygon", polys
        if rare(20):
            coords = draw(BAD_MULTI)
        props = {"block_id": f"b{i}", "pop": draw(st.integers(0, 900) | st.floats(0, 900)),
                 "tract_id": "t", "id": i, "name": f"d{i}"}
        if rare(10):
            key, value = draw(BAD_PROPERTY)
            props[key] = value
        if i and rare(15):
            props["block_id"], props["name"] = f"b{i - 1}", f"d{i - 1}"
        features.append(
            {"type": "Feature", "geometry": {"type": gtype, "coordinates": coords},
             "properties": props}
        )
    return {"type": "FeatureCollection", "features": features}


LAYER_READERS = {
    "blocks": (read_blocks, reference_read_blocks),
    "buildings": (read_buildings, reference_read_buildings),
    "districts": (read_districts, reference_read_districts),
}
# Covers every projected coordinate the strategy can give (|lon|, |lat| <= 2).
LAYER_GRID = AnalysisGrid(-250_000.0, -250_000.0, 25_000.0, 20, 20)


def layer_values(kind, got):
    """A reader's result as (values of the features, their PolygonLayer)."""
    if kind == "blocks":
        blocks = got if isinstance(got, Blocks) else tables.blocks(
            (b.block_id, b.parts, b.pop, b.tract_id) for b in got
        )
        return (blocks.ids, blocks.pop.tobytes(), blocks.tracts), blocks.parts
    if kind == "buildings":
        return (), got if isinstance(got, PolygonLayer) else polygon_layer(
            [b.footprints for b in got]
        )
    districts = got if isinstance(got, Districts) else tables.districts(got)
    return districts.names, districts.parts


def layer_outcome(kind, read, path, origin=ZERO):
    """The features' values, layer arrays and cells, or the error type and text."""
    try:
        values, layer = layer_values(kind, read(path, *origin))
    except (FormatError, ValidationError) as exc:
        return type(exc), str(exc)
    cells, offsets = ragged_cell_indices(*layer, LAYER_GRID)
    return (
        values, layer.xs.tobytes(), layer.ys.tobytes(),
        *(a.tolist() for a in (*layer[2:], cells, offsets)),
    )


def by_feature():
    """The GeoJSON readers with their fast path giving up on every file, so
    that the per-feature reader reads it."""
    return mock.patch.object(io_formats, "_layer_at_once", side_effect=ValueError)


def fast_path_only():
    """The GeoJSON readers without their per-feature reader."""
    return mock.patch.object(io_formats, "_layer_by_feature", side_effect=AssertionError)


class TestReadPolygonLayerMatchesReference:
    @given(doc=polygon_collections())
    @settings(max_examples=300, deadline=None)
    def test_same_layer_and_errors(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("layer") / "l.geojson"
        path.write_text(json.dumps(doc))
        for kind, (read, reference) in LAYER_READERS.items():
            assert layer_outcome(kind, read, path) == layer_outcome(kind, reference, path), kind

    def test_byte_order_mark(self, tmp_path):
        ring = [[-118.25, 34.05], [-118.24, 34.05], [-118.24, 34.06], [-118.25, 34.05]]
        doc = json.dumps({"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"name": "A"},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        }]})
        plain, marked = tmp_path / "plain.geojson", tmp_path / "bom.geojson"
        plain.write_text(doc)
        marked.write_bytes(b"\xef\xbb\xbf" + doc.encode())
        got = read_districts(marked, *ORIGIN)
        want = read_districts(plain, *ORIGIN)
        assert got.names == want.names == ["A"]
        for a, b in zip(got.parts, want.parts):
            assert a.tobytes() == b.tobytes()

    def test_first_bad_feature_in_file_order_is_named(self, tmp_path):
        # Across features the first bad one in file order is the error; within
        # one, its type, properties, repeated value and geometry come before
        # its values. The reader, its per-feature phase and the reference agree.
        square = [[[0, 0], [1, 0], [1, 1], [0, 1]]]
        degenerate = [[[0, 0], [1, 0], [0, 0]]]

        def feature(gtype, coordinates, **properties):
            return {"type": "Feature", "geometry": {"type": gtype, "coordinates": coordinates},
                    "properties": properties}

        def block(block_id, pop, coordinates=square, gtype="Polygon"):
            return feature(gtype, coordinates, block_id=block_id, pop=pop, tract_id="t")

        cases = [
            # Feature 1's ring is degenerate (exit 1) and feature 3's pop is text (exit 2).
            ("blocks", [block("b0", 1), block("b1", 2, degenerate), block("b2", 3),
                        block("b3", "abc")],
             GeometryError, "feature 1: ring needs >= 3 distinct vertices, got 2"),
            # Polygon 0 has a 2-vertex ring and polygon 1 a malformed position.
            ("blocks", [block("b0", 1, [[[[0, 0], [1, 0]]], [[[0, 0], "x", [1, 1]]]],
                              "MultiPolygon")],
             GeometryError, "feature 0: ring needs >= 3 distinct vertices, got 2"),
            ("blocks", [block("b0", 1), block("b1", -1), block("b0", 3)],
             ValidationError, "feature 1: block b1 has negative pop -1.0"),
            ("blocks", [block("b0", 1), block("b0", -1)],
             ValidationError, "feature 1: duplicate block_id 'b0'"),
            ("districts", [feature("Polygon", square, name=""),
                           feature("LineString", [[0, 0], [1, 1]], name="d1")],
             ValidationError, "feature 0: district needs a name"),
            ("districts", [feature("MultiPolygon", [], name="d0"),
                           feature("Polygon", degenerate, name="d1")],
             ValidationError, "feature 0: district d0 has no perimeter"),
            ("roads", [feature("LineString", [[0, 0], [1, 1], [1, 1]], **{"class": ""})],
             GeometryError, "feature 0: polyline has repeated consecutive vertices"),
            ("pois", [feature("Point", [1e308, 0], category="")],
             ValidationError, "feature 0: poi has non-finite coordinates"),
            ("roads", [feature("LineString", [[0, 0], [1, 1]], **{"class": ""}),
                       feature("LineString", [[0, 0], "x"], **{"class": "primary"})],
             ValidationError, "feature 0: road feature needs a class"),
            ("pois", [feature("Point", [0, 0], category=""),
                      feature("LineString", [[0, 0], [1, 1]], category="school")],
             ValidationError, "feature 0: poi feature needs a category"),
        ]
        for k, (kind, features, error, message) in enumerate(cases):
            path = tmp_path / f"{k}.geojson"
            path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
            read, reference = READERS[kind]
            outcome = layer_outcome if kind in LAYER_READERS else vertex_outcome
            got = outcome(kind, read, path)
            with by_feature():
                assert outcome(kind, read, path) == got, k
            assert outcome(kind, reference, path) == got, k
            assert got == (error, f"{path}: {message}"), k

    def test_synthetic_layers(self, tmp_path):
        generate(ScenarioSpec(seed=7), tmp_path)
        for kind, name in (("blocks", "blocks"), ("buildings", "buildings"),
                           ("districts", "perimeter")):
            read, reference = LAYER_READERS[kind]
            path = tmp_path / f"{name}.geojson"
            got = layer_outcome(kind, read, path, ORIGIN)
            assert len(got) == 8, got
            assert got == layer_outcome(kind, reference, path, ORIGIN)

    @given(doc=polygon_collections())
    @settings(max_examples=300, deadline=None)
    def test_same_layer_and_errors_by_feature(self, tmp_path_factory, doc):
        with by_feature():
            self.test_same_layer_and_errors.hypothesis.inner_test(self, tmp_path_factory, doc)

    def test_synthetic_layers_by_feature(self, tmp_path):
        with by_feature():
            self.test_synthetic_layers(tmp_path)

    @given(doc=polygon_collections())
    @settings(max_examples=150, deadline=None)
    def test_same_layer_and_errors_in_small_chunks(self, tmp_path_factory, doc):
        with small_chunks():
            self.test_same_layer_and_errors.hypothesis.inner_test(self, tmp_path_factory, doc)


def small_chunks():
    """The fast path with cut coordinates read a few characters at a time."""
    return mock.patch.object(io_formats, "_CHUNK_CHARS", 16)


# ---------------------------------------------------------------------------
# Point and line layer readers
# ---------------------------------------------------------------------------

BAD_LINE = st.sampled_from([5, None, True, "", "a", "ab", {}, {"k": 1}, [], [[0, 0]]])
BAD_POINT = st.sampled_from([5, None, True, "", "ab", {}, {"k": 1}, [], [1], [[0, 0], [1, 1]]])
BAD_FEATURE = st.sampled_from([None, 3, [], {}, {"geometry": None}, {"geometry": {"type": 5}}])


@st.composite
def vertex_collections(draw, gtype):
    """FeatureCollections of Points or LineStrings (``gtype``), half of them bad.

    Vertices come from a small pool, some with an altitude. In a faulty
    collection now and then a line is short or repeats a vertex (0.0 and
    -0.0 alike), a position, coordinates value, geometry type, feature or
    property is malformed, or a class or category is empty.
    """
    pool = draw(st.lists(st.tuples(COORD, COORD), min_size=2, max_size=5, unique=True))
    faulty = draw(st.booleans())

    def rare(n: int) -> bool:
        return faulty and draw(st.integers(0, n - 1)) == 0

    def position(p):
        p = list(p)
        if draw(st.integers(0, 5)) == 0:
            p.append(draw(ALTITUDE))
        return draw(BAD_POSITION) if rare(15) else p

    features = []
    for i in range(draw(st.integers(0, 6))):
        if gtype == "Point":
            coords = position(draw(st.sampled_from(pool)))
        else:
            pts = draw(st.permutations(pool))[:draw(st.integers(2, len(pool)))]
            if rare(6):
                k = draw(st.integers(0, len(pts) - 1))
                pts.insert(k, tuple(-v if v == 0 else v for v in pts[k]))
            if rare(8):
                pts = pts[:draw(st.integers(0, 1))]
            coords = [position(p) for p in pts]
        if rare(20):
            coords = draw(BAD_POINT if gtype == "Point" else BAD_LINE)
        props = {"class": draw(st.sampled_from(["primary", "residential", 7, 2.5])),
                 "category": draw(st.sampled_from(["school", "clinic", 3]))}
        if rare(10):
            props[draw(st.sampled_from(["class", "category"]))] = draw(
                st.sampled_from(["", None, True, [1], {}])
            )
        feature = {"type": "Feature", "properties": props,
                   "geometry": {"type": "Polygon" if rare(25) else gtype, "coordinates": coords}}
        features.append(draw(BAD_FEATURE) if rare(30) else feature)
    return {"type": "FeatureCollection", "features": features}


VERTEX_READERS = {
    "roads": (read_roads, reference_read_roads),
    "pois": (read_pois, reference_read_pois),
}


def vertex_outcome(kind, read, path, origin=ZERO):
    """The table's columns, or the error type and text."""
    try:
        got = read(path, *origin)
    except (FormatError, ValidationError) as exc:
        return type(exc), str(exc)
    if kind == "roads":
        t = got if isinstance(got, Roads) else tables.roads((r.line, r.road_class) for r in got)
        return t.xs.tobytes(), t.ys.tobytes(), t.offsets.tolist(), t.classes, t.codes.tolist()
    t = got if isinstance(got, Pois) else tables.pois((p.location, p.category) for p in got)
    return t.xs.tobytes(), t.ys.tobytes(), t.categories, t.codes.tolist()


class TestReadVertexLayerMatchesReference:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_layer_and_errors(self, tmp_path_factory, data):
        for kind, gtype in (("roads", "LineString"), ("pois", "Point")):
            doc = data.draw(vertex_collections(gtype), label=kind)
            path = tmp_path_factory.mktemp("layer") / "l.geojson"
            path.write_text(json.dumps(doc))
            read, reference = VERTEX_READERS[kind]
            assert vertex_outcome(kind, read, path) == vertex_outcome(kind, reference, path)

    def test_synthetic_layers(self, tmp_path):
        generate(ScenarioSpec(seed=7), tmp_path)
        for kind in VERTEX_READERS:
            read, reference = VERTEX_READERS[kind]
            path = tmp_path / f"{kind}.geojson"
            got = vertex_outcome(kind, read, path, ORIGIN)
            assert len(got[0]) > 0 and got == vertex_outcome(kind, reference, path, ORIGIN)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_layer_and_errors_by_feature(self, tmp_path_factory, data):
        with by_feature():
            self.test_same_layer_and_errors.hypothesis.inner_test(self, tmp_path_factory, data)

    def test_synthetic_layers_by_feature(self, tmp_path):
        with by_feature():
            self.test_synthetic_layers(tmp_path)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_layer_and_errors_in_small_chunks(self, tmp_path_factory, data):
        with small_chunks():
            self.test_same_layer_and_errors.hypothesis.inner_test(self, tmp_path_factory, data)


READERS = {**LAYER_READERS, **VERTEX_READERS}


def asc_fast_path_only():
    """The land cover reader without its line parser."""
    return mock.patch.object(io_formats, "_class_codes_by_line", side_effect=AssertionError)


def test_valid_synthetic_layers_take_the_fast_path(tmp_path):
    generate(ScenarioSpec(seed=7), tmp_path)
    with fast_path_only():
        for read, name in ((read_blocks, "blocks"), (read_buildings, "buildings"),
                           (read_districts, "perimeter"), (read_roads, "roads"),
                           (read_pois, "pois")):
            read(tmp_path / f"{name}.geojson", *ORIGIN)
    with asc_fast_path_only():
        read_ascii_grid(tmp_path / "landcover.asc")
    with mock.patch.object(io_formats, "_frp", side_effect=AssertionError):
        detections = read_detections(tmp_path / "detections.csv", *ORIGIN)
    assert len(detections.frp) and (detections.frp > 0).all()


def layout_doc(kind):
    """A valid two-feature layer for ``kind``'s reader."""
    features = []
    for i in range(2):
        x = i * 0.01
        geometry = {
            "roads": {"type": "LineString", "coordinates": [[x, 0], [x + 0.005, 0.005]]},
            "pois": {"type": "Point", "coordinates": [x, 0.5]},
        }.get(kind, {"type": "Polygon",
                     "coordinates": [[[x, 0], [x + 0.005, 0], [x, 0.005], [x, 0]]]})
        props = {"block_id": f"b{i}", "pop": 5 + i, "tract_id": "t", "id": f"h{i}",
                 "name": f"d{i}", "class": "primary", "category": "school"}
        features.append({"type": "Feature", "geometry": geometry, "properties": props})
    return {"type": "FeatureCollection", "features": features}


def _with_altitude(doc):
    def add(c):
        return [*c, 12.5] if not isinstance(c[0], list) else [add(x) for x in c]

    for f in doc["features"]:
        f["geometry"]["coordinates"] = add(f["geometry"]["coordinates"])
    return json.dumps(doc)


def _with_property(doc, key, value):
    for f in doc["features"]:
        f["properties"][key] = value
    return json.dumps(doc)


def _with_text(doc, texts):
    for f in doc["features"]:
        f["properties"].update(texts)
    return json.dumps(doc)


def _non_ascii(doc):
    for i, f in enumerate(doc["features"]):
        f["properties"].update(block_id=f"blöck-{i}", tract_id="Zürich", id=f"häus-{i}",
                               name=f"Ñandú-{i}", category="Bücherei ☃")
    return json.dumps(doc, ensure_ascii=False)


def _duplicate_key(doc):
    # json keeps the last of two equal keys: the feature's own coordinates.
    other = json.dumps(doc["features"][1]["geometry"]["coordinates"])
    return json.dumps(doc).replace('"coordinates": ', f'"coordinates": {other}, "coordinates": ', 1)


def _long_integer(doc):
    text = json.dumps(doc)
    return text.replace('"coordinates": [', '"coordinates": [' + "1" + "0" * 4999 + ", ", 1)


def _nan_coordinates(doc):
    # As many values are cut as there are features, the first feature's
    # from its properties, and json reads its NaN as a placeholder.
    first = doc["features"][0]
    first["geometry"]["coordinates"] = math.nan
    first["properties"]["coordinates"] = [0, 0]
    return json.dumps(doc)


# Layouts a compact writer never makes: (text of a layer, valid, plain).
# A plain layout must stay on the fast path.
LAYOUTS = {
    "property named coordinates": (
        lambda d: _with_property(d, "coordinates", [[1, 2]]), True, False,
    ),
    "collection coordinates member": (
        lambda d: json.dumps({**d, "coordinates": [0, 0]}), True, False,
    ),
    "duplicate coordinates key": (_duplicate_key, True, False),
    "coordinates as a string value": (
        lambda d: _with_text(d, {"note": "coordinates", "tract_id": "coordinates",
                                 "class": "coordinates", "category": "coordinates"}), True, True,
    ),
    "placeholder as a string value": (lambda d: _with_property(d, "note", "NaN"), True, True),
    "NaN property value": (lambda d: _with_property(d, "note", math.nan), True, False),
    "escaped key": (
        lambda d: json.dumps(d).replace('"coordinates"', '"coordin\\u0061tes"', 1), True, False,
    ),
    "altitude": (_with_altitude, True, True),
    "indent=2 with CRLF": (lambda d: json.dumps(d, indent=2).replace("\n", "\r\n"), True, True),
    "non-ASCII property text": (_non_ascii, True, True),
    "5000-digit integer coordinate": (_long_integer, False, False),
    "NaN coordinates and a coordinates property": (_nan_coordinates, False, False),
}


# Coordinates texts that break JSON's grammar, each made from a valid one.
BROKEN_COORDINATES = {
    "missing comma": lambda c: c.replace(", ", " ", 1),
    "double comma": lambda c: c.replace(", ", ", , ", 1),
    "leading comma": lambda c: c.replace("[", "[, ", 1),
    "trailing comma": lambda c: c[:-1] + ", ]",
    "plus sign": lambda c: c.replace("1", "+1", 1),
    "bare fraction": lambda c: c.replace("1", ".5", 1),
    "trailing point": lambda c: c.replace("1", "1.", 1),
    "leading zero": lambda c: c.replace("1", "01", 1),
    "bare exponent": lambda c: c.replace("1", "1e", 1),
    "lone minus": lambda c: c.replace("1", "-", 1),
    "unclosed": lambda c: c[:-1],
    "extra bracket": lambda c: c + "]",
    "two values": lambda c: c + ", " + c,
    "adjacent arrays": lambda c: c.replace("]", "] [0, 0]", 1),
}


# Valid JSON with a number where an array belongs, an array where a number
# belongs, or a position of fewer than two numbers.
MISPLACED_COORDINATES = {
    "pois": ["[[1], 0.5]", "[1, [0.5]]", "[[1, 0.5]]", "[[], 1, 0.5]", "[1]"],
    "roads": ["[[0, 0], [1, 1], 5]", "[5, [0, 0], [1, 1]]", "[[0, 0], [1, [1]]]", "[0, 1]",
              "[[[], 0, 0], [1, 1]]", "[[0], [1, 1], [2, 2]]", "[[], [1, 1], [2, 2]]"],
    "blocks": ["[[[0, 0], [1, 0], [1, 1], [0, 0]], 5]", "[5, [[0, 0], [1, 0], [1, 1]]]",
               "[[[0, 0], [1, 0], [1, 1], 7]]", "[[[0, 0], [1, 0], [1, [1]]]]",
               "[[0, 0], [1, 0], [1, 1]]", "[[[[], 0, 0], [1, 0], [1, 1]]]",
               "[[[0], [1, 0], [1, 1], [0, 1]]]"],
}
COORDINATES_CASES = [
    (kind, name, make({"pois": "[1, 0.5]", "roads": "[[0, 0], [1, 1]]"}.get(
        kind, "[[[0, 0], [1, 0], [1, 1], [0, 0]]]")))
    for kind in READERS for name, make in BROKEN_COORDINATES.items()
] + [
    (kind, f"misplaced {k}", text)
    for kind in READERS for k, text in enumerate(MISPLACED_COORDINATES.get(kind, ()))
]


@pytest.mark.parametrize("kind, case, coordinates", COORDINATES_CASES,
                         ids=[f"{k}-{c}" for k, c, _ in COORDINATES_CASES])
def test_irregular_coordinates_read_as_by_feature(tmp_path, kind, case, coordinates):
    """A cut value outside JSON's grammar, or with a number or an array out
    of place, makes the fast path give up: the per-feature reader's error."""
    properties = json.dumps(layout_doc(kind)["features"][0]["properties"])
    gtype = {"pois": "Point", "roads": "LineString"}.get(kind, "Polygon")
    path = tmp_path / "layer.geojson"
    path.write_text(
        '{"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": '
        f'{{"type": "{gtype}", "coordinates": {coordinates}}}, "properties": {properties}}}]}}'
    )
    read = READERS[kind][0]
    outcome = layer_outcome if kind in LAYER_READERS else vertex_outcome
    with by_feature():
        want = outcome(kind, read, path)
    assert want[0] is FormatError, want
    assert outcome(kind, read, path) == want


def test_value_that_ends_inside_an_array_is_irregular():
    # "[[]", "[]]" and "[]]": the brackets balance over the three values and
    # each token may follow the one before, but the first value ends one level
    # deep. Only the check that each value closes at its end rejects them; a
    # layer reader rejects such a file later either way.
    with pytest.raises(ValueError):
        io_formats._positions(b"[[][]][]]", np.array([3, 3, 3]), np.full(3, 3, np.int32), 2)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("kind", READERS)
def test_unusual_layouts_read_as_by_feature(tmp_path, kind, layout):
    """The layer bytes or the error of the per-feature reader; a plain
    layout's without it."""
    make, valid, plain = LAYOUTS[layout]
    path = tmp_path / "layer.geojson"
    path.write_bytes(make(layout_doc(kind)).encode())
    read = READERS[kind][0]
    outcome = layer_outcome if kind in LAYER_READERS else vertex_outcome
    with by_feature():
        want = outcome(kind, read, path)
    assert isinstance(want[0], type) != valid, want
    assert outcome(kind, read, path) == want
    if plain:
        with fast_path_only():
            assert outcome(kind, read, path) == want


# Number literals that json.dumps never writes: exponents, more than 17
# significant digits, a negative zero, a subnormal, an integer beyond 2^53,
# one beyond the double range, which json reads as inf, and the integer
# zeros, which json reads as the int 0 whatever the sign.
LITERALS = ["1E-3", "-2.5e+1", "0.10000000000000000555", "-0.0", "5e-324",
            "9007199254740993", "1e400", "-0", "0"]


def literal_layer(kind, lon, pop):
    """The text of a one-feature layer for ``kind``'s reader whose first
    longitude and whose pop are the literals ``lon`` and ``pop``."""
    gtype, coords = {
        "pois": ("Point", f"[{lon}, 1]"),
        "roads": ("LineString", f"[[{lon}, 1], [2, 2]]"),
    }.get(kind, ("Polygon", f"[[[{lon}, 1], [2, 1], [2, 2], [{lon}, 1]]]"))
    props = (f'"block_id": "b", "pop": {pop}, "tract_id": "t", "id": "h", "name": "d", '
             '"class": "c", "category": "s"')
    return ('{"type": "FeatureCollection", "features": [{"type": "Feature", "properties": {'
            + props + '}, "geometry": {"type": "' + gtype + '", "coordinates": ' + coords
            + "}}]}")


@pytest.mark.parametrize("literal", LITERALS)
def test_number_literals_read_as_the_reference_reads_them(tmp_path, literal):
    """Each reader's bits or error, in both phases, for the literal as a
    longitude and as a block's pop; the file is valid unless it is out of
    range or a negative pop."""
    cases = [(kind, "lon", literal, "1") for kind in READERS] + [("blocks", "pop", "0.5", literal)]
    for kind, field, lon, pop in cases:
        path = tmp_path / f"{kind}-{field}.geojson"
        path.write_text(literal_layer(kind, lon, pop))
        read, reference = READERS[kind]
        outcome = layer_outcome if kind in LAYER_READERS else vertex_outcome
        want = outcome(kind, reference, path)
        invalid = literal == "1e400" or pop == "-2.5e+1"
        assert isinstance(want[0], type) == invalid, want
        assert outcome(kind, read, path) == want
        with by_feature():
            assert outcome(kind, read, path) == want
        if not invalid:
            with fast_path_only():
                assert outcome(kind, read, path) == want
        if literal == "1e400" and kind in LAYER_READERS and field == "lon":
            assert want == (GeometryError, f"{path}: feature 0: ring has non-finite coordinates")


# Each reader's properties, and a valid geometry of its type.
PROPERTY_KEYS = {
    "blocks": ("block_id", "pop", "tract_id"),
    "buildings": ("id",),
    "districts": ("name",),
    "roads": ("class",),
    "pois": ("category",),
}
BAD_PROPERTY_VALUES = ("missing", "duplicate", True, None, [1], math.nan, -math.inf, -1.0, -0.0)


@st.composite
def one_bad_property(draw):
    """A valid collection for one reader with one property of one feature spoiled:
    missing, repeated from another feature, a bool, null, list, non-finite
    or negative number."""
    kind = draw(st.sampled_from(sorted(PROPERTY_KEYS)))
    features = []
    for i in range(draw(st.integers(1, 8))):
        x = i * 0.01
        geometry = {
            "roads": {"type": "LineString", "coordinates": [[x, 0], [x + 0.005, 0.005]]},
            "pois": {"type": "Point", "coordinates": [x, 0]},
        }.get(kind, {"type": "Polygon", "coordinates": [[[x, 0], [x + 0.005, 0], [x, 0.005]]]})
        props = {"block_id": f"b{i}", "pop": draw(st.integers(0, 50) | st.floats(0, 50)),
                 "tract_id": "t", "id": f"h{i}", "name": f"d{i}", "class": "primary",
                 "category": "school"}
        features.append({"type": "Feature", "geometry": geometry, "properties": props})
    k = draw(st.integers(0, len(features) - 1))
    key = draw(st.sampled_from(PROPERTY_KEYS[kind]))
    bad = draw(st.sampled_from(BAD_PROPERTY_VALUES))
    props = features[k]["properties"]
    if bad == "missing":
        del props[key]
    elif bad == "duplicate":
        props[key] = features[draw(st.integers(0, len(features) - 1))]["properties"][key]
    else:
        props[key] = bad
    return kind, {"type": "FeatureCollection", "features": features}


class TestOneBadProperty:
    @given(one_bad_property())
    @settings(max_examples=300, deadline=None)
    def test_same_error_as_reference(self, tmp_path_factory, case):
        kind, doc = case
        path = tmp_path_factory.mktemp("layer") / "l.geojson"
        path.write_text(json.dumps(doc))
        if kind in VERTEX_READERS:
            read, reference = VERTEX_READERS[kind]
            assert vertex_outcome(kind, read, path) == vertex_outcome(kind, reference, path)
        else:
            read, reference = LAYER_READERS[kind]
            assert layer_outcome(kind, read, path) == layer_outcome(kind, reference, path)


class TestLoadJson:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("data", [b'{"a": [1, 2]}', b'{"a": ', b'{"a": "\xff"}'],
                             ids=["valid", "truncated", "not-utf8"])
    def test_collector_paused_and_restored(self, tmp_path, enabled, data):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        during = []
        real_load = json.load

        def load(fh):
            during.append(gc.isenabled())
            return real_load(fh)

        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with mock.patch.object(json, "load", load):
                try:
                    _load_json(path)
                except FormatError:
                    assert data != b'{"a": [1, 2]}'
            assert during == [False]
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()


# ---------------------------------------------------------------------------
# Land cover grid reader
# ---------------------------------------------------------------------------


def reference_read_ascii_grid(path: str | Path) -> CategoryRaster:
    """The former reader: one ``int()`` per token, a line at a time."""
    path = Path(path)
    where = str(path)
    header: dict[str, str] = {}
    with _open_text(path) as fh:
        lines = enumerate(fh, start=1)
        for lineno, line in lines:
            parts = line.split()
            if len(parts) != 2 or parts[0].lower() not in _ASC_HEADER:
                break
            header[parts[0].lower()] = parts[1]
        else:
            lineno, line = 0, ""
        x0, y0, size = (_required(where, header, k, _finite) for k in _ASC_HEADER[:3])
        n_cols, n_rows, nodata = (_required(where, header, k, _whole) for k in _ASC_HEADER[3:])
        grid = AnalysisGrid(x0, y0, size, n_rows, n_cols)
        values = np.concatenate([
            parse_value(f"{path}: line {n}", "class", text, reference_class_codes)
            for n, text in itertools.chain([(lineno, line)], lines)
        ])
    if values.size != n_rows * n_cols:
        raise FormatError(f"{path}: expected {n_rows * n_cols} values, found {values.size}")
    return CategoryRaster(grid, values.reshape(n_rows, n_cols), nodata=nodata)


def reference_class_codes(line: str) -> np.ndarray:
    return np.array([int(t) for t in line.split()], dtype=np.int32)


# Tokens int() reads that a plain digit parser would not, and tokens it or
# int32 rejects.
ODD_TOKENS = ["+5", "1_0", "\u0663", "\uff11\uff12", "-0", "007", "2147483647", "-2147483648",
              "2147483648", "-2147483649", "4.5", "abc", "_1", "1__0", "0x10", "5-"]


@st.composite
def class_grid_texts(draw):
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    token = st.one_of(
        st.integers(-(2**31), 2**31 - 1).map(str),
        st.integers(-3, 99).map(str),
        st.sampled_from(ODD_TOKENS),
    )
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    rows = []
    for _ in range(n_rows + draw(st.sampled_from([0, 0, 0, -1, 1]))):
        width = n_cols + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        rows.append(sep.join(draw(st.lists(token, min_size=width, max_size=width))))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = (f"ncols {n_cols}", f"nrows {n_rows}", "xllcorner 0", "yllcorner 0",
              "cellsize 20", "NODATA_value -1")
    return end.join([*header, *rows]) + draw(st.sampled_from(["", end, end + end]))


def read_outcome(read, path):
    """The raster's grid, nodata and cells, or the type and text of the error."""
    try:
        raster = read(path)
    except Exception as exc:  # the outcome compared may be any error
        return type(exc), str(exc)
    return raster.grid, raster.nodata, raster.cells.dtype, raster.cells.tolist()


class TestReadAsciiGridMatchesReference:
    @given(class_grid_texts())
    @settings(max_examples=300, deadline=None)
    def test_same_cells_or_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("asc") / "landcover.asc"
        path.write_bytes(text.encode())
        assert read_outcome(read_ascii_grid, path) == read_outcome(reference_read_ascii_grid, path)

    def test_plain_body_with_nodata_crlf_and_space_runs(self, tmp_path):
        path = tmp_path / "landcover.asc"
        path.write_bytes(
            b"ncols 4\r\nnrows 3\r\nxllcorner 0\r\nyllcorner 0\r\ncellsize 20\r\n"
            b"NODATA_value -9999\r\n"
            b"11  -9999   21 22\r\n   -9999 0 07 -0\r\n41\t42    43  -9999  \r\n\r\n"
        )
        want = read_outcome(reference_read_ascii_grid, path)
        assert want[1:] == (-9999, np.int32, [[11, -9999, 21, 22], [-9999, 0, 7, 0],
                                              [41, 42, 43, -9999]])
        with asc_fast_path_only():
            assert read_outcome(read_ascii_grid, path) == want

    @pytest.mark.parametrize("token", ODD_TOKENS)
    def test_each_odd_token_on_line_9(self, tmp_path, token):
        rows = ["1 2", "3 4", f"5 {token}"]
        path = tmp_path / "landcover.asc"
        path.write_text("ncols 2\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 20\n"
                        "NODATA_value -1\n" + "\n".join(rows) + "\n", encoding="utf-8")
        want = read_outcome(reference_read_ascii_grid, path)
        assert read_outcome(read_ascii_grid, path) == want
        if want[0] is FormatError:
            assert "line 9" in want[1]


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
        st.sampled_from([(0, 1), (-1, 1), (-9999, 95), (-(2**31), 2**31 - 1), "widths"]),
        st.integers(-(2**31), 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_class_grid_bytes(self, tmp_path_factory, grid, seed, code_range, nodata):
        out = tmp_path_factory.mktemp("asc")
        rng = np.random.default_rng(seed)
        if code_range == "widths":
            # Texts of every width from 1 to 11 characters in one grid.
            codes = [0, -1, 42, -42, 950, -9999, 123456, -2**31, 2**31 - 1, 7, 10**9]
            cells = rng.choice(codes, grid.shape)
        else:
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
    def test_real_grid_bytes_of_special_values(self, tmp_path_factory, grid, seed):
        # Signed zeros (one value, two bit patterns), subnormals, the
        # smallest normal and the extremes. RealRaster rejects inf and nan.
        out = tmp_path_factory.mktemp("asc")
        rng = np.random.default_rng(seed)
        values = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1.0, 1e16]
        cells = rng.choice(values, grid.shape)
        raster = RealRaster(grid, cells)
        write_ascii_grid(raster, out / "new.asc")
        reference_write_ascii_grid(raster, out / "ref.asc")
        assert (out / "new.asc").read_bytes() == (out / "ref.asc").read_bytes()

    def test_real_grid_keeps_the_sign_of_zero(self, tmp_path):
        raster = RealRaster(AnalysisGrid(0, 0, 20, 2, 2), np.array([[0.0, -0.0], [-0.0, 5e-324]]))
        write_ascii_grid(raster, tmp_path / "z.asc")
        assert (tmp_path / "z.asc").read_text().endswith("\n0 -0\n-0 4.9406564584124654e-324\n")

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
