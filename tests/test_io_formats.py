import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireimpact.dasymetric import downscale, validate_mass, WeightTable
from fireimpact.errors import FormatError, SchemaError, ValidationError
from fireimpact.grid import AnalysisGrid, CategoryRaster, Mask, RealRaster
from fireimpact.impact import CostModel, DailyImpactRecord, Demographics
from fireimpact.io_formats import (
    FileManifest,
    read_ascii_grid,
    read_blocks,
    read_costs,
    read_demographics,
    read_detections,
    read_districts,
    read_manifest,
    read_pois,
    read_report,
    read_roads,
    read_weights,
    _quintile_breaks,
    render_svg,
    write_ascii_grid,
    write_costs,
    write_demographics,
    write_manifest,
    write_report,
    write_weights,
)
from fireimpact.perimeters import DailyPerimeter

import layer_tables as tables

ORIGIN = (-118.25, 34.05)


def write(path, text):
    path.write_text(text)
    return path


class TestDetections:
    def test_empty_data_section(self, tmp_path):
        p = write(tmp_path / "d.csv", "latitude,longitude,acq_date\n")
        assert list(read_detections(p, *ORIGIN)) == []

    def test_single_row(self, tmp_path):
        p = write(
            tmp_path / "d.csv",
            "latitude,longitude,acq_date,frp,confidence\n"
            "34.19,-118.13,2025-01-08,312.5,h\n",
        )
        [det] = read_detections(p, *ORIGIN)
        assert det.date == dt.date(2025, 1, 8)
        assert det.frp == 312.5
        assert det.confidence == "high"
        assert det.location.x > 0  # east of origin longitude
        assert det.location.y > 0

    def test_missing_required_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "lat,lon,when\n1,2,2025-01-01\n")
        with pytest.raises(SchemaError, match="latitude"):
            read_detections(p, *ORIGIN)

    def test_one_bad_row_in_many_lists_exact_line(self, tmp_path):
        rows = ["latitude,longitude,acq_date"]
        for i in range(100):
            rows.append(f"34.{i:02d},-118.1,2025-01-08")
        rows[43] = "not-a-number,-118.1,2025-01-08"  # file line 44
        p = write(tmp_path / "d.csv", "\n".join(rows) + "\n")
        with pytest.raises(SchemaError) as err:
            read_detections(p, *ORIGIN)
        assert "1 bad row" in str(err.value)
        assert "line 44" in str(err.value)

    def test_window_filter(self, tmp_path):
        p = write(
            tmp_path / "d.csv",
            "latitude,longitude,acq_date\n"
            "34.1,-118.1,2025-01-05\n34.1,-118.1,2025-01-08\n",
        )
        dets = read_detections(p, *ORIGIN, start_date=dt.date(2025, 1, 7))
        assert [d.date for d in dets] == [dt.date(2025, 1, 8)]


class TestAsciiGrid:
    def test_1x1_round_trip(self, tmp_path):
        g = AnalysisGrid(0, 0, 20, 1, 1)
        raster = CategoryRaster(g, np.array([[42]]))
        write_ascii_grid(raster, tmp_path / "a.asc")
        back = read_ascii_grid(tmp_path / "a.asc")
        assert isinstance(back, CategoryRaster)
        assert back.cells[0, 0] == 42
        assert back.grid == g

    def test_random_real_raster_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        g = AnalysisGrid(-140.0, 350.0, 20, 20, 20)
        raster = RealRaster(g, rng.standard_normal((20, 20)) * 1e4)
        write_ascii_grid(raster, tmp_path / "r.asc")
        lines = (tmp_path / "r.asc").read_text().splitlines()
        header = {k.lower(): float(v) for k, v in (line.split() for line in lines[:6])}
        back = np.loadtxt(tmp_path / "r.asc", skiprows=6)
        assert back.tobytes() == raster.cells.tobytes()
        assert AnalysisGrid(
            header["xllcorner"], header["yllcorner"], header["cellsize"],
            int(header["nrows"]), int(header["ncols"]),
        ) == g

    def test_nodata_preserved(self, tmp_path):
        g = AnalysisGrid(0, 0, 20, 2, 2)
        raster = CategoryRaster(g, np.array([[11, -1], [-1, 24]]), nodata=-1)
        write_ascii_grid(raster, tmp_path / "n.asc")
        back = read_ascii_grid(tmp_path / "n.asc")
        assert back.nodata == -1
        assert np.array_equal(back.cells, raster.cells)

    def test_dimension_mismatch_is_format_error(self, tmp_path):
        p = write(
            tmp_path / "bad.asc",
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 20\n"
            "NODATA_value -1\n1 2\n3\n",
        )
        with pytest.raises(FormatError, match="expected 4 values"):
            read_ascii_grid(p)

    def test_missing_header_key(self, tmp_path):
        p = write(tmp_path / "bad.asc", "ncols 1\nnrows 1\n1\n")
        with pytest.raises(FormatError, match="xllcorner"):
            read_ascii_grid(p)


def fc(features):
    return json.dumps({"type": "FeatureCollection", "features": features})


def square_coords(lon0, lat0, dlon=0.001, dlat=0.001):
    return [[
        [lon0, lat0], [lon0 + dlon, lat0], [lon0 + dlon, lat0 + dlat],
        [lon0, lat0 + dlat], [lon0, lat0],
    ]]


class TestVectors:
    def test_empty_collection(self, tmp_path):
        p = write(tmp_path / "v.geojson", fc([]))
        assert len(read_blocks(p, *ORIGIN)) == 0

    def test_one_block(self, tmp_path):
        feat = {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": square_coords(*ORIGIN)},
            "properties": {"block_id": "b1", "pop": 100, "tract_id": "t1"},
        }
        p = write(tmp_path / "v.geojson", fc([feat]))
        blocks = read_blocks(p, *ORIGIN)
        assert blocks.ids == ["b1"]
        assert blocks.pop.tolist() == [100.0]
        assert blocks.parts.feature_offsets.tolist() == [0, 1]

    def test_multipolygon_block_preserves_mass_across_parts(self, tmp_path):
        g = AnalysisGrid(0, 0, 20, 8, 8)
        part_a = square_coords(-118.25, 34.05, 0.0005, 0.0005)
        part_b = square_coords(-118.249, 34.051, 0.0005, 0.0005)
        feat = {
            "type": "Feature",
            "geometry": {"type": "MultiPolygon", "coordinates": [part_a, part_b]},
            "properties": {"block_id": "m1", "pop": 60, "tract_id": "t1"},
        }
        p = write(tmp_path / "v.geojson", fc([feat]))
        blocks = read_blocks(p, *ORIGIN)
        assert blocks.parts.feature_offsets.tolist() == [0, 2]
        landcover = CategoryRaster(g, np.full((8, 8), 22))
        pop, report = downscale(blocks, landcover, WeightTable.default(), g)
        mass = validate_mass(blocks, pop, report)
        assert mass.max_rel_err() <= 1e-9
        assert float(pop.cells.sum()) == pytest.approx(60.0, abs=1e-9)

    def test_missing_property_names_role(self, tmp_path):
        feat = {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": square_coords(*ORIGIN)},
            "properties": {"pop": 5},
        }
        p = write(tmp_path / "v.geojson", fc([feat]))
        with pytest.raises(SchemaError, match="block_id"):
            read_blocks(p, *ORIGIN)

    def test_unsupported_geometry_named(self, tmp_path):
        feat = {
            "type": "Feature",
            "geometry": {"type": "MultiLineString", "coordinates": []},
            "properties": {},
        }
        p = write(tmp_path / "v.geojson", fc([feat]))
        with pytest.raises(FormatError, match="MultiLineString"):
            read_pois(p, *ORIGIN)

    def test_roads_and_pois(self, tmp_path):
        road = {
            "type": "Feature",
            "geometry": {
                "type": "LineString",
                "coordinates": [[-118.25, 34.05], [-118.24, 34.05]],
            },
            "properties": {"class": "residential"},
        }
        poi = {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [-118.25, 34.05]},
            "properties": {"category": "Retail"},
        }
        roads = read_roads(write(tmp_path / "r.geojson", fc([road])), *ORIGIN)
        assert len(roads) == 1 and roads.classes == ["residential"]
        pois = read_pois(write(tmp_path / "p.geojson", fc([poi])), *ORIGIN)
        assert len(pois) == 1 and pois.categories == ["Retail"]

    def test_duplicate_district_names_rejected(self, tmp_path):
        feat = {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": square_coords(*ORIGIN)},
            "properties": {"name": "east"},
        }
        p = write(tmp_path / "d.geojson", fc([feat, feat]))
        with pytest.raises(ValidationError, match="east"):
            read_districts(p, *ORIGIN)


class TestConfigFiles:
    def test_weights_round_trip(self, tmp_path):
        w = WeightTable.default()
        write_weights(w, tmp_path / "w.json")
        assert read_weights(tmp_path / "w.json").weights == w.weights

    def test_costs_round_trip(self, tmp_path):
        c = CostModel.demo()
        write_costs(c, tmp_path / "c.json")
        back = read_costs(tmp_path / "c.json")
        assert back.land_cost == c.land_cost
        assert back.road_cost == c.road_cost
        assert back.building_cost == c.building_cost

    def test_demographics_round_trip(self, tmp_path):
        from fireimpact.impact import TractDemographics

        demo = TractDemographics(
            "t1",
            gender={"female": 0.523, "male": 0.477},
            age={"age_0_17": 0.2, "age_18_64": 0.543, "age_65_plus": 0.257},
            race={"white": 0.46, "asian": 0.158, "black": 0.05,
                  "multiracial": 0.13, "other": 0.202},
        )
        write_demographics({"t1": demo}, tmp_path / "demo.csv")
        back = read_demographics(tmp_path / "demo.csv")
        assert back["t1"] == demo

    def test_manifest_round_trip(self, tmp_path):
        (tmp_path / "d.csv").write_text("latitude,longitude,acq_date\n")
        manifest = FileManifest(
            origin_lon=-118.25,
            origin_lat=34.05,
            grid=AnalysisGrid(0, 0, 20, 5, 6),
            paths={"detections": tmp_path / "d.csv"},
            start_date=dt.date(2025, 1, 7),
        )
        write_manifest(manifest, tmp_path / "m.json")
        back = read_manifest(tmp_path / "m.json")
        assert back.grid == manifest.grid
        assert back.paths["detections"] == (tmp_path / "d.csv").resolve()
        assert back.start_date == manifest.start_date

    def test_manifest_missing_file_rejected(self, tmp_path):
        doc = {
            "origin_lon": 0, "origin_lat": 0,
            "grid": {"cell_size": 20, "n_rows": 1, "n_cols": 1,
                     "origin_x": 0, "origin_y": 0},
            "paths": {"detections": "absent.csv"},
        }
        p = write(tmp_path / "m.json", json.dumps(doc))
        with pytest.raises(ValidationError, match="absent.csv"):
            read_manifest(p)


def one_record(**kw):
    base = dict(
        date=dt.date(2025, 1, 7),
        district="A",
        land_loss_cents={21: 123456},
        road_loss_cents={"residential": 500},
        road_length_m={"residential": 12.5},
        building_loss_cents=700,
        building_count=1,
        poi_count={"Retail": 2},
        exposed_population=3.5,
        demographics=Demographics.zeros(),
        new_burn_cells=4,
    )
    base.update(kw)
    return DailyImpactRecord(**base)


class TestReport:
    def test_single_record_header_stable(self, tmp_path):
        write_report([one_record()], tmp_path / "r.csv")
        rows = read_report(tmp_path / "r.csv")
        assert len(rows) == 1
        assert rows[0]["land_loss_usd"] == "1234.56"
        assert rows[0]["road_loss_usd"] == "5.00"
        assert list(rows[0])[:8] == [
            "date", "district", "land_loss_usd", "road_loss_usd",
            "building_loss_usd", "building_count", "poi_count",
            "exposed_population",
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        recs = [one_record(), one_record(date=dt.date(2025, 1, 8), district="B")]
        write_report(recs, tmp_path / "a.csv")
        write_report(list(reversed(recs)), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_absent_categories_zero_filled(self, tmp_path):
        recs = [
            one_record(poi_count={"Retail": 2}),
            one_record(date=dt.date(2025, 1, 8), poi_count={"Dining": 1}),
        ]
        write_report(recs, tmp_path / "r.csv")
        rows = read_report(tmp_path / "r.csv")
        assert rows[0]["poi_count_Dining"] == "0"
        assert rows[1]["poi_count_Retail"] == "0"

    def test_cumulative_columns(self, tmp_path):
        recs = [
            one_record(),
            one_record(date=dt.date(2025, 1, 8)),
        ]
        write_report(recs, tmp_path / "r.csv", cumulative=True)
        rows = read_report(tmp_path / "r.csv")
        assert rows[1]["cumulative_land_loss_usd"] == "2469.12"
        assert rows[1]["cumulative_new_burn_cells"] == "8"


class TestRenderSvg:
    def _grid(self):
        return AnalysisGrid(0, 0, 20, 6, 6)

    def _no_population(self, g):
        return RealRaster(g, np.zeros(g.shape))

    def test_empty_perimeters_valid_svg_with_legend(self, tmp_path):
        g = self._grid()
        day = DailyPerimeter.from_active(
            date=dt.date(2025, 1, 7),
            index=0,
            first_burn=np.full(g.shape, -1, dtype=np.int16),
            active=Mask.empty(g),
        )
        render_svg(
            tmp_path / "x.svg", g, self._no_population(g), {"A": [day]}, tables.districts([])
        )
        text = (tmp_path / "x.svg").read_text()
        assert text.startswith("<svg ")
        assert "2025-01-07" in text
        assert "<path" not in text

    def test_single_burned_cell_one_square_path(self, tmp_path):
        g = self._grid()
        first = np.full((6, 6), -1, dtype=np.int16)
        first[2, 3] = 0
        day = DailyPerimeter.from_active(
            date=dt.date(2025, 1, 7),
            index=0,
            first_burn=first,
            active=Mask(g, first == 0),
        )
        render_svg(
            tmp_path / "x.svg", g, self._no_population(g), {"A": [day]}, tables.districts([])
        )
        text = (tmp_path / "x.svg").read_text()
        assert text.count("<path") == 1

    @given(st.lists(
        st.floats(1e-300, 1e300) | st.sampled_from([0.5, 1.0, 2.0, 3.25, 7.0]),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=300, deadline=None)
    def test_breaks_have_the_bits_of_np_quantile(self, values):
        # The sampled values give runs of ties.
        values = np.array(values)
        want = np.quantile(values, [0.2, 0.4, 0.6, 0.8])
        assert _quintile_breaks(values).tobytes() == want.tobytes()

    def test_deterministic_output(self, tmp_path):
        rng = np.random.default_rng(1)
        g = self._grid()
        pop = RealRaster(g, rng.uniform(0, 5, size=(6, 6)))
        render_svg(tmp_path / "a.svg", g, pop, {}, tables.districts([]))
        render_svg(tmp_path / "b.svg", g, pop, {}, tables.districts([]))
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
