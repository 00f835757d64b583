import datetime as dt
import filecmp
import hashlib
import json
import shutil

import pytest

from fireimpact import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scen")
    assert cli.main(["synth", "--seed", "7", "--out", str(out / "s")]) == 0
    return out / "s"


class TestDispatch:
    def test_unknown_subcommand_exits_64_with_usage(self, capsys):
        code, out, err = run(["frobnicate"], capsys)
        assert code == 64
        assert "unknown subcommand" in err
        assert "usage:" in err

    def test_no_args_prints_usage(self, capsys):
        code, out, err = run([], capsys)
        assert code == 0
        assert "subcommands" in out

    def test_missing_manifest_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(
            ["assess", "--manifest", str(tmp_path / "no.json"), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2

    def test_bad_bandwidth_exits_1(self, capsys, scenario_dir, tmp_path):
        code, out, err = run(
            [
                "perimeters",
                "--manifest", str(scenario_dir / "manifest.json"),
                "--out", str(tmp_path / "p"),
                "--bandwidth-m", "-5",
            ],
            capsys,
        )
        assert code == 1
        assert "bandwidth" in err

    def test_duplicate_block_id_exits_1(self, capsys, scenario_dir, tmp_path):
        scen = shutil.copytree(scenario_dir, tmp_path / "s")
        doc = json.loads((scen / "blocks.geojson").read_text())
        first, second = doc["features"][:2]
        second["properties"]["block_id"] = first["properties"]["block_id"]
        (scen / "blocks.geojson").write_text(json.dumps(doc))
        code, out, err = run(
            ["assess", "--manifest", str(scen / "manifest.json"),
             "--out", str(tmp_path / "i"), "--bandwidth-m", "4"],
            capsys,
        )
        assert code == 1
        assert "duplicate block_id" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "names, named",
        [
            # Spaces become underscores, so both would write district_a files.
            (["district a", "district_a"], "'district a' and 'district_a'"),
            (["north/south", "district-b"], "'north/south'"),
            (["nul\0name", "district-b"], "'nul\\x00name'"),
        ],
        ids=["stems-collide", "path-separator", "nul"],
    )
    def test_district_names_that_cannot_name_files_exit_1(
        self, capsys, scenario_dir, tmp_path, names, named
    ):
        scen = shutil.copytree(scenario_dir, tmp_path / "s")
        doc = json.loads((scen / "perimeter.geojson").read_text())
        for feature, name in zip(doc["features"], names, strict=True):
            feature["properties"]["name"] = name
        (scen / "perimeter.geojson").write_text(json.dumps(doc))
        out = tmp_path / "p"
        code, stdout, err = run(
            ["perimeters", "--manifest", str(scen / "manifest.json"),
             "--out", str(out), "--bandwidth-m", "4"],
            capsys,
        )
        assert code == 1, err
        assert named in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    def test_negative_seed_exits_2_and_writes_nothing(self, capsys, tmp_path):
        code, out, err = run(["synth", "--seed", "-1", "--out", str(tmp_path / "s")], capsys)
        assert code == 2
        assert err == "error: synth: --seed must be a non-negative integer, not -1\n"
        assert not (tmp_path / "s").exists()

    def test_malformed_manifest_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(
            ["assess", "--manifest", str(bad), "--out", str(tmp_path)], capsys
        )
        assert code == 2


class TestStages:
    def test_perimeters_writes_daily_artifacts(self, capsys, scenario_dir, tmp_path):
        out = tmp_path / "p"
        code, _, _ = run(
            [
                "perimeters",
                "--manifest", str(scenario_dir / "manifest.json"),
                "--out", str(out),
                "--bandwidth-m", "4",
            ],
            capsys,
        )
        assert code == 0
        geojsons = sorted(out.glob("new_burn_*.geojson"))
        assert len(geojsons) == 12  # 2 districts x 6 days
        doc = json.loads(geojsons[0].read_text())
        assert doc["type"] == "FeatureCollection"
        assert (out / "cumulative_district-a.asc").exists()

    def test_perimeters_outside_official_all_empty_exit_0(self, capsys, tmp_path, scenario_dir):
        # Keep only the decoy detections, which sit outside both districts.
        import csv

        far = tmp_path / "far"
        far.mkdir()
        with (scenario_dir / "detections.csv").open() as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        with (far / "detections.csv").open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for r in body[-12:]:  # the generator appends decoys last
                w.writerow(r)
        manifest = json.loads((scenario_dir / "manifest.json").read_text())
        for role, rel in manifest["paths"].items():
            manifest["paths"][role] = str((scenario_dir / rel).resolve())
        manifest["paths"]["detections"] = "detections.csv"
        (far / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "empty"
        code, stdout, _ = run(
            [
                "perimeters",
                "--manifest", str(far / "manifest.json"),
                "--out", str(out),
                "--bandwidth-m", "4",
            ],
            capsys,
        )
        assert code == 0
        asc_files = list(out.glob("new_burn_*.asc"))
        assert len(asc_files) == 12
        for asc in asc_files:
            cells = asc.read_text().split("\n")[6:]
            assert set(" ".join(cells).split()) <= {"0"}

    def test_downscale_mass_report(self, capsys, scenario_dir, tmp_path):
        out = tmp_path / "d"
        code, stdout, _ = run(
            ["downscale", "--manifest", str(scenario_dir / "manifest.json"),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert (out / "population.asc").exists()
        lines = (out / "mass_report.csv").read_text().strip().split("\n")
        assert lines[0] == "block_id,pop,allocated,rel_err,fallback"
        for line in lines[1:]:
            rel_err = float(line.split(",")[3])
            fallback = line.split(",")[4]
            if not fallback:
                assert rel_err <= 1e-9

    def test_assess_and_report(self, capsys, scenario_dir, tmp_path):
        out = tmp_path / "a"
        code, _, _ = run(
            ["assess", "--manifest", str(scenario_dir / "manifest.json"),
             "--out", str(out), "--bandwidth-m", "4"],
            capsys,
        )
        assert code == 0
        code, stdout, _ = run(["report", "--report", str(out / "report.csv")], capsys)
        assert code == 0
        assert "event total loss usd:" in stdout
        assert "district district-a:" in stdout

    def test_render_svg(self, capsys, scenario_dir, tmp_path):
        svg = tmp_path / "map.svg"
        code, _, _ = run(
            ["render", "--manifest", str(scenario_dir / "manifest.json"),
             "--out", str(svg), "--bandwidth-m", "4"],
            capsys,
        )
        assert code == 0
        assert svg.read_text().startswith("<svg ")

    def test_full_pipeline_byte_identical_across_runs(self, capsys, scenario_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code, _, _ = run(
                ["assess", "--manifest", str(scenario_dir / "manifest.json"),
                 "--out", str(out), "--bandwidth-m", "4"],
                capsys,
            )
            assert code == 0
            outs.append(out / "report.csv")
        assert filecmp.cmp(*outs, shallow=False)

    def test_active_extent_reports_more_exposure(self, capsys, scenario_dir, tmp_path):
        from fireimpact.io_formats import read_report

        base = tmp_path / "nb"
        active = tmp_path / "ae"
        for out, flag in ((base, []), (active, ["--active-extent"])):
            code, _, _ = run(
                ["assess", "--manifest", str(scenario_dir / "manifest.json"),
                 "--out", str(out), "--bandwidth-m", "4", *flag],
                capsys,
            )
            assert code == 0
        nb = read_report(base / "report.csv")
        ae = read_report(active / "report.csv")
        nb_total = sum(float(r["exposed_population"]) for r in nb)
        ae_total = sum(float(r["exposed_population"]) for r in ae)
        # The synthetic scenario never re-burns a cell, so the active mask
        # equals the new burn and totals agree; dollar columns always agree.
        assert ae_total == nb_total
        assert [r["land_loss_usd"] for r in nb] == [r["land_loss_usd"] for r in ae]

    def test_cumulative_report_flag(self, capsys, scenario_dir, tmp_path):
        from fireimpact.io_formats import read_report

        out = tmp_path / "cum"
        code, _, _ = run(
            ["assess", "--manifest", str(scenario_dir / "manifest.json"),
             "--out", str(out), "--bandwidth-m", "4", "--cumulative-report"],
            capsys,
        )
        assert code == 0
        rows = read_report(out / "report.csv")
        district_a = [r for r in rows if r["district"] == "district-a"]
        running = 0
        for r in district_a:
            running += int(r["new_burn_cells"])
            assert int(r["cumulative_new_burn_cells"]) == running


class TestReportAmounts:
    def test_negative_cents_round_trip(self, capsys, tmp_path):
        from fireimpact.impact import DailyImpactRecord, Demographics, cents_to_usd
        from fireimpact.io_formats import read_report, write_report

        rec = DailyImpactRecord(
            date=dt.date(2025, 1, 7),
            district="A",
            land_loss_cents={21: -50},
            road_loss_cents={"residential": -150},
            road_length_m={"residential": 2.5},
            building_loss_cents=-1,
            building_count=0,
            poi_count={},
            exposed_population=0.0,
            demographics=Demographics.zeros(),
            new_burn_cells=0,
        )
        path = tmp_path / "report.csv"
        write_report([rec], path)
        (back,) = cli._records_from_rows(read_report(path))
        assert back.land_loss_cents == {21: -50}
        assert back.road_loss_cents == {"residential": -150}
        assert back.building_loss_cents == -1
        code, out, _ = run(["report", "--report", str(path)], capsys)
        assert code == 0
        assert f"event total loss usd: {cents_to_usd(-201)}\n" in out
        assert cents_to_usd(-201) == "-2.01"

    def _report_with(self, tmp_path, column, value):
        """A one-row report.csv whose ``column`` holds ``value``."""
        import csv

        from fireimpact.impact import DailyImpactRecord, Demographics
        from fireimpact.io_formats import write_report

        rec = DailyImpactRecord(
            date=dt.date(2025, 1, 7),
            district="A",
            land_loss_cents={21: 150},
            road_loss_cents={"residential": 250},
            road_length_m={"residential": 2.5},
            building_loss_cents=1000,
            building_count=1,
            poi_count={"school": 2},
            exposed_population=3.5,
            demographics=Demographics.zeros(),
            new_burn_cells=4,
        )
        path = tmp_path / "report.csv"
        write_report([rec], path)
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert column in rows[0]
        rows[0][column] = value
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        return path

    @pytest.mark.parametrize("value", ["1.2.3", "1.239", "12,5", ""])
    def test_malformed_building_amount_exits_2(self, capsys, tmp_path, value):
        path = self._report_with(tmp_path, "building_loss_usd", value)
        code, out, err = run(["report", "--report", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "building_loss_usd" in err
        assert "2025-01-07" in err and " A" in err

    @pytest.mark.parametrize(
        "column, value",
        [("poi_count_school", "2.5"), ("poi_count_school", "two"),
         ("exposed_population", "many"), ("exposed_population", ""),
         ("land_loss_usd_class_21", "1.5e2"), ("road_loss_usd_residential", "-")],
    )
    def test_malformed_number_in_other_columns_exits_2(
        self, capsys, tmp_path, column, value
    ):
        path = self._report_with(tmp_path, column, value)
        code, _, err = run(["report", "--report", str(path)], capsys)
        assert code == 2
        assert column in err

    def test_well_formed_report_round_trips(self, tmp_path):
        from fireimpact.io_formats import read_report

        path = self._report_with(tmp_path, "building_loss_usd", "-0.50")
        (back,) = cli._records_from_rows(read_report(path))
        assert back.building_loss_cents == -50
        assert back.land_loss_cents == {21: 150}
        assert back.road_loss_cents == {"residential": 250}
        assert back.poi_count == {"school": 2}
        assert back.exposed_population == 3.5
        assert back.new_burn_cells == 4

    def test_row_with_more_fields_than_header_exits_2(self, capsys, tmp_path):
        path = self._report_with(tmp_path, "building_count", "1")
        lines = path.read_text().splitlines()
        path.write_text(f"{lines[0]}\n{lines[1]},extra\n")
        code, out, err = run(["report", "--report", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "more fields than the header" in err
        assert "2025-01-07" in err and " A" in err

    @pytest.mark.parametrize("column", ["district", "date"])
    def test_header_without_key_column_exits_2(self, capsys, tmp_path, column):
        path = self._report_with(tmp_path, column, "")
        header, row = path.read_text().splitlines()
        names = header.split(",")
        keep = [k for k, name in enumerate(names) if name != column]
        values = row.split(",")
        path.write_text(
            ",".join(names[k] for k in keep) + "\n"
            + ",".join(values[k] for k in keep) + "\n"
        )
        code, out, err = run(["report", "--report", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert f"no {column!r} column" in err


# sha256 of the outputs for `synth --seed 7`, recorded before overlay
# rasterization moved to one batched pass per run. Any change to them is a
# change in the program's results, not only in its speed.
PINNED_DIGESTS = {
    ("assess",): "c5deec9427b7a17ba5927af149e9bd4f8ed22fc9ad9723db502186c8cf827527",
    ("assess", "--active-extent", "--cumulative-report"):
        "4ed90d2fc6b444a340b9a2b71fd0b3250b6623e2b9ba90752f2dc3b27a4d4fa4",
    ("downscale", "population.asc"):
        "e494cdd712acc66e04cf2bfd931b3dc7faa3ece8c487a9cc7eb7bd0127354366",
    ("downscale", "mass_report.csv"):
        "563226b5168cf2e70b4d896a6e6da8590b5dcb572a4ff6fd884298a5fd71e607",
}


# sha256 of `report`'s stdout on the report.csv of each `assess` run in
# PINNED_DIGESTS, recorded before report.csv's columns moved into one table.
PINNED_REPORT_STDOUT_DIGESTS = {
    ("assess",): "37cd9b62d02a485955be5cdfd9b6d5c0aea15d2df8d74edd104a3ffc16b1fbca",
    ("assess", "--active-extent", "--cumulative-report"):
        "fa9d5651d2b4ea8675ecd8e6798f9cd28df51139e43230a3ee4059bb6e1a084c",
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of every file `perimeters` writes and of the SVG `render` writes
# for `synth --seed 7`, by KDE flags, recorded before boundary tracing
# moved from `extract_daily_perimeters` into the writers.
PINNED_PERIMETER_DIGESTS = {
    (): {
        "cumulative_district-a.asc":
            "f2d5f9e0a3d6956d8aec9506471a696870297bf8d894406bef648572a99dc2b6",
        "cumulative_district-b.asc":
            "6211ac4ee46c47e2edc2b7c1a69e0fb440347b0a3c2b0c64c18546b0586336bf",
        "new_burn_district-a_2025-01-07.asc":
            "f2d5f9e0a3d6956d8aec9506471a696870297bf8d894406bef648572a99dc2b6",
        "new_burn_district-a_2025-01-07.geojson":
            "a47070f9f0ae29e7950ad9679cf8b684c56a4bbdae12b559bced82e662314735",
        "new_burn_district-a_2025-01-08.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-a_2025-01-08.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-a_2025-01-09.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-a_2025-01-09.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-a_2025-01-10.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-a_2025-01-10.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-a_2025-01-11.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-a_2025-01-11.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-a_2025-01-12.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-a_2025-01-12.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-b_2025-01-07.asc":
            "6211ac4ee46c47e2edc2b7c1a69e0fb440347b0a3c2b0c64c18546b0586336bf",
        "new_burn_district-b_2025-01-07.geojson":
            "6059508f053f64c8f5b7f045adfa939cf32bb2c458c980e306269a9beff85333",
        "new_burn_district-b_2025-01-08.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-b_2025-01-08.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-b_2025-01-09.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-b_2025-01-09.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-b_2025-01-10.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-b_2025-01-10.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-b_2025-01-11.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-b_2025-01-11.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-b_2025-01-12.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-b_2025-01-12.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
    },
    ("--bandwidth-m", "4"): {
        "cumulative_district-a.asc":
            "0575680f59cfcf1812751bd21df146c5cf793dcd845d5844f0e28a208433971b",
        "cumulative_district-b.asc":
            "0dc01f1e9c088c0043535734ce8df6b1dc608c4d3b814dda0b14650efd8e0c7b",
        "new_burn_district-a_2025-01-07.asc":
            "fd986e534a3912f72446294b7c9ca950b5f7b1b956d502c93b8293c0c819ce01",
        "new_burn_district-a_2025-01-07.geojson":
            "a8b6fb2de2b83219ed6e3b5683d38ffdc21375b2c595fcaf5ca19a96227ef7a4",
        "new_burn_district-a_2025-01-08.asc":
            "c77e24ea9d3632048ae4fcde7eb0f0ff0a85245951e95354802fb2cf6929300c",
        "new_burn_district-a_2025-01-08.geojson":
            "d45ade45189edf63b5fd4cffbb4d2d0d5fa1c94bae02f37da0241bfd76c57a8f",
        "new_burn_district-a_2025-01-09.asc":
            "8417a970eb7c7e9c73076e4470c3996a41ac72a8e7b665e0ec68959d16610652",
        "new_burn_district-a_2025-01-09.geojson":
            "2607d1bdae3ba3ea3f017d5d8866b6dbf2b03eace7847b355ec5e21959ef601c",
        "new_burn_district-a_2025-01-10.asc":
            "183c2912cc392213922dc7f7265144381e9ab92034f552696969b15ced67606e",
        "new_burn_district-a_2025-01-10.geojson":
            "675401fdbb20d68d56b2fd753e212655505a592bd3ca76089dce881defbae880",
        "new_burn_district-a_2025-01-11.asc":
            "3a6ad2ba788d117683aa74241468957fa036e01bbd791fc818afd0f15dd7956c",
        "new_burn_district-a_2025-01-11.geojson":
            "de8e0507d2ad2101ceb04dad75ce823550048dd59928056cb45e96286380e38d",
        "new_burn_district-a_2025-01-12.asc":
            "477bfb9e23010b3c5f4f3e33eac8db211016e038e906bec1d07b01cf6ce4f3d3",
        "new_burn_district-a_2025-01-12.geojson":
            "c64963a3f8d568e7330f5b0060f35135e1dbed10a347e2eff10230f0c7661b1c",
        "new_burn_district-b_2025-01-07.asc":
            "5afaab55d71a3fdeef1f27aeeb91b0812f115cb274e56d0b959b0284be91fca0",
        "new_burn_district-b_2025-01-07.geojson":
            "2a913b06a275811c9b4695a2c49130d666cd2f7f025e268cd56ce054a0bc0e4d",
        "new_burn_district-b_2025-01-08.asc":
            "dd68492e3e58108eab3f82bccf69a6959884e19f1814de3ebe028984f357c126",
        "new_burn_district-b_2025-01-08.geojson":
            "01fd103cf8a50fe2bf73377563f4fb02a2a6f82d92d90d476d06eb19559b8a82",
        "new_burn_district-b_2025-01-09.asc":
            "b688dc7bd730c0fd31acfed8df76b67600040eefed887a7a8b131d704b7917dc",
        "new_burn_district-b_2025-01-09.geojson":
            "3a2e0abb344cac81fcfee6dc7f5ccf15ca465025d6e8b422eabcd52aa9d986a0",
        "new_burn_district-b_2025-01-10.asc":
            "88552700a3634e76967ab955a49968cc195e07f9aa55acfd6ed68f2e3bae2d54",
        "new_burn_district-b_2025-01-10.geojson":
            "23d800c0e3bdabc2cda657ebeb7ab4997c87c3aae97d5dd99ce906b0f9b985bf",
        "new_burn_district-b_2025-01-11.asc":
            "607cc454db9d276769ec3a79d0c790a531aeed8c737d84752c8347f3bd6c7ed7",
        "new_burn_district-b_2025-01-11.geojson":
            "7fc4129b4721c0785f20946be13db9074469c223d85ada73ee9ffb5aa0032fb1",
        "new_burn_district-b_2025-01-12.asc":
            "bded90fe273b3bc35054ea79456006f6d9dbc555c1f643a6548946e55bff38fa",
        "new_burn_district-b_2025-01-12.geojson":
            "7642c222698cbd9d57d2fe9005a7acccb24e938b849928836d6222b8bcef0be6",
    },
    # FRP weights and a mid-size (41 x 41-cell) KDE window, recorded before
    # the KDE added narrow-window detections in batches. At 750 m the FRP
    # weights leave every mask as it is; at 100 m they change every file.
    ("--frp-weighted",): {
        "cumulative_district-a.asc":
            "f2d5f9e0a3d6956d8aec9506471a696870297bf8d894406bef648572a99dc2b6",
        "cumulative_district-b.asc":
            "6211ac4ee46c47e2edc2b7c1a69e0fb440347b0a3c2b0c64c18546b0586336bf",
        "new_burn_district-a_2025-01-07.asc":
            "f2d5f9e0a3d6956d8aec9506471a696870297bf8d894406bef648572a99dc2b6",
        "new_burn_district-a_2025-01-07.geojson":
            "a47070f9f0ae29e7950ad9679cf8b684c56a4bbdae12b559bced82e662314735",
        "new_burn_district-a_2025-01-08.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-a_2025-01-08.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-a_2025-01-09.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-a_2025-01-09.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-a_2025-01-10.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-a_2025-01-10.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-a_2025-01-11.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-a_2025-01-11.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-a_2025-01-12.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-a_2025-01-12.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-b_2025-01-07.asc":
            "6211ac4ee46c47e2edc2b7c1a69e0fb440347b0a3c2b0c64c18546b0586336bf",
        "new_burn_district-b_2025-01-07.geojson":
            "6059508f053f64c8f5b7f045adfa939cf32bb2c458c980e306269a9beff85333",
        "new_burn_district-b_2025-01-08.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-b_2025-01-08.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-b_2025-01-09.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-b_2025-01-09.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-b_2025-01-10.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-b_2025-01-10.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-b_2025-01-11.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-b_2025-01-11.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
        "new_burn_district-b_2025-01-12.asc":
            "f29e065aa69add0f4198f193224fa1eb772c9298739e65c0173528505f5d2781",
        "new_burn_district-b_2025-01-12.geojson":
            "6d6b80a88dc60e65991d34024fe7cf2eb86531ffba8b75efb697fe0a601f2799",
    },
    ("--bandwidth-m", "100"): {
        "cumulative_district-a.asc":
            "c8d1039bba0f63b03eae8288d6972e750fce43a8520b01deef1868f609490543",
        "cumulative_district-b.asc":
            "76fe67fc54127e747441d189901ed3685546676db7622126bc318d7dcfe054dd",
        "new_burn_district-a_2025-01-07.asc":
            "36dd0dc2904f7770b2473fbd2b565ecf8eb23d81f654cf176f0806a7b8527b86",
        "new_burn_district-a_2025-01-07.geojson":
            "3285fef99a560612399bd0390a61e1643f217c92ebd80306cad8489312600b4b",
        "new_burn_district-a_2025-01-08.asc":
            "fae6bc67d6f2b243a949ed9d642dbabdaf4c1410378a5336d50a6ad38f3c224b",
        "new_burn_district-a_2025-01-08.geojson":
            "62eae27fe81f584934640acb1cdcf509f41b8daedd7501845b3ec8b21e192ec5",
        "new_burn_district-a_2025-01-09.asc":
            "708f79d6724b7cc8a4b8b4d1bc57e06d9889e5ca3cab15e9267426014a683295",
        "new_burn_district-a_2025-01-09.geojson":
            "f626e6f1661c2e5a6c1a391e7e98ad8ad9535d9f63a1ff7a702910e52a5a0a64",
        "new_burn_district-a_2025-01-10.asc":
            "aee6fbb29d9e498ee5ad3628b1c25b24a2fc0f4600cb69f24216d8cc733d3b1b",
        "new_burn_district-a_2025-01-10.geojson":
            "7c6c5dfb7c1551c7ffcaeead24792afff261f6a9c8dfcd6cf65356c148a0f760",
        "new_burn_district-a_2025-01-11.asc":
            "9ecc5c317a706e5b36235d88f01706375ab2ce784af805e91dac7a79b60a825d",
        "new_burn_district-a_2025-01-11.geojson":
            "f6f9d305f7587e35d7d56be999407de0be5c1468e7a6f0ca24ca85dff6dfa6fc",
        "new_burn_district-a_2025-01-12.asc":
            "fe88073e2bc0777daea48e6ccdb8759252d3d6c60810f95de51e12dae2a8cc7c",
        "new_burn_district-a_2025-01-12.geojson":
            "dcaccb4605a15c3aa6cec5f2f96e5a57d1c6b5f18533e28b020a99ec9e7b452e",
        "new_burn_district-b_2025-01-07.asc":
            "56db61c0b0acaf773438852f7825bee0abf921e99a9d18967694aaae1169afaf",
        "new_burn_district-b_2025-01-07.geojson":
            "8fd6356da19f522f53b87e514b665552ee2006c888301cb789fcafc5e0b4d416",
        "new_burn_district-b_2025-01-08.asc":
            "070faa12a8fb9fea8db8869b91fa7eddf72941623733b153e6faebae08245344",
        "new_burn_district-b_2025-01-08.geojson":
            "4aaffe3f4fa8af6ddf55ac4395b4fafe8e4fecea2ba1008886c20934894416a5",
        "new_burn_district-b_2025-01-09.asc":
            "79e0ee718aff6ae2a48e8c6453c66c51c3b2d4578915732353a05b9f6779b620",
        "new_burn_district-b_2025-01-09.geojson":
            "320962f9d232a678d34cb4713cc91708c225f4c9ff37a310e7c9caa5c3fc764d",
        "new_burn_district-b_2025-01-10.asc":
            "f877cec96fa469a259eb0fa6061fb82d0d2c731c9a728138260ec3fba09a76bb",
        "new_burn_district-b_2025-01-10.geojson":
            "ff0617e671a64dbeab2a9a259679ae52a8cd1ea3e2aefa63c0c062703177e0c5",
        "new_burn_district-b_2025-01-11.asc":
            "18ba504f7a755948ab4582986b24cc3031072f8011f2cc2c3f264fdb4a4a5241",
        "new_burn_district-b_2025-01-11.geojson":
            "2c643c9b32b8ceb8bfe114f6cb569815aa4128bcbb9876a4bd98a63704b90772",
        "new_burn_district-b_2025-01-12.asc":
            "bf1ea167603dd68aaeb00177268f6642460f34a40caa96e8a283564340dd5f85",
        "new_burn_district-b_2025-01-12.geojson":
            "44ce52b20e2c6e4629a0e1b8be961da0c39072a0dd1d5c40e3cb8aa2d4dd849e",
    },
    ("--bandwidth-m", "100", "--frp-weighted"): {
        "cumulative_district-a.asc":
            "cfd2e96a53036bd6efb1827e4f198e128a64a6e0985598b2b8bae5cb70207570",
        "cumulative_district-b.asc":
            "9560a2b09391c5a20e4e93b62801c15e0c509b30c1b0eb4482d1e602a22fec02",
        "new_burn_district-a_2025-01-07.asc":
            "22a909d35f00190fcec7350e62d8d53fbf0d3b107b2cb31a9af206e0df0a8aaa",
        "new_burn_district-a_2025-01-07.geojson":
            "d8801fe9a4c48d5adabb9242d484017e811d5ab9aa2054ae2867bee54dc798cf",
        "new_burn_district-a_2025-01-08.asc":
            "827191f8afda152fd9fb6ad5d1e5d2321dac6acd9d4600dd5b1a5c7c29a4d823",
        "new_burn_district-a_2025-01-08.geojson":
            "a2d142280ef75d0a7bd02a7cf4c8a79a03d2a5942b40cdda467d06dc0c637e00",
        "new_burn_district-a_2025-01-09.asc":
            "baa909a96151955458b6902380b840f941037e37e2f373c7a823dda307497d5f",
        "new_burn_district-a_2025-01-09.geojson":
            "94ffd66d933aa69017e07f0fd420015fadcd7724af7e3a7e48222dd07fc716c4",
        "new_burn_district-a_2025-01-10.asc":
            "c73bd1c1ddee7768eed799800410bdb8e0a8dda48e4fd153de18f6bfacd1c4db",
        "new_burn_district-a_2025-01-10.geojson":
            "be99a70afb371ad7c52da5ccd52b87aaf15b05d60487dd3d639d55106906c287",
        "new_burn_district-a_2025-01-11.asc":
            "d81f69ab70120f95b2f35e1b91e7dd9541a0de4c8acf725997327344c6fb2d45",
        "new_burn_district-a_2025-01-11.geojson":
            "a6f07ba958d6569967c8be2c7466bd1add6c46809dd6de984f871186749111bd",
        "new_burn_district-a_2025-01-12.asc":
            "3702b70570d323282fd4507f1c0a57e8b12c3e5e2799d1bdd99f4d6388ea3762",
        "new_burn_district-a_2025-01-12.geojson":
            "b06bf79e38dacb65f3b95f90b64903c325101e3a7aaccb1728753f3212d712a8",
        "new_burn_district-b_2025-01-07.asc":
            "eefcb7333e2d5775c94ea3388f75f397fdb9df41b71c4bc76d0d7225f19a9960",
        "new_burn_district-b_2025-01-07.geojson":
            "3b4c12062a33d2a683364092381fce60674d25c589272a3ae4e5454f5993b0b9",
        "new_burn_district-b_2025-01-08.asc":
            "a44ea596ecc71409a0c94f53e878e38dc7468ce29bd2910009f0554d7a3b4f56",
        "new_burn_district-b_2025-01-08.geojson":
            "239fffa4eccde17bfb24b3b038078d1cc49b069dc5ff9ae30e32b38677221d29",
        "new_burn_district-b_2025-01-09.asc":
            "cce7e3b892d78d209eaa1f2405e373093339facf076ade65655e83aa98c7e1a0",
        "new_burn_district-b_2025-01-09.geojson":
            "2ce945f944446090fa6745c173bacfaf98761bd10fe34be4d0c96a62d3418342",
        "new_burn_district-b_2025-01-10.asc":
            "87f14d288e96845581bc9ceb3ff2e3ebfa3c69dbad778778939c5388746a6f2d",
        "new_burn_district-b_2025-01-10.geojson":
            "4502134465e386ce7b271bb0056c41b4448fc4093c2fd81796c26eab114496fc",
        "new_burn_district-b_2025-01-11.asc":
            "3ec8b432c1ed8c2dbf5c9a75a6d1c8677bc46196440ba9969cfe85d0a3baa196",
        "new_burn_district-b_2025-01-11.geojson":
            "692d5670f819c5dc438f88f212423436e2c627312abad2cc2cacef8dc90713cd",
        "new_burn_district-b_2025-01-12.asc":
            "7fd57ef6560b5df4d3e339e405e73193ac265774fbf8aedf5e03090d3df98fda",
        "new_burn_district-b_2025-01-12.geojson":
            "89428e14e69b5fd8bf25eb025dc9001884d835c8c243976d5f1edb40106a7057",
    },
}
PINNED_RENDER_DIGESTS = {
    (): "2ce8abb3b98d2e6acce64405b8dd7d32a9aa38b537a2148b1aa731208f8d405f",
    ("--bandwidth-m", "4"):
        "66e7c0acbb7cf18b7e63d9bdc95d8ddca421416f698e74c2f07a921b5aedc721",
}


class TestPinnedOutputs:
    def test_assess_reports_match_pinned_digests(self, capsys, scenario_dir, tmp_path):
        for key in (("assess",), ("assess", "--active-extent", "--cumulative-report")):
            out = tmp_path / "-".join(key)
            code, _, _ = run(
                ["assess", "--manifest", str(scenario_dir / "manifest.json"),
                 "--out", str(out), *key[1:]],
                capsys,
            )
            assert code == 0
            assert sha256_of(out / "report.csv") == PINNED_DIGESTS[key], key
            code, stdout, _ = run(["report", "--report", str(out / "report.csv")], capsys)
            assert code == 0
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            assert digest == PINNED_REPORT_STDOUT_DIGESTS[key], key

    def test_downscale_outputs_match_pinned_digests(self, capsys, scenario_dir, tmp_path):
        out = tmp_path / "d"
        code, _, _ = run(
            ["downscale", "--manifest", str(scenario_dir / "manifest.json"),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        for name in ("population.asc", "mass_report.csv"):
            assert sha256_of(out / name) == PINNED_DIGESTS[("downscale", name)], name

    @pytest.mark.parametrize("flags", sorted(PINNED_PERIMETER_DIGESTS))
    def test_perimeters_files_match_pinned_digests(self, capsys, scenario_dir, tmp_path, flags):
        out = tmp_path / "p"
        code, _, _ = run(
            ["perimeters", "--manifest", str(scenario_dir / "manifest.json"),
             "--out", str(out), *flags],
            capsys,
        )
        assert code == 0
        got = {f.name: sha256_of(f) for f in sorted(out.iterdir())}
        assert got == PINNED_PERIMETER_DIGESTS[flags]

    @pytest.mark.parametrize("flags", sorted(PINNED_RENDER_DIGESTS))
    def test_render_svg_matches_pinned_digest(self, capsys, scenario_dir, tmp_path, flags):
        svg = tmp_path / "map.svg"
        code, _, _ = run(
            ["render", "--manifest", str(scenario_dir / "manifest.json"),
             "--out", str(svg), *flags],
            capsys,
        )
        assert code == 0
        assert sha256_of(svg) == PINNED_RENDER_DIGESTS[flags]
