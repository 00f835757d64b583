import datetime as dt
import filecmp
import hashlib
import json

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


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
