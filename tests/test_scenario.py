import filecmp
import hashlib
from pathlib import Path

import pytest

from fireimpact.errors import ValidationError
from fireimpact.io_formats import read_manifest
from fireimpact.pipeline import assess, load_layers
from fireimpact.scenario import (
    DistrictSpec,
    ScenarioSpec,
    generate,
    kde_params_from_meta,
    read_ground_truth,
)

ALL_ROLES = {
    "detections", "landcover", "blocks", "roads", "buildings", "pois",
    "official_perimeter", "weights", "costs", "demographics",
}


# The benchmark's tree: 20 m cells, 10 days, two 200×200-cell districts.
BENCHMARK_SPEC = dict(
    n_days=10, n_rows=208, n_cols=416, cell_size=20.0,
    districts=[
        DistrictSpec("district-a", 4, 203, 4, 203, 2, 400_000),
        DistrictSpec("district-b", 4, 203, 212, 411, 6, 300_000),
    ],
)
PINNED_TREE_SPECS = {
    "default-seed-7": ScenarioSpec(seed=7),
    "benchmark-seed-1": ScenarioSpec(seed=1, **BENCHMARK_SPEC),
}
# sha256 of every file `generate` writes for each spec above, recorded
# before `generate` stated each feature kind, role and tract key once.
PINNED_TREE_DIGESTS = {
    "default-seed-7": {
        "blocks.geojson":
            "c48a22286a4d736b1224860f1fa4a61726ce02dad809a0df2f6b7c3cf6034b6a",
        "buildings.geojson":
            "ab50ad3c237224ecb3b8830e1df082ac2de20bbe9f864650aa5d1a244161541b",
        "costs.json":
            "7e75573b044364e0ddcd1eef3bc7e45d27bc29ed5d727bfae6b792eda8c2c2d0",
        "demographics.csv":
            "9c8250ca5f4eb405bcb922812e9c85ef79fd7d89b0d26bd08a87d639e1a0e3a0",
        "detections.csv":
            "98d1f8d55578560c77b74d6da13d1e63022f195a658aef485575444ffcba093e",
        "ground_truth.csv":
            "fa8c9ef589ae76f3d8696d96fef072f08dba6beb4f58baf1c1008db92556d89f",
        "landcover.asc":
            "33f8d8d2485c6790cfd99e7804dc484811afb7274d3f96e3afc416c27e8db8b3",
        "manifest.json":
            "bc483038037f5e61a686328f7d3d9192c2c3789af463020a647a71b7d0f66229",
        "perimeter.geojson":
            "19fdbe5ee918d1b9c93c98c1f3244ecd162e1a9b8855e9733904865ece85b6f9",
        "pois.geojson":
            "35ea74b0a71f17d700522e65e3a8e1f7032c0b7a98f0074e1293f5da53dc1fde",
        "roads.geojson":
            "a9eb2d1f201de85dab473d68c73240d0cdaeb8b5f9284ddcb468bd6396c8a5dc",
        "weights.json":
            "739cad68813fe9cf64df951435bd60b8abcebaf666c1c0e9e5c1e1dc9fe68a6b",
    },
    "benchmark-seed-1": {
        "blocks.geojson":
            "3261b9e38eb3e35c23b3fd34098d0eea93b3e78cb03a4ed70809ebeb34ea8c22",
        "buildings.geojson":
            "87818bd5b808f1309daa3a7c4b2e2afab8cf88c5dbdbad24a17c6a47ddb62df6",
        "costs.json":
            "7e75573b044364e0ddcd1eef3bc7e45d27bc29ed5d727bfae6b792eda8c2c2d0",
        "demographics.csv":
            "c59e369cd22bd7dea062f41d780d85322285f522fee203897775f2cfeebb0471",
        "detections.csv":
            "811bb621586e597fcaa13d67fecd5eeba8b66a5e4192df90e770a1e1cf24eb36",
        "ground_truth.csv":
            "e431b2b3b8fec78cf4bc7691113c3d3f563b10766f01892707e1a27a4693b32a",
        "landcover.asc":
            "d4fd279c9694a7fc7d8e0fb41a58f40cff4e95fb1fb7d5d63ce2451e1efc9c4f",
        "manifest.json":
            "51df1761f72f1067ea7225237012200f7c43e7289255f3f3224f1f58ffc96da0",
        "perimeter.geojson":
            "a2190e096afc0edf6d2dd384fc936d1e25d575ffacca984253ed9fcdf1957d17",
        "pois.geojson":
            "d3a78cc203c5bdc90c6e60dc3540391ae6059cc97c68d8e0c93bb23b02b43c6e",
        "roads.geojson":
            "99d21718d0386195e7dfa09646ca285a6f6fff0b946287f7ef7a88c749142383",
        "weights.json":
            "739cad68813fe9cf64df951435bd60b8abcebaf666c1c0e9e5c1e1dc9fe68a6b",
    },
}


def tree_files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


class TestGenerate:
    def test_same_seed_byte_identical_trees(self, tmp_path):
        generate(ScenarioSpec(seed=11), tmp_path / "a")
        generate(ScenarioSpec(seed=11), tmp_path / "b")
        files_a = tree_files(tmp_path / "a")
        assert files_a == tree_files(tmp_path / "b")
        for rel in files_a:
            assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel

    @pytest.mark.parametrize("name", sorted(PINNED_TREE_SPECS))
    def test_tree_matches_pinned_digests(self, tmp_path, name):
        generate(PINNED_TREE_SPECS[name], tmp_path)
        got = {
            rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
            for rel in tree_files(tmp_path)
        }
        assert got == PINNED_TREE_DIGESTS[name]

    def test_different_seed_differs(self, tmp_path):
        generate(ScenarioSpec(seed=1), tmp_path / "a")
        generate(ScenarioSpec(seed=2), tmp_path / "b")
        a = (tmp_path / "a" / "detections.csv").read_bytes()
        b = (tmp_path / "b" / "detections.csv").read_bytes()
        assert a != b

    def test_peak_days_reflected_in_ground_truth(self, tmp_path):
        spec = ScenarioSpec(seed=3)
        _, truth = generate(spec, tmp_path / "s")
        for dspec in spec.districts:
            rows = [r for r in truth.rows if r["district"] == dspec.name]
            counts = [int(r["new_burn_cells"]) for r in rows]
            assert counts.index(max(counts)) == dspec.peak_day - 1

    def test_zero_population_gives_zero_exposure_truth(self, tmp_path):
        spec = ScenarioSpec(
            seed=5,
            districts=[
                DistrictSpec("empty", 4, 51, 4, 51, 2, 0),
            ],
        )
        _, truth = generate(spec, tmp_path / "z")
        assert all(float(r["exposed_population"]) == 0.0 for r in truth.rows)

    def test_ground_truth_round_trip(self, tmp_path):
        _, truth = generate(ScenarioSpec(seed=9), tmp_path / "s")
        back = read_ground_truth(tmp_path / "s" / "ground_truth.csv")
        assert back.meta == truth.meta
        assert back.rows == truth.rows
        assert back.meta["rng"] == "numpy-PCG64"

    def test_bad_peak_day_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioSpec(
                seed=1,
                districts=[DistrictSpec("x", 4, 51, 4, 51, 9, 10)],
            )


class TestPipelineMatchesTruth:
    def test_full_pipeline_reproduces_ground_truth_exactly(self, tmp_path):
        _, truth = generate(ScenarioSpec(seed=21), tmp_path / "s")
        manifest = read_manifest(tmp_path / "s" / "manifest.json")
        layers = load_layers(manifest, ALL_ROLES)
        records = assess(layers, kde_params_from_meta(truth.meta))
        by_key = {(r.date.isoformat(), r.district): r for r in records}
        assert len(records) == len(truth.rows)
        for row in truth.rows:
            rec = by_key[(row["date"], row["district"])]
            assert rec.new_burn_cells == int(row["new_burn_cells"])
            assert rec.exposed_population == float(row["exposed_population"])
            assert rec.land_total_cents == _cents(row["land_loss_usd"])
            assert rec.road_total_cents == _cents(row["road_loss_usd"])
            assert rec.building_loss_cents == _cents(row["building_loss_usd"])
            assert rec.building_count == int(row["building_count"])
            assert rec.poi_total == int(row["poi_count"])

    def test_demographic_groups_sum_to_exposure(self, tmp_path):
        _, truth = generate(ScenarioSpec(seed=22), tmp_path / "s")
        manifest = read_manifest(tmp_path / "s" / "manifest.json")
        layers = load_layers(manifest, ALL_ROLES)
        records = assess(layers, kde_params_from_meta(truth.meta))
        for rec in records:
            if rec.exposed_population == 0:
                continue
            for group in (rec.demographics.gender, rec.demographics.age,
                          rec.demographics.race):
                total = sum(group.values())
                assert abs(total - rec.exposed_population) <= (
                    1e-6 * rec.exposed_population
                )


def _cents(text: str) -> int:
    whole, _, frac = text.partition(".")
    return int(whole) * 100 + int(frac.ljust(2, "0")[:2] or "0")
