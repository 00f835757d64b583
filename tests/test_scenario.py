import datetime as dt
import filecmp
import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from scenario_reference import reference_generate

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
    # Corners the two specs above do not reach.
    "peak-last-day-seed-13": ScenarioSpec(
        seed=13, districts=[DistrictSpec("late", 4, 51, 4, 51, 6, 24000)],
    ),
    # 30 m cells: coordinates that are not dyadic.
    "cell-30m-seed-17": ScenarioSpec(seed=17, cell_size=30.0),
    "three-districts-seed-19": ScenarioSpec(
        seed=19, n_cols=176,
        districts=[
            DistrictSpec("district-a", 4, 51, 4, 51, 1, 24000),
            DistrictSpec("district-b", 4, 51, 64, 111, 3, 18000),
            DistrictSpec("district-c", 4, 51, 124, 171, 6, 9000),
        ],
    ),
    "southern-eastern-origin-seed-23": ScenarioSpec(
        seed=23, origin_lon=151.2, origin_lat=-33.87,
    ),
    "zero-population-seed-29": ScenarioSpec(
        seed=29,
        districts=[
            DistrictSpec("empty-a", 4, 51, 4, 51, 2, 0),
            DistrictSpec("empty-b", 4, 51, 64, 111, 4, 0),
        ],
    ),
    # 4 x 20 cells, the least six burn bands allow; no control columns.
    "minimum-width-seed-31": ScenarioSpec(
        seed=31, districts=[DistrictSpec("narrow", 4, 7, 4, 23, 3, 1000)],
    ),
}
# sha256 of every file `generate` writes for each spec above. The first
# two sets were recorded before `generate` stated each feature kind, role
# and tract key once; the others before it wrote layers as joined text.
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
    "peak-last-day-seed-13": {
        "blocks.geojson":
            "daf021ed27ec3801120c53d338b76476871672b793fbe32fc61b4d37c42087b3",
        "buildings.geojson":
            "98cf1453f08b5d7e2efc386a2e1b9927e9246301d5d4bd8afe2e466e0d43cbb5",
        "costs.json":
            "7e75573b044364e0ddcd1eef3bc7e45d27bc29ed5d727bfae6b792eda8c2c2d0",
        "demographics.csv":
            "f56f04b0d5cd8f45b4874710af459ece7b04f0e991be4a0bea9a492d3dc9256c",
        "detections.csv":
            "ee584318d33e3afe569639c226879075ea2aa7c37acb4cc3205e4842f2d161cd",
        "ground_truth.csv":
            "2a9d1e0a18f3e2a14b4eddccfb4edb99c0917338b58eb902186b3d621988e092",
        "landcover.asc":
            "027f9b430fe9a00815c9052b9b695e8f8ea1f93f43a7ca7a7e0620d84c7c2760",
        "manifest.json":
            "bc483038037f5e61a686328f7d3d9192c2c3789af463020a647a71b7d0f66229",
        "perimeter.geojson":
            "68dc2b3763aa46c40361f664796e0e1792072fdba11a8e33899d5cfe243554d0",
        "pois.geojson":
            "1c9a89429bf2fdf86e8014bbd99225bb8094e2b271084d845494dfbe1c938e18",
        "roads.geojson":
            "98c8cbf6cb4caaf0f8b76eee6075de0198c96ce7043508ebed7fcd3647a2db82",
        "weights.json":
            "739cad68813fe9cf64df951435bd60b8abcebaf666c1c0e9e5c1e1dc9fe68a6b",
    },
    "cell-30m-seed-17": {
        "blocks.geojson":
            "b6c46415e87b261292bdf488563f433bc93ba5e96ecbc529250e66735508f346",
        "buildings.geojson":
            "f06cb54fba0bcfff328cbb539d7ef0a89bf96b716b5bbcd7d390b357e5172f2f",
        "costs.json":
            "7e75573b044364e0ddcd1eef3bc7e45d27bc29ed5d727bfae6b792eda8c2c2d0",
        "demographics.csv":
            "297e9977d5bb67dd87c5783d365d8e3c8bcf4c99c625be5339b48add519a88aa",
        "detections.csv":
            "8c90be7aaeaccb5dcc1180301daa1afe3e927528642ba7bfd83609fe46197ebd",
        "ground_truth.csv":
            "3b87e15005c01f775f1288b146c969b48a28897ed61c6d185dda072784b11b80",
        "landcover.asc":
            "899df09e645b4806531ad79b81bec759a339e2271b2c3e8815c6e87c129280b0",
        "manifest.json":
            "89e3b797f49a3cb19ad9d92c79c7bd51c953217531e82b8b4bc6080516b33f96",
        "perimeter.geojson":
            "f54acf7fa219765594c9a38b0ecd4624bf724da619916f3c38f8803122157623",
        "pois.geojson":
            "8cda94171d790615191f9f47a9ba84b4de10cb3de00341364a756a1fa58f2457",
        "roads.geojson":
            "09b1f40333a3254e6b05ece56c99b535ca2630d147743f21d9fd6cfa7f96bcc1",
        "weights.json":
            "739cad68813fe9cf64df951435bd60b8abcebaf666c1c0e9e5c1e1dc9fe68a6b",
    },
    "three-districts-seed-19": {
        "blocks.geojson":
            "3b5859409da05dc79780a7e80060bd78ee6664bd5cbf9cd23520787eb8eb2e83",
        "buildings.geojson":
            "942d183386eb1b10b52cf4f5b22fa48738f568410986b907908dc3c2be4d1664",
        "costs.json":
            "7e75573b044364e0ddcd1eef3bc7e45d27bc29ed5d727bfae6b792eda8c2c2d0",
        "demographics.csv":
            "bb6e675179c286ed013a3c335696c026356bfc6c644ed5bbc6880a21c9e18443",
        "detections.csv":
            "6dc2e1a1508caf2cd09229fdc2a22025cbb45ae4cf3f5590ad7ae3da2e1e334e",
        "ground_truth.csv":
            "cb3fcd5e2cd75ea32921ee0b9de5af4be2dae3b75a3a5cc6fa528e839370b98e",
        "landcover.asc":
            "b2054f4f68c7f74618ccc34ec8927c49fe3b10e0935fa8f105cdc22a574f373d",
        "manifest.json":
            "0c8ef28acd256ca3018e65663c014bf5c40394bfeea509c550e75e9b654391df",
        "perimeter.geojson":
            "2f577bf4b5d37b4e76e07e49944b2cb96e61e13ce1ac30158a68dd07f5639c71",
        "pois.geojson":
            "cfa0f8fc77ff7b65a71802385cf8b101b90af0880dbef3913e9923bacdf2db69",
        "roads.geojson":
            "c656fc151dde79683aa653f35ce8ad19be8f4e2cb23ead122d42c08185f57864",
        "weights.json":
            "739cad68813fe9cf64df951435bd60b8abcebaf666c1c0e9e5c1e1dc9fe68a6b",
    },
    "southern-eastern-origin-seed-23": {
        "blocks.geojson":
            "0401121e3132a22f878abe3d6ed5760db749b94816e189763b3c1c0c630c66d9",
        "buildings.geojson":
            "b47dfc2fac453287fb9cf7763dc1ceffd7bd5287fd588b91970124d919312f5c",
        "costs.json":
            "7e75573b044364e0ddcd1eef3bc7e45d27bc29ed5d727bfae6b792eda8c2c2d0",
        "demographics.csv":
            "c856b4ca1b3c8b0e8816386f9af4865268e34502cb0521a1bac641beae70aa5b",
        "detections.csv":
            "0f10dacf7c768b822f7c07f4df3c1cea3724cd26b2a85a3d7170404146523f42",
        "ground_truth.csv":
            "92e3e7894e80a917ae21aa3d3612acd9ae44786b8b2c68c0c1cdf53122b81c5a",
        "landcover.asc":
            "1035b1e673a64659deb5ab399a8142714bf9a2e6bec9e143d5c7baf485e8f8d0",
        "manifest.json":
            "693dbd1f742f99abd8351f7bbe4a8668f25dda7b120e66e80c94a91e6abe04f1",
        "perimeter.geojson":
            "41143ca47d93059de2557d7627bab8c3bedccf857b506484360ff8e1424c9f83",
        "pois.geojson":
            "f94fb162ca1775cb6769ad98d9a9087b3dcdae0f04f2adbc5b15625fdee250e0",
        "roads.geojson":
            "d6868b2001c56fd130f227cabee2b3101ef53a9c0b050dcb5b0983c4ff58129e",
        "weights.json":
            "739cad68813fe9cf64df951435bd60b8abcebaf666c1c0e9e5c1e1dc9fe68a6b",
    },
    "zero-population-seed-29": {
        "blocks.geojson":
            "f1c0bf5c0175a21d384c5ef0cfafc9d740165d6edd620ad7fc913a28326575ff",
        "buildings.geojson":
            "fc519cd9087d4fbc07e26026d67d18a26ed74eee79ebc4e1f1a3858bd4f7aa72",
        "costs.json":
            "7e75573b044364e0ddcd1eef3bc7e45d27bc29ed5d727bfae6b792eda8c2c2d0",
        "demographics.csv":
            "07bf6016c086dfe8756273ce2c0b67b5b7e6d278de87e5a59c5af43636846062",
        "detections.csv":
            "9e620cbd17b2e5237038e22e084fee5ff732de74d6e84f26d0b8da237898357d",
        "ground_truth.csv":
            "4ba14d483ec731de5ccb6fac57ff308883a4c9a731c43f7497a7802a7051dcd4",
        "landcover.asc":
            "93dc187b5d7c188c5e29f92504722f4d2938e0620d68b4d5a8e7d81d2acc0777",
        "manifest.json":
            "bc483038037f5e61a686328f7d3d9192c2c3789af463020a647a71b7d0f66229",
        "perimeter.geojson":
            "dcac6167319ff8426f476de8b6c30b58f9b7ccedc6a41676cd352b15aa0e0cd3",
        "pois.geojson":
            "b4da34294c8fb8103dd82f6f6e13c280e0c543a5d6c37cc826cc529a5a367889",
        "roads.geojson":
            "a9eb2d1f201de85dab473d68c73240d0cdaeb8b5f9284ddcb468bd6396c8a5dc",
        "weights.json":
            "739cad68813fe9cf64df951435bd60b8abcebaf666c1c0e9e5c1e1dc9fe68a6b",
    },
    "minimum-width-seed-31": {
        "blocks.geojson":
            "cdeb522fc9b6ff1103fb2869cb0f94640b247e988e2ddd3f09048d7fe3c04b05",
        "buildings.geojson":
            "d9204326712fa832ed9727a57ddacb65bb4c73a3f3aa7050359ed1af3b2141a0",
        "costs.json":
            "7e75573b044364e0ddcd1eef3bc7e45d27bc29ed5d727bfae6b792eda8c2c2d0",
        "demographics.csv":
            "6562aac4970cf12aa86b97d1707c3f81f1fe64587a99cd584abac977ef15b951",
        "detections.csv":
            "2a388a37d86529311f02de065ebd57ad71511f13b43330f72bfb9bf9a6b9d6ea",
        "ground_truth.csv":
            "cf5ba3de8ddc0e85d9423c38e44f40f997b5e3cfdc6b2e429da764173fed1146",
        "landcover.asc":
            "fb690276cfc2c0258a8f87d6394c398eca5dd7f8f079360f12592c3451985e75",
        "manifest.json":
            "bc483038037f5e61a686328f7d3d9192c2c3789af463020a647a71b7d0f66229",
        "perimeter.geojson":
            "6e1abe1c5bc26838f283bd0cf730178581643ae9f360bee2b23dbb2692a8c753",
        "pois.geojson":
            "e876a30c23d179cb8503f3873b64311ca87d6921422d3ed8c37d7f5fcbb4fdce",
        "roads.geojson":
            "98c8cbf6cb4caaf0f8b76eee6075de0198c96ce7043508ebed7fcd3647a2db82",
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

    def test_duplicate_district_names_rejected(self):
        # assess would exit 1 on the tree: `feature 1: duplicate name 'a'`.
        with pytest.raises(ValidationError, match="districts a and a: duplicate name"):
            ScenarioSpec(
                seed=1,
                districts=[
                    DistrictSpec("a", 4, 51, 4, 51, 1, 10),
                    DistrictSpec("a", 4, 51, 64, 111, 2, 10),
                ],
            )

    def test_overlapping_districts_rejected(self):
        # A cell in both districts would be charged to each, against a
        # ground truth that counts it once.
        with pytest.raises(ValidationError, match="districts a and b overlap"):
            ScenarioSpec(
                seed=1,
                districts=[
                    DistrictSpec("a", 4, 51, 4, 51, 1, 24000),
                    DistrictSpec("b", 4, 51, 28, 75, 5, 18000),
                ],
            )

    def test_districts_that_share_only_an_edge_line_accepted(self):
        spec = ScenarioSpec(
            seed=1,
            districts=[
                DistrictSpec("a", 4, 51, 4, 51, 1, 10),
                DistrictSpec("b", 4, 51, 52, 99, 2, 10),
                DistrictSpec("c", 0, 3, 4, 51, 2, 10),
            ],
        )
        assert [d.name for d in spec.districts] == ["a", "b", "c"]


LAND_CODES = (11, 21, 22, 23, 24, 31, 41, 42, 43, 52, 71, 81, 82, 90, 95)


@st.composite
def scenario_specs(draw):
    """Valid specs: 1-3 districts west to east, any names, cell sizes,
    origins, start dates and class mixes. Roads and control cells may fall
    south of the grid, and a district may have no control columns."""
    n_days = draw(st.integers(1, 8))
    least_width = (2 * n_days + 6 + 3) // 4 * 4
    districts = []
    col = draw(st.integers(0, 6))
    n_rows = 1
    for k in range(draw(st.integers(1, 3))):
        width = least_width + 4 * draw(st.integers(0, 3))
        height = 4 * draw(st.integers(1, 12))
        row0 = draw(st.integers(0, 12))
        districts.append(DistrictSpec(
            # The digit suffix keeps the names apart.
            draw(st.text(max_size=4)) + str(k), row0, row0 + height - 1, col, col + width - 1,
            draw(st.integers(1, n_days)), draw(st.integers(0, 10**6)),
        ))
        n_rows = max(n_rows, row0 + height + draw(st.integers(0, 8)))
        col += width + draw(st.integers(0, 8))
    codes = draw(st.lists(st.sampled_from(LAND_CODES), min_size=1, max_size=5, unique=True))
    weights = [draw(st.integers(1, 9)) for _ in codes]
    return ScenarioSpec(
        seed=draw(st.integers(0, 2**64)),
        n_days=n_days,
        start_date=dt.date(2020, 1, 1) + dt.timedelta(days=draw(st.integers(0, 3000))),
        n_rows=n_rows,
        n_cols=col + draw(st.integers(3, 8)),
        cell_size=draw(st.floats(0.5, 500.0)),
        origin_lon=draw(st.floats(-179.0, 179.0)),
        origin_lat=draw(st.floats(-80.0, 80.0)),
        districts=districts,
        class_mix={c: w / sum(weights) for c, w in zip(codes, weights)},
    )


class TestMatchesReference:
    @given(scenario_specs())
    @settings(max_examples=60, deadline=None)
    def test_same_tree_as_the_per_vertex_generator(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _, truth = generate(spec, root / "new")
            _, reference_truth = reference_generate(spec, root / "reference")
            assert truth == reference_truth
            files = tree_files(root / "reference")
            assert tree_files(root / "new") == files
            for rel in files:
                assert (root / "new" / rel).read_bytes() == (
                    root / "reference" / rel
                ).read_bytes(), rel


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
