"""Malformed input files end in exit 1 or 2 with the file named, never a traceback.

The regression cases are shapes that once escaped ``cli.main`` as Python
exceptions; the fuzz test mutates one input file of a small synthetic
tree per example and runs ``assess`` on it.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fireimpact import cli
from fireimpact.io_formats import read_report
from fireimpact.scenario import DistrictSpec, ScenarioSpec, generate

ASSESS = ["--bandwidth-m", "4"]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assess(root, out, capsys):
    return run(
        ["assess", "--manifest", str(root / "manifest.json"), "--out", str(out), *ASSESS],
        capsys,
    )


# ---------------------------------------------------------------------------
# Regression cases
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary") / "s"
    assert cli.main(["synth", "--seed", "7", "--out", str(root)]) == 0
    return root


def set_byte(path, value=0xFF):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = value
    path.write_bytes(bytes(data))


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def edit_text(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def first_feature(name, change):
    return name, lambda p: edit_json(p, lambda doc: change(doc["features"][0]))


def asc_token(value):
    """Replace the first class code of the first data row (line 7)."""

    def change(path):
        lines = path.read_text().split("\n")
        lines[6] = re.sub(r"^\S+", value, lines[6])
        path.write_text("\n".join(lines))

    return "landcover.asc", change


def edit_demographics(change):
    """Apply ``change`` to demographics.csv's rows, each a list of cells."""

    def edit(path):
        rows = [line.split(",") for line in path.read_text().split("\n")]
        change(rows)
        path.write_text("\n".join(",".join(row) for row in rows))

    return "demographics.csv", edit


def long_integer(key):
    """Write the first value of ``key`` as a 5,000-digit integer literal,
    beyond the digits CPython converts; ``json.dumps`` cannot write it."""

    def change(path):
        text, n = re.subn(rf'("{key}":\s*)[-+.\deE]+', rf"\g<1>{'9' * 5000}", path.read_text(), 1)
        assert n == 1
        path.write_text(text)

    return change


def two_vertex_ring_then_text_pop(doc):
    ring = doc["features"][1]["geometry"]["coordinates"][0]
    ring[:] = [ring[0], ring[1], ring[0]]
    doc["features"][3]["properties"]["pop"] = "abc"


# (id, file edited, edit, exit code, what stderr names besides the file)
CASES = [
    ("ff-manifest", "manifest.json", set_byte, 2, None),
    ("ff-detections", "detections.csv", set_byte, 2, None),
    ("ff-landcover", "landcover.asc", set_byte, 2, None),
    ("ff-blocks", "blocks.geojson", set_byte, 2, None),
    ("ff-demographics", "demographics.csv", set_byte, 2, None),
    ("origin-x-text", "manifest.json",
     lambda p: edit_json(p, lambda d: d["grid"].update(origin_x="abc")), 2, "origin_x"),
    ("start-date-month-13", "manifest.json",
     lambda p: edit_json(p, lambda d: d.update(start_date="2025-13-01")), 2, "start_date"),
    ("end-date-before-start-date", "manifest.json",
     lambda p: edit_json(p, lambda d: d.update(start_date="2025-01-20", end_date="2025-01-01")),
     1, "end_date 2025-01-01 is before start_date 2025-01-20"),
    ("paths-list", "manifest.json",
     lambda p: edit_json(p, lambda d: d.update(paths=["a"])), 2, "paths"),
    ("unknown-role", "manifest.json",
     lambda p: edit_json(p, lambda d: d["paths"].update(rivers="roads.geojson")),
     1, "unknown manifest role 'rivers'"),
    ("asc-cellsize-x", "landcover.asc",
     lambda p: edit_text(p, "cellsize 20", "cellsize x"), 2, "cellsize"),
    ("asc-class-real", *asc_token("4.5"), 2, "line 7"),
    ("asc-class-text", *asc_token("abc"), 2, "line 7"),
    ("building-cost-text", "costs.json",
     lambda p: edit_json(p, lambda d: d.update(building_cost="x")), 2, "building_cost"),
    ("land-cost-key-text", "costs.json",
     lambda p: edit_json(p, lambda d: d["land_cost"].update(x=1.0)), 2, "land_cost"),
    ("demographics-short-row",
     *edit_demographics(lambda rows: rows.__setitem__(1, rows[1][:4])), 2, "line 2"),
    # Shares that parse but are invalid, and a repeated tract, are values: exit 1.
    ("demographics-shares-sum",
     *edit_demographics(lambda rows: rows[1].__setitem__(1, "0.9")),
     1, "line 2: tract district-a-t0: gender shares sum to"),
    ("demographics-repeated-tract",
     *edit_demographics(lambda rows: rows[2].__setitem__(0, rows[1][0])),
     1, "line 3: duplicate tract district-a-t0"),
    ("feature-is-number", "roads.geojson",
     lambda p: edit_json(p, lambda d: d["features"].insert(0, 1)), 2, "feature 0"),
    ("coordinates-null",
     *first_feature("buildings.geojson", lambda f: f["geometry"].update(coordinates=None)),
     2, "feature 0"),
    ("position-text",
     *first_feature("perimeter.geojson",
                    lambda f: f["geometry"]["coordinates"][0].__setitem__(0, ["a", "b"])),
     2, "feature 0"),
    ("pop-text",
     *first_feature("blocks.geojson", lambda f: f["properties"].update(pop="abc")),
     2, "feature 0"),
    ("poi-nan",
     *first_feature("pois.geojson",
                    lambda f: f["geometry"].update(coordinates=[math.nan, 1.0])),
     1, "feature 0"),
    # A value the table or cost model rejects names the file.
    ("negative-land-cost", "costs.json",
     lambda p: edit_json(p, lambda d: d["land_cost"].update({"21": -1.0})),
     1, "land costs must be >= 0"),
    ("water-weight", "weights.json",
     lambda p: edit_json(p, lambda d: d.update({"11": 5.0})), 1, "class 11"),
    # Text properties must be JSON strings or numbers.
    ("block-id-object",
     *first_feature("blocks.geojson", lambda f: f["properties"].update(block_id={})),
     2, "feature 0: bad block_id value {}"),
    ("tract-id-null",
     *first_feature("blocks.geojson", lambda f: f["properties"].update(tract_id=None)),
     2, "feature 0: bad tract_id value None"),
    ("road-class-array",
     *first_feature("roads.geojson", lambda f: f["properties"].update({"class": [1]})),
     2, "feature 0: bad class value [1]"),
    ("building-id-bool",
     *first_feature("buildings.geojson", lambda f: f["properties"].update(id=True)),
     2, "feature 0: bad id value True"),
    ("poi-category-object",
     *first_feature("pois.geojson", lambda f: f["properties"].update(category={"a": 1})),
     2, "feature 0: bad category value"),
    ("district-name-null",
     *first_feature("perimeter.geojson", lambda f: f["properties"].update(name=None)),
     2, "feature 0: bad name value None"),
    # A JSON boolean is not a number.
    ("pop-true",
     *first_feature("blocks.geojson", lambda f: f["properties"].update(pop=True)),
     2, "feature 0: bad pop value True"),
    ("n-rows-true", "manifest.json",
     lambda p: edit_json(p, lambda d: d["grid"].update(n_rows=True)), 2, "bad n_rows value True"),
    ("coordinate-false",
     *first_feature("blocks.geojson",
                    lambda f: f["geometry"]["coordinates"][0][0].__setitem__(0, False)),
     2, "feature 0: bad coordinates value"),
    # A JSON string is not a number, even when its text reads as one.
    ("pop-numeric-text",
     *first_feature("blocks.geojson", lambda f: f["properties"].update(pop="169")),
     2, "feature 0: bad pop value '169'"),
    ("n-rows-numeric-text", "manifest.json",
     lambda p: edit_json(p, lambda d: d["grid"].update(n_rows=str(d["grid"]["n_rows"]))),
     2, "bad n_rows value '"),
    ("weight-numeric-text", "weights.json",
     lambda p: edit_json(p, lambda d: d.update({"22": "3"})), 2, "bad weights[22] value '3'"),
    ("building-cost-numeric-text", "costs.json",
     lambda p: edit_json(p, lambda d: d.update(building_cost="3000")),
     2, "bad building_cost value '3000'"),
    # Each layer's row checks, with their messages.
    ("block-negative-pop",
     *first_feature("blocks.geojson", lambda f: f["properties"].update(pop=-1)),
     1, "has negative pop -1.0"),
    ("block-no-parts",
     *first_feature("blocks.geojson", lambda f: f["geometry"].update(
         type="MultiPolygon", coordinates=[])),
     1, "has no boundary parts"),
    ("building-no-footprint",
     *first_feature("buildings.geojson", lambda f: f["geometry"].update(
         type="MultiPolygon", coordinates=[])),
     1, "has no footprint"),
    ("district-name-empty",
     *first_feature("perimeter.geojson", lambda f: f["properties"].update(name="")),
     1, "feature 0: district needs a name"),
    ("district-no-perimeter",
     *first_feature("perimeter.geojson", lambda f: f["geometry"].update(
         type="MultiPolygon", coordinates=[])),
     1, "has no perimeter"),
    ("road-class-empty",
     *first_feature("roads.geojson", lambda f: f["properties"].update({"class": ""})),
     1, "feature 0: road feature needs a class"),
    ("poi-category-empty",
     *first_feature("pois.geojson", lambda f: f["properties"].update(category="")),
     1, "feature 0: poi feature needs a category"),
    # The line and ring checks, with their messages.
    ("road-one-vertex",
     *first_feature("roads.geojson", lambda f: f["geometry"].update(
         coordinates=f["geometry"]["coordinates"][:1])),
     1, "feature 0: polyline needs >= 2 vertices"),
    ("road-repeated-vertex",
     *first_feature("roads.geojson", lambda f: f["geometry"]["coordinates"].insert(
         1, list(f["geometry"]["coordinates"][0]))),
     1, "feature 0: polyline has repeated consecutive vertices"),
    ("road-lon-nan",
     *first_feature("roads.geojson",
                    lambda f: f["geometry"]["coordinates"][0].__setitem__(0, math.nan)),
     1, "feature 0: polyline has non-finite coordinates"),
    ("block-ring-nan",
     *first_feature("blocks.geojson",
                    lambda f: f["geometry"]["coordinates"][0][0].__setitem__(0, math.nan)),
     1, "feature 0: ring has non-finite coordinates"),
    # Geometry is checked for the whole layer at once, yet the first bad
    # feature in file order is the one named: feature 1's two-vertex ring
    # (exit 1), not feature 3's text pop (exit 2).
    ("two-vertex-ring-before-text-pop", "blocks.geojson",
     lambda p: edit_json(p, two_vertex_ring_then_text_pop), 1,
     "feature 1: ring needs >= 3 distinct vertices, got 2"),
    # json raises a plain ValueError for an integer too long to convert.
    ("pop-5000-digits", "blocks.geojson", long_integer("pop"), 2, "invalid JSON (Exceeds"),
    ("building-cost-5000-digits", "costs.json", long_integer("building_cost"),
     2, "invalid JSON (Exceeds"),
    ("origin-lon-5000-digits", "manifest.json", long_integer("origin_lon"),
     2, "invalid JSON (Exceeds"),
]


@pytest.mark.parametrize(
    "name, edit, code, names", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_malformed_input_exits_cleanly(capsys, scenario, tmp_path, name, edit, code, names):
    root = shutil.copytree(scenario, tmp_path / "s")
    edit(root / name)
    got, out, err = assess(root, tmp_path / "out", capsys)
    assert got == code, err
    assert name in err
    if names is not None:
        assert names in err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_deeply_nested_json_exits_2(capsys, scenario, tmp_path):
    # json raises a RecursionError for nesting deeper than the interpreter's stack.
    root = shutil.copytree(scenario, tmp_path / "s")
    (root / "roads.geojson").write_text("[" * 100_000 + "]" * 100_000)
    got, out, err = assess(root, tmp_path / "out", capsys)
    assert got == 2 and "roads.geojson: invalid JSON (maximum recursion depth" in err, err


def shift_dates(doc):
    doc.update(start_date="2026-01-01", end_date="2026-01-05")


def drop_tract(path, tract="district-a-t0"):
    lines = path.read_text().split("\n")
    path.write_text("\n".join(line for line in lines if not line.startswith(tract + ",")))


# Files that are each valid but disagree: (id, file edited, edit, exit code,
# what stderr holds).
DISAGREEING = [
    ("dates-outside-window", "manifest.json", lambda p: edit_json(p, shift_dates),
     1, "no detections: nothing to assess"),
    ("tract-missing", "demographics.csv", drop_tract,
     1, "no demographics for tract district-a-t0"),
    ("grid-misses-districts", "manifest.json",
     lambda p: edit_json(p, lambda d: d["grid"].update(origin_x=1e6)),
     1, "district 'district-a': official perimeter captures no cell center"),
    # Each 64 m² building is charged 6.4e18 cents, below 2^63; a day that
    # burns two sums beyond it.
    ("building-day-sum-beyond-int64", "costs.json",
     lambda p: edit_json(p, lambda d: d.update(building_cost=1e15)),
     1, "a day's charges sum beyond the int64 range of cents"),
    ("road-charge-beyond-int64", "costs.json",
     lambda p: edit_json(p, lambda d: d["road_cost"].update(residential=1e20)),
     1, "a charge of "),
    ("land-charge-infinite", "costs.json",
     lambda p: edit_json(p, lambda d: d["land_cost"].update({"21": 1e308})),
     1, "a charge of inf dollars is beyond the int64 range of cents"),
]


@pytest.mark.parametrize(
    "name, edit, code, message", [c[1:] for c in DISAGREEING], ids=[c[0] for c in DISAGREEING]
)
def test_valid_inputs_that_disagree_exit_1(capsys, scenario, tmp_path, name, edit, code, message):
    root = shutil.copytree(scenario, tmp_path / "s")
    edit(root / name)
    got, out, err = assess(root, tmp_path / "out", capsys)
    assert got == code, err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_one_day_window_is_valid(capsys, scenario, tmp_path):
    root = shutil.copytree(scenario, tmp_path / "s")
    one_day = {"start_date": "2025-01-07", "end_date": "2025-01-07"}
    edit_json(root / "manifest.json", lambda d: d.update(one_day))
    got, out, err = assess(root, tmp_path / "out", capsys)
    assert got == 0, err
    assert {r["date"] for r in read_report(tmp_path / "out" / "report.csv")} == {"2025-01-07"}


def test_numeric_text_properties_read_as_their_text(capsys, scenario, tmp_path):
    root = shutil.copytree(scenario, tmp_path / "s")
    edit_json(root / "buildings.geojson",
              lambda doc: [f["properties"].update(id=k) for k, f in enumerate(doc["features"])])
    assert assess(root, tmp_path / "out", capsys)[0] == 0
    assert assess(scenario, tmp_path / "plain", capsys)[0] == 0
    plain = (tmp_path / "plain" / "report.csv").read_bytes()
    assert (tmp_path / "out" / "report.csv").read_bytes() == plain


def test_grid_too_large_for_memory_exits_1(scenario, tmp_path):
    """A valid manifest whose grid cannot be allocated ends in one error line.

    The child caps its own address space, so the 10^9-row grid fails at
    allocation instead of claiming the machine's memory.
    """
    root = shutil.copytree(scenario, tmp_path / "s")
    edit_json(root / "manifest.json", lambda d: d["grid"].update(n_rows=10**9))
    child = (
        "import resource, sys\n"
        "limit = 1 << 30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from fireimpact import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", child, "assess", "--manifest", str(root / "manifest.json"),
         "--out", str(tmp_path / "out"), *ASSESS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "out of memory" in proc.stderr


def test_undecodable_report_exits_2(capsys, scenario, tmp_path):
    assert assess(scenario, tmp_path / "out", capsys)[0] == 0
    report = tmp_path / "out" / "report.csv"
    set_byte(report)
    code, out, err = run(["report", "--report", str(report)], capsys)
    assert code == 2
    assert out == ""
    assert "report.csv" in err


def test_altitude_is_ignored(capsys, scenario, tmp_path):
    def add_altitude(coords):
        if coords and isinstance(coords[0], (int, float)):
            return [*coords, 123.5]
        return [add_altitude(c) for c in coords]

    root = shutil.copytree(scenario, tmp_path / "s")
    for name in ("blocks", "roads", "buildings", "pois", "perimeter"):
        edit_json(
            root / f"{name}.geojson",
            lambda doc: [
                f["geometry"].update(coordinates=add_altitude(f["geometry"]["coordinates"]))
                for f in doc["features"]
            ],
        )
    assert "123.5" in (root / "pois.geojson").read_text()
    assert assess(scenario, tmp_path / "plain", capsys)[0] == 0
    assert assess(root, tmp_path / "z", capsys)[0] == 0
    plain = (tmp_path / "plain" / "report.csv").read_bytes()
    assert (tmp_path / "z" / "report.csv").read_bytes() == plain


# ---------------------------------------------------------------------------
# Fuzzing: one mutation of one input file per example
# ---------------------------------------------------------------------------

SMALL = ScenarioSpec(
    seed=7,
    n_days=3,
    n_rows=28,
    n_cols=64,
    districts=[
        DistrictSpec("district-a", 4, 23, 4, 27, 2, 2000),
        DistrictSpec("district-b", 4, 23, 36, 59, 3, 1500),
    ],
)
INPUTS = (
    "manifest.json", "detections.csv", "landcover.asc", "blocks.geojson",
    "roads.geojson", "buildings.geojson", "pois.geojson", "perimeter.geojson",
    "weights.json", "costs.json", "demographics.csv",
)
OTHER_JSON = st.sampled_from([None, True, 0, -1, 2.5, math.nan, "", "x", [], [1], {}])
GARBAGE = st.sampled_from(
    ["", "x", "-", "nan", "inf", "1e999", "4.5", "é", '"', ",", "0x1"]
)


@pytest.fixture(scope="module")
def small_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    generate(SMALL, root / "s")
    return root


def json_slots(doc, path=()):
    """Every (container path, key) in ``doc``, leaves and containers alike."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from json_slots(value, path + (key,))
        yield path, key


def mutate(data, name, kind, where, byte, leaf, delete, garbage):
    """``data`` changed in one way; ``where`` picks the place, modulo its size."""
    if kind == "byte":
        out = bytearray(data)
        out[where % len(out)] = byte
        return bytes(out)
    if kind == "truncate":
        return data[: where % len(data)]
    if name.endswith(".json") or name.endswith(".geojson"):
        doc = json.loads(data)
        slots = list(json_slots(doc))
        path, key = slots[where % len(slots)]
        parent = doc
        for step in path:
            parent = parent[step]
        if delete and isinstance(parent, dict):
            del parent[key]
        else:
            parent[key] = leaf
        return json.dumps(doc).encode()
    spans = [m.span() for m in re.finditer(rb"[^,\s]+", data)]
    start, end = spans[where % len(spans)]
    return data[:start] + garbage.encode() + data[end:]


@given(
    name=st.sampled_from(INPUTS),
    kind=st.sampled_from(["byte", "truncate", "value"]),
    where=st.integers(0, 2**32 - 1),
    byte=st.just(0xFF) | st.integers(0, 255),
    leaf=OTHER_JSON,
    delete=st.booleans(),
    garbage=GARBAGE,
)
@example(name="manifest.json", kind="byte", where=100, byte=0xFF, leaf=None, delete=False,
         garbage="")
@example(name="blocks.geojson", kind="value", where=0, byte=0, leaf=None, delete=False,
         garbage="")
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_mutated_input_never_escapes(
    capsys, small_tree, name, kind, where, byte, leaf, delete, garbage
):
    path = small_tree / "s" / name
    original = path.read_bytes()
    path.write_bytes(mutate(original, name, kind, where, byte, leaf, delete, garbage))
    try:
        code, _, err = assess(small_tree / "s", small_tree / "out", capsys)
    finally:
        path.write_bytes(original)
    assert code in (0, 1, 2), err
