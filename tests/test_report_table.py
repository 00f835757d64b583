"""report.csv's column table against the hand-written writer and reader it replaced.

``reference_write_report`` and ``reference_records_from_rows`` are the
former ``io_formats.write_report`` and ``cli._records_from_rows``, kept
verbatim. The table-driven writer must give the same bytes, and the
table-driven reader the same records or the same error, on any records.
"""

import csv
import datetime as dt
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireimpact import cli
from fireimpact.errors import FormatError, ValidationError
from fireimpact.impact import (
    AGE_KEYS,
    GENDER_KEYS,
    RACE_KEYS,
    DailyImpactRecord,
    Demographics,
    cents_to_usd,
)
from fireimpact.io_formats import parse_value, read_report, write_report

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

_REPORT_HEAD = (
    "date",
    "district",
    "land_loss_usd",
    "road_loss_usd",
    "building_loss_usd",
    "building_count",
    "poi_count",
    "exposed_population",
)


def reference_write_report(
    records: list[DailyImpactRecord], path: str | Path, cumulative: bool = False
) -> None:
    """Long-format CSV, one row per (date, district).

    The aggregate columns come first, then every per-class / per-category
    column seen anywhere in the records, sorted, zero-filled where a
    record has no entry. With ``cumulative`` the running per-district
    totals are appended as extra columns.
    """
    if not records:
        raise ValidationError("write_report needs at least one record")
    records = sorted(records, key=lambda r: (r.date, r.district))
    land_classes = sorted({k for r in records for k in r.land_loss_cents})
    road_classes = sorted(
        {k for r in records for k in r.road_loss_cents}
        | {k for r in records for k in r.road_length_m}
    )
    poi_cats = sorted({k for r in records for k in r.poi_count})

    tail: list[str] = sorted(
        [f"land_loss_usd_class_{c}" for c in land_classes]
        + [f"road_loss_usd_{c}" for c in road_classes]
        + [f"road_length_m_{c}" for c in road_classes]
        + [f"poi_count_{c}" for c in poi_cats]
        + [f"demo_{k}" for k in GENDER_KEYS + AGE_KEYS + RACE_KEYS]
        + ["exposed_population_rounded", "new_burn_cells"]
    )
    cum_cols = [
        "cumulative_building_loss_usd",
        "cumulative_exposed_population",
        "cumulative_land_loss_usd",
        "cumulative_new_burn_cells",
        "cumulative_road_loss_usd",
    ]
    header = list(_REPORT_HEAD) + tail + (cum_cols if cumulative else [])

    running: dict[str, dict[str, float]] = {}
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in records:
            row: dict[str, str] = {
                "date": rec.date.isoformat(),
                "district": rec.district,
                "land_loss_usd": cents_to_usd(rec.land_total_cents),
                "road_loss_usd": cents_to_usd(rec.road_total_cents),
                "building_loss_usd": cents_to_usd(rec.building_loss_cents),
                "building_count": str(rec.building_count),
                "poi_count": str(rec.poi_total),
                "exposed_population": repr(rec.exposed_population),
                "exposed_population_rounded": str(round(rec.exposed_population)),
                "new_burn_cells": str(rec.new_burn_cells),
            }
            for c in land_classes:
                row[f"land_loss_usd_class_{c}"] = cents_to_usd(
                    rec.land_loss_cents.get(c, 0)
                )
            for c in road_classes:
                row[f"road_loss_usd_{c}"] = cents_to_usd(rec.road_loss_cents.get(c, 0))
                row[f"road_length_m_{c}"] = repr(rec.road_length_m.get(c, 0.0))
            for c in poi_cats:
                row[f"poi_count_{c}"] = str(rec.poi_count.get(c, 0))
            for k in GENDER_KEYS:
                row[f"demo_{k}"] = repr(rec.demographics.gender[k])
            for k in AGE_KEYS:
                row[f"demo_{k}"] = repr(rec.demographics.age[k])
            for k in RACE_KEYS:
                row[f"demo_{k}"] = repr(rec.demographics.race[k])
            if cumulative:
                acc = running.setdefault(
                    rec.district,
                    {"land": 0, "road": 0, "building": 0, "exposed": 0.0, "cells": 0},
                )
                acc["land"] += rec.land_total_cents
                acc["road"] += rec.road_total_cents
                acc["building"] += rec.building_loss_cents
                acc["exposed"] += rec.exposed_population
                acc["cells"] += rec.new_burn_cells
                row["cumulative_land_loss_usd"] = cents_to_usd(int(acc["land"]))
                row["cumulative_road_loss_usd"] = cents_to_usd(int(acc["road"]))
                row["cumulative_building_loss_usd"] = cents_to_usd(int(acc["building"]))
                row["cumulative_exposed_population"] = repr(acc["exposed"])
                row["cumulative_new_burn_cells"] = str(int(acc["cells"]))
            writer.writerow([row[col] for col in header])


# A report amount has at most two decimals.
_AMOUNT = re.compile(r"-?\d+(\.\d{1,2})?", re.ASCII)


def _cents(text: str) -> int:
    if not _AMOUNT.fullmatch(text):
        raise ValueError(text)
    whole, _, frac = text.removeprefix("-").partition(".")
    value = int(whole) * 100 + int(frac.ljust(2, "0"))
    return -value if text.startswith("-") else value


def _field(where: str, row: dict[str, str], col: str, parse, default: str | None = None):
    """``parse(row[col])``; a missing or malformed value is a FormatError."""
    return parse_value(where, col, row.get(col, default), parse)


def _land_class(col: str) -> int:
    return int(col.removeprefix("land_loss_usd_class_"))


def reference_records_from_rows(rows: list[dict[str, str]], path: str | Path = "report"):
    """Records from ``read_report`` rows; errors name ``path`` and the row."""
    for col in ("date", "district"):
        if rows and col not in rows[0]:
            raise FormatError(f"{path}: report has no {col!r} column")
    records = []
    for row in rows:
        where = f"{path}: row for {row.get('date')} {row.get('district')}"
        if None in row:
            # csv.DictReader files the fields beyond the header under None.
            raise FormatError(f"{where}: more fields than the header")
        land = {}
        road_cents = {}
        road_m = {}
        pois = {}
        for col in row:
            if col.startswith("land_loss_usd_class_"):
                land[parse_value(str(path), "column", col, _land_class)] = _field(
                    where, row, col, _cents
                )
            elif col.startswith("road_loss_usd_"):
                road_cents[col[len("road_loss_usd_"):]] = _field(where, row, col, _cents)
            elif col.startswith("road_length_m_"):
                road_m[col[len("road_length_m_"):]] = _field(where, row, col, float)
            elif col.startswith("poi_count_"):
                pois[col[len("poi_count_"):]] = _field(where, row, col, int)
        records.append(
            DailyImpactRecord(
                date=_field(where, row, "date", dt.date.fromisoformat),
                district=row["district"],
                land_loss_cents=land,
                road_loss_cents=road_cents,
                road_length_m=road_m,
                building_loss_cents=_field(where, row, "building_loss_usd", _cents),
                building_count=_field(where, row, "building_count", int),
                poi_count=pois,
                exposed_population=_field(where, row, "exposed_population", float),
                demographics=Demographics.zeros(),
                new_burn_cells=_field(where, row, "new_burn_cells", int, "0"),
            )
        )
    return records


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

cents = st.integers(-10**9, 10**9) | st.sampled_from([0, -1, -100, -101])
road_classes = st.sampled_from(["primary", "residential", "track", "foot path"])
shares = st.floats(0, 1e4, allow_nan=False)


def share_dict(keys):
    return st.fixed_dictionaries({k: shares for k in keys})


# Road cents and lengths are drawn apart, so a class can have a length and
# no cents or the reverse; classes and categories come and go by day.
records = st.builds(
    DailyImpactRecord,
    date=st.dates(dt.date(2025, 1, 5), dt.date(2025, 1, 12)),
    district=st.sampled_from(["district-a", "district-b", "north"]),
    land_loss_cents=st.dictionaries(st.sampled_from([11, 21, 24, 42, 95]), cents, max_size=4),
    road_loss_cents=st.dictionaries(road_classes, cents, max_size=3),
    road_length_m=st.dictionaries(road_classes, st.floats(0, 1e5, allow_nan=False), max_size=3),
    building_loss_cents=cents,
    building_count=st.integers(0, 500),
    poi_count=st.dictionaries(st.sampled_from(["school", "Retail", "Dining and Drinking"]),
                              st.integers(0, 60), max_size=3),
    exposed_population=st.floats(0, 1e6, allow_nan=False),
    demographics=st.builds(
        Demographics, share_dict(GENDER_KEYS), share_dict(AGE_KEYS), share_dict(RACE_KEYS)
    ),
    new_burn_cells=st.integers(0, 10**6),
)
record_lists = st.lists(
    records, min_size=1, max_size=6, unique_by=lambda r: (r.date, r.district)
)


def read_back(reader, path):
    """``reader``'s records for ``path`` as text that shows dict order, or its error."""
    try:
        return repr(reader(read_report(path), path))
    except FormatError as exc:
        return f"FormatError: {exc}"


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    """One directory for every example of a test; each overwrites its files."""
    return tmp_path_factory.mktemp("report")


@given(record_lists, st.booleans())
@settings(max_examples=100, deadline=None)
def test_writer_bytes_equal_reference(tmp, recs, cumulative):
    write_report(recs, tmp / "new.csv", cumulative=cumulative)
    reference_write_report(recs, tmp / "ref.csv", cumulative=cumulative)
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


@given(record_lists, st.booleans())
@settings(max_examples=50, deadline=None)
def test_reader_gives_reference_records(tmp, recs, cumulative):
    path = tmp / "report.csv"
    write_report(recs, path, cumulative=cumulative)
    got = read_back(cli._records_from_rows, path)
    assert not got.startswith("FormatError")
    assert got == read_back(reference_records_from_rows, path)


JUNK = ["", "x", "-", "1.2.3", "1.239", "1e2", "2.5", " 1", "nan", "12,5", "-0.5"]
BAD_COLUMNS = [
    "land_loss_usd_class_x", "land_loss_usd_class_", "land_loss_usd_class_1.5",
    "road_loss_usd_", "road_length_m_", "poi_count_", "something_else",
]


@given(
    record_lists, st.booleans(), st.sampled_from(["value", "column", "long", "short", "drop"]),
    st.integers(0, 10**6), st.sampled_from(JUNK), st.sampled_from(BAD_COLUMNS),
)
@settings(max_examples=150, deadline=None)
def test_malformed_rows_give_reference_messages(
    tmp, recs, cumulative, how, pick, junk, bad_column
):
    """One value, column name or row shape of a written report spoiled."""
    path = tmp / "report.csv"
    write_report(recs, path, cumulative=cumulative)
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    row = rows[pick % len(rows)]
    col = pick % len(header)
    if how == "value":
        row[col] = junk
    elif how == "column":
        header[col] = bad_column
    elif how == "long":
        row.append(junk)
    elif how == "short":
        del row[col:]
    else:
        for line in (header, *rows):
            del line[col]
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    assert read_back(cli._records_from_rows, path) == read_back(
        reference_records_from_rows, path
    )


@pytest.mark.parametrize("column", ["land_loss_usd_class_x", "land_loss_usd_class_"])
def test_bad_land_class_names_the_whole_column(tmp_path, column):
    rec = DailyImpactRecord(
        date=dt.date(2025, 1, 7), district="A", land_loss_cents={21: 150},
        road_loss_cents={}, road_length_m={}, building_loss_cents=0, building_count=0,
        poi_count={}, exposed_population=0.0, demographics=Demographics.zeros(),
        new_burn_cells=1,
    )
    path = tmp_path / "report.csv"
    write_report([rec], path)
    path.write_text(path.read_text().replace("land_loss_usd_class_21", column))
    with pytest.raises(FormatError, match=f"bad column value '{column}'$"):
        cli._records_from_rows(read_report(path), path)
