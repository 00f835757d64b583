"""Readers and writers for every external artifact.

All writers are deterministic: identical inputs give byte-identical
files (sorted keys, fixed float formatting, no timestamps). Readers
report the file, line or feature index, and field for every problem.

Input passes one boundary: ``_open_text``/``_load_json`` decode files
(UTF-8, a leading byte order mark skipped), ``parse_value`` parses
values, and ``read_vertex_layer`` (points and lines, flat vertex
arrays) and ``read_polygon_layer`` (polygons, one flat ``PolygonLayer``
per file) read GeoJSON layers, so a malformed file is a FormatError
naming the file and place.

Each GeoJSON reader works in two phases. The fast path assumes a valid
file: it cuts each geometry's coordinates out of the text, has ``json``
parse only the rest (types and properties, checked a column at a time),
and reads the coordinates' nesting and numbers from their characters. At
the first irregularity it gives up without saying where. The file is
then read again one feature at a time, and only that reader names the
error: the first that reading the features in file order meets.

Every feature rule is written once, over columns, and gives the first
bad item and its message: :func:`ring_problem`, :func:`line_problem` and
each layer's value rule. Both phases ask the same rules.

GeoJSON input is a simple subset: a FeatureCollection of Point,
LineString, Polygon, or MultiPolygon features with flat properties and
lon/lat degree positions (an altitude is ignored), projected onto the
local planar frame at load time using the manifest's origin.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import gc
import io
import itertools
import json
import math
import operator
import re
import reprlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Sequence, TextIO, TypeVar

import numpy as np

from .dasymetric import Blocks, WeightTable
from .errors import FormatError, GeometryError, PipelineError, SchemaError, ValidationError
from .geometry import (
    Point,
    PolygonLayer,
    close_rings,
    first_problem,
    line_problem,
    project_lonlat,
    ring_problem,
    run_offsets,
    trace_mask_rings,
    unproject_to_lonlat,
)
from .grid import AnalysisGrid, CategoryRaster, Mask, RealRaster, value_index
from .impact import (
    DEMOGRAPHIC_GROUPS,
    CostModel,
    DailyImpactRecord,
    Demographics,
    Districts,
    Pois,
    Roads,
    TractDemographics,
    category_codes,
    cents_to_usd,
    usd_to_cents,
)
from .perimeters import CONFIDENCE_CODES, DailyPerimeter, Detections

KNOWN_ROLES = (
    "detections",
    "landcover",
    "blocks",
    "roads",
    "buildings",
    "pois",
    "official_perimeter",
    "weights",
    "costs",
    "demographics",
)

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Input boundary
# ---------------------------------------------------------------------------


@contextmanager
def _open_text(path: Path, errors: str = "strict") -> Iterator[TextIO]:
    """``path`` as streamed UTF-8 text, a leading byte order mark skipped;
    bad bytes or CSV syntax are a FormatError."""
    try:
        with path.open(encoding="utf-8-sig", errors=errors, newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: {exc}") from None


@contextmanager
def _collector_paused() -> Iterator[None]:
    """The cyclic garbage collector paused, then restored: a JSON tree holds
    no cycles, yet building a large one would otherwise set off collections
    that scan it again and again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_json(path: Path) -> Any:
    """The JSON document in ``path``, parsed with the collector paused."""
    with _open_text(path) as fh, _collector_paused():
        try:
            return json.load(fh)
        except UnicodeDecodeError:  # a ValueError that _open_text reports
            raise
        except (ValueError, RecursionError) as exc:  # bad syntax, too many digits or levels
            raise FormatError(f"{path}: invalid JSON ({exc})") from None


def parse_value(where: str, key: str, raw: Any, parse: Callable[[Any], T]) -> T:
    """``parse(raw)``; a bad value is a FormatError naming ``where``, ``key`` and it."""
    try:
        return parse(raw)
    except (TypeError, ValueError, LookupError, OverflowError):
        raise FormatError(f"{where}: bad {key} value {reprlib.repr(raw)}") from None


def _finite(value: Any) -> float:
    """A finite number read from text (an ``.asc`` header, a CSV field)."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def _number(value: Any) -> float:
    """A finite JSON number: not a string, nor a bool, which float() takes for 1/0."""
    if value.__class__ not in (int, float):
        raise TypeError(value)
    return _finite(value)


def _whole(value: Any) -> int:
    number = _finite(value)
    if not number.is_integer():
        raise ValueError(value)
    return int(number)


def _text(value: Any) -> str:
    """A JSON string, or a number read as its text; not an object, array, bool or null."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(value)
    return str(value)


def _object(value: Any) -> dict:
    if not isinstance(value, dict):
        raise TypeError(value)
    return value


def _required(where: str, table: dict, key: str, parse: Callable[[Any], T]) -> T:
    if key not in table:
        raise SchemaError(f"{where}: missing {key!r}")
    return parse_value(where, key, table[key], parse)


def _table(where: str, key: str, raw: Any, parse_key: Callable, parse_item: Callable) -> dict:
    """The JSON object ``raw`` with each key and each value parsed."""
    return {
        parse_value(where, f"{key} key", k, parse_key):
            parse_value(where, f"{key}[{k}]", v, parse_item)
        for k, v in parse_value(where, key, raw, _object).items()
    }


@dataclass(frozen=True)
class FileManifest:
    """Declares the input files for one run plus the shared grid frame."""

    origin_lon: float
    origin_lat: float
    grid: AnalysisGrid
    paths: dict[str, Path]
    start_date: dt.date | None = None
    end_date: dt.date | None = None


def read_manifest(path: str | Path) -> FileManifest:
    path = Path(path)
    where = str(path)
    doc = parse_value(where, "manifest", _load_json(path), _object)
    g = _required(where, doc, "grid", _object)
    grid = AnalysisGrid(
        *(_required(where, g, k, _number) for k in ("origin_x", "origin_y", "cell_size")),
        *(_required(where, g, k, lambda v: _whole(_number(v))) for k in ("n_rows", "n_cols")),
    )
    paths: dict[str, Path] = {}
    for role, rel in _required(where, doc, "paths", _object).items():
        if role not in KNOWN_ROLES:
            raise ValidationError(f"{path}: unknown manifest role {role!r}")
        p = parse_value(where, f"paths.{role}", rel, lambda r: (path.parent / r).resolve())
        if not p.exists():
            raise ValidationError(f"{path}: {role} file does not exist: {p}")
        paths[role] = p
    start, end = (
        _required(where, doc, key, dt.date.fromisoformat) if key in doc else None
        for key in ("start_date", "end_date")
    )
    if start and end and end < start:
        raise ValidationError(f"{path}: end_date {end} is before start_date {start}")
    return FileManifest(
        origin_lon=_required(where, doc, "origin_lon", _number),
        origin_lat=_required(where, doc, "origin_lat", _number),
        grid=grid,
        paths=paths,
        start_date=start,
        end_date=end,
    )


def write_manifest(manifest: FileManifest, path: str | Path) -> None:
    path = Path(path)
    doc = {
        "origin_lon": manifest.origin_lon,
        "origin_lat": manifest.origin_lat,
        "grid": {
            "cell_size": manifest.grid.cell_size,
            "n_rows": manifest.grid.n_rows,
            "n_cols": manifest.grid.n_cols,
            "origin_x": manifest.grid.origin_x,
            "origin_y": manifest.grid.origin_y,
        },
        "paths": {role: _relative_str(p, path.parent) for role, p in sorted(manifest.paths.items())},
    }
    if manifest.start_date:
        doc["start_date"] = manifest.start_date.isoformat()
    if manifest.end_date:
        doc["end_date"] = manifest.end_date.isoformat()
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _relative_str(p: Path, base: Path) -> str:
    try:
        return str(p.resolve().relative_to(base.resolve()))
    except ValueError:
        return str(p)


# ---------------------------------------------------------------------------
# Detections CSV
# ---------------------------------------------------------------------------

_CONFIDENCE = {
    key: code for code, name in enumerate(CONFIDENCE_CODES) for key in (name, name[0])
}


# Characters of detections.csv read per block; each block runs on to the
# next line end. Rows are split and converted a block at a time.
BLOCK_CHARS = 1 << 15

_SURROGATE = re.compile("[\ud800-\udfff]")


def _text_blocks(fh: TextIO) -> Iterator[str]:
    """``fh`` in blocks of whole lines of about ``BLOCK_CHARS`` characters.

    ``fh`` decodes with ``surrogateescape``, so an undecodable byte reads as
    a lone surrogate. The complete lines before the first one are yielded,
    then the strict decoder's UnicodeDecodeError for it is raised.
    """
    while text := fh.read(BLOCK_CHARS):
        text += fh.readline()
        bad = None if text.isascii() else _SURROGATE.search(text)
        if bad:
            at = bad.start()
            end = max(text.rfind("\n", 0, at), text.rfind("\r", 0, at)) + 1
            if end:
                yield text[:end]
            # Raises: strict decoding fails at the same byte, for the same reason.
            text[at:].encode("utf-8", "surrogateescape").decode("utf-8")
        yield text


@dataclass(frozen=True)
class _Rows:
    """The CSV rows of one block: ``width`` fields each in the flat list
    ``fields``, or, where rows differ in length (``width`` 0), one list of
    fields per row."""

    fields: list
    width: int = 0

    def __len__(self) -> int:
        return len(self.fields) // self.width if self.width else len(self.fields)

    def row(self, k: int) -> list[str]:
        w = self.width
        return self.fields[k * w:(k + 1) * w] if w else self.fields[k]

    def columns(self, wanted: list[int | None], skip: int) -> list[Sequence[str | None]]:
        """Columns ``wanted`` of rows ``skip:``; a missing field, and each
        field of an absent column (``None`` in ``wanted``), is None."""
        w = self.width
        blank = (None,) * (len(self) - skip)
        if w:
            return [blank if j is None else self.fields[skip * w + j::w] for j in wanted]
        need = slice(max(j for j in wanted if j is not None) + 1)
        table = list(itertools.zip_longest(*map(operator.itemgetter(need), self.fields[skip:])))
        return [table[j] if j is not None and j < len(table) else blank for j in wanted]


def _lines(text: str) -> list[str]:
    """``text`` split at the row ends ``csv.reader`` knows: ``\\r\\n``, ``\\r`` and ``\\n``."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _csv_blocks(fh: TextIO) -> Iterator[_Rows]:
    """The rows of CSV text, header first, as ``csv.reader`` reads them.

    Blocks of plain lines are split at commas with no Python loop per row.
    The first block that holds a quote (or a NUL, or a line longer than the
    csv field limit) and everything after it go through ``csv.reader``,
    whose rows are yielded in batches; a failure comes after the rows
    before it.
    """
    width = 0
    blocks = _text_blocks(fh)
    for text in blocks:
        lines = _lines(text)
        limit = csv.field_size_limit()
        if '"' in text or "\0" in text or len(text) > limit and max(map(len, lines)) > limit:
            break
        width = width or lines[0].count(",") + 1
        if set(map(str.count, lines, itertools.repeat(","))) == {width - 1}:
            yield _Rows(",".join(lines).split(","), width)
        else:
            yield _Rows(list(map(str.split, lines, itertools.repeat(","))))
    else:
        return
    reader = csv.reader(itertools.chain.from_iterable(
        io.StringIO(text, newline="") for text in itertools.chain([text], blocks)
    ))
    rows: list[list[str]] = []
    chars = 0
    try:
        for row in reader:
            rows.append(row)
            chars += sum(map(len, row))
            if chars >= BLOCK_CHARS:
                yield _Rows(rows)
                rows, chars = [], 0
    except (csv.Error, UnicodeDecodeError):
        if rows:
            yield _Rows(rows)
        raise
    if rows:
        yield _Rows(rows)


# A column's memo is dropped once it has read at least this many fields and
# holds more than half as many texts as fields read.
_MEMO_TRIAL = 1024


class _Memo(dict):
    """One column's converted value of each field text read so far in a file.

    ``convert`` runs once per distinct text; a text it rejects is not kept.
    ``lookup`` gives a field's value: through the memo, or, once most
    fields read have been distinct, through ``convert`` itself.
    """

    lookup = dict.__getitem__  # bound on each access, so the memo holds no cycle

    def __init__(self, convert: Callable[[str | None], Any]) -> None:
        super().__init__()
        self.convert = convert
        self.fields = 0

    def __missing__(self, field: str | None) -> Any:
        value = self[field] = self.convert(field)
        return value

    def count(self, n: int) -> None:
        """Count ``n`` more fields read; drop the memo if most were distinct."""
        self.fields += n
        if self.fields >= _MEMO_TRIAL and 2 * len(self) > self.fields:
            self.clear()
            self.lookup = self.convert


def _floats(column: Sequence[str | None], lookup: Callable[[str | None], float]
            ) -> tuple[np.ndarray, np.ndarray]:
    """``float`` of each field by ``lookup``, and a mask of the fields
    ``float`` rejects (None among them)."""
    n = len(column)
    try:
        return np.fromiter(map(lookup, column), np.float64, n), np.zeros(n, bool)
    except (TypeError, ValueError):
        pass
    values, bad = np.full(n, np.nan), np.zeros(n, bool)
    for k, field in enumerate(column):  # only in a block with a bad field
        try:
            values[k] = float(field)
        except (TypeError, ValueError):
            bad[k] = True
    return values, bad


def _ordinal(field: str | None) -> int:
    """The ordinal of an ISO date, 0 (no date's) if the field is not one."""
    try:
        return dt.date.fromisoformat((field or "").strip()).toordinal()
    except ValueError:
        return 0


def _frp(field: str | None) -> float:
    """Fire radiative power: NaN if missing or blank, -1.0 if not a finite value >= 0."""
    if field is None or not field.strip():
        return math.nan
    try:
        value = float(field)
    except ValueError:
        return -1.0
    return value if 0 <= value < math.inf else -1.0


def _frps(column: Sequence[str | None], lookup: Callable[[str | None], float]) -> np.ndarray:
    """:func:`_frp` of each field: its ``float`` by ``lookup`` where all
    are finite values >= 0, else ``_frp`` field by field."""
    try:
        values = np.fromiter(map(lookup, column), np.float64, len(column))
        if ((0 <= values) & (values < math.inf)).all():
            return values
    except (TypeError, ValueError):
        pass
    return np.fromiter(map(_frp, column), np.float64, len(column))


def _confidence(field: str | None) -> int:
    """The confidence code: -1 if missing or blank, -2 if not a known name."""
    raw = (field or "").strip().lower()
    return _CONFIDENCE.get(raw, -2) if raw else -1


def read_detections(
    path: str | Path,
    origin_lon: float,
    origin_lat: float,
    start_date: dt.date | None = None,
    end_date: dt.date | None = None,
) -> Detections:
    """Parse a FIRMS-style CSV: latitude, longitude, acq_date [, frp, confidence].

    The file is read in blocks of whole lines, and each block is split and
    converted column by column. Each column converts its fields through
    one :class:`_Memo` for the whole file, so a distinct text is parsed
    once per file (coordinates and frp with ``float``), until most of its
    texts prove distinct; then its fields are converted one at a time.
    From the first block that holds a quote on, ``csv.reader`` splits the
    rows. Row ends are ``\\r\\n``, ``\\r`` or ``\\n``; a UTF-8 byte order
    mark is skipped. Blank rows are skipped; a row's line is its row
    number, the header being line 1. The window and the projection run
    once, over every row read.

    Bad rows are collected and reported together with their line numbers
    after the whole file has been scanned, each with its first problem in
    the order coordinate, acq_date, frp, confidence; rows outside the
    configured event window are dropped. A kept row whose projected
    coordinates are not finite is a ValidationError naming its line,
    reported before any other problem. That includes an undecodable byte:
    every complete line before it is read, then it is a FormatError.
    """
    path = Path(path)
    first = start_date.toordinal() if start_date else None
    last = end_date.toordinal() if end_date else None
    memos = [_Memo(float), _Memo(float), _Memo(_ordinal), _Memo(float), _Memo(_confidence)]
    # Six floats per row past the header: latitude, longitude, date
    # ordinal, frp, confidence code and 1 if the row is bad or blank; the
    # integers are exact in a double.
    values = array("d")
    problems: list[str] = []

    def table() -> Detections:
        """The good rows inside the window, projected; row ``k`` past the
        header is on line ``k + 2``."""
        lat, lon, day, frp, code, bad = np.frombuffer(values).reshape(-1, 6).T
        keep = bad == 0
        if first is not None:
            keep &= day >= first
        if last is not None:
            keep &= day <= last
        lat, lon = lat[keep], lon[keep]
        with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic
            x, y = project_lonlat(lon, lat, origin_lon, origin_lat)
        off = ~(np.isfinite(x) & np.isfinite(y))
        if off.any():
            line = np.flatnonzero(keep)[off.argmax()] + 2
            raise ValidationError(f"{path}: line {line}: detection has non-finite coordinates")
        return Detections(
            x, y, day[keep].astype(np.int64), frp[keep], code[keep].astype(np.int8)
        )

    def take(rows: _Rows, skip: int) -> None:
        """Convert and check ``rows[skip:]``, the rows after those read."""
        line = len(values) // 6 + 2  # of rows[skip]
        lat_col, lon_col, date_col, frp_col, conf_col = rows.columns(wanted, skip)
        n = len(lat_col)
        lat_memo, lon_memo, date_memo, frp_memo, conf_memo = memos
        lat, coord_bad = _floats(lat_col, lat_memo.lookup)
        lon, lon_bad = _floats(lon_col, lon_memo.lookup)
        coord_bad |= lon_bad
        day = np.fromiter(map(date_memo.lookup, date_col), np.int64, n)
        frp = np.full(n, math.nan) if wanted[3] is None else _frps(frp_col, frp_memo.lookup)
        code = np.fromiter(map(conf_memo.lookup, conf_col), np.int8, n)
        for memo in memos:
            memo.count(n)
        bad = coord_bad | (day == 0) | (frp < 0) | (code == -2)
        for k in np.flatnonzero(bad):  # one iteration per bad or blank row
            if coord_bad[k]:
                if not "".join(rows.row(skip + k)).strip():
                    continue
                message = "unparseable coordinate"
            elif day[k] == 0:
                message = "unparseable acq_date"
            elif frp[k] < 0:
                message = "bad frp value"
            else:
                message = f"bad confidence {conf_col[k].strip().lower()!r}"
            problems.append(f"line {line + k}: {message}")
        values.frombytes(np.column_stack((lat, lon, day, frp, code, bad)).view(np.uint8))

    try:
        with _open_text(path, errors="surrogateescape") as fh:
            blocks = _csv_blocks(fh)
            head = next(blocks, None)
            if head is None:
                raise SchemaError(f"{path}: empty file, expected a CSV header")
            cols = {name.strip().lower(): i for i, name in enumerate(head.row(0))}
            for required in ("latitude", "longitude", "acq_date"):
                if required not in cols:
                    raise SchemaError(f"{path}: missing required column {required!r}")
            wanted = [cols["latitude"], cols["longitude"], cols["acq_date"],
                      cols.get("frp"), cols.get("confidence")]
            take(head, 1)
            for rows in blocks:
                take(rows, 0)
    except FormatError:
        if values:
            table()  # a non-finite row read before the failure is reported first
        raise
    detections = table()
    if problems:
        raise SchemaError(f"{path}: {len(problems)} bad row(s): " + "; ".join(problems))
    return detections


# ---------------------------------------------------------------------------
# ESRI ASCII grids
# ---------------------------------------------------------------------------


# Characters of a land cover body, or of cut GeoJSON coordinates, read
# per chunk; a chunk bounds the arrays kept per character.
_CHUNK_CHARS = 1 << 18

# The three real-valued header keys, then the three integer ones.
_ASC_HEADER = ("xllcorner", "yllcorner", "cellsize", "ncols", "nrows", "nodata_value")


def read_ascii_grid(path: str | Path) -> CategoryRaster:
    """Read an ESRI ASCII grid of integer class codes.

    A body of ASCII digits, minus signs and whitespace is parsed from its
    bytes. Any other body, and any file that fails, is read again a line
    at a time, so that an error names the first bad line.
    """
    path = Path(path)
    try:
        return _read_ascii_grid(path, _class_codes_at_once)
    except (PipelineError, ValueError, OverflowError):
        return _read_ascii_grid(path, _class_codes_by_line)


def _read_ascii_grid(
    path: Path, read_body: Callable[[str, Iterator[tuple[int, str]]], np.ndarray]
) -> CategoryRaster:
    """The grid in ``path``, its body read by ``read_body(file, numbered lines)``."""
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
        values = read_body(where, itertools.chain([(lineno, line)], lines))
    if values.size != n_rows * n_cols:
        raise FormatError(f"{path}: expected {n_rows * n_cols} values, found {values.size}")
    return CategoryRaster(grid, values.reshape(n_rows, n_cols), nodata=nodata)


def _class_codes_at_once(where: str, lines: Iterator[tuple[int, str]]) -> np.ndarray:
    """The codes of a plain body (:func:`_plain_class_codes`), read from its
    bytes; ValueError for any other body."""
    body = "".join(map(operator.itemgetter(1), lines))
    if body.isascii():
        codes = list(map(_plain_class_codes, _line_chunks(body.encode())))
        if not any(c is None for c in codes):
            return np.concatenate([np.zeros(0, np.int32), *codes])
    raise ValueError(f"{where}: not a plain body")


def _line_chunks(data: bytes) -> Iterator[bytes]:
    """``data`` in chunks of whole lines of about ``_CHUNK_CHARS`` bytes,
    which bound the per-character arrays of :func:`_plain_class_codes`."""
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _CHUNK_CHARS) + 1 or len(data)
        yield data[start:stop]
        start = stop


def _plain_class_codes(body: bytes) -> np.ndarray | None:
    """The class codes of a body of spaces, tabs, line ends and tokens of one
    to nine ASCII digits, each after an optional minus sign, as ``int``
    reads them; None for any other body. No token list is built."""
    chars = np.frombuffer(body, np.uint8)
    space = (chars == ord(" ")) | (chars == ord("\t")) | (chars == ord("\n")) | (chars == ord("\r"))
    minus = chars == ord("-")
    if not (space | minus | (chars - np.uint8(ord("0")) < 10)).all():
        return None
    starts, ends = np.flatnonzero(np.diff(~space, prepend=False, append=False)).reshape(-1, 2).T
    negative = minus[starts]
    n_digits = ends - starts - negative
    if np.count_nonzero(minus) != np.count_nonzero(negative) or not (
        (n_digits >= 1) & (n_digits <= 9)
    ).all():
        return None
    codes = np.zeros(len(starts), np.int64)
    for k in range(int(n_digits.max(initial=0))):  # the digit worth 10**k of every code
        digit = chars[np.where(n_digits > k, ends - 1 - k, 0)] - np.int64(ord("0"))
        codes += np.where(n_digits > k, digit, 0) * 10**k
    return np.where(negative, -codes, codes).astype(np.int32)


def _class_codes_by_line(where: str, lines: Iterator[tuple[int, str]]) -> np.ndarray:
    return np.concatenate([
        parse_value(f"{where}: line {n}", "class", text, _class_codes) for n, text in lines
    ])


def _class_codes(line: str) -> np.ndarray:
    return np.array([int(t) for t in line.split()], dtype=np.int32)


def write_ascii_grid(
    raster: CategoryRaster | RealRaster, path: str | Path
) -> None:
    """Write an ESRI ASCII grid; reals keep 17 significant digits.

    Each distinct value is formatted once, into a row of a byte table:
    its text, NUL-padded, then a space. The cells gather their rows, each
    grid row's last space becomes a newline and the NULs are dropped.
    Reals are told apart by their bits, so -0.0 and 0.0 keep their texts.
    """
    path = Path(path)
    g = raster.grid
    if isinstance(raster, CategoryRaster):
        nodata: float = raster.nodata
        keys, fmt = raster.cells.astype(np.int64), str
    else:
        nodata = -9999
        keys, fmt = np.ascontiguousarray(raster.cells).view(np.int64), "{:.17g}".format
    values, index = value_index(keys)
    if isinstance(raster, RealRaster):
        values = values.view(np.float64)
    texts = np.array(list(map(fmt, values.tolist())), dtype=bytes)
    table = np.full((len(texts), texts.itemsize + 1), ord(" "), dtype=np.uint8)
    table[:, :-1] = texts.view(np.uint8).reshape(len(texts), -1)
    body = np.take(table, index, axis=0).reshape(g.n_rows, -1)
    body[:, -1] = ord("\n")
    header = (
        f"ncols {g.n_cols}\n"
        f"nrows {g.n_rows}\n"
        f"xllcorner {g.origin_x:.17g}\n"
        f"yllcorner {g.origin_y:.17g}\n"
        f"cellsize {g.cell_size:.17g}\n"
        f"NODATA_value {nodata}\n"
    )
    path.write_bytes(header.encode() + body.tobytes().replace(b"\0", b""))


def mask_to_category(mask: Mask) -> CategoryRaster:
    """Encode a mask as a 0/1 category raster for .asc export."""
    return CategoryRaster(mask.grid, mask.bits.astype(np.int32), nodata=-1)


# ---------------------------------------------------------------------------
# GeoJSON subset
# ---------------------------------------------------------------------------


_POLYGONAL = ("Polygon", "MultiPolygon")
# What the fast path of a GeoJSON reader raises when it gives up.
_IRREGULAR = (TypeError, ValueError, LookupError, OverflowError)

# A "coordinates" member whose value holds only brackets, number
# characters, commas and JSON whitespace: the key, then the value from its
# "[" to the last "]" before the next '"' or '}'.
_COORDINATES = re.compile(r'("coordinates"[ \t\n\r]*:[ \t\n\r]*)(\[[\[\]0-9eE.+\- \t\n\r,]*\])')
# Where the fast path cut a coordinates value out, the skeleton it parses
# holds this literal, which ``json`` reads as ``_CUT``.
_PLACEHOLDER = "NaN"
_CUT = object()
_CONSTANTS = {"NaN": _CUT, "Infinity": math.inf, "-Infinity": -math.inf}

# The tokens of a cut value: brackets, commas and number literals; JSON
# whitespace (all below "!") separates them.
_OPEN, _CLOSE, _COMMA, _NUMBER = range(4)
_TOKEN_KIND = np.full(256, _NUMBER, np.int8)
_TOKEN_KIND[list(b"[],")] = (_OPEN, _CLOSE, _COMMA)
_DEPTH_STEP = np.array([1, -1, 0, 0], np.int8)
# Which token may follow which in a JSON array of numbers, by 4 * kind + next kind.
_FOLLOWS = np.zeros((4, 4), bool)
_FOLLOWS[_OPEN, [_OPEN, _CLOSE, _NUMBER]] = True
_FOLLOWS[_CLOSE, [_CLOSE, _COMMA]] = True
_FOLLOWS[_COMMA, [_OPEN, _NUMBER]] = True
_FOLLOWS[_NUMBER, [_CLOSE, _COMMA]] = True
_FOLLOWS = _FOLLOWS.ravel()
# Brackets and commas read as spaces, so that splitting at whitespace
# leaves the number literals.
_SEPARATORS = bytes.maketrans(b"[],", b"   ")
# JSON's number grammar; a literal with neither group is an integer.
_JSON_NUMBER = re.compile(rb"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")
# How deep a valid value of each geometry type nests its positions.
_POSITION_DEPTH = {"Point": 1, "LineString": 2, "Polygon": 3, "MultiPolygon": 4}

def _text_column(raw: list) -> list[str]:
    """:func:`_text` of each value; a TypeError if it rejects one."""
    if not set(map(type, raw)) <= {str, int, float}:
        raise TypeError(raw)
    return list(map(str, raw))


def _number_column(raw: list) -> np.ndarray:
    """:func:`_number` of each value; a TypeError, ValueError or
    OverflowError if it rejects one."""
    if not set(map(type, raw)) <= {int, float}:
        raise TypeError(raw)
    values = np.fromiter(map(float, raw), np.float64, len(raw))
    if not np.isfinite(values).all():
        raise ValueError(raw)
    return values


# The column form of each property parser; a layer with another parser
# is read feature by feature.
_COLUMN_PARSERS: dict[Callable, Callable[[list], Any]] = {
    _text: _text_column, _number: _number_column,
}


def _feature_columns(
    features: list, types: tuple[str, ...], properties: dict[str, Callable[[Any], Any]],
) -> tuple[list, dict[str, Any]]:
    """The ``features`` of a skeleton as columns: each one's geometry type
    and its parsed properties by name. The checks of
    :func:`_layer_by_feature` on types and properties run a column at a
    time, and every geometry's coordinates must be a placeholder; one of
    ``_IRREGULAR`` is raised if any fails."""
    if not set(map(type, features)) <= {dict}:
        raise TypeError(features)
    geoms = list(map(dict.get, features, itertools.repeat("geometry")))
    if not set(map(type, geoms)) <= {dict}:
        raise TypeError(geoms)
    gtypes = list(map(dict.get, geoms, itertools.repeat("type")))
    props = list(map(dict.get, features, itertools.repeat("properties")))
    if not all(map(types.__contains__, gtypes)) or not set(map(type, props)) <= {dict}:
        raise TypeError(gtypes)
    if operator.countOf(map(dict.get, geoms, itertools.repeat("coordinates")), _CUT) < len(geoms):
        raise ValueError("coordinates not cut")
    # A missing property reads as None, which no column parser takes.
    return gtypes, {
        name: _COLUMN_PARSERS[parse](list(map(dict.get, props, itertools.repeat(name))))
        for name, parse in properties.items()
    }


def _collection_features(doc: Any) -> list | None:
    """The features list of the FeatureCollection ``doc``; None if it is not one."""
    features = doc.get("features") if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        return None
    return features


def _skeleton_features(skeleton: str) -> tuple[list, int]:
    """The features of the FeatureCollection ``skeleton``, each placeholder
    read as ``_CUT``, and how many placeholders ``json`` read: a literal
    ``NaN`` inside a string is none. A ValueError or TypeError if it is not
    JSON, nests too deep or is not a FeatureCollection."""
    constants = []

    def constant(name: str) -> Any:
        constants.append(name)
        return _CONSTANTS[name]

    try:
        features = _collection_features(json.loads(skeleton, parse_constant=constant))
    except RecursionError:
        raise ValueError("JSON nests too deep") from None
    if features is None:
        raise TypeError("not a FeatureCollection")
    return features, constants.count(_PLACEHOLDER)


def _nesting(items: list, levels: int) -> tuple[list[np.ndarray], list]:
    """The lengths of the lists at each of the top ``levels`` levels of the
    nested lists ``items``, and the items that the lowest of them hold, in
    order; a TypeError if one of those is not a list."""
    sizes = []
    for _ in range(levels):
        if not set(map(type, items)) <= {list}:
            raise TypeError(items)
        sizes.append(np.fromiter(map(len, items), np.int64, len(items)))
        items = list(itertools.chain.from_iterable(items))
    return sizes, items


def _json_float(literal: bytes) -> float:
    """The float ``json`` gives a position for a JSON number literal: an
    integer is read as an int first, so ``-0`` is 0.0. A ValueError outside
    JSON's grammar, an OverflowError for an integer beyond the double range."""
    match = _JSON_NUMBER.fullmatch(literal)
    if match is None:
        raise ValueError(literal)
    return float(literal) if match.lastindex else float(int(literal))


def _positions(
    text: bytes, lengths: np.ndarray, depths: np.ndarray, top: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The nesting and the lon/lat of cut coordinates values, ``text`` being
    their concatenation: value k has ``lengths[k]`` characters and nests its
    positions ``depths[k]`` deep.

    The digits are dropped first: each number literal becomes one token.
    Bracket depths come from one ``cumsum`` over the tokens. Gives the sizes
    at each level of the nesting, from the arrays ``top`` levels above the
    positions per value down to the positions per array one level above
    them, then each position's first two numbers; each distinct literal is
    converted once. A ValueError or OverflowError unless every value is a
    JSON array whose numbers all lie at its depth, two or more to a
    position, in JSON's number grammar.
    """
    chars = np.frombuffer(text, np.uint8)
    token = chars > ord(" ")
    digit = token & (chars != ord("[")) & (chars != ord("]")) & (chars != ord(","))
    token[1:] &= ~(digit[1:] & digit[:-1])  # a literal's first character
    at = np.flatnonzero(token)
    kind = np.take(_TOKEN_KIND, chars[at])
    ends = np.searchsorted(at, np.cumsum(lengths) - 1)  # each value's last "]"
    depth = np.cumsum(np.take(_DEPTH_STEP, kind), dtype=np.int32)
    follows = np.take(_FOLLOWS, kind[:-1] * 4 + kind[1:])
    follows[ends[:-1]] = True  # one value's last "]", the next one's "["
    # How many levels above its positions each token lies.
    above = np.repeat(depths, np.diff(ends, prepend=-1)) - depth
    is_open, is_number = kind == _OPEN, kind == _NUMBER
    if (depth[ends].any() or np.count_nonzero(depth <= 0) != len(ends) or not follows.all()
            or above[is_number].any() or (above[is_open] < 0).any()):
        raise ValueError("irregular coordinates")
    opens = [np.flatnonzero(is_open & (above == level)) for level in range(top + 1)]
    numbers_at = np.flatnonzero(is_number)
    first = np.searchsorted(numbers_at, opens[0])  # each position's first number
    if (np.diff(first, append=len(numbers_at)) < 2).any():
        raise ValueError("short position")
    sizes = [np.bincount(np.searchsorted(ends, opens[top]), minlength=len(ends))]
    sizes += [
        np.diff(np.searchsorted(opens[level - 1], opens[level]), append=len(opens[level - 1]))
        for level in range(top, 0, -1)
    ]
    literals = text.translate(_SEPARATORS).split()
    memo = {literal: _json_float(literal) for literal in set(literals)}
    numbers = np.fromiter(map(memo.__getitem__, literals), np.float64, len(literals))
    return sizes, numbers[first], numbers[first + 1]


def _layer_at_once(
    path: Path, origin_lon: float, origin_lat: float, types: tuple[str, ...],
    properties: dict[str, Callable[[Any], Any]], unique: str | None,
) -> tuple[dict[str, Any], list[np.ndarray], np.ndarray, np.ndarray]:
    """The GeoJSON layer in ``path`` read as if it were valid, with no JSON
    tree for its coordinates.

    Each geometry's coordinates value is cut out of the text
    (``_COORDINATES``) and a placeholder left in its place, so that
    ``json`` parses only the skeleton at once, with the collector paused:
    types and properties, checked a column at a time
    (:func:`_feature_columns`). The cut values are read in chunks of about
    ``_CHUNK_CHARS`` characters (:func:`_positions`).

    Gives each property's values, the sizes at each level of the layer's
    nesting (a Point being a list of one position and a Polygon a list of
    one polygon) and every position projected. One of ``_IRREGULAR`` is
    raised at the first irregularity in types, properties or structure, or
    when a placeholder is not the coordinates of a geometry (a member
    named ``coordinates`` elsewhere, a repeated or escaped key); a
    feature's values and geometry are left to the caller to check, a
    column at a time.
    """
    with _open_text(path) as fh:
        parts = _COORDINATES.split(fh.read())
    cut = parts[2::3]
    parts[2::3] = [_PLACEHOLDER] * len(cut)
    skeleton = "".join(parts)
    del parts
    with _collector_paused():
        features, placeholders = _skeleton_features(skeleton)
        del skeleton
        gtypes, values = _feature_columns(features, types, properties)
        del features
    # Each geometry's coordinates is a placeholder, and json read no other
    # (a NaN in the file, or a cut value that was not a geometry's).
    if placeholders != len(cut) or len(gtypes) != len(cut):
        raise ValueError(path)
    if unique is not None and len(set(values[unique])) < len(cut):
        raise ValueError(path)
    depths = np.fromiter(map(_POSITION_DEPTH.__getitem__, gtypes), np.int32, len(gtypes))
    lengths = np.fromiter(map(len, cut), np.int64, len(cut))
    chunk = np.cumsum(lengths) // _CHUNK_CHARS
    bounds = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), len(cut)]
    levels, lon, lat = zip(*(
        _positions("".join(cut[a:b]).encode(), lengths[a:b], depths[a:b],
                   2 if types == _POLYGONAL else 0)
        for a, b in itertools.pairwise(bounds)
    ))
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic
        x, y = project_lonlat(np.concatenate(lon), np.concatenate(lat), origin_lon, origin_lat)
    return values, list(map(np.concatenate, zip(*levels))), x, y


def _layer_by_feature(
    path: Path, origin_lon: float, origin_lat: float, types: tuple[str, ...],
    properties: dict[str, Callable[[Any], Any]], unique: str | None,
    rule: Callable[..., tuple[int, str] | None],
) -> tuple[dict[str, Any], list[np.ndarray], np.ndarray, np.ndarray]:
    """:func:`_layer_at_once`'s result, from the features read one at a
    time in file order, so that the first bad one's error is raised.

    A feature's geometry type must be in ``types``; each property in
    ``properties`` is required and parsed by its function, and ``unique``
    names one that must not repeat. Its coordinates are projected a
    position at a time: a line is checked (:func:`line_problem`) once it is
    projected, and so are a polygon's rings (:func:`ring_problem`). Last,
    ``rule`` is asked about the features' values, given the layer as
    :func:`_layer_at_once` gives it, and names the first bad feature with
    its message. Before any other error is raised it is asked about the
    features read so far, so that the first in file order is raised; within
    a feature the type, the properties, the repeated value and the geometry
    come before its values.
    Malformed input is a FormatError (exit 2); invalid geometry, a
    repeated value or one ``rule`` names is a ValidationError (exit 1).
    Both name the file and the feature.
    """
    features = _collection_features(_load_json(path))
    if features is None:
        raise FormatError(f"{path}: expected a FeatureCollection with a features list")

    def position(p) -> Point:
        lon, lat = p[0], p[1]
        if lon.__class__ is bool or lat.__class__ is bool:  # as in _number
            raise TypeError(p)
        return project_lonlat(lon, lat, origin_lon, origin_lat)

    def project(ring) -> list[Point]:
        return [position(p) for p in ring]

    def runs(problem, projected: list[list[Point]]) -> list[list[Point]]:
        """The vertex runs ``projected``, unless ``problem`` names a bad one."""
        xy = np.array(list(itertools.chain.from_iterable(projected)), np.float64).reshape(-1, 2)
        found = problem(xy[:, 0], xy[:, 1], run_offsets(list(map(len, projected))))
        if found is not None:
            raise GeometryError(found[1])
        return projected

    def polygon(rings) -> list[list[Point]]:
        return runs(ring_problem, [project(rings[0]), *map(project, rings[1:])])

    shapes = {
        "Point": lambda c: [position(c)],
        "LineString": lambda c: runs(line_problem, [project(c)])[0],
        "Polygon": lambda c: [polygon(c)],
        "MultiPolygon": lambda c: [polygon(rings) for rings in c],
    }
    values: dict[str, list] = {name: [] for name in properties}
    geometries = []

    def checked() -> tuple[dict[str, Any], list[np.ndarray], np.ndarray, np.ndarray]:
        """The features read so far, unless ``rule`` names a bad one."""
        sizes, points = _nesting(geometries, 3 if types == _POLYGONAL else 1)
        x, y = np.array(points, np.float64).reshape(-1, 2).T.copy()
        found = rule(values, sizes, x, y)
        if found is not None:
            raise ValidationError(f"{path}: feature {found[0]}: {found[1]}") from None
        return values, sizes, x, y

    seen = set()
    try:
        for i, feat in enumerate(features):
            where = f"{path}: feature {i}"
            geom = feat.get("geometry") if isinstance(feat, dict) else None
            gtype = geom.get("type") if isinstance(geom, dict) else None
            if gtype not in types:
                raise FormatError(f"{where}: expected {' or '.join(types)}, got {gtype!r}")
            props = parse_value(where, "properties", feat.get("properties") or {}, _object)
            row = {name: _required(where, props, name, parse) for name, parse in properties.items()}
            if unique is not None:
                if row[unique] in seen:
                    raise ValidationError(f"{where}: duplicate {unique} {row[unique]!r}")
                seen.add(row[unique])
            try:
                shape = parse_value(where, "coordinates", geom.get("coordinates"), shapes[gtype])
            except GeometryError as exc:
                raise GeometryError(f"{where}: {exc}") from None
            for name, value in row.items():
                values[name].append(value)
            geometries.append(shape)
    except PipelineError:
        checked()  # an earlier feature's values come first
        raise
    return checked()


def read_vertex_layer(
    path: str | Path,
    origin_lon: float,
    origin_lat: float,
    gtype: str,
    properties: dict[str, Callable[[Any], Any]],
    rule: Callable[..., tuple[int, str] | None],
) -> tuple[dict[str, Any], np.ndarray, np.ndarray, np.ndarray]:
    """Each property's values, and the projected vertices of every Point or
    LineString (``gtype``) feature: feature k's are ``xs, ys[offsets[k]:offsets[k + 1]]``.

    ``rule(values, sizes, xs, ys)`` names the first feature whose values
    are bad, and its message, or gives None; ``sizes`` holds each feature's
    vertex count. A LineString's vertices must pass :func:`line_problem`.

    The file is read in two phases. The first assumes a valid file: it
    reads it a column at a time, with no JSON tree for the coordinates
    (:func:`_layer_at_once`), then asks :func:`line_problem` and ``rule``
    about all features at once. At the first irregularity or problem it
    gives up, and the file is read again one feature at a time
    (:func:`_layer_by_feature`), which alone names an error: the first
    that reading the features in file order meets. Malformed input is a
    FormatError (exit 2); invalid geometry or a value ``rule`` names is a
    ValidationError (exit 1). Both name the file and the feature.
    """
    path = Path(path)
    types = (gtype,)
    try:
        values, sizes, xs, ys = _layer_at_once(
            path, origin_lon, origin_lat, types, properties, None
        )
        regular = ((gtype == "Point" or line_problem(xs, ys, run_offsets(sizes[0])) is None)
                   and rule(values, sizes, xs, ys) is None)
    except _IRREGULAR:
        regular = False
    # Read again one feature at a time, which names the error; only now that
    # the except block has exited, as its traceback kept the JSON tree alive.
    if not regular:
        values, sizes, xs, ys = _layer_by_feature(
            path, origin_lon, origin_lat, types, properties, None, rule
        )
    return values, xs, ys, run_offsets(sizes[0])


def read_polygon_layer(
    path: str | Path,
    origin_lon: float,
    origin_lat: float,
    properties: dict[str, Callable[[Any], Any]],
    rule: Callable[..., tuple[int, str] | None],
    unique: str | None = None,
) -> tuple[dict[str, Any], PolygonLayer]:
    """Each property's values in feature order, and the features' shapes as one layer.

    Features are Polygons or MultiPolygons; ``unique`` names a property
    that must not repeat, and ``rule(values, sizes, xs, ys)`` names the
    first feature whose values are bad, and its message, or gives None;
    ``sizes[0]`` holds each feature's polygon count.

    The file is read in :func:`read_vertex_layer`'s two phases. The first
    converts, projects and checks every position at once
    (:func:`ring_problem`), and asks ``rule`` about all features. Only the
    second, feature by feature, names an error: the first that reading the
    features in file order, and checking each polygon's rings once they
    are projected, meets, with :func:`read_vertex_layer`'s exit codes; a
    repeated value exits 1.
    """
    path = Path(path)
    try:
        values, sizes, x, y = _layer_at_once(
            path, origin_lon, origin_lat, _POLYGONAL, properties, unique
        )
        _, n_rings, n_positions = sizes
        regular = (n_rings.all() and ring_problem(x, y, run_offsets(n_positions)) is None
                   and rule(values, sizes, x, y) is None)
    except _IRREGULAR:
        regular = False
    # Read again one feature at a time, which names the error; only now that
    # the except block has exited, as its traceback kept the JSON tree alive.
    if not regular:
        values, sizes, x, y = _layer_by_feature(
            path, origin_lon, origin_lat, _POLYGONAL, properties, unique, rule
        )
    feature_offsets, polygon_offsets, ring_offsets = map(run_offsets, sizes)
    return values, PolygonLayer(*close_rings(x, y, ring_offsets), polygon_offsets, feature_offsets)


def read_blocks(path: str | Path, origin_lon: float, origin_lat: float) -> Blocks:
    values, parts = read_polygon_layer(
        path, origin_lon, origin_lat,
        {"block_id": _text, "pop": _number, "tract_id": _text},
        lambda v, sizes, xs, ys: first_problem([
            (sizes[0] == 0, "block {block_id} has no boundary parts"),
            (~(np.asarray(v["pop"], np.float64) >= 0), "block {block_id} has negative pop {pop}"),
        ], **v),
        unique="block_id",
    )
    pop = np.array(values["pop"], dtype=np.float64)
    return Blocks(values["block_id"], pop, values["tract_id"], parts)


def _empty(texts: list[str]) -> np.ndarray:
    """Which of ``texts`` are empty."""
    return np.fromiter(map(operator.not_, texts), bool, len(texts))


def read_roads(path: str | Path, origin_lon: float, origin_lat: float) -> Roads:
    """Each road's vertices and class, as a :class:`Roads` table."""
    values, xs, ys, offsets = read_vertex_layer(
        path, origin_lon, origin_lat, "LineString", {"class": _text},
        lambda v, sizes, xs, ys: first_problem([
            (_empty(v["class"]), "road feature needs a class"),
        ], **v),
    )
    return Roads(xs, ys, offsets, *category_codes(values["class"]))


def read_buildings(path: str | Path, origin_lon: float, origin_lat: float) -> PolygonLayer:
    """Each building's footprints, as feature k of one layer; ids are checked."""
    return read_polygon_layer(
        path, origin_lon, origin_lat, {"id": _text},
        lambda v, sizes, xs, ys: first_problem([
            (sizes[0] == 0, "building {id} has no footprint"),
        ], **v),
    )[1]


def read_pois(path: str | Path, origin_lon: float, origin_lat: float) -> Pois:
    """Each POI's location and category, as a :class:`Pois` table."""
    values, xs, ys, offsets = read_vertex_layer(
        path, origin_lon, origin_lat, "Point", {"category": _text},
        lambda v, sizes, xs, ys: first_problem([
            (~(np.isfinite(xs) & np.isfinite(ys)), "poi has non-finite coordinates"),
            (_empty(v["category"]), "poi feature needs a category"),
        ], **v),
    )
    return Pois(xs, ys, *category_codes(values["category"]))


def read_districts(path: str | Path, origin_lon: float, origin_lat: float) -> Districts:
    """Official perimeter file: one polygonal feature per district with a name."""
    values, parts = read_polygon_layer(
        path, origin_lon, origin_lat, {"name": _text},
        lambda v, sizes, xs, ys: first_problem([
            (_empty(v["name"]), "district needs a name"),
            (sizes[0] == 0, "district {name} has no perimeter"),
        ], **v),
        unique="name",
    )
    return Districts(values["name"], parts)


def compact_json(doc: Any) -> str:
    """The compact, key-sorted JSON text every GeoJSON writer emits."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def lonlat_texts(
    xs: np.ndarray, ys: np.ndarray, origin_lon: float, origin_lat: float
) -> tuple[np.ndarray, np.ndarray]:
    """The text of each x's longitude and each y's latitude, as object arrays.

    The text is what :func:`compact_json` writes for the float: its
    ``repr``, as ``csv.writer`` writes it too, when it is finite.
    """
    lons, lats = unproject_to_lonlat(Point(xs, ys), origin_lon, origin_lat)
    return tuple(
        np.array(compact_json(a.tolist())[1:-1].split(","), dtype=object) for a in (lons, lats)
    )


@functools.lru_cache(maxsize=4)
def _corner_texts(
    grid: AnalysisGrid, origin_lon: float, origin_lat: float
) -> tuple[np.ndarray, np.ndarray]:
    """``"[lon,"`` of each of the grid's n_cols + 1 corner columns and
    ``"lat]"`` of each of its n_rows + 1 corner rows, read-only."""
    lon_text, lat_text = lonlat_texts(grid.corner_xs(), grid.corner_ys(), origin_lon, origin_lat)
    texts = "[" + lon_text + ",", lat_text + "]"
    for a in texts:
        a.setflags(write=False)
    return texts


def write_daily_perimeters_geojson(
    district: str,
    day: DailyPerimeter,
    origin_lon: float,
    origin_lat: float,
    path: str | Path,
) -> None:
    """One Polygon feature per polygon traced from the day's new burn.

    The text is what ``json.dumps(doc, sort_keys=True, separators=(",",
    ":"))`` gives for the FeatureCollection. Traced vertices lie on the
    grid's corner lattice, so its n_cols + 1 longitudes and n_rows + 1
    latitudes are unprojected and formatted once per grid and origin, then
    joined by index.
    """
    grid = day.new_burn.grid
    rings = trace_mask_rings(day.new_burn)
    lon_text, lat_text = _corner_texts(grid, origin_lon, origin_lat)
    properties = compact_json(
        {"district": district, "date": day.date.isoformat(), "kind": "new_burn"}
    )
    head = '{"geometry":{"coordinates":'
    tail = ',"type":"Polygon"},"properties":' + properties + ',"type":"Feature"}'
    # Each vertex is three tokens: what precedes it, "[lon," and "lat]".
    # What precedes it closes the previous ring or feature and opens its
    # own, taken from the ring and polygon offsets.
    n = len(rings.corners)
    tokens = np.empty(3 * n + 1, dtype=object)
    before = tokens[0:-1:3]
    before[:] = ","
    before[rings.ring_offsets[1:-1]] = "],["
    before[rings.ring_offsets[rings.polygon_offsets[1:-1]]] = "]]" + tail + "," + head + "[["
    i, j = np.divmod(rings.corners, grid.n_cols + 1)
    tokens[1::3] = lon_text[j]
    tokens[2::3] = lat_text[i]
    if n:
        tokens[0] = '{"features":[' + head + "[["
        tokens[-1] = "]]" + tail + '],"type":"FeatureCollection"}\n'
    else:
        tokens[-1] = '{"features":[],"type":"FeatureCollection"}\n'
    Path(path).write_text("".join(tokens.tolist()))


# ---------------------------------------------------------------------------
# Weights / costs / demographics
# ---------------------------------------------------------------------------


def _validated(where: str | Path, build: Callable[..., T], **fields: Any) -> T:
    """``build(**fields)``; a ValidationError it raises is re-raised naming ``where``."""
    try:
        return build(**fields)
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def read_weights(path: str | Path) -> WeightTable:
    path = Path(path)
    weights = _table(str(path), "weights", _load_json(path), int, _number)
    return _validated(path, WeightTable, weights=weights)


def write_weights(w: WeightTable, path: str | Path) -> None:
    doc = {str(k): v for k, v in sorted(w.weights.items())}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def read_costs(path: str | Path) -> CostModel:
    path = Path(path)
    where = str(path)
    doc = parse_value(where, "costs", _load_json(path), _object)
    return _validated(
        path,
        CostModel,
        land_cost=_table(where, "land_cost", _required(where, doc, "land_cost", _object),
                         int, _number),
        road_cost=_table(where, "road_cost", _required(where, doc, "road_cost", _object),
                         str, _number),
        building_cost=_required(where, doc, "building_cost", _number),
    )


def write_costs(costs: CostModel, path: str | Path) -> None:
    doc = {
        "building_cost": costs.building_cost,
        "land_cost": {str(k): v for k, v in sorted(costs.land_cost.items())},
        "road_cost": dict(sorted(costs.road_cost.items())),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


# Every demographic key, group by group: demographics.csv's share columns
# and, prefixed with ``demo_``, report.csv's count columns.
_DEMO_KEYS = tuple(itertools.chain(*DEMOGRAPHIC_GROUPS.values()))


def _demo_values(demo: TractDemographics | Demographics) -> dict[str, float]:
    """``demo``'s value for each key, in ``_DEMO_KEYS`` order."""
    return {k: getattr(demo, g)[k] for g, keys in DEMOGRAPHIC_GROUPS.items() for k in keys}


def read_demographics(path: str | Path) -> dict[str, TractDemographics]:
    path = Path(path)
    out: dict[str, TractDemographics] = {}
    with _open_text(path) as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("tract_id", *_DEMO_KEYS) if c not in (reader.fieldnames or [])]
        if missing:
            raise SchemaError(f"{path}: missing demographics column(s) {missing}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            shares = {
                g: {k: parse_value(where, k, row[k], _finite) for k in keys}
                for g, keys in DEMOGRAPHIC_GROUPS.items()
            }
            tract_id = row["tract_id"]
            if tract_id in out:
                raise ValidationError(f"{where}: duplicate tract {tract_id}")
            out[tract_id] = _validated(where, TractDemographics, tract_id=tract_id, **shares)
    return out


def write_demographics(
    demos: dict[str, TractDemographics], path: str | Path
) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("tract_id", *_DEMO_KEYS))
        for tract_id in sorted(demos):
            writer.writerow([tract_id, *map(repr, _demo_values(demos[tract_id]).values())])


# ---------------------------------------------------------------------------
# Report CSV
# ---------------------------------------------------------------------------


class _Column(NamedTuple):
    """A record attribute written as ``text(value)``; read back by ``parse`` if set.

    ``absent`` is the text read when a report lacks the column.
    """

    field: str
    text: Callable[[Any], str]
    parse: Callable[[str], Any] | None = None
    absent: str | None = None


class _ClassColumns(NamedTuple):
    """A column ``prefix + class`` per key of the record dicts ``classes``.

    Each shows the record dict ``field``, or ``missing`` for a class it lacks.
    """

    prefix: str
    field: str
    classes: tuple[str, ...]
    text: Callable[[Any], str]
    missing: Any
    parse_class: Callable[[str], Any]
    parse: Callable[[str], Any]

    def key(self, column: str) -> Any:
        return self.parse_class(column.removeprefix(self.prefix))


# The columns of report.csv. The key and aggregate columns lead in this
# order; the rest of the fixed columns, the demographic counts and the
# per-class columns follow, sorted by name; with ``cumulative`` the
# running per-district totals of five aggregates end the row.
_REPORT_HEAD = {
    "date": _Column("date", dt.date.isoformat, dt.date.fromisoformat),
    "district": _Column("district", str, str),
    "land_loss_usd": _Column("land_total_cents", cents_to_usd),
    "road_loss_usd": _Column("road_total_cents", cents_to_usd),
    "building_loss_usd": _Column("building_loss_cents", cents_to_usd, usd_to_cents),
    "building_count": _Column("building_count", str, int),
    "poi_count": _Column("poi_total", str),
    "exposed_population": _Column("exposed_population", repr, float),
}
_REPORT_SORTED = {
    "exposed_population_rounded": _Column("exposed_population", lambda v: str(round(v))),
    "new_burn_cells": _Column("new_burn_cells", str, int, absent="0"),
}
_REPORT_FIXED = {**_REPORT_HEAD, **_REPORT_SORTED}
_ROADS = ("road_loss_cents", "road_length_m")
_REPORT_CLASSES = (
    _ClassColumns("land_loss_usd_class_", "land_loss_cents", ("land_loss_cents",),
                  cents_to_usd, 0, int, usd_to_cents),
    _ClassColumns("road_loss_usd_", "road_loss_cents", _ROADS, cents_to_usd, 0, str, usd_to_cents),
    _ClassColumns("road_length_m_", "road_length_m", _ROADS, repr, 0.0, str, float),
    _ClassColumns("poi_count_", "poi_count", ("poi_count",), str, 0, str, int),
)
_REPORT_CUMULATIVE = {
    f"cumulative_{name}": _REPORT_FIXED[name] for name in (
        "building_loss_usd", "exposed_population", "land_loss_usd", "new_burn_cells",
        "road_loss_usd",
    )
}


def write_report(
    records: list[DailyImpactRecord], path: str | Path, cumulative: bool = False
) -> None:
    """Long-format CSV, one row per (date, district), in the columns above.

    Every per-class / per-category column seen anywhere in the records
    is written, zero-filled where a record has no entry.
    """
    if not records:
        raise ValidationError("write_report needs at least one record")
    records = sorted(records, key=lambda r: (r.date, r.district))
    classes = [
        (family, {k for r in records for f in family.classes for k in getattr(r, f)})
        for family in _REPORT_CLASSES
    ]
    header = list(_REPORT_HEAD) + sorted(
        [*_REPORT_SORTED, *(f"demo_{k}" for k in _DEMO_KEYS)]
        + [f"{family.prefix}{c}" for family, cs in classes for c in cs]
    ) + list(_REPORT_CUMULATIVE if cumulative else ())

    running: dict[str, dict[str, Any]] = {}
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in records:
            row = {name: col.text(getattr(rec, col.field)) for name, col in _REPORT_FIXED.items()}
            for family, cs in classes:
                values = getattr(rec, family.field)
                row.update((f"{family.prefix}{c}", family.text(values.get(c, family.missing)))
                           for c in cs)
            row.update((f"demo_{k}", repr(v)) for k, v in _demo_values(rec.demographics).items())
            if cumulative:
                totals = running.setdefault(rec.district, dict.fromkeys(_REPORT_CUMULATIVE, 0))
                for name, col in _REPORT_CUMULATIVE.items():
                    totals[name] += getattr(rec, col.field)
                    row[name] = col.text(totals[name])
            writer.writerow([row[col] for col in header])


def read_report(path: str | Path) -> list[dict[str, str]]:
    """Report rows as dicts of strings (for checks and the report command)."""
    with _open_text(Path(path)) as fh:
        return list(csv.DictReader(fh))


def records_from_rows(
    rows: list[dict[str, str]], path: str | Path = "report"
) -> list[DailyImpactRecord]:
    """Records from ``read_report`` rows, through the column table's parsers.

    Demographics read back as zeros. A missing column or malformed value
    is a FormatError naming ``path`` and the row.
    """
    for col in ("date", "district"):
        if rows and col not in rows[0]:
            raise FormatError(f"{path}: report has no {col!r} column")
    records = []
    for row in rows:
        where = f"{path}: row for {row.get('date')} {row.get('district')}"
        if None in row:
            # csv.DictReader files the fields beyond the header under None.
            raise FormatError(f"{where}: more fields than the header")
        fields: dict[str, Any] = {family.field: {} for family in _REPORT_CLASSES}
        for name in row:
            for family in _REPORT_CLASSES:
                if name.startswith(family.prefix):
                    value = parse_value(where, name, row[name], family.parse)
                    fields[family.field][parse_value(str(path), "column", name, family.key)] = value
        for name, col in _REPORT_FIXED.items():
            if col.parse:
                fields[col.field] = parse_value(where, name, row.get(name, col.absent), col.parse)
        records.append(DailyImpactRecord(**fields, demographics=Demographics.zeros()))
    return records


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_POP_RAMP = ("#ffffcc", "#a1dab4", "#41b6c4", "#2c7fb8", "#253494")
_DAY_COLORS = ("#e41a1c", "#ff7f00", "#ffd92f", "#4daf4a", "#377eb8", "#984ea3",
               "#a65628", "#f781bf")


def render_svg(
    path: str | Path,
    grid: AnalysisGrid,
    popgrid: RealRaster,
    perimeters: dict[str, list[DailyPerimeter]],
    districts: Districts,
) -> None:
    """Simple map: population choropleth, per-day new-burn outlines, legend.

    The choropleth uses a fixed 5-stop ramp over the quantiles of the
    positive population values. Output is deterministic for fixed inputs.
    """
    scale = 800.0 / max(grid.n_cols * grid.cell_size, grid.n_rows * grid.cell_size)
    width = grid.n_cols * grid.cell_size * scale
    height = grid.n_rows * grid.cell_size * scale
    dates = sorted({day.date for days in perimeters.values() for day in days})
    legend_h = 20.0 * (1 + len(dates))

    def sx(x: np.ndarray) -> np.ndarray:
        return (x - grid.origin_x) * scale

    def sy(y: np.ndarray) -> np.ndarray:
        return (grid.max_y - y) * scale

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height + legend_h:.2f}" '
        f'viewBox="0 0 {width:.2f} {height + legend_h:.2f}">'
    )
    parts.append(f'<rect width="{width:.2f}" height="{height:.2f}" fill="#f7f7f7"/>')

    rows, cols = np.nonzero(popgrid.cells > 0)
    if rows.size:
        positive = popgrid.cells[rows, cols]
        breaks = _quintile_breaks(positive)
        levels = np.searchsorted(breaks, positive, side="right")
        cell_px = grid.cell_size * scale
        for r, c, level in zip(rows.tolist(), cols.tolist(), levels.tolist()):
            color = _POP_RAMP[level]
            x = c * cell_px
            y = r * cell_px
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_px:.2f}" '
                f'height="{cell_px:.2f}" fill="{color}"/>'
            )

    layer = districts.parts
    vertices = [
        f"{x:.2f} {y:.2f}" for x, y in zip(sx(layer.xs).tolist(), sy(layer.ys).tolist())
    ]
    for path_data in _ring_paths(vertices, layer.ring_offsets, layer.polygon_offsets):
        parts.append(
            f'<path d="{path_data}" fill="none" '
            f'stroke="#555555" stroke-width="1.5" stroke-dasharray="4 2"/>'
        )

    # Traced vertices lie on the corner lattice: format its x and y once.
    x_text, y_text = (
        np.array([f"{v:.2f}" for v in values.tolist()], dtype=object)
        for values in (sx(grid.corner_xs()), sy(grid.corner_ys()))
    )
    for name in sorted(perimeters):
        for day in perimeters[name]:
            color = _DAY_COLORS[dates.index(day.date) % len(_DAY_COLORS)]
            rings = trace_mask_rings(day.new_burn)
            i, j = np.divmod(rings.corners, grid.n_cols + 1)
            vertices = ((x_text + " ")[j] + y_text[i]).tolist()
            for path_data in _ring_paths(vertices, rings.ring_offsets, rings.polygon_offsets):
                parts.append(
                    f'<path d="{path_data}" fill="none" '
                    f'stroke="{color}" stroke-width="1.2"/>'
                )

    y_leg = height + 14.0
    parts.append(
        f'<text x="4.00" y="{y_leg:.2f}" font-family="sans-serif" '
        f'font-size="11">new burns by day</text>'
    )
    for i, date in enumerate(dates):
        y = y_leg + 18.0 * (i + 1)
        color = _DAY_COLORS[i % len(_DAY_COLORS)]
        parts.append(
            f'<rect x="4.00" y="{y - 9:.2f}" width="12.00" height="12.00" '
            f'fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="22.00" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="11">{date.isoformat()}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _ring_paths(
    vertices: list[str], ring_offsets: np.ndarray, polygon_offsets: np.ndarray
) -> list[str]:
    """The SVG path data of each polygon, one closed subpath per ring.

    ``vertices`` holds the text of each ring vertex, ``"x y"``; rings and
    polygons are laid out as in a :class:`PolygonLayer`, each ring's
    closing vertex repeating its first.
    """
    ends = ring_offsets.tolist()
    subpaths = ["M " + " L ".join(vertices[a:b - 1]) + " Z" for a, b in zip(ends, ends[1:])]
    bounds = polygon_offsets.tolist()
    return [" ".join(subpaths[a:b]) for a, b in zip(bounds, bounds[1:])]


def _quintile_breaks(values: np.ndarray) -> np.ndarray:
    """``np.quantile(values, [0.2, 0.4, 0.6, 0.8])``, to the bit, for a
    non-empty array of finite values.

    numpy's "linear" rule on the sorted values: quantile q sits at the
    virtual index ``(n - 1) * q``, between the values a and b at its floor
    and the next index, at fraction g, and is ``a + (b - a) * g``, or
    ``b - (b - a) * (1 - g)`` where g >= 0.5. ``np.quantile`` itself calls
    a bare ``np.unique``, which imports ``numpy.ma``.
    """
    ordered = np.sort(values)
    virtual = (len(ordered) - 1) * np.array([0.2, 0.4, 0.6, 0.8])
    below = np.floor(virtual)
    g = virtual - below
    i = below.astype(np.int64)
    a, b = ordered[i], ordered[np.minimum(i + 1, len(ordered) - 1)]
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)
