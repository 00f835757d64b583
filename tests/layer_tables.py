"""Column tables of input layers built from rows written in a test.

``fireimpact`` takes each layer only as the table its reader builds;
these build the same tables from rows. A row is a tuple in the field
order of its NamedTuple here; buildings are ``PolygonLayer.of`` their
footprints.
"""

import math
from typing import Iterable, NamedTuple

import numpy as np

from fireimpact.dasymetric import Blocks
from fireimpact.geometry import Point, PolygonLayer, PolyLine, Polygon, run_offsets
from fireimpact.impact import Pois, Roads, category_codes
from fireimpact.perimeters import CONFIDENCE_CODES, Detection, Detections


class Block(NamedTuple):
    block_id: str
    parts: list[Polygon]
    pop: float
    tract_id: str


class Road(NamedTuple):
    line: PolyLine
    road_class: str


class Poi(NamedTuple):
    location: Point
    category: str


def detections(rows: Iterable[Detection]) -> Detections:
    rows = list(rows)
    return Detections(
        np.array([d.location.x for d in rows], dtype=np.float64),
        np.array([d.location.y for d in rows], dtype=np.float64),
        np.array([d.date.toordinal() for d in rows], dtype=np.int64),
        np.array([math.nan if d.frp is None else d.frp for d in rows], dtype=np.float64),
        np.array(
            [-1 if d.confidence is None else CONFIDENCE_CODES.index(d.confidence) for d in rows],
            dtype=np.int8,
        ),
    )


def blocks(rows: Iterable[Block]) -> Blocks:
    rows = [Block(*row) for row in rows]
    return Blocks(
        [b.block_id for b in rows],
        np.array([b.pop for b in rows], dtype=np.float64),
        [b.tract_id for b in rows],
        PolygonLayer.of([b.parts for b in rows]),
    )


def roads(rows: Iterable[Road]) -> Roads:
    rows = [Road(*row) for row in rows]
    xy = np.array([p for r in rows for p in r.line.vertices], dtype=np.float64).reshape(-1, 2)
    classes, codes = category_codes([r.road_class for r in rows])
    offsets = run_offsets([len(r.line.vertices) for r in rows])
    return Roads(xy[:, 0].copy(), xy[:, 1].copy(), offsets, classes, codes)


def pois(rows: Iterable[Poi]) -> Pois:
    rows = [Poi(*row) for row in rows]
    xy = np.array([p.location for p in rows], dtype=np.float64).reshape(-1, 2)
    categories, codes = category_codes([p.category for p in rows])
    return Pois(xy[:, 0].copy(), xy[:, 1].copy(), categories, codes)
