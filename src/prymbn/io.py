"""JSON serialization for tableaux and chip divisors.

Tableau schema: ``{"shape": {"kind": "...", "r": ..., "boxes": [[x, y],
...]}, "entries": [[x, y, symbol], ...]}`` with boxes and entries in
canonical order (ascending anti-diagonal, then ascending x); a strip
tableau names its strip ``explicit``, or ``staircase`` when degenerate.  Divisor
schema: a list of ``{"loop": n, "pos": "p/q", "mult": m}`` records —
positions are exact arc lengths, counter-clockwise from the rightmost
vertex on loops up to the middle, clockwise from the leftmost vertex
beyond it — or ``{"loop": n, "free": true}`` markers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Any

from .core import (
    Box,
    InvalidInputError,
    Shape,
    Tableau,
    _expect,
    _is_int,
    _named_shape_fault,
    _shape_of,
    _symbol_fault,
    canonical_boxes,
    canonical_key,
    explicit_shape,
    in_named_shape,
    named_shape_boxes,
    named_shape_size,
    square_shape,
    staircase_shape,
)
from .divisors import ChipDivisor, ChipEntry

__all__ = [
    "SCHEMA_VERSION",
    "divisor_entries_from_json",
    "divisor_to_json",
    "shape_from_json",
    "shape_to_json",
    "tableau_from_json",
    "tableau_to_json",
]

SCHEMA_VERSION = 1

_KIND_ALIASES = {"triangle": "staircase"}


def shape_to_json(shape: Shape) -> dict[str, Any]:
    """The document of ``shape``; the schema holds no empty shape, so an
    empty shape has none."""
    _require(len(_expect(shape, Shape)) > 0, "a shape document needs at least one box")
    return {
        "kind": shape.kind,
        "r": shape.r,
        "boxes": [[x, y] for x, y in canonical_boxes(shape)],
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidInputError(message)


def _shape_spec(data: Any) -> tuple[str | None, Any, list[Box]]:
    """The checked kind, order and boxes list of a shape object.  Nothing is
    built: a named shape's boxes list is checked against ``r`` by arithmetic,
    so a short document never pays for a large shape."""
    _require(isinstance(data, dict), "shape must be an object")
    kind = data.get("kind")
    _require(kind is None or isinstance(kind, str), "shape kind must be a string")
    kind = _KIND_ALIASES.get(kind, kind)
    r = data.get("r")
    raw = data.get("boxes")
    boxes: list[Box] = []
    if raw is not None:
        _require(isinstance(raw, list), "shape boxes must be a list")
        for item in raw:
            if not (isinstance(item, list) and len(item) == 2 and all(map(_is_int, item))
                    and item[0] >= 1 and item[1] >= 1):
                raise InvalidInputError(
                    f"each box must be a pair of positive integers, got {item!r}"
                )
            boxes.append((item[0], item[1]))
        _require(len(set(boxes)) == len(boxes), "shape boxes contain duplicates")
    if kind == "staircase":
        _require(_is_int(r) and r >= 1, "staircase shape needs integer r >= 1")
    elif kind == "square":
        _require(_is_int(r) and r >= 0, "square shape needs integer r >= 0")
    elif kind in (None, "explicit"):
        _require(bool(boxes), "explicit shape needs a non-empty boxes list")
        if fault := _named_shape_fault("explicit", r, boxes):
            raise InvalidInputError(fault)
        return kind, r, boxes
    else:
        raise InvalidInputError(f"unknown shape kind {kind!r}")
    _require(
        not boxes or _named_shape_fault(kind, r, boxes) is None,
        f"boxes list disagrees with the {kind} shape of order {r}",
    )
    return kind, r, boxes


def _build_shape(kind: str | None, r: Any, boxes: list[Box]) -> Shape:
    if kind in (None, "explicit"):
        return explicit_shape(boxes)
    return staircase_shape(r) if kind == "staircase" else square_shape(r)


def shape_from_json(data: Any) -> Shape:
    """The shape of a shape document, the object every tableau document embeds."""
    return _build_shape(*_shape_spec(data))


def tableau_to_json(t: Tableau) -> dict[str, Any]:
    """The document of ``t``; the schema holds no empty shape, so an empty
    tableau has none."""
    shape = _shape_of(t)
    _require(len(shape) > 0, "a tableau document needs at least one box")
    return {
        "shape": shape_to_json(shape),
        "entries": [[x, y, t.at((x, y))] for x, y in canonical_boxes(shape)],
    }


MISSING_SHOWN = 10  # missing boxes named in an error; the rest are counted


def tableau_from_json(data: Any) -> Tableau:
    """The tableau of a document.  The entries are checked against the
    shape's box set, or against ``r`` for a named shape, and the shape is
    built only once they fill it."""
    _require(isinstance(data, dict), "tableau must be an object")
    _require("shape" in data and "entries" in data, "tableau needs shape and entries")
    kind, r, boxes = _shape_spec(data["shape"])
    entries = data["entries"]
    _require(isinstance(entries, list), "entries must be a list")
    if kind in (None, "explicit"):
        box_set = frozenset(boxes)
        inside, size = box_set.__contains__, len(box_set)
    else:
        inside, size = partial(in_named_shape, kind, r), named_shape_size(kind, r)
    mapping: dict[Box, int] = {}
    for item in entries:
        if not (isinstance(item, list) and len(item) == 3 and all(map(_is_int, item))):
            raise InvalidInputError(f"each entry must be [x, y, symbol], got {item!r}")
        x, y, v = item
        box = (x, y)
        if box in mapping:
            raise InvalidInputError(f"duplicate entry for box {box}")
        if not inside(box):
            raise InvalidInputError(f"entry box {box} is outside the shape")
        fault = _symbol_fault((v,))
        if fault is not None:
            raise InvalidInputError(fault)
        mapping[box] = v
    # Distinct entries inside the shape, as many as its boxes, fill it.
    if len(mapping) < size:
        order = (sorted(box_set, key=canonical_key) if kind in (None, "explicit")
                 else named_shape_boxes(kind, r))
        missing = list(islice((b for b in order if b not in mapping), MISSING_SHOWN))
        more = size - len(mapping) - len(missing)
        raise InvalidInputError(
            f"entries missing for boxes {missing}" + (f" and {more} more" if more else "")
        )
    return Tableau.from_mapping(_build_shape(kind, r, boxes), mapping)


def _entry_to_json(e: ChipEntry) -> dict[str, Any]:
    if e.free:
        return {"loop": e.loop, "free": True}
    return {"loop": e.loop, "pos": str(e.pos), "mult": e.mult}


def divisor_to_json(div: ChipDivisor) -> list[dict[str, Any]]:
    """The divisor as a flat record list; the boundary stack comes last."""
    _expect(div, ChipDivisor)
    records = [_entry_to_json(e) for e in div.entries]
    if div.stack:
        records.append(
            {"loop": div.chain.loop_count, "pos": "0", "mult": div.stack}
        )
    return records


def divisor_entries_from_json(data: Any) -> list[tuple[int, Fraction | None, int]]:
    """Parse divisor records back into (loop, position, multiplicity) rows."""
    _require(isinstance(data, list), "divisor must be a list of records")
    rows: list[tuple[int, Fraction | None, int]] = []
    for item in data:
        # Each message is built only when its check fails.
        if not isinstance(item, dict):
            raise InvalidInputError(f"divisor record must be an object: {item!r}")
        loop = item.get("loop")
        if not (_is_int(loop) and loop >= 1):
            raise InvalidInputError(f"bad loop index in {item!r}")
        if item.get("free"):
            rows.append((loop, None, 0))
            continue
        if "pos" not in item:
            raise InvalidInputError(f"record needs pos or free: {item!r}")
        pos = item["pos"]
        try:
            pos = Fraction(pos) if isinstance(pos, (str, float)) or _is_int(pos) else None
        except (ValueError, ZeroDivisionError, OverflowError):
            pos = None
        if pos is None:
            raise InvalidInputError(f"bad position in {item!r}")
        mult = item.get("mult", 1)
        if not (_is_int(mult) and mult >= 1):
            raise InvalidInputError(f"bad multiplicity in {item!r}")
        rows.append((loop, pos, mult))
    return rows
