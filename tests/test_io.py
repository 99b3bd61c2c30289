"""Unit tests for the JSON schemas of shapes, tableaux, and divisors."""

from __future__ import annotations

import functools
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prymbn.core import (
    InvalidInputError,
    PrymParams,
    Shape,
    Tableau,
    canonical_boxes,
    explicit_shape,
    is_tableau,
    square_shape,
    staircase_shape,
)
from prymbn.dimension import minimal_witness, pbn_dimension
from prymbn.divisors import make_folded_chain, tableau_to_divisor
from prymbn.io import (
    SCHEMA_VERSION,
    divisor_entries_from_json,
    divisor_to_json,
    shape_from_json,
    shape_to_json,
    tableau_from_json,
    tableau_to_json,
)
from prymbn.locus import enumerate_maximal_cells
from prymbn.selftest import _grid
from prymbn.strips import enumerate_strip_tableaux

from helpers import square, stair


def test_schema_version_is_an_integer():
    assert isinstance(SCHEMA_VERSION, int) and SCHEMA_VERSION >= 1


# --------------------------------------------------------------------------
# Shapes


@pytest.mark.parametrize(
    "shape",
    [staircase_shape(3), square_shape(2), explicit_shape([(1, 1), (2, 1), (5, 7)])],
    ids=["staircase", "square", "explicit"],
)
def test_shape_round_trip(shape):
    data = shape_to_json(shape)
    assert shape_from_json(json.loads(json.dumps(data))) == shape
    assert data["boxes"] == [[x, y] for x, y in canonical_boxes(shape)]


@pytest.mark.parametrize(
    "shape", [staircase_shape(0), explicit_shape([]), Shape("explicit", frozenset())],
    ids=["T_0", "explicit_shape", "Shape"],
)
def test_shape_to_json_refuses_an_empty_shape(shape):
    # The schema holds no empty shape, so no document may be written for one.
    with pytest.raises(InvalidInputError, match="^a shape document needs at least one box$"):
        shape_to_json(shape)


@pytest.mark.parametrize("kind", ["explicit", None])
def test_an_explicit_or_kindless_shape_document_carries_no_r(kind):
    doc = {"r": 5, "boxes": [[1, 1], [2, 1]]} | ({"kind": kind} if kind else {})
    with pytest.raises(InvalidInputError, match="^an explicit shape carries no r, got 5$"):
        shape_from_json(doc)
    with pytest.raises(InvalidInputError, match="carries no r"):
        tableau_from_json({"shape": doc, "entries": [[1, 1, 1], [2, 1, 2]]})
    del doc["r"]
    for r in ({}, {"r": None}):  # an absent or null r, as shape_to_json writes it
        assert shape_from_json(doc | r) == explicit_shape([(1, 1), (2, 1)])


def test_shape_kind_alias_and_defaults():
    assert shape_from_json({"kind": "triangle", "r": 3}) == staircase_shape(3)
    assert shape_from_json({"boxes": [[1, 1], [1, 2]]}) == explicit_shape(
        [(1, 1), (1, 2)]
    )


def test_shape_from_json_validation():
    with pytest.raises(InvalidInputError, match="must be an object"):
        shape_from_json([1, 2])
    with pytest.raises(InvalidInputError, match="unknown shape kind"):
        shape_from_json({"kind": "hexagon", "r": 2})
    with pytest.raises(InvalidInputError, match="integer r >= 1"):
        shape_from_json({"kind": "staircase"})
    with pytest.raises(InvalidInputError, match="non-empty boxes"):
        shape_from_json({"kind": "explicit"})
    with pytest.raises(InvalidInputError, match="positive integers"):
        shape_from_json({"boxes": [[0, 1]]})
    with pytest.raises(InvalidInputError, match="positive integers"):
        shape_from_json({"boxes": [[1, 2, 3]]})
    with pytest.raises(InvalidInputError, match="duplicates"):
        shape_from_json({"boxes": [[1, 1], [1, 1]]})
    with pytest.raises(InvalidInputError, match="disagrees"):
        shape_from_json({"kind": "staircase", "r": 2, "boxes": [[1, 1], [9, 9]]})
    with pytest.raises(InvalidInputError, match="disagrees"):
        shape_from_json({"kind": "staircase", "r": 2, "boxes": [[1, 1], [1, 2], [2, 2]]})


def test_missing_entries_are_named_in_canonical_order():
    shape = {"boxes": [[5, 7], [2, 1], [1, 1]]}
    with pytest.raises(InvalidInputError, match=r"boxes \[\(2, 1\), \(5, 7\)\]$"):
        tableau_from_json({"shape": shape, "entries": [[1, 1, 1]]})
    with pytest.raises(InvalidInputError, match=r"boxes \[\(1, 2\), \(2, 1\)\]$"):
        tableau_from_json({"shape": {"kind": "staircase", "r": 2}, "entries": [[1, 1, 1]]})


def test_shape_from_json_refuses_a_kind_that_is_not_a_string():
    for kind in ([1], {"kind": "square"}, [], 3, True):
        with pytest.raises(InvalidInputError, match="kind must be a string"):
            shape_from_json({"kind": kind, "r": 2})


def test_named_box_sets_load_as_the_named_shape():
    stair_boxes = shape_to_json(staircase_shape(3))["boxes"]
    assert shape_from_json({"kind": "explicit", "boxes": stair_boxes}) is staircase_shape(3)
    square_boxes = shape_to_json(square_shape(2))["boxes"]
    assert shape_from_json({"boxes": square_boxes}) is square_shape(2)
    t = tableau_from_json({
        "shape": {"kind": "explicit", "boxes": square_boxes},
        "entries": [[x, y, x + y] for x, y in square_boxes],
    })
    assert t.shape is square_shape(2) and tableau_to_json(t)["shape"]["kind"] == "square"


# --------------------------------------------------------------------------
# Tableaux


def test_tableau_round_trip_canonical_order():
    t = minimal_witness(PrymParams(7, 3, 4))
    data = tableau_to_json(t)
    boxes = [(x, y) for x, y, _ in data["entries"]]
    assert boxes == list(canonical_boxes(t.shape))
    assert tableau_from_json(json.loads(json.dumps(data))) == t


def test_tableau_round_trip_repeated_symbols():
    t = stair([[3], [2, 4], [1, 2, 4]])
    assert tableau_from_json(tableau_to_json(t)) == t


def test_tableau_from_json_validation():
    shape = shape_to_json(staircase_shape(2))
    with pytest.raises(InvalidInputError, match="must be an object"):
        tableau_from_json("nope")
    with pytest.raises(InvalidInputError, match="shape and entries"):
        tableau_from_json({"shape": shape})
    with pytest.raises(InvalidInputError, match=r"\[x, y, symbol\]"):
        tableau_from_json({"shape": shape, "entries": [[1, 1]]})
    with pytest.raises(InvalidInputError, match="duplicate entry"):
        tableau_from_json(
            {"shape": shape, "entries": [[1, 1, 1], [1, 1, 2], [2, 1, 2], [1, 2, 2]]}
        )
    with pytest.raises(InvalidInputError, match="outside the shape"):
        tableau_from_json({"shape": shape, "entries": [[3, 3, 1]]})
    with pytest.raises(InvalidInputError, match="positive integers, got 0"):
        tableau_from_json({"shape": shape, "entries": [[1, 1, 0]]})
    with pytest.raises(InvalidInputError, match=r"missing for boxes \[\(2, 1\)"):
        tableau_from_json({"shape": shape, "entries": [[1, 1, 1], [1, 2, 2]]})
    # Parsing does not enforce monotonicity; that is a predicate's job.
    crooked = tableau_from_json(
        {"shape": shape, "entries": [[1, 1, 5], [2, 1, 1], [1, 2, 1]]}
    )
    assert not is_tableau(crooked)


def test_every_strip_tableau_of_the_cell_grid_round_trips():
    for r, k, gm1, _ in _grid():
        p = PrymParams(gm1 + 1, r, k)
        if (pbn_dimension(p) or -1) < 0:
            continue
        for st in enumerate_strip_tableaux(p):
            doc = tableau_to_json(st.entries)
            assert doc["shape"]["kind"] in ("explicit", "staircase")
            assert tableau_from_json(doc) == st.entries


def test_a_short_document_builds_no_named_shape():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match=r"\[\(1, 1\), .*\] and 160791 more$"):
            tableau_from_json({"shape": {"kind": "square", "r": 400}, "entries": []})
        with pytest.raises(InvalidInputError, match="outside the shape"):
            tableau_from_json({"shape": {"kind": "staircase", "r": 10**9},
                               "entries": [[1, 1, 1], [0, 1, 2]]})
        with pytest.raises(InvalidInputError, match="boxes list disagrees"):
            shape_from_json({"kind": "staircase", "r": 10**9, "boxes": [[1, 1]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_tableau_from_json_rejects_boolean_symbols():
    shape = shape_to_json(staircase_shape(2))
    with pytest.raises(InvalidInputError, match=r"\[x, y, symbol\]"):
        tableau_from_json(
            {"shape": shape, "entries": [[1, 1, True], [1, 2, 3], [2, 1, 2]]}
        )


def test_tableau_from_json_rejects_boolean_coordinates():
    shape = shape_to_json(staircase_shape(2))
    with pytest.raises(InvalidInputError, match=r"\[x, y, symbol\]"):
        tableau_from_json(
            {"shape": shape, "entries": [[True, 1, 1], [1, 2, 3], [2, 1, 2]]}
        )
    with pytest.raises(InvalidInputError, match="pair of positive integers"):
        shape_from_json({"kind": "explicit", "boxes": [[True, 1]]})


class Num(int):
    """An int subclass that is not a bool."""


def test_entries_take_int_subclass_coordinates_and_refuse_bools_anywhere():
    want = stair([[3], [1, 2]])
    plain = tableau_to_json(want)
    for i in range(3):
        for j in range(3):
            doc = json.loads(json.dumps(plain))
            if j < 2:
                doc["entries"][i][j] = Num(doc["entries"][i][j])
                assert tableau_from_json(doc) == want
            doc["entries"][i][j] = bool(doc["entries"][i][j])
            with pytest.raises(InvalidInputError, match=r"\[x, y, symbol\]"):
                tableau_from_json(doc)
    shape = shape_from_json({"kind": "explicit", "boxes": [[Num(1), 1], [1, Num(2)]]})
    assert shape.boxes == {(1, 1), (1, 2)}


def test_tableau_rejects_boolean_values():
    with pytest.raises(InvalidInputError, match="positive integers, got True"):
        Tableau(staircase_shape(1), (True,))


def test_symbols_follow_one_exact_int_rule_on_both_paths():
    # A symbol is an exact int: an int subclass is refused by the document
    # reader and by the library constructor alike, and the message names the
    # type, since the value itself looks valid.
    doc = tableau_to_json(stair([[3], [1, 2]]))
    doc["entries"][0][2] = Num(doc["entries"][0][2])
    with pytest.raises(InvalidInputError, match=r"got \d+ of type Num") as from_doc:
        tableau_from_json(doc)
    with pytest.raises(InvalidInputError, match=r"got 1 of type Num") as from_lib:
        Tableau(staircase_shape(1), (Num(1),))
    assert str(from_doc.value).split(", got")[0] == str(from_lib.value).split(", got")[0]


# --------------------------------------------------------------------------
# Divisors


def test_divisor_records_round_trip():
    chain = make_folded_chain(7, 4)
    div = tableau_to_divisor(minimal_witness(PrymParams(7, 3, 4)), chain)
    records = divisor_to_json(div)
    assert len(records) == chain.loop_count + 1  # per-loop records + the stack
    stack = records[-1]
    assert stack == {"loop": 13, "pos": "0", "mult": 5}
    free = [rec for rec in records if rec.get("free")]
    assert [rec["loop"] for rec in free] == list(div.free_loops)

    rows = divisor_entries_from_json(json.loads(json.dumps(records)))
    assert rows[-1] == (13, Fraction(0), 5)
    for rec, (loop, pos, mult) in zip(records, rows):
        assert rec["loop"] == loop
        if rec.get("free"):
            assert pos is None and mult == 0
        else:
            assert pos == Fraction(rec["pos"]) and mult == rec["mult"]


def test_divisor_records_omit_empty_stack():
    chain = make_folded_chain(2, 2)
    div = tableau_to_divisor(square([[1]]), chain)
    records = divisor_to_json(div)
    assert len(records) == chain.loop_count  # stack of g - 2 = 0 is omitted
    assert all(not rec.get("free") for rec in records)


def test_divisor_entries_from_json_validation():
    with pytest.raises(InvalidInputError, match="list of records"):
        divisor_entries_from_json({"loop": 1})
    with pytest.raises(InvalidInputError, match="must be an object"):
        divisor_entries_from_json(["x"])
    with pytest.raises(InvalidInputError, match="bad loop index"):
        divisor_entries_from_json([{"loop": 0, "pos": "1"}])
    with pytest.raises(InvalidInputError, match="pos or free"):
        divisor_entries_from_json([{"loop": 1}])
    rows = divisor_entries_from_json([{"loop": 2, "pos": "3/4"}])
    assert rows == [(2, Fraction(3, 4), 1)]


def test_divisor_entries_from_json_rejects_a_malformed_position():
    for pos in ("x", "1/0", None, [1], True):
        with pytest.raises(InvalidInputError, match="bad position"):
            divisor_entries_from_json([{"loop": 2, "pos": pos}])


def test_a_valid_divisor_document_formats_no_record():
    # Each refusal names its record, but only a failed check may build it.
    reprs = []

    class Record(dict):
        def __repr__(self):
            reprs.append(self)
            return dict.__repr__(self)

    div = tableau_to_divisor(minimal_witness(PrymParams(7, 3, 4)), make_folded_chain(7, 4))
    records = [Record(rec) for rec in divisor_to_json(div)]
    assert any(rec.get("free") for rec in records) and not all(rec.get("free") for rec in records)
    rows = divisor_entries_from_json(records)
    assert len(rows) == len(records) and reprs == []
    with pytest.raises(InvalidInputError, match="bad multiplicity"):
        divisor_entries_from_json([Record(loop=2, pos="1", mult=0)])
    assert len(reprs) == 1


def test_divisor_entries_from_json_rejects_a_non_integer_multiplicity():
    for mult in ("x", 1.5, "2", True, 0):
        with pytest.raises(InvalidInputError, match="bad multiplicity"):
            divisor_entries_from_json([{"loop": 2, "pos": "1", "mult": mult}])
    rows = divisor_entries_from_json([{"loop": 2, "pos": "3/4"}])
    assert rows == [(2, Fraction(3, 4), 1)]


# --------------------------------------------------------------------------
# Contract: any JSON-like input loads or is refused, and loads round-trip

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 12), st.floats(-2, 12), st.text(max_size=3)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
small = st.integers(-1, 5)
box_lists = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=10, unique=True
)


def rarely(draw, n=4):
    """True once in ``n`` draws; the simplest draw is False."""
    return draw(st.integers(1, n)) == n


@st.composite
def shape_docs(draw, boxes):
    """A shape object over ``boxes``; now and then a key is absent or junk."""
    side = max(x for x, _ in boxes)
    doc = {
        "kind": draw(st.sampled_from(["explicit", None, "staircase", "square", "triangle",
                                      "strip"])),
        "r": draw(st.sampled_from([side, side - 1]) | small),
        "boxes": [list(b) for b in boxes],
    }
    for key in ("kind", "r", "boxes"):
        if rarely(draw):
            doc[key] = draw(json_values)
        elif rarely(draw):
            del doc[key]
    return doc


@st.composite
def tableau_docs(draw):
    """Mostly a tableau object over one box list; now and then an entry or
    a key is dropped, repeated or junk, or the whole document is any JSON."""
    if rarely(draw, 10):
        return draw(json_values)
    boxes = draw(box_lists)
    entries = [[x, y, draw(st.integers(1, 6))] for x, y in boxes]
    if rarely(draw):
        entries = draw(st.sampled_from([entries[1:], entries + entries[:1]]))
    if entries and rarely(draw):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(json_values)
    doc = {"shape": draw(shape_docs(boxes)), "entries": entries}
    if rarely(draw, 8):
        del doc[draw(st.sampled_from(["shape", "entries"]))]
    return doc


@settings(max_examples=200, deadline=None)
@given(tableau_docs())
def test_tableau_from_json_loads_or_refuses_and_round_trips(doc):
    try:
        t = tableau_from_json(doc)
    except InvalidInputError:
        return
    assert isinstance(t, Tableau)
    assert tableau_from_json(json.loads(json.dumps(tableau_to_json(t)))) == t


@settings(max_examples=200, deadline=None)
@given(box_lists.flatmap(shape_docs) | json_values)
def test_shape_from_json_loads_or_refuses_and_round_trips(doc):
    try:
        shape = shape_from_json(doc)
    except InvalidInputError:
        return
    assert isinstance(shape, Shape)
    assert shape_from_json(json.loads(json.dumps(shape_to_json(shape)))) == shape


# --------------------------------------------------------------------------
# Contract: every writer's document reads back to what was written

library_shapes = st.one_of(
    st.integers(0, 4).map(staircase_shape),
    st.integers(0, 3).map(square_shape),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=8).map(explicit_shape),
)
DIVISOR_TYPES = ((7, 3, 4), (5, 3, 2), (5, 2, 3), (4, 1, 2))


@functools.cache
def divisor_cells(g, r, k):
    return [cell.tableau for cell in enumerate_maximal_cells(PrymParams(g, r, k))]


@settings(max_examples=200, deadline=None)
@given(library_shapes, st.data())
def test_every_writer_reads_back_or_refuses_to_write(shape, data):
    if not shape.boxes:
        for write, obj in ((shape_to_json, shape), (tableau_to_json, Tableau(shape, ()))):
            with pytest.raises(InvalidInputError, match="needs at least one box"):
                write(obj)
        return
    assert shape_from_json(json.loads(json.dumps(shape_to_json(shape)))) == shape
    values = data.draw(st.lists(st.integers(1, 9), min_size=len(shape), max_size=len(shape)))
    t = Tableau(shape, tuple(values))
    assert tableau_from_json(json.loads(json.dumps(tableau_to_json(t)))) == t

    g, r, k = data.draw(st.sampled_from(DIVISOR_TYPES))
    cell = data.draw(st.sampled_from(divisor_cells(g, r, k)))
    div = tableau_to_divisor(cell, make_folded_chain(g, k))
    rows = divisor_entries_from_json(json.loads(json.dumps(divisor_to_json(div))))
    want = [(e.loop, e.pos, e.mult) if not e.free else (e.loop, None, 0) for e in div.entries]
    if div.stack:
        want.append((div.chain.loop_count, Fraction(0), div.stack))
    assert rows == want
