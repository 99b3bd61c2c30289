"""The shape rule: two shapes are one shape when they hold the same boxes and
do not carry two different named kinds.  One table runs every public
function that takes a type-``p`` tableau on a tableau and on its
explicit-kind copy, and a guard keeps the table whole."""

from __future__ import annotations

import dataclasses
import inspect
from itertools import islice

import pytest

import prymbn
from prymbn.core import (
    InvalidInputError,
    PrymParams,
    Shape,
    Tableau,
    codimension,
    dominates,
    equivalent,
    is_prym,
    is_reflective,
    square_shape,
    staircase_shape,
)
from prymbn.dimension import enumerate_staircase_tableaux, minimal_witness
from prymbn.divisors import make_folded_chain, tableau_to_divisor
from prymbn.locus import (
    connect_path,
    enumerate_maximal_cells,
    height,
    height_descent_step,
    is_adjacent,
)
from prymbn.reflection import (
    extend_to_reflective,
    reflectify,
    reflectify_states,
    reflectify_trace,
    restrict_to_staircase,
)
from prymbn.selftest import DESCENT_START, REFLECTION_TRACE
from prymbn.strips import (
    StripTableau,
    dominating_non_repeating,
    horizontal_strip,
    is_non_repeating,
    restrict_to_strip,
    strips_admitting,
)

from helpers import square, stair

EVEN, ODD, GENERIC, SWEEP = (
    PrymParams(7, 3, 4), PrymParams(23, 8, 5), PrymParams(8, 3, 0), PrymParams(11, 4, 3)
)
CELLS = [c.tableau for c in enumerate_maximal_cells(EVEN)]
W = minimal_witness(EVEN)
SQ = extend_to_reflective(W, EVEN)
GOLDEN = stair([list(row) for row in DESCENT_START])
GOLDEN_STRIP = strips_admitting(GOLDEN, ODD)[0]
PRYM = square([list(row) for row in REFLECTION_TRACE[0]])
GEN = next(islice(enumerate_staircase_tableaux(GENERIC), 7, None))
CHAIN = make_folded_chain(7, 4)

# (name, function, arguments): the tableau arguments are copied below.
ROWS = [
    ("codimension", codimension, (CELLS[5], EVEN)),
    ("codimension", codimension, (SQ, EVEN)),
    ("dominates", dominates, (CELLS[5], W, EVEN)),
    ("dominates", dominates, (reflectify(PRYM, SWEEP), PRYM, SWEEP)),
    ("equivalent", equivalent, (CELLS[5], CELLS[6], EVEN)),
    ("equivalent", equivalent, (SQ, SQ, EVEN)),
    ("is_prym", is_prym, (SQ, EVEN)),
    ("is_prym", is_prym, (PRYM, SWEEP)),
    ("is_reflective", is_reflective, (SQ, EVEN)),
    ("is_reflective", is_reflective, (PRYM, SWEEP)),
    ("reflectify", reflectify, (PRYM, SWEEP)),
    ("reflectify_states", reflectify_states, (PRYM, SWEEP)),
    ("reflectify_trace", reflectify_trace, (PRYM, SWEEP)),
    ("restrict_to_staircase", restrict_to_staircase, (SQ, EVEN)),
    ("extend_to_reflective", extend_to_reflective, (CELLS[3], EVEN)),
    ("extend_to_reflective", extend_to_reflective, (GOLDEN, ODD)),
    ("dominating_non_repeating", dominating_non_repeating, (CELLS[3], EVEN)),
    ("dominating_non_repeating", dominating_non_repeating, (GOLDEN, ODD)),
    ("dominating_non_repeating", dominating_non_repeating, (GEN, GENERIC)),
    ("is_non_repeating", is_non_repeating, (CELLS[3], horizontal_strip(3, 4), EVEN)),
    ("is_non_repeating", is_non_repeating, (GOLDEN, GOLDEN_STRIP, ODD)),
    ("restrict_to_strip", restrict_to_strip, (CELLS[3], horizontal_strip(3, 4), EVEN)),
    ("restrict_to_strip", restrict_to_strip, (GOLDEN, GOLDEN_STRIP, ODD)),
    ("strips_admitting", strips_admitting, (CELLS[3], EVEN)),
    ("strips_admitting", strips_admitting, (GOLDEN, ODD)),
    ("connect_path", connect_path, (CELLS[-1], CELLS[3], EVEN)),
    ("connect_path", connect_path, (GOLDEN, minimal_witness(ODD), ODD)),
    ("height", height, (GOLDEN, ODD)),
    ("height_descent_step", height_descent_step, (GOLDEN, ODD)),
    ("is_adjacent", is_adjacent, (CELLS[0], CELLS[1], EVEN)),
    ("tableau_to_divisor", tableau_to_divisor, (W, CHAIN)),
    ("tableau_to_divisor", tableau_to_divisor, (SQ, CHAIN)),
]


def explicit_copy(t: Tableau) -> Tableau:
    """``t`` on an explicit-kind shape holding the same boxes."""
    return Tableau(Shape("explicit", t.shape.boxes), t.values)


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except InvalidInputError as exc:
        return ("invalid", str(exc))


def tableaux_in(obj):
    """The tableaux in a result, depth first: in lists, tuples and records."""
    if isinstance(obj, Tableau):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from tableaux_in(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            yield from tableaux_in(getattr(obj, field.name))


def copies(args):
    """Each tableau argument copied alone, then all of them at once."""
    slots = [i for i, a in enumerate(args) if isinstance(a, Tableau)]
    for chosen in [[i] for i in slots] + ([slots] if len(slots) > 1 else []):
        yield tuple(explicit_copy(a) if i in chosen else a for i, a in enumerate(args))


@pytest.mark.parametrize(
    "fn, args", [(fn, args) for _, fn, args in ROWS],
    ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(ROWS)],
)
def test_an_explicit_copy_gets_the_answer_of_the_original(fn, args):
    want = outcome(fn, *args)
    assert want[0] == "value"
    for copied in copies(args):
        got = outcome(fn, *copied)
        assert got == want
        # Every tableau returned is on the shape the original's answer uses:
        # the cached named shape, or the cached strip's.
        pairs = list(zip(tableaux_in(want[1]), tableaux_in(got[1]), strict=True))
        assert all(b.shape is a.shape for a, b in pairs)
        assert all(a.shape.kind != "explicit" or isinstance(want[1], StripTableau)
                   for a, _ in pairs)


def _takes(obj: object, annotation: str) -> bool:
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return False
    return any(p.annotation == annotation for p in params)


def test_every_public_type_p_tableau_function_is_in_the_table():
    public = {
        name for name in prymbn.__all__
        if inspect.isfunction(obj := getattr(prymbn, name))
        and _takes(obj, "Tableau") and _takes(obj, "PrymParams")
    }
    assert len(public) == 18
    assert sorted(public - {name for name, _, _ in ROWS}) == []


# T_1 and the 1x1 square both hold (1, 1) alone; their kinds keep them
# apart.  The staircase side reads them at r = 1 with the symbol 1, the
# square side at r = 0 with the symbol g = 2, which makes the square reflective.
T1, SQ0 = Tableau(staircase_shape(1), (1,)), Tableau(square_shape(0), (1,))
T1_G, SQ0_G = Tableau(staircase_shape(1), (2,)), Tableau(square_shape(0), (2,))
ONE = PrymParams(2, 1, 2)
ZERO = PrymParams(2, 0, 2)

STAIRCASE_ENTRIES = [
    ("strips_admitting", lambda t: strips_admitting(t, ONE)),
    ("extend_to_reflective", lambda t: extend_to_reflective(t, ONE)),
    ("dominating_non_repeating", lambda t: dominating_non_repeating(t, ONE)),
    ("is_adjacent", lambda t: is_adjacent(t, t, ONE)),
    ("is_adjacent", lambda t: is_adjacent(T1, t, ONE)),
    ("is_non_repeating", lambda t: is_non_repeating(t, horizontal_strip(1, 2), ONE)),
    ("height", lambda t: height(t, PrymParams(2, 1, 3))),
    ("connect_path", lambda t: connect_path(t, t, PrymParams(3, 1, 2))),
    ("dominates", lambda t: dominates(t, T1, ONE)),
    ("StripTableau", lambda t: StripTableau(horizontal_strip(1, 2), t, ONE)),
]

SQUARE_ENTRIES = [
    ("is_prym", lambda t: is_prym(t, ZERO)),
    ("is_reflective", lambda t: is_reflective(t, ZERO)),
    ("reflectify", lambda t: reflectify(t, ZERO)),
    ("reflectify_states", lambda t: reflectify_states(t, ZERO)),
    ("reflectify_trace", lambda t: reflectify_trace(t, ZERO)),
    ("restrict_to_staircase", lambda t: restrict_to_staircase(t, ZERO)),
    ("dominates", lambda t: dominates(t, SQ0_G, ZERO)),
]


@pytest.mark.parametrize(
    "entry, own, other",
    [(call, T1, SQ0) for _, call in STAIRCASE_ENTRIES]
    + [(call, SQ0_G, T1_G) for _, call in SQUARE_ENTRIES],
    ids=[f"staircase-{name}" for name, _ in STAIRCASE_ENTRIES]
    + [f"square-{name}" for name, _ in SQUARE_ENTRIES],
)
def test_t1_and_the_one_box_square_stay_apart(entry, own, other):
    entry(own)
    with pytest.raises(InvalidInputError):
        entry(other)
