"""One table of bad library arguments, each of which must end as
``InvalidInputError``, and a guard that every public entry point taking an
order or a torsion (a parameter named ``r``, ``k`` or ``n``) is in it."""

from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

import prymbn
from prymbn.core import (
    InvalidInputError,
    PrymParams,
    Shape,
    Tableau,
    class_symbol_sets,
    diag_class,
    explicit_shape,
    generic_regime,
    is_displacement,
    square_shape,
    staircase_shape,
)
from prymbn.counting import (
    applicable_routes,
    cardinality,
    count_brute,
    count_even_determinant,
    count_generic,
    count_lattice_paths,
    hook_length_syt_count,
    route_counts,
)
from prymbn.dimension import (
    class_chain_lengths,
    enumerate_staircase_values,
    expected_codim,
    min_codim_staircase,
)
from prymbn.divisors import FoldedChain, loop_torsion, make_folded_chain
from prymbn.locus import swap_into
from prymbn.reflection import loose_boxes, upward_displacement
from prymbn.strips import StripShape, effective_width, horizontal_strip

from helpers import stair

T = stair([[2], [1, 2]])
ARCS = ((Fraction(1), Fraction(1)),) * 2


def _classes_after_a_hit(k):
    """``classes(k)`` on an index whose class map at torsion 2 is cached."""
    idx = staircase_shape(3).index
    idx.classes(2)
    return idx.classes(k)

# Calls that returned a wrong value or raised another exception before the
# order and torsion rules guarded them.
MENDED = [
    ("effective_width", lambda: effective_width(-3, 2)),
    ("applicable_routes", lambda: applicable_routes(-2, 2)),
    ("class_symbol_sets", lambda: class_symbol_sets(T, 1)),
    ("class_symbol_sets", lambda: class_symbol_sets(T, -2)),
    ("class_chain_lengths", lambda: class_chain_lengths(3, 1)),
    ("diag_class", lambda: diag_class((1, 2), 1)),
    ("staircase_shape", lambda: staircase_shape(2.5)),
    ("staircase_shape", lambda: staircase_shape("3")),
    ("square_shape", lambda: square_shape(1.5)),
    ("square_shape", lambda: square_shape(True)),
    ("ShapeIndex.classes", lambda: staircase_shape(3).index.classes(1)),
    ("ShapeIndex.classes", lambda: _classes_after_a_hit(2.0)),
    ("ShapeIndex.classes", lambda: _classes_after_a_hit(True)),
    ("generic_regime", lambda: generic_regime(3, 1)),
    ("min_codim_staircase", lambda: min_codim_staircase(3, 2, 2.5)),
    ("enumerate_staircase_values", lambda: list(enumerate_staircase_values(3, 2, 2.5))),
    ("swap_into", lambda: swap_into(Tableau(explicit_shape([(1, 1), (3, 3)]), (1, 2)), 5, (1, 1))),
    ("make_folded_chain", lambda: make_folded_chain(3, 3, [(1, "x")] * 3)),
    ("loop_torsion", lambda: loop_torsion(1, "a")),
    ("hook_length_syt_count", lambda: hook_length_syt_count(5)),
    ("Tableau.from_rows", lambda: Tableau.from_rows(5)),
    ("FoldedChain", lambda: FoldedChain(2, "2", ARCS)),
    ("Shape", lambda: Shape("square", frozenset({(1, 1)}), -1)),
]

# Calls that were refused already; listed so that every entry point taking
# an order or a torsion is pinned by at least one row.
HELD = [
    ("PrymParams", lambda: PrymParams(5, -1, 2)),
    ("is_displacement", lambda: is_displacement(T, 1)),
    ("cardinality", lambda: cardinality(-2, 2, "brute")),
    ("count_brute", lambda: count_brute(3, 2.0)),
    ("count_even_determinant", lambda: count_even_determinant(3, 1)),
    ("count_generic", lambda: count_generic(0)),
    ("count_lattice_paths", lambda: count_lattice_paths(-1, 4)),
    ("expected_codim", lambda: expected_codim(-1, 0)),
    ("horizontal_strip", lambda: horizontal_strip(3, True)),
    ("loose_boxes", lambda: loose_boxes([(1, 1)], None, 1)),
    ("upward_displacement", lambda: upward_displacement([(1, 1)], [0], -2)),
    ("StripShape", lambda: StripShape(3, -1, "EEEE")),
]

# Rows added after the table was first written, appended so the ids of the
# rows above stay as they were.  All but the third returned a value or raised
# another exception before: FoldedChain checked no pairs, and the brute route
# counted at r = 0.
MENDED_LATER = [
    ("FoldedChain", lambda: FoldedChain(2, 2, 5)),
    ("FoldedChain", lambda: FoldedChain(2, 2, ((1, 1), 5))),
    ("FoldedChain", lambda: FoldedChain(2, 2, ((1, "x"), (1, 1)))),
    ("cardinality", lambda: cardinality(0, 2, "brute")),
    ("count_brute", lambda: count_brute(0, 0)),
    ("route_counts", lambda: route_counts(0, 0)),
]

TABLE = MENDED + HELD + MENDED_LATER


@pytest.mark.parametrize(
    "call", [c for _, c in TABLE], ids=[f"{name}-{i}" for i, (name, _) in enumerate(TABLE)]
)
def test_a_bad_argument_ends_as_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


# Every counting route refuses a negative order by the domain's bound r >= 1,
# not by the order rule's "non-negative", which 0 fails too.
ROUTES = [
    ("applicable_routes", applicable_routes),
    ("cardinality", cardinality),
    ("cardinality-brute", lambda r, k: cardinality(r, k, "brute")),
    ("count_generic", lambda r, k: count_generic(r)),
    ("count_even_determinant", count_even_determinant),
    ("count_lattice_paths", count_lattice_paths),
    ("count_brute", count_brute),
    ("route_counts", route_counts),
]


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("call", [c for _, c in ROUTES], ids=[name for name, _ in ROUTES])
def test_every_counting_route_refuses_a_negative_order_by_its_own_bound(call, k):
    with pytest.raises(InvalidInputError, match="^r must be at least 1, got -1$"):
        call(-1, k)


def test_folded_chain_stores_its_lengths_as_fractions():
    chain = FoldedChain(2, 2, ((1, 1), ("1/2", Fraction(1, 2))))
    assert chain.lengths == ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 2)))
    assert all(type(x) is Fraction for pair in chain.lengths for x in pair)
    assert chain == make_folded_chain(2, 2, [(1, 1), ("1/2", "1/2")])


# A result record, built by ``dimension_report`` from checked values.
RECORDS = {"DimensionReport"}


def _parameters(obj: object) -> set[str]:
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):  # no signature: a constant or a type alias
        return set()


def test_every_public_order_or_torsion_entry_point_is_in_the_table():
    public = [
        name for name in prymbn.__all__ if {"r", "k", "n"} & _parameters(getattr(prymbn, name))
    ]
    functions = [name for name in public if not inspect.isclass(getattr(prymbn, name))]
    assert len(functions) >= 15
    assert sorted(set(public) - RECORDS - {name for name, _ in TABLE}) == []
