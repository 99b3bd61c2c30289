"""Tables of bad library arguments, each of which must end as
``InvalidInputError``, with guards that every public entry point taking an
order or a torsion (a parameter named ``r``, ``k`` or ``n``), and every one
taking a tableau, is in a table."""

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
    codimension,
    diag_class,
    dominates,
    equivalent,
    explicit_shape,
    generic_regime,
    is_displacement,
    is_prym,
    is_reflective,
    is_tableau,
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
    minimal_witness,
)
from prymbn.divisors import (
    FoldedChain,
    cell_dimension,
    loop_torsion,
    make_folded_chain,
    tableau_to_divisor,
)
from prymbn.io import tableau_to_json
from prymbn.locus import (
    connect_path,
    cycle_out,
    cycle_out_trace,
    height,
    height_descent_step,
    is_adjacent,
    standard_rank,
    swap_in_for,
    swap_into,
)
from prymbn.reflection import (
    extend_to_reflective,
    loose_boxes,
    reflectify,
    reflectify_states,
    reflectify_trace,
    restrict_to_staircase,
    upward_displacement,
)
from prymbn.strips import (
    StripShape,
    dominating_non_repeating,
    effective_width,
    horizontal_strip,
    is_non_repeating,
    restrict_to_strip,
    strips_admitting,
)

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


# Every public function taking a tableau refuses anything but a Tableau
# before it reads a shape; each of these raised AttributeError before.
W = PrymParams(7, 3, 4)
ODD = PrymParams(7, 3, 3)
CHAIN = make_folded_chain(7, 4)


def _tableau_entry_points():
    """The public functions and their calls on a stand-in ``x`` for a
    tableau, with every other tableau argument valid."""
    w, sq = minimal_witness(W), extend_to_reflective(minimal_witness(W), W)
    mu = horizontal_strip(3, 4)
    return [
        ("codimension", lambda x: codimension(x, W)),
        ("cell_dimension", lambda x: cell_dimension(x, W)),
        ("dominates", lambda x: dominates(x, w, W)),
        ("dominates", lambda x: dominates(sq, x, W)),
        ("equivalent", lambda x: equivalent(x, w, W)),
        ("equivalent", lambda x: equivalent(w, x, W)),
        ("is_prym", lambda x: is_prym(x, W)),
        ("is_reflective", lambda x: is_reflective(x, W)),
        ("dominating_non_repeating", lambda x: dominating_non_repeating(x, W)),
        ("is_non_repeating", lambda x: is_non_repeating(x, mu, W)),
        ("strips_admitting", lambda x: strips_admitting(x, W)),
        ("connect_path", lambda x: connect_path(x, w, W)),
        ("connect_path", lambda x: connect_path(w, x, W)),
        ("height", lambda x: height(x, ODD)),
        ("height_descent_step", lambda x: height_descent_step(x, ODD)),
        ("is_adjacent", lambda x: is_adjacent(x, w, W)),
        ("is_adjacent", lambda x: is_adjacent(w, x, W)),
        ("extend_to_reflective", lambda x: extend_to_reflective(x, W)),
        ("reflectify", lambda x: reflectify(x, W)),
        ("reflectify_states", lambda x: reflectify_states(x, W)),
        ("reflectify_trace", lambda x: reflectify_trace(x, W)),
        ("restrict_to_staircase", lambda x: restrict_to_staircase(x, W)),
        ("tableau_to_divisor", lambda x: tableau_to_divisor(x, CHAIN)),
        # Rows added after the table was first written, so the ids above
        # stay as they were.
        ("is_tableau", lambda x: is_tableau(x)),
        ("is_displacement", lambda x: is_displacement(x, 4)),
        ("class_symbol_sets", lambda x: class_symbol_sets(x, 4)),
        ("restrict_to_strip", lambda x: restrict_to_strip(x, mu, W)),
        ("swap_into", lambda x: swap_into(x, 5, (1, 1))),
        ("swap_in_for", lambda x: swap_in_for(x, 5, 1)),
        ("cycle_out", lambda x: cycle_out(x, 1, 5)),
        ("cycle_out_trace", lambda x: cycle_out_trace(x, 1, 5)),
        ("standard_rank", lambda x: standard_rank(x)),
        ("tableau_to_json", lambda x: tableau_to_json(x)),
    ]


ENTRY_POINTS = _tableau_entry_points()
NOT_TABLEAUX = [None, "x", minimal_witness(W).values]


@pytest.mark.parametrize("bad", NOT_TABLEAUX, ids=["None", "str", "values"])
@pytest.mark.parametrize(
    "call", [c for _, c in ENTRY_POINTS], ids=[f"{n}-{i}" for i, (n, _) in enumerate(ENTRY_POINTS)]
)
def test_anything_but_a_tableau_ends_as_invalid_input(call, bad):
    with pytest.raises(InvalidInputError, match="^expected a Tableau, got "):
        call(bad)


def _takes_a_tableau(obj: object) -> bool:
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return False
    return any(p.annotation == "Tableau" for p in params)


def test_every_public_tableau_entry_point_refuses_a_non_tableau_or_is_named():
    public = {name for name in prymbn.__all__
              if inspect.isfunction(getattr(prymbn, name)) and _takes_a_tableau(getattr(prymbn, name))}
    assert len(public) == 28
    assert sorted(public - {name for name, _ in ENTRY_POINTS}) == []
    assert len({name for name, _ in ENTRY_POINTS}) == 29
