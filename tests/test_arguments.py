"""Tables of bad library arguments, each of which must end as
``InvalidInputError``, with guards that every public entry point taking an
order or a torsion (a parameter named ``r``, ``k`` or ``n``), every one
taking a tableau and every one taking a type ``p`` is in a table.

A row is ``(name, number, call)`` and its test id ``name-number``; the
number is unique among the rows of its name (rows written while ids were
positional keep their old position), so deleting a row renames no other
test."""

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
    max_cell_count,
    route_counts,
)
from prymbn.dimension import (
    brute_min_codim,
    class_chain_lengths,
    enumerate_staircase_tableaux,
    enumerate_staircase_values,
    expected_codim,
    min_codim_staircase,
    minimal_witness,
    pbn_dimension,
)
from prymbn.divisors import (
    FoldedChain,
    loop_torsion,
    make_folded_chain,
    tableau_to_divisor,
)
from prymbn.io import divisor_to_json, shape_to_json, tableau_to_json
from prymbn.locus import (
    average_intersections,
    betti_closed_form,
    betti_number,
    build_intersection_graph,
    connect_path,
    cycle_out,
    cycle_out_trace,
    enumerate_maximal_cells,
    graph_to_dot,
    height,
    height_descent_step,
    is_adjacent,
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
    cell_strips,
    dominating_non_repeating,
    effective_width,
    extend_strip_tableau,
    enumerate_strip_tableaux,
    enumerate_strips,
    horizontal_strip,
    is_non_repeating,
    restrict_to_strip,
    strips_admitting,
)

from helpers import row_ids, stair

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
    ("effective_width", 0, lambda: effective_width(-3, 2)),
    ("applicable_routes", 1, lambda: applicable_routes(-2, 2)),
    ("class_symbol_sets", 2, lambda: class_symbol_sets(T, 1)),
    ("class_symbol_sets", 3, lambda: class_symbol_sets(T, -2)),
    ("class_chain_lengths", 4, lambda: class_chain_lengths(3, 1)),
    ("diag_class", 5, lambda: diag_class((1, 2), 1)),
    ("staircase_shape", 6, lambda: staircase_shape(2.5)),
    ("staircase_shape", 7, lambda: staircase_shape("3")),
    ("square_shape", 8, lambda: square_shape(1.5)),
    ("square_shape", 9, lambda: square_shape(True)),
    ("ShapeIndex.classes", 10, lambda: staircase_shape(3).index.classes(1)),
    ("ShapeIndex.classes", 11, lambda: _classes_after_a_hit(2.0)),
    ("ShapeIndex.classes", 12, lambda: _classes_after_a_hit(True)),
    ("generic_regime", 13, lambda: generic_regime(3, 1)),
    ("min_codim_staircase", 14, lambda: min_codim_staircase(3, 2, 2.5)),
    ("enumerate_staircase_values", 15, lambda: list(enumerate_staircase_values(3, 2, 2.5))),
    ("swap_into", 16,
     lambda: swap_into(Tableau(explicit_shape([(1, 1), (3, 3)]), (1, 2)), 5, (1, 1))),
    ("make_folded_chain", 17, lambda: make_folded_chain(3, 3, [(1, "x")] * 3)),
    ("loop_torsion", 18, lambda: loop_torsion(1, "a")),
    ("hook_length_syt_count", 19, lambda: hook_length_syt_count(5)),
    ("Tableau.from_rows", 20, lambda: Tableau.from_rows(5)),
    ("FoldedChain", 21, lambda: FoldedChain(2, "2", ARCS)),
    ("Shape", 22, lambda: Shape("square", frozenset({(1, 1)}), -1)),
]

# Calls that were refused already; listed so that every entry point taking
# an order or a torsion is pinned by at least one row.
HELD = [
    ("PrymParams", 23, lambda: PrymParams(5, -1, 2)),
    ("is_displacement", 24, lambda: is_displacement(T, 1)),
    ("cardinality", 25, lambda: cardinality(-2, 2, "brute")),
    ("count_brute", 26, lambda: count_brute(3, 2.0)),
    ("count_even_determinant", 27, lambda: count_even_determinant(3, 1)),
    ("count_generic", 28, lambda: count_generic(0)),
    ("count_lattice_paths", 29, lambda: count_lattice_paths(-1, 4)),
    ("expected_codim", 30, lambda: expected_codim(-1, 0)),
    ("horizontal_strip", 31, lambda: horizontal_strip(3, True)),
    ("loose_boxes", 32, lambda: loose_boxes([(1, 1)], None, 1)),
    ("upward_displacement", 33, lambda: upward_displacement([(1, 1)], [0], -2)),
    ("StripShape", 34, lambda: StripShape(3, -1, "EEEE")),
]

# Rows added after the table was first written.  All but the third returned
# a value or raised another exception before: FoldedChain checked no pairs,
# the brute route counted at r = 0, the determinant counted 0 at C(4, 4) = 8
# with a negative widening and took a bool for 1, cycling out compared a str
# with an int, and the shape and divisor writers raised TypeError and
# AttributeError on None.
MENDED_LATER = [
    ("FoldedChain", 35, lambda: FoldedChain(2, 2, 5)),
    ("FoldedChain", 36, lambda: FoldedChain(2, 2, ((1, 1), 5))),
    ("FoldedChain", 37, lambda: FoldedChain(2, 2, ((1, "x"), (1, 1)))),
    ("cardinality", 38, lambda: cardinality(0, 2, "brute")),
    ("count_brute", 39, lambda: count_brute(0, 0)),
    ("route_counts", 40, lambda: route_counts(0, 0)),
    ("count_even_determinant", 41, lambda: count_even_determinant(4, 4, widen=-1)),
    ("count_even_determinant", 42, lambda: count_even_determinant(4, 4, widen="x")),
    ("count_even_determinant", 43, lambda: count_even_determinant(4, 4, widen=True)),
    ("cycle_out", 44, lambda: cycle_out(T, 1, "x")),
    ("cycle_out_trace", 45, lambda: cycle_out_trace(T, 1, "x")),
    ("shape_to_json", 46, lambda: shape_to_json(None)),
    ("divisor_to_json", 47, lambda: divisor_to_json(None)),
]

TABLE = MENDED + HELD + MENDED_LATER


@pytest.mark.parametrize("call", [c for *_, c in TABLE], ids=row_ids(TABLE))
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
    assert len(functions) == 15
    assert sorted(set(public) - {name for name, *_ in TABLE}) == []


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
        ("codimension", 0, lambda x: codimension(x, W)),
        ("dominates", 1, lambda x: dominates(x, w, W)),
        ("dominates", 2, lambda x: dominates(sq, x, W)),
        ("equivalent", 3, lambda x: equivalent(x, w, W)),
        ("equivalent", 4, lambda x: equivalent(w, x, W)),
        ("is_prym", 5, lambda x: is_prym(x, W)),
        ("is_reflective", 6, lambda x: is_reflective(x, W)),
        ("dominating_non_repeating", 7, lambda x: dominating_non_repeating(x, W)),
        ("is_non_repeating", 8, lambda x: is_non_repeating(x, mu, W)),
        ("strips_admitting", 9, lambda x: strips_admitting(x, W)),
        ("connect_path", 10, lambda x: connect_path(x, w, W)),
        ("connect_path", 11, lambda x: connect_path(w, x, W)),
        ("height", 12, lambda x: height(x, ODD)),
        ("height_descent_step", 13, lambda x: height_descent_step(x, ODD)),
        ("is_adjacent", 14, lambda x: is_adjacent(x, w, W)),
        ("is_adjacent", 15, lambda x: is_adjacent(w, x, W)),
        ("extend_to_reflective", 16, lambda x: extend_to_reflective(x, W)),
        ("reflectify", 17, lambda x: reflectify(x, W)),
        ("reflectify_states", 18, lambda x: reflectify_states(x, W)),
        ("reflectify_trace", 19, lambda x: reflectify_trace(x, W)),
        ("restrict_to_staircase", 20, lambda x: restrict_to_staircase(x, W)),
        ("tableau_to_divisor", 21, lambda x: tableau_to_divisor(x, CHAIN)),
        # Rows added after the table was first written.
        ("is_tableau", 22, lambda x: is_tableau(x)),
        ("is_displacement", 23, lambda x: is_displacement(x, 4)),
        ("class_symbol_sets", 24, lambda x: class_symbol_sets(x, 4)),
        ("restrict_to_strip", 25, lambda x: restrict_to_strip(x, mu, W)),
        ("swap_into", 26, lambda x: swap_into(x, 5, (1, 1))),
        ("swap_in_for", 27, lambda x: swap_in_for(x, 5, 1)),
        ("cycle_out", 28, lambda x: cycle_out(x, 1, 5)),
        ("cycle_out_trace", 29, lambda x: cycle_out_trace(x, 1, 5)),
        ("tableau_to_json", 30, lambda x: tableau_to_json(x)),
    ]


ENTRY_POINTS = _tableau_entry_points()
NOT_TABLEAUX = [None, "x", minimal_witness(W).values]


@pytest.mark.parametrize("bad", NOT_TABLEAUX, ids=["None", "str", "values"])
@pytest.mark.parametrize("call", [c for *_, c in ENTRY_POINTS], ids=row_ids(ENTRY_POINTS))
def test_anything_but_a_tableau_ends_as_invalid_input(call, bad):
    with pytest.raises(InvalidInputError, match="^expected a Tableau, got "):
        call(bad)


def _public_functions_taking(annotation: str) -> set[str]:
    """The public functions with a parameter annotated ``annotation``."""
    out = set()
    for name in prymbn.__all__:
        obj = getattr(prymbn, name)
        if inspect.isfunction(obj) and any(
            p.annotation == annotation for p in inspect.signature(obj).parameters.values()
        ):
            out.add(name)
    return out


def test_every_public_tableau_entry_point_refuses_a_non_tableau_or_is_named():
    public = _public_functions_taking("Tableau")
    assert len(public) == 26
    assert sorted(public - {name for name, *_ in ENTRY_POINTS}) == []
    assert len({name for name, *_ in ENTRY_POINTS}) == 27


# Every public function taking a type ``p`` refuses anything but a
# PrymParams where it first reads ``p``.  Each raised AttributeError before,
# but restrict_to_strip, which StripTableau refused in its own words.
def _params_entry_points():
    """The public functions and their calls on a stand-in ``x`` for a type,
    with every tableau or strip argument valid for ``W``."""
    w, mu = minimal_witness(W), horizontal_strip(3, 4)
    sq = extend_to_reflective(w, W)
    return [
        ("codimension", 0, lambda x: codimension(w, x)),
        ("dominates", 0, lambda x: dominates(w, w, x)),
        ("equivalent", 0, lambda x: equivalent(w, w, x)),
        ("is_prym", 0, lambda x: is_prym(sq, x)),
        ("is_reflective", 0, lambda x: is_reflective(sq, x)),
        ("max_cell_count", 0, lambda x: max_cell_count(x)),
        ("max_cell_count", 1, lambda x: max_cell_count(x, [1, 2, 3])),
        ("brute_min_codim", 0, lambda x: brute_min_codim(x)),
        ("enumerate_staircase_tableaux", 0, lambda x: list(enumerate_staircase_tableaux(x))),
        ("minimal_witness", 0, lambda x: minimal_witness(x)),
        ("pbn_dimension", 0, lambda x: pbn_dimension(x)),
        ("betti_closed_form", 0, lambda x: betti_closed_form(x)),
        ("build_intersection_graph", 0, lambda x: build_intersection_graph(x)),
        ("connect_path", 0, lambda x: connect_path(w, w, x)),
        ("enumerate_maximal_cells", 0, lambda x: enumerate_maximal_cells(x)),
        ("enumerate_maximal_cells", 1, lambda x: enumerate_maximal_cells(x, [1, 2, 3])),
        ("height", 0, lambda x: height(w, x)),
        ("height_descent_step", 0, lambda x: height_descent_step(w, x)),
        ("is_adjacent", 0, lambda x: is_adjacent(w, w, x)),
        ("extend_to_reflective", 0, lambda x: extend_to_reflective(w, x)),
        ("reflectify", 0, lambda x: reflectify(sq, x)),
        ("reflectify_states", 0, lambda x: reflectify_states(sq, x)),
        ("reflectify_trace", 0, lambda x: reflectify_trace(sq, x)),
        ("restrict_to_staircase", 0, lambda x: restrict_to_staircase(sq, x)),
        ("cell_strips", 0, lambda x: cell_strips(x)),
        ("dominating_non_repeating", 0, lambda x: dominating_non_repeating(w, x)),
        ("enumerate_strip_tableaux", 0, lambda x: list(enumerate_strip_tableaux(x))),
        ("enumerate_strip_tableaux", 1, lambda x: list(enumerate_strip_tableaux(x, [1, 2, 3]))),
        ("enumerate_strips", 0, lambda x: enumerate_strips(x)),
        ("is_non_repeating", 0, lambda x: is_non_repeating(w, mu, x)),
        ("restrict_to_strip", 0, lambda x: restrict_to_strip(w, mu, x)),
        ("strips_admitting", 0, lambda x: strips_admitting(w, x)),
    ]


PARAMS_ENTRY_POINTS = _params_entry_points()


@pytest.mark.parametrize("bad", [None, (7, 3, 4)], ids=["None", "tuple"])
@pytest.mark.parametrize(
    "call", [c for *_, c in PARAMS_ENTRY_POINTS], ids=row_ids(PARAMS_ENTRY_POINTS)
)
def test_anything_but_a_prym_params_ends_as_invalid_input(call, bad):
    with pytest.raises(InvalidInputError, match="^expected a PrymParams, got "):
        call(bad)


def test_every_public_params_entry_point_refuses_a_non_params():
    public = _public_functions_taking("PrymParams")
    assert len(public) == 29
    assert sorted(public - {name for name, *_ in PARAMS_ENTRY_POINTS}) == []


# Every public function taking a circle graph, a chain, a strip, a strip
# tableau, a divisor or a shape refuses anything else in the words of
# ``core._expect``.  The graph, chain and strip rows raised AttributeError
# before; extend_strip_tableau refused in its own words.
OBJECT_TYPES = (
    "IntersectionGraph", "FoldedChain", "StripShape", "StripTableau", "ChipDivisor", "Shape",
)


def _object_entry_points():
    """The public functions, the type each takes, and their calls on a
    stand-in ``x`` for it, with every other argument valid for ``W``."""
    w = minimal_witness(W)
    return [
        ("average_intersections", 0, "IntersectionGraph", average_intersections),
        ("betti_number", 0, "IntersectionGraph", betti_number),
        ("graph_to_dot", 0, "IntersectionGraph", graph_to_dot),
        ("tableau_to_divisor", 0, "FoldedChain", lambda x: tableau_to_divisor(w, x)),
        ("is_non_repeating", 0, "StripShape", lambda x: is_non_repeating(w, x, W)),
        ("restrict_to_strip", 0, "StripShape", lambda x: restrict_to_strip(w, x, W)),
        ("extend_strip_tableau", 0, "StripTableau", extend_strip_tableau),
        ("divisor_to_json", 0, "ChipDivisor", divisor_to_json),
        ("shape_to_json", 0, "Shape", shape_to_json),
    ]


OBJECT_ENTRY_POINTS = _object_entry_points()


@pytest.mark.parametrize("bad", [None, "x"], ids=["None", "str"])
@pytest.mark.parametrize(
    "type_name, call", [(a, c) for _, _, a, c in OBJECT_ENTRY_POINTS],
    ids=row_ids(OBJECT_ENTRY_POINTS),
)
def test_anything_but_the_annotated_type_ends_as_invalid_input(type_name, call, bad):
    with pytest.raises(InvalidInputError, match=f"^expected a {type_name}, got "):
        call(bad)


def test_every_public_entry_point_taking_a_library_object_is_in_the_table():
    public = {(name, a) for a in OBJECT_TYPES for name in _public_functions_taking(a)}
    assert len(public) == 9
    assert sorted(public - {(name, a) for name, _, a, _ in OBJECT_ENTRY_POINTS}) == []


# The public surface in full, sorted: a name added to or removed from
# ``prymbn.__all__`` is a diff here.
SURFACE = (
    "BRUTE_BOX_LIMIT", "BRUTE_SYMBOL_LIMIT", "Box", "CELL_GUARD", "ChipDivisor", "ChipEntry",
    "FoldedChain", "GraphVertex", "GuardRefused", "HeightDescent", "IntersectionGraph",
    "InvalidInputError", "InvariantError", "MaximalCell", "PrymParams", "ReflectionState",
    "SCHEMA_VERSION", "Shape", "StripShape", "StripTableau", "Tableau", "average_intersections",
    "betti_closed_form", "betti_number", "brute_min_codim", "build_intersection_graph",
    "cardinality", "cell_strips", "cli", "codimension", "connect_path", "count_brute",
    "count_even_determinant", "count_generic", "count_lattice_paths", "cycle_out",
    "cycle_out_trace", "divisor_entries_from_json", "divisor_to_json", "dominates",
    "dominating_non_repeating", "dual_symbol", "effective_width", "enumerate_maximal_cells",
    "enumerate_staircase_tableaux", "enumerate_strip_tableaux", "enumerate_strips", "equivalent",
    "expected_codim", "explicit_shape", "extend_strip_tableau", "extend_to_reflective",
    "generic_regime", "graph_to_dot", "height", "height_descent_step", "hook_length_syt_count",
    "horizontal_strip", "io", "is_adjacent", "is_displacement", "is_non_repeating", "is_prym",
    "is_reflective", "is_tableau", "loop_torsion", "loose_boxes", "make_folded_chain",
    "max_cell_count", "minimal_witness", "pbn_dimension", "reflectify", "reflectify_states",
    "reflectify_trace", "restrict_to_staircase", "restrict_to_strip", "selftest",
    "shape_from_json", "shape_to_json", "square_shape", "staircase_shape", "strips_admitting",
    "swap_in_for", "swap_into", "tableau_from_json", "tableau_to_divisor", "tableau_to_json",
    "upward_displacement",
)


def test_the_public_surface_is_pinned():
    assert tuple(sorted(prymbn.__all__)) == SURFACE
    assert all(hasattr(prymbn, name) for name in SURFACE)
