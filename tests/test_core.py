"""Unit tests for shapes, tableaux, and the defining predicates."""

from __future__ import annotations

import gc
import json
import pickle
import random
import time
import weakref
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from prymbn.core import (
    CLASS_CACHE,
    SHAPE_CACHE,
    InvalidInputError,
    PrymParams,
    Shape,
    ShapeIndex,
    Tableau,
    anti_diagonal,
    canonical_boxes,
    canonical_key,
    class_symbol_sets,
    codimension,
    diag_class,
    diag_offset,
    dominance_signature,
    dominates,
    dual_symbol,
    equivalent,
    explicit_shape,
    generic_regime,
    in_named_shape,
    is_displacement,
    is_prym,
    is_reflective,
    is_tableau,
    named_shape_boxes,
    named_shape_size,
    reflect_box,
    shape_family,
    square_shape,
    staircase_shape,
    _prym_signature,
    _reflective_signature,
    _same_shape,
    _signature_dominates,
)
from prymbn.dimension import enumerate_staircase_tableaux, expected_codim
from prymbn.divisors import make_folded_chain, tableau_to_divisor
from prymbn.io import tableau_from_json, tableau_to_json
from prymbn.reflection import extend_to_reflective, loose_boxes
from prymbn.strips import (
    StripShape,
    dominating_non_repeating,
    effective_width,
    enumerate_strip_tableaux,
    extend_strip_tableau,
    strips_admitting,
)

from helpers import square, stair

# --------------------------------------------------------------------------
# Boxes and shapes


def test_box_helpers():
    assert anti_diagonal((3, 2)) == 4
    assert diag_offset((3, 2)) == 1
    assert diag_class((3, 2), 0) == 1
    assert diag_class((1, 4), 2) == 1
    assert diag_class((1, 4), 3) == 0


def test_generic_regime_boundaries():
    assert generic_regime(3, 0)
    assert generic_regime(3, 5)  # 2r - 1
    assert not generic_regime(3, 4)  # 2r - 2


def test_staircase_boxes_counts():
    assert staircase_shape(0).boxes == frozenset()
    assert staircase_shape(1).boxes == frozenset({(1, 1)})
    assert len(staircase_shape(4).boxes) == 10


def test_shape_constructors():
    sq = square_shape(2)
    assert sq.kind == "square" and len(sq) == 9 and (3, 3) in sq
    tri = staircase_shape(3)
    assert tri.kind == "staircase" and len(tri) == 6 and (2, 3) not in tri
    ex = explicit_shape([(1, 1), (2, 1)])
    assert ex.kind == "explicit" and ex.r is None


def test_one_box_set_has_one_shape():
    assert explicit_shape(staircase_shape(3).boxes) is staircase_shape(3)
    assert explicit_shape(square_shape(2).boxes) is square_shape(2)
    assert explicit_shape([(1, 1)]) is staircase_shape(1)  # staircase first: T_1
    assert shape_family(explicit_shape(square_shape(3).boxes)) == ("square", 3)
    # The size matches T_2 and the 2x2 square, the boxes match neither.
    assert explicit_shape([(1, 1), (2, 1), (2, 2)]).kind == "explicit"
    assert explicit_shape([(1, 1), (2, 1), (1, 2), (3, 3)]).kind == "explicit"
    assert explicit_shape([(10**9, 1)]).kind == "explicit"  # builds no named shape
    assert explicit_shape([]).kind == "explicit"
    with pytest.raises(InvalidInputError):
        shape_family(explicit_shape([(1, 1), (2, 1)]))


def test_named_shapes_sit_in_fixed_caches():
    for make in (square_shape, staircase_shape):
        assert make.cache_info().maxsize == SHAPE_CACHE
        for r in range(3 * SHAPE_CACHE):
            assert make(r).r == r  # no index is built
        assert make.cache_info().currsize == SHAPE_CACHE


def test_class_maps_sit_in_a_fixed_cache():
    idx = staircase_shape(5).index
    for k in [0, *range(2, 3 * CLASS_CACHE)]:
        assert idx.classes(k) == tuple(diag_class(b, k) for b in idx.boxes)
        assert len(idx._classes) <= CLASS_CACHE
    assert len(idx._classes) == CLASS_CACHE
    # An evicted map is built again, and right.
    assert 0 not in idx._classes
    assert idx.classes(0) == tuple(diag_class(b, 0) for b in idx.boxes)


def test_named_shapes_read_off_r_match_the_built_shapes():
    for kind, build in (("staircase", staircase_shape), ("square", square_shape)):
        for r in range(6):
            shape = build(r)
            assert named_shape_size(kind, r) == len(shape)
            assert tuple(named_shape_boxes(kind, r)) == canonical_boxes(shape)
            for x in range(-1, r + 4):
                for y in range(-1, r + 4):
                    assert in_named_shape(kind, r, (x, y)) == ((x, y) in shape)


def test_shape_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        square_shape(-1)
    with pytest.raises(InvalidInputError):
        staircase_shape(-2)
    with pytest.raises(InvalidInputError):
        explicit_shape([(0, 1)])


@pytest.mark.parametrize("kind,boxes,r,message", [
    ("staircase", staircase_shape(3).boxes, 5, "the boxes are not the staircase shape of order 5"),
    ("square", frozenset({(1, 1), (2, 2)}), 7, "the boxes are not the square shape of order 7"),
    ("staircase", staircase_shape(3).boxes, None,
     "a staircase shape needs a non-negative integer r, got None"),
    ("explicit", staircase_shape(3).boxes, 3, "an explicit shape carries no r, got 3"),
    ("square", frozenset({(1, 1)}), True,
     "a square shape needs a non-negative integer r, got True"),
    # Checked by arithmetic: a huge order builds nothing.
    ("staircase", frozenset({(1, 1)}), 10**9,
     "the boxes are not the staircase shape of order 1000000000"),
], ids=["T3-as-T5", "pair-as-square", "no-r", "explicit-with-r", "bool-r", "huge-r"])
def test_a_named_shape_holds_exactly_the_boxes_of_its_order(kind, boxes, r, message):
    with pytest.raises(InvalidInputError) as err:
        Shape(kind, boxes, r)
    assert str(err.value) == message


def test_the_empty_staircase_is_a_named_shape():
    assert Shape("staircase", frozenset(), 0) == staircase_shape(0)
    assert shape_family(staircase_shape(0)) == ("staircase", 0)


def test_canonical_order_staircase():
    assert canonical_boxes(staircase_shape(3)) == (
        (1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1),
    )


@given(st.tuples(st.integers(1, 30), st.integers(1, 30)),
       st.tuples(st.integers(1, 30), st.integers(1, 30)))
def test_canonical_key_is_a_total_order_refining_anti_diagonals(a, b):
    if anti_diagonal(a) < anti_diagonal(b):
        assert canonical_key(a) < canonical_key(b)
    if a != b:
        assert canonical_key(a) != canonical_key(b)


@given(st.integers(0, 8), st.integers(1, 100))
def test_reflect_box_is_an_involution(r, seed):
    side = r + 1
    x, y = seed % side + 1, (seed * 7) % side + 1
    assert reflect_box(reflect_box((x, y), r), r) == (x, y)
    assert reflect_box((x, y), r) in square_shape(r)


@given(st.integers(2, 40), st.integers(1, 79))
def test_dual_symbol_is_an_involution(g, a):
    assert dual_symbol(dual_symbol(a, g), g) == a
    assert dual_symbol(g, g) == g


# --------------------------------------------------------------------------
# Tableaux


def test_from_rows_and_rows_round_trip():
    t = stair([[3], [2, 4], [1, 2, 4]])
    assert t.rows() == [[1, 2, 4], [2, 4], [3]]
    assert t.at((1, 3)) == 3
    assert t.fiber(4) == ((2, 2), (3, 1))
    assert t.symbols == frozenset({1, 2, 3, 4})


def test_from_mapping_validates_coverage():
    shape = staircase_shape(2)
    with pytest.raises(InvalidInputError, match="without an entry"):
        Tableau.from_mapping(shape, {(1, 1): 1})
    with pytest.raises(InvalidInputError, match="outside the shape"):
        Tableau.from_mapping(shape, {(1, 1): 1, (1, 2): 2, (2, 1): 2, (9, 9): 3})


def test_tableau_rejects_bad_values():
    with pytest.raises(InvalidInputError):
        Tableau(staircase_shape(1), (0,))
    with pytest.raises(InvalidInputError):
        Tableau(staircase_shape(1), (1, 2))


def test_at_outside_shape():
    t = stair([[1]])
    with pytest.raises(InvalidInputError):
        t.at((5, 5))


def test_with_values():
    t = stair([[2], [1, 3]])
    u = t.with_values({(2, 1): 4})
    assert u.at((2, 1)) == 4 and t.at((2, 1)) == 3
    with pytest.raises(InvalidInputError):
        t.with_values({(9, 9): 1})


def test_is_tableau():
    assert is_tableau(stair([[2], [1, 3]]))
    assert not is_tableau(stair([[2], [1, 1]]))  # equal along a row
    assert not is_tableau(stair([[1], [1, 2]]))  # equal along a column
    # Incomparable boxes may repeat.
    assert is_tableau(stair([[2], [1, 2]]))


# --------------------------------------------------------------------------
# Displacement, Prym, reflective


def test_is_displacement_exact_and_modular():
    t = stair([[2], [1, 2]])  # 2 at (1, 2) and (2, 1): offsets -1 and 1
    assert not is_displacement(t, 0)
    assert is_displacement(t, 2)
    assert not is_displacement(t, 3)


def test_is_displacement_requires_a_tableau():
    with pytest.raises(InvalidInputError):
        is_displacement(stair([[1], [1, 2]]), 2)
    with pytest.raises(InvalidInputError):
        is_displacement(stair([[2], [1, 3]]), 1)


def without(sets, a):
    """Class symbol sets with the symbol ``a`` taken out, empty classes dropped."""
    return {c: s - {a} for c, s in sets.items() if s - {a}}


def test_class_symbol_sets():
    t = stair([[2], [1, 2]])
    sig = class_symbol_sets(t, 2)
    assert sig == {0: frozenset({1}), 1: frozenset({2})}
    assert without(sig, 2) == {0: frozenset({1})}


def test_is_prym_and_reflective_square():
    p = PrymParams(3, 1, 2)
    t = square([[3, 5], [1, 3]])
    assert is_prym(t, p)
    assert is_reflective(t, p)
    # Prym, but the defining point symmetry fails.
    u = square([[4, 5], [3, 4]])
    assert is_prym(u, p)
    assert not is_reflective(u, p)
    # A valid tableau whose dual pair (2, 4) straddles two diagonal classes.
    w = square([[2, 4], [1, 3]])
    assert is_tableau(w)
    assert not is_prym(w, p)


def test_is_prym_validates_shape_and_range():
    p = PrymParams(3, 1, 2)
    with pytest.raises(InvalidInputError):
        is_prym(stair([[1]]), p)
    with pytest.raises(InvalidInputError):
        is_prym(square([[6, 7], [1, 6]]), p)  # symbols above 2g - 1


# --------------------------------------------------------------------------
# PrymParams


def test_params_validation():
    with pytest.raises(InvalidInputError):
        PrymParams(1, 1, 0)
    with pytest.raises(InvalidInputError):
        PrymParams(5, -1, 0)
    with pytest.raises(InvalidInputError):
        PrymParams(5, 1, 1)
    with pytest.raises(InvalidInputError):
        PrymParams(5, 1, -2)


@pytest.mark.parametrize("g, r, k", [(5.5, 2, 2), (7, 3, 4.5), ("5", 2, 2), (5, True, 2)])
def test_params_must_be_plain_integers(g, r, k):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        PrymParams(g, r, k)


def test_params_derived_quantities():
    p = PrymParams(11, 4, 3)
    assert p.l == 2 and p.eps == 1 and p.max_symbol == 21
    q = PrymParams(12, 4, 0)
    assert q.eps == 0
    with pytest.raises(InvalidInputError):
        _ = q.l


# --------------------------------------------------------------------------
# Codimension, dominance, equivalence


def test_codimension_staircase_counts_distinct_symbols():
    p = PrymParams(5, 2, 2)
    assert codimension(stair([[2], [1, 2]]), p) == 2
    assert codimension(stair([[3], [1, 2]]), p) == 3


def test_codimension_square_counts_dual_pairs_once():
    p = PrymParams(3, 1, 2)
    t = square([[3, 5], [1, 3]])  # the pair (1, 5) appears twice; g adds nothing
    assert codimension(t, p) == 1


def test_codimension_rejects_large_staircase_symbols():
    p = PrymParams(3, 2, 2)
    with pytest.raises(InvalidInputError):
        codimension(stair([[3], [1, 2]]), p)


def test_dominates_needs_common_shape():
    p = PrymParams(5, 2, 2)
    with pytest.raises(InvalidInputError):
        dominates(stair([[2], [1, 2]]), stair([[1]]), p)


def test_dominates_staircase_containment():
    p = PrymParams(5, 2, 2)
    t = stair([[2], [1, 2]])
    s = stair([[3], [1, 2]])
    assert dominates(t, t, p) and equivalent(t, t, p)
    assert dominates(t, s, p)  # s uses a superset of symbols per class
    assert not dominates(s, t, p)
    assert not equivalent(t, s, p)


def test_dominates_square_accepts_the_dual_symbol():
    p = PrymParams(3, 1, 2)
    t = square([[3, 5], [1, 3]])  # class 0 asks for {1, 5}; g on parity class 1
    s = square([[3, 4], [1, 3]])  # class 0 carries {1, 4}: 5 is matched by its dual 1
    assert dominates(t, s, p)
    assert not dominates(s, t, p)  # 4 has neither itself nor its dual 2 in t


@pytest.mark.parametrize("r,k", [(1, 0), (2, 0), (2, 2), (2, 3), (3, 2), (3, 4)])
def test_dominance_is_reflexive_on_staircase_fillings(r, k):
    p = PrymParams(r * (r + 1) // 2 + 1, r, k)
    tableaux = list(enumerate_staircase_tableaux(p))
    assert tableaux
    for t in tableaux[:: max(1, len(tableaux) // 12)]:
        assert dominates(t, t, p)
        assert equivalent(t, t, p)


# --------------------------------------------------------------------------
# The shape index against the straightforward formulas
#
# The reference predicates below re-derive every box's order and class on
# each call and compare every pair of boxes; the library answers from the
# per-shape index (cover pairs on lower sets, class tuples, folded-pair
# signatures).  Both must agree on every input, errors included.


def ref_boxes(shape):
    return tuple(sorted(shape.boxes, key=canonical_key))


def ref_is_tableau(t):
    boxes = ref_boxes(t.shape)
    for j, (xj, yj) in enumerate(boxes):
        for i in range(j):
            xi, yi = boxes[i]
            if xi <= xj and yi <= yj and not t.values[i] < t.values[j]:
                return False
    return True


def ref_is_displacement(t, k):
    if k < 0 or k == 1:
        raise InvalidInputError("bad k")
    if not ref_is_tableau(t):
        raise InvalidInputError("not a tableau")
    seen = {}
    for box, v in zip(ref_boxes(t.shape), t.values):
        c = diag_class(box, k)
        if seen.setdefault(v, c) != c:
            return False
    return True


def ref_class_symbol_sets(t, k, exclude=None):
    out = {}
    for box, v in zip(ref_boxes(t.shape), t.values):
        if v != exclude:
            out.setdefault(diag_class(box, k), set()).add(v)
    return {c: frozenset(s) for c, s in out.items()}


def ref_same_shape(a, b):
    """The shape rule as stated: the same boxes, and at most one named kind
    between the two shapes."""
    return a.boxes == b.boxes and len({a.kind, b.kind} - {"explicit"}) <= 1


def ref_check_square(t, p):
    if not ref_same_shape(t.shape, square_shape(p.r)):
        raise InvalidInputError("not the square")
    if any(v > 2 * p.g - 1 for v in t.values):
        raise InvalidInputError("symbol out of range")


def ref_is_prym(t, p):
    ref_check_square(t, p)
    if not ref_is_tableau(t):
        return False
    g = p.g
    fibers = {}
    for box, v in zip(ref_boxes(t.shape), t.values):
        fibers.setdefault(v, set()).add(diag_class(box, 2 if v == g else p.k))
    if any(len(classes) > 1 for classes in fibers.values()):
        return False
    return all(
        len(fibers.get(a, set()) | fibers.get(2 * g - a, set())) <= 1 for a in range(1, g)
    )


def ref_is_reflective(t, p):
    ref_check_square(t, p)
    value = dict(zip(ref_boxes(t.shape), t.values))
    if any(v + value[reflect_box(b, p.r)] != 2 * p.g for b, v in value.items()):
        return False
    return ref_is_prym(t, p)


def ref_dominates(t, s, p):
    if not ref_same_shape(t.shape, s.shape):
        raise InvalidInputError("different shapes")
    g = p.g
    # The pair lies on the named one of the two shapes, if either is named.
    shape = t.shape if s.shape.kind == "explicit" else s.shape
    if ref_same_shape(shape, square_shape(p.r)):
        sig_t = ref_class_symbol_sets(t, p.k, exclude=g)
        sig_s = ref_class_symbol_sets(s, p.k, exclude=g)
        for c, syms in sig_t.items():
            have = sig_s.get(c, frozenset())
            if any(a not in have and 2 * g - a not in have for a in syms):
                return False
        par_t = ref_class_symbol_sets(t, 2)
        par_s = ref_class_symbol_sets(s, 2)
        return all(
            g not in par_t.get(c, frozenset()) or g in par_s.get(c, frozenset())
            for c in (0, 1)
        )
    for u in (t, s):
        if any(v > g - 1 for v in u.values):
            raise InvalidInputError("symbol out of range")
    sig_t = ref_class_symbol_sets(t, p.k)
    sig_s = ref_class_symbol_sets(s, p.k)
    return all(syms <= sig_s.get(c, frozenset()) for c, syms in sig_t.items())


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except InvalidInputError:
        return ("invalid", None)


@st.composite
def lower_set_shapes(draw):
    rows = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)), reverse=True)
    boxes = [(x, y) for y, n in enumerate(rows, start=1) for x in range(1, n + 1)]
    return draw(st.sampled_from([explicit_shape(boxes), staircase_shape(len(rows))]))


@st.composite
def strip_shapes(draw):
    r = draw(st.integers(1, 5))
    l = draw(st.integers(0, r))
    word = "".join(draw(st.lists(st.sampled_from("EN"), min_size=r - l, max_size=r - l)))
    return StripShape(r, l, word).shape


@st.composite
def skew_shapes(draw):
    """Skew shapes lambda/mu moved off the axes: never lower sets, each row
    and column a single run, and some with two boxes lacking both a west
    and a south neighbour."""
    rows = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)), reverse=True)
    cuts = sorted(draw(st.lists(st.integers(0, 4), min_size=len(rows),
                                max_size=len(rows))), reverse=True)
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (0, 2)]))
    return explicit_shape(
        (x + dx, y + dy) for y, (n, m) in enumerate(zip(rows, cuts), start=1)
        for x in range(min(m, n - 1) + 1, n + 1)
    )


grid_boxes = st.sets(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=12
)


@st.composite
def scattered_shapes(draw):
    """Arbitrary box sets, mostly not lower sets, some left explicit-kind
    where :func:`explicit_shape` would name them."""
    boxes = frozenset(draw(grid_boxes))
    if draw(st.booleans()):
        return explicit_shape(boxes)
    return Shape("explicit", boxes)


@st.composite
def named_copies(draw):
    """Explicit-kind copies of the named box sets: the shape rule puts each
    on its named shape, and the one box ``(1, 1)`` on T_1 and the 1x1 square."""
    r = draw(st.integers(0, 3))
    named = draw(st.sampled_from([staircase_shape(r + 1), square_shape(r)]))
    return Shape("explicit", named.boxes)


any_shape = st.one_of(
    lower_set_shapes(), strip_shapes(), skew_shapes(), scattered_shapes(), named_copies()
)


def twins(shape):
    """``shape`` and the shapes holding its boxes: its explicit-kind copy and
    the shape :func:`explicit_shape` names."""
    return [shape, Shape("explicit", shape.boxes), explicit_shape(shape.boxes)]


@st.composite
def fillings(draw, shape, top):
    """Values near the anti-diagonal order, so that some fillings are tableaux."""
    noise = st.integers(0, draw(st.integers(0, 3)))
    step = draw(st.integers(0, 2))
    return Tableau(shape, tuple(
        max(1, min(top, step * (x + y - 1) + draw(noise)))
        for x, y in ref_boxes(shape)
    ))


def check_agreement(t, s, p):
    assert is_tableau(t) == ref_is_tableau(t)
    dropped = t.values[0] if t.values else None
    for k in {0, 2, 3, p.k}:
        assert outcome(is_displacement, t, k) == outcome(ref_is_displacement, t, k)
        assert class_symbol_sets(t, k) == ref_class_symbol_sets(t, k)
        assert without(class_symbol_sets(t, k), dropped) == ref_class_symbol_sets(
            t, k, dropped
        )
    assert outcome(is_prym, t, p) == outcome(ref_is_prym, t, p)
    assert outcome(dominates, t, s, p) == outcome(ref_dominates, t, s, p)
    assert outcome(dominates, s, t, p) == outcome(ref_dominates, s, t, p)
    # The signature-level forms the reflect sweep runs on: a signature
    # exactly when the predicate holds, the one dominance reads, and
    # containment of two Prym signatures is dominance.
    sigs = []
    for u in (t, s):
        assert outcome(lambda: _prym_signature(u, p) is not None) == outcome(
            ref_is_prym, u, p
        )
        assert outcome(lambda: _reflective_signature(u, p) is not None) == outcome(
            ref_is_reflective, u, p
        )
        if outcome(ref_is_prym, u, p) == ("value", True):
            sigs.append(_prym_signature(u, p))
            assert sigs[-1] == dominance_signature(u, p)
            assert _reflective_signature(u, p) in (None, sigs[-1])
    if len(sigs) == 2:
        sig_t, sig_s = sigs
        assert _signature_dominates(sig_t, sig_s) == ref_dominates(t, s, p)
        assert _signature_dominates(sig_s, sig_t) == ref_dominates(s, t, p)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_index_predicates_agree_with_the_pairwise_formulas(data):
    shape = data.draw(any_shape)
    p = PrymParams(data.draw(st.integers(2, 7)), data.draw(st.integers(0, 3)),
                   data.draw(st.sampled_from([0, 2, 3, 4, 5])))
    t = data.draw(fillings(shape, 2 * p.g + 1))
    s = data.draw(fillings(data.draw(st.sampled_from(twins(shape))), 2 * p.g + 1))
    check_agreement(t, s, p)


@st.composite
def prym_neighbours(draw):
    """A reflective square tableau and a copy with up to two slots rewritten."""
    r = draw(st.integers(1, 3))
    k = draw(st.sampled_from([0, 2, 3, 4, 5]))
    p = PrymParams(draw(st.integers(r * (r + 1) // 2 + 1, 8)), r, k)
    stairs = list(enumerate_staircase_tableaux(p))
    base = extend_to_reflective(draw(st.sampled_from(stairs[:200])), p)
    values = list(base.values)
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.integers(1, 2 * p.g - 1))
    return base, Tableau(base.shape, tuple(values)), p


@settings(max_examples=150, deadline=None)
@given(prym_neighbours())
def test_square_predicates_agree_near_prym_tableaux(case):
    base, moved, p = case
    check_agreement(base, moved, p)
    check_agreement(moved, base, p)


@pytest.mark.parametrize("rows,p", [([[3, 5], [1, 3]], PrymParams(3, 1, 2)),
                                    ([[2]], PrymParams(2, 0, 2))])
def test_tableaux_pickle_after_their_index_is_built(rows, p):
    t = square(rows)
    assert is_reflective(t, p)
    u = pickle.loads(pickle.dumps(t))
    assert u == t and is_reflective(u, p)


def test_square_predicates_stay_cheap_for_a_huge_g():
    # Nothing in the Prym checks may cost more than O(boxes) in g.
    g = 10**9
    p = PrymParams(g, 1, 2)
    t = square([[g, 2 * g - 1], [1, g]])
    start = time.perf_counter()
    assert is_prym(t, p) and is_reflective(t, p) and dominates(t, t, p)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("g", [3, 7])
def test_the_square_signature_folds_every_symbol_by_min_a_2g_minus_a(g):
    # Also on symbols above 2g - 1, which dominance reads and is_prym refuses.
    p = PrymParams(g, 1, 2)
    for rows in ([[g, 2 * g - 1], [1, g]], [[2 * g, 2 * g + 3], [1, 2 * g]]):
        t = square(rows)
        boxes = t.shape.index.boxes
        pairs = {(diag_class(b, 2), min(v, 2 * g - v)) for b, v in zip(boxes, t.values)
                 if v != g}
        parities = {diag_class(b, 2) for b, v in zip(boxes, t.values) if v == g}
        assert dominance_signature(t, p) == (pairs, parities)
        assert dominates(t, t, p)
        if max(t.values) < 2 * g:
            assert is_prym(t, p)
        else:
            with pytest.raises(InvalidInputError, match="out of range"):
                is_prym(t, p)


def test_chained_sets_check_covers_only():
    stair_index = staircase_shape(3).index
    assert stair_index.chained and len(stair_index.covers) == 6  # west + south
    assert list(stair_index.violations((1, 2, 3, 4, 2, 5))) == [(1, 4), (2, 4)]
    strip = StripShape(4, 2, "NE").shape.index  # not a lower set
    assert strip.chained and len(strip.covers) == 8
    moved = explicit_shape([(2, 2), (3, 2), (2, 3)])
    assert moved.index.chained and list(moved.index.violations((1, 2, 1))) == [(0, 2)]
    # A column gap and a row gap, each around the one box lacking both
    # neighbours, break the rule alone: every cover increases, one other
    # pair does not.  The odd pair of diagonal boxes has two such boxes.
    column_gap = {(1, 1): 1, (2, 1): 5, (1, 2): 2, (1, 3): 3, (2, 3): 4}
    row_gap = {(y, x): v for (x, y), v in column_gap.items()}
    for mapping, pair in ((column_gap, [(2, 1), (2, 3)]), (row_gap, [(1, 2), (3, 2)])):
        t = Tableau.from_mapping(explicit_shape(mapping), mapping)
        idx = t.shape.index
        assert not idx.chained
        assert [[idx.boxes[i], idx.boxes[j]] for i, j in idx.violations(t.values)] == [pair]
    odd = Shape("explicit", frozenset({(1, 1), (2, 2)}))
    assert not odd.index.chained and odd.index.covers == ()
    assert list(odd.index.violations((2, 2))) == [(0, 1)]
    assert not is_tableau(Tableau(odd, (2, 2)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_document_tableau_to_json_writes_reads_back(data):
    t = data.draw(fillings(data.draw(any_shape), 9))
    if not t.values:  # the schema holds no empty shape
        with pytest.raises(InvalidInputError, match="^a tableau document needs at least one box$"):
            tableau_to_json(t)
        return
    back = tableau_from_json(json.loads(json.dumps(tableau_to_json(t))))
    assert back.values == t.values and _same_shape(back.shape, t.shape)


def order_below(boxes):
    """For each slot, the mask of the other slots weakly south-west of it."""
    return [
        sum(1 << i for i, (xi, yi) in enumerate(boxes) if i != j and xi <= xj and yi <= yj)
        for j, (xj, yj) in enumerate(boxes)
    ]


def chain_below(idx):
    """For each slot, the mask of the slots its west/south chains reach."""
    reach = []
    for w, s in zip(idx.west, idx.south):
        reach.append(0)
        for i in (w, s):
            if i >= 0:
                reach[-1] |= reach[i] | 1 << i
    return reach


@settings(max_examples=300, deadline=None)
@given(st.one_of(skew_shapes(), scattered_shapes()))
def test_the_cover_rule_is_exact(shape):
    idx = shape.index
    if idx.chained:
        assert chain_below(idx) == order_below(idx.boxes)


def test_every_small_strip_passes_the_cover_rule():
    rng = random.Random(7)
    for r in range(1, 9):
        for l in range(r + 1):
            for word in product("EN", repeat=r - l):
                shape = StripShape(r, l, "".join(word)).shape
                idx = shape.index
                assert idx.chained
                assert chain_below(idx) == order_below(idx.boxes)
                values = list(range(1, len(idx.boxes) + 1))  # canonical order increases
                for _ in range(3):
                    t = Tableau(shape, tuple(values))
                    assert is_tableau(t) == ref_is_tableau(t)
                    if values:  # the width-0 strip is empty
                        i, j = rng.randrange(len(values)), rng.randrange(len(values))
                        values[i], values[j] = values[j], values[i]


# --------------------------------------------------------------------------
# Lifetime: nothing module-level keeps shapes or tableaux alive


def test_shapes_and_tableaux_are_not_cached_globally():
    refs = []
    for i in range(3000):
        shape = explicit_shape([(1, 1), (2, 1), (1, 2), (3 + i, 1 + i % 3)])
        t = Tableau(shape, (1, 2, 3, 4))
        assert is_tableau(t) and is_displacement(t, 2)
        assert canonical_boxes(shape)[0] == (1, 1) and shape.index.slot[(1, 1)] == 0
        class_symbol_sets(t, 3)
        u = t.with_values({(1, 1): 1})
        assert dominates(t, u, PrymParams(5, 1, 2)) and u.at((1, 2)) == 2
        refs += [weakref.ref(shape), weakref.ref(t), weakref.ref(u)]
    for word in ("EEE", "ENE", "NNE", "NEN"):
        mu = StripShape(5, 2, word)
        t = Tableau(mu.shape, tuple(range(1, len(mu.boxes) + 1)))
        assert is_tableau(t) and mu.leftmost(5)
        refs += [weakref.ref(mu), weakref.ref(mu.shape), weakref.ref(t)]
    del shape, t, u, mu
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


# --------------------------------------------------------------------------
# The torsion rule and the staircase-input contract


def test_every_torsion_check_refuses_with_one_message():
    t = stair([[2], [1, 2]])
    for k in (-1, 1):
        for call in (
            lambda: PrymParams(5, 2, k),
            lambda: is_displacement(t, k),
            lambda: effective_width(2, k),
            lambda: expected_codim(2, k),
            lambda: loose_boxes([], None, k),
        ):
            with pytest.raises(InvalidInputError, match=f"^k must be 0 or at least 2, got {k}$"):
                call()


def test_each_staircase_entry_point_scans_its_input_once(monkeypatch):
    scanned = []
    violations = ShapeIndex.violations

    def spy(self, values):
        scanned.append(values)
        return violations(self, values)

    monkeypatch.setattr(ShapeIndex, "violations", spy)
    for g, r, k in ((8, 3, 3), (8, 3, 4), (8, 3, 0)):
        p = PrymParams(g, r, k)
        calls = [strips_admitting, dominating_non_repeating, extend_to_reflective]
        if k:
            chain = make_folded_chain(g, k)
            calls.append(lambda t, p: tableau_to_divisor(t, chain))
        for t in islice(enumerate_staircase_tableaux(p), 0, 300, 30):
            for fn in calls:
                scanned.clear()
                fn(t, p)
                assert sum(v is t.values for v in scanned) == 1, (fn, t)
        # The strip tableau's own checks read its order pairs; the one
        # scan is of the extension.
        for st in islice(enumerate_strip_tableaux(p), 0, 300, 30):
            scanned.clear()
            extend_strip_tableau(st)
            assert len(scanned) == 1, st
