"""Unit tests for strips, strip tableaux, and the dominating constructions."""

from __future__ import annotations

import random
import re
from itertools import islice
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from prymbn.core import (
    InvalidInputError,
    InvariantError,
    PrymParams,
    Shape,
    Tableau,
    codimension,
    displacement_fault,
    dominates,
    explicit_shape,
    staircase_fault,
    staircase_shape,
)
from prymbn.counting import cardinality, count_brute, strip_poset_succ_masks
from prymbn.dimension import enumerate_staircase_tableaux, expected_codim, minimal_witness
from prymbn.locus import height_descent_step
from prymbn.selftest import _grid
from prymbn.strips import (
    STRIP_CACHE,
    StripShape,
    StripTableau,
    cell_strips,
    dominating_non_repeating,
    effective_width,
    enumerate_strip_tableaux,
    enumerate_strips,
    extend_strip_tableau,
    horizontal_strip,
    is_non_repeating,
    restrict_to_strip,
    strips_admitting,
    _strip,
)

from helpers import stair, unpruned_strip_fillings

# --------------------------------------------------------------------------
# Strip shapes


def test_strips_live_on_the_staircase_or_an_explicit_shape():
    for r in range(1, 6):
        for k in (0, 2 * r + 1, 2 * r + 4):
            assert horizontal_strip(r, k).shape is staircase_shape(r)
    # A cached strip outlives the staircase cache's copy of T_r and still
    # shares the copy that cache holds now.
    held = horizontal_strip(3, 0)
    staircase_shape.cache_clear()
    assert held.shape is staircase_shape(3) and held.boxes is staircase_shape(3).boxes
    mu = StripShape(4, 2, "EN")
    assert mu.shape.kind == "explicit" and mu.shape.r is None
    with pytest.raises(InvalidInputError, match="unknown shape kind"):
        Shape("strip", mu.boxes, 4)


def test_order_pairs_are_one_tuple_per_parity_of_a_chained_strip():
    mu = StripShape(5, 2, "ENE")
    for eps in (0, 1):
        pairs = mu.order_pairs(eps)
        assert isinstance(pairs, tuple) and mu.order_pairs(eps) is pairs
        assert pairs[: -len(mu.word)] == mu.shape.index.covers
    broken = StripShape(3, 1, "EE")
    broken.__dict__["_explicit_shape"] = explicit_shape([(1, 1), (2, 1), (3, 3)])  # fails the cover rule
    with pytest.raises(InvariantError, match="cover rule"):
        broken.order_pairs(0)


def test_effective_width():
    assert effective_width(4, 0) == 4
    assert effective_width(4, 3) == 2
    assert effective_width(4, 8) == 4
    assert effective_width(4, 9) == 4
    with pytest.raises(InvalidInputError):
        effective_width(4, 1)


def test_strip_shape_validation():
    with pytest.raises(InvalidInputError):
        StripShape(3, 4, "")
    with pytest.raises(InvalidInputError):
        StripShape(3, 2, "EN")  # word too long
    with pytest.raises(InvalidInputError):
        StripShape(3, 2, "X")


def test_strip_windows_and_ends():
    mu = StripShape(4, 2, "EN")
    assert mu.leftmost(2) == (1, 2)
    assert mu.leftmost(3) == (2, 2)
    assert mu.leftmost(4) == (2, 3)
    assert mu.rightmost(4) == (3, 2)
    assert mu.window(4) == ((2, 3), (3, 2))
    assert mu.height == 3
    assert not mu.degenerate
    with pytest.raises(InvalidInputError):
        mu.leftmost(5)


def test_strip_box_count_is_the_expected_codimension():
    for r in range(1, 7):
        for k in (0, 2, 3, 4, 5, 6, 7):
            mu = horizontal_strip(r, k)
            assert len(mu.boxes) == expected_codim(r, k)


def test_side_of():
    mu = StripShape(4, 2, "NE")  # windows: (1,3)-(2,2) then (2,3)-(3,2)
    assert mu.side_of((1, 4)) == -1
    assert mu.side_of((2, 2)) == 0
    assert mu.side_of((2, 3)) == 0
    assert mu.side_of((3, 1)) == 1
    assert mu.side_of((4, 1)) == 1
    for box in ((5, 5), (0, 3), (5, -1)):  # the last two: on anti-diagonals of T_4
        with pytest.raises(InvalidInputError):
            mu.side_of(box)


def test_enumerate_strips_and_cell_strips():
    odd = PrymParams(9, 3, 3)
    assert len(enumerate_strips(odd)) == 2  # words E, N over r - l = 1 move
    assert [mu.word for mu in cell_strips(odd)] == ["E", "N"]
    even = PrymParams(8, 3, 4)
    assert len(enumerate_strips(even)) == 2
    assert [mu.word for mu in cell_strips(even)] == ["E"]  # only mu_0 indexes cells
    generic = PrymParams(8, 3, 0)
    assert [mu.word for mu in cell_strips(generic)] == [""]
    assert cell_strips(generic)[0].degenerate


def test_even_cell_strips_build_only_mu_0(monkeypatch):
    def refuse(p):
        raise AssertionError("even torsion needs only mu_0")

    monkeypatch.setattr("prymbn.strips.enumerate_strips", refuse)
    assert cell_strips(PrymParams(12, 10, 2)) == [horizontal_strip(10, 2)]


def test_horizontal_strip_is_built_once_per_type_in_a_fixed_cache():
    mu = horizontal_strip(4, 3)
    assert horizontal_strip(4, 3) is mu
    assert horizontal_strip(4, 4) is mu  # k = 3 and k = 4 share the width 2
    assert mu == StripShape(4, 2, "EE")
    assert _strip.cache_info().maxsize == STRIP_CACHE
    for r in range(1, 3 * STRIP_CACHE):
        assert horizontal_strip(r, 2).l == 1
    assert _strip.cache_info().currsize == STRIP_CACHE
    with pytest.raises(InvalidInputError):
        horizontal_strip(4, 1)


def test_every_reader_of_a_strip_gets_the_one_cached_object():
    _strip.cache_clear()
    odd = PrymParams(9, 4, 3)
    strips = enumerate_strips(odd)
    assert [mu.word for mu in strips] == ["EE", "EN", "NE", "NN"]
    assert enumerate_strips(odd) == strips
    assert all(a is b for a, b in zip(enumerate_strips(odd), strips))
    assert horizontal_strip(4, 3) is strips[0]
    assert cell_strips(odd)[1] is strips[1]
    for st in islice(enumerate_strip_tableaux(odd), 0, None, 7):
        t = extend_strip_tableau(st)
        (mu,) = strips_admitting(t, odd)
        assert mu is st.strip
        assert dominating_non_repeating(t, odd)[0] is st.strip  # the greedy strip
    # The descent's lower strip nu is the cached strip of its word.
    start = next(st for st in enumerate_strip_tableaux(odd) if st.strip.word == "EN")
    assert height_descent_step(extend_strip_tableau(start), odd).strip is strips[0]
    assert StripShape(4, 2, "EE") is not strips[0]  # the constructor builds anew


def test_count_brute_keeps_no_more_strips_than_the_cache_bound():
    _strip.cache_clear()
    assert len(enumerate_strips(PrymParams(2, 10, 3))) == 256 > STRIP_CACHE
    assert _strip.cache_info().currsize == STRIP_CACHE
    kept = [horizontal_strip(r, 2) for r in range(1, 9)]
    assert count_brute(10, 3, force=True) == 512
    assert _strip.cache_info().currsize <= STRIP_CACHE
    # Odd torsion reads its pair tables from two strips built outside the cache.
    assert all(horizontal_strip(r, 2) is mu for r, mu in enumerate(kept, start=1))
    hits = _strip.cache_info().hits
    assert count_brute(10, 4, force=True) == count_brute(10, 4, force=True) == 512
    assert _strip.cache_info().hits == hits + 1  # the second reads mu_0 from the cache


@pytest.mark.parametrize("bad", [
    ("3", 1, "EE"), (3, 1, 5), (3, 1.0, "EE"), (3, True, "EE"), (3.0, 1, "EE"), (3, 1, ["E", "E"]),
])
def test_strip_shape_refuses_arguments_of_the_wrong_type(bad):
    with pytest.raises(InvalidInputError):
        StripShape(*bad)


@pytest.mark.parametrize("fn", [horizontal_strip, effective_width])
@pytest.mark.parametrize("r", ["3", 3.0, None, True])
def test_strip_width_refuses_an_order_that_is_not_an_integer(fn, r):
    with pytest.raises(InvalidInputError, match="r must be an integer"):
        fn(r, 4)


# --------------------------------------------------------------------------
# Non-repeating tableaux


def test_is_non_repeating_golden_example():
    p = PrymParams(7, 3, 4)
    w = minimal_witness(p)
    mu0 = horizontal_strip(3, 4)
    assert is_non_repeating(w, mu0, p)


def test_is_non_repeating_detects_a_broken_repeat():
    p = PrymParams(8, 3, 2)
    mu0 = horizontal_strip(3, 2)  # width 1: the bottom row
    w = minimal_witness(p)
    # Breaking the copied box (1, 2) must flip the left repeating condition.
    broken = w.with_values({(1, 3): w.at((1, 3)) + 1})
    assert not is_non_repeating(broken, mu0, p)


def test_is_non_repeating_rejects_bad_restrictions():
    p = PrymParams(9, 3, 3)
    mu = horizontal_strip(3, 3)
    with pytest.raises(InvalidInputError):
        is_non_repeating(stair([[1], [1, 2], [1, 2, 3]]), mu, p)
    # Symbol 2 sits at (2, 1) and (1, 2), in different classes mod 3.
    with pytest.raises(InvalidInputError, match="displacement at symbol 2"):
        is_non_repeating(stair([[3], [2, 5], [1, 2, 4]]), mu, p)


@pytest.mark.parametrize("mu, message", [
    (StripShape(3, 3, ""), "strip width 3 does not match the torsion width 2"),
    (StripShape(3, 1, "EE"), "strip width 1 does not match the torsion width 2"),
    (StripShape(4, 2, "EE"), "strip does not match the type's staircase order"),
])
def test_is_non_repeating_refuses_a_strip_that_does_not_fit_the_type(mu, message):
    # Refused, not tested: the full strip T_3 would make every condition vacuous.
    p = PrymParams(9, 3, 3)
    with pytest.raises(InvalidInputError, match=f"^is_non_repeating: {re.escape(message)}$"):
        is_non_repeating(minimal_witness(p), mu, p)


def test_is_non_repeating_takes_every_strip_of_the_width_at_even_torsion():
    # No strip tableau lives on an even-torsion N strip, but the test still
    # has an answer: every strip admits the witness or none does.
    p = PrymParams(8, 3, 4)
    w = minimal_witness(p)
    assert [is_non_repeating(w, mu, p) for mu in enumerate_strips(p)] == [True, True]


def test_strips_admitting_counts():
    odd = PrymParams(9, 3, 3)
    for t in (minimal_witness(odd),):
        assert len(strips_admitting(t, odd)) == 1
    even = PrymParams(8, 3, 4)
    w = minimal_witness(even)
    assert len(strips_admitting(w, even)) >= 1


def test_strips_admitting_matches_the_scan_over_every_strip_on_the_grid():
    checked = 0
    for r, k, gm1, _ in _grid():
        p = PrymParams(gm1 + 1, r, k)
        strips = enumerate_strips(p)
        for t in islice(enumerate_staircase_tableaux(p), 0, None, 7):
            assert strips_admitting(t, p) == [
                mu for mu in strips if is_non_repeating(t, mu, p)], (p, t)
            checked += 1
    assert checked == 12_054


@pytest.mark.parametrize("g, r, k, admitted", [(11, 10, 2, 512), (24, 12, 3, 1)])
def test_strips_admitting_tests_one_strip(monkeypatch, g, r, k, admitted):
    # The window ends pick the one candidate strip: one is_non_repeating
    # call, where a scan over every strip makes 2^(r - l).
    calls = []

    def spy(t, mu, p):
        calls.append(mu)
        return is_non_repeating(t, mu, p)

    monkeypatch.setattr("prymbn.strips.is_non_repeating", spy)
    p = PrymParams(g, r, k)
    assert len(strips_admitting(minimal_witness(p), p)) == admitted
    assert len(calls) == 1


# --------------------------------------------------------------------------
# Strip tableaux


def test_strip_tableau_validation():
    p = PrymParams(9, 3, 3)
    mu = horizontal_strip(3, 3)
    boxes = sorted(mu.boxes, key=lambda b: (b[0] + b[1], b[0]))
    entries = Tableau.from_mapping(mu.shape, {b: i + 1 for i, b in enumerate(boxes)})
    st = StripTableau(mu, entries, p)
    with pytest.raises(InvalidInputError, match="injective"):
        StripTableau(mu, entries.with_values({boxes[-1]: entries.at(boxes[-2])}), p)
    with pytest.raises(InvalidInputError, match="width"):
        StripTableau(StripShape(3, 1, "EE"), entries, p)


@pytest.mark.parametrize("field", ["strip", "entries", "params"])
def test_strip_tableau_refuses_fields_of_the_wrong_type(field):
    p = PrymParams(9, 3, 3)
    mu = horizontal_strip(3, 3)
    entries = next(enumerate_strip_tableaux(p)).entries
    good = {"strip": mu, "entries": entries, "params": p}
    bad = {"strip": "EE", "entries": entries.values, "params": (9, 3, 3)}
    with pytest.raises(InvalidInputError, match=field):
        StripTableau(**{**good, field: bad[field]})


def test_extend_strip_tableau_refuses_a_look_alike():
    p = PrymParams(9, 3, 3)
    mu = horizontal_strip(3, 3)
    # Repeated entries: no StripTableau holds them, so nothing may extend them.
    fake = SimpleNamespace(strip=mu, entries=Tableau(mu.shape, (1,) * len(mu.boxes)), params=p)
    with pytest.raises(InvalidInputError, match="StripTableau"):
        extend_strip_tableau(fake)


def test_repeat_map_refuses_a_chase_that_moves_a_strip_box(monkeypatch):
    mu = StripShape(4, 2, "EN")  # not the cached strip: this one is broken below
    moved = mu.shape.index.boxes[-1]
    real = StripShape.side_of
    monkeypatch.setattr(
        StripShape, "side_of", lambda self, b: -1 if b == moved else real(self, b)
    )
    with pytest.raises(InvariantError, match=re.escape(f"moves strip box {moved}")):
        mu.repeat_map(1)


@pytest.mark.parametrize("wrong", [(1, 3), (4, 1)])
def test_repeat_map_refuses_a_chase_that_leaves_the_staircase(monkeypatch, wrong):
    # A box sent to the wrong side is chased out of T_4, where side_of
    # answers for no box: the chase's own check names the box it left at.
    mu = StripShape(4, 2, "EN")  # not the cached strip: this one is broken below
    real = StripShape.side_of
    monkeypatch.setattr(
        StripShape, "side_of", lambda self, b: -real(self, b) if b == wrong else real(self, b)
    )
    with pytest.raises(InvariantError, match=re.escape(f"repeat chase from {wrong} leaves T_4")):
        mu.repeat_map(1)


def test_slot_classes_are_each_strip_boxs_own_class_on_the_grid():
    # Each strip box copies itself, so the one class of a slot's copies is
    # its own box's; the degenerate strip reads T_r's classes.
    for r, k, gm1, _ in _grid():
        p = PrymParams(gm1 + 1, r, k)
        for mu in cell_strips(p):
            assert mu.slot_classes(p.k) == mu.shape.index.classes(p.k), (p, mu)


@pytest.mark.parametrize("k", [1, -2, True, 2.0, None, 2, 5])
def test_slot_classes_refuse_a_torsion_outside_the_strips_width(k):
    # StripShape(4, 2, "EN") has width 2: torsion 3 or 4 only.
    mu = StripShape(4, 2, "EN")
    mu.slot_classes(3), mu.slot_classes(4)  # warm: no torsion is served another's table
    with pytest.raises(InvalidInputError):
        mu.slot_classes(k)


def test_an_extension_that_breaks_displacement_is_an_invariant_failure():
    p = PrymParams(7, 3, 4)
    mu = StripShape(3, 2, "E")  # not the cached strip: its repeat map is broken below
    st = StripTableau(mu, next(enumerate_strip_tableaux(p)).entries, p)
    lands = list(mu.repeat_map(0))
    stair_slot = staircase_shape(3).index.slot
    (outside,) = staircase_shape(3).boxes - mu.boxes
    classes = mu.shape.index.classes(p.k)
    # Send the box off the strip to a strip slot of another diagonal class.
    i = stair_slot[outside]
    lands[i] = next(j for j, c in enumerate(classes) if c != classes[lands[i]])
    mu._repeat_maps[0] = tuple(lands)
    with pytest.raises(InvariantError, match="non-repeating extension"):
        extend_strip_tableau(st)


def test_strip_tableau_checks_the_width_at_torsion_0():
    mu = StripShape(3, 1, "EE")
    entries = Tableau(mu.shape, (1, 2, 3))
    with pytest.raises(InvalidInputError, match="strip width 1 does not match"):
        StripTableau(mu, entries, PrymParams(6, 3, 0))


def test_even_torsion_rejects_north_strips():
    p = PrymParams(8, 3, 4)
    mu = StripShape(3, 2, "N")
    boxes = sorted(mu.boxes, key=lambda b: (b[0] + b[1], b[0]))
    entries = Tableau.from_mapping(mu.shape, {b: i + 1 for i, b in enumerate(boxes)})
    with pytest.raises(InvalidInputError, match="horizontal strip"):
        StripTableau(mu, entries, p)


def test_extend_and_restrict_round_trip():
    p = PrymParams(7, 3, 4)
    for st in enumerate_strip_tableaux(p):
        t = extend_strip_tableau(st)
        assert len(t.symbols) == len(st.strip.boxes)
        back = restrict_to_strip(t, st.strip, p)
        assert back.entries == st.entries


def test_enumerate_strip_tableaux_product_rule():
    for g, r, k in ((7, 3, 4), (9, 3, 3), (6, 2, 2)):
        p = PrymParams(g, r, k)
        n = expected_codim(r, k)
        got = sum(1 for _ in enumerate_strip_tableaux(p))
        from prymbn.counting import cardinality

        assert got == cardinality(r, k) * comb(g - 1, n)


def test_enumerate_strip_tableaux_with_symbol_subset():
    p = PrymParams(7, 3, 4)
    n = expected_codim(3, 4)
    symbols = [1, 2, 3, 4, 5]
    got = sum(1 for _ in enumerate_strip_tableaux(p, symbols))
    from prymbn.counting import cardinality

    assert got == cardinality(3, 4) * comb(len(symbols), n)
    with pytest.raises(InvalidInputError):
        list(enumerate_strip_tableaux(p, [0, 1]))
    with pytest.raises(InvalidInputError):
        list(enumerate_strip_tableaux(p, [7]))


@pytest.mark.parametrize("symbols", [["a"], [None], 5, [1.0, 2], [True, 2], "12", [1, 2, 3, 4, -5]])
def test_enumerate_strip_tableaux_refuses_symbols_that_are_not_positive_integers(symbols):
    with pytest.raises(InvalidInputError, match="symbol_set"):
        next(enumerate_strip_tableaux(PrymParams(7, 3, 4), symbols))


# --------------------------------------------------------------------------
# The capped strip search against the uncapped oracle


def capped_cells(p, symbols=None):
    return [(st.strip, st.entries.values) for st in enumerate_strip_tableaux(p, symbols)]


def oracle_cells(p, symbols=None):
    pool = tuple(range(1, p.g)) if symbols is None else tuple(sorted(symbols))
    return [(mu, v) for mu in cell_strips(p) for v in unpruned_strip_fillings(mu, p.eps, pool)]


def test_capped_strip_search_matches_the_uncapped_oracle_on_the_grid():
    for r, k, gm1, _ in _grid():
        p = PrymParams(gm1 + 1, r, k)
        assert capped_cells(p) == oracle_cells(p), p


@pytest.mark.parametrize("g,r,k", [(11, 5, 4), (9, 4, 3), (11, 4, 5), (13, 5, 5)])
def test_capped_strip_search_matches_the_uncapped_oracle_on_larger_types(g, r, k):
    got = capped_cells(PrymParams(g, r, k))
    assert got == oracle_cells(PrymParams(g, r, k))
    assert len(got) == cardinality(r, k) * comb(g - 1, expected_codim(r, k))


def test_capped_strip_search_matches_the_uncapped_oracle_on_symbol_subsets():
    # Odd torsion with north moves (slots with ceilings) and even torsion;
    # each subset has at most three spare symbols and at most 2000 cells.
    rng = random.Random(14)
    for r, k in ((3, 3), (4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (5, 5), (6, 3)):
        n, c = expected_codim(r, k), cardinality(r, k, force=True)
        for spare in range(4):
            if c * comb(n + spare, n) > 2000:
                break
            p = PrymParams(n + spare + 4, r, k)
            symbols = rng.sample(range(1, p.g), n + spare)
            got = capped_cells(p, symbols)
            assert got == oracle_cells(p, symbols), (p, symbols)
            assert len(got) == c * comb(n + spare, n)


# --------------------------------------------------------------------------
# Dominating construction


@pytest.mark.parametrize("g,r,k", [(6, 3, 4), (7, 3, 3), (7, 3, 0), (7, 2, 2)])
def test_dominating_non_repeating_smallest_instances(g, r, k):
    p = PrymParams(g, r, k)
    n = expected_codim(r, k)
    for t in enumerate_staircase_tableaux(p):
        mu, s = dominating_non_repeating(t, p)
        assert dominates(s, t, p)
        assert codimension(s, p) == n
        assert is_non_repeating(s, mu, p)


@pytest.mark.parametrize("r", [2, 3])
def test_dominating_non_repeating_returns_its_input_at_the_generic_regime_edge(r):
    # k = 2r - 1 and 2r are generic, but their width (k + 1) // 2 is r
    # without a cap, so each torsion parity reaches the degenerate strip.
    for k in (2 * r - 1, 2 * r):
        p = PrymParams(comb(r + 1, 2) + 2, r, k)
        for t in islice(enumerate_staircase_tableaux(p), 200):
            mu, s = dominating_non_repeating(t, p)
            assert s is t and mu == horizontal_strip(r, k) and mu.degenerate


@pytest.mark.parametrize("g, r, k", [(7, 3, 4), (9, 3, 3), (8, 3, 0)])
def test_dominating_non_repeating_answers_on_the_staircase_for_an_explicit_input(g, r, k):
    # The input is re-anchored on T_r first, so the result is the one of the
    # staircase input, and it is never compared with a tableau on another shape.
    p = PrymParams(g, r, k)
    w = minimal_witness(p)
    mu, s = dominating_non_repeating(Tableau(Shape("explicit", w.shape.boxes), w.values), p)
    assert (mu, s) == dominating_non_repeating(w, p) and s.shape is staircase_shape(r)


def test_dominating_non_repeating_fixes_non_repeating_inputs():
    p = PrymParams(7, 3, 4)
    w = minimal_witness(p)
    mu, s = dominating_non_repeating(w, p)
    assert s == w and mu == horizontal_strip(3, 4)


# --------------------------------------------------------------------------
# Strip tables against the per-box formulas they replaced


def ref_gluing_pairs(mu, eps):
    """The (smaller, larger) box pairs of the gluing condition, one per move
    ``word[j]``, read off the window ends of anti-diagonal ``l + j``."""
    pairs = []
    for n, move in enumerate(mu.word, start=mu.l):
        lm, rm = mu.leftmost(n), mu.rightmost(n)
        if eps == 1:
            pairs.append((lm, rm) if move == "E" else (rm, lm))
        elif move == "E":
            pairs.append((lm, mu.rightmost(n + 1)))
        else:
            pairs.append((rm, mu.leftmost(n + 1)))
    return pairs


def ref_check_restriction(t, mu, p):
    """The restriction of ``t`` to ``mu`` as a tableau, checked for the
    tableau condition on its covers and then for displacement."""
    sub = Tableau(mu.shape, tuple(map(t.at, mu.shape.index.boxes)))
    idx = mu.shape.index
    bad = next(idx.violations(sub.values), None)
    if bad is not None:
        raise InvalidInputError(
            "is_non_repeating: restriction to the strip violates the tableau condition"
            f" at {idx.boxes[bad[0]]} -> {idx.boxes[bad[1]]}"
        )
    seen = {}
    for c, v in zip(idx.classes(p.k), sub.values):
        if seen.setdefault(v, c) != c:
            raise InvalidInputError(
                f"is_non_repeating: restriction to the strip violates displacement at symbol {v}"
            )


def ref_is_non_repeating(t, mu, p):
    """The repeating conditions tested box by box through ``side_of``."""
    if fault := staircase_fault(t, p):
        raise InvalidInputError(f"is_non_repeating: tableau {fault}")
    if mu.r != p.r:
        raise InvalidInputError(
            "is_non_repeating: strip does not match the type's staircase order"
        )
    if mu.l != effective_width(p.r, p.k):
        raise InvalidInputError(
            f"is_non_repeating: strip width {mu.l} does not match the torsion width"
            f" {effective_width(p.r, p.k)}"
        )
    ref_check_restriction(t, mu, p)
    if mu.degenerate:
        return True
    l, eps = mu.l, p.eps
    m = dict(t.items())
    for box, v in t.items():
        side = mu.side_of(box)
        if side == -1 and v != m[(box[0] + l - eps, box[1] - l)]:
            return False
        if side == 1 and v != m[(box[0] - l, box[1] + l - eps)]:
            return False
    return all(m[lo] < m[hi] for lo, hi in ref_gluing_pairs(mu, eps))


def ref_extension(entries, mu, eps):
    """The strip values copied to ``T_r`` by a recursive repeat chase."""
    l, r = mu.l, mu.r
    values = dict(entries.items())

    def resolve(box, hops=0):
        if box in values:
            return values[box]
        if hops > 2 * r:
            raise InvariantError(f"repeat chase from {box} did not reach the strip")
        side = mu.side_of(box)
        if side == -1:
            nxt = (box[0] + l - eps, box[1] - l)
        elif side == 1:
            nxt = (box[0] - l, box[1] + l - eps)
        else:
            raise InvariantError(f"strip box {box} missing an entry")
        v = values[box] = resolve(nxt, hops + 1)
        return v

    shape = staircase_shape(r)
    return Tableau.from_mapping(shape, {b: resolve(b) for b in shape.boxes})


def ref_succ_masks(mu, eps):
    """Successor bitmasks from the east/north neighbours and the gluing pairs."""
    slot = mu.shape.index.slot
    succ = [0] * len(slot)
    for (x, y), i in slot.items():
        for nb in ((x + 1, y), (x, y + 1)):
            if nb in slot:
                succ[i] |= 1 << slot[nb]
    for lo, hi in ref_gluing_pairs(mu, eps):
        succ[slot[lo]] |= 1 << slot[hi]
    return succ


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except InvalidInputError as exc:
        return ("invalid", str(exc))


ALL_STRIPS = [  # every strip of every type with r <= 5 and k in [2, 2r]
    (r, k, mu)
    for r in range(1, 6)
    for k in range(2, 2 * r + 1)
    for mu in enumerate_strips(PrymParams(2, r, k))
]


def test_every_strip_table_matches_the_chase():
    for _, _, mu in ALL_STRIPS:
        n = len(mu.boxes)
        slots = Tableau(mu.shape, tuple(range(1, n + 1)))  # value = slot + 1
        for eps in (0, 1):
            chased = ref_extension(slots, mu, eps).values
            assert mu.repeat_map(eps) == tuple(v - 1 for v in chased), (mu, eps)
            assert strip_poset_succ_masks(mu, eps) == ref_succ_masks(mu, eps)


def ref_strip_tableau_error(entries, mu, eps):
    """The message of the first failed condition of an injective strip
    filling: the tableau condition by the pairwise scan, then the gluing
    pairs in move order; None when both hold."""
    m = dict(entries.items())
    if any(a != b and a[0] <= b[0] and a[1] <= b[1] and not m[a] < m[b]
           for a in m for b in m):
        return "strip entries violate the tableau condition"
    for j, (lo, hi) in enumerate(ref_gluing_pairs(mu, eps)):
        if not m[lo] < m[hi]:
            return (f"strip entries violate the gluing condition at anti-diagonal"
                    f" {mu.l + j} ({mu.word[j]} move)")
    return None


def test_strip_checks_on_swapped_fillings_match_the_per_box_formulas():
    # Every transposition of one linear extension of each strip's order.
    for r, k, mu in ALL_STRIPS:
        n = len(mu.boxes)
        p = PrymParams(n + 1, r, k)
        succ, order, placed = ref_succ_masks(mu, p.eps), [], 0
        while len(order) < n:
            j = next(j for j in range(n) if not placed >> j & 1 and all(
                placed >> i & 1 for i in range(n) if succ[i] >> j & 1))
            order.append(j)
            placed |= 1 << j
        values = [0] * n
        for v, j in enumerate(order, start=1):
            values[j] = v
        for a in range(n):
            for b in range(a, n):
                swapped = list(values)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                entries = Tableau(mu.shape, tuple(swapped))
                t = ref_extension(entries, mu, p.eps)
                assert outcome(is_non_repeating, t, mu, p) == outcome(
                    ref_is_non_repeating, t, mu, p), (mu, swapped)
                if mu not in cell_strips(p):
                    continue
                try:
                    StripTableau(mu, entries, p)
                    got = None
                except InvalidInputError as exc:
                    got = str(exc)
                assert got == ref_strip_tableau_error(entries, mu, p.eps), (mu, swapped)


@st.composite
def strip_neighbours(draw):
    """A strip, a filling of it along its order, the chased extension of that
    filling to ``T_r``, and a copy with up to two slots rewritten."""
    r, k, mu = draw(st.sampled_from(ALL_STRIPS))
    p = PrymParams(len(mu.boxes) + 1 + draw(st.integers(0, 3)), r, k)
    succ = ref_succ_masks(mu, p.eps)
    n = len(succ)
    order, placed = [], 0
    while len(order) < n:  # a random linear extension, minimal element by element
        ready = [
            j for j in range(n)
            if not placed >> j & 1 and all(placed >> i & 1 for i in range(n) if succ[i] >> j & 1)
        ]
        j = draw(st.sampled_from(ready))
        order.append(j)
        placed |= 1 << j
    symbols = sorted(draw(st.lists(
        st.integers(1, p.g - 1), min_size=n, max_size=n, unique=True)))
    values = [0] * n
    for v, j in zip(symbols, order):
        values[j] = v
    entries = Tableau(mu.shape, tuple(values))
    t = ref_extension(entries, mu, p.eps)
    moved = list(t.values)
    for _ in range(draw(st.integers(0, 2))):
        moved[draw(st.integers(0, len(moved) - 1))] = draw(st.integers(1, p.g - 1))
    return p, mu, entries, t, Tableau(t.shape, tuple(moved))


@settings(max_examples=300, deadline=None)
@given(strip_neighbours())
def test_strip_tables_agree_with_the_per_box_formulas(case):
    p, mu, entries, t, moved = case
    if mu in cell_strips(p):
        assert extend_strip_tableau(StripTableau(mu, entries, p)) == t
    for nu in enumerate_strips(p):
        for u in (t, moved):
            assert outcome(is_non_repeating, u, nu, p) == outcome(ref_is_non_repeating, u, nu, p)
    for u in (t, moved):
        if displacement_fault(u, p.k) is None:
            assert strips_admitting(u, p) == [
                nu for nu in enumerate_strips(p) if is_non_repeating(u, nu, p)]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_strip_tableaux_come_in_increasing_word_then_value_order(r):
    for k in [0] + list(range(2, 2 * r + 1)):
        n = expected_codim(r, k)
        p = PrymParams(n + 2, r, k)
        keys = [(st.strip.word, st.entries.values) for st in enumerate_strip_tableaux(p)]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(keys) == cardinality(r, k) * (n + 1)
