"""Value tests for the search kernels: the staircase codimension search and
the one displacement filler in :mod:`prymbn.dimension`, and linear-extension
counting in :mod:`prymbn.counting`."""

from __future__ import annotations

import math
import random
import sys

import pytest

from prymbn.core import PrymParams, ShapeIndex, Tableau, generic_regime, is_prym, square_shape
from prymbn.counting import count_linext
from prymbn.dimension import (
    _prym_square_values,
    brute_min_codim,
    class_chain_lengths,
    enumerate_staircase_values,
    expected_codim,
    min_codim_staircase,
)
from prymbn.selftest import _grid
from prymbn.strips import enumerate_strip_tableaux

from helpers import prym_squares


def chain_masks(n):
    full = (1 << n) - 1
    return [full ^ ((2 << v) - 1) for v in range(n)]


def antichain_masks(n):
    return [0] * n


# --------------------------------------------------------------------------
# Linear-extension counting


def test_count_linext_known_posets():
    assert count_linext([]) == 1
    assert count_linext(chain_masks(5)) == 1
    assert count_linext(antichain_masks(6)) == math.factorial(6)
    # V-poset 0 < 2 > 1: the two minimal elements commute.
    assert count_linext([0b100, 0b100, 0]) == 2
    # Two disjoint 2-chains: binomial(4, 2) interleavings.
    assert count_linext([0b0010, 0, 0b1000, 0]) == 6
    # 0 < 1, 0 < 2 and 1, 2 < 3: the two middle elements commute.
    assert count_linext([0b0110, 0b1000, 0b1000, 0]) == 2


def test_count_linext_beyond_the_table_limit():
    # Only reachable down-sets are visited, so a long chain stays cheap.
    assert count_linext(chain_masks(22)) == 1
    assert count_linext(chain_masks(20)) == 1


def test_kernels_leave_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    # T_45 has 1035 boxes, one search level each: deeper than the default
    # limit of 1000 frames.
    assert brute_min_codim(PrymParams(46, 45, 2), force=True) == 45
    assert count_linext(chain_masks(1100)) == 1
    next(enumerate_staircase_values(45, 0, 1035))
    next(enumerate_strip_tableaux(PrymParams(1036, 45, 0)))
    assert sys.getrecursionlimit() == limit


def test_enumerators_search_deeper_than_the_default_recursion_limit():
    # One search level per box of T_45: both used to raise RecursionError.
    standard = tuple(range(1, 1036))
    assert next(enumerate_staircase_values(45, 0, 1035)) == standard
    assert next(enumerate_strip_tableaux(PrymParams(1036, 45, 0))).entries.values == standard


# --------------------------------------------------------------------------
# Staircase codimension search


@pytest.mark.parametrize(
    "r, k, want",
    [(2, 0, 3), (2, 2, 2), (2, 3, 3), (3, 0, 6), (3, 2, 3), (3, 3, 5), (3, 4, 5)],
)
def test_min_codim_staircase_values(r, k, want):
    assert min_codim_staircase(r, k, want + 3) == want


def test_min_codim_staircase_sentinel_and_empty():
    assert min_codim_staircase(3, 0, 5) == -1
    assert min_codim_staircase(3, 2, 2) == -1  # bottom row wants 3 values
    assert min_codim_staircase(0, 0, 4) == 0


def test_min_codim_budget_prune_matches_the_exhaustive_search():
    # Every gmax from 1 to boxes + 2 (at most 8 for r <= 3): neither the
    # budget nor the value cap may cut the cheapest filling.
    results = set()
    for r in range(4):
        for k in (0, 2, 3, 4, 5):
            for gmax in range(1, 9):
                counts = [len(set(vals)) for vals in enumerate_staircase_values(r, k, gmax)]
                want = min(counts, default=-1)
                for use_budget in (True, False):
                    got = min_codim_staircase(r, k, gmax, use_budget)
                    assert got == want, (r, k, gmax, use_budget)
                results.add(want)
    assert -1 in results  # the grid reaches unfillable targets too


def test_min_codim_value_cap_keeps_searching_after_a_worse_incumbent(monkeypatch):
    # The value cap reads only the chains of T_r, so it must stay exact
    # under any class map.  On this one the first filling the search finds
    # uses 5 symbols and the cheapest uses 4, so the cap rebuilt at the
    # first incumbent must still let a 4-symbol filling through.
    classes = (0, 2, 1, 0, 0, 2)
    monkeypatch.setattr(ShapeIndex, "classes", lambda self, k: classes)
    for gmax in (5, 6):
        assert min(len(set(vals)) for vals in enumerate_staircase_values(3, 2, gmax)) == 4
        assert min_codim_staircase(3, 2, gmax, use_budget=False) == 4


def class_maps(boxes):
    """Every class map of ``boxes`` slots up to relabelling the classes."""
    maps = [()]
    for _ in range(boxes):
        maps = [m + (c,) for m in maps for c in range(max(m, default=-1) + 2)]
    return maps


def test_min_codim_chain_bound_is_exact_under_any_class_map(monkeypatch):
    # The chain bound reads only T_r's order and the classes, so paranoid
    # mode must stay exact under any class map: every map of T_3 and seeded
    # maps of T_4 into 1, 2, 3, 4, 5 or 10 classes, every gmax <= 8.
    rng = random.Random(2026)
    maps = [(3, classes) for classes in class_maps(6)]
    maps += [(4, tuple(rng.randrange(m) for _ in range(10)))
             for m in (1, 2, 3, 4, 5, 10) for _ in range(10)]
    seen = set()
    for r, classes in maps:
        monkeypatch.setattr(ShapeIndex, "classes", lambda self, k, c=classes: c)
        for gmax in range(1, 9):
            want = min((len(set(vals)) for vals in enumerate_staircase_values(r, 0, gmax)),
                       default=-1)
            assert min_codim_staircase(r, 0, gmax, use_budget=False) == want, (r, classes, gmax)
            seen.add(want)
    assert len(maps) == 263 and seen == {-1, 3, 4, 5, 6, 7, 8}


def test_class_chains_sum_to_the_formula_in_the_generic_regime_and_at_even_torsion():
    for r in range(1, 11):
        for k in [0, *range(2, 2 * r + 2)]:
            total, n = sum(class_chain_lengths(r, k).values()), expected_codim(r, k)
            if generic_regime(r, k) or k % 2 == 0:
                assert total == n, (r, k)
            else:
                assert total < n, (r, k)
    # T_3 at k = 3: class 0 holds the chain (1,1) < (2,2); classes 1 and 2
    # hold two incomparable boxes each, so 2 + 1 + 1 = 4 < n(3, 3) = 5.
    assert class_chain_lengths(3, 3) == {0: 2, 1: 1, 2: 1}


@pytest.mark.parametrize(
    "r, k", [(5, 0), (5, 9), (5, 10), (5, 11), (5, 12), (6, 0), (8, 0), (8, 6)]
)
def test_min_codim_below_the_formula_finds_no_tableau_in_both_modes(r, k):
    # The incumbent starts at gmax + 1, so the budget, or the chain bound in
    # the generic regime and at even k, refuses the root at gmax = n - 1.
    n = expected_codim(r, k)
    assert min_codim_staircase(r, k, n - 1, True) == -1
    assert min_codim_staircase(r, k, n - 1, False) == -1


@pytest.mark.parametrize("r", [4, 5, 6])
def test_budget_mode_meets_the_formula_on_the_grid_rows(r):
    # Paranoid mode on these instances is acceptance row R11.
    for k in (0, 2, 3, 4, 5):
        n = expected_codim(r, k)
        for gmax in range(n - 1, n + 3):
            want = n if gmax >= n else -1
            assert min_codim_staircase(r, k, gmax, True) == want, (r, k, gmax)


@pytest.mark.parametrize("g, r, k", [(12, 5, 3), (13, 5, 6)])
def test_no_budget_mode_meets_the_formula_on_the_benchmark_instances(g, r, k):
    p = PrymParams(g, r, k)
    assert brute_min_codim(p, force=True, use_budget=False) == expected_codim(r, k)


# --------------------------------------------------------------------------
# Displacement enumeration helper


def test_enumerate_staircase_values_hand_counts():
    exact = sorted(enumerate_staircase_values(2, 0, 3))
    assert exact == [(1, 2, 3), (1, 3, 2)]
    modular = sorted(enumerate_staircase_values(2, 2, 3))
    assert modular == [
        (1, 2, 2), (1, 2, 3), (1, 3, 2), (1, 3, 3), (2, 3, 3),
    ]
    assert list(enumerate_staircase_values(0, 0, 3)) == [()]


def test_the_square_mode_yields_the_prym_squares_of_the_oracle():
    # The one filler with the fold a -> min(a, 2g - a) and g on its parity
    # class, against the oracle's filler with its is_prym test at each leaf.
    counts = {1: 0, 2: 0}
    for r, k, gm1, _ in _grid():
        if r <= 2:
            p = PrymParams(gm1 + 1, r, k)
            got = list(_prym_square_values(p))
            assert got == [t.values for t in prym_squares(p)], p
            assert all(is_prym(Tableau(square_shape(r), values), p) for values in got)
            counts[r] += len(got)
    assert counts == {1: 306, 2: 4_478}
