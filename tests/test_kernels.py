"""Value tests for the two search kernels: the staircase codimension search
in :mod:`prymbn.dimension` and linear-extension counting in
:mod:`prymbn.counting`."""

from __future__ import annotations

import math
import sys

import pytest

from prymbn.core import PrymParams
from prymbn.counting import count_linext
from prymbn.dimension import (
    brute_min_codim,
    enumerate_staircase_values,
    min_codim_staircase,
)
from prymbn.strips import enumerate_strip_tableaux


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
    results = set()
    for r in (2, 3):
        for k in (0, 2, 3, 4):
            for gmax in (3, 5, 8):
                got = min_codim_staircase(r, k, gmax, use_budget=True)
                assert got == min_codim_staircase(r, k, gmax, use_budget=False)
                results.add(got)
    assert -1 in results  # the grid reaches unfillable targets too


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
