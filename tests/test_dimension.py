"""Unit tests for the codimension formula, dimension, witnesses, and the oracle."""

from __future__ import annotations

from math import comb

import pytest

from prymbn.core import (
    GuardRefused,
    InvalidInputError,
    PrymParams,
    codimension,
    generic_regime,
    is_displacement,
    is_tableau,
)
from prymbn.dimension import (
    BRUTE_BOX_LIMIT,
    brute_min_codim,
    enumerate_staircase_tableaux,
    expected_codim,
    minimal_witness,
    pbn_dimension,
)
from prymbn.strips import effective_width
from prymbn.strips import horizontal_strip, is_non_repeating


def test_expected_codim_generic_is_the_full_staircase():
    for r in range(0, 7):
        assert expected_codim(r, 0) == comb(r + 1, 2)
        if r >= 1:
            assert expected_codim(r, 2 * r + 1) == comb(r + 1, 2)


def test_expected_codim_strip_formula():
    assert expected_codim(4, 3) == 7  # l = 2: 3 + 2 * 2
    assert expected_codim(3, 4) == 5  # l = 2: 3 + 2 * 1
    assert expected_codim(8, 5) == 21  # l = 3: 6 + 3 * 5
    assert expected_codim(5, 2) == 5  # l = 1: 1 + 4


def test_expected_codim_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        expected_codim(-1, 0)
    with pytest.raises(InvalidInputError):
        expected_codim(3, 1)


def test_pbn_dimension():
    assert pbn_dimension(PrymParams(23, 8, 5)) == 1
    assert pbn_dimension(PrymParams(7, 3, 4)) == 1
    assert pbn_dimension(PrymParams(12, 4, 0)) == 11 - 10
    assert pbn_dimension(PrymParams(2, 2, 0)) is None


def test_minimal_witness_properties():
    for g, r, k in ((7, 3, 4), (12, 4, 0), (9, 3, 3), (23, 8, 5)):
        p = PrymParams(g, r, k)
        w = minimal_witness(p)
        assert is_tableau(w) and is_displacement(w, k)
        assert codimension(w, p) == expected_codim(r, k)
        assert is_non_repeating(w, horizontal_strip(r, k), p)
    assert minimal_witness(PrymParams(2, 2, 0)) is None


def test_brute_min_codim_agrees_with_the_formula():
    for r, k in ((1, 0), (2, 0), (2, 2), (3, 0), (3, 2), (3, 3), (3, 4), (3, 5)):
        n = expected_codim(r, k)
        p = PrymParams(n + 2, r, k)
        assert brute_min_codim(p) == n


def test_brute_min_codim_guard_and_force():
    p = PrymParams(7, 5, 2)  # T_5 has 15 boxes, above the guard
    assert 5 * 6 // 2 > BRUTE_BOX_LIMIT
    with pytest.raises(GuardRefused):
        brute_min_codim(p)
    assert brute_min_codim(p, force=True) == expected_codim(5, 2)


def test_brute_min_codim_paranoid_mode_matches():
    p = PrymParams(8, 3, 3)
    assert brute_min_codim(p, use_budget=False) == brute_min_codim(p)


def test_brute_min_codim_rejects_unfillable_targets():
    with pytest.raises(InvalidInputError, match="no displacement tableau"):
        brute_min_codim(PrymParams(2, 2, 0))


def test_enumerate_staircase_tableaux_hand_count():
    # T_2 -> [3] at torsion 0: the three boxes sit on distinct exact
    # diagonals, so fillings are injective above the corner: exactly two.
    got = list(enumerate_staircase_tableaux(PrymParams(4, 2, 0)))
    assert len(got) == 2
    assert {tuple(t.values) for t in got} == {(1, 2, 3), (1, 3, 2)}


def test_enumerate_staircase_tableaux_torsion_two_allows_repeats():
    # Torsion 2 lets (1, 2) and (2, 1) share a symbol: any pair above the
    # corner value works, equal or not.
    got = list(enumerate_staircase_tableaux(PrymParams(4, 2, 2)))
    assert len(got) == 5
    assert {tuple(t.values) for t in got} == {
        (1, 2, 2), (1, 2, 3), (1, 3, 2), (1, 3, 3), (2, 3, 3),
    }


def ref_expected_codim(r, k):
    """The closed form with its two branches: a strip narrower than r, or T_r."""
    l = r if k == 0 else (k + 1) // 2
    if l <= r - 1:
        return comb(l + 1, 2) + l * (r - l)
    return comb(r + 1, 2)


def test_the_strip_is_all_of_the_staircase_exactly_in_the_generic_regime():
    for r in range(40):
        for k in (0, *range(2, 90)):
            assert (effective_width(r, k) == r) == generic_regime(r, k), (r, k)
            assert expected_codim(r, k) == ref_expected_codim(r, k), (r, k)
