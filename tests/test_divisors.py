"""Unit tests for folded chains and tableau-indexed chip divisors."""

from __future__ import annotations

from fractions import Fraction

import pytest

from prymbn.core import InvalidInputError, InvariantError, PrymParams, codimension
from prymbn.dimension import minimal_witness
from prymbn.divisors import (
    ChipDivisor,
    ChipEntry,
    FoldedChain,
    loop_torsion,
    make_folded_chain,
    tableau_to_divisor,
)
from prymbn.strips import enumerate_strip_tableaux

from helpers import square, stair

# --------------------------------------------------------------------------
# Arc-length torsion and chain construction


def test_loop_torsion_values():
    assert loop_torsion(Fraction(1), Fraction(1)) == 2
    assert loop_torsion(Fraction(1), Fraction(3)) == 4
    assert loop_torsion(Fraction(2), Fraction(2)) == 2
    assert loop_torsion(Fraction(3, 2), Fraction(1, 2)) == 4
    assert loop_torsion(Fraction(2, 3), Fraction(4, 3)) == 3


def test_loop_torsion_rejects_nonpositive_arcs():
    with pytest.raises(InvalidInputError, match="positive"):
        loop_torsion(Fraction(0), Fraction(1))
    with pytest.raises(InvalidInputError, match="positive"):
        loop_torsion(Fraction(1), Fraction(-2))


def test_make_folded_chain_defaults():
    chain = make_folded_chain(5, 3)
    assert chain.lengths == ((Fraction(1), Fraction(2)),) * 5
    assert chain.loop_count == 9
    assert chain.base_loop(1) == 1 and chain.base_loop(9) == 1
    assert chain.base_loop(5) == 5 and chain.base_loop(6) == 4
    assert chain.circumference(2) == 3 == chain.circumference(8)
    assert chain.circumference(5) == 6  # the middle loop is doubled
    with pytest.raises(InvalidInputError, match="loop index"):
        chain.base_loop(10)


def test_make_folded_chain_rejects_exact_displacement():
    with pytest.raises(InvalidInputError, match="torsion 0"):
        make_folded_chain(5, 0)
    with pytest.raises(InvalidInputError, match="at least 2"):
        make_folded_chain(5, 1)


def test_make_folded_chain_custom_lengths():
    chain = make_folded_chain(
        3, 4, [(1, 3), ("1/2", "3/2"), (Fraction(2), Fraction(6))]
    )
    assert chain.circumference(2) == 2 == chain.circumference(4)
    assert chain.circumference(3) == 16
    with pytest.raises(InvalidInputError, match="torsion 2"):
        make_folded_chain(2, 4, [(1, 3), (1, 1)])
    with pytest.raises(InvalidInputError, match="rational"):
        make_folded_chain(2, 2, [(1.5, 0.5), (1, 1)])
    with pytest.raises(InvalidInputError, match="per base loop"):
        make_folded_chain(3, 2, [(1, 1)])


def test_make_folded_chain_refuses_malformed_arguments():
    with pytest.raises(InvalidInputError, match="must be integers"):
        make_folded_chain("3", 2)
    with pytest.raises(InvalidInputError, match="must be integers"):
        make_folded_chain(3, "2")
    with pytest.raises(InvalidInputError, match=r"\(m, l\) pair"):
        make_folded_chain(2, 2, [(1, 1), (1,)])
    with pytest.raises(InvalidInputError, match=r"\(m, l\) pair"):
        make_folded_chain(2, 2, [(1, 1), 3])


def test_folded_chain_validation():
    with pytest.raises(InvalidInputError, match="g must be"):
        FoldedChain(1, 2, ((Fraction(1), Fraction(1)),))
    with pytest.raises(InvalidInputError, match="at least 2"):
        FoldedChain(2, 1, ((Fraction(1), Fraction(1)),) * 2)


# --------------------------------------------------------------------------
# Chip entries and divisor invariants


def test_chip_entry_free_flag():
    assert ChipEntry(2, None).free
    assert not ChipEntry(2, Fraction(1, 2)).free


def _entries(g, positions):
    return tuple(ChipEntry(a, positions.get(a)) for a in range(1, 2 * g))


def test_chip_divisor_invariants():
    chain = make_folded_chain(3, 2)
    zero = Fraction(0)
    good = _entries(3, {1: zero, 3: zero, 5: zero})
    div = ChipDivisor(chain, good, 1)
    assert div.degree == 4 and div.dimension == 1 and div.free_loops == (2, 4)
    assert div.entry(3).loop == 3

    with pytest.raises(InvariantError, match="exactly once"):
        ChipDivisor(chain, good[:-1], 1)
    with pytest.raises(InvariantError, match="multiplicity 1"):
        ChipDivisor(chain, (ChipEntry(1, zero, mult=2),) + good[1:], 1)
    with pytest.raises(InvariantError, match="outside loop"):
        ChipDivisor(chain, (ChipEntry(1, Fraction(5, 2)),) + good[1:], 1)
    with pytest.raises(InvariantError, match="disagree"):
        ChipDivisor(chain, good[:4] + (ChipEntry(5, Fraction(1)),), 1)
    with pytest.raises(InvariantError, match="parity-pinned"):
        ChipDivisor(chain, _entries(3, {1: zero, 5: zero}), 1)
    with pytest.raises(InvariantError, match="non-negative"):
        ChipDivisor(chain, good, -1)


# --------------------------------------------------------------------------
# Staircase tableaux to divisors


def test_witness_divisor_staircase():
    p = PrymParams(7, 3, 4)
    chain = make_folded_chain(7, 4)
    t = minimal_witness(p)
    div = tableau_to_divisor(t, chain)
    assert div.degree == 2 * p.g - 2 == 12
    assert div.dimension == p.g - 1 - codimension(t, p) == 1
    assert len(div.free_loops) == 2  # one free pair, seen from both sides
    assert div.entry(7).pos == 4  # middle chip at the odd-r parity position
    for a in range(1, 7):
        assert div.entry(a).pos == div.entry(14 - a).pos
    for box, v in t.items():
        x, y = box
        assert div.entry(v).pos == (x - y) % 4  # m_a = 1, circumference 4


def test_witness_divisor_even_rank_parity():
    p = PrymParams(9, 2, 3)
    chain = make_folded_chain(9, 3)
    div = tableau_to_divisor(minimal_witness(p), chain)
    assert div.entry(9).pos == 0  # even r pins the middle chip at the origin
    assert div.degree == 16


def test_staircase_divisor_dimension_matches_cells():
    p = PrymParams(9, 3, 3)
    chain = make_folded_chain(9, 3)
    t = minimal_witness(p)
    div = tableau_to_divisor(t, chain)
    assert div.dimension == p.g - 1 - codimension(t, p) == 3
    free = set(div.free_loops)
    assert len(free) == 6 and all(2 * p.g - a in free for a in free)


def test_staircase_divisor_input_validation():
    chain = make_folded_chain(3, 2)
    with pytest.raises(InvalidInputError, match="displacement"):
        tableau_to_divisor(stair([[3], [2, 4], [1, 3, 4]]), chain)
    with pytest.raises(InvalidInputError, match="exceed the codomain"):
        tableau_to_divisor(stair([[3], [1, 3]]), chain)
    st = next(iter(enumerate_strip_tableaux(PrymParams(7, 3, 4))))
    with pytest.raises(InvalidInputError, match="square or staircase"):
        tableau_to_divisor(st.entries, chain)


# --------------------------------------------------------------------------
# Square tableaux to divisors


def test_square_divisor_golden():
    chain = make_folded_chain(3, 2)
    t = square([[3, 5], [1, 3]])
    div = tableau_to_divisor(t, chain)
    assert div is not None
    assert div.degree == 4
    assert div.entry(1).pos == 0 == div.entry(5).pos
    assert div.entry(3).pos == 2  # r = 1 is odd: middle chip at half-way
    assert div.free_loops == (2, 4)
    assert div.dimension == 3 - 1 - codimension(t, PrymParams(3, 1, 2)) == 1


def test_square_divisor_parity_mismatch_is_empty():
    chain = make_folded_chain(3, 2)
    u = square([[4, 5], [3, 4]])  # the g-fiber sits on even offsets, r is odd
    assert tableau_to_divisor(u, chain) is None


def test_square_divisor_requires_prym():
    chain = make_folded_chain(3, 2)
    w = square([[2, 4], [1, 3]])  # dual pair (2, 4) straddles two classes
    with pytest.raises(InvalidInputError, match="Prym"):
        tableau_to_divisor(w, chain)
