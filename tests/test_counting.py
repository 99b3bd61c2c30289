"""Unit tests for the four counting routes and their agreement."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from prymbn import counting
from prymbn.core import GuardRefused, InvalidInputError, InvariantError, PrymParams
from prymbn.counting import (
    BRUTE_SYMBOL_LIMIT,
    applicable_routes,
    cardinality,
    count_brute,
    count_even_determinant,
    count_generic,
    count_lattice_paths,
    count_linext,
    hook_length_syt_count,
    max_cell_count,
    route_counts,
    strip_poset_succ_masks,
)
from prymbn.dimension import expected_codim
from prymbn.selftest import CARDINALITY_TABLE
from prymbn.strips import StripShape, _words, horizontal_strip

from helpers import per_strip_count

ODD_CELLS = [(r, k) for r in range(3, 9) for k in range(3, 2 * r - 2, 2)]

# --------------------------------------------------------------------------
# Hook lengths


def test_hook_length_small_shapes():
    assert hook_length_syt_count([1]) == 1
    assert hook_length_syt_count([2, 1]) == 2
    assert hook_length_syt_count([3, 3]) == 5
    assert hook_length_syt_count([4, 3, 2, 1]) == 768


def test_hook_length_rejects_non_partitions():
    with pytest.raises(InvalidInputError):
        hook_length_syt_count([1, 2])
    with pytest.raises(InvalidInputError):
        hook_length_syt_count([2, 0])


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
@settings(max_examples=60)
def test_hook_length_matches_linear_extension_count(rows):
    partition = tuple(sorted(rows, reverse=True))
    boxes = sorted(
        ((x, y) for y, length in enumerate(partition, start=1)
         for x in range(1, length + 1)),
        key=lambda b: (b[0] + b[1], b[0]),
    )
    index = {b: i for i, b in enumerate(boxes)}
    succ = [0] * len(boxes)
    for (x, y), i in index.items():
        for nb in ((x + 1, y), (x, y + 1)):
            if nb in index:
                succ[i] |= 1 << index[nb]
    assert hook_length_syt_count(partition) == count_linext(succ)


def test_count_generic_matches_staircase_hooks():
    assert [count_generic(r) for r in range(1, 5)] == [1, 2, 16, 768]
    with pytest.raises(InvalidInputError):
        count_generic(0)


# --------------------------------------------------------------------------
# Determinant and lattice paths (even torsion)


def laplace_det(m: list[list[int]]) -> Fraction:
    """The oracle: Laplace expansion along the first row, over fractions."""
    if len(m) == 1:
        return Fraction(m[0][0])
    total, sign = Fraction(0), 1
    for j, entry in enumerate(m[0]):
        if entry:
            total += sign * entry * laplace_det([row[:j] + row[j + 1 :] for row in m[1:]])
        sign = -sign
    return total


def square_matrices(entries=st.integers(-6, 6)):
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


@given(square_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[0, 2], [0, 3]])
@settings(max_examples=300)
def test_bareiss_det_matches_the_laplace_oracle(m):
    assert counting._bareiss_det([row[:] for row in m]) == laplace_det(m)


@given(square_matrices(), st.data())
@settings(max_examples=150)
def test_bareiss_det_swaps_rows_past_zero_leading_pivots(m, data):
    # Zero the leading entries of a prefix of rows, so the first pivot, or a
    # later one, is zero and the elimination must swap a lower row in.
    n = len(m)
    zeroed = data.draw(st.integers(1, n))
    for row in m[:zeroed]:
        row[0] = 0
    assert counting._bareiss_det([row[:] for row in m]) == laplace_det(m)


@given(square_matrices(), st.data())
@settings(max_examples=150)
def test_bareiss_det_of_singular_matrices_is_zero(m, data):
    # A row repeated, scaled, or a sum of two others makes the matrix singular.
    n = len(m)
    if n == 1:
        m[0][0] = 0
    else:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = data.draw(st.integers(-2, 2))
        m[i] = [c * v for v in m[j]]
        if n > 2 and data.draw(st.booleans()):
            h = next(h for h in range(n) if h not in (i, j))
            m[h] = [a + b for a, b in zip(m[i], m[j])]
    assert laplace_det(m) == 0
    assert counting._bareiss_det([row[:] for row in m]) == 0


def test_even_routes_agree_on_every_applicable_cell():
    for r in range(2, 7):
        for k in range(2, 2 * r - 1, 2):
            det = count_even_determinant(r, k)
            assert det == count_lattice_paths(r, k)
            assert det == CARDINALITY_TABLE[(r, k)] if (r, k) in CARDINALITY_TABLE else True


def test_even_routes_reject_out_of_range_torsion():
    for fn in (count_even_determinant, count_lattice_paths):
        with pytest.raises(InvalidInputError):
            fn(3, 3)
        with pytest.raises(InvalidInputError):
            fn(3, 6)  # 2r - 1 < k
        with pytest.raises(InvalidInputError):
            fn(1, 2)


def test_lattice_paths_walk_long_paths_without_recursion():
    # 599 unit steps, past the interpreter's recursion limit; R2's C(r, 4) = 2^(r-1).
    assert count_lattice_paths(300, 4) == 2 ** 299


def test_determinant_at_scale_agrees_with_lattice_paths():
    want = 7091178212579018378920476016640
    assert count_even_determinant(10, 16) == want
    assert count_lattice_paths(10, 16) == want


def test_determinant_at_scale_runs_one_elimination_per_zero_sum_alpha(monkeypatch):
    # At (11, 20) the box holds 10 zero-sum tuples: all zero, and -1 on the
    # first coordinate with +1 on one of the nine others.  The value was
    # confirmed once by count_lattice_paths, which takes seconds here.
    calls = []
    eliminate = counting._bareiss_det

    def counted(m):
        calls.append(len(m))
        return eliminate(m)

    monkeypatch.setattr(counting, "_bareiss_det", counted)
    assert count_even_determinant(11, 20) == 5580411042398079970470240387028751021506560
    assert 0 < len(calls) <= 10
    assert set(calls) == {10}


@pytest.mark.parametrize("r, k, widen", [
    (4, 4, 0), (4, 4, 3), (4, 4, -1), (6, 4, -1), (7, 6, 1), (9, 6, 0), (8, 8, 2), (12, 8, 0),
])
def test_the_determinant_visits_the_zero_sum_tuples_of_its_box(r, k, widen):
    box = counting._alpha_box(r, k, widen)
    want = [alpha for alpha in product(*box) if sum(alpha) == 0]
    assert counting._zero_sum_tuples(box) == want
    assert want or widen < 0


def test_determinant_support_box_is_finite():
    for widen in (1, 3):
        assert count_even_determinant(4, 4, widen=widen) == count_even_determinant(4, 4)


def test_determinant_detects_a_narrowed_support_box(monkeypatch):
    # Narrowing the summation box must lose terms somewhere; this is the
    # negative control of the finite-support acceptance row.  ``widen`` takes
    # no negative value, so the box is narrowed under the determinant.
    full = {(r, k): count_even_determinant(r, k)
            for r in range(2, 7) for k in range(2, 2 * r - 1, 2)}
    box = counting._alpha_box
    monkeypatch.setattr(counting, "_alpha_box", lambda r, k, widen: box(r, k, widen - 1))
    assert [rk for rk, c in full.items() if count_even_determinant(*rk) != c]


# --------------------------------------------------------------------------
# Brute force over strips


def test_count_brute_matches_the_table_on_small_cells():
    for (r, k), want in sorted(CARDINALITY_TABLE.items()):
        if expected_codim(r, k) <= 10:
            assert count_brute(r, k) == want


def test_count_brute_guard():
    assert expected_codim(6, 0) > BRUTE_SYMBOL_LIMIT
    with pytest.raises(GuardRefused):
        count_brute(6, 0)


def test_count_brute_equals_the_per_strip_sum_at_odd_torsion():
    for r, k in ODD_CELLS:
        p = PrymParams(expected_codim(r, k) + 1, r, k)
        assert count_brute(r, k, force=True) == per_strip_count(p), (r, k)


def test_each_odd_strip_takes_its_pairs_from_its_letters():
    for r, k in ODD_CELLS:
        l = (k + 1) // 2
        fixed, letters = counting._letter_pairs(r, l)
        for word in _words(r, l):
            pairs = StripShape(r, l, word).order_pairs(1)
            own = set(fixed).union(*(sides[c == "N"] for c, sides in zip(word, letters)))
            assert len(pairs) == len(own) and set(pairs) == own, (r, l, word)


def test_letter_pairs_refuse_strips_that_disagree_on_t_l(monkeypatch):
    class Shifted(StripShape):
        def order_pairs(self, eps):
            pairs = super().order_pairs(eps)
            return pairs[1:] if "N" in self.word else pairs

    monkeypatch.setattr(counting, "StripShape", Shifted)
    with pytest.raises(InvariantError, match="disagree"):
        counting._letter_pairs(4, 2)


def test_strip_poset_masks_of_the_degenerate_strip():
    # Width r: no gluing relations, so linear extensions are standard fillings.
    mu = horizontal_strip(4, 0)
    masks = strip_poset_succ_masks(mu, 0)
    assert count_linext(masks) == count_generic(4)


# --------------------------------------------------------------------------
# The dispatcher


def test_cardinality_route_selection():
    assert cardinality(5, 0) == count_generic(5)
    assert cardinality(5, 9) == count_generic(5)  # above 2r - 2: generic regime
    assert cardinality(5, 4) == count_even_determinant(5, 4)
    assert cardinality(3, 3) == count_brute(3, 3)


def test_even_routes_are_not_offered_at_odd_torsion():
    # C(r, k) = C(r, k + 1) at odd k is checked by row R10, not used.
    for r in range(1, 12):
        for k in range(3, 2 * r + 4, 2):
            assert not {"det", "paths"} & set(applicable_routes(r, k))
            assert applicable_routes(r, k)[-1] == "brute"


def test_cardinality_named_methods():
    assert cardinality(4, 6, method="det") == 128
    assert cardinality(4, 6, method="paths") == 128
    assert cardinality(4, 6, method="brute") == 128
    assert cardinality(4, 0, method="hook") == 768
    with pytest.raises(InvalidInputError):
        cardinality(4, 6, method="hook")
    with pytest.raises(InvalidInputError):
        cardinality(4, 6, method="magic")


@pytest.mark.parametrize("r", range(1, 9))
def test_cardinality_refuses_exactly_the_routes_left_out(r):
    for k in [0, *range(2, 2 * r + 2)]:
        routes = applicable_routes(r, k)
        for method in ("hook", "det", "paths", "brute"):
            if method in routes:
                try:
                    assert cardinality(r, k, method) > 0
                except GuardRefused:
                    assert method == "brute"
                continue
            want = f"method '{method}' does not apply at \\(r, k\\) = \\({r}, {k}\\)"
            with pytest.raises(InvalidInputError, match=want):
                cardinality(r, k, method)


@pytest.mark.parametrize("k", [0, 2, 3, 4])
@pytest.mark.parametrize(
    "call",
    [
        applicable_routes,
        cardinality,
        lambda r, k: cardinality(r, k, "hook"),
        lambda r, k: cardinality(r, k, "brute"),
        lambda r, k: count_generic(r),
        count_even_determinant,
        count_lattice_paths,
        count_brute,
        route_counts,
    ],
)
def test_every_route_refuses_r_0(call, k):
    with pytest.raises(InvalidInputError, match="r must be at least 1, got 0"):
        call(0, k)


def test_route_counts_runs_every_route_its_guard_lets_run():
    assert route_counts(4, 6) == {"det": 128, "paths": 128, "brute": 128}
    assert route_counts(6, 0) == {"hook": 1100742656}  # brute is over its guard
    assert route_counts(3, 3) == {"brute": 4}
    with pytest.raises(GuardRefused, match="no counting route ran"):
        route_counts(8, 5)
    assert route_counts(8, 5, force=True) == {"brute": 2 ** 19}


def test_corrected_table_cells():
    # These two cells are corrected relative to a circulating misprint; all
    # independent routes agree on the corrected values.
    assert count_even_determinant(6, 6) == 8192
    assert count_lattice_paths(6, 6) == 8192
    assert count_even_determinant(5, 8) == 35840
    assert count_lattice_paths(5, 8) == 35840
    assert count_brute(5, 8) == 35840


def test_torsion_two_and_four_columns():
    for r in range(1, 7):
        assert cardinality(r, 2) == 1
        assert cardinality(r, 4) == (2 ** (r - 1) if r >= 2 else 1)


# Each counting entry point checks r and k as PrymParams does: a value of
# the wrong type, bool included, is refused and never computed with.
@pytest.mark.parametrize(
    "call, args",
    [
        (expected_codim, ("3", 2)),
        (cardinality, (2.0, 0)),
        (cardinality, (True, 0)),
        (count_generic, (True,)),
        (count_generic, ("3",)),
        (count_lattice_paths, (3, "a")),
        (count_even_determinant, (3.0, 2)),
        (count_brute, (3, None)),
        (applicable_routes, (3, 2.5)),
        (hook_length_syt_count, ([2.5],)),
        (hook_length_syt_count, ([True],)),
    ],
)
def test_counting_refuses_orders_of_the_wrong_type(call, args):
    with pytest.raises(InvalidInputError):
        call(*args)


def test_max_cell_count():
    assert max_cell_count(PrymParams(7, 3, 4)) == 24
    assert max_cell_count(PrymParams(12, 4, 0)) == 768 * 11
    with pytest.raises(InvalidInputError, match="empty"):
        max_cell_count(PrymParams(2, 2, 0))


def test_max_cell_count_of_a_symbol_subset(monkeypatch):
    p = PrymParams(7, 3, 4)
    assert max_cell_count(p, iter([5, 1, 2, 4, 3, 3])) == 4
    assert max_cell_count(p, range(1, 7)) == 24
    with pytest.raises(InvalidInputError, match=r"\[1, g-1\]"):
        max_cell_count(p, [1, 7])
    # Too few symbols for one cell: no cell, C(r, k) is never counted, and a
    # subset of an empty locus counts its cells too.
    monkeypatch.setattr(counting, "cardinality", None)
    assert max_cell_count(p, [1, 2, 3, 4]) == 0
    assert max_cell_count(PrymParams(2, 2, 0), [1]) == 0
