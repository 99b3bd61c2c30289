"""Unit tests for loose boxes, the reflectification sweep, and its inverses."""

from __future__ import annotations

from itertools import islice

import pytest

from prymbn import core
from prymbn.core import (
    InvalidInputError,
    PrymParams,
    dominates,
    explicit_shape,
    is_prym,
    is_reflective,
    staircase_shape,
)
from prymbn.dimension import enumerate_staircase_tableaux
from prymbn.reflection import (
    extend_to_reflective,
    loose_boxes,
    reflectify,
    reflectify_states,
    reflectify_trace,
    restrict_to_staircase,
    upward_displacement,
    _staircase_loose,
)
from prymbn.selftest import REFLECTION_TRACE, _grid

from helpers import square, stair

# --------------------------------------------------------------------------
# Loose boxes


def test_loose_boxes_of_the_empty_partition():
    assert loose_boxes([], None, 0) == frozenset({(1, 1)})


def test_loose_boxes_requires_a_partition():
    with pytest.raises(InvalidInputError, match="partition"):
        loose_boxes([(2, 1)], None, 0)
    with pytest.raises(InvalidInputError):
        loose_boxes([(1, 1)], None, 1)


def test_loose_boxes_with_class_filter():
    lam = [(1, 1), (2, 1)]
    assert loose_boxes(lam, None, 2) == frozenset({(3, 1), (1, 2)})
    assert loose_boxes(lam, [0], 2) == frozenset({(3, 1)})  # (3,1) has offset 2
    assert loose_boxes(lam, [1], 2) == frozenset({(1, 2)})


@pytest.mark.parametrize(
    "lam",
    [[(1.7, 1)], [(True, 1)], [(0, 1)], [("x", 1)], [(1,)],
     [5], 5, [None], [(1, [2])]],  # not iterable, or not hashable
)
def test_loose_boxes_check_caller_boxes_like_a_shape(lam):
    with pytest.raises(InvalidInputError, match="box"):
        loose_boxes(lam, None, 0)
    with pytest.raises(InvalidInputError, match="box"):
        upward_displacement(lam, None, 0)
    with pytest.raises(InvalidInputError, match="box"):
        explicit_shape(lam)


def test_upward_displacement_grows_by_the_loose_boxes():
    lam = frozenset({(1, 1)})
    grown = upward_displacement(lam, None, 0)
    assert grown.boxes == frozenset({(1, 1), (2, 1), (1, 2)})


# --------------------------------------------------------------------------
# The sweep


def _trace_tableaux():
    return [square([list(row) for row in s]) for s in REFLECTION_TRACE]


def test_reflectify_step_invariants_on_the_golden_trace():
    p = PrymParams(11, 4, 3)
    states = reflectify_states(_trace_tableaux()[0], p)
    thresholds = [st.threshold for st in states]
    assert thresholds[0] == 0 and thresholds[-1] == p.g
    assert all(a < b for a, b in zip(thresholds[1:-1], thresholds[2:-1]))
    kappas = [st.kappa for st in states]
    assert all(a <= b for a, b in zip(kappas, kappas[1:]))
    assert kappas[-1] == staircase_shape(p.r).boxes
    for prev, cur in zip(states, states[1:]):
        assert is_prym(cur.tableau, p)
        assert dominates(cur.tableau, prev.tableau, p)
        if cur.step < len(states) - 1:
            assert cur.replaced <= prev.loose


def _grid_tableaux():
    """Up to 100 tableaux spread over the first 1000 of each r = 3, 4 grid type."""
    for r, k, gm1, _ in _grid():
        if r in (3, 4):
            p = PrymParams(gm1 + 1, r, k)
            for t in islice(enumerate_staircase_tableaux(p), 0, 1000, 10):
                yield extend_to_reflective(t, p), p


def test_incremental_loose_sets_are_exact():
    cases = [(_trace_tableaux()[0], PrymParams(11, 4, 3)), *_grid_tableaux()]
    assert len(cases) == 950
    for t, p in cases:
        for state in reflectify_states(t, p)[:-1]:
            assert state.loose == _staircase_loose(state.kappa, p.r, p.k)


def test_the_sweep_builds_each_signature_once(monkeypatch):
    # One signature per state; rebuilding one per dominance check, as a
    # sweep that calls is_prym and dominates does, costs about three per step.
    calls = []
    build = core._square_signature

    def counted(t, p):
        calls.append(t)
        return build(t, p)

    monkeypatch.setattr(core, "_square_signature", counted)
    golden = (_trace_tableaux()[0], PrymParams(11, 4, 3))
    for t, p in [golden, *islice(_grid_tableaux(), 0, None, 25)]:
        calls.clear()
        states = reflectify_states(t, p)
        assert len(calls) <= len(states) + 1


def test_reflectify_is_idempotent():
    p = PrymParams(11, 4, 3)
    final = reflectify(_trace_tableaux()[0], p)
    assert is_reflective(final, p)
    assert reflectify(final, p) == final
    assert reflectify_trace(final, p)[-1] == final


def test_reflectify_rejects_non_prym_input():
    p = PrymParams(3, 1, 2)
    with pytest.raises(InvalidInputError):
        reflectify(square([[2, 4], [1, 3]]), p)  # dual pair split across classes


def test_reflectify_rejects_misparitied_middle_symbol():
    p = PrymParams(3, 1, 2)
    t = square([[4, 5], [3, 4]])  # g = 3 at (1, 1): parity 0, but r is odd
    assert is_prym(t, p)
    with pytest.raises(InvalidInputError, match="parity"):
        reflectify(t, p)


# --------------------------------------------------------------------------
# Extension and restriction


def test_extend_restrict_round_trip():
    p = PrymParams(6, 3, 4)
    for t in enumerate_staircase_tableaux(p):
        e = extend_to_reflective(t, p)
        assert is_reflective(e, p)
        assert restrict_to_staircase(e, p) == t
        # A reflective tableau is a fixed point of the sweep.
        assert reflectify(e, p) == e


def test_extend_to_reflective_validates_input():
    from prymbn.dimension import minimal_witness

    p = PrymParams(6, 3, 4)
    with pytest.raises(InvalidInputError):
        extend_to_reflective(stair([[1], [1, 2], [1, 2, 3]]), p)
    # The witness repeats symbol 5 across offsets -2 and 2: fine mod 4,
    # invalid at torsion 0.
    with pytest.raises(InvalidInputError):
        extend_to_reflective(minimal_witness(p), PrymParams(6, 3, 0))
    with pytest.raises(InvalidInputError, match=r"\[1, g-1\]"):
        extend_to_reflective(stair([[6], [2, 4], [1, 3, 5]]), p)


def test_restrict_to_staircase_requires_reflective():
    p = PrymParams(11, 4, 3)
    with pytest.raises(InvalidInputError):
        restrict_to_staircase(_trace_tableaux()[0], p)
