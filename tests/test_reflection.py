"""Unit tests for loose boxes, the reflectification sweep, and its inverses."""

from __future__ import annotations

import random
from itertools import islice

import pytest

from prymbn import core, reflection
from prymbn.core import (
    InvalidInputError,
    InvariantError,
    PrymParams,
    Tableau,
    anti_diagonal,
    dominates,
    explicit_shape,
    is_prym,
    is_reflective,
    reflect_box,
    square_shape,
    staircase_shape,
)
from prymbn.dimension import _prym_square_values, enumerate_staircase_tableaux
from prymbn.reflection import (
    extend_to_reflective,
    loose_boxes,
    reflectify,
    reflectify_states,
    reflectify_trace,
    restrict_to_staircase,
    upward_displacement,
)
from prymbn.selftest import REFLECTION_TRACE, _grid

from helpers import prym_squares, square, stair

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


@pytest.mark.parametrize("classes, k", [
    (3, 2), (0, 0), ("01", 2),  # not an iterable of classes
    (["a"], 2), ([1.0], 2), ([True], 2), ([None], 0),  # not an int
    ([2], 2), ([-1], 3), ([0, 5], 5),  # outside [0, k)
])
def test_loose_boxes_refuse_a_bad_class_argument(classes, k):
    with pytest.raises(InvalidInputError, match="class"):
        loose_boxes([(1, 1)], classes, k)
    with pytest.raises(InvalidInputError, match="class"):
        upward_displacement([(1, 1)], classes, k)


@pytest.mark.parametrize("k", ["a", None, 2.5, 2.0, True])
def test_loose_boxes_refuse_a_torsion_order_that_is_no_int(k):
    with pytest.raises(InvalidInputError, match="k must be"):
        loose_boxes([(1, 1)], None, k)
    with pytest.raises(InvalidInputError, match="k must be"):
        upward_displacement([(1, 1)], [0], k)


def test_loose_boxes_take_any_integer_class_at_torsion_zero():
    assert loose_boxes([(1, 1)], [-1, 7], 0) == frozenset({(1, 2)})
    assert loose_boxes([(1, 1)], (), 3) == frozenset()


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
            assert cur.replaced <= loose_boxes(prev.kappa, None, p.k)


def _grid_tableaux():
    """Up to 100 tableaux spread over the first 1000 of each r = 3, 4 grid type."""
    for r, k, gm1, _ in _grid():
        if r in (3, 4):
            p = PrymParams(gm1 + 1, r, k)
            for t in islice(enumerate_staircase_tableaux(p), 0, 1000, 10):
                yield extend_to_reflective(t, p), p


def paper_sweep(t, p):
    """The paper's sweep, transcribed step by step: the loose boxes of
    ``kappa`` inside ``T_r``, their least threshold ``min(t(w), 2g - t(w*))``,
    and that threshold on the boxes reaching it, its dual on their mirrors.
    Returns each state as ``(step, tableau, threshold, kappa, replaced)``."""
    r, g = p.r, p.g
    kappa, s = frozenset(), t
    states = [(0, t, 0, kappa, frozenset())]
    while kappa != staircase_shape(r).boxes:
        loose = [w for w in loose_boxes(kappa, None, p.k) if anti_diagonal(w) <= r]
        below = {w: s.at(w) for w in loose}
        above = {w: 2 * g - s.at(reflect_box(w, r)) for w in loose}
        n = min(min(below.values()), min(above.values()))
        replaced = frozenset(w for w in loose if n in (below[w], above[w]))
        updates = {}
        for w in replaced:
            updates[w], updates[reflect_box(w, r)] = n, 2 * g - n
        s = s.with_values(updates)
        kappa |= replaced
        states.append((len(states), s, n, kappa, replaced))
    main = tuple((x, r + 2 - x) for x in range(1, r + 2))  # the main anti-diagonal
    states.append((len(states), s.with_values({b: g for b in main}), g, kappa,
                   frozenset(main)))
    return states


def _states(t, p):
    return [(st.step, st.tableau, st.threshold, st.kappa, st.replaced)
            for st in reflectify_states(t, p)]


def test_the_sweep_matches_the_papers_on_the_golden_input_and_the_grid():
    cases = [(_trace_tableaux()[0], PrymParams(11, 4, 3)), *_grid_tableaux()]
    assert len(cases) == 950
    for t, p in cases:
        assert _states(t, p) == paper_sweep(t, p)


def _perturbed_squares(count, seed):
    """``count`` Prym squares at r = 3, 4 that are not reflective: reflective
    extensions with a few values moved inside their cover bounds, kept when
    Prym with the g-fiber in the parity class r mod 2."""
    rng = random.Random(seed)
    bases = list(_grid_tableaux())
    out = []
    while len(out) < count:
        e, p = rng.choice(bases)
        idx = e.shape.index
        values = list(e.values)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(values))
            x, y = idx.boxes[i]
            lo = max((values[j] for j in (idx.west[i], idx.south[i]) if j >= 0), default=0)
            hi = min((values[idx.slot[b]] for b in ((x + 1, y), (x, y + 1))
                      if b in idx.slot), default=2 * p.g)
            if hi - lo > 1:
                values[i] = rng.randrange(lo + 1, hi)
        t = Tableau(e.shape, tuple(values))
        if (is_prym(t, p) and not is_reflective(t, p)
                and all((x - y) % 2 == p.r % 2 for x, y in t.fiber(p.g))):
            out.append((t, p))
    return out


def _enumerated_squares():
    """The non-reflective Prym squares of the r <= 2 grid types whose g-fiber
    lies in the class r mod 2, from the filler's square mode."""
    for r, k, gm1, _ in _grid():
        if r <= 2:
            p = PrymParams(gm1 + 1, r, k)
            for values in _prym_square_values(p):
                t = Tableau(square_shape(r), values)
                if (not is_reflective(t, p)
                        and all((x - y) % 2 == r % 2 for x, y in t.fiber(p.g))):
                    yield t, p


def test_the_sweep_matches_the_papers_on_non_reflective_squares():
    cases = _perturbed_squares(300, seed=1912)
    assert len({t.values for t, _ in cases}) > 250
    assert {p.r for _, p in cases} == {3, 4}
    enumerated = list(islice(_enumerated_squares(), 0, None, 10))
    assert len(enumerated) == 423 and {p.r for _, p in enumerated} == {1, 2}
    for t, p in cases + enumerated:
        assert _states(t, p) == paper_sweep(t, p)


def _counted_signatures(monkeypatch):
    """The tableaux ``core._square_signature`` is called on, in order."""
    calls = []
    build = core._square_signature

    def counted(t, p):
        calls.append(t)
        return build(t, p)

    monkeypatch.setattr(core, "_square_signature", counted)
    return calls


def _changing_steps(t, p):
    """The steps of the paper's sweep, final step aside, that change a slot."""
    states = paper_sweep(t, p)
    return sum(a[1] != b[1] for a, b in zip(states, states[1:-1]))


def _signature_cases():
    golden = (_trace_tableaux()[0], PrymParams(11, 4, 3))
    return [golden, *islice(_grid_tableaux(), 0, None, 25), *_perturbed_squares(12, seed=29)]


def test_the_sweep_builds_each_signature_once(monkeypatch):
    # The anchors build a whole signature each, the input's and the result's,
    # and each step that changes a slot builds its new state's once.  A step
    # that changes nothing is the state checked before.  Rebuilding one per
    # dominance check, as a sweep that calls is_prym and dominates does,
    # costs about three per step.
    cases = _signature_cases()
    changing = [_changing_steps(t, p) for t, p in cases]
    assert changing[0] == 4 and not any(changing[1:39]) and sum(changing[39:]) == 9
    calls = _counted_signatures(monkeypatch)
    for (t, p), n in zip(cases, changing):
        calls.clear()
        reflectify_states(t, p)
        assert len(calls) == 2 + n


def test_reflectify_returns_the_tableau_its_final_check_read(monkeypatch):
    # The result is built once, for the final reflective check, and handed over.
    cases = _signature_cases()
    changing = [_changing_steps(t, p) for t, p in cases]
    calls = _counted_signatures(monkeypatch)
    for (t, p), n in zip(cases, changing):
        calls.clear()
        final = reflectify(t, p)
        assert len(calls) == 2 + n and calls[-1] is final
        states = reflectify_states(t, p)
        assert states[-1].tableau == final and calls[-1] is states[-1].tableau


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


def test_reflectify_on_the_one_box_square():
    # T_0 is empty: no step, and the final state fills the one box with g.
    p = PrymParams(2, 0, 0)
    for v in (1, 2, 3):
        t = square([[v]])
        assert reflectify(t, p) == square([[2]])
        assert reflectify_trace(t, p) == [t, square([[2]])]


def _lenient_input_check(monkeypatch):
    """Let the input check pass any square, Prym or not."""
    monkeypatch.setattr(reflection, "_prym_signature", core._square_signature)


def test_thresholds_that_fail_to_increase_along_a_cover_raise(monkeypatch):
    # f(1,1) = min(5, 20 - 15) = 5 but f(2,1) = min(3, 20 - 17) = 3.
    t = square([[10, 13, 15], [7, 10, 17], [5, 3, 10]])
    p = PrymParams(10, 2, 0)
    with pytest.raises(InvalidInputError):
        reflectify(t, p)
    _lenient_input_check(monkeypatch)
    with pytest.raises(InvariantError, match=r"increase from \(1, 1\) to \(2, 1\)"):
        reflectify_states(t, p)


def test_a_threshold_of_g_or_more_raises(monkeypatch):
    # f(1,1) = min(4, 6 - 2) = 4 > g - 1 = 2.
    t = square([[3, 2], [4, 3]])
    p = PrymParams(3, 1, 0)
    with pytest.raises(InvalidInputError):
        reflectify(t, p)
    _lenient_input_check(monkeypatch)
    with pytest.raises(InvariantError, match="threshold 4 exceeds g - 1 = 2"):
        reflectify_states(t, p)


def _adds_a_pair(fn):
    def patched(t, p):
        pairs, g_parities = fn(t, p)
        return pairs | {(-1, 1)}, g_parities

    return patched


@pytest.mark.parametrize("name, wrap, message", [
    ("_reflective_signature", lambda fn: lambda t, p: None, "non-reflective"),
    ("_reflective_signature", _adds_a_pair, "does not dominate its input"),
])
def test_each_state_check_fires_under_an_injected_fault(monkeypatch, name, wrap, message):
    monkeypatch.setattr(reflection, name, wrap(getattr(reflection, name)))
    with pytest.raises(InvariantError, match=message):
        reflectify_states(_trace_tableaux()[0], PrymParams(11, 4, 3))


def _golden_slot(box):
    return square_shape(4).index.slot[box]


# Each bad step rewrites the golden sweep's updates at one step (g = 11).
# Step 1 writes 1 on (1, 1) and keeps 21 on its mirror (5, 5); step 2
# writes 3 on (2, 1) and 19 on its mirror (5, 4).
@pytest.mark.parametrize("step, bad, message", [
    # g on (1, 1) is no new key (g sits in parity class 0 already) and no
    # second class, but it exceeds (1, 2) = 4 and (2, 1) = 5 above it.
    (1, {(1, 1): 11}, "step 1 left the Prym class"),
    # The mirror (5, 4) keeps the dual of step 1's threshold, 21, which
    # meets (5, 5) = 21 above it.
    (2, {(5, 4): 21}, "step 2 left the Prym class"),
    # 2 on (1, 2) moves the folded symbol 2 from class 0, which step 1
    # empties, to class 2: still Prym, but a pair the state before lacks.
    (1, {(1, 2): 2}, "step 1 broke dominance"),
], ids=["wrong-value", "stale-mirror", "new-pair"])
def test_each_step_check_fires_on_an_injected_bad_step(monkeypatch, step, bad, message):
    step_updates, calls = reflection._step_updates, []

    def corrupted(*args):
        updates = step_updates(*args)
        calls.append(updates)
        if len(calls) == step:
            updates = {**updates, **{_golden_slot(b): v for b, v in bad.items()}}
        return updates

    monkeypatch.setattr(reflection, "_step_updates", corrupted)
    with pytest.raises(InvariantError, match=message):
        reflectify(_trace_tableaux()[0], PrymParams(11, 4, 3))


def _r7_inputs():
    """R7's inputs: every reflective extension on its r <= 3 rows, and a
    seeded sample of up to 20 from each of its r = 4 rows."""
    rng = random.Random(1219)
    for r, k, gm1, _ in _grid():
        p = PrymParams(gm1 + 1, r, k)
        tableaux = list(enumerate_staircase_tableaux(p))
        if r == 4:
            tableaux = rng.sample(tableaux, min(len(tableaux), 20))
        for t in tableaux:
            yield extend_to_reflective(t, p), p


def test_the_sweep_matches_the_papers_on_r7_inputs_and_perturbed_squares():
    cases = [*_r7_inputs(), *_perturbed_squares(100, seed=7)]
    assert {p.r for _, p in cases} == {1, 2, 3, 4}
    for t, p in cases:
        states = _states(t, p)
        assert states == paper_sweep(t, p)
        assert dominates(states[-1][1], t, p)


def test_the_sweep_result_dominates_every_prym_square_it_takes():
    # The sweep's claim, through the public predicate, on every Prym square
    # of the r <= 2 grid types with its g-fiber in the class r mod 2.  The
    # 412 squares without g are the ones whose result gains g: (1, 2, 3, 7)
    # at (4, 1, 0) goes to (1, 4, 4, 7).
    cases = [
        (t, p)
        for r, k, gm1, _ in _grid() if r <= 2
        for p in [PrymParams(gm1 + 1, r, k)]
        for t in prym_squares(p)
        if all((x - y) % 2 == r % 2 for x, y in t.fiber(p.g))
    ]
    assert len(cases) == 4_396 and sum(p.g not in t.symbols for t, p in cases) == 412
    for t, p in cases:
        assert dominates(reflectify(t, p), t, p)
    t, p = Tableau(square_shape(1), (1, 2, 3, 7)), PrymParams(4, 1, 0)
    assert (t, p) in cases and reflectify(t, p).values == (1, 4, 4, 7)


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
