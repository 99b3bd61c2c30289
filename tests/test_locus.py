"""Unit tests for edit operations, walks, descent, and the circle graph."""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import fields
from fractions import Fraction

import pytest

from prymbn import core, counting, locus, strips
from prymbn.core import (
    GuardRefused,
    InvalidInputError,
    InvariantError,
    PrymParams,
    Tableau,
    canonical_boxes,
    class_symbol_sets,
    dominates,
    explicit_shape,
    staircase_shape,
)
from prymbn.dimension import (
    enumerate_staircase_tableaux,
    expected_codim,
    minimal_witness,
    pbn_dimension,
)
from prymbn.locus import (
    IntersectionGraph,
    MaximalCell,
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
from prymbn.locus import _collapse
from prymbn.selftest import DESCENT_START, _grid
from prymbn.strips import (
    StripTableau,
    enumerate_strip_tableaux,
    extend_strip_tableau,
    strips_admitting,
)

from helpers import stair

def first_miss(t):
    """The first slot not holding its 1-based canonical position, or the
    box count when ``t`` is the standard filling."""
    return next((i for i, v in enumerate(t.values) if v != i + 1), len(t.values))


# --------------------------------------------------------------------------
# Edit operations


def test_swap_into_identity_and_rejections():
    t = stair([[4], [3, 7], [2, 6, 9], [1, 5, 8, 10]])
    assert swap_into(t, 4, (1, 4)) == t  # resident symbol: identity
    with pytest.raises(InvalidInputError, match="absent"):
        swap_into(t, 1, (2, 1))  # 1 already sits elsewhere in the tableau
    with pytest.raises(InvalidInputError, match="upper neighbor"):
        swap_into(t, 11, (1, 1))
    with pytest.raises(InvalidInputError, match="outside the shape"):
        swap_into(t, 11, (9, 9))


def test_swap_into_names_the_first_failing_pair_through_the_box():
    # On the chained T_3 the pairs are the box's covers, in cover order; on
    # a box set failing the cover rule (a gap in column 2) they are the
    # comparable pairs through the box, in the order of the whole scan.
    t = stair([[12], [6, 10], [2, 4, 8]])
    gap = {(1, 1): 2, (2, 1): 4, (1, 2): 6, (1, 3): 8, (2, 3): 10}
    u = Tableau.from_mapping(explicit_shape(gap), gap)
    assert t.shape.index.chained and not u.shape.index.chained
    for tab, a, box, message in [
        (t, 5, (2, 2), "symbol 5 does not exceed lower neighbor (1, 2) holding 6"),
        (t, 3, (3, 1), "symbol 3 does not exceed lower neighbor (2, 1) holding 4"),
        (t, 11, (2, 1), "symbol 11 is not exceeded by upper neighbor (3, 1) holding 8"),
        (u, 5, (2, 3), "symbol 5 does not exceed lower neighbor (1, 2) holding 6"),
        (u, 12, (2, 1), "symbol 12 is not exceeded by upper neighbor (2, 3) holding 10"),
        (u, 9, (1, 2), "symbol 9 is not exceeded by upper neighbor (1, 3) holding 8"),
    ]:
        with pytest.raises(InvalidInputError) as err:
            swap_into(tab, a, box)
        assert str(err.value) == message
    assert swap_into(t, 7, (2, 2)).at((2, 2)) == 7


def test_swap_into_strict_multiplicity():
    t = stair([[3], [2, 4], [1, 2, 4]])
    # (2, 2) holds 4, which also appears at (3, 1): strict mode refuses.
    with pytest.raises(InvalidInputError, match="appears 2 times"):
        swap_into(t, 5, (2, 2))
    relaxed = swap_into(t, 5, (2, 2), strict=False)
    assert relaxed.at((2, 2)) == 5
    assert len(relaxed.symbols) == len(t.symbols) + 1


def test_swap_in_for():
    t = stair([[3], [2, 4], [1, 2, 4]])
    s = swap_in_for(t, 5, 4)
    assert s.fiber(5) == ((2, 2), (3, 1)) and 4 not in s.symbols
    assert swap_in_for(t, 6, 5) == t  # absent source symbol: identity
    with pytest.raises(InvalidInputError, match="absent"):
        swap_in_for(t, 3, 4)  # 3 already present
    with pytest.raises(InvalidInputError, match="tableau condition"):
        swap_in_for(t, 6, 2)  # 6 beats its east neighbor 4 in the bottom row


def test_cycle_out_shifts_every_symbol_between():
    t = stair([[4], [3, 7], [2, 6, 9], [1, 5, 8, 10]])
    up = cycle_out(t, 3, 11)
    assert up == stair([[5], [4, 8], [2, 7, 10], [1, 6, 9, 11]])
    assert len(cycle_out_trace(t, 3, 11)) - 1 == 8
    assert cycle_out(up, 11, 3) == t  # the inverse relabeling
    assert cycle_out(t, 11, 3) == t  # absent symbol: identity
    with pytest.raises(InvalidInputError, match="absent"):
        cycle_out(t, 3, 4)  # 4 is present, not free


# --------------------------------------------------------------------------
# The generic walk (standard-filling figure, T_4, g = 12, k = 0)


WALK_STATES = [
    [[4], [3, 7], [2, 6, 9], [1, 5, 8, 10]],
    [[5], [4, 8], [2, 7, 10], [1, 6, 9, 11]],
    [[5], [4, 8], [2, 7, 10], [1, 3, 9, 11]],
    [[6], [4, 8], [2, 7, 10], [1, 3, 9, 11]],
    [[6], [4, 8], [2, 5, 10], [1, 3, 9, 11]],
    [[7], [4, 8], [2, 5, 10], [1, 3, 9, 11]],
    [[7], [4, 8], [2, 5, 10], [1, 3, 6, 11]],
    [[7], [4, 8], [2, 5, 9], [1, 3, 6, 11]],
    [[7], [4, 8], [2, 5, 9], [1, 3, 6, 10]],
]


def test_generic_walk_reproduces_the_figure():
    p = PrymParams(12, 4, 0)
    states = [stair(s) for s in WALK_STATES]
    assert states[-1] == minimal_witness(p)  # the standard filling, 1..10 in canonical order
    assert first_miss(states[0]) == 2 and first_miss(states[-1]) == 10
    path = connect_path(states[0], states[-1], p)
    assert len(path) == 16  # eight operations, the first expanded into eight
    assert [path.index(f) for f in states] == [0, 8, 9, 10, 11, 12, 13, 14, 15]
    for a, b in zip(path, path[1:]):
        assert is_adjacent(a, b, p)
    assert not is_adjacent(states[0], states[-1], p)


def test_generic_walk_operation_replay():
    states = [stair(s) for s in WALK_STATES]
    t = states[0]
    t = cycle_out(t, 3, 11)
    assert t == states[1]
    t = swap_into(t, 3, (2, 1))
    assert t == states[2]
    t = cycle_out(t, 5, 6)
    assert t == states[3]
    t = swap_into(t, 5, (2, 2))
    assert t == states[4]
    t = cycle_out(t, 6, 7)
    assert t == states[5]
    t = swap_into(t, 6, (3, 1))
    assert t == states[6]
    t = swap_into(t, 9, (3, 2))
    assert t == states[7]
    t = swap_into(t, 10, (4, 1))
    assert t == states[8]


def test_connect_path_endpoints_and_identity():
    p = PrymParams(12, 4, 0)
    a = stair(WALK_STATES[0])
    b = stair(WALK_STATES[-1])
    assert connect_path(a, a, p) == [a]
    rev = connect_path(b, a, p)
    assert rev[0] == b and rev[-1] == a


def test_connect_path_validates_inputs():
    with pytest.raises(InvalidInputError, match="dimension"):
        connect_path(stair([[2], [1, 2]]), stair([[2], [1, 2]]), PrymParams(3, 3, 0))
    p = PrymParams(8, 3, 2)
    injective = Tableau(staircase_shape(3), tuple(range(1, 7)))
    with pytest.raises(InvalidInputError, match="non-repeating"):
        connect_path(injective, injective, p)


# --------------------------------------------------------------------------
# Odd-torsion height descent


def test_height_needs_odd_torsion():
    with pytest.raises(InvalidInputError, match="odd torsion"):
        height(stair([[2], [1, 2]]), PrymParams(5, 2, 2))


def test_descent_golden_example():
    p = PrymParams(23, 8, 5)
    t = stair([
        [17],
        [15, 16],
        [11, 14, 18],
        [9, 12, 17, 19],
        [8, 10, 15, 16, 20],
        [5, 7, 11, 14, 18, 21],
        [2, 6, 9, 12, 13, 15, 16],
        [1, 3, 4, 5, 7, 11, 14, 18],
    ])
    assert expected_codim(8, 5) == 21 and pbn_dimension(p) == 1
    assert height(t, p) == 5
    step = height_descent_step(t, p)
    assert step.v == t  # nothing to clear: g-1 and g-2 already in place
    assert step.u == t.with_values({(7, 2): 22})
    assert step.s == step.u.with_values({(5, 2): 17, (6, 2): 19})
    assert step.strip.word == "NEEEE"
    assert step.path == (t, step.s)
    assert height(step.s, p) == 4
    assert frozenset(range(1, 23)) - t.symbols == frozenset({22})
    assert frozenset(range(1, 23)) - step.s.symbols == frozenset({13})
    assert is_adjacent(step.v, step.s, p)
    assert dominates(step.v, step.u, p) and dominates(step.s, step.u, p)


def test_descent_parks_the_top_symbol_when_it_is_the_only_free_one():
    # Dimension-1 regression: after clearing g-1 = 6 the only free symbol
    # is 6 itself, so g-2 = 5 cannot be cycled out; the step must instead
    # park 6 on the target box and relabel it in place.
    p = PrymParams(7, 3, 3)
    t = stair([[6], [4, 5], [1, 2, 4]])
    assert pbn_dimension(p) == 1
    assert height(t, p) == 3
    step = height_descent_step(t, p)
    assert step.v == stair([[4], [3, 5], [1, 2, 3]])
    assert step.u == stair([[4], [3, 5], [1, 2, 6]])
    assert step.s == stair([[4], [3, 5], [1, 4, 6]])
    assert step.strip.word == "E"
    assert height(step.s, p) == 2
    for a, b in zip(step.path, step.path[1:]):
        assert is_adjacent(a, b, p)


def test_descent_rejects_minimal_height():
    p = PrymParams(9, 3, 3)
    w = minimal_witness(p)
    assert height(w, p) == p.l
    with pytest.raises(InvalidInputError, match="minimal"):
        height_descent_step(w, p)


def test_full_descent_reaches_the_witness():
    p = PrymParams(23, 8, 5)
    t = stair([
        [17],
        [15, 16],
        [11, 14, 18],
        [9, 12, 17, 19],
        [8, 10, 15, 16, 20],
        [5, 7, 11, 14, 18, 21],
        [2, 6, 9, 12, 13, 15, 16],
        [1, 3, 4, 5, 7, 11, 14, 18],
    ])
    path = connect_path(t, minimal_witness(p), p)
    assert path[0] == t and path[-1] == minimal_witness(p)


def test_descent_scans_the_strips_once_per_step(monkeypatch):
    # The golden tableau sits two rows above mu_0.  Each endpoint's strip
    # is found once, by the endpoint check, and gives its height; after that
    # every step starts from the strip the step before it checked.
    p = PrymParams(23, 8, 5)
    t = stair([list(row) for row in DESCENT_START])
    assert height(t, p) == p.l + 2
    scans = []
    strip_of = locus._strip_of

    def spy(tab, params):
        scans.append(tab)
        return strip_of(tab, params)

    monkeypatch.setattr(locus, "_strip_of", spy)
    path = connect_path(t, minimal_witness(p), p)
    assert len(scans) == 2  # the endpoint checks alone
    # The two descent steps still ran, each from the strip it was handed.
    assert len({height(s, p) for s in path}) == 3


def test_walk_check_reads_each_state_once_and_never_calls_is_adjacent(monkeypatch):
    # One check of the collapsed walk covers every descent step: no step is
    # re-validated through is_adjacent, and each state's cell is read once.
    calls = {"is_adjacent": 0, "_cell_pairs": 0}

    def spy(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(locus, "is_adjacent", spy("is_adjacent", is_adjacent))
    monkeypatch.setattr(locus, "_cell_pairs", spy("_cell_pairs", locus._cell_pairs))
    odd = PrymParams(23, 8, 5)
    even = PrymParams(7, 3, 4)
    cells = enumerate_maximal_cells(even)
    for a, b, p in ((stair([list(row) for row in DESCENT_START]), minimal_witness(odd), odd),
                    (cells[-1].tableau, cells[3].tableau, even)):
        calls.update(is_adjacent=0, _cell_pairs=0)
        path = connect_path(a, b, p)
        assert len(path) > 2
        assert calls == {"is_adjacent": 0, "_cell_pairs": len(path)}


def test_walk_check_raises_invariant_error_on_a_bad_state():
    p = PrymParams(7, 3, 4)
    cells = [c.tableau for c in enumerate_maximal_cells(p)]
    a = cells[0]
    locus._check_walk([a, cells[1]], p)
    with pytest.raises(InvariantError, match="non-adjacent"):
        locus._check_walk([a, cells[-1]], p)
    with pytest.raises(InvariantError, match="walk state"):
        locus._check_walk([a, a.with_values({(1, 1): 7})], p)
    odd = PrymParams(23, 8, 5)
    step = height_descent_step(stair([list(row) for row in DESCENT_START]), odd)
    with pytest.raises(InvariantError, match="number of distinct symbols"):
        locus._check_walk([step.v, step.u], odd)


def ref_descent_s(t, u, p):
    """``height_descent_step(t, p).s`` from its pivot ``u``, with the
    translation chain from each row-H box written out by hand."""
    (mu,) = strips_admitting(t, p)
    l, y = p.l, mu.height
    x = min(bx for bx, by in mu.boxes if by == y)
    shape = staircase_shape(p.r)
    overrides = {}
    for i in range(p.r - (x + y - 1) + 1):
        w = (x + i + l - 1, y - l)
        while w in shape:
            overrides[w] = u.at((x + i, y))
            w = (w[0] + l, w[1] - (l - 1))
    return u.with_values(overrides)


@pytest.mark.parametrize("g, r, k", [(7, 3, 3), (9, 4, 3), (11, 4, 5)])
def test_height_step_matches_the_hand_written_chain(g, r, k):
    p = PrymParams(g, r, k)
    steps = 0
    for cell in enumerate_maximal_cells(p):
        if height(cell.tableau, p) > p.l:
            step = height_descent_step(cell.tableau, p)
            assert step.s == ref_descent_s(cell.tableau, step.u, p)
            steps += 1
    assert steps


def test_height_step_golden_matches_the_hand_written_chain():
    p = PrymParams(23, 8, 5)
    t = stair([list(row) for row in DESCENT_START])
    step = height_descent_step(t, p)
    assert step.s == ref_descent_s(t, step.u, p)


# --------------------------------------------------------------------------
# Degenerate torsion: the strip walk against the injective descent


def ref_descend_injective(t, p):
    """Walk an injective tableau down to the standard filling with
    ``swap_into``; every step moves the first miss along the whole shape."""
    boxes = canonical_boxes(t.shape)
    states = [t]
    while (miss := first_miss(states[-1])) < len(boxes):
        free = min(set(range(1, p.g)) - states[-1].symbols)
        assert free >= miss + 1
        states.extend(cycle_out_trace(states[-1], miss + 1, free)[1:])
        states.append(swap_into(states[-1], miss + 1, boxes[miss]))
        assert first_miss(states[-1]) > miss
    return states


def random_injective(p, rng):
    """A minimal tableau of degenerate torsion: a random standard filling of
    ``T_r`` relabelled by a random increasing choice of symbols."""
    shape = staircase_shape(p.r)
    symbols = sorted(rng.sample(range(1, p.g), len(shape)))
    filled = {}
    while len(filled) < len(shape):
        corners = sorted(
            (x, y) for x, y in shape.boxes - filled.keys()
            if (x == 1 or (x - 1, y) in filled) and (y == 1 or (x, y - 1) in filled)
        )
        filled[rng.choice(corners)] = symbols[len(filled)]
    return Tableau.from_mapping(shape, filled)


def test_degenerate_walks_match_the_injective_descent():
    rng = random.Random(2026)
    instances = 0
    for r, k, gm1, _ in _grid():
        p = PrymParams(gm1 + 1, r, k)
        if not (k == 0 or k > 2 * r) or (pbn_dimension(p) or 0) < 1:
            continue
        instances += 1
        for _ in range(16):
            t, s = random_injective(p, rng), random_injective(p, rng)
            want = [t] if t == s else _collapse(
                ref_descend_injective(t, p) + ref_descend_injective(s, p)[-2::-1]
            )
            assert connect_path(t, s, p) == want
    assert instances == 16


# --------------------------------------------------------------------------
# Adjacency


def test_is_adjacent_cases():
    p = PrymParams(5, 2, 2)
    t = stair([[2], [1, 2]])
    assert is_adjacent(t, t, p)  # equal symbol sets count as touching
    assert is_adjacent(t, stair([[3], [1, 3]]), p)  # trade 2 for 3
    with pytest.raises(InvalidInputError, match="same shape"):
        is_adjacent(t, Tableau(staircase_shape(3), tuple(range(1, 7))), p)
    with pytest.raises(InvalidInputError, match="distinct symbols"):
        is_adjacent(t, stair([[3], [1, 2]]), p)
    with pytest.raises(InvalidInputError, match="displacement"):
        is_adjacent(t, t, PrymParams(5, 2, 0))
    with pytest.raises(InvalidInputError, match=r"outside \[1, g-1\]"):
        is_adjacent(stair([[4], [1, 4]]), stair([[4], [1, 4]]), PrymParams(4, 2, 2))


@pytest.mark.parametrize(
    "t, s",
    [
        (Tableau.from_rows([[1, 2], [3]]), Tableau.from_rows([[1, 4], [3]])),  # on T_2
        (Tableau.from_rows([[1, 2, 3]]), Tableau.from_rows([[1, 2, 4]])),  # one row
    ],
)
def test_is_adjacent_refuses_tableaux_off_the_staircase(t, s):
    with pytest.raises(InvalidInputError, match="not on the staircase T_3"):
        is_adjacent(t, s, PrymParams(7, 3, 4))


def test_is_adjacent_builds_each_cell_once(monkeypatch):
    built = []

    def spy(t, k):
        built.append(t)
        return cell_pairs(t, k)

    cell_pairs = core._cell_pairs
    monkeypatch.setattr(core, "_cell_pairs", spy)
    monkeypatch.setattr(locus, "_cell_pairs", spy)
    p = PrymParams(7, 3, 4)
    tabs = list(enumerate_staircase_tableaux(p))[:40]
    for t in tabs:
        for s in tabs:
            if len(t.symbols) == len(s.symbols):
                built.clear()
                is_adjacent(t, s, p)
                assert built == [t, s]


def ref_is_adjacent(t, s, p):
    """The per-class adjacency rule on two valid tableaux with equally many
    symbols: per diagonal class the symbol sets agree, or one class trades
    one symbol for another, or one class gains a symbol another loses."""
    st, ss = class_symbol_sets(t, p.k), class_symbol_sets(s, p.k)
    empty = frozenset()
    dif = [c for c in set(st) | set(ss) if st.get(c, empty) != ss.get(c, empty)]
    if not dif:
        return bool(t.symbols)
    deltas = [
        (ss.get(c, empty) - st.get(c, empty), st.get(c, empty) - ss.get(c, empty))
        for c in dif
    ]
    if len(dif) == 1:
        gained, lost = deltas[0]
        return len(gained) == 1 and len(lost) == 1
    if len(dif) == 2:
        pure_gain = [g for g, lo in deltas if len(g) == 1 and not lo]
        pure_loss = [lo for g, lo in deltas if len(lo) == 1 and not g]
        return len(pure_gain) == 1 and len(pure_loss) == 1 and pure_gain[0] != pure_loss[0]
    return False


def test_is_adjacent_matches_the_per_class_rule():
    rng = random.Random(5)
    verdicts = defaultdict(int)
    for r in (1, 2, 3):
        for k in (0, 2, 3, 4, 5):
            n = expected_codim(r, k)
            for g in range(n + 1, min(n + 4, 9)):
                p = PrymParams(g, r, k)
                by_size = defaultdict(list)
                for t in enumerate_staircase_tableaux(p):
                    by_size[len(t.symbols)].append(t)
                for group in by_size.values():
                    pairs = [(a, b) for a in group for b in group]
                    if len(pairs) > 2000:
                        pairs = rng.sample(pairs, 2000)
                    for t, s in pairs:
                        got = is_adjacent(t, s, p)
                        assert got == ref_is_adjacent(t, s, p), (p, t, s)
                        verdicts[got] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000, dict(verdicts)


def test_random_pairs_walk_and_land():
    rng = random.Random(7)
    for g, r, k in ((9, 3, 3), (8, 3, 2), (10, 3, 0)):
        p = PrymParams(g, r, k)
        assert pbn_dimension(p) >= 1
        cells = enumerate_maximal_cells(p)
        for _ in range(10):
            a, b = rng.choice(cells), rng.choice(cells)
            path = connect_path(a.tableau, b.tableau, p)
            assert path[0] == a.tableau and path[-1] == b.tableau


# --------------------------------------------------------------------------
# Maximal cells


def test_enumerate_maximal_cells_counts_and_free_symbols():
    p = PrymParams(7, 3, 4)
    cells = enumerate_maximal_cells(p)
    assert len(cells) == 24
    assert len({c.tableau for c in cells}) == 24
    assert all(len(c.free_symbols) == 1 for c in cells)
    assert all(c.free_symbols.isdisjoint(c.tableau.symbols) for c in cells)


def test_a_maximal_cell_derives_its_free_symbols_from_its_tableau():
    assert [f.name for f in fields(MaximalCell)] == ["params", "strip", "tableau"]
    p = PrymParams(7, 3, 4)
    for cell in enumerate_maximal_cells(p):
        assert cell.free_symbols == frozenset(range(1, p.g)) - cell.tableau.symbols


def test_enumerating_cells_scans_each_strip_filling_once(monkeypatch):
    calls = {"_order_failure": 0, "is_non_repeating": 0}
    for module, name in ((strips, "_order_failure"), (strips, "is_non_repeating"),
                         (locus, "is_non_repeating")):
        real = getattr(module, name)

        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    assert len(enumerate_maximal_cells(PrymParams(7, 3, 4))) == 24
    assert calls == {"_order_failure": 24, "is_non_repeating": 0}


def test_cells_are_the_extended_strip_tableaux_on_the_grid():
    # The cell path checks each filling by the shared rule and builds no strip
    # tableau; the strip-tableau path must give the same cells, in order.
    for r, k, gm1, _ in _grid():
        p = PrymParams(gm1 + 1, r, k)
        for symbols in (None, range(2, p.g)):
            want = [
                MaximalCell(p, st.strip, extend_strip_tableau(st))
                for st in enumerate_strip_tableaux(p, symbols)
            ]
            assert enumerate_maximal_cells(p, symbols) == want, (p, symbols)


def test_a_fault_of_the_shared_filling_rule_stops_both_paths(monkeypatch):
    p = PrymParams(7, 3, 4)
    st = next(enumerate_strip_tableaux(p))
    monkeypatch.setattr(strips, "_strip_filling_fault", lambda *args: "is planted")
    with pytest.raises(InvalidInputError, match="^is planted$"):
        StripTableau(st.strip, st.entries, p)
    with pytest.raises(InvariantError, match="strip search yielded a filling: is planted"):
        enumerate_maximal_cells(p)


def test_a_symbol_subset_keeps_the_cells_drawing_from_it(monkeypatch):
    p = PrymParams(7, 3, 4)
    subset = [5, 1, 2, 4, 3, 3]
    want = [c for c in enumerate_maximal_cells(p) if c.tableau.symbols <= {1, 2, 3, 4, 5}]
    assert enumerate_maximal_cells(p, subset) == want and len(want) == 4
    with pytest.raises(InvalidInputError, match=r"\[1, g-1\]"):
        enumerate_maximal_cells(p, [1, 7])
    # Too few symbols for one cell: no cell, and C(r, k) is never counted.
    monkeypatch.setattr(counting, "cardinality", None)
    assert enumerate_maximal_cells(p, [1, 2, 3, 4]) == []


def test_enumerate_maximal_cells_guard():
    p = PrymParams(17, 5, 0)  # 292864 tableaux, one free-symbol choice each
    with pytest.raises(GuardRefused, match="desk-scale"):
        enumerate_maximal_cells(p)


# --------------------------------------------------------------------------
# The dim-1 circle graph


def test_intersection_graph_small_pins():
    p = PrymParams(5, 3, 2)
    G = build_intersection_graph(p)
    assert (len(G.circles), G.v, G.e, G.components) == (4, 3, 6, 1)
    assert G.circle_vertex_counts == (1, 2, 2, 1)
    assert betti_number(G) == 4 == betti_closed_form(p)
    assert average_intersections(G) == Fraction(3, 2)
    for w in G.vertices:
        assert w.a != w.b and w.i < w.j


def test_intersection_graph_generic_pins():
    for g, r, k, circles, v, betti in (
        (3, 1, 0, 2, 1, 2),
        (5, 2, 0, 8, 8, 9),
        (8, 3, 0, 112, 168, 169),
    ):
        p = PrymParams(g, r, k)
        G = build_intersection_graph(p)
        assert (len(G.circles), G.v, G.e, G.components) == (circles, v, 2 * v, 1)
        assert betti_number(G) == betti == betti_closed_form(p)
        assert average_intersections(G) == Fraction(r)


def test_small_torsion_chain_betti():
    for r in range(1, 5):
        p = PrymParams(expected_codim(r, 2) + 2, r, 2)
        G = build_intersection_graph(p)
        assert betti_number(G) == r + 1 == betti_closed_form(p)


def ref_vertex_pairs(cells, p):
    """Vertex pairs of the circle graph by per-class keying: each circle is
    bucketed under its class -> symbol sets with one symbol removed, as a
    sorted tuple, and two circles of one bucket with different free
    symbols meet."""
    def key(sig):
        return tuple(sorted((c, tuple(sorted(fs))) for c, fs in sig.items()))

    buckets = defaultdict(list)
    for idx, cell in enumerate(cells):
        sig = class_symbol_sets(cell.tableau, p.k)
        for cls, fs in sig.items():
            for sym in fs:
                reduced = dict(sig)
                if fs - {sym}:
                    reduced[cls] = fs - {sym}
                else:
                    del reduced[cls]
                buckets[key(reduced)].append(idx)
    return {
        (i, j)
        for members in buckets.values()
        for i in members
        for j in members
        if i < j and cells[i].free_symbols != cells[j].free_symbols
    }


def ref_components(n, edges):
    """Connected components of ``n`` circles joined along ``edges``."""
    seen, components = set(), 0
    for start in range(n):
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            for a, b in edges:
                j = b if a == i else a if b == i else None
                if j is not None and j not in seen:
                    seen.add(j)
                    stack.append(j)
    return components


R4_INSTANCES = (
    [(7, 3, 4)]
    + [(expected_codim(r, 2) + 2, r, 2) for r in range(1, 7)]
    + [(expected_codim(r, 4) + 2, r, 4) for r in range(2, 6)]
    + [(expected_codim(r, 0) + 2, r, 0) for r in (2, 3)]
)
# Odd torsion, where cells lie in every strip, and the generic regime at k > 0.
ODD_AND_GENERIC_INSTANCES = [
    (3, 1, 3), (3, 1, 5), (5, 2, 3), (5, 2, 5), (7, 3, 3), (8, 3, 5), (9, 4, 3), (11, 5, 4),
]


@pytest.mark.parametrize("g,r,k", R4_INSTANCES + ODD_AND_GENERIC_INSTANCES)
def test_graph_vertices_match_the_per_class_bucketing(g, r, k):
    p = PrymParams(g, r, k)
    G = build_intersection_graph(p)
    want = ref_vertex_pairs(G.circles, p)
    assert [(w.i, w.j) for w in G.vertices] == sorted(want)
    for w in G.vertices:
        assert {w.a} == G.circles[w.i].free_symbols and {w.b} == G.circles[w.j].free_symbols
    assert G.components == ref_components(len(G.circles), want)
    assert G.circle_vertex_counts == tuple(
        sum(c in pair for pair in want) for c in range(len(G.circles))
    )


@pytest.mark.parametrize("g, r, k", [(8, 3, 0), (7, 3, 4)])
def test_graph_reads_each_circle_once_and_never_calls_is_adjacent(monkeypatch, g, r, k):
    calls = {"is_adjacent": 0, "_cell_pairs": 0}

    def spy(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(locus, "is_adjacent", spy("is_adjacent", is_adjacent))
    monkeypatch.setattr(locus, "_cell_pairs", spy("_cell_pairs", locus._cell_pairs))
    G = build_intersection_graph(PrymParams(g, r, k))
    assert calls == {"is_adjacent": 0, "_cell_pairs": len(G.circles)}
    assert G.e == 2 * G.v == sum(G.circle_vertex_counts)


def test_intersection_graph_requires_dimension_one():
    with pytest.raises(InvalidInputError, match="1-dimensional"):
        build_intersection_graph(PrymParams(8, 3, 2))


def test_betti_closed_form_scope():
    with pytest.raises(InvalidInputError, match="dimension 1"):
        betti_closed_form(PrymParams(8, 3, 2))
    with pytest.raises(InvalidInputError, match="closed form"):
        betti_closed_form(PrymParams(7, 3, 3))


def test_average_intersections_needs_circles():
    empty = IntersectionGraph(PrymParams(5, 3, 2), (), (), 0, 0, 0, ())
    with pytest.raises(InvalidInputError, match="no circles"):
        average_intersections(empty)


def test_graph_to_dot_output():
    G = build_intersection_graph(PrymParams(5, 3, 2))
    dot = graph_to_dot(G)
    lines = dot.splitlines()
    assert lines[0] == "graph locus {" and lines[-1] == "}"
    assert dot.count(" -- ") == G.e
    loops = graph_to_dot(build_intersection_graph(PrymParams(3, 1, 0)))
    assert "v0 -- v0" in loops  # single-vertex circles render as self-loops
