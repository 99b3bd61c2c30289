"""Maximal cells, adjacency, connectivity walks, and the dim-1 circle graph.

The locus decomposes into maximal cells indexed by strip tableaux, counted
by :func:`~prymbn.counting.max_cell_count`.  Two cells are adjacent when
their (diagonal class, symbol) pair sets differ by one pair each way, the
dropped pairs carrying different symbols: one rule, ``_dropped_adjacent``,
which ``_pairs_adjacent`` and the circle graph's buckets read.
Every pair of cells is joined by a constructive walk built from three edit
operations (swap into a box, swap a symbol in for another, cycle a symbol
out).  One walk down the horizontal strip mu_0 serves every torsion; odd
torsion first lowers the strip height to that of mu_0.  Both descents end
on the standard filling of mu_0 extended by its repeat map.

The walk runs on value tuples over the slots of ``staircase_shape(r)``,
through the one edit path the public operations also take after their
input checks: ``_put``, ``_relabel`` and ``_cycle``.  Each check runs in
one place.  Every state built passes the symbol rule for its incoming
symbol, that symbol's absence and the cover scan of the tableau condition,
in the edit that builds it.  The non-repeating rule
(``strips._non_repeating``, read through mu's slot tables) runs at the end
of each descent step, and each height step checks its pivots
(``_check_descent``).  Only the states a walk returns are built as
tableaux, and ``_check_walk`` checks each of them once.

A one-dimensional locus is a union of circles meeting at points; this
module builds that graph, computes its first Betti number, and exports it
as DOT.  Cell enumeration refuses a generic type far past
:data:`CELL_GUARD` on the hook bound, before C(r, k) is counted.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log10
from typing import Iterable, Iterator, Sequence

from .core import (
    Box,
    GuardRefused,
    InvalidInputError,
    InvariantError,
    PrymParams,
    ShapeIndex,
    Tableau,
    _canon,
    _cell_pairs,
    _check_params,
    _expect,
    _same_shape,
    _shape_of,
    _slot,
    _symbol_fault,
    displacement_fault,
    dominates,
    generic_regime,
    staircase_fault,
    staircase_shape,
    symbol_fault,
)
from .counting import _hook_log10, _log10_comb, count_generic, max_cell_count
from .dimension import expected_codim, pbn_dimension
from .strips import (
    StripShape,
    _cell_symbols,
    _non_repeating,
    _strip,
    _strip_extensions,
    _strip_of,
    horizontal_strip,
)

__all__ = [
    "CELL_GUARD",
    "GraphVertex",
    "HeightDescent",
    "IntersectionGraph",
    "MaximalCell",
    "average_intersections",
    "betti_closed_form",
    "betti_number",
    "build_intersection_graph",
    "connect_path",
    "cycle_out",
    "cycle_out_trace",
    "enumerate_maximal_cells",
    "graph_to_dot",
    "height",
    "height_descent_step",
    "is_adjacent",
    "swap_in_for",
    "swap_into",
]

CELL_GUARD = 100_000


# --------------------------------------------------------------------------
# Edit operations


def swap_into(t: Tableau, a: int, box: Box, *, strict: bool = True) -> Tableau:
    """Place ``a`` at ``box``; the previous symbol there disappears.

    ``a`` must be absent, exceed every box below ``box`` and be exceeded by
    every box above it: the tableau condition (``ShapeIndex.violations``),
    read on the pairs through the box's slot.  In strict mode the replaced
    symbol must occur exactly once, so the distinct-symbol count is
    preserved.  Swapping the resident symbol into its own box is the
    identity.  The edit is ``_put`` on the slot values.
    """
    idx = _shape_of(t).index
    values = _put(idx, t.values, _slot(idx, box), a, strict)
    return t if values is t.values else Tableau(t.shape, values)


def swap_in_for(t: Tableau, a: int, b: int) -> Tableau:
    """Replace every box holding ``b`` with ``a`` (identity when ``b`` absent).
    The edit is ``_relabel`` on the slot values."""
    values = _relabel(_shape_of(t).index, t.values, a, b)
    return t if values is t.values else Tableau(t.shape, values)


def cycle_out_trace(t: Tableau, b: int, a: int) -> list[Tableau]:
    """States of cycling ``b`` out of the tableau using the free symbol ``a``.

    Every symbol from ``b`` toward ``a`` shifts by one in ``a``'s direction,
    one relabeling per state; consecutive states are adjacent.  Returns
    ``[t]`` unchanged when ``b`` is absent or equals ``a``.  A free symbol
    ``a`` that breaks the symbol rule is refused first.  The states are
    ``_cycle``'s on the slot values.
    """
    shape = _shape_of(t)
    return [t, *(Tableau(shape, values) for values in _cycle(shape.index, t.values, b, a))]


def cycle_out(t: Tableau, b: int, a: int) -> Tableau:
    """The tableau with ``b`` cycled out using the free symbol ``a``."""
    return cycle_out_trace(t, b, a)[-1]


# The slot-level edits, with the checks the module docstring lists.  An
# identity edit returns ``values`` itself, which the public operations
# above read to hand back their input tableau.


def _require_symbol(a: int) -> None:
    if fault := _symbol_fault((a,)):
        raise InvalidInputError(fault)


def _require_absent(values: tuple[int, ...], a: int, op: str) -> None:
    if a in values:
        raise InvalidInputError(f"{op} needs symbol {a} absent from the tableau")


def _put(
    idx: ShapeIndex, values: tuple[int, ...], i: int, a: int, strict: bool
) -> tuple[int, ...]:
    """:func:`swap_into` on the slot values: ``values`` with ``a`` at slot ``i``."""
    old = values[i]
    if a == old:
        return values
    _require_symbol(a)
    _require_absent(values, a, "swap_into")
    out = (*values[:i], a, *values[i + 1 :])
    for lo, hi in idx.violations(out):
        if i == hi:
            raise InvalidInputError(
                f"symbol {a} does not exceed lower neighbor {idx.boxes[lo]} holding {out[lo]}"
            )
        if i == lo:
            raise InvalidInputError(
                f"symbol {a} is not exceeded by upper neighbor {idx.boxes[hi]} holding {out[hi]}"
            )
    if strict and (mult := values.count(old)) != 1:
        raise InvalidInputError(
            f"replaced symbol {old} appears {mult} times; swap_into would"
            " change the distinct-symbol count"
        )
    return out


def _relabel(idx: ShapeIndex, values: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """:func:`swap_in_for` on the slot values: every ``b`` becomes ``a``."""
    if a == b or b not in values:
        return values
    _require_absent(values, a, "swap_in_for")
    _require_symbol(a)
    out = tuple([a if v == b else v for v in values])
    if next(idx.violations(out), None) is not None:
        raise InvalidInputError(f"swapping {a} in for {b} violates the tableau condition")
    return out


def _cycle(idx: ShapeIndex, values: tuple[int, ...], b: int, a: int) -> list[tuple[int, ...]]:
    """:func:`cycle_out_trace` on the slot values, less the first state: one
    :func:`_relabel` per symbol shifted, from ``a``'s side toward ``b``."""
    _require_symbol(a)
    if a == b or b not in values:
        return []
    _require_absent(values, a, "cycle_out")
    step = 1 if a > b else -1
    states, cur = [], values
    for v in range(a - step, b - step, -step):
        if v in cur:
            cur = _relabel(idx, cur, v + step, v)
            states.append(cur)
    if b in cur:
        raise InvariantError(f"cycling out {b} using {a} left {b} in place")
    return states


# --------------------------------------------------------------------------
# Adjacency


def _pairs_adjacent(ct: frozenset, cs: frozenset) -> bool:
    """The adjacency rule on two cells' pair sets of equal size: equal and
    not empty, or one pair apart each way with :func:`_dropped_adjacent`
    judging the two pairs."""
    gained, lost = cs - ct, ct - cs
    if not (gained or lost):
        return bool(ct)
    return len(gained) == len(lost) == 1 and _dropped_adjacent(*lost, *gained)


def _dropped_adjacent(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """The adjacency rule on two cells that agree but for the pair each
    drops, ``a`` from the first and ``b`` from the second: adjacent when the
    pairs are one (the cells are then equal and not empty) or carry
    different symbols (traded within a class, or one gained on a class and
    one lost on another)."""
    return a == b or a[1] != b[1]


def is_adjacent(t: Tableau, s: Tableau, p: PrymParams) -> bool:
    """Whether the cells of ``t`` and ``s`` share a codimension-1 face: the
    tableaux are checked as staircase tableaux of type ``p``, then their
    cells meet :func:`_pairs_adjacent`."""
    if not _same_shape(_shape_of(t), _shape_of(s)):
        raise InvalidInputError("adjacency needs tableaux of the same shape")
    ct, cs = _cell_pairs(t, _check_params(p).k), _cell_pairs(s, p.k)
    for name, tab, pairs in (("first", t, ct), ("second", s, cs)):
        if fault := staircase_fault(tab, p) or displacement_fault(tab, p.k, pairs):
            raise InvalidInputError(f"{name} tableau {fault}")
    if len(t.symbols) != len(s.symbols):
        raise InvalidInputError(
            "adjacency needs the same number of distinct symbols"
            f" ({len(t.symbols)} vs {len(s.symbols)})"
        )
    return _pairs_adjacent(ct, cs)


def _check_walk(states: Sequence[Tableau], p: PrymParams) -> None:
    """Check a walk built here, reading each state's cell once: every state is
    a displacement tableau on ``[g-1]`` with as many symbols as the first, and
    every step meets :func:`_pairs_adjacent`.  A fault is an ``InvariantError``."""
    size, prev = len(states[0].symbols), None
    for tab in states:
        pairs = _cell_pairs(tab, p.k)
        if fault := displacement_fault(tab, p.k, pairs) or symbol_fault(tab, p.g):
            raise InvariantError(f"walk state {fault}")
        if len(tab.symbols) != size:
            raise InvariantError("walk states differ in their number of distinct symbols")
        if prev is not None and not _pairs_adjacent(prev, pairs):
            raise InvariantError("walk contains a non-adjacent step")
        prev = pairs


# --------------------------------------------------------------------------
# Height and the odd-torsion descent


def height(t: Tableau, p: PrymParams) -> int:
    """Row of the r-th leftmost strip box of the strip admitting ``t``."""
    if _check_params(p).eps == 0:
        raise InvalidInputError("height is defined only for odd torsion")
    if (mu := _strip_of(t, p)) is None:
        raise InvalidInputError("tableau is not non-repeating in any strip")
    return mu.height


@dataclass(frozen=True)
class HeightDescent:
    """One height-lowering move: the walk states plus the pivot tableaux.

    ``path`` runs from the input tableau to ``s`` with consecutive states
    adjacent.  ``u`` carries one extra distinct symbol — it is the
    intersection point of the cells of ``v`` (the last state before ``s``)
    and ``s``, not itself a path element.
    """

    path: tuple[Tableau, ...]
    v: Tableau
    u: Tableau
    s: Tableau
    strip: StripShape


def _smallest_free(values: tuple[int, ...], p: PrymParams) -> int:
    present = set(values)
    for v in range(1, p.g):
        if v not in present:
            return v
    raise InvariantError("no free symbol available; the locus must be positive-dimensional")


def height_descent_step(t: Tableau, p: PrymParams) -> HeightDescent:
    """Connect ``t`` to a tableau whose strip height is lower by exactly one."""
    if _check_params(p).eps == 0:
        raise InvalidInputError("height descent applies to odd torsion only")
    dim = pbn_dimension(p)
    if dim is None or dim < 1:
        raise InvalidInputError("height descent needs a positive-dimensional locus")
    t = _canon(t, p)
    if (mu := _strip_of(t, p)) is None:
        raise InvalidInputError("tableau is not non-repeating in a unique strip")
    states, v, u, s, nu = _descent_step(t.values, mu, p)
    path = (t, *(Tableau(t.shape, x) for x in states[1:-1]), s)
    _check_walk(path, p)
    return HeightDescent(path, v, u, s, nu)


def _descent_step(
    t: tuple[int, ...], mu: StripShape, p: PrymParams
) -> tuple[list[tuple[int, ...]], Tableau, Tableau, Tableau, StripShape]:
    """The step from the slot values ``t`` on ``staircase_shape(r)``, which
    its caller checked to be non-repeating in ``mu``, less its walk check,
    which :func:`connect_path` runs once: its states from ``t`` to ``s`` as
    value tuples, the pivots ``v``, ``u`` and ``s`` as the tableaux
    :func:`_check_descent` checked, and the lower strip."""
    l, r, g = p.l, p.r, p.g
    idx = staircase_shape(r).index
    H = mu.height
    if H <= l:
        raise InvalidInputError("height is already minimal; nothing to descend")
    x = min(bx for bx, by in mu.boxes if by == H)
    y = H
    q = x + y - 1
    n = r - q
    psi = [(x + i, y) for i in range(n + 1)]
    omega_n0 = (x + n + l - 1, y - l)
    gm2 = _slot(idx, (omega_n0[0], omega_n0[1] + 1))
    gm1 = _slot(idx, (omega_n0[0] + 1, omega_n0[1]))

    # Cycle the largest symbol out first: cycling shifts every symbol
    # strictly between the free symbol and the removed one, so clearing
    # g-1 later would dislodge an already-seated g-2.
    states = [t]
    if g - 1 in t:
        states.extend(_cycle(idx, t, g - 1, _smallest_free(t, p)))
    if (displaced := states[-1][gm2]) != g - 2:
        # Park g-1 on the target box, then cycle it out via the symbol it
        # displaced: the final shift of that cycle turns the parked g-1
        # into g-2 in place.  Seating g-2 directly would first need it
        # cycled out, and when g-1 is the only free symbol that cycle
        # would re-introduce g-1.
        states.append(_put(idx, states[-1], gm2, g - 1, True))
        states.extend(_cycle(idx, states[-1], g - 1, displaced))
        if states[-1][gm2] != g - 2:
            raise InvariantError("parking shift failed to leave g-2 on its box")
    v = states[-1]
    u = _put(idx, v, gm1, g - 1, False)

    i = (q - 1) - l
    if mu.word[i] != "N" or any(c != "E" for c in mu.word[i + 1 :]):
        raise InvariantError("strip word disagrees with the height row")
    nu = _strip(r, l, mu.word[:i] + "E" * (len(mu.word) - i))

    # The row-H boxes psi leave the strip in nu: the strip slot each one
    # repeats takes its value, and s is the extension of that filling.
    lands = nu.repeat_map(1)
    filling = list(map(u.__getitem__, nu.stair_slots))
    for box in psi:
        filling[lands[idx.slot[box]]] = u[idx.slot[box]]
    s = tuple(map(filling.__getitem__, lands))
    states.append(s)  # v, s is the path's last step
    return (states, *_check_descent(v, u, s, nu, p), nu)


def _check_descent(
    v: tuple[int, ...], u: tuple[int, ...], s: tuple[int, ...], nu: StripShape, p: PrymParams
) -> tuple[Tableau, Tableau, Tableau]:
    """Check a descent step's pivots, given as slot values on
    ``staircase_shape(r)``, and return them as tableaux: ``u`` holds one
    symbol more than ``v``, ``s`` is a displacement tableau, non-repeating
    in the lower strip ``nu`` and minimal, and ``v`` and ``s`` both
    dominate ``u``.  A fault is an ``InvariantError``."""
    if len(set(u)) != len(set(v)) + 1:
        raise InvariantError("the pivot tableau must gain exactly one symbol")
    shape = staircase_shape(p.r)
    v_tab, u_tab, s_tab = Tableau(shape, v), Tableau(shape, u), Tableau(shape, s)
    if fault := displacement_fault(s_tab, p.k):
        raise InvariantError(f"descent result {fault}")
    if not _non_repeating(nu, p, s):
        raise InvariantError("descent result is not non-repeating in the lower strip")
    if len(s_tab.symbols) != expected_codim(p.r, p.k):
        raise InvariantError("descent result is not minimal")
    if not (dominates(v_tab, u_tab, p) and dominates(s_tab, u_tab, p)):
        raise InvariantError("the pivot tableau is not dominated by both endpoints")
    return v_tab, u_tab, s_tab


# --------------------------------------------------------------------------
# Connectivity walks


def _descend_strip(t: tuple[int, ...], mu0: StripShape, p: PrymParams) -> list[tuple[int, ...]]:
    """Walk the slot values of a tableau non-repeating in mu_0 down to the
    standard extension (:func:`_base`).

    This one walk serves every torsion: a degenerate mu_0 is all of T_r,
    and the walk then runs on injective tableaux.  The rank counts the
    strip boxes from the first one that does not hold its 1-based
    canonical position to the last; every step must lower it, and ends on
    a state non-repeating in mu_0.
    """
    idx = staircase_shape(p.r).index
    slots = mu0.stair_slots
    states = [t]
    rank = len(slots) + 1
    while True:
        cur = states[-1]
        i = next((i for i, j in enumerate(slots) if cur[j] != i + 1), len(slots))
        if not len(slots) - i < rank:
            raise InvariantError("walk failed to reduce the rank")
        if i == len(slots):
            return states
        rank, a = len(slots) - i, i + 1
        b = _smallest_free(cur, p)
        if b < a:
            raise InvariantError("free symbols must not precede the target symbol")
        states.extend(_cycle(idx, cur, a, b))
        cur = _relabel(idx, states[-1], a, states[-1][slots[i]])
        states.append(cur)
        if not _non_repeating(mu0, p, cur):
            raise InvariantError("walk left the non-repeating family")


def _descend(
    t: tuple[int, ...], mu: StripShape, mu0: StripShape, p: PrymParams
) -> list[tuple[int, ...]]:
    """Walk the slot values ``t``, non-repeating in ``mu``, down to the
    standard base: odd torsion first lowers the strip height to that of
    mu_0."""
    states = [t]
    if p.eps == 1 and not mu0.degenerate:
        # Each step checks that its result lies in a strip one row lower,
        # and the next step starts from that strip.
        while mu.height > p.l:
            path, *_, mu = _descent_step(states[-1], mu, p)
            states.extend(path[1:])
    states.extend(_descend_strip(states[-1], mu0, p)[1:])
    return states


def _base(mu0: StripShape, p: PrymParams) -> tuple[int, ...]:
    """The slot values where every descent ends: the standard filling
    ``1..n`` of mu_0's slots extended by its repeat map, which is
    ``minimal_witness(p)``."""
    return tuple([j + 1 for j in mu0.repeat_map(p.eps)])


def _collapse(path: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for state in path:
        if out and out[-1] == state:
            continue
        if len(out) >= 2 and out[-2] == state:
            out.pop()
            continue
        out.append(state)
    return out


def connect_path(t: Tableau, s: Tableau, p: PrymParams) -> list[Tableau]:
    """A sequence of pairwise-adjacent tableaux from ``t`` to ``s``.

    Both endpoints must be non-repeating tableaux of the same type and the
    locus must be at least one-dimensional.  The walk descends each
    endpoint to the standard extension (:func:`_base`) and joins the two
    descents; all states are returned on the canonical staircase shape.

    The walk runs on the slot values of ``staircase_shape(r)``.  The cover
    scan of the tableau condition runs on each state built, in the edit
    that builds it, with the incoming symbol's symbol rule and absence;
    the non-repeating rule (``strips._non_repeating``) runs at the end of
    each descent step, and each height step checks its pivots
    (:func:`_check_descent`).  Only the states returned are built as
    tableaux, and :func:`_check_walk` checks each of them once.
    """
    dim = pbn_dimension(p)
    if dim is None or dim < 1:
        raise InvalidInputError(
            "connectivity in codimension 1 needs a locus of dimension >= 1"
        )
    t, s = _canon(t, p), _canon(s, p)
    strips = []
    for name, tab in (("source", t), ("target", s)):
        if (mu := _strip_of(tab, p)) is None:
            raise InvalidInputError(f"{name} tableau is not non-repeating in any strip")
        if len(tab.symbols) != expected_codim(p.r, p.k):
            raise InvalidInputError(f"{name} tableau is not minimal")
        strips.append(mu)
    if t == s:
        return [t]
    mu0 = horizontal_strip(p.r, p.k)
    down_t = _descend(t.values, strips[0], mu0, p)
    down_s = _descend(s.values, strips[1], mu0, p)
    base = _base(mu0, p)
    if down_t[-1] != base or down_s[-1] != base:
        raise InvariantError("descents missed the standard base tableau")
    path = _collapse(down_t + down_s[-2::-1])
    if path[0] != t.values or path[-1] != s.values:
        raise InvariantError("walk endpoints drifted")
    walk = [t, *(Tableau(t.shape, values) for values in path[1:-1]), s]
    # Collapsing keeps only descent steps, and adjacency is symmetric.
    _check_walk(walk, p)
    return walk


# --------------------------------------------------------------------------
# Maximal cells and the dim-1 intersection graph


@dataclass(frozen=True)
class MaximalCell:
    """A maximal cell: the non-repeating tableau extending a strip tableau.

    The tableau's facts were checked where they arose: its strip filling
    by the filling rule, its displacement by its strip's extension proof
    (``StripShape.slot_classes``), once for every filling.  The free
    symbols are read off the tableau, so the cell stores nothing to check.
    """

    params: PrymParams
    strip: StripShape
    tableau: Tableau

    @property
    def free_symbols(self) -> frozenset[int]:
        """Symbols of ``[g-1]`` the tableau does not use: the cell's
        coordinates, as many as its dimension."""
        return frozenset(range(1, self.params.g)) - self.tableau.symbols


def enumerate_maximal_cells(
    p: PrymParams, symbols: Iterable[int] | None = None, *, force: bool = False
) -> list[MaximalCell]:
    """The maximal cells of a non-empty locus, or those whose symbols lie in
    ``symbols``, in strip-tableau order: :func:`~prymbn.counting.max_cell_count`
    of them, guarded by :data:`CELL_GUARD` and checked against that count.

    No strip tableau is built (``_maximal_cells``): each cell strip meets
    the per-strip part of the filling rule and the extension proof
    (``StripShape.slot_classes``) once, each filling the per-filling part
    once, and only its extension to ``T_r`` and the cell are built."""
    return [cell for cell, _ in _maximal_cells(p, symbols, force)]


def _maximal_cells(
    p: PrymParams, symbols: Iterable[int] | None, force: bool
) -> Iterator[tuple[MaximalCell, frozenset[tuple[int, int]]]]:
    """Each maximal cell with its (class, symbol) pairs, from
    ``strips._strip_extensions``: the one path to the cells, whose guard
    runs before the first and whose count check after the last."""
    symbols = None if symbols is None else _cell_symbols(p, symbols)  # read once
    if not force:
        _refuse_far_past_the_guard(p, symbols)
    total = max_cell_count(p, symbols, force=force)
    if total > CELL_GUARD and not force:
        raise GuardRefused(
            f"{total} maximal cells exceed the desk-scale limit of {CELL_GUARD};"
            " pass force=True to enumerate anyway"
        )
    made = 0
    for mu, ext, pairs in _strip_extensions(p, _cell_symbols(p, symbols)):
        made += 1
        yield MaximalCell(p, mu, ext), pairs
    if made != total:
        raise InvariantError(
            f"enumerated {made} cells but the closed form gives {total}"
        )


def _refuse_far_past_the_guard(p: PrymParams, symbols: tuple[int, ...] | None) -> None:
    """Refuse, before C(r, k) is counted, a generic type whose cells pass
    :data:`CELL_GUARD` by more than a digit on the hook bound: log10 of
    C(r, 0) from the hook lengths (``counting._hook_log10``) plus log10 of
    the binomial of :func:`~prymbn.counting.max_cell_count`.  The bound's
    float error is far below a digit; a count inside that digit is made
    exactly and checked against the guard."""
    if not generic_regime(_check_params(p).r, p.k):
        return
    m, n = p.g - 1 if symbols is None else len(symbols), expected_codim(p.r, p.k)
    if m < n:  # no cells, or an empty locus for max_cell_count to refuse
        return
    bound = _hook_log10(p.r) + _log10_comb(m, n)
    if bound > log10(CELL_GUARD) + 1:
        raise GuardRefused(
            f"about 10^{int(bound)} maximal cells exceed the desk-scale limit of"
            f" {CELL_GUARD}; pass force=True to enumerate anyway"
        )


@dataclass(frozen=True)
class GraphVertex:
    """An intersection point of two circles, identified by the symbol swap."""

    i: int
    j: int
    a: int
    b: int


@dataclass(frozen=True)
class IntersectionGraph:
    """Circles of a 1-dimensional locus and their pairwise intersections."""

    params: PrymParams
    circles: tuple[MaximalCell, ...]
    vertices: tuple[GraphVertex, ...]
    v: int
    e: int
    components: int
    circle_vertex_counts: tuple[int, ...]


def build_intersection_graph(
    p: PrymParams, *, force: bool = False
) -> IntersectionGraph:
    """The circle/intersection graph of a 1-dimensional locus.

    Circles are the maximal cells, and two circles meet when their cells
    are adjacent.  The cells and their pair sets come from the cell
    enumeration's one path (``_maximal_cells``), whose extension proof
    gives each cell's pairs, so no pair set is rebuilt here.
    :func:`_adjacent_cells` finds the adjacent pairs: each circle's
    pair set becomes an int bitmask, bucketed under the mask less each of
    its bits, and the rule judges only the two dropped pairs of each pair
    of bucket members.  A vertex joins two adjacent circles, which trade
    their free symbols there.  Two circles meet in at most one point, and
    each vertex lies on two, so ``e = 2v``.
    """
    if pbn_dimension(p) != 1:
        raise InvalidInputError(
            "the intersection graph is defined for 1-dimensional loci only"
        )
    cells, frees, pairs = [], [], []
    for cell, cell_pairs in _maximal_cells(p, None, force):
        if len(free := cell.free_symbols) != 1:
            raise InvariantError("dim-1 circles carry exactly one free symbol")
        cells.append(cell)
        frees.append(next(iter(free)))
        pairs.append(cell_pairs)

    vertices: dict[tuple[int, int], GraphVertex] = {}
    counts = [0] * len(cells)
    parent = list(range(len(cells)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in _adjacent_cells(pairs):
        if (i, j) in vertices:
            raise InvariantError(f"circles {i} and {j} meet in more than one point")
        vertices[(i, j)] = GraphVertex(i, j, frees[i], frees[j])
        counts[i] += 1
        counts[j] += 1
        parent[find(i)] = find(j)

    v = len(vertices)
    components = len({find(i) for i in range(len(cells))})
    ordered = tuple(vertices[key] for key in sorted(vertices))
    return IntersectionGraph(
        p, tuple(cells), ordered, v, 2 * v, components, tuple(counts)
    )


def _adjacent_cells(
    pairs: Sequence[frozenset[tuple[int, int]]]
) -> Iterator[tuple[int, int]]:
    """Index pairs ``i < j`` of adjacent cells among cells with pair sets
    of one size, once for each bucket the two share.

    Each cell's (class, symbol) pairs become an int bitmask over a dense bit
    index built per call (k = 0 classes can be negative, so no arithmetic
    shift keys them), and the cell is bucketed under its mask less each of
    its bits.  Two members of one bucket agree but for the pair each
    dropped, so the adjacency rule judges those two pairs alone
    (:func:`_dropped_adjacent`); a bucket of one cell is skipped.  Cells
    with equal pair sets share every bucket."""
    bit = {pair: 1 << n for n, pair in enumerate(frozenset().union(*pairs))}
    pair_of = {b: pair for pair, b in bit.items()}
    masks: list[int] = []
    first: dict[int, int] = {}  # bucket key -> its first cell
    later: defaultdict[int, list[int]] = defaultdict(list)  # key -> the bucket's other cells
    for i, cp in enumerate(pairs):
        bits = list(map(bit.__getitem__, cp))
        mask = sum(bits)
        masks.append(mask)
        for b in bits:
            if first.setdefault(mask ^ b, i) != i:
                later[mask ^ b].append(i)
    for key, rest in later.items():
        members = [first[key], *rest]
        for n, i in enumerate(members):
            a = pair_of[masks[i] ^ key]
            for j in members[n + 1:]:
                if _dropped_adjacent(a, pair_of[masks[j] ^ key]):
                    yield i, j


def betti_number(graph: IntersectionGraph) -> int:
    """First Betti number ``e - v + c`` of the circle graph.

    Each circle with ``m`` vertices contributes ``m`` arcs (a vertex-free
    circle is an isolated component contributing 1); when the graph is
    connected and every circle meets another, this reduces to ``v + 1``.
    """
    _expect(graph, IntersectionGraph)
    return graph.e - graph.v + graph.components


def betti_closed_form(p: PrymParams) -> int:
    """Closed-form first Betti number in the generic regime or at torsion 2 or 4."""
    if pbn_dimension(p) != 1:
        raise InvalidInputError("closed-form Betti numbers require dimension 1")
    r = p.r
    if generic_regime(r, p.k):
        num = r * count_generic(r) * (comb(r + 1, 2) + 1)
        half, rem = divmod(num, 2)
        if rem:
            raise InvariantError("generic Betti numerator must be even")
        return half + 1
    if p.k == 2:
        return r + 1
    if p.k == 4:
        return 2 ** (r - 1) * (3 * r - 2) + 1
    raise InvalidInputError(
        f"no closed form in scope for torsion k={p.k}; use the graph method"
    )


def average_intersections(graph: IntersectionGraph) -> Fraction:
    """Average number of intersection points per circle (exact)."""
    if not _expect(graph, IntersectionGraph).circles:
        raise InvalidInputError("the graph has no circles")
    return Fraction(2 * graph.v, len(graph.circles))


def graph_to_dot(graph: IntersectionGraph) -> str:
    """Render the circle graph in DOT: nodes are intersection points.

    Each circle contributes arcs chaining its vertices in an arbitrary
    cyclic order (the Betti number does not depend on the choice), a
    self-loop when it has a single vertex, and an annotated isolated node
    when it has none.
    """
    _expect(graph, IntersectionGraph)
    by_circle: defaultdict[int, list[int]] = defaultdict(list)
    for n, w in enumerate(graph.vertices):
        by_circle[w.i].append(n)
        by_circle[w.j].append(n)
    lines = ["graph locus {"]
    for n, w in enumerate(graph.vertices):
        lines.append(
            f'  v{n} [label="swap {w.a} <-> {w.b} (circles {w.i}, {w.j})"];'
        )
    for c in range(len(graph.circles)):
        free = ",".join(str(a) for a in sorted(graph.circles[c].free_symbols))
        nodes = by_circle.get(c, [])
        if not nodes:
            lines.append(
                f'  c{c} [shape=circle, label="isolated circle {c} (free {free})"];'
            )
            continue
        if len(nodes) == 1:
            lines.append(f'  v{nodes[0]} -- v{nodes[0]} [label="circle {c}"];')
            continue
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            lines.append(f'  v{a} -- v{b} [label="circle {c}"];')
    lines.append("}")
    return "\n".join(lines)
