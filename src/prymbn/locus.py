"""Maximal cells, adjacency, connectivity walks, and the dim-1 circle graph.

The locus decomposes into maximal cells indexed by strip tableaux, counted
by :func:`~prymbn.counting.max_cell_count`.  Two cells are adjacent when
their (diagonal class, symbol) pair sets differ by one pair each way, the
dropped pairs carrying different symbols: one rule, ``_dropped_adjacent``,
which ``_pairs_adjacent`` and the circle graph's buckets read.
Every pair of cells is joined by a constructive walk built from three edit
operations (swap into a box, swap a symbol in for another, cycle a symbol
out), checked once by ``_check_walk``.  One walk down the horizontal strip
mu_0 serves every torsion; odd torsion first lowers the strip height to
that of mu_0.  A one-dimensional locus is a union of circles meeting at
points; this module builds that graph, computes its first Betti number,
and exports it as DOT.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import (
    Box,
    GuardRefused,
    InvalidInputError,
    InvariantError,
    PrymParams,
    Tableau,
    _canon,
    _cell_pairs,
    _check_params,
    _expect,
    _same_shape,
    _shape_of,
    _symbol_fault,
    displacement_fault,
    dominates,
    generic_regime,
    is_tableau,
    staircase_fault,
    symbol_fault,
)
from .counting import count_generic, max_cell_count
from .dimension import expected_codim, minimal_witness, pbn_dimension
from .strips import (
    StripShape,
    _cell_symbols,
    _strip,
    _strip_extensions,
    _strip_of,
    horizontal_strip,
    is_non_repeating,
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


def _require_absent(t: Tableau, a: int, op: str) -> None:
    if a in t.symbols:
        raise InvalidInputError(f"{op} needs symbol {a} absent from the tableau")


def swap_into(t: Tableau, a: int, box: Box, *, strict: bool = True) -> Tableau:
    """Place ``a`` at ``box``; the previous symbol there disappears.

    ``a`` must be absent, exceed every box below ``box`` and be exceeded by
    every box above it: the tableau condition (``ShapeIndex.violations``),
    read on the pairs through the box's slot.  In strict mode the replaced
    symbol must occur exactly once, so the distinct-symbol count is
    preserved.  Swapping the resident symbol into its own box is the
    identity.
    """
    idx = _shape_of(t).index
    i = idx.slot.get(box)
    if i is None:
        raise InvalidInputError(f"box {box} is outside the shape")
    old = t.values[i]
    if a == old:
        return t
    values = list(t.values)
    values[i] = a
    out = Tableau(t.shape, tuple(values))  # refuses a symbol that is no positive int
    _require_absent(t, a, "swap_into")
    for lo, hi in idx.violations(values):
        if i == hi:
            raise InvalidInputError(
                f"symbol {a} does not exceed lower neighbor {idx.boxes[lo]} holding {values[lo]}"
            )
        if i == lo:
            raise InvalidInputError(
                f"symbol {a} is not exceeded by upper neighbor {idx.boxes[hi]} holding {values[hi]}"
            )
    if strict:
        mult = len(t.fiber(old))
        if mult != 1:
            raise InvalidInputError(
                f"replaced symbol {old} appears {mult} times; swap_into would"
                " change the distinct-symbol count"
            )
    return out


def swap_in_for(t: Tableau, a: int, b: int) -> Tableau:
    """Replace every box holding ``b`` with ``a`` (identity when ``b`` absent)."""
    _shape_of(t)
    if a == b or b not in t.symbols:
        return t
    _require_absent(t, a, "swap_in_for")
    out = t.with_values({box: a for box in t.fiber(b)})
    if not is_tableau(out):
        raise InvalidInputError(
            f"swapping {a} in for {b} violates the tableau condition"
        )
    return out


def cycle_out_trace(t: Tableau, b: int, a: int) -> list[Tableau]:
    """States of cycling ``b`` out of the tableau using the free symbol ``a``.

    Every symbol from ``b`` toward ``a`` shifts by one in ``a``'s direction,
    one relabeling per state; consecutive states are adjacent.  Returns
    ``[t]`` unchanged when ``b`` is absent or equals ``a``.  A free symbol
    ``a`` that breaks the symbol rule is refused first.
    """
    _shape_of(t)
    if fault := _symbol_fault((a,)):
        raise InvalidInputError(fault)
    if a == b or b not in t.symbols:
        return [t]
    _require_absent(t, a, "cycle_out")
    states = [t]
    cur = t
    if a > b:
        for v in range(a - 1, b - 1, -1):
            if v in cur.symbols:
                cur = swap_in_for(cur, v + 1, v)
                states.append(cur)
    else:
        for v in range(a + 1, b + 1):
            if v in cur.symbols:
                cur = swap_in_for(cur, v - 1, v)
                states.append(cur)
    if b in cur.symbols:
        raise InvariantError(f"cycling out {b} using {a} left {b} in place")
    return states


def cycle_out(t: Tableau, b: int, a: int) -> Tableau:
    """The tableau with ``b`` cycled out using the free symbol ``a``."""
    return cycle_out_trace(t, b, a)[-1]


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


def _smallest_free(t: Tableau, p: PrymParams) -> int:
    for v in range(1, p.g):
        if v not in t.symbols:
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
    step = _descent_step(t, mu, p)
    _check_walk(step.path, p)
    return step


def _descent_step(t: Tableau, mu: StripShape, p: PrymParams) -> HeightDescent:
    """The step from ``t`` on ``staircase_shape(r)``, which its caller
    checked to be non-repeating in ``mu``, less its walk check, which
    :func:`connect_path` runs once.  The result's strip is checked here."""
    l, r, g = p.l, p.r, p.g
    H = mu.height
    if H <= l:
        raise InvalidInputError("height is already minimal; nothing to descend")
    x = min(bx for bx, by in mu.boxes if by == H)
    y = H
    q = x + y - 1
    n = r - q
    psi = [(x + i, y) for i in range(n + 1)]
    omega_n0 = (x + n + l - 1, y - l)
    gm2_box = (omega_n0[0], omega_n0[1] + 1)
    gm1_box = (omega_n0[0] + 1, omega_n0[1])

    # Cycle the largest symbol out first: cycling shifts every symbol
    # strictly between the free symbol and the removed one, so clearing
    # g-1 later would dislodge an already-seated g-2.
    states = [t]
    cur = t
    if g - 1 in cur.symbols:
        trace = cycle_out_trace(cur, g - 1, _smallest_free(cur, p))
        states.extend(trace[1:])
        cur = states[-1]
    if cur.at(gm2_box) != g - 2:
        # Park g-1 on the target box, then cycle it out via the symbol it
        # displaced: the final shift of that cycle turns the parked g-1
        # into g-2 in place.  Seating g-2 directly would first need it
        # cycled out, and when g-1 is the only free symbol that cycle
        # would re-introduce g-1.
        displaced = cur.at(gm2_box)
        cur = swap_into(cur, g - 1, gm2_box)
        states.append(cur)
        trace = cycle_out_trace(cur, g - 1, displaced)
        states.extend(trace[1:])
        cur = states[-1]
        if cur.at(gm2_box) != g - 2:
            raise InvariantError("parking shift failed to leave g-2 on its box")
    v = cur

    u = swap_into(v, g - 1, gm1_box, strict=False)
    if len(u.symbols) != len(v.symbols) + 1:
        raise InvariantError("the pivot tableau must gain exactly one symbol")

    idx = (q - 1) - l
    if mu.word[idx] != "N" or any(c != "E" for c in mu.word[idx + 1 :]):
        raise InvariantError("strip word disagrees with the height row")
    nu = _strip(r, l, mu.word[:idx] + "E" * (len(mu.word) - idx))

    # The row-H boxes psi leave the strip in nu: the strip slot each one
    # repeats takes its value, and s is the extension of that filling.
    lands = nu.repeat_map(1)
    filling = list(map(u.at, nu.shape.index.boxes))
    slot = u.shape.index.slot
    for box in psi:
        filling[lands[slot[box]]] = u.at(box)
    s = Tableau(u.shape, tuple(map(filling.__getitem__, lands)))

    if fault := displacement_fault(s, p.k):
        raise InvariantError(f"descent result {fault}")
    if not is_non_repeating(s, nu, p):
        raise InvariantError("descent result is not non-repeating in the lower strip")
    if len(s.symbols) != expected_codim(r, p.k):
        raise InvariantError("descent result is not minimal")
    if not (dominates(v, u, p) and dominates(s, u, p)):
        raise InvariantError("the pivot tableau is not dominated by both endpoints")
    states.append(s)  # v, s is the path's last step
    return HeightDescent(tuple(states), v, u, s, nu)


# --------------------------------------------------------------------------
# Connectivity walks


def _descend_strip(t: Tableau, mu0: StripShape, p: PrymParams) -> list[Tableau]:
    """Walk a tableau non-repeating in mu_0 down to the standard extension.

    This one walk serves every torsion: a degenerate mu_0 is all of T_r,
    and the walk then runs on injective tableaux.  The rank counts the
    strip boxes from the first one that does not hold its 1-based
    canonical position to the last; every step must lower it.
    """
    boxes = mu0.shape.index.boxes
    states = [t]
    cur = t
    rank = len(boxes) + 1
    while True:
        i = next(
            (i for i, omega in enumerate(boxes) if cur.at(omega) != i + 1), len(boxes)
        )
        if not len(boxes) - i < rank:
            raise InvariantError("walk failed to reduce the rank")
        if i == len(boxes):
            return states
        rank, omega, a = len(boxes) - i, boxes[i], i + 1
        b = _smallest_free(cur, p)
        if b < a:
            raise InvariantError("free symbols must not precede the target symbol")
        trace = cycle_out_trace(cur, a, b)
        states.extend(trace[1:])
        cur = states[-1]
        cur = swap_in_for(cur, a, cur.at(omega))
        states.append(cur)
        if not is_non_repeating(cur, mu0, p):
            raise InvariantError("walk left the non-repeating family")


def _descend(t: Tableau, mu: StripShape, mu0: StripShape, p: PrymParams) -> list[Tableau]:
    """Walk ``t``, non-repeating in ``mu``, down to the standard base
    tableau: odd torsion first lowers the strip height to that of mu_0."""
    states = [t]
    if p.eps == 1 and not mu0.degenerate:
        # Each step checks that its result lies in a strip one row lower,
        # and the next step starts from that strip.
        while mu.height > p.l:
            step = _descent_step(states[-1], mu, p)
            states.extend(step.path[1:])
            mu = step.strip
    states.extend(_descend_strip(states[-1], mu0, p)[1:])
    return states


def _collapse(path: list[Tableau]) -> list[Tableau]:
    out: list[Tableau] = []
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
    endpoint to the standard extension and joins the two descents; all
    states are returned on the canonical staircase shape.
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
    down_t = _descend(t, strips[0], mu0, p)
    down_s = _descend(s, strips[1], mu0, p)
    base = minimal_witness(p)
    if down_t[-1] != base or down_s[-1] != base:
        raise InvariantError("descents missed the standard base tableau")
    path = _collapse(down_t + down_s[-2::-1])
    if path[0] != t or path[-1] != s:
        raise InvariantError("walk endpoints drifted")
    # Collapsing keeps only descent steps, and adjacency is symmetric.
    _check_walk(path, p)
    return path


# --------------------------------------------------------------------------
# Maximal cells and the dim-1 intersection graph


@dataclass(frozen=True)
class MaximalCell:
    """A maximal cell: the non-repeating tableau extending a strip tableau.

    The tableau's facts were checked where they arose: its strip filling
    by the one filling rule, its displacement when it was extended to
    ``T_r``.  The free symbols are read off the tableau, so the cell stores
    nothing to check.
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

    No strip tableau is built: each strip filling the search yields meets
    the one filling rule (``strips._strip_filling_fault``) once, and only
    its extension to ``T_r``, checked to be a displacement tableau, and the
    cell are built."""
    symbols = None if symbols is None else _cell_symbols(p, symbols)  # read once
    total = max_cell_count(p, symbols, force=force)
    if total > CELL_GUARD and not force:
        raise GuardRefused(
            f"{total} maximal cells exceed the desk-scale limit of {CELL_GUARD};"
            " pass force=True to enumerate anyway"
        )
    cells = [
        MaximalCell(p, mu, ext)
        for mu, ext in _strip_extensions(p, _cell_symbols(p, symbols))
    ]
    if len(cells) != total:
        raise InvariantError(
            f"enumerated {len(cells)} cells but the closed form gives {total}"
        )
    return cells


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
    are adjacent.  :func:`_adjacent_cells` finds those pairs: each circle's
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
    cells = enumerate_maximal_cells(p, force=force)
    frees, pairs = [], []
    for cell in cells:
        if len(free := cell.free_symbols) != 1:
            raise InvariantError("dim-1 circles carry exactly one free symbol")
        frees.append(next(iter(free)))
        pairs.append(_cell_pairs(cell.tableau, p.k))

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
