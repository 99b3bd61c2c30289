"""Row-order builders, table ids and search oracles shared by the test modules.

Hand-written examples read best with the top row first, while
:meth:`Tableau.from_rows` takes the bottom row first (French convention);
``stair`` and ``square`` bridge the two.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from prymbn.core import (
    InvariantError,
    Tableau,
    displacement_fault,
    dominates,
    is_prym,
    square_shape,
    staircase_shape,
)
from prymbn.counting import count_linext, strip_poset_succ_masks
from prymbn.dimension import expected_codim, minimal_witness
from prymbn.locus import cycle_out_trace, swap_in_for, swap_into
from prymbn.strips import (
    StripTableau,
    _strip,
    _strip_of,
    cell_strips,
    enumerate_strips,
    extend_strip_tableau,
    horizontal_strip,
    is_non_repeating,
)


def stair(rows_top_down: list[list[int]]) -> Tableau:
    """Staircase tableau from rows written top-down."""
    rows = list(reversed(rows_top_down))
    return Tableau.from_rows(rows, staircase_shape(len(rows)))


def square(rows_top_down: list[list[int]]) -> Tableau:
    """Square tableau from rows written top-down."""
    rows = list(reversed(rows_top_down))
    return Tableau.from_rows(rows, square_shape(len(rows) - 1))


def row_ids(rows) -> list[str]:
    """Parametrize ids ``name-n`` of table rows ``(name, n, ...)``.  Each
    row carries its own number, unique among the rows of its name, so
    deleting a row renames no other test; two rows with one id stop the
    collection of the module."""
    ids = [f"{name}-{n}" for name, n, *_ in rows]
    if len(set(ids)) != len(ids):
        raise ValueError(f"table rows share an id: {sorted({i for i in ids if ids.count(i) > 1})}")
    return ids


@lru_cache(maxsize=None)
def prym_squares(p) -> tuple[Tableau, ...]:
    """Every Prym tableau of type ``p`` on the (r+1)-square, in lexicographic
    order of its slot values: a depth-first filler, kept as an oracle.  It
    walks ``square_shape(r).index`` with values in ``[1, 2g-1]``, increasing
    along the west and south covers, and keeps a filling when ``is_prym``
    holds.  A branch is cut where the definition already fails: a folded
    symbol ``min(a, 2g - a)`` met on a second class mod ``k``, or ``g`` on a
    second parity class.  Cached, as a tuple, for the modules sharing it."""
    shape, g = square_shape(p.r), p.g
    idx = shape.index
    classes, parities = idx.classes(p.k), idx.classes(2)
    values = [0] * len(idx.boxes)
    seen: dict[int, int] = {}  # folded symbol -> its class; g -> its parity
    out = []

    def fill(i):
        if i == len(values):
            t = Tableau(shape, tuple(values))
            if is_prym(t, p):
                out.append(t)
            return
        lo = max((values[j] for j in (idx.west[i], idx.south[i]) if j >= 0), default=0)
        for v in range(lo + 1, 2 * g):
            key, c = (g, parities[i]) if v == g else (min(v, 2 * g - v), classes[i])
            new = key not in seen
            if not new and seen[key] != c:
                continue
            seen[key], values[i] = c, v
            fill(i + 1)
            if new:
                del seen[key]

    fill(0)
    return tuple(out)


def divisor_contains(dt, ds) -> bool:
    """Whether the cell of the chip divisor ``ds`` lies in the cell of
    ``dt``: the empty cell (``None``) lies in every cell, and otherwise every
    loop pinned in ``dt`` is pinned at the same place in ``ds``."""
    return ds is None or dt is not None and all(
        e.free or e.pos == f.pos for e, f in zip(dt.entries, ds.entries)
    )


def per_strip_count(p) -> int:
    """C(r, k) at odd torsion as the sum, over every strip of the type, of
    the linear extensions of its poset: one count per strip, kept as the
    oracle of the brute count's single pass over all strip words."""
    return sum(count_linext(strip_poset_succ_masks(mu, 1)) for mu in enumerate_strips(p))


def unpruned_strip_fillings(mu, eps: int, symbols: tuple[int, ...]):
    """Value tuples of the injective fillings of strip ``mu`` from the
    ascending ``symbols`` that increase along ``mu.order_pairs(eps)``, in
    lexicographic order: the strip search without its up-set cap, kept as
    the oracle of the capped one.  A slot takes any unused symbol above its
    floors and below its ceilings; a dead end is found only at a later slot.
    """
    n, m = len(mu.shape.index.boxes), len(symbols)
    if m < n:
        return
    floors = [[] for _ in range(n)]
    ceilings = [[] for _ in range(n)]
    for i, j in mu.order_pairs(eps):
        if i < j:
            floors[j].append(i)
        else:
            ceilings[i].append(j)
    values = [0] * n
    used = [False] * m
    chosen = [-1] * n
    high = [0] * n
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(values)
            i -= 1
            continue
        si = chosen[i]
        if si < 0:
            si = bisect_right(symbols, max(map(values.__getitem__, floors[i]), default=0))
            high[i] = min(map(values.__getitem__, ceilings[i]), default=symbols[-1] + 1)
        else:
            used[si] = False
            si += 1
        while si < m and used[si]:
            si += 1
        if si < m and symbols[si] < high[i]:
            used[si] = True
            values[i] = symbols[si]
            chosen[i] = si
            i += 1
        else:
            chosen[i] = -1
            i -= 1


def random_cell_tableau(p, rng) -> Tableau:
    """A maximal-cell tableau of type ``p`` drawn without enumerating the
    cells: a random cell strip, a random set of its symbols from ``[g-1]``,
    placed in increasing order along a random linear extension of the
    strip's order pairs, then extended over ``T_r``."""
    mu = rng.choice(cell_strips(p))
    n = len(mu.shape.index.boxes)
    below = [set() for _ in range(n)]
    for lo, hi in mu.order_pairs(p.eps):
        below[hi].add(lo)
    order: list[int] = []
    while len(order) < n:
        placed = set(order)
        order.append(rng.choice([i for i in range(n) if i not in placed and below[i] <= placed]))
    values = [0] * n
    for symbol, i in zip(sorted(rng.sample(range(1, p.g), n)), order):
        values[i] = symbol
    return extend_strip_tableau(StripTableau(mu, Tableau(mu.shape, tuple(values)), p))


# The connectivity walk written with the public edit operations on
# tableaux, every state one Tableau: cycle_out_trace, swap_into and
# swap_in_for for the edits and is_non_repeating after each strip step.
# It is the reference the slot-level walk of locus.connect_path must match
# state for state.


def _ref_smallest_free(t, p) -> int:
    return min(set(range(1, p.g)) - t.symbols)


def ref_descent_step(t, mu, p) -> tuple[list[Tableau], Tableau, Tableau, Tableau, object]:
    """One odd-torsion height step from ``t``, non-repeating in ``mu``: its
    states to ``s``, the pivots ``v``, ``u``, ``s``, and the lower strip."""
    l, r, g = p.l, p.r, p.g
    H = mu.height
    x = min(bx for bx, by in mu.boxes if by == H)
    q = x + H - 1
    n = r - q
    psi = [(x + i, H) for i in range(n + 1)]
    omega_n0 = (x + n + l - 1, H - l)
    gm2_box = (omega_n0[0], omega_n0[1] + 1)
    gm1_box = (omega_n0[0] + 1, omega_n0[1])
    states = [t]
    if g - 1 in t.symbols:
        states.extend(cycle_out_trace(t, g - 1, _ref_smallest_free(t, p))[1:])
    if (displaced := states[-1].at(gm2_box)) != g - 2:
        states.append(swap_into(states[-1], g - 1, gm2_box))
        states.extend(cycle_out_trace(states[-1], g - 1, displaced)[1:])
        assert states[-1].at(gm2_box) == g - 2
    v = states[-1]
    u = swap_into(v, g - 1, gm1_box, strict=False)
    assert len(u.symbols) == len(v.symbols) + 1
    i = (q - 1) - l
    assert mu.word[i] == "N" and set(mu.word[i + 1:]) <= {"E"}
    nu = _strip(r, l, mu.word[:i] + "E" * (len(mu.word) - i))
    lands = nu.repeat_map(1)
    filling = list(map(u.at, nu.shape.index.boxes))
    slot = u.shape.index.slot
    for box in psi:
        filling[lands[slot[box]]] = u.at(box)
    s = Tableau(u.shape, tuple(map(filling.__getitem__, lands)))
    assert displacement_fault(s, p.k) is None and is_non_repeating(s, nu, p)
    assert len(s.symbols) == expected_codim(r, p.k)
    assert dominates(v, u, p) and dominates(s, u, p)
    return [*states, s], v, u, s, nu


def _ref_descend(t, mu, p) -> list[Tableau]:
    mu0 = horizontal_strip(p.r, p.k)
    states = [t]
    if p.eps == 1 and not mu0.degenerate:
        while mu.height > p.l:
            path, *_, mu = ref_descent_step(states[-1], mu, p)
            states.extend(path[1:])
    boxes, last = mu0.shape.index.boxes, -1
    while (i := next((i for i, b in enumerate(boxes) if states[-1].at(b) != i + 1),
                     len(boxes))) < len(boxes):
        assert i > last, "reference walk failed to reduce the rank"
        cur, a, last = states[-1], i + 1, i
        b = _ref_smallest_free(cur, p)
        assert b >= a
        states.extend(cycle_out_trace(cur, a, b)[1:])
        states.append(swap_in_for(states[-1], a, states[-1].at(boxes[i])))
        if not is_non_repeating(states[-1], mu0, p):
            raise InvariantError("reference walk left the non-repeating family")
    return states


def ref_connect_path(t, s, p) -> list[Tableau]:
    """The walk from ``t`` to ``s``: both descents to ``minimal_witness(p)``,
    joined, with each immediate return collapsed."""
    if t == s:
        return [t]
    down_t, down_s = _ref_descend(t, _strip_of(t, p), p), _ref_descend(s, _strip_of(s, p), p)
    assert down_t[-1] == down_s[-1] == minimal_witness(p)
    out: list[Tableau] = []
    for state in down_t + down_s[-2::-1]:
        if out and out[-1] == state:
            continue
        if len(out) >= 2 and out[-2] == state:
            out.pop()
            continue
        out.append(state)
    return out
