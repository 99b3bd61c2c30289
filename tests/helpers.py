"""Row-order builders, table ids and search oracles shared by the test modules.

Hand-written examples read best with the top row first, while
:meth:`Tableau.from_rows` takes the bottom row first (French convention);
``stair`` and ``square`` bridge the two.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from prymbn.core import Tableau, is_prym, square_shape, staircase_shape
from prymbn.counting import count_linext, strip_poset_succ_masks
from prymbn.strips import enumerate_strips


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
