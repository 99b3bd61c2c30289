"""Cardinality C(r, k) of minimal fillings by four independent routes.

``C(r, k)`` counts the strip tableaux whose symbols are exactly
``[1..n(r,k)]`` (equivalently, the maximal cells per fixed symbol choice).
Routes: hook-length formula on the staircase (torsion 0 or above ``2r-2``),
an alternating factorial-determinant sum and a lattice-path walk (even
torsion up to ``2r-2``), and linear-extension counting on the strip posets
(any torsion, desk-scale).  Everything is exact integer/rational arithmetic.

:func:`applicable_routes` is the one statement of the counting domain
(``r >= 1`` and a torsion the torsion rule takes) and of where each route
applies: every route function and :func:`cardinality` read it, and refuse a
route outside it with one message.  :func:`route_counts` is the one sweep
over every route that applies, shared by ``count --method all``, the
census rows and acceptance row R2.

The determinant route scales column ``j`` of each term's matrix by
``top_j!``, the factorial of its largest argument, so that every entry
``1/m!`` becomes the integer ``top_j!/m!``.  Each term is then one integer
determinant by fraction-free (Bareiss) elimination, ``O(l^3)`` integer
operations per tuple that survives, divided by ``prod top_j!``.

The brute route has two kernels, both layered dynamic programs over
reachable down-sets.  Even torsion and the generic regime have one strip,
mu_0, and :func:`count_linext` counts the linear extensions of its poset
(:func:`strip_poset_succ_masks`).  Odd torsion has one strip per E/N word,
``2^(r-l)`` of them, and :func:`_count_strip_words` counts the pairs (word,
linear extension) in one pass: its key is a down-set plus the letters that
still decide the predecessors of an unplaced slot.  The lattice-path walk
is layered the same way.  No route needs recursion.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable, Iterable

from .core import (
    GuardRefused,
    InvalidInputError,
    InvariantError,
    PrymParams,
    _check_int,
    generic_regime,
)
from .dimension import expected_codim, pbn_dimension
from .strips import StripShape, _cell_symbols, horizontal_strip

__all__ = [
    "BRUTE_SYMBOL_LIMIT",
    "applicable_routes",
    "cardinality",
    "count_brute",
    "count_even_determinant",
    "count_generic",
    "count_lattice_paths",
    "count_linext",
    "hook_length_syt_count",
    "max_cell_count",
    "route_counts",
    "strip_poset_succ_masks",
]

BRUTE_SYMBOL_LIMIT = 18

def applicable_routes(r: int, k: int) -> tuple[str, ...]:
    """The routes of :func:`cardinality` that compute C(r, k), cheapest first.

    The counting domain is ``r >= 1`` and a torsion ``k`` of 0 or at least
    2; anything else is refused here, for every route.  ``hook`` applies
    at torsion 0 or above ``2r-2``, ``det`` and ``paths`` at even torsion
    in ``[2, 2r-2]``, and ``brute`` everywhere, subject to its
    ``BRUTE_SYMBOL_LIMIT`` guard.  Odd torsion has ``brute`` alone:
    C(r, k) = C(r, k+1) there is checked by acceptance row R10, not used.

    The order rests on timing every route at every even (r, k) with
    ``r <= 10`` (median of 3 calls, Python 3.11 on a 2-core VM).  Up to
    about 15 symbols every route takes under 0.2 ms.  Above that ``det``,
    always under 2 ms, is the cheapest wherever it applies (``brute`` ties
    it within 0.05 ms at k = 4 and 6), while ``paths`` and ``brute`` grow
    by orders of magnitude with the symbol count: at (10, 16), 52 symbols,
    ``det`` takes under 1 ms, ``brute`` over 100 ms and ``paths`` over
    150 ms.  ``hook`` stays under 0.1 ms.  Past the first route, the order
    is only the listing order of ``count --method all``, where the guarded
    ``brute`` comes last although it beats ``paths`` above about 12
    symbols.  Timed the same way at every odd (r, k) with ``r <= 10``,
    ``brute`` takes under 2 ms at k = 3 and 5 (up to 27 symbols), 5.7 ms
    at (10, 7) and 0.55 s at (10, 17), 54 symbols: its cost grows with the
    strip width, not with the number of strips.
    """
    _check_int(r, "r", 1)
    routes = ("hook",) if generic_regime(r, k) else ()  # refuses a bad k
    if k % 2 == 0 and 2 <= k <= 2 * r - 2:
        routes += ("det", "paths")
    return routes + ("brute",)


def hook_length_syt_count(partition: list[int] | tuple[int, ...]) -> int:
    """Number of standard fillings of a partition shape, by hook lengths."""
    try:
        rows = tuple(_check_int(a, "a part", 1) for a in partition)
    except TypeError:  # not iterable
        raise InvalidInputError(f"not a partition: {partition!r}") from None
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise InvalidInputError(f"not a partition: {rows}")
    n = sum(rows)
    denom = 1
    for i, length in enumerate(rows):
        for j in range(1, length + 1):
            arm = length - j
            leg = sum(1 for other in rows[i + 1 :] if other >= j)
            denom *= arm + leg + 1
    count, rem = divmod(factorial(n), denom)
    if rem:
        raise InvariantError("hook product does not divide n!")
    return count


def _check_route(route: str, r: int, k: int) -> None:
    """Refuse ``route`` unless :func:`applicable_routes` offers it at (r, k)."""
    if route not in applicable_routes(r, k):
        raise InvalidInputError(f"method {route!r} does not apply at (r, k) = ({r}, {k})")


def count_generic(r: int) -> int:
    """C(r, 0): standard fillings of the staircase T_r."""
    _check_route("hook", r, 0)
    return hook_length_syt_count(tuple(range(r, 0, -1)))


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    Bareiss's update ``(pivot * a - b * c) // previous pivot`` divides
    exactly, so every entry stays an integer (a minor of the input) and the
    last pivot is the determinant.  A zero pivot swaps in a lower row with
    a nonzero entry in its column, flipping the sign; a column with none
    makes the matrix singular.  ``O(n^3)`` integer operations; ``m`` is
    overwritten.
    """
    n = len(m)
    sign, prev = 1, 1
    for i in range(n - 1):
        if not m[i][i]:
            swap = next((j for j in range(i + 1, n) if m[j][i]), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        pivot_row = m[i]
        pivot = pivot_row[i]
        for row in m[i + 1 :]:
            lead = row[i]
            for c in range(i + 1, n):
                row[c] = (pivot * row[c] - lead * pivot_row[c]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _falling(top: int, l: int) -> list[int]:
    """``top! / (top - d)!`` for ``d = l-1, ..., 0``: one scaled column of
    the determinant, top row first.  The product passes through the factor
    0 once ``d > top >= 0``, which is the ``1/m! = 0`` of negative ``m``."""
    col, v = [], 1
    for d in range(l):
        col.append(v)
        v *= top - d
    col.reverse()
    return col


def _alpha_box(r: int, k: int, widen: int) -> list[range]:
    """The box of :func:`count_even_determinant`'s sum, one range per
    coordinate: from the least ``a_j`` keeping ``top_j`` nonnegative up to
    where the others, at their least, leave a zero sum; ``widen`` grows it."""
    l = k // 2
    lo = [-((r + l - 1 - 2 * j) // k) for j in range(l)]
    total_lo = sum(lo)
    return [range(a - widen, a - total_lo + widen + 1) for a in lo]


def _zero_sum_tuples(ranges: list[range]) -> list[tuple[int, ...]]:
    """The tuples of ``product(*ranges)`` that sum to 0, in its order.

    A prefix is extended only by values whose sum the remaining ranges can
    still cancel, so the last coordinate is forced and no other tuple is
    built.  The ranges have step 1.
    """
    # rest_lo[j], rest_hi[j]: the least and greatest sums over ranges[j+1:].
    rest_lo, rest_hi = [0] * len(ranges), [0] * len(ranges)
    for j in range(len(ranges) - 2, -1, -1):
        rest_lo[j] = rest_lo[j + 1] + ranges[j + 1].start
        rest_hi[j] = rest_hi[j + 1] + ranges[j + 1].stop - 1
    layer: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for rng, least, most in zip(ranges, rest_lo, rest_hi):
        layer = [
            (prefix + (a,), s + a)
            for prefix, s in layer
            for a in range(max(rng.start, -s - most), min(rng.stop, -s - least + 1))
        ]
    return [alpha for alpha, _ in layer]


def count_even_determinant(r: int, k: int, *, widen: int = 0) -> int:
    """C(r, k) for even torsion via the factorial-determinant sum.

    ``n! * sum over integer tuples (a_1..a_l) with sum 0 of
    det[ 1/(r + (i-1) - 2(j-1) + a_j k)! ]``, with ``1/m! = 0`` for
    negative ``m``.  A column is identically zero once its largest entry's
    argument goes negative, which bounds each coordinate below; the zero-sum
    constraint bounds it above.  ``widen``, an integer of at least 0, grows
    that bounding box (the result must not change; tests use it as a
    finite-support check).  The sum visits only the box's zero-sum tuples
    (:func:`_zero_sum_tuples`).

    Column ``j``'s largest argument is ``top_j = r + (l-1) - 2(j-1) + a_j k``
    (row ``l``).  An ``a`` with a negative ``top_j`` has a zero column and
    is skipped.  Otherwise column ``j`` is scaled by ``top_j!``, so its
    entries become the integers ``top_j!/m!`` (0 for ``m < 0``); the term
    is then the integer determinant, found by fraction-free elimination
    (:func:`_bareiss_det`), over ``prod top_j!``.  That is ``O(l^3)``
    integer operations per surviving ``a``.
    """
    _check_route("det", r, k)
    _check_int(widen, "widen")
    l, n = k // 2, expected_codim(r, k)
    total = Fraction(0)
    for alpha in _zero_sum_tuples(_alpha_box(r, k, widen)):
        tops = [r + l - 1 - 2 * j + a * k for j, a in enumerate(alpha)]
        if min(tops) < 0:
            continue
        cols = [_falling(top, l) for top in tops]
        det = _bareiss_det([list(row) for row in zip(*cols)])
        total += Fraction(det, prod(map(factorial, tops)))
    count = factorial(n) * total
    if count.denominator != 1 or count < 0:
        raise InvariantError(f"determinant sum is not a nonnegative integer: {count}")
    return int(count)


def count_lattice_paths(r: int, k: int) -> int:
    """C(r, k) for even torsion by counting monotone lattice paths.

    Paths run from ``(l, l-1, ..., 1)`` to ``(r+l, r+l-2, ..., r-l+2)`` by
    unit steps, every point strictly decreasing with wrap gap below the
    torsion: ``z_1 > ... > z_l > z_1 - k``.
    """
    _check_route("paths", r, k)
    l = k // 2
    start = tuple(l - j + 1 for j in range(1, l + 1))
    end = tuple(r + l - 2 * (j - 1) for j in range(1, l + 1))

    def valid(z: tuple[int, ...]) -> bool:
        return all(z[i] > z[i + 1] for i in range(l - 1)) and z[-1] > z[0] - k

    if not (valid(start) and valid(end)):
        raise InvariantError("lattice-path endpoints violate the chain constraint")
    # Layer j maps each valid point j unit steps above start, and at most
    # end in every coordinate, to the number of paths reaching it.
    layer = {start: 1}
    for _ in range(sum(end) - sum(start)):
        above: dict[tuple[int, ...], int] = {}
        for z, ways in layer.items():
            for i in range(l):
                if z[i] < end[i]:
                    nxt = z[:i] + (z[i] + 1,) + z[i + 1 :]
                    if valid(nxt):
                        above[nxt] = above.get(nxt, 0) + ways
        layer = above
    return layer.get(end, 0)


def strip_poset_succ_masks(mu: StripShape, eps: int) -> list[int]:
    """Successor bitmasks of the strip's filling constraints.

    Elements are the slots of ``mu.shape.index``; relations are the
    strip's order pairs (:meth:`StripShape.order_pairs`): the west/south
    covers inside the strip plus the gluing pairs for the given torsion
    parity.  Linear extensions of this poset are exactly the standard
    fillings counted by C(r, k).
    """
    succ = [0] * len(mu.shape.index.boxes)
    for lo, hi in mu.order_pairs(eps):
        succ[lo] |= 1 << hi
    return succ


def count_linext(succ_masks: list[int]) -> int:
    """Number of linear extensions of a poset given successor bitmasks.

    ``succ_masks[v]`` has bit ``w`` set when ``v < w`` is a (not necessarily
    covering) relation.  Layer ``j`` maps each down-set of ``n - j``
    elements reachable from the whole poset, by removing maximal elements
    one at a time, to the number of ways to reach it; only those down-sets
    are visited, so counts stay exact at arbitrary precision.
    """
    n = len(succ_masks)
    layer = {(1 << n) - 1: 1}
    for _ in range(n):
        below: dict[int, int] = {}
        for mask, ways in layer.items():
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                if not succ_masks[bit.bit_length() - 1] & mask:
                    sub = mask ^ bit
                    below[sub] = below.get(sub, 0) + ways
        layer = below
    return layer.get(0, 0)


def _letter_pairs(r: int, l: int) -> tuple[set[tuple[int, int]], list[tuple[set, set]]]:
    """The odd-torsion order pairs of the width-``l`` strips in ``T_r``,
    split by the move letter that decides them: the pairs of ``T_l``, and
    for each ``word[i]`` the pairs it adds when it is ``E`` and when ``N``.

    A strip's slots do not depend on its word: ``T_l``, then one window of
    ``l`` slots per anti-diagonal, west to east.  Letter ``i`` adds the
    covers from window ``l+i`` to window ``l+i+1`` and the gluing pair of
    window ``l+i``, so a pair belongs to the window of its smaller slot.
    Both tables are read from :meth:`StripShape.order_pairs` of the all-E
    and all-N strips, built outside the strip cache.
    """
    base = l * (l - 1) // 2  # first slot of window l, the last anti-diagonal of T_l
    tables = []
    for move in "EN":
        own: dict[int, set[tuple[int, int]]] = {i: set() for i in range(-1, r - l)}
        for lo, hi in StripShape(r, l, move * (r - l)).order_pairs(1):
            own[max((min(lo, hi) - base) // l, -1)].add((lo, hi))  # -1: inside T_l
        tables.append(own)
    east, north = tables
    if east[-1] != north[-1]:
        raise InvariantError(f"the all-E and all-N strips of T_{r} disagree on T_{l}")
    return east[-1], [(east[i], north[i]) for i in range(r - l)]


def _count_strip_words(r: int, l: int) -> int:
    """Pairs (word, linear extension of the word's strip poset at odd
    torsion) over the width-``l`` strips in ``T_r``, by one layered DP.

    Layer ``j`` maps each reachable key to its number of ways.  A key is a
    down-set of ``j`` slots and the letters of the live moves.  A slot's
    predecessors are fixed, except for the pairs its letters add
    (:func:`_letter_pairs`).  A letter is chosen, E or N, when the first
    slot whose predecessors depend on it is placed, and leaves the key once
    every such slot is placed.  Each path then fixes one word and one
    linear extension of its strip, so the layers sum the per-strip counts.
    """
    fixed, letters = _letter_pairs(r, l)
    n = l * (l + 1) // 2 + l * (r - l)
    pred = [0] * n  # predecessors under every word
    for lo, hi in fixed:
        pred[hi] |= 1 << lo
    # choice[s][i]: the predecessors letter i adds to slot s under E and N.
    choice: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for i, sides in enumerate(letters):
        for v, pairs in enumerate(sides):
            for lo, hi in pairs:
                choice[hi].setdefault(i, [0, 0])[v] |= 1 << lo
    deps = [0] * len(letters)  # the slots whose predecessors letter i decides
    for s, own in enumerate(choice):
        for i, (east, north) in list(own.items()):
            pred[s] |= east & north
            if east == north:
                del own[i]
            else:
                deps[i] |= 1 << s
    # A key codes letter i by bit 2i (chosen) and bit 2i+1 (N).  moves[s]
    # maps the code of slot s's chosen letters to each way of placing s:
    # the predecessors it needs and the code bits of its newly chosen letters.
    span, moves, retire = [0] * n, [], []
    for s, own in enumerate(choice):
        ways = [(0, pred[s], 0)]  # (code of the chosen letters, need, add)
        for i, sides in own.items():
            span[s] |= 3 << 2 * i
            ways = [
                (have | c, need | side, add) if known else (have, need | side, add | c)
                for have, need, add in ways
                for c, side in zip((1 << 2 * i, 3 << 2 * i), sides)
                for known in (True, False)
            ]
        table: dict[int, list[tuple[int, int]]] = {}
        for have, need, add in ways:
            table.setdefault(have, []).append((need, add))
        moves.append(table)
        retire.append([(deps[i], ~(3 << 2 * i)) for i in own])
    full = (1 << n) - 1
    layer = {(0, 0): 1}
    for _ in range(n):
        above: dict[tuple[int, int], int] = {}
        for (mask, code), ways in layer.items():
            free = full ^ mask
            rest = free
            while rest:
                bit = rest & -rest
                rest ^= bit
                s = bit.bit_length() - 1
                sub = mask | bit
                for need, add in moves[s][code & span[s]]:
                    if need & free:
                        continue
                    c = code | add
                    for dep, clear in retire[s]:
                        if not dep & ~sub:
                            c &= clear
                    above[sub, c] = above.get((sub, c), 0) + ways
        layer = above
    return layer.get((full, 0), 0)


def count_brute(r: int, k: int, *, force: bool = False) -> int:
    """C(r, k) by counting linear extensions of strip posets, guarded by
    :data:`BRUTE_SYMBOL_LIMIT`.

    Even torsion and the generic regime have one strip, the horizontal
    strip mu_0 (all of ``T_r`` when degenerate), and count its linear
    extensions with :func:`count_linext`.  Odd torsion sums over all
    ``2^(r-l)`` strips at once, in :func:`_count_strip_words`.
    """
    _check_route("brute", r, k)
    n = expected_codim(r, k)
    if n > BRUTE_SYMBOL_LIMIT and not force:
        raise GuardRefused(
            f"count_brute over {n} symbols exceeds the desk-scale limit of"
            f" {BRUTE_SYMBOL_LIMIT}; pass force=True to run anyway"
        )
    p = PrymParams(g=max(n + 1, 2), r=r, k=k)
    if p.eps == 1 and not generic_regime(r, k):
        return _count_strip_words(r, p.l)
    return count_linext(strip_poset_succ_masks(horizontal_strip(r, k), p.eps))


def cardinality(r: int, k: int, method: str = "auto", *, force: bool = False) -> int:
    """C(r, k) by the requested route (``auto`` picks the cheapest that applies)."""
    if method == "auto":
        method = applicable_routes(r, k)[0]
    elif method not in ("hook", "det", "paths", "brute"):
        raise InvalidInputError(f"unknown counting method {method!r}")
    _check_route(method, r, k)
    if method == "hook":
        return count_generic(r)
    if method == "det":
        return count_even_determinant(r, k)
    if method == "paths":
        return count_lattice_paths(r, k)
    return count_brute(r, k, force=force)


def route_counts(r: int, k: int, *, force: bool = False) -> dict[str, int]:
    """C(r, k) by every route of :func:`applicable_routes` that its guard
    lets run, in that order.  Raises ``GuardRefused`` when no route runs."""
    counts: dict[str, int] = {}
    refusals: list[str] = []
    for route in applicable_routes(r, k):
        try:
            counts[route] = cardinality(r, k, route, force=force)
        except GuardRefused as exc:
            refusals.append(f"{route}: {exc}")
    if not counts:
        raise GuardRefused(
            f"no counting route ran at (r, k) = ({r}, {k}); " + "; ".join(refusals)
        )
    return counts


def max_cell_count(
    p: PrymParams, symbols: Iterable[int] | None = None, *, force: bool = False
) -> int:
    """The product rule: ``C(r, k) * binom(|S|, n(r, k))`` maximal cells draw
    from ``S``, which is ``[g-1]`` or the checked subset ``symbols``.  An empty
    locus is refused unless a subset is given; C(r, k) is not counted when
    the binomial is 0."""
    return _product_rule(p, symbols, lambda: cardinality(p.r, p.k, force=force))


def _product_rule(
    p: PrymParams, symbols: Iterable[int] | None, count: Callable[[], int]
) -> int:
    """:func:`max_cell_count` with C(r, k) from ``count``, called only when
    the binomial is not 0: a caller that already holds C(r, k) passes it."""
    if symbols is None and pbn_dimension(p) is None:
        raise InvalidInputError(
            f"the locus of type (g={p.g}, r={p.r}, k={p.k}) is empty;"
            " it has no maximal cells"
        )
    factor = comb(len(_cell_symbols(p, symbols)), expected_codim(p.r, p.k))
    return count() * factor if factor else 0
