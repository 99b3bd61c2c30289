"""Strips, non-repeating tableaux, strip tableaux, and dominating constructions.

A strip of width ``l`` inside the staircase ``T_r`` consists of the full
sub-staircase ``T_l`` plus, for each anti-diagonal ``n > l``, a window of
``l`` consecutive boxes whose west end (the "n-th leftmost box") moves one
step east or north of the previous window's west end.  The move sequence is
the strip's word; the all-east word gives the horizontal strip ``mu_0``
(the bottom ``l`` rows).

A tableau on ``T_r`` is non-repeating in a strip when boxes in the left and
right components of the complement copy strip values along translations by
the torsion, and consecutive windows satisfy a gluing inequality.  Such a
tableau is determined by its strip restriction, which is injective; this
restriction is a strip tableau.  In the generic regime (torsion ``0`` or at
least ``2r - 1``) the strip degenerates to ``T_r`` itself, on
``staircase_shape(r)``, and strip tableaux to injective fillings.

Consumers read a strip's geometry from two slot tables per torsion parity:
:meth:`StripShape.repeat_map` and :meth:`StripShape.order_pairs`.  The
repeat map is the only source of the repeating translations.  It builds
the extension of a strip tableau (:func:`extend_strip_tableau`); since it
fixes every strip slot, checked once when the map is built, the extension
restricts to the strip tableau exactly.  The filling rule has a per-strip
part, ``_cell_strip_fault``, and a per-filling part,
``_strip_filling_fault``: :class:`StripTableau` reads both, and the cell
enumeration reads the first once per strip and the second once per
filling.  The paper's claim that every extension is a displacement
tableau is checked once per strip and parity, for every filling at once,
by :meth:`StripShape.slot_classes`, which also gives each cell's (class,
symbol) pairs.  The repeat map also tests a given tableau for the
repeat condition: ``_non_repeating`` is the one rule, on slot values read
through the strip's slot tables (:attr:`StripShape.stair_slots`, the order
pairs and the repeat map), behind the input checks of
:func:`is_non_repeating` and at the end of each descent step of the
connectivity walks in ``locus``.  The repeat map also spreads strip
values over ``T_r`` in the even-torsion maxima of
:func:`dominating_non_repeating` and the descent result of
``locus.height_descent_step``.  The order pairs are the only source of
the gluing pairs: one scan of them checks a strip filling, and they order
the strip search and the brute count.  The search's one prune,
:meth:`StripShape.up_set_sizes`, and the extension proof read their
transitive closure.
``_glued_strip`` alone picks a tableau's strip; :func:`is_non_repeating` checks it.

The strips the module hands out come from one bounded cache keyed by
``(r, l, word)`` (:data:`STRIP_CACHE` strips), so a strip's shape, index,
staircase slots, order pairs, repeat maps and slot classes are built once
while it stays cached: :func:`enumerate_strips`, :func:`horizontal_strip`,
the strip ``_glued_strip`` picks and ``locus.height_descent_step`` read it.
Only the brute count at odd torsion builds strips outside it: the all-E
and all-N strips, whose order pairs it splits by move letter.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from .core import (
    Box,
    InvalidInputError,
    InvariantError,
    PrymParams,
    Shape,
    Tableau,
    _cached,
    _canon,
    _check_int,
    _check_params,
    _expect,
    _same_shape,
    _shape_of,
    _symbol_fault,
    anti_diagonal,
    displacement_fault,
    dominates,
    generic_regime,
    staircase_fault,
    staircase_shape,
    symbol_fault,
)

__all__ = [
    "StripShape",
    "StripTableau",
    "cell_strips",
    "dominating_non_repeating",
    "effective_width",
    "enumerate_strip_tableaux",
    "enumerate_strips",
    "extend_strip_tableau",
    "horizontal_strip",
    "is_non_repeating",
    "restrict_to_strip",
    "strips_admitting",
]


def effective_width(r: int, k: int) -> int:
    """Strip width for torsion ``k`` inside ``T_r``: ceil(k/2), capped at r.

    In the generic regime (:func:`~prymbn.core.generic_regime`, which
    refuses a bad ``r`` or ``k``) the width is ``r``: the strip is all of
    ``T_r``.
    """
    return r if generic_regime(r, k) else (k + 1) // 2


def _check_parity(eps: object) -> None:
    """The parity rule: a torsion parity is exactly the int 0 or 1."""
    if type(eps) is not int or eps not in (0, 1):
        raise InvalidInputError(f"torsion parity must be 0 or 1, got {eps!r}")


@dataclass(frozen=True)
class StripShape:
    """A width-``l`` strip in ``T_r``, encoded by its east/north word.

    Its per-parity tables (:meth:`repeat_map`, :meth:`order_pairs` and
    their closure, which :meth:`up_set_sizes` reads) are built once per
    parity, after the parity rule (``_check_parity``), and
    :meth:`slot_classes` once for each of the two torsions of its width
    (the degenerate strip reads ``T_r``'s class maps).  A cached table is
    served only to an exact ``int``, so a bool or float equal to 0 or 1 is
    refused too.
    """

    r: int
    l: int
    word: str

    def __post_init__(self) -> None:
        _check_int(self.r, "r")
        _check_int(self.l, "l")
        if not isinstance(self.word, str):
            raise InvalidInputError(f"strip word must be a string, got {self.word!r}")
        if self.l > self.r:
            raise InvalidInputError(f"strip width {self.l} outside [0, {self.r}]")
        if len(self.word) != self.r - self.l:
            raise InvalidInputError(
                f"strip word must have length r - l = {self.r - self.l}, got {self.word!r}"
            )
        if any(c not in "EN" for c in self.word):
            raise InvalidInputError(f"strip word must use E/N moves, got {self.word!r}")

    @_cached
    def _leftmost_ends(self) -> tuple[Box, ...]:
        """West ends of the windows on anti-diagonals 1..r."""
        ends = [(1, n) for n in range(1, self.l + 1)]
        x, y = (1, self.l)
        for c in self.word:
            x, y = (x + 1, y) if c == "E" else (x, y + 1)
            ends.append((x, y))
        return tuple(ends)

    def leftmost(self, n: int) -> Box:
        """West end of the window on anti-diagonal ``n`` (``(1, n)`` below T_l)."""
        if not 1 <= _check_int(n, "anti-diagonal") <= self.r:
            raise InvalidInputError(f"anti-diagonal {n} outside [1, {self.r}]")
        return self._leftmost_ends[n - 1]

    def rightmost(self, n: int) -> Box:
        """East end of the window on anti-diagonal ``n``."""
        x, y = self.leftmost(n)
        w = min(n, self.l)
        return (x + w - 1, y - w + 1)

    def window(self, n: int) -> tuple[Box, ...]:
        """The strip's boxes on anti-diagonal ``n``, west to east."""
        x, y = self.leftmost(n)
        return tuple((x + i, y - i) for i in range(min(n, self.l)))

    @property
    def boxes(self) -> frozenset[Box]:
        return self.shape.boxes

    @property
    def shape(self) -> Shape:
        """The strip as a shape: ``staircase_shape(r)``, looked up on every
        read, when degenerate, else an explicit shape built once."""
        return staircase_shape(self.r) if self.degenerate else self._explicit_shape

    @_cached
    def _explicit_shape(self) -> Shape:
        return Shape(
            "explicit", frozenset(b for n in range(1, self.r + 1) for b in self.window(n))
        )

    @_cached
    def stair_slots(self) -> tuple[int, ...]:
        """For each slot of ``self.shape.index``, the slot of its box in
        ``staircase_shape(r).index``: a tableau's strip values are its slot
        values read through this table."""
        slot = staircase_shape(self.r).index.slot
        return tuple([slot[b] for b in self.shape.index.boxes])

    @_cached
    def _repeat_maps(self) -> dict[int, tuple[int, ...]]:
        return {}

    def repeat_map(self, eps: int) -> tuple[int, ...]:
        """For each slot of ``staircase_shape(r).index``, the slot of
        ``self.shape.index`` whose value that box copies in a tableau
        non-repeating in this strip at torsion parity ``eps``.  A left box
        copies ``(x + l - eps, y - l)`` and a right box ``(x - l, y + l - eps)``;
        the chase follows them onto the strip, once per strip and parity.

        Every strip box must land on its own slot: :func:`extend_strip_tableau`
        relies on it to restrict to its strip tableau exactly.  A chase that
        leaves ``T_r``, misses the strip or moves a strip box raises
        :class:`~prymbn.core.InvariantError`."""
        table = self._repeat_maps.get(eps)
        if table is not None and type(eps) is int:
            return table
        _check_parity(eps)
        l = self.l
        stair = staircase_shape(self.r).index
        strip = self.shape.index
        lands: dict[Box, int] = {}
        for box in stair.boxes:
            path, b = [], box
            while b not in lands:
                if b not in stair.slot:
                    raise InvariantError(f"repeat chase from {box} leaves T_{self.r} at {b}")
                if len(path) > 2 * self.r:
                    raise InvariantError(f"repeat chase from {box} did not reach the strip")
                side = self.side_of(b)
                if side == 0:
                    lands[b] = strip.slot[b]
                    break
                if b in strip.slot:
                    raise InvariantError(f"repeat map moves strip box {b} off its own slot")
                path.append(b)
                b = (b[0] + l - eps, b[1] - l) if side == -1 else (b[0] - l, b[1] + l - eps)
            for q in path:
                lands[q] = lands[b]
        table = self._repeat_maps[eps] = tuple(map(lands.__getitem__, stair.boxes))
        return table

    @_cached
    def _order_pairs(self) -> dict[int, tuple[tuple[int, int], ...]]:
        return {}

    def order_pairs(self, eps: int) -> tuple[tuple[int, int], ...]:
        """The (smaller, larger) slot pairs of ``self.shape.index`` along
        which a strip tableau of torsion parity ``eps`` increases: the
        west/south covers (a strip passes the cover rule, so they decide the
        tableau condition), then the gluing pair of each move ``word[i]`` at
        position ``i`` from the end, on anti-diagonal ``r + i``.  Odd torsion
        compares the window's two ends (west below east after an east move,
        east below west after a north move); even torsion compares one end
        with the opposite end of the next window.
        """
        pairs = self._order_pairs.get(eps)
        if pairs is not None and type(eps) is int:
            return pairs
        _check_parity(eps)
        idx = self.shape.index
        if not idx.chained:
            raise InvariantError(f"strip {self} fails the cover rule")
        slot, glued = idx.slot, []
        for n, move in enumerate(self.word, start=self.l):
            lm, rm = self.leftmost(n), self.rightmost(n)
            if eps == 1:
                lo, hi = (lm, rm) if move == "E" else (rm, lm)
            elif move == "E":
                lo, hi = lm, self.rightmost(n + 1)
            else:
                lo, hi = rm, self.leftmost(n + 1)
            glued.append((slot[lo], slot[hi]))
        pairs = self._order_pairs[eps] = idx.covers + tuple(glued)
        return pairs

    @_cached
    def _up_sets(self) -> dict[int, tuple[int, ...]]:
        return {}

    def _closure(self, eps: int) -> tuple[int, ...]:
        """For each slot of ``self.shape.index``, the bitmask of the slots
        above it in the transitive closure of :meth:`order_pairs`: one
        bitmask per slot, taken in reverse topological order."""
        up_sets = self._up_sets.get(eps)
        if up_sets is not None and type(eps) is int:
            return up_sets
        _check_parity(eps)
        n = len(self.shape.index.boxes)
        succ: list[list[int]] = [[] for _ in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        for lo, hi in self.order_pairs(eps):
            succ[lo].append(hi)
            pred[hi].append(lo)
        left = list(map(len, succ))  # successors whose up-set is not yet known
        up = [0] * n
        done = [i for i in range(n) if not left[i]]
        for i in done:  # grows while it is read: every slot once its successors are in
            for j in succ[i]:
                up[i] |= up[j] | 1 << j
            for h in pred[i]:
                left[h] -= 1
                if not left[h]:
                    done.append(h)
        if len(done) < n:
            raise InvariantError(f"order pairs of strip {self} form a cycle")
        up_sets = self._up_sets[eps] = tuple(up)
        return up_sets

    def up_set_sizes(self, eps: int) -> tuple[int, ...]:
        """For each slot of ``self.shape.index``, the number of slots above
        it in the transitive closure of :meth:`order_pairs`.  A strip
        tableau is injective and increases along the pairs, so each of
        those slots holds its own symbol larger than the slot's."""
        return tuple(u.bit_count() for u in self._closure(eps))

    @_cached
    def _slot_classes(self) -> dict[int, tuple[int, ...]]:
        return {}

    def slot_classes(self, k: int) -> tuple[int, ...]:
        """For each slot of ``self.shape.index``, the one diagonal class mod
        ``k`` of the boxes of ``T_r`` that copy it (:meth:`repeat_map` at
        parity ``k mod 2``); ``k`` must be a torsion of the strip's width.
        The degenerate strip reads ``T_r``'s own ``classes(k)``.

        Building it proves the paper's extension claim once per strip and
        parity, for every filling at once.  A strip tableau is injective
        and increases along :meth:`order_pairs`, so its extension holds each
        symbol on the boxes that copy one slot, all of one class here: it
        is a displacement tableau once every cover of ``T_r`` lands on a
        slot pair of the pairs' transitive closure (:meth:`_closure`).  Its
        cell is then the slots' (class, value) pairs.  A class conflict or a
        cover landing outside the closure raises
        :class:`~prymbn.core.InvariantError`."""
        table = self._slot_classes.get(k) if type(k) is int else None
        if table is not None:
            return table
        if effective_width(self.r, k) != self.l:  # refuses a bad k
            raise InvalidInputError(f"torsion {k} does not fit the width-{self.l} strip {self}")
        stair = staircase_shape(self.r).index
        if self.degenerate:
            return stair.classes(k)
        eps = k % 2
        lands = self.repeat_map(eps)
        own: list[int | None] = [None] * len(self.shape.index.boxes)
        for box, c, j in zip(stair.boxes, stair.classes(k), lands):
            if own[j] is None:
                own[j] = c
            elif own[j] != c:
                raise InvariantError(
                    f"non-repeating extension puts classes {own[j]} and {c} on strip slot {j}"
                    f" (box {box})"
                )
        up = self._closure(eps)
        for lo, hi in stair.covers:
            a, b = lands[lo], lands[hi]
            if not up[a] >> b & 1:
                raise InvariantError(
                    f"non-repeating extension: cover {stair.boxes[lo]} -> {stair.boxes[hi]}"
                    f" of T_{self.r} lands on strip slots {a} -> {b}, outside the order closure"
                )
        table = self._slot_classes[k] = tuple(own)  # every slot: the strip boxes land on theirs
        return table

    @property
    def height(self) -> int:
        """Row of the r-th leftmost box (``l`` exactly for the horizontal strip)."""
        return self.leftmost(self.r)[1]

    @property
    def degenerate(self) -> bool:
        """True when the strip is all of ``T_r`` (width r)."""
        return self.l >= self.r

    def side_of(self, box: Box) -> int:
        """-1 for the left component, 0 on the strip, +1 for the right component."""
        if box not in staircase_shape(self.r):
            raise InvalidInputError(f"box {box!r} outside T_{self.r}")
        x, n = box[0], anti_diagonal(box)
        if x < self.leftmost(n)[0]:
            return -1
        if x > self.rightmost(n)[0]:
            return 1
        return 0


# Strips kept by (r, l, word); a fixed bound on strips, not on types, so the
# cache never grows with the requests a process serves.
STRIP_CACHE = 32


@lru_cache(maxsize=STRIP_CACHE, typed=True)
def _strip(r: int, l: int, word: str) -> StripShape:
    """The one strip for ``(r, l, word)`` while it stays cached, so its
    shape, index, order pairs and repeat maps are built once."""
    return StripShape(r, l, word)


def horizontal_strip(r: int, k: int) -> StripShape:
    """The all-east strip mu_0 for torsion ``k`` in ``T_r``, from the strip
    cache: ``k`` values of one width share it."""
    l = effective_width(r, k)
    return _strip(r, l, "E" * (r - l))


def enumerate_strips(p: PrymParams) -> list[StripShape]:
    """All strips for the given type, in lexicographic word order (E < N),
    from the strip cache.

    The generic regime yields the single degenerate strip ``T_r``.
    """
    l = effective_width(_check_params(p).r, p.k)
    return [_strip(p.r, l, w) for w in _words(p.r, l)]


def _words(r: int, l: int) -> Iterator[str]:
    """The words of the width-``l`` strips in ``T_r``, in lexicographic order."""
    return map("".join, product("EN", repeat=r - l))


def _order_failure(mu: StripShape, eps: int, values: Sequence[int]) -> int:
    """Position from the end of the first order pair of ``mu`` whose values
    fail to increase (below ``-len(mu.word)``: a cover), or 0 if none does."""
    pairs = mu.order_pairs(eps)
    for i, (lo, hi) in enumerate(pairs, start=-len(pairs)):
        if not values[lo] < values[hi]:
            return i
    return 0


def _strip_fault(mu: StripShape, p: PrymParams) -> str | None:
    """Why ``mu`` is no strip of type ``p``: its order, then its width."""
    if mu.r != p.r:
        return "strip does not match the type's staircase order"
    if mu.l != (width := effective_width(p.r, p.k)):
        return f"strip width {mu.l} does not match the torsion width {width}"
    return None


def is_non_repeating(t: Tableau, mu: StripShape, p: PrymParams) -> bool:
    """Whether ``t`` repeats strip values across the complement of ``mu``.

    Checks the left and right repeating conditions and the window gluing
    condition.  The strip must fit the type, and the restriction of ``t``
    to it must already satisfy the tableau and displacement conditions;
    violations there are input errors, not a False result.  Degenerate
    strips (all of ``T_r``) make every condition vacuous.

    The input checks are the tableau's shape and symbols and the strip's
    fit.  The rule itself is ``_non_repeating`` on the slot values: the
    connectivity walks of ``locus`` run it at the end of each descent step
    on the value tuples they build, after the cover scan each edit ran on
    each state built, and ``locus._check_walk`` checks each state a walk
    returns.
    """
    if fault := staircase_fault(t, p):
        raise InvalidInputError(f"is_non_repeating: tableau {fault}")
    if fault := _strip_fault(_expect(mu, StripShape), p):
        raise InvalidInputError(f"is_non_repeating: {fault}")
    return _non_repeating(mu, p, t.values)


def _non_repeating(mu: StripShape, p: PrymParams, values: tuple[int, ...]) -> bool:
    """The non-repeating rule on the slot values of a tableau on ``T_r`` and
    a strip ``mu`` of type ``p``, read through the strip's slot tables: the
    strip values (:attr:`StripShape.stair_slots`) increase along every
    order pair, and each box holds the strip value its repeat chase lands
    on (:meth:`StripShape.repeat_map`).  A restriction failing a cover or
    displacement is an input error, as :func:`is_non_repeating` states."""
    idx = mu.shape.index
    sub = tuple(map(values.__getitem__, mu.stair_slots))
    i = _order_failure(mu, p.eps, sub)
    if i < -len(mu.word):
        lo, hi = mu.order_pairs(p.eps)[i]
        raise InvalidInputError(
            "is_non_repeating: restriction to the strip violates the tableau condition"
            f" at {idx.boxes[lo]} -> {idx.boxes[hi]}"
        )
    seen: dict[int, int] = {}
    for c, v in zip(idx.classes(p.k), sub):
        if seen.setdefault(v, c) != c:
            raise InvalidInputError(
                f"is_non_repeating: restriction to the strip violates displacement at symbol {v}"
            )
    if mu.degenerate:
        return True
    # Each box must carry the strip value its repeat chase lands on.
    return i == 0 and values == tuple(map(sub.__getitem__, mu.repeat_map(p.eps)))


def _cell_strip_fault(mu: StripShape, p: PrymParams, shape: Shape) -> str | None:
    """The per-strip part of the filling rule: why a filling on ``shape``
    can be no strip tableau of ``mu`` and type ``p``, whatever its values,
    or ``None``.  In order: the strip fits the type, even torsion uses only
    mu_0, and ``shape`` is the strip's (a tableau fills its shape exactly)."""
    if fault := _strip_fault(mu, p):
        return fault
    if p.eps == 0 and "N" in mu.word:
        return "even torsion admits only the horizontal strip mu_0"
    if not _same_shape(shape, mu.shape):
        return "entries must fill the strip exactly"
    return None


def _strip_filling_fault(mu: StripShape, p: PrymParams, values: Sequence[int]) -> str | None:
    """The per-filling part of the filling rule: why ``values``, one per slot
    of a strip that passed :func:`_cell_strip_fault`, are no strip tableau
    of ``mu`` and type ``p``, or ``None``.  In order: they are symbols in
    ``[g-1]``, they are injective, and they increase along every order pair
    (the tableau and gluing conditions, one scan of
    :meth:`StripShape.order_pairs` through :func:`_order_failure`).
    :class:`StripTableau` and the cell enumeration both read it, once per
    filling."""
    if fault := _symbol_fault(values):
        return f"strip tableau {fault}"
    symbols = set(values)
    if symbols and max(symbols) >= p.g:
        return f"strip tableau {symbol_fault(Tableau(mu.shape, tuple(values)), p.g)}"
    if len(symbols) != len(values):
        return "strip tableau entries must be injective"
    i = _order_failure(mu, p.eps, values)
    if i < -len(mu.word):
        return "strip entries violate the tableau condition"
    if i:
        return (
            f"strip entries violate the gluing condition at anti-diagonal {mu.r + i}"
            f" ({mu.word[i]} move)"
        )
    return None


@dataclass(frozen=True)
class StripTableau:
    """An injective, glued filling of a strip with symbols in ``[g-1]``.

    Construction checks the field types, then both parts of the strip
    filling rule: :func:`_cell_strip_fault` (the strip fits the type and
    the entries fill it exactly) and :func:`_strip_filling_fault` (symbols
    in ``[g-1]``, injective, increasing along every order pair).  Every
    fact about the extension that reads only the strip restriction follows
    from these, so :func:`extend_strip_tableau` does not check them again.
    """

    strip: StripShape
    entries: Tableau
    params: PrymParams

    def __post_init__(self) -> None:
        p, mu = self.params, self.strip
        for name, value, cls in (
            ("strip", mu, StripShape), ("entries", self.entries, Tableau), ("params", p, PrymParams)
        ):
            if not isinstance(value, cls):
                raise InvalidInputError(
                    f"strip tableau {name} must be a {cls.__name__}, got {value!r}"
                )
        entries = self.entries
        if fault := _cell_strip_fault(mu, p, entries.shape) or _strip_filling_fault(
            mu, p, entries.values
        ):
            raise InvalidInputError(fault)


def extend_strip_tableau(st: StripTableau) -> Tableau:
    """The unique non-repeating tableau on ``T_r`` extending ``st``: every
    box takes the strip value its repeat chase lands on
    (:meth:`StripShape.repeat_map`).

    The repeat map sends each strip box to its own slot (checked once per
    strip and parity), so the extension restricts to ``st.entries``
    exactly.  Its strip order pairs, injectivity and symbol range were
    checked when ``st`` was built, the repeat condition holds by
    construction, and its symbols are the entries', one per strip box: it
    is non-repeating in its strip and minimal with no second check.  The
    paper's claim that it is a displacement tableau on ``T_r`` is checked
    once per strip and parity, for every filling, by
    :meth:`StripShape.slot_classes`, read here: a strip that fails that
    proof raises :class:`~prymbn.core.InvariantError`.
    """
    mu, p = _expect(st, StripTableau).strip, st.params
    mu.slot_classes(p.k)
    lands = mu.repeat_map(p.eps)
    return Tableau(staircase_shape(p.r), tuple(map(st.entries.values.__getitem__, lands)))


def _strip_extensions(
    p: PrymParams, symbols: tuple[int, ...]
) -> Iterator[tuple[StripShape, Tableau, frozenset[tuple[int, int]]]]:
    """Each cell strip, the extension of each of its fillings from
    ``symbols`` and that extension's cell (its ``_cell_pairs``), in the
    order of :func:`enumerate_strip_tableaux`; no strip tableau is built.
    Each strip meets the per-strip part of the filling rule
    (:func:`_cell_strip_fault`) and the extension proof
    (:meth:`StripShape.slot_classes`) once, and each filling the per-filling
    part (:func:`_strip_filling_fault`).  A strip or filling the search
    yields that fails the rule is an :class:`~prymbn.core.InvariantError`."""
    stair = staircase_shape(p.r)
    for mu in cell_strips(p):
        if fault := _cell_strip_fault(mu, p, mu.shape):
            raise InvariantError(f"strip search yielded a strip: {fault}")
        classes, lands = mu.slot_classes(p.k), mu.repeat_map(p.eps)
        for values in _fill_strip(mu, p, symbols):
            if fault := _strip_filling_fault(mu, p, values):
                raise InvariantError(f"strip search yielded a filling: {fault}")
            yield (
                mu,
                Tableau(stair, tuple(map(values.__getitem__, lands))),
                frozenset(zip(classes, values)),
            )


def restrict_to_strip(t: Tableau, mu: StripShape, p: PrymParams) -> StripTableau:
    """Package the strip restriction of a non-repeating tableau."""
    _shape_of(t)
    _check_params(p)
    _expect(mu, StripShape)
    return StripTableau(mu, Tableau(mu.shape, tuple(map(t.at, mu.shape.index.boxes))), p)


def _glued_strip(t: Tableau, p: PrymParams) -> StripShape:
    """The one strip a displacement tableau ``t`` on ``T_r`` may be
    non-repeating in.  Even torsion takes mu_0: a left box copies (x + l, y - l)
    and a right box (x - l, y + l), so each anti-diagonal past ``T_l`` is
    constant on x mod l in any window, and each gluing pair repeats a cover
    (E the north one of the west end, N the east one of the east end): every
    strip admits ``t`` or none does.  Odd torsion spells the word window by
    window, E exactly when the west end is smaller; the ends lie 2(l - 1)
    apart in x - y, no multiple of 2l - 1, so they never tie."""
    mu = horizontal_strip(p.r, p.k)
    if p.eps == 0 or mu.degenerate:
        return mu
    l, slot, values = mu.l, t.shape.index.slot, t.values
    word, x, y = "", 1, l
    for _ in mu.word:
        east = values[slot[x, y]] < values[slot[x + l - 1, y - l + 1]]
        word += "E" if east else "N"
        x, y = (x + 1, y) if east else (x, y + 1)
    return _strip(p.r, l, word)


def _strip_of(t: Tableau, p: PrymParams) -> StripShape | None:
    """The strip :func:`_glued_strip` picks when ``t`` is non-repeating in
    it, else ``None``, after :func:`strips_admitting`'s input checks: the one
    strip a caller that reads a single strip needs."""
    if fault := staircase_fault(t, p) or displacement_fault(t, p.k):
        raise InvalidInputError(f"strips_admitting: tableau {fault}")
    mu = _glued_strip(t, p)
    return mu if is_non_repeating(t, mu, p) else None


def strips_admitting(t: Tableau, p: PrymParams) -> list[StripShape]:
    """The strips in which ``t`` is non-repeating, in canonical strip order:
    the one :func:`_glued_strip` picks, all of them at even torsion, or none."""
    if (mu := _strip_of(t, p)) is None:
        return []
    return [mu] if p.eps else enumerate_strips(p)


def dominating_non_repeating(t: Tableau, p: PrymParams) -> tuple[StripShape, Tableau]:
    """A strip and a non-repeating tableau in it dominating ``t``.

    Odd torsion copies ``t`` along the strip its window ends pick, even
    torsion takes per-class anti-diagonal maxima on mu_0, and the generic
    regime returns ``t``, re-anchored on ``T_r`` as every input is first.
    """
    if fault := staircase_fault(t, p) or displacement_fault(t, p.k):
        raise InvalidInputError(f"dominating_non_repeating: tableau {fault}")
    t = _canon(t, p)
    mu = _glued_strip(t, p)
    if mu.degenerate:
        if len(t.symbols) != len(t.values):
            raise InvariantError("degenerate-torsion tableau should be injective")
        return mu, t
    if p.eps == 1:
        s = extend_strip_tableau(restrict_to_strip(t, mu, p))
    else:
        # The boxes that repeat one box of mu_0 are those of its anti-diagonal
        # and diagonal class, so the maximum over them is one per strip slot.
        lands = mu.repeat_map(0)
        best = [0] * len(mu.boxes)
        for j, v in zip(lands, t.values):
            best[j] = max(best[j], v)
        s = Tableau(t.shape, tuple(map(best.__getitem__, lands)))
        if not is_non_repeating(s, mu, p):
            raise InvariantError("anti-diagonal maxima are not non-repeating in mu_0")
    if not dominates(s, t, p):
        raise InvariantError("dominating construction failed to dominate its input")
    return mu, s


def enumerate_strip_tableaux(
    p: PrymParams, symbol_set: Iterable[int] | None = None
) -> Iterator[StripTableau]:
    """Every strip tableau of the given type, exactly once, in canonical order.

    Order: strip word lexicographic (E < N; even torsion uses only mu_0),
    then entries lexicographic over the strip's canonical box order.  When
    ``symbol_set`` is given, entries draw from it instead of ``[g-1]``.
    """
    symbols = _cell_symbols(p, symbol_set)
    for mu in cell_strips(p):
        shape = mu.shape
        for values in _fill_strip(mu, p, symbols):
            yield StripTableau(mu, Tableau(shape, values), p)


def _cell_symbols(p: PrymParams, symbol_set: Iterable[int] | None) -> tuple[int, ...]:
    """The ascending symbols cell entries draw from: ``[g-1]`` or a checked subset."""
    _check_params(p)
    if symbol_set is None:
        return tuple(range(1, p.g))
    try:
        given = list(symbol_set)
    except TypeError:
        raise InvalidInputError(
            f"symbol_set must be an iterable of symbols, got {symbol_set!r}"
        ) from None
    if fault := _symbol_fault(given):
        raise InvalidInputError(f"symbol_set: {fault}")
    symbols = tuple(sorted(set(given)))
    if symbols and symbols[-1] > p.g - 1:
        raise InvalidInputError("symbol_set must be a subset of [1, g-1]")
    return symbols


def cell_strips(p: PrymParams) -> list[StripShape]:
    """The strips that index cells: all of them at odd torsion, mu_0 otherwise."""
    if _check_params(p).eps == 0:
        return [horizontal_strip(p.r, p.k)]
    return enumerate_strips(p)


def _fill_strip(
    mu: StripShape, p: PrymParams, symbols: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Injective fillings of ``mu`` from the ascending ``symbols`` that
    increase along its order pairs, as value tuples over the strip's slots
    in lexicographic order: a depth-first search on an explicit stack.  Its
    callers check each one by :func:`_strip_filling_fault`.

    Slot ``i`` takes a symbol index below ``m - up``, where ``up`` is its
    up-set size (:meth:`StripShape.up_set_sizes`): each slot above it needs
    its own larger symbol.  The cap cuts only subtrees without a filling,
    so the fillings and their order are those of the uncapped search."""
    n, m = len(mu.shape.index.boxes), len(symbols)
    if m < n:
        return
    # An order pair constrains whichever end is placed later: a floor when
    # the smaller end precedes it, a ceiling when the larger end does (the
    # odd north move compares a window's east end against its west end).
    floors: list[list[int]] = [[] for _ in range(n)]
    ceilings: list[list[int]] = [[] for _ in range(n)]
    for i, j in mu.order_pairs(p.eps):
        if i < j:
            floors[j].append(i)
        else:
            ceilings[i].append(j)
    room = [m - u for u in mu.up_set_sizes(p.eps)]
    values = [0] * n
    used = [False] * m
    chosen = [-1] * n  # symbol index placed at each slot; -1 on entry
    end = [0] * n  # bound on each slot's symbol index, set on entry
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(values)
            i -= 1
            continue
        si = chosen[i]
        if si < 0:
            si = bisect_right(symbols, max(map(values.__getitem__, floors[i]), default=0))
            high = min(map(values.__getitem__, ceilings[i]), default=symbols[-1] + 1)
            end[i] = min(room[i], bisect_left(symbols, high))
        else:
            used[si] = False
            si += 1
        while si < end[i] and used[si]:
            si += 1
        if si < end[i]:
            used[si] = True
            values[i] = symbols[si]
            chosen[i] = si
            i += 1
        else:
            chosen[i] = -1
            i -= 1
