"""Expected codimension, locus dimension, and the brute-force oracle.

The minimal codimension of a cell equals the box count of a width-``l``
strip in ``T_r``; the locus dimension is ``g - 1`` minus that, with
negative values meaning the locus is empty.  The oracle recomputes the
minimum over raw staircase displacement tableaux, independently of the
strip machinery.

Two search kernels over staircase displacement tableaux live here:
:func:`min_codim_staircase`, an explicit-stack branch and bound behind
:func:`brute_min_codim`, and :func:`enumerate_staircase_values`, behind
:func:`enumerate_staircase_tableaux`.  Both fill the slots of
``staircase_shape(r).index`` in order, reading its west/south neighbour
slots, so a value list they build is a ``Tableau`` value tuple.  Both run
on an explicit stack, so neither depends on the recursion limit.

The codimension search caps the value of each slot by symbol compression
(a counting argument of this module, not a lemma of the paper).  Relabel
the symbols of a filling by their rank among the symbols it uses: the
tableau condition, displacement and the distinct count ``d`` are kept,
and every value lands in ``[1, d]``.  A slot with ``up`` boxes on the
longest chain strictly north-east of it in ``T_r`` (``r + 1 - x - y``
for the box ``(x, y)``) is below ``up`` larger values, so in the
relabelled filling it holds at most ``d - up``.  A filling that beats the
incumbent ``best`` has ``d <= best - 1``, and every filling has
``d <= min(gmax, boxes)``, so the search starts from the incumbent
``min(gmax, boxes) + 1``, tries at most ``best - 1 - up`` at each slot,
and still meets the relabelled copy of every filling it must beat.

Besides the cap, each mode of the search has one lower bound on the
symbols a partial filling ends with, and drops a branch once that bound
reaches the incumbent:

- the budget (``use_budget``, the default) reads the strip width ``l``:
  each full anti-diagonal ``A_m`` still to come introduces at least
  ``min(m, l)`` fresh symbols.  At the root it is ``n(r, k)`` itself, so
  it cannot test the formula's lower half.
- the chain bound (paranoid mode) reads only ``T_r``'s order and the
  classes.  The symbols on a chain of same-class boxes are all different
  and all of that class, so a filling uses at least ``L_c`` symbols of
  class ``c``, where ``L_c`` is the longest class-``c`` chain
  (:func:`class_chain_lengths`).  A partial filling with ``p_c`` distinct
  class-``c`` symbols still needs ``sum_c max(0, L_c - p_c)`` fresh ones.
  ``sum_c L_c`` equals ``n(r, k)`` in the generic regime and at every even
  ``k`` (pinned for ``r <= 10``), so there the search stops right after
  its first ``n``-symbol filling.  At odd ``k`` outside the generic regime
  it falls short, and the search still has to rule out cheaper fillings.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .core import (
    GuardRefused,
    InvalidInputError,
    PrymParams,
    Tableau,
    _check_int,
    staircase_shape,
)
from .strips import StripTableau, effective_width, extend_strip_tableau, horizontal_strip

__all__ = [
    "BRUTE_BOX_LIMIT",
    "brute_min_codim",
    "class_chain_lengths",
    "enumerate_staircase_tableaux",
    "enumerate_staircase_values",
    "expected_codim",
    "min_codim_staircase",
    "minimal_witness",
    "pbn_dimension",
]

BRUTE_BOX_LIMIT = 10


def expected_codim(r: int, k: int) -> int:
    """Closed-form minimal codimension ``n(r, k)``.

    ``binom(l+1, 2) + l(r-l)``, the box count of a strip of width
    ``l = effective_width(r, k)``; at ``l = r`` it is ``binom(r+1, 2)``.
    """
    l = effective_width(r, k)
    return comb(l + 1, 2) + l * (r - l)


def pbn_dimension(p: PrymParams) -> int | None:
    """Dimension ``g - 1 - n(r, k)`` of the locus, or ``None`` when empty."""
    d = p.g - 1 - expected_codim(p.r, p.k)
    return d if d >= 0 else None


def minimal_witness(p: PrymParams) -> Tableau | None:
    """A staircase tableau of minimal codimension, or ``None`` when the
    locus is empty.

    Uses the standard filling of the horizontal strip (symbols 1..n in
    canonical box order) extended by the repeating conditions; for widths
    ``l >= r`` this is simply the standard staircase filling.
    """
    if pbn_dimension(p) is None:
        return None
    mu = horizontal_strip(p.r, p.k)
    entries = Tableau(mu.shape, tuple(range(1, len(mu.boxes) + 1)))
    return extend_strip_tableau(StripTableau(mu, entries, p))


def brute_min_codim(
    p: PrymParams, *, force: bool = False, use_budget: bool = True
) -> int:
    """Exhaustive minimum distinct-symbol count over staircase displacement
    tableaux ``T_r -> [g-1]``.

    Logically independent of the strip machinery.  Refuses staircases above
    ``BRUTE_BOX_LIMIT`` boxes unless ``force`` is set.  The search keeps
    the incumbent test and the symbol-compression cap in both modes, and
    prunes with one lower bound per mode (module docstring): the
    per-anti-diagonal budget by default, which reads the strip width, or
    with ``use_budget=False`` (paranoid mode) the class-chain bound, which
    reads only ``T_r``'s order and the diagonal classes.
    """
    boxes = p.r * (p.r + 1) // 2
    if boxes > BRUTE_BOX_LIMIT and not force:
        raise GuardRefused(
            f"brute_min_codim over {boxes} boxes exceeds the desk-scale limit"
            f" of {BRUTE_BOX_LIMIT}; pass force=True to run anyway"
        )
    got = min_codim_staircase(p.r, p.k, p.g - 1, use_budget)
    if got < 0:
        raise InvalidInputError(
            f"no displacement tableau T_{p.r} -> [{p.g - 1}] exists"
        )
    return got


def enumerate_staircase_tableaux(p: PrymParams) -> Iterator[Tableau]:
    """Every staircase displacement tableau ``T_r -> [g-1]``, canonical order.

    Desk-scale helper for property tests and pipelines; no guard, callers
    pick sensible sizes.
    """
    shape = staircase_shape(p.r)
    for values in enumerate_staircase_values(p.r, p.k, p.g - 1):
        yield Tableau(shape, tuple(values))


def class_chain_lengths(r: int, k: int) -> dict[int, int]:
    """The most boxes of each diagonal class on one chain of ``T_r``.

    One pass over the slots per class, ``F(slot) = max(F(west), F(south))
    + [slot in class c]``; ``L_c`` is the largest ``F``.  The symbols on a
    chain of class-``c`` boxes are all different and all belong to class
    ``c``, so a filling uses at least ``L_c`` symbols of class ``c``.
    """
    idx = staircase_shape(r).index
    west, south, cls = idx.west, idx.south, idx.classes(k)
    longest = {}
    for c in set(cls):
        f = [0] * (len(cls) + 1)  # f[-1] = 0 stands for a missing neighbour
        for i, ci in enumerate(cls):
            f[i] = max(f[west[i]], f[south[i]]) + (ci == c)
        longest[c] = max(f)
    return longest


def min_codim_staircase(r: int, k: int, gmax: int, use_budget: bool = True) -> int:
    """Minimum distinct-symbol count over displacement tableaux T_r -> [gmax].

    Branch and bound over the slots in canonical order, on an explicit
    stack; a symbol may recur only on its recorded diagonal class.  The
    incumbent starts at ``min(gmax, boxes) + 1``, above every filling's
    count, and slot ``i`` tries values up to ``best - 1 - up[i]``, where
    ``up[i]`` counts the boxes on the longest chain strictly north-east of
    it (symbol compression, module docstring); the cap is rebuilt only
    when ``best`` drops.  A branch is dropped once its mode's one lower
    bound reaches the incumbent: with ``use_budget`` the distinct count
    plus the per-anti-diagonal budget, which reads the strip width;
    without it (paranoid mode) the distinct count plus the chain deficit
    ``sum_c max(0, L_c - p_c)``, which reads only ``T_r``'s order and the
    classes.  Budget mode keeps no chain state, and its deficit is 0.

    Returns ``-1`` when no tableau exists (``gmax`` too small).
    """
    _check_int(gmax, "gmax")
    idx = staircase_shape(r).index
    west, south, cls = idx.west, idx.south, idx.classes(k)
    n = len(cls)
    if n == 0:
        return 0
    leff = effective_width(r, k)
    suf = [0] * (r + 2)
    for m in range(r, 0, -1):
        suf[m] = suf[m + 1] + min(m, leff)
    # need[i]: the fewest new symbols slots i.. still add (0 without the
    # budget); need[n] = 0 leaves the incumbent test for a complete filling.
    need = [0] * (n + 1)
    # short[c] = L_c - p_c, in paranoid mode only; it changes only when a
    # symbol first enters or finally leaves the filling.
    chains = not use_budget
    short = class_chain_lengths(r, k) if chains else {}
    if use_budget:
        for i, (x, y) in enumerate(idx.boxes):
            need[i] = suf[x + y - 1] if x == 1 else suf[x + y]
    # up[i]: the boxes on the longest chain strictly north-east of slot i;
    # top[i] = best - 1 - up[i], rebuilt when best drops.
    up = [r + 1 - x - y for x, y in idx.boxes]
    cap0 = min(gmax, n)
    top = [cap0 - u for u in up]
    sym_class: list[int | None] = [None] * (gmax + 1)
    sym_count = [0] * (gmax + 1)
    # values[n] stays 0, so values[-1], a missing neighbour, is below every symbol.
    values = [0] * (n + 1)
    # low[i]: distinct count plus deficit with the slots before i filled;
    # fresh[i]: the same once slot i takes a fresh symbol too.  Both hold
    # while slot i is open, since the search undoes everything placed past
    # it before it comes back.
    low = [0] * n
    fresh = [0] * n
    low[0] = sum(short.values())
    fresh[0] = low[0] + (short[cls[0]] <= 0 if chains else 1)
    best = cap0 + 1  # above any filling's count
    i = 0
    v = 0  # the last value tried at slot i
    while True:
        ci = cls[i]
        cap = top[i]
        v += 1
        while v <= cap and sym_class[v] is not None and sym_class[v] != ci:
            v += 1
        if v > cap:
            if i == 0:
                break
            i -= 1
            v = values[i]
            sym_count[v] -= 1
            if not sym_count[v]:
                if chains:
                    short[sym_class[v]] += 1
                sym_class[v] = None
            continue
        count = sym_count[v]
        d = low[i] if count else fresh[i]
        if d + need[i + 1] >= best:
            continue
        if i + 1 == n:
            # Every class chain is placed, so the deficit is 0 and d is
            # the filling's distinct count; d < best, so the cap drops.
            best = d
            top = [d - 1 - u for u in up]
            continue
        if not count:
            sym_class[v] = ci
            if chains:
                short[ci] -= 1
        sym_count[v] = count + 1
        values[i] = v
        i += 1
        low[i] = d
        fresh[i] = d + (short[cls[i]] <= 0 if chains else 1)
        v = values[west[i]]
        if values[south[i]] > v:
            v = values[south[i]]
    return best if best <= cap0 else -1


def enumerate_staircase_values(r: int, k: int, gmax: int) -> Iterator[tuple[int, ...]]:
    """Yield the canonical-order value tuple of every displacement tableau
    T_r -> [gmax], in lexicographic order.  Desk-scale helper for oracles."""
    _check_int(gmax, "gmax")
    idx = staircase_shape(r).index
    west, south, cls = idx.west, idx.south, idx.classes(k)
    n = len(cls)
    if n == 0:
        yield ()
        return
    sym_class: list[int | None] = [None] * (gmax + 1)
    sym_count = [0] * (gmax + 1)
    values = [0] * n
    i = 0
    v = 0  # the last value tried at slot i
    while True:
        ci = cls[i]
        v += 1
        while v <= gmax and sym_class[v] is not None and sym_class[v] != ci:
            v += 1
        if v > gmax:
            if i == 0:
                return
            i -= 1
            v = values[i]
            sym_count[v] -= 1
            if not sym_count[v]:
                sym_class[v] = None
            continue
        values[i] = v
        if i + 1 == n:  # no later slot reads the last symbol's class
            yield tuple(values)
            continue
        sym_class[v] = ci
        sym_count[v] += 1
        i += 1
        v = values[west[i]] if west[i] >= 0 else 0
        if south[i] >= 0 and values[south[i]] > v:
            v = values[south[i]]
