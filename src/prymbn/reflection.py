"""Reflection: loose boxes, upward displacement, and dominating reflective tableaux.

A reflective tableau is symmetric under ``b -> reflect_box(b)`` in the sense
``t(b) = 2g - t(reflect(b))``; it is determined by its restriction to the
staircase ``T_r`` and holds ``g`` along the main anti-diagonal.  The sweep
implemented by :func:`reflectify` turns any Prym tableau whose ``g``-fiber
sits in the parity class ``r mod 2`` into a reflective tableau dominating it,
growing a reflective partition ``kappa`` one symbol threshold at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    Box,
    InvalidInputError,
    InvariantError,
    PrymParams,
    Shape,
    Tableau,
    anti_diagonal,
    anti_diagonal_boxes,
    diag_class,
    dominance_signature,
    dominates,
    dual_symbol,
    explicit_shape,
    is_displacement,
    is_prym,
    is_reflective,
    is_tableau,
    reflect_box,
    square_shape,
    staircase_shape,
)

__all__ = [
    "ReflectionState",
    "extend_to_reflective",
    "loose_boxes",
    "reflectify",
    "reflectify_states",
    "reflectify_trace",
    "restrict_to_staircase",
    "upward_displacement",
]


def _as_shape(lam: Iterable[Box] | Shape) -> Shape:
    """``lam`` as a shape, so caller boxes meet the rule every shape checks."""
    return lam if isinstance(lam, Shape) else explicit_shape(lam)


def _require_partition(boxes: frozenset[Box], op: str) -> None:
    for x, y in boxes:
        if x > 1 and (x - 1, y) not in boxes:
            raise InvalidInputError(
                f"{op} needs a partition; {(x, y)} present without {(x - 1, y)}"
            )
        if y > 1 and (x, y - 1) not in boxes:
            raise InvalidInputError(
                f"{op} needs a partition; {(x, y)} present without {(x, y - 1)}"
            )


def loose_boxes(
    lam: Iterable[Box] | Shape, classes: Iterable[int] | None, k: int
) -> frozenset[Box]:
    """Boxes that may be added to the partition ``lam`` on the given classes.

    A box is loose when it is outside ``lam``, both its west and south
    neighbours are inside (or it sits on the respective axis), and its
    diagonal class lies in ``classes`` (``None`` places no class filter).
    """
    if k < 0 or k == 1:
        raise InvalidInputError(f"k must be 0 or at least 2, got {k}")
    return _loose_boxes(_as_shape(lam).boxes, classes, k)


def _loose_boxes(
    boxes: frozenset[Box], classes: Iterable[int] | None, k: int
) -> frozenset[Box]:
    """:func:`loose_boxes` on boxes already known to be well formed."""
    _require_partition(boxes, "loose_boxes")
    allowed = None if classes is None else frozenset(classes)
    candidates = {(1, 1)}
    for x, y in boxes:
        candidates.add((x + 1, y))
        candidates.add((x, y + 1))
    out = set()
    for x, y in candidates:
        if (x, y) in boxes:
            continue
        if x > 1 and (x - 1, y) not in boxes:
            continue
        if y > 1 and (x, y - 1) not in boxes:
            continue
        if allowed is not None and diag_class((x, y), k) not in allowed:
            continue
        out.add((x, y))
    return frozenset(out)


def upward_displacement(
    lam: Iterable[Box] | Shape, classes: Iterable[int] | None, k: int
) -> Shape:
    """The partition grown by its loose boxes on the given classes."""
    shape = _as_shape(lam)
    return explicit_shape(shape.boxes | loose_boxes(shape, classes, k))


@dataclass(frozen=True)
class ReflectionState:
    """One step of the reflectification sweep.

    ``tableau`` is the current filling; ``threshold`` the symbol written at
    this step (0 before the first step, ``g`` at the final one); ``kappa``
    the staircase boxes already reflective; ``loose`` the loose boxes of
    ``kappa`` below the main anti-diagonal; ``replaced`` the staircase boxes
    overwritten at this step.
    """

    step: int
    tableau: Tableau
    threshold: int
    kappa: frozenset[Box]
    loose: frozenset[Box]
    replaced: frozenset[Box]


def _staircase_loose(kappa: frozenset[Box], r: int, k: int) -> frozenset[Box]:
    return frozenset(
        b for b in _loose_boxes(kappa, None, k) if anti_diagonal(b) <= r
    )


def reflectify_states(t: Tableau, p: PrymParams) -> list[ReflectionState]:
    """Run the reflectification sweep, returning every intermediate state.

    The input must be a Prym tableau whose ``g``-fiber lies in the parity
    class ``r mod 2``; otherwise no reflective tableau can dominate it (the
    final step pins ``g`` to that class) and the input is rejected.
    """
    if not is_prym(t, p):
        raise InvalidInputError("reflectify needs a Prym tableau of the given type")
    r, g = p.r, p.g
    for box in t.fiber(g):
        if (box[0] - box[1]) % 2 != r % 2:
            raise InvalidInputError(
                f"symbol g = {g} at {box} sits in the parity class {(box[0] - box[1]) % 2};"
                f" a dominating reflective tableau needs it in class {r % 2}"
            )
    staircase = staircase_shape(r).boxes
    kappa: frozenset[Box] = frozenset()
    s = t
    states = [ReflectionState(0, t, 0, kappa, _staircase_loose(kappa, r, p.k), frozenset())]
    prev_n = 0
    while kappa != staircase:
        loose = states[-1].loose
        if not loose:
            raise InvariantError("reflectification stuck: no loose boxes below A_{r+1}")
        values, slot = s.values, s.shape.index.slot
        below = {w: values[slot[w]] for w in loose}
        above = {w: 2 * g - values[slot[reflect_box(w, r)]] for w in loose}
        n = min(min(below.values()), min(above.values()))
        if not prev_n < n <= g - 1:
            raise InvariantError(
                f"reflectification threshold {n} outside ({prev_n}, {g - 1}]"
            )
        replaced = frozenset(w for w in loose if below[w] == n or above[w] == n)
        if not replaced:
            raise InvariantError("reflectification step replaced no boxes")
        updates: dict[Box, int] = {}
        for w in replaced:
            updates[w] = n
            updates[reflect_box(w, r)] = 2 * g - n
        s2 = s.with_values(updates)
        if not is_prym(s2, p):
            raise InvariantError(f"reflectification step {len(states)} left the Prym class")
        if not dominates(s2, s, p):
            raise InvariantError(f"reflectification step {len(states)} broke dominance")
        kappa = kappa | replaced
        states.append(
            ReflectionState(
                len(states), s2, n, kappa, _staircase_loose(kappa, r, p.k), replaced
            )
        )
        s = s2
        prev_n = n
    main = anti_diagonal_boxes(square_shape(r), r + 1)
    final = s.with_values({b: g for b in main})
    if not is_reflective(final, p):
        raise InvariantError("reflectification produced a non-reflective tableau")
    # When the input never uses g, the g-clause of dominance is vacuous for
    # cells (the middle chip is pinned by rank parity either way), so only the
    # per-class symbol clauses are meaningful.
    if g in t.symbols:
        ok = dominates(final, t, p)
    else:
        ok = dominance_signature(final, p)[0] <= dominance_signature(t, p)[0]
    if not ok:
        raise InvariantError("reflectification result does not dominate its input")
    states.append(
        ReflectionState(len(states), final, g, kappa, frozenset(), frozenset(main))
    )
    return states


def reflectify_trace(t: Tableau, p: PrymParams) -> list[Tableau]:
    """The tableaux visited by the sweep, initial through final."""
    return [st.tableau for st in reflectify_states(t, p)]


def reflectify(t: Tableau, p: PrymParams) -> Tableau:
    """The dominating reflective tableau produced by the sweep."""
    return reflectify_states(t, p)[-1].tableau


def restrict_to_staircase(s: Tableau, p: PrymParams) -> Tableau:
    """Restriction of a reflective tableau to the staircase ``T_r``."""
    if not is_reflective(s, p):
        raise InvalidInputError("restrict_to_staircase needs a reflective tableau")
    shape = staircase_shape(p.r)
    out = Tableau.from_mapping(shape, {b: s.at(b) for b in shape.boxes})
    if any(v > p.g - 1 for v in out.values):
        raise InvariantError("reflective tableau exceeds g-1 below the main anti-diagonal")
    return out


def extend_to_reflective(t: Tableau, p: PrymParams) -> Tableau:
    """The unique reflective tableau extending a staircase Prym tableau.

    Every box ``b`` of ``T_r`` keeps its value, its reflection receives the
    dual value ``2g - t(b)``, and the main anti-diagonal receives ``g``.
    """
    if t.shape.boxes != staircase_shape(p.r).boxes:
        raise InvalidInputError(
            f"extend_to_reflective needs a tableau on the staircase T_{p.r}"
        )
    bad = [v for v in t.symbols if v > p.g - 1]
    if bad:
        raise InvalidInputError(f"staircase symbols must lie in [1, g-1]; got {sorted(bad)}")
    if not is_tableau(t):
        raise InvalidInputError("extend_to_reflective needs the tableau condition to hold")
    if not is_displacement(t, p.k):
        raise InvalidInputError("extend_to_reflective needs k-uniform displacement")
    g, r = p.g, p.r
    mapping: dict[Box, int] = {}
    for b, v in t.items():
        mapping[b] = v
        mapping[reflect_box(b, r)] = dual_symbol(v, g)
    for b in anti_diagonal_boxes(square_shape(r), r + 1):
        mapping[b] = g
    out = Tableau.from_mapping(square_shape(r), mapping)
    if not is_reflective(out, p):
        raise InvariantError("reflective extension failed its defining symmetry")
    return out
