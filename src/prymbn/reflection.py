"""Reflection: loose boxes, upward displacement, and dominating reflective tableaux.

A reflective tableau is symmetric under ``b -> reflect_box(b)`` in the sense
``t(b) = 2g - t(reflect(b))``; it is determined by its restriction to the
staircase ``T_r`` and holds ``g`` along the main anti-diagonal.  The sweep
implemented by :func:`reflectify` turns any Prym tableau whose ``g``-fiber
sits in the parity class ``r mod 2`` into a reflective tableau dominating it,
growing a reflective partition ``kappa`` one symbol threshold at a time.

Each step writes the threshold on the loose boxes that reach it and its dual
on their reflections, then checks that the new tableau is Prym and dominates
the previous one; the threshold range and the "stuck" and "replaced no
boxes" conditions are checked too, and the end checks that the result is
reflective and dominates the input.  Every failed check raises
``InvariantError``.  The Prym (or reflective) check of each state builds
its square signature once, and the dominance checks compare those
signatures, so no state's signature is built twice.  The loose set is
carried from step to step and updated around the replaced boxes only.
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
    _check_torsion,
    _prym_signature,
    _reflective_signature,
    _signature_dominates,
    anti_diagonal,
    anti_diagonal_boxes,
    diag_class,
    displacement_fault,
    dual_symbol,
    explicit_shape,
    is_reflective,
    reflect_box,
    square_shape,
    staircase_fault,
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
    _check_torsion(k)
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


def _grown_loose(
    loose: frozenset[Box], kappa: frozenset[Box], replaced: frozenset[Box], r: int
) -> frozenset[Box]:
    """The loose boxes inside ``T_r`` of ``kappa``, which grew from the
    partition with loose set ``loose`` by ``replaced``, a subset of it.

    The other loose boxes stay loose, and a box that was not loose can only
    become so once its west or south neighbour joins ``kappa``, so the new
    ones are east or north of a replaced box.  Such a box is outside
    ``kappa``: it is not loose itself, and ``kappa`` is a partition.
    """
    out = set(loose - replaced)
    for x, y in replaced:
        for bx, by in ((x + 1, y), (x, y + 1)):
            if (
                bx + by - 1 <= r
                and (bx == 1 or (bx - 1, by) in kappa)
                and (by == 1 or (bx, by - 1) in kappa)
            ):
                out.add((bx, by))
    return frozenset(out)


def reflectify_states(t: Tableau, p: PrymParams) -> list[ReflectionState]:
    """Run the reflectification sweep, returning every intermediate state.

    The input must be a Prym tableau whose ``g``-fiber lies in the parity
    class ``r mod 2``; otherwise no reflective tableau can dominate it (the
    final step pins ``g`` to that class) and the input is rejected.

    Each step must stay Prym and dominate the state before it, and the
    result must be reflective and dominate the input; a failure raises
    ``InvariantError``.  Each state's square signature (see
    :func:`~prymbn.core.dominance_signature`) is built once, by its Prym or
    reflective check, and the dominance checks compare those signatures.
    """
    sig_t = _prym_signature(t, p)
    if sig_t is None:
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
    loose = _staircase_loose(kappa, r, p.k)
    s, sig = t, sig_t
    states = [ReflectionState(0, t, 0, kappa, loose, frozenset())]
    prev_n = 0
    while kappa != staircase:
        if not loose:
            raise InvariantError("reflectification stuck: no loose boxes below A_{r+1}")
        values = s.values
        slot, mirror = s.shape.index.slot, s.shape.index.reflection
        below = {w: values[slot[w]] for w in loose}
        above = {w: 2 * g - values[mirror[slot[w]]] for w in loose}
        n = min(min(below.values()), min(above.values()))
        if not prev_n < n <= g - 1:
            raise InvariantError(
                f"reflectification threshold {n} outside ({prev_n}, {g - 1}]"
            )
        replaced = frozenset(w for w in loose if below[w] == n or above[w] == n)
        if not replaced:
            raise InvariantError("reflectification step replaced no boxes")
        new_values = list(values)
        for w in replaced:
            i = slot[w]
            new_values[i] = n
            new_values[mirror[i]] = 2 * g - n
        s2 = Tableau(s.shape, tuple(new_values))
        sig2 = _prym_signature(s2, p)
        if sig2 is None:
            raise InvariantError(f"reflectification step {len(states)} left the Prym class")
        if not _signature_dominates(sig2, sig):
            raise InvariantError(f"reflectification step {len(states)} broke dominance")
        kappa = kappa | replaced
        loose = _grown_loose(loose, kappa, replaced, r)
        states.append(ReflectionState(len(states), s2, n, kappa, loose, replaced))
        s, sig = s2, sig2
        prev_n = n
    main = anti_diagonal_boxes(square_shape(r), r + 1)
    final = s.with_values({b: g for b in main})
    sig_final = _reflective_signature(final, p)
    if sig_final is None:
        raise InvariantError("reflectification produced a non-reflective tableau")
    # When the input never uses g, the g-clause of dominance is vacuous for
    # cells (the middle chip is pinned by rank parity either way), so only the
    # per-class symbol clauses are meaningful.
    if g in t.symbols:
        ok = _signature_dominates(sig_final, sig_t)
    else:
        ok = sig_final[0] <= sig_t[0]
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
    if fault := staircase_fault(t, p) or displacement_fault(t, p.k):
        raise InvalidInputError(f"extend_to_reflective: tableau {fault}")
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
