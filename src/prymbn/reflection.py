"""Reflection: loose boxes, upward displacement, and dominating reflective tableaux.

A reflective tableau is symmetric under ``b -> reflect_box(b)`` in the sense
``t(b) = 2g - t(reflect(b))``; it is determined by its restriction to the
staircase ``T_r`` and holds ``g`` along the main anti-diagonal.  The sweep
implemented by :func:`reflectify` turns any Prym tableau whose ``g``-fiber
sits in the parity class ``r mod 2`` into a reflective tableau dominating it,
growing a reflective partition ``kappa`` one symbol threshold at a time.

The paper's sweep writes, at each step, the least threshold
``min(t(w), 2g - t(w*))`` over the loose boxes ``w`` of ``kappa`` inside
``T_r`` (``w*`` is ``reflect_box(w)``) on the loose boxes reaching it, and
its dual on their reflections.  It only writes boxes of ``kappa`` and their
reflections, so a box and its reflection still hold the input's values when
the box turns loose: box ``w`` receives ``f(w) = min(t(w), 2g - t(w*))``,
read off the input once.  The sweep finishes exactly when ``f`` increases
along the covers of ``T_r`` and stays at most ``g - 1``; step ``j`` then
writes the ``j``-th least value of ``f`` on all the boxes carrying it.
The canonical slots of ``T_r`` are the square's first ``r(r+1)/2`` slots,
in the same order, so ``f`` is one list and is checked by the staircase's
own cover scan; :func:`extend_to_reflective` and
:func:`restrict_to_staircase` are slot copies on the same fact.

Each state is checked to be Prym and to dominate the state before it, and
the end checks that the result is reflective and dominates the input.
Every failed check raises ``InvariantError``.  The Prym (or reflective)
check of each state builds its square signature once, and the dominance
checks compare those signatures, so no state's signature is built twice.
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
    diag_class,
    displacement_fault,
    explicit_shape,
    is_reflective,
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
    the staircase boxes already reflective; ``replaced`` the boxes
    overwritten at this step: the boxes ``w`` of ``T_r`` with
    ``min(t(w), 2g - t(w*)) == threshold``, or the main anti-diagonal at
    the final step.  Each ``w`` was loose for the previous ``kappa``
    (``loose_boxes(kappa, None, k)``), and its reflection ``w*`` receives
    the dual ``2g - threshold``.
    """

    step: int
    tableau: Tableau
    threshold: int
    kappa: frozenset[Box]
    replaced: frozenset[Box]


def reflectify_states(t: Tableau, p: PrymParams) -> list[ReflectionState]:
    """Run the reflectification sweep, returning every intermediate state.

    The input must be a Prym tableau whose ``g``-fiber lies in the parity
    class ``r mod 2``; otherwise no reflective tableau can dominate it (the
    final step pins ``g`` to that class) and the input is rejected.

    The thresholds ``f(w) = min(t(w), 2g - t(w*))`` of the boxes of ``T_r``
    must increase along its covers and stay at most ``g - 1``, each step
    must stay Prym and dominate the state before it, and the result must be
    reflective and dominate the input; a failure raises ``InvariantError``.
    Each state's square signature (see
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
    stair = staircase_shape(r).index
    boxes, mirror = stair.boxes, t.shape.index.reflection
    values = list(t.values)
    f = [min(v, 2 * g - values[j]) for v, j in zip(values[: len(boxes)], mirror)]
    bad = next(stair.violations(f), None)
    if bad is not None:
        raise InvariantError(
            f"reflectification thresholds fail to increase from {boxes[bad[0]]}"
            f" to {boxes[bad[1]]}"
        )
    if max(f, default=0) > g - 1:
        raise InvariantError(f"reflectification threshold {max(f)} exceeds g - 1 = {g - 1}")
    by_threshold: dict[int, list[int]] = {}
    for i, n in enumerate(f):
        by_threshold.setdefault(n, []).append(i)
    kappa: frozenset[Box] = frozenset()
    prev_sig = sig_t
    states = [ReflectionState(0, t, 0, kappa, frozenset())]
    for n in sorted(by_threshold):
        for i in by_threshold[n]:
            values[i] = n
            values[mirror[i]] = 2 * g - n
        s = Tableau(t.shape, tuple(values))
        sig = _prym_signature(s, p)
        if sig is None:
            raise InvariantError(f"reflectification step {len(states)} left the Prym class")
        if not _signature_dominates(sig, prev_sig):
            raise InvariantError(f"reflectification step {len(states)} broke dominance")
        replaced = frozenset(boxes[i] for i in by_threshold[n])
        kappa = kappa | replaced
        states.append(ReflectionState(len(states), s, n, kappa, replaced))
        prev_sig = sig
    main = slice(len(boxes), len(boxes) + r + 1)  # the main anti-diagonal's slots
    values[main] = [g] * (r + 1)
    final = Tableau(t.shape, tuple(values))
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
        ReflectionState(len(states), final, g, kappa, frozenset(t.shape.index.boxes[main]))
    )
    return states


def reflectify_trace(t: Tableau, p: PrymParams) -> list[Tableau]:
    """The tableaux visited by the sweep, initial through final."""
    return [st.tableau for st in reflectify_states(t, p)]


def reflectify(t: Tableau, p: PrymParams) -> Tableau:
    """The dominating reflective tableau produced by the sweep."""
    return reflectify_states(t, p)[-1].tableau


def restrict_to_staircase(s: Tableau, p: PrymParams) -> Tableau:
    """Restriction of a reflective tableau to the staircase ``T_r``: the
    square's first ``r(r+1)/2`` slots."""
    if not is_reflective(s, p):
        raise InvalidInputError("restrict_to_staircase needs a reflective tableau")
    shape = staircase_shape(p.r)
    out = Tableau(shape, s.values[: len(shape)])
    if any(v > p.g - 1 for v in out.values):
        raise InvariantError("reflective tableau exceeds g-1 below the main anti-diagonal")
    return out


def extend_to_reflective(t: Tableau, p: PrymParams) -> Tableau:
    """The unique reflective tableau extending a staircase Prym tableau.

    Every box ``b`` of ``T_r`` keeps its value, its reflection receives the
    dual value ``2g - t(b)``, and the main anti-diagonal receives ``g``.
    In slots: the staircase's values, then ``g`` on the next ``r + 1``,
    then the duals of the mirrored slots.
    """
    if fault := staircase_fault(t, p) or displacement_fault(t, p.k):
        raise InvalidInputError(f"extend_to_reflective: tableau {fault}")
    g, shape = p.g, square_shape(p.r)
    mirror = shape.index.reflection
    values = [*t.values, *[g] * (p.r + 1)]
    values += [2 * g - values[mirror[i]] for i in range(len(values), len(mirror))]
    out = Tableau(shape, tuple(values))
    if not is_reflective(out, p):
        raise InvariantError("reflective extension failed its defining symmetry")
    return out
