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

The two ends are checked in full: the input's Prym signature and
``g``-fiber and the cover scan of ``f`` at the start, and at the end that
the result is reflective and dominates the input.  Each step between is
checked to stay Prym and to dominate the state before it, as one whole
state: a step that changes a slot builds the new filling's tableau once,
reads its Prym signature, and checks that it holds no key the state
before lacks (at the first step, the input, whose signature the entry
check read).  A step that changes no slot leaves the checked state as it
was.  Every failed check raises ``InvariantError``.
:func:`reflectify_states` builds a tableau per state; :func:`reflectify`
runs the same sweep and builds the result alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import (
    Box,
    InvalidInputError,
    InvariantError,
    PrymParams,
    Shape,
    Tableau,
    _check_square,
    _check_torsion,
    _is_int,
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
    A class is an ``int`` in ``[0, k)``, or any ``int`` at ``k == 0``.
    """
    _check_torsion(k)
    boxes = _as_shape(lam).boxes
    allowed = None if classes is None else _class_set(classes, k)
    _require_partition(boxes, "loose_boxes")
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


def _class_set(classes: Iterable[int], k: int) -> frozenset[int]:
    """``classes`` as a set, each a diagonal class at torsion ``k``."""
    try:
        out = frozenset(classes)
    except TypeError as exc:  # not iterable, or an unhashable class
        raise InvalidInputError(f"expected an iterable of diagonal classes: {exc}") from None
    for c in out:
        if not _is_int(c) or (k and not 0 <= c < k):
            bound = "an int" if not k else f"an int in [0, {k})"
            raise InvalidInputError(f"diagonal class {c!r} is not {bound}")
    return out


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


def _step_updates(slots: Sequence[int], n: int, g: int, mirror: Sequence[int]) -> dict[int, int]:
    """A step's writes, slot -> value: the threshold ``n`` on ``slots`` and
    its dual ``2g - n`` on their mirrors."""
    updates = dict.fromkeys(slots, n)
    updates.update(dict.fromkeys([mirror[i] for i in slots], 2 * g - n))
    return updates


def _sweep(
    t: Tableau, p: PrymParams
) -> Iterator[tuple[int, Sequence[int], Sequence[int] | Tableau]]:
    """The checked sweep of :func:`reflectify_states`.

    Yields the input first, re-anchored on ``square_shape(r)`` by the square
    entry (threshold 0, no slots), then each step's threshold, replaced slots
    and filling.  A step's filling is one list, rewritten by the next step;
    the final step yields the result ``Tableau`` it checked instead.  Each
    step that changes a slot is checked whole: the new state's Prym
    signature (:func:`~prymbn.core._prym_signature`), then its dominance over
    the signature of the state before.
    """
    t = _check_square(t, p, "reflectify")
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
    values = t.values
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
    yield 0, (), t
    values, sig = list(t.values), sig_t
    for step, n in enumerate(sorted(by_threshold), 1):
        slots = by_threshold[n]
        changed = False
        for i, v in _step_updates(slots, n, g, mirror).items():
            if values[i] != v:
                values[i], changed = v, True
        if changed:
            new = _prym_signature(Tableau(t.shape, tuple(values)), p)
            if new is None:
                raise InvariantError(f"reflectification step {step} left the Prym class")
            if not _signature_dominates(new, sig):
                raise InvariantError(f"reflectification step {step} broke dominance")
            sig = new
        yield n, slots, values
    main = range(len(boxes), len(boxes) + r + 1)  # the main anti-diagonal's slots
    values[main.start : main.stop] = [g] * len(main)
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
    yield g, main, final


def reflectify_states(t: Tableau, p: PrymParams) -> list[ReflectionState]:
    """Run the reflectification sweep, returning every intermediate state.

    The input must be a Prym tableau whose ``g``-fiber lies in the parity
    class ``r mod 2``; otherwise no reflective tableau can dominate it (the
    final step pins ``g`` to that class) and the input is rejected.

    The anchors at both ends are checked in full: the input's Prym
    signature and ``g``-fiber; the thresholds ``f(w) = min(t(w), 2g -
    t(w*))`` of the boxes of ``T_r``, which must increase along its covers
    and stay at most ``g - 1``; and the result, which must be reflective
    and dominate the input.  Each step between is checked: it must stay
    Prym and dominate the state before it.  A failure raises
    ``InvariantError``.
    """
    sweep = _sweep(t, p)
    _, _, t = next(sweep)
    boxes = t.shape.index.boxes
    kappa: frozenset[Box] = frozenset()
    states = [ReflectionState(0, t, 0, kappa, frozenset())]
    for n, slots, filling in sweep:
        replaced = frozenset(boxes[i] for i in slots)
        if n < p.g:  # the final step writes the main anti-diagonal, outside T_r
            kappa = kappa | replaced
            filling = Tableau(t.shape, tuple(filling))
        states.append(ReflectionState(len(states), filling, n, kappa, replaced))
    return states


def reflectify_trace(t: Tableau, p: PrymParams) -> list[Tableau]:
    """The tableaux visited by the sweep, initial through final."""
    return [st.tableau for st in reflectify_states(t, p)]


def reflectify(t: Tableau, p: PrymParams) -> Tableau:
    """The dominating reflective tableau produced by the sweep; it runs the
    sweep of :func:`reflectify_states` and builds no intermediate state."""
    for *_, final in _sweep(t, p):
        pass
    return final


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
