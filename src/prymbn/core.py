"""Core data model: boxes, shapes, tableaux, and the defining predicates.

Boxes live in the positive quadrant with French conventions: ``(x, y)`` has
column ``x`` and row ``y``, both 1-based, and ``(1, 1)`` is the bottom-left
box.  Anti-diagonal ``n`` collects the boxes with ``x + y = n + 1``; the
staircase ``T_n`` is the union of the first ``n`` anti-diagonals.

A tableau is a total map from a finite box set to positive integers that
strictly increases from any box to every box weakly north-east of it.  The
displacement condition constrains equal symbols to a common diagonal class,
where the class of a box is ``x - y`` reduced mod ``k`` (or taken exactly
when ``k == 0``).  Prym tableaux on squares additionally tie the symbols
``a`` and ``2g - a`` to a common class and confine the fiber of ``g`` to a
single parity class.

Every shape carries one :class:`ShapeIndex`, built on first use and dropped
with the shape.  It fixes the canonical box order (anti-diagonal, then x),
so a tableau is a tuple of values by slot, and it holds what the predicates
would otherwise re-derive on every call:

- the canonical box tuple and the box -> slot map;
- the slot of every box's west and south neighbour, for any box set;
- for a box set passing the cover rule, the ``(lo, hi)`` slot pairs compared;
- the diagonal class of every slot, one tuple per ``k``, built on first use;
- for squares, the slot permutation of the reflection across the main
  anti-diagonal.

The cover rule: each row and each column of the box set is one run (as many
boxes lack a west neighbour as there are rows, and a south one as columns),
and at most one box lacks both.  Then the pairs are the west and south
covers only, and that is exact: for ``b <= b'``, walk from ``b'`` west while
east of ``b`` and south while north of it.  Runs give the next box on
``b``'s row or column, so the walk can stop only at a box strictly north-east
of ``b`` lacking both neighbours, but walking down from ``b`` ends at a
second one.  Lower sets and strips pass; the rule reads the boxes, never
``Shape.kind``.  Any other box set is checked by the full pairwise scan,
generated on each call, so an index never holds more than O(boxes).

The tableau condition is stated once, by :meth:`ShapeIndex.violations`,
which scans every cover (or comparable pair) of a whole filling.  Every
check of a tableau's values along its covers reads it; the strip gluing
rule alone scans its own table, ``StripShape.order_pairs``.

A displacement tableau on the staircase ``T_r`` indexes a cell, and the cell
is its set of (diagonal class mod ``k``, symbol) pairs (``_cell_pairs``).
Displacement is one pair per symbol, dominance is containment of the pair
sets, and two cells with equally many symbols are adjacent when their pair
sets differ by one pair each way carrying different symbols.

The named-shape rule is stated once, by ``_named_shape_fault``, and every
:class:`Shape` passes it when built: a ``"staircase"`` or ``"square"``
carries its order ``r`` and exactly the boxes of that order, and an
``"explicit"`` shape carries no ``r``.  It reads sizes and arithmetic
membership alone (:func:`named_shape_size`, :func:`in_named_shape`), so a
named shape's kind and ``r`` say what it holds without building anything.

The shape rule is stated once, by ``_same_shape``: two shapes are one shape
when they hold the same boxes and do not carry two different named kinds.
So an explicit box set is the named shape whose boxes it holds, while
``T_1`` and the 1x1 square, which both hold ``(1, 1)`` alone, stay apart.
Every test of a tableau's shape against a named shape or another tableau's
shape reads it, after refusing anything that is not a :class:`Tableau`.
The staircase entry re-anchors its input onto ``staircase_shape(r)``
(``_canon``) and the square entry onto ``square_shape(r)``
(``_check_square``), so a tableau an entry point returns is on the cached
named shape.

The staircase-input contract is stated once, by functions that return the
first fault of a tableau as a phrase, or ``None``: :func:`staircase_fault`
(the shape ``T_r`` by the shape rule, then symbols in ``[1, g-1]``),
:func:`symbol_fault` (the symbols alone) and :func:`displacement_fault` (the
tableau condition, one cover scan, then displacement, one class scan).  An
input check raises ``InvalidInputError`` from the phrase, an output check
``InvariantError``.

Two argument rules are stated once each, and every public entry point
taking an order or a torsion reaches them: the order rule
(:func:`_check_int`: an integer, not a bool, of at least a bound, for
``g``, ``r``, ``n``, ``l`` and ``gmax``) and the torsion rule
(:func:`_check_torsion`: ``k == 0`` or ``k >= 2``).  Class maps are read
through :meth:`ShapeIndex.classes` alone, which applies the torsion rule
on every read.  Every public entry point taking a type ``p`` reads it
through ``_check_params`` first, which refuses anything but a
:class:`PrymParams`, as ``_shape_of`` refuses anything but a tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping, Sequence, TypeVar

Box = tuple[int, int]
# (class, folded symbol) pairs and the parity classes carrying g: see
# dominance_signature.
Signature = tuple[frozenset[tuple[int, int]], frozenset[int]]
_T = TypeVar("_T")

__all__ = [
    "Box",
    "GuardRefused",
    "InvalidInputError",
    "InvariantError",
    "PrymParams",
    "Shape",
    "ShapeIndex",
    "Tableau",
    "anti_diagonal",
    "canonical_boxes",
    "canonical_key",
    "class_symbol_sets",
    "codimension",
    "diag_class",
    "diag_offset",
    "displacement_fault",
    "dominance_signature",
    "dominates",
    "dual_symbol",
    "equivalent",
    "explicit_shape",
    "generic_regime",
    "in_named_shape",
    "is_displacement",
    "is_prym",
    "is_reflective",
    "is_tableau",
    "named_shape_boxes",
    "named_shape_size",
    "reflect_box",
    "shape_family",
    "square_shape",
    "staircase_fault",
    "staircase_shape",
    "symbol_fault",
]


class InvalidInputError(ValueError):
    """Raised when an argument violates an operation's input contract."""


class GuardRefused(RuntimeError):
    """Raised when a computation exceeds its desk-scale guard and was not forced."""


class InvariantError(AssertionError):
    """Raised when an internal cross-check that should always hold fails."""


def anti_diagonal(box: Box) -> int:
    """Index of the anti-diagonal containing ``box`` (``x + y - 1``)."""
    return box[0] + box[1] - 1


def diag_offset(box: Box) -> int:
    """Exact diagonal offset ``x - y`` of ``box``."""
    return box[0] - box[1]


def diag_class(box: Box, k: int) -> int:
    """Diagonal class of ``box``: ``x - y`` mod ``k``, or exact when ``k == 0``."""
    _check_torsion(k)
    d = box[0] - box[1]
    return d % k if k else d


def canonical_key(box: Box) -> tuple[int, int]:
    """Sort key realizing the canonical box order: by anti-diagonal, then by x."""
    return (box[0] + box[1], box[0])


def dual_symbol(a: int, g: int) -> int:
    """The symbol paired with ``a`` by the fold, ``2g - a``."""
    return 2 * g - a


def reflect_box(box: Box, r: int) -> Box:
    """Reflection of ``box`` across the main anti-diagonal of the (r+1)-square."""
    x, y = box
    return (r + 2 - y, r + 2 - x)


def _is_int(v: object) -> bool:
    """An integer that is not a bool (JSON ``true`` must not pass as 1)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_int(value: int, name: str, least: int = 0) -> int:
    """The order rule: refuse ``value`` unless it is an integer (not a bool)
    of at least ``least``; returns it."""
    if not _is_int(value):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise InvalidInputError(f"{name} must be {bound}, got {value}")
    return value


def _check_torsion(k: int) -> None:
    """The torsion rule: refuse a torsion order other than an integer 0 or
    at least 2."""
    if not _is_int(k):
        raise InvalidInputError(f"k must be an integer, got {k!r}")
    if k < 0 or k == 1:
        raise InvalidInputError(f"k must be 0 or at least 2, got {k}")


def generic_regime(r: int, k: int) -> bool:
    """True when the diagonal classes cannot recur inside ``T_r`` (k=0 or k >= 2r-1)."""
    _check_int(r, "r")
    _check_torsion(k)
    return k == 0 or k >= 2 * r - 1


def named_shape_size(kind: str, r: int) -> int:
    """Box count of the ``"staircase"`` ``T_r`` or the ``"square"`` of side r+1."""
    return r * (r + 1) // 2 if kind == "staircase" else (r + 1) ** 2


def in_named_shape(kind: str, r: int, box: Box) -> bool:
    """Whether ``box`` lies in the named shape of order ``r``."""
    x, y = box
    return x >= 1 and y >= 1 and (x + y if kind == "staircase" else max(x, y)) <= r + 1


def named_shape_boxes(kind: str, r: int) -> Iterator[Box]:
    """The named shape's boxes in canonical order, built one at a time."""
    side, last = (r, r) if kind == "staircase" else (r + 1, 2 * r + 1)
    for n in range(1, last + 1):
        for x in range(max(1, n - side + 1), min(n, side) + 1):
            yield (x, n + 1 - x)


def _symbol_fault(values: Iterable[object]) -> str | None:
    """The one rule for tableau symbols: each is an exact ``int`` of at least 1.

    ``bool`` and every other ``int`` subclass are refused by type, so a
    stored symbol is always a plain ``int``.  Returns the message for the
    first value that breaks the rule, naming its type, or ``None``.
    """
    for v in values:
        if type(v) is not int or v < 1:
            return (
                f"tableau symbols must be positive integers,"
                f" got {v!r} of type {type(v).__name__}"
            )
    return None


_second = itemgetter(1)


class _cached:
    """A read-only attribute computed on first read and stored in the
    instance ``__dict__``, where it shadows this non-data descriptor.

    ``functools.cached_property`` does the same but takes a lock on every
    first read before Python 3.12, which transient tableaux pay in bulk.
    Two threads racing on a first read both compute the value; one wins.
    """

    def __init__(self, fn) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


CLASS_CACHE = 32  # class maps kept per index, one per torsion: a fixed bound


class ShapeIndex:
    """Slot layout of one shape, shared by every tableau on it.

    ``boxes`` is the canonical order and ``slot`` its inverse.  ``west``
    and ``south`` hold the slot of each box's west and south neighbour, or
    ``-1`` where the box set lacks it.  When ``chained`` (the module's cover
    rule) holds, ``covers`` lists the (west or south neighbour, box) slot
    pairs, west pairs first.
    :meth:`classes` and :attr:`reflection` are built on first use;
    :meth:`classes` keeps at most :data:`CLASS_CACHE` torsions.
    """

    __slots__ = ("boxes", "slot", "west", "south", "chained", "covers", "_classes", "_reflection")

    def __init__(self, shape: Shape) -> None:
        boxes = tuple(sorted(shape.boxes, key=canonical_key))
        slot = {b: i for i, b in enumerate(boxes)}
        self.boxes = boxes
        self.slot = slot
        # Each tuple is copied from a list: growing it from a generator raised
        # count_brute's peak memory by 7-9%.
        self.west = tuple([slot.get((x - 1, y), -1) for x, y in boxes])
        self.south = tuple([slot.get((x, y - 1), -1) for x, y in boxes])
        self.chained = (
            self.west.count(-1) == len({y for _, y in boxes})
            and self.south.count(-1) == len({x for x, _ in boxes})
            and sum(w == s == -1 for w, s in zip(self.west, self.south)) <= 1
        )
        self.covers = tuple([
            (j, i) for nbrs in (self.west, self.south)
            for i, j in enumerate(nbrs) if j >= 0
        ]) if self.chained else ()
        self._classes: dict[int, tuple[int, ...]] = {}
        self._reflection: tuple[int, ...] | None = None

    def violations(self, values: Sequence[int]) -> Iterator[tuple[int, int]]:
        """The tableau condition: the ``(lo, hi)`` slot pairs whose values
        fail to increase, among the covers of a chained box set, else among
        all comparable pairs."""
        pairs: Iterable[tuple[int, int]] = self.covers if self.chained else self._comparable()
        return ((i, j) for i, j in pairs if not values[i] < values[j])

    def _comparable(self) -> Iterator[tuple[int, int]]:
        """Every ``(lo, hi)`` slot pair with ``lo`` weakly south-west of
        ``hi``, generated on each call; such a box precedes canonically."""
        boxes = self.boxes
        for j, (xj, yj) in enumerate(boxes):
            for i in range(j):
                xi, yi = boxes[i]
                if xi <= xj and yi <= yj:
                    yield (i, j)

    def classes(self, k: int) -> tuple[int, ...]:
        """Diagonal class (``diag_class``) of each slot for torsion ``k``.

        Only an exact ``int`` is looked up, so a ``k`` that the torsion rule
        refuses, ``2.0`` or ``True`` among them, is refused on every read."""
        out = self._classes.get(k) if type(k) is int else None
        if out is None:
            _check_torsion(k)
            if len(self._classes) >= CLASS_CACHE:
                del self._classes[next(iter(self._classes))]  # the oldest map
            out = self._classes[k] = tuple(diag_class(b, k) for b in self.boxes)
        return out

    @property
    def reflection(self) -> tuple[int, ...]:
        """The slot of each slot's ``reflect_box`` image in the bounding
        square; only a square is closed under the reflection."""
        if self._reflection is None:
            r = max((x for x, _ in self.boxes), default=1) - 1
            image = tuple(self.slot.get(reflect_box(b, r)) for b in self.boxes)
            if None in image:
                raise InvalidInputError("only a square is closed under the reflection")
            self._reflection = image
        return self._reflection


def _named_shape_fault(kind: str, r: object, boxes: Collection[Box]) -> str | None:
    """The named-shape rule: a named kind carries its order ``r`` and
    exactly the boxes of that order, and an explicit shape carries no
    ``r``.  Returns the first fault as a phrase, or ``None``.  The boxes
    must be pairs of integers, distinct; they are checked by size and
    arithmetic membership alone, so nothing is built."""
    if kind == "explicit":
        return None if r is None else f"an explicit shape carries no r, got {r!r}"
    if not _is_int(r) or r < 0:
        return f"a {kind} shape needs a non-negative integer r, got {r!r}"
    if len(boxes) != named_shape_size(kind, r) or not all(
        in_named_shape(kind, r, b) for b in boxes
    ):
        return f"the boxes are not the {kind} shape of order {r}"
    return None


@dataclass(frozen=True)
class Shape:
    """A finite box set, tagged with how it was constructed.

    ``kind`` is one of ``"square"``, ``"staircase"`` or ``"explicit"``;
    ``r`` records the defining size parameter of a named kind (side minus
    one for squares, the staircase order).  A named kind holds exactly the
    boxes of its order (:func:`_named_shape_fault`).
    """

    kind: str
    boxes: frozenset[Box]
    r: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("square", "staircase", "explicit"):
            raise InvalidInputError(f"unknown shape kind {self.kind!r}")
        for box in self.boxes:
            if not (isinstance(box, tuple) and len(box) == 2
                    and _is_int(box[0]) and _is_int(box[1])):
                raise InvalidInputError(f"malformed box {box!r}")
            if box[0] < 1 or box[1] < 1:
                raise InvalidInputError(f"box {box!r} outside the positive quadrant")
        if fault := _named_shape_fault(self.kind, self.r, self.boxes):
            raise InvalidInputError(fault)

    def __len__(self) -> int:
        return len(self.boxes)

    def __contains__(self, box: Box) -> bool:
        return box in self.boxes

    @_cached
    def index(self) -> ShapeIndex:
        """The shape's slot index, built once and kept with the shape."""
        return ShapeIndex(self)


SHAPE_CACHE = 32  # sizes kept per named shape: a fixed bound, never grown by requests


@lru_cache(maxsize=SHAPE_CACHE, typed=True)
def square_shape(r: int) -> Shape:
    """The (r+1) x (r+1) square, ``r >= 0``."""
    _check_int(r, "r")
    return Shape("square", frozenset(named_shape_boxes("square", r)), r)


@lru_cache(maxsize=SHAPE_CACHE, typed=True)
def staircase_shape(n: int) -> Shape:
    """The staircase ``T_n``, ``n >= 0`` (empty when n == 0)."""
    _check_int(n, "n")
    return Shape("staircase", frozenset(named_shape_boxes("staircase", n)), n)


def explicit_shape(boxes: Iterable[Box]) -> Shape:
    """The shape of a box set: the named staircase or square when the boxes
    are one (staircase first, so one box is ``T_1``), else ``"explicit"``."""
    try:
        box_set = frozenset(map(tuple, boxes))
    except TypeError as exc:  # not iterable, or a box that is not a pair
        raise InvalidInputError(f"expected an iterable of (x, y) boxes: {exc}") from None
    shape = Shape("explicit", box_set)
    side, n = max((x for x, _ in box_set), default=0), len(box_set)
    # The size picks the one candidate, so a far box builds no huge shape.
    named = (staircase_shape(side) if n == named_shape_size("staircase", side)
             else square_shape(side - 1) if n == named_shape_size("square", side - 1)
             else shape)
    return named if n and named.boxes == box_set else shape


def _same_shape(a: Shape, b: Shape) -> bool:
    """The shape rule: two shapes are one shape when they hold the same boxes
    and do not carry two different named kinds.  An explicit box set is the
    named shape whose boxes it holds; ``T_1`` and the 1x1 square, which both
    hold ``(1, 1)`` alone, stay apart by their kinds."""
    return a is b or (a.boxes == b.boxes and (a.kind == b.kind or "explicit" in (a.kind, b.kind)))


def shape_family(shape: Shape) -> tuple[str, int]:
    """``("square", r)`` or ``("staircase", r)`` for a square or staircase.

    A named shape answers by its own kind and order, so the one-box
    staircase ``T_1`` and the 1x1 square stay apart; an explicit box set is
    named by :func:`explicit_shape`'s rule (staircase first).  Anything
    else is an input error.
    """
    named = explicit_shape(shape.boxes) if shape.kind == "explicit" else shape
    if named.kind == "explicit":
        raise InvalidInputError("expected a tableau on a square or staircase shape")
    return named.kind, named.r


def canonical_boxes(shape: Shape) -> tuple[Box, ...]:
    """The shape's boxes in canonical order (anti-diagonal, then x)."""
    return shape.index.boxes


@dataclass(frozen=True)
class Tableau:
    """A total filling of a shape, stored in canonical box order."""

    shape: Shape
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.shape.boxes):
            raise InvalidInputError(
                f"expected {len(self.shape.boxes)} values, got {len(self.values)}"
            )
        fault = _symbol_fault(self.values)
        if fault is not None:
            raise InvalidInputError(fault)

    @classmethod
    def from_mapping(cls, shape: Shape, mapping: Mapping[Box, int]) -> "Tableau":
        """Build a tableau from a box -> value mapping covering the shape exactly."""
        boxes = shape.index.boxes
        if len(mapping) == len(boxes):
            try:
                return cls(shape, tuple(mapping[b] for b in boxes))
            except KeyError:
                pass
        extra = set(mapping) - shape.boxes
        if extra:
            raise InvalidInputError(f"entries outside the shape: {sorted(extra)}")
        missing = shape.boxes - set(mapping)
        raise InvalidInputError(f"boxes without an entry: {sorted(missing)}")

    @classmethod
    def from_rows(cls, rows: list[list[int]], shape: Shape | None = None) -> "Tableau":
        """Build a tableau from per-row value lists, bottom row first.

        ``rows[y-1][x-1]`` is the value at ``(x, y)``.  When ``shape`` is
        omitted, the row lengths determine an explicit shape.
        """
        try:
            mapping = {
                (x, y): v
                for y, row in enumerate(rows, start=1)
                for x, v in enumerate(row, start=1)
            }
        except TypeError:  # rows, or a row, that is not iterable
            raise InvalidInputError(f"expected a list of rows of values, got {rows!r}") from None
        if shape is None:
            shape = explicit_shape(mapping)
        return cls.from_mapping(shape, mapping)

    def at(self, box: Box) -> int:
        """Value at ``box``."""
        i = self.shape.index.slot.get(box)
        if i is None:
            raise InvalidInputError(f"box {box} not in the shape")
        return self.values[i]

    @_cached
    def symbols(self) -> frozenset[int]:
        """The set of values appearing in the tableau."""
        return frozenset(self.values)

    def fiber(self, symbol: int) -> tuple[Box, ...]:
        """Boxes carrying ``symbol``, in canonical order."""
        return tuple(
            b for b, v in zip(self.shape.index.boxes, self.values) if v == symbol
        )

    def with_values(self, updates: Mapping[Box, int]) -> "Tableau":
        """Copy of the tableau with the given boxes overwritten."""
        slot = self.shape.index.slot
        values = list(self.values)
        for box, v in updates.items():
            i = slot.get(box)
            if i is None:
                raise InvalidInputError(f"box {box} not in the shape")
            values[i] = v
        return Tableau(self.shape, tuple(values))

    def items(self) -> Iterator[tuple[Box, int]]:
        """(box, value) pairs in canonical order."""
        return iter(zip(self.shape.index.boxes, self.values))

    def rows(self) -> list[list[int]]:
        """Per-row value lists, bottom row first (inverse of ``from_rows``)."""
        by_row: dict[int, dict[int, int]] = {}
        for (x, y), v in self.items():
            by_row.setdefault(y, {})[x] = v
        return [
            [by_row[y][x] for x in sorted(by_row[y])] for y in sorted(by_row)
        ]


@dataclass(frozen=True)
class PrymParams:
    """The numerical type ``(g, r, k)`` of a Prym-Brill-Noether problem.

    ``g`` is the number of folded loops, ``r`` the rank, and ``k`` the
    torsion order; ``k == 0`` encodes the generic (torsion-free) case and
    ``k == 1`` is excluded.
    """

    g: int
    r: int
    k: int

    def __post_init__(self) -> None:
        _check_int(self.g, "g", 2)
        _check_int(self.r, "r")
        _check_torsion(self.k)

    @property
    def l(self) -> int:
        """Half the torsion order, rounded up; only meaningful for k >= 2."""
        if self.k == 0:
            raise InvalidInputError("l is undefined in the generic (k == 0) case")
        return (self.k + 1) // 2

    @property
    def eps(self) -> int:
        """Torsion parity: ``k mod 2`` (0 for the generic case)."""
        return self.k % 2

    @property
    def max_symbol(self) -> int:
        """Largest symbol a square Prym tableau of this type may use."""
        return 2 * self.g - 1


def _expect(value: _T, cls: type[_T]) -> _T:
    """``value``; anything but a ``cls`` is an input error."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"expected a {cls.__name__}, got {value!r}")
    return value


def _shape_of(t: Tableau) -> Shape:
    """The shape of ``t``; anything but a :class:`Tableau` is an input error.
    It runs on every tableau predicate, so it checks inline, as
    :func:`_check_params` does, where :func:`_expect` would add a call."""
    if not isinstance(t, Tableau):
        raise InvalidInputError(f"expected a Tableau, got {t!r}")
    return t.shape


def _check_params(p: PrymParams) -> PrymParams:
    """``p``; anything but a :class:`PrymParams` is an input error."""
    if not isinstance(p, PrymParams):
        raise InvalidInputError(f"expected a PrymParams, got {p!r}")
    return p


def is_tableau(t: Tableau) -> bool:
    """True iff values strictly increase along every componentwise-below pair."""
    return next(_shape_of(t).index.violations(t.values), None) is None


def _cell_pairs(t: Tableau, k: int) -> frozenset[tuple[int, int]]:
    """The (diagonal class mod ``k``, symbol) pairs of ``t``: for a
    displacement tableau on a staircase, the cell it indexes."""
    return frozenset(zip(t.shape.index.classes(k), t.values))


_NOT_A_TABLEAU = "violates the tableau condition"


def is_displacement(t: Tableau, k: int) -> bool:
    """True iff every symbol's boxes share one diagonal class mod ``k``.

    ``k == 0`` demands exact equality of the diagonals.  The tableau
    condition is a prerequisite and is validated (violations raise rather
    than returning False).
    """
    fault = displacement_fault(t, k)
    if fault == _NOT_A_TABLEAU:
        raise InvalidInputError("is_displacement requires the tableau condition to hold")
    return fault is None


def displacement_fault(
    t: Tableau, k: int, pairs: frozenset[tuple[int, int]] | None = None
) -> str | None:
    """Why ``t`` is not a displacement tableau at torsion ``k``: the tableau
    condition, then one class per symbol (as many cell pairs as symbols).
    A caller that reads the cell too passes its ``_cell_pairs(t, k)``."""
    if not is_tableau(t):
        return _NOT_A_TABLEAU
    if pairs is None:
        pairs = _cell_pairs(t, k)
    if len(pairs) != len(t.symbols):
        return f"is not a {k}-uniform displacement tableau"
    return None


def symbol_fault(t: Tableau, g: int) -> str | None:
    """Why the symbols of ``t`` are not all in ``[1, g-1]``, the codomain of
    a staircase tableau."""
    bad = [v for v in t.symbols if v >= g]
    if bad:
        return f"uses symbols outside [1, g-1], which exceed the codomain: {sorted(bad)}"
    return None


def _anchor(t: Tableau, shape: Shape) -> Tableau | None:
    """``t`` on the named ``shape`` when the shape rule puts it there, else
    ``None``; one box set orders its boxes alike on every shape holding it."""
    own = _shape_of(t)
    if own is shape:
        return t
    return Tableau(shape, t.values) if _same_shape(own, shape) else None


def staircase_fault(t: Tableau, p: PrymParams) -> str | None:
    """Why ``t`` cannot be a staircase tableau of type ``p``: the shape
    ``T_r``, then the symbols.  :func:`displacement_fault` follows it where
    a cell is needed."""
    if not _same_shape(_shape_of(t), staircase_shape(_check_params(p).r)):
        return f"is not on the staircase T_{p.r}"
    return symbol_fault(t, p.g)


def _canon(t: Tableau, p: PrymParams) -> Tableau:
    """``t`` on ``staircase_shape(p.r)``, the staircase entry's re-anchoring."""
    out = _anchor(t, staircase_shape(p.r))
    if out is None:
        raise InvalidInputError(f"tableau does not live on the staircase T_{p.r}")
    return out


def class_symbol_sets(t: Tableau, k: int) -> dict[int, frozenset[int]]:
    """Diagonal class -> set of symbols appearing on it."""
    _shape_of(t)
    out: dict[int, list[int]] = {}
    for c, v in _cell_pairs(t, k):
        out.setdefault(c, []).append(v)
    return {c: frozenset(s) for c, s in out.items()}


def _on_square(t: Tableau, p: PrymParams) -> bool:
    return _same_shape(_shape_of(t), square_shape(_check_params(p).r))


def _check_square(t: Tableau, p: PrymParams, op: str) -> Tableau:
    """``t`` on ``square_shape(p.r)``, the square entry's re-anchoring, with
    its symbols in ``[1, 2g-1]``."""
    out = _anchor(t, square_shape(_check_params(p).r))
    if out is None:
        raise InvalidInputError(f"{op} needs a tableau on the (r+1)-square of type {p}")
    if max(t.values) > p.max_symbol:
        bad = sorted(v for v in t.symbols if v > p.max_symbol)
        raise InvalidInputError(f"symbols out of range [1, 2g-1]: {bad}")
    return out


def _square_signature(t: Tableau, p: PrymParams) -> Signature:
    """The square signature: (class mod k, folded symbol) for each slot not
    carrying ``g``, where the fold sends ``a`` and ``2g - a`` to ``min(a, 2g -
    a)``, and the parity class of each slot carrying ``g``."""
    idx, g, values = t.shape.index, p.g, t.values
    pairs = frozenset((c, v if v < g else 2 * g - v)
                      for c, v in zip(idx.classes(p.k), values) if v != g)
    return pairs, frozenset(compress(idx.classes(2), map(g.__eq__, values)))


def _prym_signature(t: Tableau, p: PrymParams) -> Signature | None:
    """:func:`is_prym` that returns the square signature of a Prym tableau
    (``None`` for any other), so a caller can reuse it for dominance."""
    t = _check_square(t, p, "is_prym")
    if not is_tableau(t):
        return None
    sig = _square_signature(t, p)
    pairs, g_parities = sig
    # One class per folded symbol: as many pairs as folded symbols.
    if len(g_parities) <= 1 and len(pairs) == len(set(map(_second, pairs))):
        return sig
    return None


def _reflective_signature(t: Tableau, p: PrymParams) -> Signature | None:
    """:func:`is_reflective` that returns the square signature, like
    :func:`_prym_signature`."""
    t = _check_square(t, p, "is_reflective")
    g2 = 2 * p.g
    values = t.values
    if any(v + values[j] != g2 for v, j in zip(values, t.shape.index.reflection)):
        return None
    return _prym_signature(t, p)


def _signature_dominates(sig_t: Signature, sig_s: Signature) -> bool:
    """:func:`dominates` read off the two tableaux's signatures on one shape."""
    return sig_t[0] <= sig_s[0] and sig_t[1] <= sig_s[1]


def is_prym(t: Tableau, p: PrymParams) -> bool:
    """Whether ``t`` is a Prym tableau of type ``p`` on the (r+1)-square.

    Beyond the tableau condition, every symbol other than ``g`` occupies a
    single diagonal class mod ``k``, the two symbols of each dual pair
    ``(a, 2g - a)`` share that class, and the fiber of ``g`` lies in a
    single parity class mod 2.
    """
    return _prym_signature(t, p) is not None


def is_reflective(t: Tableau, p: PrymParams) -> bool:
    """Whether ``t`` is a Prym tableau satisfying ``t(b) = 2g - t(reflect(b))``."""
    return _reflective_signature(t, p) is not None


def codimension(t: Tableau, p: PrymParams) -> int:
    """Codimension of the cell indexed by ``t``.

    On the square this counts dual pairs ``(a, 2g - a)`` with at least one
    member present (the symbol ``g`` contributes nothing); on staircase-like
    shapes, whose symbols stay below ``g``, it is the number of distinct
    symbols.
    """
    if _on_square(t, p):
        syms = t.symbols
        return sum(1 for a in range(1, p.g) if a in syms or dual_symbol(a, p.g) in syms)
    if fault := symbol_fault(t, p.g):
        raise InvalidInputError(f"codimension on a non-square shape: tableau {fault}")
    return len(t.symbols)


def dominance_signature(t: Tableau, p: PrymParams) -> Signature:
    """The two sets whose containment decides :func:`dominates`.

    Squares: the (class mod ``k``, ``min(a, 2g - a)``) pairs of every
    symbol ``a != g``, and the parity classes carrying ``g``.
    Staircase-like shapes: the (class mod ``k``, symbol) pairs, and no
    parity classes.
    """
    if _on_square(t, p):
        return _square_signature(t, p)
    if fault := symbol_fault(t, p.g):
        raise InvalidInputError(f"dominates on a non-square shape: tableau {fault}")
    return _cell_pairs(t, p.k), frozenset()


def dominates(t: Tableau, s: Tableau, p: PrymParams) -> bool:
    """Whether the cell of ``s`` is contained in the cell of ``t``.

    Squares: every class carrying ``g`` in ``t`` carries ``g`` in ``s`` (mod
    2), and every class carrying a symbol ``a != g`` in ``t`` carries ``a``
    or its dual in ``s`` (mod ``k``).  Staircase-like shapes: per-class
    symbol containment ``t(D_i) <= s(D_i)``.  Both read as containment of
    :func:`dominance_signature` sets, of the two tableaux anchored on one
    shape: the named one of their shapes, if either is named.
    """
    shape = _shape_of(t) if _shape_of(s).kind == "explicit" else s.shape
    t, s = _anchor(t, shape), _anchor(s, shape)
    if t is None or s is None:
        raise InvalidInputError("dominates compares tableaux on a common shape")
    return _signature_dominates(dominance_signature(t, p), dominance_signature(s, p))


def equivalent(t: Tableau, s: Tableau, p: PrymParams) -> bool:
    """Mutual domination: the two tableaux index the same cell."""
    return dominates(t, s, p) and dominates(s, t, p)
