"""Chip divisors on folded chains of loops.

A folded chain doubles a chain of ``g`` loops into ``2g - 1`` loops: each
base loop ``a < g`` lifts to the pair ``(a, 2g - a)``, and the ``g``-th
loop lifts to a single middle loop of doubled circumference.  A tableau
places one chip unit per loop pair (its position read counter-clockwise
from the rightmost vertex on the upper loop equals the clockwise distance
from the leftmost vertex on the lower loop), one chip on the middle loop
at the parity-pinned position, and a stack of ``g - 2`` chips at the
leftmost vertex of the last loop — total degree ``2g - 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .core import (
    InvalidInputError,
    InvariantError,
    PrymParams,
    Tableau,
    _check_int,
    _expect,
    _is_int,
    _prym_signature,
    _shape_of,
    diag_offset,
    displacement_fault,
    dual_symbol,
    shape_family,
    symbol_fault,
)

__all__ = [
    "ChipDivisor",
    "ChipEntry",
    "FoldedChain",
    "loop_torsion",
    "make_folded_chain",
    "tableau_to_divisor",
]


def loop_torsion(m: Fraction, length: Fraction) -> int:
    """Least positive ``K`` such that ``m + length`` divides ``K * m``."""
    m, length = _as_fraction(m), _as_fraction(length)
    if m <= 0 or length <= 0:
        raise InvalidInputError("arc lengths must be positive")
    return Fraction(m, m + length).denominator


@dataclass(frozen=True)
class FoldedChain:
    """A folded chain: torsion-``k`` loop pairs over a chain of ``g`` loops.

    ``lengths[a - 1] = (m_a, l_a)`` gives the lower and upper arc lengths
    of base loop ``a``; both lift unchanged to the pair ``(a, 2g - a)``,
    while the middle loop ``g`` doubles to circumference ``2 (m_g + l_g)``.
    """

    g: int
    k: int
    lengths: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        _check_int(self.g, "g", 2)
        _check_int(self.k, "k", 2)
        try:
            pairs = [(m, length) for m, length in self.lengths]
        except (TypeError, ValueError):  # not a sequence of pairs
            raise InvalidInputError("lengths need one (m, l) pair per base loop") from None
        if len(pairs) != self.g:
            raise InvalidInputError(
                f"need one (m, l) pair per base loop: got {len(pairs)}, expected {self.g}"
            )
        pairs = tuple((_as_fraction(m), _as_fraction(x)) for m, x in pairs)
        object.__setattr__(self, "lengths", pairs)
        for a, (m, length) in enumerate(pairs, start=1):
            torsion = loop_torsion(m, length)
            if torsion != self.k:
                raise InvalidInputError(
                    f"loop {a} has torsion {torsion}, not {self.k}"
                    f" (m={m}, l={length})"
                )

    @property
    def loop_count(self) -> int:
        return 2 * self.g - 1

    def base_loop(self, loop: int) -> int:
        """The base-chain loop under ``loop`` of the folded chain."""
        if not 1 <= loop <= self.loop_count:
            raise InvalidInputError(f"loop index {loop} outside [1, {self.loop_count}]")
        return min(loop, 2 * self.g - loop)

    def circumference(self, loop: int) -> Fraction:
        m, length = self.lengths[self.base_loop(loop) - 1]
        if loop == self.g:
            return 2 * (m + length)
        return m + length


def _as_fraction(x) -> Fraction:
    """``x`` as an exact rational: a ``Rational``, or a string that reads as one."""
    if isinstance(x, (Rational, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):  # "x", "1/0"
            pass
    raise InvalidInputError(f"arc length must be rational, got {x!r}")


def make_folded_chain(g: int, k: int, lengths=None) -> FoldedChain:
    """A torsion-``k`` folded chain; default arcs ``m = 1``, ``l = k - 1``.

    Custom ``lengths`` (one ``(m, l)`` pair per base loop, exact rationals)
    are accepted if every loop passes the torsion test.
    """
    if not (_is_int(g) and _is_int(k)):
        raise InvalidInputError(f"g and k must be integers, got {g!r} and {k!r}")
    if k == 0:
        raise InvalidInputError(
            "torsion 0 has no folded-chain model: rational arc lengths"
            " always give finite torsion"
        )
    if lengths is None:
        lengths = [(Fraction(1), Fraction(k - 1))] * g
    return FoldedChain(g, k, lengths)


@dataclass(frozen=True)
class ChipEntry:
    """Chip data on one loop: an exact position or a free marker.

    Positions on loops ``a <= g`` are arc lengths counter-clockwise from
    the loop's rightmost vertex; on loops ``a > g`` they are measured
    clockwise from the leftmost vertex, which makes the two entries of a
    dual pair numerically equal.
    """

    loop: int
    pos: Fraction | None
    mult: int = 1

    @property
    def free(self) -> bool:
        return self.pos is None


@dataclass(frozen=True)
class ChipDivisor:
    """One chip unit per loop pair, a middle chip, and the boundary stack.

    ``entries`` holds one record per loop in ``[1, 2g - 1]``; the two
    records of a dual pair describe the same chip unit in mirrored
    coordinates, so the degree counts each pair once:
    ``(g - 1) + 1 + stack = 2g - 2``.
    """

    chain: FoldedChain
    entries: tuple[ChipEntry, ...]
    stack: int

    def __post_init__(self) -> None:
        g = self.chain.g
        loops = [e.loop for e in self.entries]
        if loops != list(range(1, 2 * g)):
            raise InvariantError("chip entries must cover each loop exactly once")
        for e in self.entries:
            if e.mult != 1:
                raise InvariantError("per-loop chip entries carry multiplicity 1")
            if e.pos is not None and not 0 <= e.pos < self.chain.circumference(e.loop):
                raise InvariantError(
                    f"chip position {e.pos} outside loop {e.loop}'s circumference"
                )
        for a in range(1, g):
            if self.entries[a - 1].pos != self.entries[2 * g - a - 1].pos:
                raise InvariantError(
                    f"dual loops {a} and {2 * g - a} disagree on the chip position"
                )
        if self.entries[g - 1].free:
            raise InvariantError("the middle loop's chip is parity-pinned, never free")
        if self.stack < 0:
            raise InvariantError("stack multiplicity must be non-negative")

    def entry(self, loop: int) -> ChipEntry:
        return self.entries[loop - 1]

    @property
    def degree(self) -> int:
        """Total degree: one unit per pair, the middle chip, the stack."""
        return (self.chain.g - 1) + self.entries[self.chain.g - 1].mult + self.stack

    @property
    def free_loops(self) -> tuple[int, ...]:
        return tuple(e.loop for e in self.entries if e.free)

    @property
    def dimension(self) -> int:
        """Degrees of freedom: one per free loop pair."""
        return sum(1 for e in self.entries if e.free and e.loop < self.chain.g)


def _pair_position(chain: FoldedChain, a: int, offsets: set[int]) -> Fraction:
    m, length = chain.lengths[a - 1]
    circ = m + length
    positions = {(m * off) % circ for off in offsets}
    if len(positions) > 1:
        raise InvariantError(
            f"boxes of the pair ({a}, {2 * chain.g - a}) disagree on the chip"
            f" position: {sorted(positions)}"
        )
    return positions.pop()


def tableau_to_divisor(t: Tableau, chain: FoldedChain) -> ChipDivisor | None:
    """The chip divisor of a tableau, or ``None`` when its cell is empty.

    Accepts a Prym tableau on the square (symbols up to ``2g - 1``) or a
    displacement tableau on the staircase (symbols up to ``g - 1``).  A
    symbol ``a`` at box ``(x, y)`` pins the chip of the pair
    ``(a, 2g - a)`` at distance ``m_a (x - y)`` around the loop; pairs
    with neither symbol present stay free.  The middle chip sits at the
    parity position ``(m_g + l_g) (r mod 2)``; a square tableau whose ``g``-fiber
    meets the other parity class indexes the empty cell, which every cell holds.
    """
    g, k = _expect(chain, FoldedChain).g, chain.k
    family, r = shape_family(_shape_of(t))
    if family == "square":
        if (sig := _prym_signature(t, PrymParams(g, r, k))) is None:
            raise InvalidInputError("square tableaux must satisfy the Prym conditions")
        if sig[1]:  # the empty cell
            return None
    elif fault := displacement_fault(t, k) or symbol_fault(t, g):
        raise InvalidInputError(f"staircase tableau {fault}")

    fibers: dict[int, set[int]] = {}
    for box, v in t.items():
        fibers.setdefault(v, set()).add(diag_offset(box))

    m_g, l_g = chain.lengths[g - 1]
    middle_pos = (m_g + l_g) * (r % 2)

    entries = [ChipEntry(g, middle_pos)]
    for a in range(1, g):
        offsets = fibers.get(a, set()) | fibers.get(dual_symbol(a, g), set())
        pos = _pair_position(chain, a, offsets) if offsets else None
        entries.append(ChipEntry(a, pos))
        entries.append(ChipEntry(2 * g - a, pos))
    entries.sort(key=lambda e: e.loop)
    div = ChipDivisor(chain, tuple(entries), g - 2)
    if div.degree != 2 * g - 2:
        raise InvariantError(f"divisor degree {div.degree} is not {2 * g - 2}")
    return div
