"""Exact re-checks of partitions and certificates in rational arithmetic.

Each claim that involves a sum or a product of binary64 values is decided
exactly, on ``fractions.Fraction`` values, so no check here rounds.  Plain
float comparisons (``==``, ``<=``) are already exact and stay as they are.

The module imports nothing from gaugekit: it is the benchmark's own,
independent judge of what the program emitted.  Each checker separates
two kinds of finding:

* ``wrong``: the artifact breaks its contract even in binary64 (a gap in
  the tiling, a tag outside its cell, a recorded value that is not f at
  the sample).  The benchmark counts the job as failed.
* ``inexact``: a cell or piece whose containment or radius claim holds in
  binary64 but fails in exact arithmetic (the rounding defects of the
  producers).  These feed ``inexact_ratio``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence


@dataclass
class Verdict:
    items: int = 0                                   # cells or pieces examined
    inexact: int = 0                                 # items failing only exactly
    wrong: list[str] = field(default_factory=list)   # contract breaks, first few

    @property
    def ok(self) -> bool:
        return not self.wrong and not self.inexact

    def flag(self, message: str):
        if len(self.wrong) < 5:
            self.wrong.append(message)


def fits_ball(lo: float, hi: float, center: float, radius: float) -> bool:
    """Exactly: [lo, hi] lies inside [center - radius, center + radius].

    A side is settled in binary64 when the rounded sum clears the edge by
    more than one ulp of the sum, which exceeds its rounding error (and
    rounding is monotone, so a rounded difference above that ulp means the
    exact one is too).  Every other side is decided on fractions.
    """
    down = center - radius
    if not (down < lo and lo - down > math.ulp(down)):
        if Fraction(center) - Fraction(radius) > Fraction(lo):
            return False
    up = center + radius
    if not (hi < up and up - hi > math.ulp(up)):
        if Fraction(hi) > Fraction(center) + Fraction(radius):
            return False
    return True


def check_partition(domain: tuple[float, float], cells: Sequence[tuple[float, float, float]],
                    delta: Callable[[float], float]) -> Verdict:
    """Tiling, tags and delta-fineness of a tagged partition.

    ``cells`` holds ``(lo, hi, tag)`` triples in order; ``delta`` is the
    gauge, evaluated the way the program evaluates it.
    """
    v = Verdict(items=len(cells))
    if not cells:
        v.flag("partition has no cells")
        return v
    if cells[0][0] != domain[0] or cells[-1][1] != domain[1]:
        v.flag(f"cells span [{cells[0][0]!r}, {cells[-1][1]!r}], domain is {domain!r}")
    prev_hi = domain[0]
    for i, (lo, hi, tag) in enumerate(cells):
        if lo != prev_hi:
            v.flag(f"cell {i} starts at {lo!r}, previous cell ends at {prev_hi!r}")
        if not lo < hi:
            v.flag(f"cell {i} [{lo!r}, {hi!r}] is empty")
        if not lo <= tag <= hi:
            v.flag(f"cell {i} tag {tag!r} outside [{lo!r}, {hi!r}]")
        prev_hi = hi
        if not fits_ball(lo, hi, tag, delta(tag)):
            v.inexact += 1
    return v


def check_certificate(domain: tuple[float, float], pieces: Sequence[dict],
                      f: Callable[[float], float], lipschitz: float,
                      gap_of: Callable[[float], Fraction]) -> Verdict:
    """Tiling, containment and radius of every certificate piece.

    A piece ``{lo, hi, s, fs, delta}`` is sound when ``[lo, hi]`` lies in
    ``[s - delta, s + delta]`` and ``2 * L * delta <= gap(fs)``: then f
    moves by at most half the gap across the cell, so the claimed
    inequality holds on all of it.  ``gap_of`` returns the exact gap
    (``M - fs`` for a bound, ``|y - fs|`` on the certified side for a
    sign certificate); a gap that is not positive breaks the contract.
    """
    v = Verdict(items=len(pieces))
    if not pieces:
        v.flag("certificate has no pieces")
        return v
    two_l = 2 * Fraction(lipschitz)
    prev_hi = domain[0]
    for i, p in enumerate(pieces):
        lo, hi, s, fs, radius = p["lo"], p["hi"], p["s"], p["fs"], p["delta"]
        if lo != prev_hi:
            v.flag(f"piece {i} starts at {lo!r}, previous piece ends at {prev_hi!r}")
        if not lo < hi:
            v.flag(f"piece {i} [{lo!r}, {hi!r}] is empty")
        prev_hi = hi
        if f(s) != fs:
            v.flag(f"piece {i} records f({s!r}) = {fs!r}, reference gives {f(s)!r}")
            continue
        gap = gap_of(fs)
        if not gap > 0:
            v.flag(f"piece {i} sample value {fs!r} is not on the certified side")
            continue
        if not (fits_ball(lo, hi, s, radius) and two_l * Fraction(radius) <= gap):
            v.inexact += 1
    if prev_hi != domain[1]:
        v.flag(f"pieces end at {prev_hi!r}, domain ends at {domain[1]!r}")
    return v


def piecewise_gauge(breakpoints: Sequence[float], values: Sequence[float]) -> Callable[[float], float]:
    """Right-continuous step gauge that clamps below the first breakpoint."""
    bps, vals = tuple(breakpoints), tuple(values)

    def delta(x: float) -> float:
        return vals[max(bisect_right(bps, x) - 1, 0)]
    return delta
