"""Constructors for delta-fine tagged partitions.

Two strategies with different failure modes:

* greedy creep walks left to right, tagging each cell at its left
  endpoint, and degrades gracefully — a stall reports the frontier where
  forward progress died;
* midpoint bisection splits until each cell fits inside some candidate
  tag's ball, and localizes hard spots spatially.

Both append floats, not objects: the creep appends each boundary once to
one list, from which the ``lo``, ``hi`` and ``tag`` columns of the
:class:`~gaugekit.intervals.TaggedPartition` (or :class:`Stall`) are
sliced; bisection appends to the three columns.  Both test their
``max_cells`` budget before they append any cell.

Both re-check nothing: soundness of their output is established by the
exact checkers in :mod:`gaugekit.intervals`, which the tests (and the CLI,
before emission) run on every result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .intervals import (
    GaugeLike,
    Interval,
    TaggedInterval,
    TaggedPartition,
    _tagged_intervals,
    as_gauge,
)

DEFAULT_MAX_CELLS = 1_000_000
DEFAULT_MAX_DEPTH = 60


class StrategyKind(Enum):
    GREEDY_CREEP = "creep"
    BISECTION = "bisect"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class PartitionStrategy:
    """Strategy choice plus iteration caps.

    Black-box gauges admit no termination guarantee, so both constructors
    carry explicit budgets and report diagnostics instead of spinning.
    """

    kind: StrategyKind = StrategyKind.HYBRID
    max_cells: int = DEFAULT_MAX_CELLS
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        if self.max_cells <= 0 or self.max_depth <= 0:
            raise ValueError("strategy caps must be positive")


@dataclass(frozen=True)
class Stall:
    """Greedy creep stopped short; ``frontier`` is the last point reached.

    ``lo``, ``hi`` and ``tag`` are the columns of the cells emitted before
    the stall, as in :class:`TaggedPartition`.
    """

    frontier: float
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    tag: tuple[float, ...]

    @property
    def cells_so_far(self) -> tuple[TaggedInterval, ...]:
        """The emitted cells as objects, built anew on each access."""
        return _tagged_intervals(self.lo, self.hi, self.tag)


@dataclass(frozen=True)
class DepthExceeded:
    """Bisection hit its depth (or cell) budget inside ``deepest_cell``."""

    deepest_cell: Interval


@dataclass(frozen=True)
class PartitionFailure:
    """Aggregated diagnostics from the strategies that were attempted."""

    stall: Stall | None = None
    depth_exceeded: DepthExceeded | None = None


def creep_partition(gauge: GaugeLike, dom: Interval, *,
                    max_cells: int = DEFAULT_MAX_CELLS) -> Union[TaggedPartition, Stall]:
    """Build a delta-fine partition left to right.

    At frontier s: if ``hi - s <= delta(hi)`` and ``hi - delta(hi) <= s``
    (both in binary64) emit the final cell ``([s, hi], tag hi)``; otherwise
    emit ``([s, min(hi, s + delta(s))], tag s)`` and advance.  The
    final-cell lookahead is what lets gauges that vanish toward ``hi``
    terminate.

    Returns a :class:`Stall` carrying the frontier when the cell budget
    runs out or the step underflows (``s + delta(s) == s`` in binary64).

    Raises:
        ValueError: if dom is degenerate.
        GaugeNonpositiveError: if the gauge is not positive somewhere.
    """
    a, b = dom.lo, dom.hi
    if not a < b:
        raise ValueError(f"domain must be nondegenerate, got [{a!r}, {b!r}]")
    g = as_gauge(gauge)
    delta_b = g(b)
    # the boundaries reached so far: cell i is [pts[i], pts[i + 1]], tagged
    # pts[i], except the final lookahead cell, which is tagged b
    pts = [a]
    s = a
    while len(pts) <= max_cells:  # room for one more cell
        # b - s rounds, so also ask for the fineness checker's own test
        # (b - delta_b) - s <= 0, or a tiny negative s gives an unfine cell
        if b - s <= delta_b and b - delta_b <= s:
            pts.append(b)
            lo = tuple(pts[:-1])
            return TaggedPartition(dom, lo, tuple(pts[1:]), lo[:-1] + (b,))
        t = s + g(s)
        if t > b:
            t = b
        elif t <= s:
            break
        pts.append(t)
        if t == b:
            lo = tuple(pts[:-1])
            return TaggedPartition(dom, lo, tuple(pts[1:]), lo)
        s = t
    lo = tuple(pts[:-1])
    return Stall(s, lo, tuple(pts[1:]), lo)


def bisect_partition(gauge: GaugeLike, dom: Interval, *,
                     max_depth: int = DEFAULT_MAX_DEPTH,
                     max_cells: int = DEFAULT_MAX_CELLS) -> Union[TaggedPartition, DepthExceeded]:
    """Build a delta-fine partition by recursive midpoint splitting.

    A cell [u, v] is emitted with the first candidate tag x of (u,
    midpoint, v) whose ball [x - delta(x), x + delta(x)] properly contains
    [u, v] (containment with at least one side strict); otherwise the cell
    is split.  Proper containment keeps the accepted cell strictly inside
    the ball on one side, so emitted cells are delta-fine with margin.

    Raises:
        ValueError: if dom is degenerate.
        GaugeNonpositiveError: if the gauge is not positive somewhere.
    """
    a, b = dom.lo, dom.hi
    if not a < b:
        raise ValueError(f"domain must be nondegenerate, got [{a!r}, {b!r}]")
    g = as_gauge(gauge)
    lo: list[float] = []
    hi: list[float] = []
    tag: list[float] = []

    def cover(u: float, v: float, depth: int) -> Interval | None:
        mid = 0.5 * (u + v)
        for x in (u, mid, v):
            d = g(x)
            lo_edge, hi_edge = x - d, x + d
            if lo_edge <= u and v <= hi_edge and (lo_edge < u or v < hi_edge):
                if len(lo) >= max_cells:
                    return Interval(u, v)
                lo.append(u)
                hi.append(v)
                tag.append(x)
                return None
        if depth >= max_depth or not u < mid < v:
            return Interval(u, v)
        bad = cover(u, mid, depth + 1)
        if bad is not None:
            return bad
        return cover(mid, v, depth + 1)

    bad = cover(a, b, 0)
    if bad is not None:
        return DepthExceeded(bad)
    return TaggedPartition(dom, lo, hi, tag)


def fine_partition(gauge: GaugeLike, dom: Interval,
                   strategy: PartitionStrategy = PartitionStrategy(),
                   ) -> Union[TaggedPartition, PartitionFailure]:
    """Dispatch to a strategy; HYBRID falls back to bisection on a stall.

    Raises:
        ValueError: if dom is degenerate.
        GaugeNonpositiveError: if the gauge is not positive somewhere.
    """
    stall = None
    if strategy.kind is not StrategyKind.BISECTION:
        first = creep_partition(gauge, dom, max_cells=strategy.max_cells)
        if isinstance(first, TaggedPartition):
            return first
        if strategy.kind is StrategyKind.GREEDY_CREEP:
            return PartitionFailure(stall=first)
        stall = first
    second = bisect_partition(gauge, dom, max_depth=strategy.max_depth,
                              max_cells=strategy.max_cells)
    if isinstance(second, DepthExceeded):
        return PartitionFailure(stall=stall, depth_exceeded=second)
    return second
