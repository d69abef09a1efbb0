"""Closed intervals, gauges, and tagged partitions, with exact checkers.

Everything here is binary64 and every comparison is exact: the checkers
apply no epsilon slack, so a partition or certificate either satisfies its
claims bit-for-bit or it is reported as a violation.  Any rounding policy
belongs to producers (see :mod:`gaugekit.cousin`), never to the checkers.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Union

from .errors import GaugekitError


class GaugeNonpositiveError(GaugekitError):
    """A gauge evaluated to a value <= 0 (or NaN) at some point."""

    def __init__(self, x: float, value: float):
        super().__init__(f"gauge is not positive at x={x!r}: delta={value!r}")
        self.x = x
        self.value = value


class DomainMismatchError(GaugekitError):
    """Two partitions were concatenated at endpoints that do not match."""


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with finite endpoints and lo <= hi.

    Degenerate intervals (lo == hi) are representable so that checkers can
    accept them as inputs; the partition builders never produce them.
    """

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo}, {self.hi}]")
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


class Gauge:
    """A positive function delta(x) on an interval.

    Positivity cannot be verified globally for black-box or expression
    gauges, so it is checked at every evaluation instead; a non-positive
    value raises :class:`GaugeNonpositiveError`.
    """

    def value_at(self, x: float) -> float:
        raise NotImplementedError

    def __call__(self, x: float) -> float:
        value = float(self.value_at(x))
        if not value > 0.0:  # also catches NaN
            raise GaugeNonpositiveError(x, value)
        return value


@dataclass(frozen=True)
class ConstantGauge(Gauge):
    """delta(x) = value everywhere."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not self.value > 0.0:
            raise ValueError(f"constant gauge must be positive, got {self.value!r}")

    def value_at(self, x: float) -> float:
        return self.value


@dataclass(frozen=True)
class PiecewiseConstantGauge(Gauge):
    """Right-continuous step gauge.

    ``values[i]`` applies on the half-open segment [breakpoints[i],
    breakpoints[i+1]); the last breakpoint maps to the last value, and
    points below the first breakpoint clamp to the first value.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if not bps:
            raise ValueError("piecewise gauge needs at least one breakpoint")
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        if any(not v > 0.0 for v in vals):
            raise ValueError("piecewise gauge values must all be positive")

    def value_at(self, x: float) -> float:
        i = bisect_right(self.breakpoints, x) - 1
        if i < 0:
            i = 0
        return self.values[i]


@dataclass(frozen=True)
class OpaqueGauge(Gauge):
    """Gauge backed by an arbitrary callback; must be reentrant."""

    callback: Callable[[float], float]

    def value_at(self, x: float) -> float:
        return self.callback(x)


GaugeLike = Union[Gauge, Callable[[float], float], float, int]


def as_gauge(g: GaugeLike) -> Gauge:
    """Coerce a gauge, bare callable, or positive number into a Gauge."""
    if isinstance(g, Gauge):
        return g
    if callable(g):
        return OpaqueGauge(g)
    return ConstantGauge(float(g))


@dataclass(frozen=True, slots=True)
class TaggedInterval:
    """A cell together with its tag.

    Tag containment is an invariant checked by :func:`validate_partition`,
    not enforced here, so that checkers can be fed broken inputs.
    """

    cell: Interval
    tag: float

    def __post_init__(self):
        object.__setattr__(self, "tag", float(self.tag))


@dataclass(frozen=True)
class TaggedPartition:
    """Ordered tagged cells meant to tile ``domain`` contiguously."""

    domain: Interval
    cells: tuple[TaggedInterval, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class Violation:
    index: int | None
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class FinenessReport:
    fine: bool
    first_violation: int | None = None
    margin: float | None = None  # positive overshoot of the first bad cell


def validate_partition(p: TaggedPartition) -> ValidationReport:
    """Check the structural invariants of a tagged partition.

    Every violated invariant becomes a report entry (nothing raises); an
    empty report means the partition is valid.
    """
    out: list[Violation] = []
    cells = p.cells
    if not cells:
        return ValidationReport((Violation(None, "empty", "partition has no cells"),))

    if cells[0].cell.lo != p.domain.lo:
        out.append(Violation(0, "endpoint",
                             f"first cell starts at {cells[0].cell.lo!r}, domain starts at {p.domain.lo!r}"))
    if cells[-1].cell.hi != p.domain.hi:
        out.append(Violation(len(cells) - 1, "endpoint",
                             f"last cell ends at {cells[-1].cell.hi!r}, domain ends at {p.domain.hi!r}"))
    for i, ti in enumerate(cells):
        if not ti.cell.lo < ti.cell.hi:
            out.append(Violation(i, "degenerate", f"cell [{ti.cell.lo!r}, {ti.cell.hi!r}] has zero width"))
        if not ti.cell.lo <= ti.tag <= ti.cell.hi:
            out.append(Violation(i, "tag", f"tag {ti.tag!r} outside cell [{ti.cell.lo!r}, {ti.cell.hi!r}]"))
    for i in range(len(cells) - 1):
        if cells[i].cell.hi != cells[i + 1].cell.lo:
            out.append(Violation(i, "contiguity",
                                 f"cell {i} ends at {cells[i].cell.hi!r} but cell {i + 1} "
                                 f"starts at {cells[i + 1].cell.lo!r}"))
    return ValidationReport(tuple(out))


def is_delta_fine(p: TaggedPartition, gauge: GaugeLike) -> FinenessReport:
    """Check that every cell lies within [tag - delta(tag), tag + delta(tag)].

    Containment is non-strict and exact.  The caller is responsible for
    validating the partition first (see :func:`validate_partition`).

    Raises:
        GaugeNonpositiveError: if the gauge is not positive at some tag.
    """
    g = as_gauge(gauge)
    for i, ti in enumerate(p.cells):
        delta = g(ti.tag)
        lo_overshoot = (ti.tag - delta) - ti.cell.lo
        hi_overshoot = ti.cell.hi - (ti.tag + delta)
        margin = max(lo_overshoot, hi_overshoot)
        if margin > 0.0:
            return FinenessReport(False, i, margin)
    return FinenessReport(True)


def concat(p1: TaggedPartition, p2: TaggedPartition) -> TaggedPartition:
    """Join two partitions whose domains meet at a shared endpoint.

    Raises:
        ValueError: if either partition is empty.
        DomainMismatchError: if the junction endpoints are not bit-equal.
    """
    if not p1.cells or not p2.cells:
        raise ValueError("cannot concatenate an empty partition")
    if p1.domain.hi != p2.domain.lo:
        raise DomainMismatchError(
            f"junction mismatch: left ends at {p1.domain.hi!r}, right starts at {p2.domain.lo!r}")
    return TaggedPartition(Interval(p1.domain.lo, p2.domain.hi), p1.cells + p2.cells)


# --- JSON wire format -------------------------------------------------------
#
# {"domain": {"lo": a, "hi": b}, "cells": [{"lo": .., "hi": .., "tag": ..}]}
#
# Floats are serialized as shortest round-trip decimals (Python's default),
# so a dump/load cycle is bit-exact.  The writers fill one text template per
# cell instead of calling json.dumps(indent=2), whose pure-Python encoder
# costs several microseconds a cell; their output is byte-identical to it.

_PARTITION_HEAD = '{\n  "domain": {\n    "lo": %s,\n    "hi": %s\n  },\n  "cells": ['
_PARTITION_CELL = '    {\n      "lo": %s,\n      "hi": %s,\n      "tag": %s\n    }'


def _json_fill(template: str, rows: list[tuple]) -> list[str]:
    """``template % row`` for each row, every value spelled as json.dumps spells it.

    ``%s`` of a finite float is its shortest repr, which is what json writes.
    If any value is something else (NaN, an infinity, an int, a string, a
    float subclass), every value is spelled by json.dumps instead.
    """
    values = list(chain.from_iterable(rows))
    if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
        return [template % row for row in rows]
    return [template % tuple(map(json.dumps, row)) for row in rows]


def _json_document(head: str, items: list[str]) -> str:
    """Close ``head``, which ends in the ``[`` of the object's last field, as
    json.dumps(indent=2) does with ``items`` as that list's entries."""
    if not items:
        return head + "]\n}"
    return head + "\n" + ",\n".join(items) + "\n  ]\n}"


def partition_to_dict(p: TaggedPartition) -> dict:
    return {
        "domain": {"lo": p.domain.lo, "hi": p.domain.hi},
        "cells": [{"lo": ti.cell.lo, "hi": ti.cell.hi, "tag": ti.tag} for ti in p.cells],
    }


def partition_to_json(p: TaggedPartition) -> str:
    """The partition as ``json.dumps(partition_to_dict(p), indent=2)`` writes it."""
    head = _json_fill(_PARTITION_HEAD, [(p.domain.lo, p.domain.hi)])[0]
    cells = _json_fill(_PARTITION_CELL, [(ti.cell.lo, ti.cell.hi, ti.tag) for ti in p.cells])
    return _json_document(head, cells)


def _require_number(obj, key: str, artifact: str) -> float:
    """``obj[key]`` as a float; ``artifact`` names the JSON in error messages."""
    try:
        v = obj[key]
    except (KeyError, TypeError):
        raise ValueError(f"{artifact} JSON missing field {key!r}") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{artifact} JSON field {key!r} is not a number")
    return float(v)


def partition_from_dict(data: dict) -> TaggedPartition:
    """Rebuild a partition from its wire form.

    Raises:
        ValueError: if the data does not match the schema.
    """
    if not isinstance(data, dict):
        raise ValueError("partition JSON must be an object")
    dom = data.get("domain")
    domain = Interval(_require_number(dom, "lo", "partition"),
                      _require_number(dom, "hi", "partition"))
    cells = data.get("cells")
    if not isinstance(cells, list):
        raise ValueError("partition JSON field 'cells' must be a list")
    tagged = tuple(
        TaggedInterval(Interval(_require_number(c, "lo", "partition"),
                                _require_number(c, "hi", "partition")),
                       _require_number(c, "tag", "partition"))
        for c in cells
    )
    return TaggedPartition(domain, tagged)


def partition_from_json(text: str) -> TaggedPartition:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed partition JSON: {e}") from None
    return partition_from_dict(data)
