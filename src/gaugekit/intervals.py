"""Closed intervals, gauges, and tagged partitions, with exact checkers.

Everything here is binary64 and every comparison is exact: the checkers
apply no epsilon slack, so a partition or certificate either satisfies its
claims bit-for-bit or it is reported as a violation.  Any rounding policy
belongs to producers (see :mod:`gaugekit.cousin`), never to the checkers.

A :class:`TaggedPartition` holds its cells as three parallel float tuples,
``lo``, ``hi`` and ``tag``, with no object per cell.  The checkers, the
JSON writer and the parser loop over those columns; ``cells`` builds the
:class:`TaggedInterval` view on demand for callers that want objects.
"""

from __future__ import annotations

import json
import math
import operator
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
    """Cells ``[lo[i], hi[i]]`` tagged ``tag[i]``, meant to tile ``domain``
    contiguously.

    The three columns are parallel tuples of floats.  They are stored as
    given: nothing is converted or checked per cell, so that the checkers
    can be fed broken inputs (cells out of order, gaps, tags outside their
    cell).  Endpoints must be finite floats, as :class:`Interval` requires.
    """

    domain: Interval
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    tag: tuple[float, ...]

    def __post_init__(self):
        for name in ("lo", "hi", "tag"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not len(self.lo) == len(self.hi) == len(self.tag):
            raise ValueError(f"partition columns differ in length: lo {len(self.lo)}, "
                             f"hi {len(self.hi)}, tag {len(self.tag)}")

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def cells(self) -> tuple[TaggedInterval, ...]:
        """The cells as :class:`TaggedInterval` objects, built anew on each
        access; loops over a partition should read the columns instead."""
        return _tagged_intervals(self.lo, self.hi, self.tag)


def _tagged_intervals(lo, hi, tag) -> tuple[TaggedInterval, ...]:
    return tuple(TaggedInterval(Interval(l, h), t) for l, h, t in zip(lo, hi, tag))


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
    empty report means the partition is valid.  Entries come in a fixed
    order: the domain's endpoints, then each cell's width and tag, then
    the junctions between neighbours.
    """
    lo, hi, tag = p.lo, p.hi, p.tag
    if not lo:
        return ValidationReport((Violation(None, "empty", "partition has no cells"),))

    out: list[Violation] = []
    if lo[0] != p.domain.lo:
        out.append(Violation(0, "endpoint",
                             f"first cell starts at {lo[0]!r}, domain starts at {p.domain.lo!r}"))
    if hi[-1] != p.domain.hi:
        out.append(Violation(len(lo) - 1, "endpoint",
                             f"last cell ends at {hi[-1]!r}, domain ends at {p.domain.hi!r}"))
    # the per-index scans run only when a whole-column test finds a fault
    if not (all(map(operator.lt, lo, hi)) and all(map(operator.le, lo, tag))
            and all(map(operator.le, tag, hi))):
        for i, (l, h, t) in enumerate(zip(lo, hi, tag)):
            if not l < h:
                out.append(Violation(i, "degenerate", f"cell [{l!r}, {h!r}] has zero width"))
            if not l <= t <= h:
                out.append(Violation(i, "tag", f"tag {t!r} outside cell [{l!r}, {h!r}]"))
    # tuple equality compares with ==, so a -0.0/0.0 junction is contiguous
    if hi[:-1] != lo[1:]:
        for i, (h, l) in enumerate(zip(hi, lo[1:])):
            if h != l:
                out.append(Violation(i, "contiguity",
                                     f"cell {i} ends at {h!r} but cell {i + 1} starts at {l!r}"))
    return ValidationReport(tuple(out))


def is_delta_fine(p: TaggedPartition, gauge: GaugeLike) -> FinenessReport:
    """Check that every cell lies within [tag - delta(tag), tag + delta(tag)].

    Containment is non-strict and exact.  The first cell that is not
    contained is reported with its positive overshoot as ``margin``, or
    with ``margin`` None when the overshoot is NaN (a NaN tag, or an
    infinite tag under an infinite delta).  The caller is responsible for
    validating the partition first (see :func:`validate_partition`).

    Raises:
        GaugeNonpositiveError: if the gauge is not positive at some tag.
    """
    g = as_gauge(gauge)
    # map is lazy: the gauge is evaluated cell by cell, up to the first
    # violation and no further
    for i, (lo, hi, tag, delta) in enumerate(zip(p.lo, p.hi, p.tag, map(g, p.tag))):
        lo_overshoot = (tag - delta) - lo
        hi_overshoot = hi - (tag + delta)
        if not (lo_overshoot <= 0.0 and hi_overshoot <= 0.0):  # also catches NaN
            nan = math.isnan(lo_overshoot) or math.isnan(hi_overshoot)
            return FinenessReport(False, i, None if nan else max(lo_overshoot, hi_overshoot))
    return FinenessReport(True)


def concat(p1: TaggedPartition, p2: TaggedPartition) -> TaggedPartition:
    """Join two partitions whose domains meet at a shared endpoint.

    Raises:
        ValueError: if either partition is empty.
        DomainMismatchError: if the junction endpoints are not bit-equal.
    """
    if not p1.lo or not p2.lo:
        raise ValueError("cannot concatenate an empty partition")
    if p1.domain.hi != p2.domain.lo:
        raise DomainMismatchError(
            f"junction mismatch: left ends at {p1.domain.hi!r}, right starts at {p2.domain.lo!r}")
    return TaggedPartition(Interval(p1.domain.lo, p2.domain.hi),
                           p1.lo + p2.lo, p1.hi + p2.hi, p1.tag + p2.tag)


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
# the cell template's text around its three values
_CELL = _PARTITION_CELL.split("%s")


def _finite_floats(values) -> bool:
    """True if every value is a finite float, which ``%s`` spells as json does."""
    return set(map(type, values)) <= {float} and all(map(math.isfinite, values))


def _json_fill(template: str, rows: list[tuple]) -> list[str]:
    """``template % row`` for each row, every value spelled as json.dumps spells it.

    ``%s`` of a finite float is its shortest repr, which is what json writes.
    If any value is something else (NaN, an infinity, an int, a string, a
    float subclass), every value is spelled by json.dumps instead.
    """
    if _finite_floats(list(chain.from_iterable(rows))):
        return [template % row for row in rows]
    return [template % tuple(map(json.dumps, row)) for row in rows]


def _json_document(head: str, items: list[str]) -> str:
    """Close ``head``, which ends in the ``[`` of the object's last field, as
    json.dumps(indent=2) does with ``items`` as that list's entries."""
    if not items:
        return head + "]\n}"
    return head + "\n" + ",\n".join(items) + "\n  ]\n}"


def _json_rows(head: str, template: list[str], columns: list[list[str]]) -> str:
    """``_json_document(head, items)`` where item i is the row template whose
    text around its values is ``template``, filled with ``column[i]`` of each
    column, in order; there must be at least one row.

    The document is built in one join with no intermediate copy of the
    text: the head, then each row's spellings between the pieces of its
    template, rows joined by ",\n".
    """
    width = 2 * len(columns)
    unit: list = []
    for text in template[1:]:
        unit += [None, text]
    unit[-1] += ",\n" + template[0]
    parts = [head + "\n" + template[0]]
    parts += unit * len(columns[0])
    for k, column in enumerate(columns):
        parts[1 + 2 * k::width] = column
    parts[-1] = template[-1] + "\n  ]\n}"
    return "".join(parts)


def _spelling(*columns) -> Callable[[object], str]:
    """How json spells every value of ``columns``: ``repr`` when all are
    finite floats, else ``json.dumps``."""
    return repr if all(map(_finite_floats, columns)) else json.dumps


def _spelled_ends(lo, hi, spell) -> tuple[list[str], list[str]]:
    """The spellings of the nonempty ``lo`` and ``hi`` columns, each float
    object spelled once: a ``hi`` that is the next row's ``lo`` object
    reuses its spelling.  Sharing is tested with ``is``, never ``==``,
    because ``-0.0 == 0.0`` and the two are spelled differently."""
    s_lo = list(map(spell, lo))
    s_hi = [s if h is l else spell(h) for h, l, s in zip(hi, lo[1:], s_lo[1:])]
    s_hi.append(spell(hi[-1]))
    return s_lo, s_hi


def partition_to_dict(p: TaggedPartition) -> dict:
    return {
        "domain": {"lo": p.domain.lo, "hi": p.domain.hi},
        "cells": [{"lo": lo, "hi": hi, "tag": tag} for lo, hi, tag in zip(p.lo, p.hi, p.tag)],
    }


def partition_to_json(p: TaggedPartition) -> str:
    """The partition as ``json.dumps(partition_to_dict(p), indent=2)`` writes it.

    Float repr is most of the cost, so each float object is spelled once:
    a boundary that is one cell's ``hi``, the next cell's ``lo`` and its
    tag (as the creep builds them) is one object, and it reuses one
    spelling.  Sharing is tested with ``is``, never ``==``, because
    ``-0.0 == 0.0`` and the two are spelled differently.
    """
    head = _json_fill(_PARTITION_HEAD, [(p.domain.lo, p.domain.hi)])[0]
    lo, hi, tag = p.lo, p.hi, p.tag
    if not lo:
        return _json_document(head, [])
    spell = _spelling(lo, hi, tag)
    s_lo, s_hi = _spelled_ends(lo, hi, spell)
    s_tag = [sl if t is l else sh if t is h else spell(t)
             for t, l, h, sl, sh in zip(tag, lo, hi, s_lo, s_hi)]
    return _json_rows(head, _CELL, [s_lo, s_hi, s_tag])


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

    Each cell must have finite endpoints in order, as :class:`Interval`
    requires; an error in a cell names its index.

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
    lo: list[float] = []
    hi: list[float] = []
    tag: list[float] = []
    for i, c in enumerate(cells):
        try:
            l = _require_number(c, "lo", "partition")
            h = _require_number(c, "hi", "partition")
            if not -math.inf < l <= h < math.inf:
                Interval(l, h)  # raises, with the message a domain gets
            t = _require_number(c, "tag", "partition")
        except ValueError as e:
            raise ValueError(f"cell {i}: {e}") from None
        lo.append(l)
        hi.append(h)
        tag.append(t)
    return TaggedPartition(domain, lo, hi, tag)


def partition_from_json(text: str) -> TaggedPartition:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed partition JSON: {e}") from None
    return partition_from_dict(data)
