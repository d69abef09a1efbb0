import json
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from gaugekit import intervals
from gaugekit.cousin import creep_partition
from gaugekit.intervals import (
    ConstantGauge,
    DomainMismatchError,
    FinenessReport,
    GaugeNonpositiveError,
    Interval,
    OpaqueGauge,
    PiecewiseConstantGauge,
    TaggedInterval,
    TaggedPartition,
    ValidationReport,
    Violation,
    as_gauge,
    concat,
    is_delta_fine,
    partition_from_dict,
    partition_from_json,
    partition_to_dict,
    partition_to_json,
    validate_partition,
)


def _partition(domain, cells):
    lo, hi, tag = ([float(c[k]) for c in cells] for k in range(3))
    return TaggedPartition(Interval(*domain), lo, hi, tag)


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_degenerate_allowed(self):
        iv = Interval(2.0, 2.0)
        assert iv.width == 0.0 and iv.contains(2.0)


class TestGauges:
    def test_constant_positive_only(self):
        with pytest.raises(ValueError):
            ConstantGauge(0.0)
        with pytest.raises(ValueError):
            ConstantGauge(-1.0)

    def test_opaque_checked_pointwise(self):
        g = OpaqueGauge(lambda x: x)  # nonpositive at 0
        assert g(2.0) == 2.0
        with pytest.raises(GaugeNonpositiveError):
            g(0.0)

    def test_piecewise_right_continuous(self):
        g = PiecewiseConstantGauge((0.0, 1.0, 2.0), (0.5, 0.25, 0.125))
        assert g(0.0) == 0.5
        assert g(0.999) == 0.5
        assert g(1.0) == 0.25  # segment [1, 2) starts here
        assert g(2.0) == 0.125  # last breakpoint maps to last value
        assert g(5.0) == 0.125
        assert g(-3.0) == 0.5  # below first breakpoint clamps to first value

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantGauge((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            PiecewiseConstantGauge((0.0, 1.0), (1.0, -1.0))
        with pytest.raises(ValueError):
            PiecewiseConstantGauge((), ())

    def test_as_gauge_coercions(self):
        assert isinstance(as_gauge(0.5), ConstantGauge)
        assert isinstance(as_gauge(lambda x: 1.0), OpaqueGauge)
        g = ConstantGauge(1.0)
        assert as_gauge(g) is g


class TestValidatePartition:
    def test_single_cell_identity(self):
        p = _partition((0, 1), [(0, 1, 0.5)])
        assert validate_partition(p).ok

    def test_overlap_breaks_contiguity(self):
        p = _partition((0, 1), [(0, 0.6, 0.2), (0.5, 1, 0.9)])
        report = validate_partition(p)
        assert not report.ok
        assert any(v.kind == "contiguity" and v.index == 0 for v in report.violations)

    def test_tag_outside_cell(self):
        p = _partition((0, 1), [(0, 0.5, 0.7), (0.5, 1, 0.75)])
        report = validate_partition(p)
        assert [v.kind for v in report.violations] == ["tag"]
        assert report.violations[0].index == 0

    def test_empty_partition(self):
        report = validate_partition(TaggedPartition(Interval(0, 1), (), (), ()))
        assert [v.kind for v in report.violations] == ["empty"]

    def test_endpoint_mismatch_and_degenerate(self):
        p = _partition((0, 1), [(0.1, 0.5, 0.2), (0.5, 0.5, 0.5)])
        kinds = {v.kind for v in validate_partition(p).violations}
        assert kinds == {"endpoint", "degenerate"}


class TestIsDeltaFine:
    def test_single_cell_tagged_at_right_endpoint(self):
        # tag s with delta(s) >= s - r makes [r, s] fine on its own
        p = _partition((0, 1), [(0, 1, 1)])
        assert is_delta_fine(p, ConstantGauge(1.0)).fine

    def test_equality_margins_are_fine(self):
        p = _partition((0, 1), [(0, 0.5, 0.25), (0.5, 1, 0.75)])
        assert is_delta_fine(p, ConstantGauge(0.25)).fine

    def test_first_violation_and_margin(self):
        p = _partition((0, 1), [(0, 0.5, 0.25), (0.5, 1, 0.75)])
        report = is_delta_fine(p, ConstantGauge(0.2))
        assert not report.fine
        assert report.first_violation == 0
        assert report.margin == pytest.approx(0.05)

    def test_gauge_nonpositive_at_tag(self):
        p = _partition((0, 1), [(0, 1, 0.5)])
        with pytest.raises(GaugeNonpositiveError):
            is_delta_fine(p, OpaqueGauge(lambda x: 0.0))

    @given(st.floats(0.01, 0.5), st.floats(0.0, 2.0))
    def test_monotone_in_gauge(self, small, extra):
        p = _partition((0, 1), [(0, 0.5, 0.25), (0.5, 1, 0.75)])
        if is_delta_fine(p, ConstantGauge(small)).fine:
            assert is_delta_fine(p, ConstantGauge(small + extra)).fine


class TestConcat:
    def test_joins_matching_domains(self):
        p1 = _partition((0, 0.5), [(0, 0.5, 0.25)])
        p2 = _partition((0.5, 1), [(0.5, 0.75, 0.6), (0.75, 1, 0.9)])
        joined = concat(p1, p2)
        assert joined.domain == Interval(0, 1)
        assert len(joined.cells) == 3
        assert validate_partition(joined).ok

    def test_junction_mismatch(self):
        p1 = _partition((0, 0.5), [(0, 0.5, 0.25)])
        p2 = _partition((0.6, 1), [(0.6, 1, 0.8)])
        with pytest.raises(DomainMismatchError):
            concat(p1, p2)

    def test_empty_input_rejected(self):
        p1 = _partition((0, 0.5), [(0, 0.5, 0.25)])
        empty = TaggedPartition(Interval(0.5, 1.0), (), (), ())
        with pytest.raises(ValueError):
            concat(p1, empty)

    @given(st.floats(0.05, 0.5), st.floats(0.05, 0.5))
    def test_preserves_validity_and_fineness(self, d1, d2):
        g = ConstantGauge(max(d1, d2))
        p1 = _partition((0, 0.5), [(0, 0.5, 0.25)])
        p2 = _partition((0.5, 1), [(0.5, 1, 0.75)])
        if is_delta_fine(p1, g).fine and is_delta_fine(p2, g).fine:
            joined = concat(p1, p2)
            assert validate_partition(joined).ok
            assert is_delta_fine(joined, g).fine


class TestJsonRoundTrip:
    def test_bit_exact(self):
        awkward = [(0.0, 0.1, 0.05), (0.1, 1.0 / 3.0, 0.2),
                   (1.0 / 3.0, 0.8999999999999999, 0.5), (0.8999999999999999, 1.0, 1.0)]
        p = _partition((0, 1), awkward)
        back = partition_from_json(partition_to_json(p))
        assert back == p

    def test_schema_shape(self):
        p = _partition((0, 1), [(0, 1, 0.5)])
        data = json.loads(partition_to_json(p))
        assert set(data) == {"domain", "cells"}
        assert set(data["domain"]) == {"lo", "hi"}
        assert set(data["cells"][0]) == {"lo", "hi", "tag"}

    @pytest.mark.parametrize("cells", [
        [],
        [(-0.0, 5e-324, 0.0)],
        [(0.0, 0.1, 0.1), (0.1, 1e16, 1e16), (1e16, 1e22, 1e22)],
        [(-1e300, -1.5, -2.5e-310), (-1.5, 3, 2)],
    ])
    def test_writer_matches_json_dumps(self, cells):
        domain = (cells[0][0], cells[-1][1]) if cells else (0.0, 1.0)
        p = _partition(domain, cells)
        assert partition_to_json(p) == json.dumps(partition_to_dict(p), indent=2)

    @pytest.mark.parametrize("tag", [math.nan, math.inf, -math.inf])
    def test_writer_spells_nonfinite_tags_like_json(self, tag):
        p = _partition((0, 2), [(0, 1, 0.5), (1, 2, tag)])
        text = partition_to_json(p)
        assert text == json.dumps(partition_to_dict(p), indent=2)
        back = partition_from_json(text)
        assert back.cells[0] == p.cells[0] and repr(back.cells[1].tag) == repr(tag)

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=8))
    def test_writer_matches_json_dumps_on_random_floats(self, cells):
        # the writer never checks the partition, so unordered cells are fine here
        p = _partition((-1.0, 1.0), [(min(lo, hi), max(lo, hi), tag) for lo, hi, tag in cells])
        assert partition_to_json(p) == json.dumps(partition_to_dict(p), indent=2)

    @pytest.mark.parametrize("text", [
        "[]",
        "{}",
        '{"domain": {"lo": 0}, "cells": []}',
        '{"domain": {"lo": 0, "hi": 1}, "cells": [{"lo": 0, "hi": 1}]}',
        '{"domain": {"lo": 0, "hi": 1}, "cells": [{"lo": 0, "hi": 1, "tag": "x"}]}',
        "not json",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            partition_from_json(text)


class TestColumns:
    def test_columns_must_have_equal_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            TaggedPartition(Interval(0, 1), (0.0,), (1.0,), ())

    def test_cells_view(self):
        p = _partition((0, 1), [(0, 0.5, 0.25), (0.5, 1, 1)])
        assert len(p) == 2
        assert p.cells == (TaggedInterval(Interval(0.0, 0.5), 0.25),
                           TaggedInterval(Interval(0.5, 1.0), 1.0))

    def test_concat_joins_columns(self):
        p = concat(_partition((0, 0.5), [(0, 0.5, 0.25)]),
                   _partition((0.5, 1), [(0.5, 1, 0.75)]))
        assert (p.lo, p.hi, p.tag) == ((0.0, 0.5), (0.5, 1.0), (0.25, 0.75))


class TestNanOvershoot:
    # max(x, nan) is x and nan > 0.0 is False, so a NaN overshoot must be
    # caught by asking for <= 0.0 on both sides

    @pytest.mark.parametrize("tag, delta", [
        (math.nan, 0.1),
        (math.inf, math.inf),
        (-math.inf, math.inf),
    ])
    def test_nan_overshoot_is_a_violation(self, tag, delta):
        p = _partition((0, 2), [(0, 0.1, 0.05), (0.1, 2, tag)])
        report = is_delta_fine(p, ConstantGauge(delta))
        assert report == FinenessReport(False, 1, None)

    def test_positive_overshoot_keeps_its_margin(self):
        p = _partition((0, 2), [(0, 1, math.inf)])
        report = is_delta_fine(p, ConstantGauge(1.0))
        assert report == FinenessReport(False, 0, math.inf)


# --- the object-walking checkers and writer the columns replaced -------------


def reference_validate_partition(p):
    out = []
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


def reference_is_delta_fine(p, gauge):
    g = as_gauge(gauge)
    for i, ti in enumerate(p.cells):
        delta = g(ti.tag)
        lo_overshoot = (ti.tag - delta) - ti.cell.lo
        hi_overshoot = ti.cell.hi - (ti.tag + delta)
        if math.isnan(lo_overshoot) or math.isnan(hi_overshoot):
            return FinenessReport(False, i, None)
        margin = max(lo_overshoot, hi_overshoot)
        if margin > 0.0:
            return FinenessReport(False, i, margin)
    return FinenessReport(True)


def reference_partition_to_json(p):
    def fill(template, rows):
        values = [v for row in rows for v in row]
        if all(type(v) is float and math.isfinite(v) for v in values):
            return [template % row for row in rows]
        return [template % tuple(map(json.dumps, row)) for row in rows]

    head = fill('{\n  "domain": {\n    "lo": %s,\n    "hi": %s\n  },\n  "cells": [',
                [(p.domain.lo, p.domain.hi)])[0]
    cells = fill('    {\n      "lo": %s,\n      "hi": %s,\n      "tag": %s\n    }',
                 [(ti.cell.lo, ti.cell.hi, ti.tag) for ti in p.cells])
    if not cells:
        return head + "]\n}"
    return head + "\n" + ",\n".join(cells) + "\n  ]\n}"


def _distinct(x: float) -> float:
    """A float object equal to ``x`` (bit for bit) but not ``x`` itself."""
    y = struct.unpack("<d", struct.pack("<d", x))[0]
    assert y is not x
    return y


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
_points = st.one_of(st.sampled_from([0.0, -0.0]), _finite_floats)
_joints = st.sampled_from(["shared", "distinct", "signed_zero", "gap"])
_tag_kinds = st.sampled_from(["lo", "hi", "inside", "outside", "nan", "inf", "-inf"])


@st.composite
def columnar_partitions(draw):
    """Partitions in columns, tilings broken or not: at each junction the
    next cell starts at the same float object, at an equal but distinct
    object, at the other zero of a -0.0/0.0 pair, or at another point (a
    gap or an overlap).  Tags are an end (the same object), a point inside
    or outside the cell, NaN or an infinity.  Endpoints stay finite and
    ordered within a cell, as the ``cells`` view requires."""
    n = draw(st.integers(0, 6))
    points = sorted(draw(st.lists(_points, min_size=n + 1, max_size=n + 1)))
    lo, hi, tag = [], [], []
    start = points[0]
    for k in range(n):
        end = max(start, points[k + 1])
        lo.append(start)
        hi.append(end)
        tag.append({"lo": start, "hi": end, "inside": 0.5 * start + 0.5 * end,
                    "outside": end + abs(end) + 1.0, "nan": math.nan,
                    "inf": math.inf, "-inf": -math.inf}[draw(_tag_kinds)])
        joint = draw(_joints)
        if joint == "shared":
            start = end
        elif joint == "distinct":
            start = _distinct(end)
        elif joint == "signed_zero":
            start = -end if end == 0.0 else end
        else:
            start = draw(_finite_floats)
    domain = draw(st.sampled_from([(points[0], points[-1]), (-1.0, 1.0), (-0.0, 0.0)]))
    return TaggedPartition(Interval(*domain), lo, hi, tag)


_deltas = st.one_of(st.floats(min_value=5e-324),
                    st.sampled_from([1e-300, 0.5, math.inf, 0.0, -1.0, math.nan]))


class TestAgainstReference:
    @settings(max_examples=400)
    @given(columnar_partitions())
    def test_validate_partition(self, p):
        assert validate_partition(p) == reference_validate_partition(p)

    @settings(max_examples=400)
    @given(columnar_partitions(), _deltas)
    def test_is_delta_fine(self, p, delta):
        def run(check):
            calls = []

            def g(x):
                calls.append(x)
                return delta

            try:
                out = check(p, OpaqueGauge(g))
            except GaugeNonpositiveError as e:
                out = ("raised", str(e))
            return out, len(calls)

        assert run(is_delta_fine) == run(reference_is_delta_fine)

    @settings(max_examples=400)
    @given(columnar_partitions())
    def test_partition_to_json(self, p):
        text = partition_to_json(p)
        assert text == reference_partition_to_json(p)
        assert text == json.dumps(partition_to_dict(p), indent=2)

    @given(st.lists(st.fixed_dictionaries({
        "lo": st.one_of(st.integers(-10**6, 10**6), _finite_floats),
        "hi": st.one_of(st.integers(-10**6, 10**6), _finite_floats),
        "tag": st.one_of(st.integers(-10**20, 10**20), st.floats())}), max_size=6))
    def test_parsed_int_and_nonfinite_tags(self, cells):
        for c in cells:
            c["lo"], c["hi"] = sorted((c["lo"], c["hi"]))
        p = partition_from_dict({"domain": {"lo": -1, "hi": 1}, "cells": cells})
        assert p.cells == tuple(TaggedInterval(Interval(c["lo"], c["hi"]), c["tag"])
                                for c in cells)
        assert all(type(v) is float for v in p.lo + p.hi + p.tag)
        assert partition_to_json(p) == reference_partition_to_json(p)
        assert validate_partition(p) == reference_validate_partition(p)

    def test_shared_boundaries_are_spelled_once(self, monkeypatch):
        p = creep_partition(ConstantGauge(0.1), Interval(0, 1))
        spelled = []

        def counting_repr(x):
            spelled.append(x)
            return float.__repr__(x)

        monkeypatch.setattr(intervals, "repr", counting_repr, raising=False)
        text = partition_to_json(p)
        monkeypatch.undo()
        assert text == reference_partition_to_json(p)
        # each of the creep's 12 boundaries once (the head spells the domain
        # with %s)
        assert len(spelled) == len(p) + 1

    def test_creep_round_trip_of_100001_cells(self):
        p = creep_partition(ConstantGauge(1e-5), Interval(0, 1))
        assert isinstance(p, TaggedPartition) and len(p) == 100_001
        text = partition_to_json(p)
        assert text == reference_partition_to_json(p)
        assert partition_to_json(partition_from_json(text)) == text
