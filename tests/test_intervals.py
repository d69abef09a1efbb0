import json
import math

import pytest
from hypothesis import given, strategies as st

from gaugekit.intervals import (
    ConstantGauge,
    DomainMismatchError,
    GaugeNonpositiveError,
    Interval,
    OpaqueGauge,
    PiecewiseConstantGauge,
    TaggedInterval,
    TaggedPartition,
    as_gauge,
    concat,
    is_delta_fine,
    partition_from_json,
    partition_to_dict,
    partition_to_json,
    validate_partition,
)


def _partition(domain, cells):
    return TaggedPartition(Interval(*domain),
                           tuple(TaggedInterval(Interval(lo, hi), tag) for lo, hi, tag in cells))


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
        report = validate_partition(TaggedPartition(Interval(0, 1), ()))
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
        empty = TaggedPartition(Interval(0.5, 1.0), ())
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
        p = TaggedPartition(Interval(-1.0, 1.0),
                            tuple(TaggedInterval(Interval(min(lo, hi), max(lo, hi)), tag)
                                  for lo, hi, tag in cells))
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
