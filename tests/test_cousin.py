import math
import random
from fractions import Fraction

import pytest

from gaugekit.cousin import (
    DepthExceeded,
    PartitionFailure,
    PartitionStrategy,
    Stall,
    StrategyKind,
    bisect_partition,
    creep_partition,
    fine_partition,
)
from gaugekit.intervals import (
    ConstantGauge,
    GaugeNonpositiveError,
    Interval,
    OpaqueGauge,
    PiecewiseConstantGauge,
    TaggedInterval,
    TaggedPartition,
    is_delta_fine,
    validate_partition,
)


def _assert_sound(p, gauge):
    assert isinstance(p, TaggedPartition)
    assert validate_partition(p).ok
    assert is_delta_fine(p, gauge).fine


def _simulate_creep_count(a, b, h):
    # independent replay of the stated step rule, counting cells only
    s, n = a, 0
    while b - s > h:
        t = min(b, s + h)
        n += 1
        if t == b:
            return n
        s = t
    return n + 1


class TestCreep:
    def test_constant_03_cells(self):
        g = ConstantGauge(0.3)
        p = creep_partition(g, Interval(0, 1))
        _assert_sound(p, g)
        assert [ti.tag for ti in p.cells] == [0.0, 0.3, 0.6, 1.0]
        assert len(p.cells) == 4
        assert p.cells[0].cell == Interval(0.0, 0.3)
        assert p.cells[-1].cell.hi == 1.0

    def test_lookahead_single_cell(self):
        g = ConstantGauge(2.0)
        p = creep_partition(g, Interval(0, 1))
        _assert_sound(p, g)
        assert len(p.cells) == 1
        assert p.cells[0].tag == 1.0

    def test_vanishing_gauge_needs_lookahead(self):
        g = OpaqueGauge(lambda x: (1.0 - x) / 2.0 if x < 1.0 else 0.25)
        p = creep_partition(g, Interval(0, 1))
        _assert_sound(p, g)
        assert [(ti.cell.lo, ti.cell.hi, ti.tag) for ti in p.cells] == [
            (0.0, 0.5, 0.0), (0.5, 0.75, 0.5), (0.75, 1.0, 1.0)]

    def test_stall_on_cell_budget(self):
        result = creep_partition(ConstantGauge(1e-6), Interval(0, 1), max_cells=100)
        assert isinstance(result, Stall)
        assert len(result.cells_so_far) == 100
        assert 0.0 < result.frontier < 1.0

    def test_final_cell_counts_against_the_cap(self):
        # const 0.1 needs 11 cells on [0, 1], the last one the final-cell
        # lookahead; a cap of 10 must stall with 10, not emit 11
        g = ConstantGauge(0.1)
        result = creep_partition(g, Interval(0, 1), max_cells=10)
        assert isinstance(result, Stall)
        assert len(result.lo) == len(result.cells_so_far) == 10
        assert result.frontier == result.hi[-1] == 0.9999999999999999
        p = creep_partition(g, Interval(0, 1), max_cells=11)
        _assert_sound(p, g)
        assert len(p) == 11 and p.tag[-1] == 1.0

    @pytest.mark.parametrize("gauge", [ConstantGauge(0.1), ConstantGauge(0.3),
                                       OpaqueGauge(lambda x: (1.0 - x) / 2.0 if x < 1.0 else 0.25)])
    def test_cap_is_never_exceeded(self, gauge):
        for cap in range(1, 16):
            for result in (creep_partition(gauge, Interval(0, 1), max_cells=cap),
                           bisect_partition(gauge, Interval(0, 1), max_cells=cap)):
                if isinstance(result, TaggedPartition):
                    assert len(result) <= cap
                elif isinstance(result, Stall):
                    assert len(result.cells_so_far) <= cap

    def test_stall_columns(self):
        result = creep_partition(ConstantGauge(0.25), Interval(0, 1), max_cells=2)
        assert isinstance(result, Stall)
        assert (result.lo, result.hi, result.tag) == ((0.0, 0.25), (0.25, 0.5), (0.0, 0.25))
        assert result.cells_so_far == (TaggedInterval(Interval(0.0, 0.25), 0.0),
                                       TaggedInterval(Interval(0.25, 0.5), 0.25))
        assert result.frontier == 0.5

    def test_stall_on_underflow(self):
        # step so small that s + delta(s) == s in binary64
        result = creep_partition(OpaqueGauge(lambda x: 1e-300), Interval(0.5, 1))
        assert isinstance(result, Stall)
        assert result.frontier == 0.5
        assert result.cells_so_far == ()

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            creep_partition(ConstantGauge(1.0), Interval(1, 1))

    def test_gauge_nonpositive_surfaces(self):
        with pytest.raises(GaugeNonpositiveError):
            creep_partition(OpaqueGauge(lambda x: -1.0), Interval(0, 1))

    def test_count_formula_on_exact_grid(self):
        # dyadic gauges and widths: the float walk is exact arithmetic,
        # so the count must equal the ceiling formula exactly
        pairs = []
        h_values = [m * 2.0 ** -e for e in range(1, 6) for m in (1, 3, 5, 7)
                    if m * 2.0 ** -e <= 1.0]
        multiples = (0.5, 1.0, 1.25, 1.5, 2.0, 2.25, 3.0, 4.75, 5.0, 6.5, 7.75,
                     8.0, 11.0, 13.25)
        anchors = (0.0, -1.5, 2.25)
        for i, h in enumerate(h_values):
            for m in multiples:
                a = anchors[i % len(anchors)]
                pairs.append((a, a + m * h, h))
        assert len(pairs) >= 200
        for a, b, h in pairs:
            g = ConstantGauge(h)
            p = creep_partition(g, Interval(a, b))
            _assert_sound(p, g)
            expected = max(1, math.ceil(Fraction(b - a) / Fraction(h)))
            assert len(p.cells) == expected, (a, b, h)
            assert _simulate_creep_count(a, b, h) == expected, (a, b, h)


class TestBisect:
    def test_constant_quarter(self):
        g = ConstantGauge(0.25)
        p = bisect_partition(g, Interval(0, 1))
        _assert_sound(p, g)
        assert [(ti.cell.lo, ti.cell.hi, ti.tag) for ti in p.cells] == [
            (0.0, 0.25, 0.0), (0.25, 0.5, 0.25), (0.5, 0.75, 0.5), (0.75, 1.0, 0.75)]

    def test_forced_first_tag(self):
        g = OpaqueGauge(lambda x: 0.1 if x == 0.0 else x / 2.0)
        p = bisect_partition(g, Interval(0, 1))
        _assert_sound(p, g)
        assert p.cells[0].tag == 0.0

    def test_adversarial_depth_exceeded(self):
        result = bisect_partition(OpaqueGauge(lambda x: 2.0 ** -60), Interval(0, 1),
                                  max_depth=10)
        assert isinstance(result, DepthExceeded)
        assert result.deepest_cell.width == pytest.approx(2.0 ** -10)

    def test_cell_budget(self):
        result = bisect_partition(ConstantGauge(1e-3), Interval(0, 1), max_cells=16)
        assert isinstance(result, DepthExceeded)

    def test_power_of_two_widths(self):
        p = bisect_partition(ConstantGauge(0.3), Interval(0, 1))
        _assert_sound(p, ConstantGauge(0.3))
        for ti in p.cells:
            frac = Fraction(ti.cell.hi - ti.cell.lo)
            assert frac.numerator == 1 and (frac.denominator & (frac.denominator - 1)) == 0


class TestFinePartition:
    def test_hybrid_matches_creep(self):
        g = ConstantGauge(0.3)
        p = fine_partition(g, Interval(0, 1), PartitionStrategy(StrategyKind.HYBRID))
        q = creep_partition(g, Interval(0, 1))
        assert p == q

    def test_bisection_strategy(self):
        g = ConstantGauge(0.3)
        p = fine_partition(g, Interval(0, 1), PartitionStrategy(StrategyKind.BISECTION))
        _assert_sound(p, g)

    def test_degenerate_domain(self):
        with pytest.raises(ValueError):
            fine_partition(ConstantGauge(1.0), Interval(1, 1))

    def test_hybrid_falls_back_to_bisection(self):
        # creep underflows immediately at 0, but the gauge is generous
        # elsewhere; bisection covers the domain
        def delta(x):
            return 1e-300 if x == 0.0 else 1.0

        g = OpaqueGauge(delta)
        p = fine_partition(g, Interval(0, 1), PartitionStrategy(StrategyKind.HYBRID))
        assert isinstance(p, TaggedPartition)
        _assert_sound(p, g)

    def test_failure_aggregates_diagnostics(self):
        g = OpaqueGauge(lambda x: 2.0 ** -60)
        result = fine_partition(g, Interval(0, 1),
                                PartitionStrategy(StrategyKind.HYBRID,
                                                  max_cells=50, max_depth=8))
        assert isinstance(result, PartitionFailure)
        assert isinstance(result.stall, Stall)
        assert isinstance(result.depth_exceeded, DepthExceeded)

    def test_caps_must_be_positive(self):
        with pytest.raises(ValueError):
            PartitionStrategy(max_cells=0)


class TestTermination:
    def test_bounded_below_gauge_step_count(self):
        # a gauge with positive lower bound m finishes within
        # ceil(width / m) + 1 cells
        rng = random.Random(31)
        for _ in range(50):
            m = rng.uniform(0.01, 0.2)
            bps = sorted(rng.uniform(0.0, 1.0) for _ in range(3))
            vals = tuple(rng.uniform(m, 0.5) for _ in bps)
            g = PiecewiseConstantGauge(tuple(bps), vals)
            p = creep_partition(g, Interval(0, 1))
            assert isinstance(p, TaggedPartition)
            assert len(p.cells) <= math.ceil(1.0 / m) + 1


class TestRandomizedSoundness:
    def test_random_piecewise_gauges(self):
        rng = random.Random(7)
        for _ in range(150):
            a = rng.uniform(-5.0, 5.0)
            width = rng.uniform(0.05, 10.0)
            dom = Interval(a, a + width)
            n_bp = rng.randint(1, 8)
            bps = sorted(rng.uniform(dom.lo, dom.hi) for _ in range(n_bp))
            while len(set(bps)) != len(bps):
                bps = sorted(rng.uniform(dom.lo, dom.hi) for _ in range(n_bp))
            vals = [rng.uniform(1e-3, 0.5) for _ in bps]
            g = PiecewiseConstantGauge(tuple(bps), tuple(vals))
            p = fine_partition(g, dom)
            _assert_sound(p, g)
