import pytest

from gaugekit.induction import (
    Incompatible,
    InductionPolicy,
    LocalOracle,
    MalformedOracleError,
    StallDiagnostic,
    StallReason,
    Witness,
    combine_adjacent,
    run_induction,
    verify_witness,
)
from gaugekit.intervals import Interval

UNIT = Interval(0.0, 1.0)


def _leaf(lo, hi, payload=None):
    return Witness(Interval(lo, hi), payload)


def _fixed_step(step):
    def right(s):
        t = min(1.0, s + step)
        return t, _leaf(s, t)
    return right


def _shrinking(s):
    t = s + (1.0 - s) / 2.0
    if t <= s:
        return None
    return t, _leaf(s, t)


def _left_reach(reach):
    def left(s_star, hint):
        if hint < s_star and s_star - hint <= reach:
            return hint, _leaf(hint, s_star)
        return None
    return left


class TestSuccess:
    def test_fixed_step_four_steps(self):
        result = run_induction(LocalOracle(_fixed_step(0.3), combine_adjacent), UNIT)
        assert isinstance(result, Witness)
        assert result.interval == UNIT
        leaves = result.leaves
        assert len(leaves) == 4
        assert leaves[0].interval.lo == 0.0 and leaves[-1].interval.hi == 1.0

    def test_leaves_tile_domain(self):
        result = run_induction(LocalOracle(_fixed_step(0.17), combine_adjacent), UNIT)
        leaves = result.leaves
        for w1, w2 in zip(leaves, leaves[1:]):
            assert w1.interval.hi == w2.interval.lo
        assert verify_witness(result, UNIT, lambda leaf: True)

    def test_step_bound(self):
        # advancing by at least m succeeds within ceil(width / m) steps
        trace = []
        run_induction(LocalOracle(_fixed_step(0.09), combine_adjacent), UNIT,
                      trace=trace)
        assert len(trace) <= -(-1.0 // 0.09)

    def test_trace_records_committed_steps(self):
        trace = []
        run_induction(LocalOracle(_fixed_step(0.3), combine_adjacent), UNIT, trace=trace)
        assert trace == [(0.0, 0.3), (0.3, 0.6), (0.6, 0.8999999999999999),
                         (0.8999999999999999, 1.0)]


class TestStall:
    def test_shrinking_oracle_stalls(self):
        result = run_induction(LocalOracle(_shrinking, combine_adjacent), UNIT,
                               InductionPolicy(progress_eps=1e-6))
        assert isinstance(result, StallDiagnostic)
        assert result.reason is StallReason.PROGRESS_UNDERFLOW
        assert 1.0 - 1e-5 <= result.frontier < 1.0
        assert result.witness_so_far is not None
        assert result.witness_so_far.interval == Interval(0.0, result.frontier)

    def test_frontiers_strictly_increase(self):
        result = run_induction(LocalOracle(_shrinking, combine_adjacent), UNIT,
                               InductionPolicy(progress_eps=1e-6))
        history = result.step_history
        assert all(s < t for s, t in history)
        assert all(h1[1] == h2[0] for h1, h2 in zip(history, history[1:]))
        assert history[-1][1] == result.frontier

    def test_refusal_reported(self):
        def right(s):
            if s >= 0.5:
                return None
            t = min(1.0, s + 0.25)
            return t, _leaf(s, t)

        result = run_induction(LocalOracle(right, combine_adjacent), UNIT)
        assert isinstance(result, StallDiagnostic)
        assert result.reason is StallReason.ORACLE_REFUSED
        assert result.frontier == 0.5

    def test_cap_exceeded(self):
        result = run_induction(LocalOracle(_fixed_step(1e-4), combine_adjacent), UNIT,
                               InductionPolicy(max_steps=50))
        assert isinstance(result, StallDiagnostic)
        assert result.reason is StallReason.CAP_EXCEEDED

    def test_combine_incompatible_is_diagnostic(self):
        def combine(w1, w2):
            return Incompatible("parity flip")

        result = run_induction(LocalOracle(_fixed_step(0.3), combine), UNIT)
        assert isinstance(result, StallDiagnostic)
        assert result.reason is StallReason.COMBINE_INCOMPATIBLE
        assert result.incompatible.reason == "parity flip"
        assert result.frontier == 0.3  # first leaf committed fine


class TestLimitClosing:
    def test_closure_then_success(self):
        oracle = LocalOracle(_shrinking, combine_adjacent, _left_reach(0.25))
        result = run_induction(oracle, UNIT, InductionPolicy(progress_eps=1e-6))
        assert isinstance(result, Witness)
        assert result.interval == UNIT
        assert verify_witness(result, UNIT, lambda leaf: True)

    def test_closure_step_in_history(self):
        trace = []
        oracle = LocalOracle(_shrinking, combine_adjacent, _left_reach(0.25))
        result = run_induction(oracle, UNIT, InductionPolicy(progress_eps=1e-6),
                               trace=trace)
        assert isinstance(result, Witness)
        # last step is the closure: it jumps from the stalled frontier to 1.0
        s_last, t_last = trace[-1]
        assert t_last == 1.0
        assert 1.0 - 1e-5 <= s_last < 1.0

    def test_left_refusal_falls_back_to_stall(self):
        oracle = LocalOracle(_shrinking, combine_adjacent, _left_reach(1e-9))
        result = run_induction(oracle, UNIT, InductionPolicy(progress_eps=1e-6))
        assert isinstance(result, StallDiagnostic)
        assert result.reason is StallReason.PROGRESS_UNDERFLOW

    def test_closures_capped(self):
        # every step is slow, so each advance needs a closure; the cap stops it
        def crawl(s):
            t = min(1.0, s + 1e-9)
            return t, _leaf(s, t)

        oracle = LocalOracle(crawl, combine_adjacent, _left_reach(1.0))
        result = run_induction(oracle, UNIT,
                               InductionPolicy(progress_eps=1e-6, max_limit_closures=3,
                                               max_steps=10 ** 6))
        assert isinstance(result, StallDiagnostic)


class TestMalformedOracle:
    def test_backward_step(self):
        def right(s):
            return s - 0.1, _leaf(s - 0.1, s)

        with pytest.raises(MalformedOracleError):
            run_induction(LocalOracle(right, combine_adjacent), UNIT)

    def test_overshooting_step(self):
        def right(s):
            return 2.0, _leaf(s, 2.0)

        with pytest.raises(MalformedOracleError):
            run_induction(LocalOracle(right, combine_adjacent), UNIT)

    def test_wrong_witness_interval(self):
        def right(s):
            t = min(1.0, s + 0.3)
            return t, _leaf(s, t / 2 + s / 2)

        with pytest.raises(MalformedOracleError):
            run_induction(LocalOracle(right, combine_adjacent), UNIT)

    def test_degenerate_domain(self):
        with pytest.raises(ValueError):
            run_induction(LocalOracle(_fixed_step(0.3), combine_adjacent),
                          Interval(1, 1))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            InductionPolicy(progress_eps=0.0)
        with pytest.raises(ValueError):
            InductionPolicy(max_steps=0)


class TestVerifyWitness:
    def test_gap_between_children(self):
        bad = Witness(Interval(0, 1), None, (_leaf(0.0, 0.4), _leaf(0.5, 1.0)))
        assert not verify_witness(bad, UNIT, lambda leaf: True)

    def test_wrong_span(self):
        w = combine_adjacent(_leaf(0.0, 0.5), _leaf(0.5, 0.9))
        assert not verify_witness(w, UNIT, lambda leaf: True)

    def test_leaf_check_applied(self):
        w = combine_adjacent(_leaf(0.0, 0.5, "ok"), _leaf(0.5, 1.0, "bad"))
        assert verify_witness(w, UNIT, lambda leaf: leaf.payload == "ok") is False
        assert verify_witness(w, UNIT, lambda leaf: isinstance(leaf.payload, str))

    def test_children_must_match_parent(self):
        bad = Witness(Interval(0, 1), None, (_leaf(0.1, 0.5), _leaf(0.5, 1.0)))
        assert not verify_witness(bad, UNIT, lambda leaf: True)

    def test_deep_tree_iterative(self):
        result = run_induction(LocalOracle(_fixed_step(1e-4), combine_adjacent), UNIT)
        assert isinstance(result, Witness)
        assert verify_witness(result, UNIT, lambda leaf: True)
        # float accumulation may add one catch-up step at the end
        assert len(result.leaves) in (10_000, 10_001)


class TestFlatLeaves:
    def test_leaves_are_the_oracle_witnesses_in_order(self):
        returned = []

        def right(s):
            t, w = _fixed_step(0.17)(s)
            returned.append(w)
            return t, w

        result = run_induction(LocalOracle(right, combine_adjacent), UNIT)
        assert len(result.leaves) == len(returned)
        assert all(leaf is w for leaf, w in zip(result.leaves, returned))
        assert all(leaf.is_leaf for leaf in result.leaves)

    def test_combine_sees_each_adjacent_pair_once(self):
        calls = []

        def combine(w1, w2):
            calls.append((w1, w2))
            return "ignored"

        result = run_induction(LocalOracle(_fixed_step(0.17), combine), UNIT)
        leaves = result.leaves
        assert len(calls) == len(leaves) - 1
        assert all(c1 is w1 and c2 is w2
                   for (c1, c2), w1, w2 in zip(calls, leaves, leaves[1:]))

    def test_stall_history_is_the_trace(self):
        trace = []
        result = run_induction(LocalOracle(_shrinking, combine_adjacent), UNIT,
                               InductionPolicy(progress_eps=1e-6), trace=trace)
        assert isinstance(result, StallDiagnostic)
        assert list(result.step_history) == trace
        so_far = result.witness_so_far
        assert so_far.interval == Interval(0.0, result.frontier)
        assert verify_witness(so_far, Interval(0.0, result.frontier), lambda leaf: True)

    def test_incompatible_closure_keeps_frontier(self):
        def left(s_star, hint):
            return hint, _leaf(hint, s_star, "closure")

        def combine(w1, w2):
            return Incompatible("no closures") if w2.payload == "closure" else None

        trace = []
        result = run_induction(LocalOracle(_shrinking, combine, left), UNIT,
                               InductionPolicy(progress_eps=1e-6), trace=trace)
        assert isinstance(result, StallDiagnostic)
        assert result.reason is StallReason.COMBINE_INCOMPATIBLE
        assert result.incompatible.reason == "no closures"
        assert result.frontier == trace[-1][1] < 1.0
        assert 1.0 - 1e-5 <= result.frontier

    def test_combine_adjacent_flattens(self):
        a = combine_adjacent(_leaf(0.0, 0.25), _leaf(0.25, 0.5))
        b = combine_adjacent(_leaf(0.5, 0.75), _leaf(0.75, 1.0))
        w = combine_adjacent(a, b)
        assert w.leaves == a.leaves + b.leaves
        assert all(leaf.is_leaf for leaf in w.leaves)
        assert verify_witness(w, UNIT, lambda leaf: True)


class TestOpaqueLeaves:
    def test_combined_leaf_is_checked_whole(self):
        inner = Witness(Interval(0.5, 1.0), None, (_leaf(0.5, 0.7), _leaf(0.8, 1.0)))  # torn

        def right(s):
            return (0.5, _leaf(0.0, 0.5)) if s == 0.0 else (1.0, inner)

        result = run_induction(LocalOracle(right, combine_adjacent), UNIT)
        assert result.leaves[1] is inner
        seen = []
        assert verify_witness(result, UNIT, lambda leaf: seen.append(leaf) or True)
        assert len(seen) == 2 and seen[1] is inner

        def deep(leaf):
            return leaf.is_leaf or verify_witness(leaf, leaf.interval, deep)

        assert not verify_witness(result, UNIT, deep)
        gap = Witness(UNIT, None, (_leaf(0.0, 0.4), inner))
        assert not verify_witness(gap, UNIT, lambda leaf: True)

    def test_single_leaf_spans_its_interval(self):
        w = _leaf(0.0, 1.0, "ok")
        seen = []
        assert verify_witness(w, UNIT, lambda leaf: seen.append(leaf) or True)
        assert seen == [w]
        assert not verify_witness(w, UNIT, lambda leaf: leaf.payload == "bad")
        assert not verify_witness(w, Interval(0.0, 0.5), lambda leaf: True)
