import math
import random

import pytest
from hypothesis import given, strategies as st

from gaugekit.expr import (
    Add,
    Call,
    Div,
    EvalDomainError,
    ExprGauge,
    Lit,
    Mul,
    Neg,
    NotDifferentiableError,
    ParseError,
    Pow,
    Sub,
    Var,
    differentiate,
    eval_interval,
    evaluate,
    lipschitz_bound,
    parse,
    to_str,
)
from gaugekit.intervals import Interval


class TestParse:
    def test_sub_pow(self):
        assert parse("x^2 - 2") == Sub(Pow(Var(), 2), Lit(2.0))

    def test_unary_after_operator(self):
        assert parse("2*-x") == Mul(Lit(2.0), Neg(Var()))

    def test_unary_minus_binds_looser_than_pow(self):
        assert parse("-x^2") == Neg(Pow(Var(), 2))

    def test_left_assoc_structure(self):
        assert parse("x - 1 - 2") == Sub(Sub(Var(), Lit(1.0)), Lit(2.0))

    def test_precedence_mul_over_add(self):
        assert parse("1 + 2*x") == Add(Lit(1.0), Mul(Lit(2.0), Var()))

    def test_constants_fold(self):
        assert parse("pi") == Lit(math.pi)
        assert parse("e") == Lit(math.e)

    def test_negative_literal_folds(self):
        assert parse("-3") == Lit(-3.0)

    def test_functions(self):
        assert parse("min(x, 1)") == Call("min", (Var(), Lit(1.0)))
        assert parse("sin(x)") == Call("sin", (Var(),))

    def test_negative_exponent(self):
        assert parse("x^-2") == Pow(Var(), -2)

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as exc:
            parse("sin(x")
        assert exc.value.position == 5
        assert "')'" in exc.value.expected

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("x^2.5")

    def test_error_position_on_junk(self):
        with pytest.raises(ParseError) as exc:
            parse("x + $")
        assert exc.value.position == 4

    def test_min_needs_two_args(self):
        with pytest.raises(ParseError):
            parse("min(x)")


class TestEvaluate:
    def test_arithmetic(self):
        assert evaluate(parse("x^2 - 2"), 1.5) == 0.25

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x)"), 0.0)

    def test_min(self):
        assert evaluate(parse("min(x, 1)"), 3.0) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/x"), 0.0)

    def test_sqrt_negative(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(x)"), -1.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("x^-1"), 0.0)

    def test_overflow_is_domain_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("exp(x)"), 1e6)


class TestEvalInterval:
    def test_monotone_square(self):
        enc = eval_interval(parse("x^2"), Interval(1, 2))
        assert enc.lo <= 1.0 and 4.0 <= enc.hi
        assert enc.lo == pytest.approx(1.0, abs=1e-12)
        assert enc.hi == pytest.approx(4.0, abs=1e-12)

    def test_dependency_problem_accepted(self):
        enc = eval_interval(parse("x - x"), Interval(0, 1))
        assert enc.lo <= -1.0 and 1.0 <= enc.hi

    def test_sin_spanning_peak(self):
        enc = eval_interval(parse("sin(x)"), Interval(0.0, 3.2))
        assert enc.hi >= 1.0
        for x in [0.0, 0.5, 1.0, math.pi / 2, 2.0, 3.0, 3.2]:
            assert enc.lo <= math.sin(x) <= enc.hi

    def test_even_power_straddling_zero(self):
        enc = eval_interval(parse("x^2"), Interval(-2, 2))
        assert enc.lo == 0.0 and enc.hi >= 4.0

    def test_negative_power(self):
        enc = eval_interval(parse("x^-1"), Interval(2, 4))
        assert enc.lo <= 0.25 and 0.5 <= enc.hi
        with pytest.raises(EvalDomainError):
            eval_interval(parse("x^-1"), Interval(-1, 1))

    def test_log_needs_positive_interval(self):
        with pytest.raises(EvalDomainError):
            eval_interval(parse("log(x)"), Interval(0, 1))

    def test_min_max_elementwise(self):
        enc = eval_interval(parse("min(x, 1)"), Interval(0, 3))
        assert enc.lo <= 0.0 and enc.hi >= 1.0 and enc.hi < 1.5


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Lit(rng.uniform(-4.0, 4.0))
        return Var()
    choice = rng.randrange(8)
    if choice == 0:
        return Neg(_random_expr(rng, depth - 1))
    if choice == 1:
        return Add(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if choice == 2:
        return Sub(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if choice == 3:
        return Mul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if choice == 4:
        return Div(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if choice == 5:
        return Pow(_random_expr(rng, depth - 1), rng.randrange(-3, 6))
    if choice == 6:
        return Call(rng.choice(("sin", "cos", "abs")), (_random_expr(rng, depth - 1),))
    return Call(rng.choice(("min", "max")),
                (_random_expr(rng, depth - 1), _random_expr(rng, depth - 1)))


class TestEnclosureProperty:
    def test_random_triples_never_escape(self):
        rng = random.Random(20240811)
        checked = 0
        while checked < 300:
            e = _random_expr(rng, 3)
            lo = rng.uniform(-3.0, 3.0)
            iv = Interval(lo, lo + rng.uniform(1e-3, 2.0))
            x = rng.uniform(iv.lo, iv.hi)
            try:
                enc = eval_interval(e, iv)
                v = evaluate(e, x)
            except EvalDomainError:
                continue
            assert enc.lo <= v <= enc.hi, (to_str(e), iv, x)
            checked += 1


class TestDifferentiate:
    def test_sin(self):
        assert differentiate(parse("sin(x)")) == Call("cos", (Var(),))

    def test_power_rule(self):
        assert differentiate(parse("x^3")) == Mul(Lit(3.0), Pow(Var(), 2))

    def test_abs_rejected(self):
        with pytest.raises(NotDifferentiableError):
            differentiate(parse("abs(x)"))
        with pytest.raises(NotDifferentiableError):
            differentiate(parse("min(x, 1)"))

    @pytest.mark.parametrize("text", [
        "sin(x)", "cos(x)*x", "exp(x/4)", "x^3 - x", "x^2*sin(x)",
        "log(x + 3)", "sqrt(x + 2)", "(x + 2)/(x^2 + 1)",
        "x^5 - 2*x^3 + x - 7", "exp(sin(x))",
    ])
    def test_against_central_differences(self, text):
        e = parse(text)
        d = differentiate(e)
        h = 1e-6
        for i in range(41):
            x = -1.8 + i * 0.09
            exact = evaluate(d, x)
            approx = (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)
            assert abs(exact - approx) <= 1e-5 * (1.0 + abs(exact))


class TestLipschitzBound:
    def test_square_on_1_2(self):
        L = lipschitz_bound(parse("x^2"), Interval(1, 2))
        assert 4.0 <= L <= 4.0 * (1 + 1e-12)

    def test_sin_on_0_pi(self):
        L = lipschitz_bound(parse("sin(x)"), Interval(0.0, math.pi))
        assert 1.0 <= L <= 1.0 + 1e-12

    def test_cubic(self):
        L = lipschitz_bound(parse("x^3 - x"), Interval(-2, 2))
        assert 11.0 <= L <= 11.0 * 1.01

    def test_floor_keeps_positive(self):
        L = lipschitz_bound(parse("3"), Interval(0, 1))
        assert L > 0.0

    @pytest.mark.parametrize("text,lo,hi", [
        ("x^2", -1.5, 2.0), ("sin(x)*x", -3.0, 3.0), ("exp(x/3)", -2.0, 2.0),
        ("x^3 - x", -2.0, 2.0), ("1/(x + 5)", -2.0, 2.0),
    ])
    def test_validity_on_sampled_pairs(self, text, lo, hi):
        e = parse(text)
        iv = Interval(lo, hi)
        L = lipschitz_bound(e, iv)
        pts = [lo + k * (hi - lo) / 40 for k in range(41)]
        for i, x in enumerate(pts):
            for x2 in pts[i + 1:]:
                assert abs(evaluate(e, x) - evaluate(e, x2)) <= L * abs(x - x2)


# canonical AST strategy: no Neg(Lit), exponents are ints, finite literals
_lit = st.floats(-100.0, 100.0).map(lambda v: Lit(v))
_leaf = st.one_of(_lit, st.just(Var()))


def _extend(children):
    unary = children.flatmap(lambda a: st.one_of(
        st.just(Neg(a)) if not isinstance(a, Lit) else st.just(a),
        st.builds(Call, st.sampled_from(["sin", "cos", "abs"]), st.just((a,))),
        st.integers(-3, 5).map(lambda n: Pow(a, n)),
    ))
    binary = st.builds(
        lambda op, a, b: op(a, b),
        st.sampled_from([Add, Sub, Mul, Div]), children, children)
    call2 = st.builds(
        lambda fn, a, b: Call(fn, (a, b)),
        st.sampled_from(["min", "max"]), children, children)
    return st.one_of(unary, binary, call2)


_ast = st.recursive(_leaf, _extend, max_leaves=12)


class TestRoundTrip:
    @given(_ast)
    def test_parse_of_print_is_identity(self, e):
        assert parse(to_str(e)) == e

    def test_negative_zero_base_is_parenthesized(self):
        e = Pow(Lit(-0.0), 0)
        assert to_str(e) == "(-0.0)^0"
        assert parse(to_str(e)) == e


class TestExprGauge:
    def test_positive_evaluation(self):
        g = ExprGauge(parse("x/2 + 0.0001"))
        assert g(1.0) == pytest.approx(0.5001)

    def test_nonpositive_raises(self):
        from gaugekit.intervals import GaugeNonpositiveError
        g = ExprGauge(parse("x - 1"))
        with pytest.raises(GaugeNonpositiveError):
            g(0.5)
