"""Compiled evaluation against the tree walker it replaced.

``reference_evaluate`` walks the AST node by node with an ``isinstance``
dispatch at every node; ``expr.as_function`` compiles the AST once into
closures.  Both must do the same binary64 operations in the same order, so
their results agree bit for bit, and where they raise, the exception type,
message and ``.x`` agree too.
"""

import copy
import dataclasses
import math
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from gaugekit.expr import (
    Add,
    Call,
    Div,
    EvalDomainError,
    ExprGauge,
    Lit,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    as_function,
    evaluate,
    parse,
)


def _finite(v: float, x: float) -> float:
    if not math.isfinite(v):
        raise EvalDomainError("evaluation overflowed binary64", x)
    return v


def reference_evaluate(e, x: float) -> float:
    """The tree-walking evaluator: one ``isinstance`` dispatch per node."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -reference_evaluate(e.arg, x)
    if isinstance(e, Add):
        return _finite(reference_evaluate(e.left, x) + reference_evaluate(e.right, x), x)
    if isinstance(e, Sub):
        return _finite(reference_evaluate(e.left, x) - reference_evaluate(e.right, x), x)
    if isinstance(e, Mul):
        return _finite(reference_evaluate(e.left, x) * reference_evaluate(e.right, x), x)
    if isinstance(e, Div):
        denom = reference_evaluate(e.right, x)
        if denom == 0.0:
            raise EvalDomainError("division by zero", x)
        return _finite(reference_evaluate(e.left, x) / denom, x)
    if isinstance(e, Pow):
        base = reference_evaluate(e.base, x)
        if base == 0.0 and e.exponent < 0:
            raise EvalDomainError("zero raised to a negative power", x)
        try:
            return _finite(base ** e.exponent, x)
        except OverflowError:
            raise EvalDomainError("evaluation overflowed binary64", x) from None
    if isinstance(e, Call):
        args = [reference_evaluate(a, x) for a in e.args]
        fn = e.fn
        if fn == "sin":
            return math.sin(args[0])
        if fn == "cos":
            return math.cos(args[0])
        if fn == "exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                raise EvalDomainError("exp overflowed binary64", x) from None
        if fn == "log":
            if args[0] <= 0.0:
                raise EvalDomainError(f"log of nonpositive value {args[0]!r}", x)
            return math.log(args[0])
        if fn == "sqrt":
            if args[0] < 0.0:
                raise EvalDomainError(f"sqrt of negative value {args[0]!r}", x)
            return math.sqrt(args[0])
        if fn == "abs":
            return abs(args[0])
        if fn == "min":
            return min(args)
        if fn == "max":
            return max(args)
    raise TypeError(f"not an Expr node: {e!r}")


def _outcome(f, x):
    """``("value", bits)`` or ``("raised", type, message, x)``."""
    try:
        v = f(x)
    except (EvalDomainError, ValueError) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "x", None))
    return ("value", struct.pack("<d", v))


# Literals reach zero, huge magnitudes and infinity (``1e999`` parses to
# inf), and exponents reach overflow, so every domain check gets exercised.
_lit = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, math.inf]),
).map(Lit)
_leaf = st.one_of(_lit, st.just(Var()))


def _extend(children):
    unary = st.one_of(
        children.map(Neg),
        st.builds(lambda fn, a: Call(fn, (a,)),
                  st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), children),
        st.builds(Pow, children, st.one_of(st.integers(-3, 5), st.sampled_from([-400, 400]))),
    )
    binary = st.builds(lambda op, a, b: op(a, b),
                       st.sampled_from([Add, Sub, Mul, Div]), children, children)
    call2 = st.builds(lambda fn, a, b: Call(fn, (a, b)),
                      st.sampled_from(["min", "max"]), children, children)
    return st.one_of(unary, binary, call2)


_ast = st.recursive(_leaf, _extend, max_leaves=16)
_point = st.one_of(st.floats(-20.0, 20.0), st.floats(),
                   st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 710.0, -710.0]))


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(_ast, st.lists(_point, min_size=1, max_size=8))
    def test_bit_for_bit_including_errors(self, e, xs):
        f = as_function(e)
        for x in xs:
            want = _outcome(lambda x: reference_evaluate(e, x), x)
            assert _outcome(f, x) == want
            assert _outcome(lambda x: evaluate(e, x), x) == want

    @pytest.mark.parametrize("text", [
        "x^2-2", "sin(x)", "x*exp(-x)", "cos(3*x)+x/2", "exp(-x^2)*cos(2*x)",
        "sin(x)*exp(-x^2)+log(x+3)/sqrt(x+2)", "min(x, 1/x) - max(abs(x), x^-2)",
    ])
    def test_grid(self, text):
        e = parse(text)
        f = as_function(e)
        for k in range(-400, 401):
            x = k / 97
            assert _outcome(f, x) == _outcome(lambda x: reference_evaluate(e, x), x)

    def test_denominator_is_evaluated_first(self):
        with pytest.raises(EvalDomainError) as exc:
            as_function(parse("log(x-2)/log(x-3)"))(1.0)
        assert str(exc.value) == "log of nonpositive value -2.0 at x=1.0"
        assert exc.value.x == 1.0

    @pytest.mark.parametrize("text,x,message", [
        ("1/x", 0.0, "division by zero"),
        ("x^-1", -0.0, "zero raised to a negative power"),
        ("x^400", 10.0, "evaluation overflowed binary64"),
        ("x*x", 1e200, "evaluation overflowed binary64"),
        ("exp(x)", 1e6, "exp overflowed binary64"),
        ("sqrt(x)", -1.0, "sqrt of negative value -1.0"),
        ("log(x)", 0.0, "log of nonpositive value 0.0"),
    ])
    def test_domain_errors(self, text, x, message):
        with pytest.raises(EvalDomainError) as exc:
            as_function(parse(text))(x)
        assert str(exc.value) == f"{message} at x={x!r}"
        assert exc.value.x == x

    @pytest.mark.parametrize("node", [
        "x", Call("tan", (Var(),)), Call("sin", (Var(), Var())), Call("min", (Var(),)),
    ])
    def test_malformed_nodes_rejected_when_compiled(self, node):
        with pytest.raises(TypeError, match="not an Expr node"):
            as_function(node)


class _SubGauge(ExprGauge):
    pass


class TestExprGaugeCompiled:
    def test_fields_equality_hash_repr_see_only_the_ast(self):
        g, same, other = (ExprGauge(parse(t)) for t in ("x/2 + 1", "x/2 + 1", "x/2 + 2"))
        assert [f.name for f in dataclasses.fields(g)] == ["ast"]
        assert g == same and hash(g) == hash(same)
        assert g != other
        assert repr(g) == f"ExprGauge(ast={g.ast!r})"

    def test_replace_recompiles(self):
        g = ExprGauge(parse("x + 1"))
        h = dataclasses.replace(g, ast=parse("x + 2"))
        assert (g(1.0), h(1.0)) == (2.0, 3.0)

    def test_deepcopy(self):
        g = ExprGauge(parse("exp(-x^2) + 0.1"))
        h = copy.deepcopy(g)
        assert h == g
        assert h(0.3) == g(0.3)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        g = ExprGauge(parse("sqrt(x + 2) / 3"))
        h = pickle.loads(pickle.dumps(g, protocol))
        assert h == g
        assert h(0.7) == g(0.7)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["copy", "deepcopy", "pickle"])
    def test_subclass_survives_copy_and_pickle(self, clone):
        g = _SubGauge(parse("x + 1"))
        h = clone(g)
        assert type(h) is _SubGauge
        assert h == g and h(1.0) == 2.0

    def test_domain_error_carries_the_point(self):
        with pytest.raises(EvalDomainError) as exc:
            ExprGauge(parse("log(x)"))(-1.0)
        assert exc.value.x == -1.0
