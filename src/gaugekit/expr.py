"""Small math-expression language for functions and gauges of one variable.

Supports literals, the variable ``x``, the constants ``pi`` and ``e``
(folded to literals at parse time), ``+ - * / ^`` with integer-literal
exponents, unary minus, and the functions ``sin cos exp log sqrt abs min
max``.  Besides plain evaluation the module provides interval-arithmetic
enclosures (outward-rounded by one ulp per operation), symbolic
differentiation, and derivative-based Lipschitz bounds.

Grammar (EBNF, whitespace-insensitive)::

    expr     = term , { ("+" | "-") , term } ;
    term     = unary , { ("*" | "/") , unary } ;
    unary    = "-" , unary | power ;
    power    = atom , [ "^" , [ "-" ] , INTEGER ] ;
    atom     = NUMBER | "pi" | "e" | "x"
             | FUNC1 , "(" , expr , ")"
             | FUNC2 , "(" , expr , "," , expr , ")"
             | "(" , expr , ")" ;
    FUNC1    = "sin" | "cos" | "exp" | "log" | "sqrt" | "abs" ;
    FUNC2    = "min" | "max" ;
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from math import isfinite
from typing import Callable

from .errors import GaugekitError
from .intervals import Gauge, Interval


class ParseError(GaugekitError):
    """Syntax error; ``position`` points at the first offending character."""

    def __init__(self, position: int, expected: str, found: str = ""):
        at = f" (found {found!r})" if found else ""
        super().__init__(f"parse error at position {position}: expected {expected}{at}")
        self.position = position
        self.expected = expected


class EvalDomainError(GaugekitError):
    """Evaluation left the natural domain (log of a nonpositive, etc.)."""

    def __init__(self, message: str, x: float | None = None):
        where = f" at x={x!r}" if x is not None else ""
        super().__init__(message + where)
        self.x = x


class NotDifferentiableError(GaugekitError):
    """The expression contains abs/min/max, which are rejected."""


# --- AST --------------------------------------------------------------------


class Expr:
    """Base class of expression nodes; all nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Lit(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    pass


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int  # integer literals only


@dataclass(frozen=True, slots=True)
class Call(Expr):
    fn: str
    args: tuple[Expr, ...]


_FUNCS_1 = ("sin", "cos", "exp", "log", "sqrt", "abs")
_FUNCS_2 = ("min", "max")
_CONSTANTS = {"pi": math.pi, "e": math.e}


# --- Parser -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, "a number, name, or operator", text[pos])
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(pos, f"{op!r}", value)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(pos, "end of input", value)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            arg = self.unary()
            if isinstance(arg, Lit):  # canonical form: negative literals fold
                return Lit(-arg.value)
            return Neg(arg)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, pos = self.peek()
        if kind != "num" or any(c in value for c in ".eE"):
            raise ParseError(pos, "an integer exponent", value)
        self.advance()
        return sign * int(value)

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Lit(float(value))
        if kind == "name":
            if value == "x":
                return Var()
            if value in _CONSTANTS:
                return Lit(_CONSTANTS[value])
            if value in _FUNCS_1:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, (arg,))
            if value in _FUNCS_2:
                self.expect_op("(")
                a = self.expr()
                self.expect_op(",")
                b = self.expr()
                self.expect_op(")")
                return Call(value, (a, b))
            raise ParseError(pos, "x, pi, e, or a function name", value)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(pos, "a number, name, or '('", value)


def parse(text: str) -> Expr:
    """Parse ``text`` into an AST.

    Raises:
        ParseError: with the position of the first offending character.
    """
    return _Parser(text).parse()


# --- Pretty printer ---------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Lit) and math.copysign(1.0, e.value) < 0:
        return _PREC_NEG  # prints with a leading minus
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def to_str(e: Expr) -> str:
    """Render an AST so that ``parse(to_str(e)) == e`` for canonical ASTs."""

    def wrap(child: Expr, minimum: int) -> str:
        s = to_str(child)
        return f"({s})" if _prec(child) < minimum else s

    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        return "-" + wrap(e.arg, _PREC_NEG)
    if isinstance(e, Add):
        return f"{wrap(e.left, _PREC_ADD)} + {wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{wrap(e.left, _PREC_ADD)} - {wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{wrap(e.left, _PREC_MUL)}*{wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{wrap(e.left, _PREC_MUL)}/{wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        return f"{wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(to_str(a) for a in e.args)})"
    raise TypeError(f"not an Expr node: {e!r}")


# --- Evaluation -------------------------------------------------------------


def as_function(e: Expr) -> Callable[[float], float]:
    """Compile an AST once into a plain ``float -> float`` callable.

    The callable is nested closures, one per node, that do the same binary64
    operations in the same order as a walk over the tree would: operands
    left to right except that a divisor is evaluated before its dividend,
    with the finiteness check after every ``+ - * / ^``.  It raises
    :class:`EvalDomainError` on log/sqrt/division domain violations or
    overflow, with the point it was called at.
    """
    if isinstance(e, Lit):
        value = e.value
        return lambda x: value
    if isinstance(e, Var):
        return lambda x: x
    if isinstance(e, Neg):
        arg = as_function(e.arg)
        return lambda x: -arg(x)
    if isinstance(e, Add):
        left, right = as_function(e.left), as_function(e.right)

        def add(x):
            v = left(x) + right(x)
            if isfinite(v):
                return v
            raise EvalDomainError("evaluation overflowed binary64", x)
        return add
    if isinstance(e, Sub):
        left, right = as_function(e.left), as_function(e.right)

        def sub(x):
            v = left(x) - right(x)
            if isfinite(v):
                return v
            raise EvalDomainError("evaluation overflowed binary64", x)
        return sub
    if isinstance(e, Mul):
        left, right = as_function(e.left), as_function(e.right)

        def mul(x):
            v = left(x) * right(x)
            if isfinite(v):
                return v
            raise EvalDomainError("evaluation overflowed binary64", x)
        return mul
    if isinstance(e, Div):
        left, right = as_function(e.left), as_function(e.right)

        def div(x):
            denom = right(x)
            if denom == 0.0:
                raise EvalDomainError("division by zero", x)
            v = left(x) / denom
            if isfinite(v):
                return v
            raise EvalDomainError("evaluation overflowed binary64", x)
        return div
    if isinstance(e, Pow):
        base, n = as_function(e.base), e.exponent

        def power(x):
            b = base(x)
            if b == 0.0 and n < 0:
                raise EvalDomainError("zero raised to a negative power", x)
            try:
                v = b ** n
            except OverflowError:
                raise EvalDomainError("evaluation overflowed binary64", x) from None
            if isfinite(v):
                return v
            raise EvalDomainError("evaluation overflowed binary64", x)
        return power
    if isinstance(e, Call) and e.fn in _FUNCS_2 and len(e.args) == 2:
        fn = min if e.fn == "min" else max
        a, b = as_function(e.args[0]), as_function(e.args[1])
        return lambda x: fn(a(x), b(x))
    if isinstance(e, Call) and e.fn in _FUNCS_1 and len(e.args) == 1:
        arg = as_function(e.args[0])
        if e.fn == "exp":
            def exp(x):
                try:
                    return math.exp(arg(x))
                except OverflowError:
                    raise EvalDomainError("exp overflowed binary64", x) from None
            return exp
        if e.fn == "log":
            def log(x):
                v = arg(x)
                if v <= 0.0:
                    raise EvalDomainError(f"log of nonpositive value {v!r}", x)
                return math.log(v)
            return log
        if e.fn == "sqrt":
            def sqrt(x):
                v = arg(x)
                if v < 0.0:
                    raise EvalDomainError(f"sqrt of negative value {v!r}", x)
                return math.sqrt(v)
            return sqrt
        fn = {"sin": math.sin, "cos": math.cos, "abs": abs}[e.fn]
        return lambda x: fn(arg(x))
    raise TypeError(f"not an Expr node: {e!r}")


def evaluate(e: Expr, x: float) -> float:
    """Evaluate at a point in binary64: ``as_function(e)(x)``.

    This compiles ``e`` on every call; to evaluate one AST at many points,
    compile it once with :func:`as_function`.

    Raises:
        EvalDomainError: on log/sqrt/division domain violations or overflow.
    """
    return as_function(e)(x)


# --- Interval evaluation ----------------------------------------------------


def _down(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


def _widened(lo: float, hi: float) -> Interval:
    lo, hi = _down(lo), _up(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise EvalDomainError("interval evaluation overflowed binary64")
    return Interval(lo, hi)


def _recip(iv: Interval) -> Interval:
    if iv.lo <= 0.0 <= iv.hi:
        raise EvalDomainError("division by an interval containing zero")
    return _widened(1.0 / iv.hi, 1.0 / iv.lo)


def _pow_interval(iv: Interval, n: int) -> Interval:
    if n == 0:
        return Interval(1.0, 1.0)
    if n == 1:
        return iv
    if n < 0:
        return _recip(_pow_interval(iv, -n))
    try:
        plo, phi = iv.lo ** n, iv.hi ** n
    except OverflowError:
        raise EvalDomainError("interval power overflowed binary64") from None
    if n % 2 == 0:
        if iv.lo >= 0.0:
            return _widened(plo, phi)
        if iv.hi <= 0.0:
            return _widened(phi, plo)
        # straddles zero: the minimum 0 is attained exactly
        return Interval(0.0, _up(max(plo, phi)))
    return _widened(plo, phi)


_TWO_PI = 2.0 * math.pi
# slack on the critical-point tests below: erring toward "contains" only
# widens the enclosure, never shrinks it
_CRIT_SLACK = 1e-9


def _contains_shifted_multiple(iv: Interval, offset: float) -> bool:
    """Whether offset + 2*pi*k may lie in iv for some integer k."""
    k_min = math.ceil((iv.lo - offset) / _TWO_PI - _CRIT_SLACK)
    k_max = math.floor((iv.hi - offset) / _TWO_PI + _CRIT_SLACK)
    return k_min <= k_max


def _trig_enclosure(iv: Interval, fn: Callable[[float], float],
                    max_at: float, min_at: float) -> Interval:
    va, vb = fn(iv.lo), fn(iv.hi)
    lo, hi = _down(min(va, vb)), _up(max(va, vb))
    if _contains_shifted_multiple(iv, max_at):
        hi = 1.0
    if _contains_shifted_multiple(iv, min_at):
        lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


def eval_interval(e: Expr, iv: Interval) -> Interval:
    """Enclosure of the range: eval(e, x) is in the result for every x in iv.

    Standard interval rules, widened outward by one ulp per arithmetic
    operation; monotone rules for exp/log/sqrt; sin/cos clamp to [-1, 1]
    and refine via critical points.  The dependency problem is accepted
    (``x - x`` over [0, 1] encloses [-1, 1], not [0, 0]).

    Raises:
        EvalDomainError: if iv is not within the natural domain.
    """
    if isinstance(e, Lit):
        return Interval(e.value, e.value)
    if isinstance(e, Var):
        return iv
    if isinstance(e, Neg):
        r = eval_interval(e.arg, iv)
        return Interval(-r.hi, -r.lo)
    if isinstance(e, Add):
        a, b = eval_interval(e.left, iv), eval_interval(e.right, iv)
        return _widened(a.lo + b.lo, a.hi + b.hi)
    if isinstance(e, Sub):
        a, b = eval_interval(e.left, iv), eval_interval(e.right, iv)
        return _widened(a.lo - b.hi, a.hi - b.lo)
    if isinstance(e, Mul):
        a, b = eval_interval(e.left, iv), eval_interval(e.right, iv)
        products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        return _widened(min(products), max(products))
    if isinstance(e, Div):
        a, b = eval_interval(e.left, iv), eval_interval(e.right, iv)
        r = _recip(b)
        products = (a.lo * r.lo, a.lo * r.hi, a.hi * r.lo, a.hi * r.hi)
        return _widened(min(products), max(products))
    if isinstance(e, Pow):
        return _pow_interval(eval_interval(e.base, iv), e.exponent)
    if isinstance(e, Call):
        fn = e.fn
        if fn in _FUNCS_2:
            a = eval_interval(e.args[0], iv)
            b = eval_interval(e.args[1], iv)
            if fn == "min":
                return Interval(min(a.lo, b.lo), min(a.hi, b.hi))
            return Interval(max(a.lo, b.lo), max(a.hi, b.hi))
        r = eval_interval(e.args[0], iv)
        if fn == "sin":
            return _trig_enclosure(r, math.sin, math.pi / 2.0, -math.pi / 2.0)
        if fn == "cos":
            return _trig_enclosure(r, math.cos, 0.0, math.pi)
        if fn == "exp":
            try:
                return _widened(math.exp(r.lo), math.exp(r.hi))
            except OverflowError:
                raise EvalDomainError("exp overflowed binary64") from None
        if fn == "log":
            if r.lo <= 0.0:
                raise EvalDomainError(f"log over an interval reaching {r.lo!r}")
            return _widened(math.log(r.lo), math.log(r.hi))
        if fn == "sqrt":
            if r.lo < 0.0:
                raise EvalDomainError(f"sqrt over an interval reaching {r.lo!r}")
            out = _widened(math.sqrt(r.lo), math.sqrt(r.hi))
            return Interval(max(out.lo, 0.0), out.hi)
        if fn == "abs":
            if r.lo >= 0.0:
                return r
            if r.hi <= 0.0:
                return Interval(-r.hi, -r.lo)
            return Interval(0.0, max(-r.lo, r.hi))
    raise TypeError(f"not an Expr node: {e!r}")


# --- Differentiation --------------------------------------------------------
#
# Smart constructors fold literal subtrees (and the 0/1 identities they
# produce) so derivatives stay readable; no other simplification happens.


def _lit(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Lit) and (value is None or e.value == value)


def _add(a: Expr, b: Expr) -> Expr:
    if _lit(a) and _lit(b):
        return Lit(a.value + b.value)
    if _lit(a, 0.0):
        return b
    if _lit(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _lit(a) and _lit(b):
        return Lit(a.value - b.value)
    if _lit(b, 0.0):
        return a
    if _lit(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _neg(a: Expr) -> Expr:
    if _lit(a):
        return Lit(-a.value)
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _lit(a) and _lit(b):
        return Lit(a.value * b.value)
    if _lit(a, 0.0) or _lit(b, 0.0):
        return Lit(0.0)
    if _lit(a, 1.0):
        return b
    if _lit(b, 1.0):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _lit(a, 0.0):
        return Lit(0.0)
    if _lit(b, 1.0):
        return a
    if _lit(a) and _lit(b) and b.value != 0.0:
        return Lit(a.value / b.value)
    return Div(a, b)


def _pow(base: Expr, n: int) -> Expr:
    if n == 0:
        return Lit(1.0)
    if n == 1:
        return base
    if _lit(base) and not (base.value == 0.0 and n < 0):
        return Lit(base.value ** n)
    return Pow(base, n)


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative with respect to x, constant-folded only.

    Raises:
        NotDifferentiableError: for abs/min/max nodes.
    """
    if isinstance(e, Lit):
        return Lit(0.0)
    if isinstance(e, Var):
        return Lit(1.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, Add):
        return _add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return _add(_mul(differentiate(e.left), e.right),
                    _mul(e.left, differentiate(e.right)))
    if isinstance(e, Div):
        num = _sub(_mul(differentiate(e.left), e.right),
                   _mul(e.left, differentiate(e.right)))
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Pow):
        inner = _mul(Lit(float(e.exponent)), _pow(e.base, e.exponent - 1))
        return _mul(inner, differentiate(e.base))
    if isinstance(e, Call):
        fn = e.fn
        if fn in ("abs", "min", "max"):
            raise NotDifferentiableError(f"{fn} is not differentiable")
        arg = e.args[0]
        d_arg = differentiate(arg)
        if fn == "sin":
            return _mul(Call("cos", (arg,)), d_arg)
        if fn == "cos":
            return _mul(_neg(Call("sin", (arg,))), d_arg)
        if fn == "exp":
            return _mul(Call("exp", (arg,)), d_arg)
        if fn == "log":
            return _div(d_arg, arg)
        if fn == "sqrt":
            return _div(d_arg, _mul(Lit(2.0), Call("sqrt", (arg,))))
    raise TypeError(f"not an Expr node: {e!r}")


_LIPSCHITZ_FLOOR = 1e-300


def lipschitz_bound(e: Expr, iv: Interval) -> float:
    """A valid Lipschitz constant for e on iv, from the derivative enclosure.

    L = max(|lo|, |hi|) of ``eval_interval(differentiate(e), iv)``, floored
    at 1e-300 so it is always positive.  Sound by the mean value theorem
    plus enclosure soundness; the dependency problem can only make L larger.

    Raises:
        NotDifferentiableError, EvalDomainError
    """
    enc = eval_interval(differentiate(e), iv)
    return max(abs(enc.lo), abs(enc.hi), _LIPSCHITZ_FLOOR)


@dataclass(frozen=True)
class ExprGauge(Gauge):
    """Gauge defined by an expression in x, compiled once at construction."""

    ast: Expr

    def __post_init__(self):
        # the compiled callable is not a field, so equality, hash and repr
        # see the AST alone
        object.__setattr__(self, "_function", as_function(self.ast))

    def __reduce__(self):
        # closures cannot be pickled: rebuild from the AST, which recompiles
        return type(self), (self.ast,)

    def value_at(self, x: float) -> float:
        return self._function(x)
