"""A tiny expression language for user-supplied generator functions.

Grammar (user-facing), in one variable ``x``:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom (('^' | '**') unary)?          right-associative
    atom   := NUMBER | 'x' | 'pi' | 'e'
            | ('sin' | 'cos' | 'abs' | 'sqrt') '(' expr ')'
            | ('min' | 'max') '(' expr ',' expr ')'
            | '(' expr ')'

Numbers are decimal literals with optional fraction and exponent.  Error
offsets are 1-based byte positions into the source string.  Trees deeper than
MAX_DEPTH, and nesting of parentheses, calls, signs and exponents deeper than
MAX_DEPTH, are syntax errors: evaluation, differentiation and printing recurse
once per level, and the cap keeps their second derivatives inside Python's
default recursion limit.

Derivatives are symbolic.  min, max and abs differentiate piecewise with the
LEFT branch chosen on the tie set, carried by an internal selector node that
prints as ``ifle(a, b, p, q)`` (p where a <= b, else q).  The power rule for
a variable base and exponent needs a logarithm, carried by an internal
``ln(t)`` node.  Both internal forms re-parse, so printing and parsing round
trip for every expression this module can produce within the depth cap
(a derivative can be deeper than its input), but neither is part of the
advertised input grammar.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "Branch",
    "ExpressionError",
    "ExpressionSyntaxError",
    "UnknownIdentifierError",
    "EvaluationDomainError",
    "parse",
    "evaluate",
    "evaluate_array",
    "differentiate",
    "to_source",
    "MAX_DEPTH",
]

MAX_DEPTH = 64
_MESSAGE_SOURCE = 200  # characters of source an EvaluationDomainError prints


# ---------------------------------------------------------------------------
# Errors


class ExpressionError(ValueError):
    """Base class for everything this module raises on purpose."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed source text.

    offset is the 1-based byte position of the offending token (end of input
    counts as len(source) + 1); expected is the set of token descriptions
    that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]) -> None:
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = expected


class UnknownIdentifierError(ExpressionError):
    """An identifier that is not x, pi, e or a known function."""

    def __init__(self, name: str, offset: int) -> None:
        super().__init__(f"unknown identifier {name!r} at offset {offset}")
        self.name = name
        self.offset = offset


class EvaluationDomainError(ExpressionError):
    """Evaluation left the real domain (division by zero, sqrt of a negative,
    zero to a negative power, overflow past the finite doubles).

    The message names the failing node's source, cut after _MESSAGE_SOURCE
    characters; the node itself is kept whole.
    """

    def __init__(self, message: str, node: "Expression", x: float) -> None:
        super().__init__(f"{message} in {_clipped_source(node)!r} at x={x!r}")
        self.node = node
        self.x = x


# ---------------------------------------------------------------------------
# AST


class Expression:
    """Base node type; concrete nodes are frozen dataclasses."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class Num(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    """The single free variable x."""


@dataclass(frozen=True)
class Unary(Expression):
    op: str  # neg | sin | cos | abs | sqrt | ln
    arg: Expression


@dataclass(frozen=True)
class Binary(Expression):
    op: str  # + | - | * | / | ^ | min | max
    lhs: Expression
    rhs: Expression


@dataclass(frozen=True)
class Branch(Expression):
    """Selector: value is ``low`` when a <= b, else ``high``.

    Only produced by differentiation; prints as ifle(a, b, low, high).
    """

    a: Expression
    b: Expression
    low: Expression
    high: Expression


_X = Var()

_UNARY_FUNCS = ("sin", "cos", "abs", "sqrt", "ln")
_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# Tokenizer

_OPERATORS = ("**", "+", "-", "*", "/", "^", "(", ")", ",")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    pos: int  # 1-based byte offset


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        pos = i + 1
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(_Token("number", source[i:j], pos))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], pos))
            i = j
            continue
        if source.startswith("**", i):
            tokens.append(_Token("op", "**", pos))
            i += 2
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token("op", ch, pos))
            i += 1
            continue
        raise ExpressionSyntaxError(
            f"unexpected character {ch!r}", pos, frozenset({"token"})
        )
    tokens.append(_Token("end", "", n + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_ATOM_EXPECTED = frozenset({"number", "'x'", "'pi'", "'e'", "function", "'('", "'-'"})

def _too_deep(tok: _Token) -> ExpressionSyntaxError:
    return ExpressionSyntaxError(
        f"expression nests deeper than {MAX_DEPTH} levels",
        tok.pos,
        frozenset({"a shallower expression"}),
    )


class _Parser:
    def __init__(self, source: str) -> None:
        self._tokens = _tokenize(source)
        self._i = 0
        self._nesting = 0  # open _unary calls: bounds the parser's own recursion
        self._depths: dict[int, int] = {}  # id of each inner node -> its depth

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _match_op(self, *texts: str) -> _Token | None:
        tok = self._peek()
        if tok.kind == "op" and tok.text in texts:
            return self._advance()
        return None

    def _expect_op(self, text: str) -> _Token:
        tok = self._peek()
        if tok.kind == "op" and tok.text == text:
            return self._advance()
        raise ExpressionSyntaxError(
            f"expected {text!r}", tok.pos, frozenset({f"'{text}'"})
        )

    def _node(self, tok: _Token, node: Expression) -> Expression:
        """Record the depth of a new inner node whose operator is tok.

        Leaves count 1.  Every node of the tree stays alive while parsing,
        so the ids are unique.
        """
        depth = 1 + max(self._depths.get(id(c), 1) for c in _children(node))
        if depth > MAX_DEPTH:
            raise _too_deep(tok)
        self._depths[id(node)] = depth
        return node

    def parse(self) -> Expression:
        node = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(
                f"unexpected trailing input {tok.text!r}",
                tok.pos,
                frozenset({"end of input", "operator"}),
            )
        return node

    def _expr(self) -> Expression:
        node = self._term()
        while True:
            tok = self._match_op("+", "-")
            if tok is None:
                return node
            node = self._node(tok, Binary(tok.text, node, self._term()))

    def _term(self) -> Expression:
        node = self._unary()
        while True:
            tok = self._match_op("*", "/")
            if tok is None:
                return node
            node = self._node(tok, Binary(tok.text, node, self._unary()))

    def _unary(self) -> Expression:
        self._nesting += 1
        if self._nesting > MAX_DEPTH:
            raise _too_deep(self._peek())
        tok = self._match_op("-")
        if tok is None:
            node = self._power()
        else:
            node = self._node(tok, Unary("neg", self._unary()))
        self._nesting -= 1
        return node

    def _power(self) -> Expression:
        base = self._atom()
        tok = self._match_op("^", "**")
        if tok is None:
            return base
        return self._node(tok, Binary("^", base, self._unary()))

    def _args(self, count: int) -> list[Expression]:
        """A parenthesised, comma-separated list of count expressions."""
        self._expect_op("(")
        args = [self._expr()]
        for _ in range(count - 1):
            self._expect_op(",")
            args.append(self._expr())
        self._expect_op(")")
        return args

    def _atom(self) -> Expression:
        tok = self._peek()
        if tok.kind == "number":
            self._advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExpressionSyntaxError(
                    f"numeric literal {tok.text!r} overflows a double",
                    tok.pos,
                    frozenset({"number"}),
                )
            return Num(value)
        if tok.kind == "ident":
            self._advance()
            name = tok.text
            if name == "x":
                return _X
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
            if name in _UNARY_FUNCS:
                return self._node(tok, Unary(name, *self._args(1)))
            if name in ("min", "max"):
                return self._node(tok, Binary(name, *self._args(2)))
            if name == "ifle":
                return self._node(tok, Branch(*self._args(4)))
            raise UnknownIdentifierError(name, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self._advance()
            node = self._expr()
            self._expect_op(")")
            return node
        raise ExpressionSyntaxError(
            f"expected an operand, found {tok.text or 'end of input'!r}",
            tok.pos,
            _ATOM_EXPECTED,
        )


def parse(source: str) -> Expression:
    """Parse source text into an expression tree."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(expr: Expression, x: float) -> float:
    """Evaluate expr at x; finite result or EvaluationDomainError."""
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    return _eval(expr, float(x))


def _require_finite(value: float, node: Expression, x: float) -> float:
    if not math.isfinite(value):
        raise EvaluationDomainError("result is not finite", node, x)
    return value


def _eval(node: Expression, x: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        v = _eval(node.arg, x)
        op = node.op
        if op == "neg":
            return -v
        if op == "sin":
            return math.sin(v)
        if op == "cos":
            return math.cos(v)
        if op == "abs":
            return abs(v)
        if op == "sqrt":
            if v < 0.0:
                raise EvaluationDomainError("sqrt of a negative value", node, x)
            return math.sqrt(v)
        if op == "ln":
            if v <= 0.0:
                raise EvaluationDomainError("log of a non-positive value", node, x)
            return math.log(v)
        raise AssertionError(f"unhandled unary op {op!r}")
    if isinstance(node, Binary):
        a = _eval(node.lhs, x)
        b = _eval(node.rhs, x)
        op = node.op
        if op == "+":
            return _require_finite(a + b, node, x)
        if op == "-":
            return _require_finite(a - b, node, x)
        if op == "*":
            return _require_finite(a * b, node, x)
        if op == "/":
            if b == 0.0:
                raise EvaluationDomainError("division by zero", node, x)
            return _require_finite(a / b, node, x)
        if op == "^":
            value = _pow_or_reason(a, b)
            if isinstance(value, str):
                raise EvaluationDomainError(value, node, x)
            return value
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
        raise AssertionError(f"unhandled binary op {op!r}")
    if isinstance(node, Branch):
        if _eval(node.a, x) <= _eval(node.b, x):
            return _eval(node.low, x)
        return _eval(node.high, x)
    raise TypeError(f"not an expression node: {node!r}")


def _pow_or_reason(a: float, b: float) -> float | str:
    """a**b when it is a finite real, else why it is not."""
    if a == 0.0 and b < 0.0:
        return "zero raised to a negative power"
    if a < 0.0 and b != math.floor(b):
        return "negative base with a non-integer exponent"
    try:
        value = a**b
    except OverflowError:
        return "overflow"
    if not math.isfinite(value):
        return "result is not finite"
    return value


# ---------------------------------------------------------------------------
# Array evaluation

_CHUNK = 8192  # points per pass, so memory is (live nodes) x _CHUNK at most


def evaluate_array(expr: Expression, xs) -> np.ndarray:
    """Evaluate expr at every point of xs, with NaN where it is undefined.

    Each value is bit-identical to ``evaluate`` at that point, and NaN marks
    exactly the points where ``evaluate`` raises EvaluationDomainError:
    every value ``evaluate`` returns is finite, so NaN is free to carry the
    domain mask.  Every tree node is evaluated once per chunk of points, in
    post-order; a node shared by several parents (``differentiate`` shares
    subtrees) keeps its array only until its last parent has read it.  ln and
    ^ go point by point through math.log and ``**``, because numpy's log and
    power do not round like libm's.
    """
    points = np.asarray(xs, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError("x must be finite")
    order = _postorder(expr)
    readers = Counter(id(c) for node in order for c in _children(node))
    flat = points.ravel()
    out = np.empty(flat.size)
    with np.errstate(all="ignore"):
        for start in range(0, flat.size, _CHUNK):
            chunk = flat[start : start + _CHUNK]
            out[start : start + chunk.size] = _run(order, readers, chunk)
    return out.reshape(points.shape)


def _children(node: Expression) -> tuple[Expression, ...]:
    if isinstance(node, Unary):
        return (node.arg,)
    if isinstance(node, Binary):
        return (node.lhs, node.rhs)
    if isinstance(node, Branch):
        return (node.a, node.b, node.low, node.high)
    return ()


def _postorder(expr: Expression) -> list[Expression]:
    """Every distinct node once, each after all of its children."""
    order: list[Expression] = []
    seen: set[int] = set()
    todo: list[tuple[Expression, bool]] = [(expr, False)]
    while todo:
        node, expanded = todo.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            todo.append((node, True))
            todo.extend((child, False) for child in _children(node))
    return order


def _run(order: list[Expression], readers: Counter, xs: np.ndarray) -> np.ndarray:
    values: dict[int, np.ndarray] = {}
    unread = dict(readers)
    for node in order:
        children = _children(node)
        values[id(node)] = _apply(node, [values[id(c)] for c in children], xs)
        for child in children:
            unread[id(child)] -= 1
            if unread[id(child)] == 0:
                del values[id(child)]
    return values[id(order[-1])]


def _finite(values: np.ndarray) -> np.ndarray:
    """values (a fresh array) with every non-finite entry set to NaN."""
    values[~np.isfinite(values)] = math.nan
    return values


def _log_or_nan(v: float) -> float:
    return math.log(v) if v > 0.0 else math.nan


def _pow_or_nan(a: float, b: float) -> float:
    value = _pow_or_reason(a, b)
    return math.nan if isinstance(value, str) else value


def _pointwise(fn: Callable[..., float], *args: np.ndarray) -> np.ndarray:
    """fn at every point where no argument is NaN; NaN elsewhere."""
    live = ~np.logical_or.reduce([np.isnan(a) for a in args])
    out = np.full(args[0].shape, math.nan)
    out[live] = [fn(*p) for p in zip(*(a[live].tolist() for a in args))]
    return out


def _apply(node: Expression, args: list[np.ndarray], xs: np.ndarray) -> np.ndarray:
    """One node over a chunk, given its children's arrays (NaN = undefined)."""
    if isinstance(node, Num):
        return np.full(xs.shape, node.value)
    if isinstance(node, Var):
        return xs
    if isinstance(node, Unary):
        (v,) = args
        op = node.op
        if op == "neg":
            return -v
        if op == "sin":
            return np.sin(v)
        if op == "cos":
            return np.cos(v)
        if op == "abs":
            return np.abs(v)
        if op == "sqrt":
            return np.sqrt(v)  # NaN below zero
        if op == "ln":
            return _pointwise(_log_or_nan, v)
        raise AssertionError(f"unhandled unary op {op!r}")
    if isinstance(node, Binary):
        a, b = args
        op = node.op
        if op == "+":
            return _finite(a + b)
        if op == "-":
            return _finite(a - b)
        if op == "*":
            return _finite(a * b)
        if op == "/":
            return _finite(a / b)  # a zero divisor gives an infinity or NaN
        if op == "^":
            return _pointwise(_pow_or_nan, a, b)
        # Python's min and max keep a on ties; a NaN in either side propagates
        if op == "min":
            return np.where((b < a) | np.isnan(b), b, a)
        if op == "max":
            return np.where((b > a) | np.isnan(b), b, a)
        raise AssertionError(f"unhandled binary op {op!r}")
    if isinstance(node, Branch):
        a, b, low, high = args
        # a NaN in a or b propagates; a NaN on the side not taken does not
        undefined = np.isnan(a) | np.isnan(b)
        return np.where(undefined, math.nan, np.where(a <= b, low, high))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Differentiation (with constant folding in the smart constructors)

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_num(node: Expression, value: float | None = None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


def _neg(a: Expression) -> Expression:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def _fold(a: Expression, b: Expression, op: str, value: float) -> Expression:
    if math.isfinite(value):
        return Num(value)
    return Binary(op, a, b)


def _add(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold(a, b, "+", a.value + b.value)
    return Binary("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold(a, b, "-", a.value - b.value)
    return Binary("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold(a, b, "*", a.value * b.value)
    return Binary("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        folded = a.value / b.value
        if math.isfinite(folded):
            return Num(folded)
    return Binary("/", a, b)


def _pow(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return _ONE
    return Binary("^", a, b)


def _ln(a: Expression) -> Expression:
    if isinstance(a, Num) and a.value > 0.0:
        return Num(math.log(a.value))
    return Unary("ln", a)


def differentiate(expr: Expression) -> Expression:
    """Symbolic derivative with the left-branch convention on tie sets.

    min(a,b), max(a,b) and abs(u) differentiate piecewise; on the tie set the
    branch written first (a for min/max, the non-negated branch for abs) is
    the one whose derivative is used.  The result is an ordinary expression:
    evaluating it at a kink yields the left-branch one-sided derivative.
    A subtree that occurs more than once is differentiated once and shared,
    so repeated differentiation of abs(...) nests costs linear, not
    exponential, time.
    """
    memo: dict[int, Expression] = {}  # id of an input node -> its derivative

    def d(node: Expression) -> Expression:
        key = id(node)
        if key not in memo:
            memo[key] = _derive(node, d)
        return memo[key]

    return d(expr)


def _derive(expr: Expression, d: Callable[[Expression], Expression]) -> Expression:
    if isinstance(expr, Num):
        return _ZERO
    if isinstance(expr, Var):
        return _ONE
    if isinstance(expr, Unary):
        du = d(expr.arg)
        u = expr.arg
        op = expr.op
        if op == "neg":
            return _neg(du)
        if op == "sin":
            return _mul(Unary("cos", u), du)
        if op == "cos":
            return _neg(_mul(Unary("sin", u), du))
        if op == "abs":
            # |u| treated as u for u >= 0, -u for u < 0; tie -> left branch u.
            return Branch(_ZERO, u, du, _neg(du))
        if op == "sqrt":
            return _div(du, _mul(Num(2.0), Unary("sqrt", u)))
        if op == "ln":
            return _div(du, u)
        raise AssertionError(f"unhandled unary op {op!r}")
    if isinstance(expr, Binary):
        a, b = expr.lhs, expr.rhs
        da = d(a)
        db = d(b)
        op = expr.op
        if op == "+":
            return _add(da, db)
        if op == "-":
            return _sub(da, db)
        if op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), _mul(b, b))
        if op == "^":
            if isinstance(b, Num):
                c = b.value
                return _mul(_mul(b, _pow(a, Num(c - 1.0))), da)
            if isinstance(a, Num):
                return _mul(_mul(expr, _ln(a)), db)
            # general power rule: a^b * (db*ln(a) + b*da/a)
            return _mul(expr, _add(_mul(db, _ln(a)), _div(_mul(b, da), a)))
        if op == "min":
            return Branch(a, b, da, db)
        if op == "max":
            return Branch(b, a, da, db)
        raise AssertionError(f"unhandled binary op {op!r}")
    if isinstance(expr, Branch):
        return Branch(expr.a, expr.b, d(expr.low), d(expr.high))
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


_BINARY_PREC = {"^": _PREC_POW, "*": _PREC_MUL, "/": _PREC_MUL, "+": _PREC_ADD, "-": _PREC_ADD}


def _precedence(node: Expression) -> int:
    if isinstance(node, Num):
        return _PREC_NEG if repr(node.value).startswith("-") else _PREC_ATOM
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC_NEG
    if isinstance(node, Binary):
        return _BINARY_PREC.get(node.op, _PREC_ATOM)
    return _PREC_ATOM


def _pieces(node: Expression, min_prec: int = 0):
    """Source text of node, piece by piece, parenthesized below min_prec.

    Lazy, so a prefix of the text costs only its own length: a derivative
    that shares subtrees can print exponentially longer than it is big.
    """
    wrap = _precedence(node) < min_prec
    if wrap:
        yield "("
    if isinstance(node, Num):
        yield repr(node.value)
    elif isinstance(node, Var):
        yield "x"
    elif isinstance(node, Unary) and node.op == "neg":
        yield "-"
        yield from _pieces(node.arg, _PREC_NEG)
    elif isinstance(node, Binary) and node.op in _BINARY_PREC:
        prec = _BINARY_PREC[node.op]
        # ^ is right-associative; the other operators are left-associative
        yield from _pieces(node.lhs, _PREC_ATOM if prec == _PREC_POW else prec)
        yield node.op
        yield from _pieces(node.rhs, _PREC_MUL if prec == _PREC_ADD else _PREC_NEG)
    elif isinstance(node, (Unary, Binary, Branch)):  # sin(a), min(a,b), ifle(a,b,p,q)
        yield "ifle(" if isinstance(node, Branch) else f"{node.op}("
        for i, part in enumerate(_children(node)):
            if i:
                yield ","
            yield from _pieces(part)
        yield ")"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if wrap:
        yield ")"


def _clipped_source(node: Expression) -> str:
    """to_source(node), cut to its first _MESSAGE_SOURCE characters plus an ellipsis."""
    text = ""
    for piece in _pieces(node):
        text += piece
        if len(text) > _MESSAGE_SOURCE:
            return text[:_MESSAGE_SOURCE] + "\u2026"
    return text


def to_source(expr: Expression) -> str:
    """Render an expression to source text that parses back to the same tree
    (same node shapes up to constant spelling, identical evaluation)."""
    return "".join(_pieces(expr))
