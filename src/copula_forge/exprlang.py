"""A tiny expression language for user-supplied generator functions.

Grammar (user-facing), in one variable ``x``:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom (('^' | '**') unary)?          right-associative
    atom   := NUMBER | 'x' | 'pi' | 'e'
            | ('sin' | 'cos' | 'abs' | 'sqrt' | 'ln') '(' expr ')'
            | ('min' | 'max') '(' expr ',' expr ')'
            | '(' expr ')'

Numbers are decimal literals with optional fraction and exponent.  Error
offsets are 1-based character (not byte) positions into the source string.
Trees deeper than MAX_DEPTH, and nesting of parentheses, calls, signs and
exponents deeper than MAX_DEPTH, are syntax errors: float evaluation and
differentiation recurse once per level, and the cap keeps their second
derivatives inside Python's default recursion limit.  Printing keeps one
explicit stack, and each array form (``compile_array``) plans its tree once,
at its first call, as one step per distinct node; neither recurses.

Derivatives are symbolic.  min, max and abs differentiate piecewise with the
LEFT branch chosen on the tie set, carried by an internal selector node that
prints as ``ifle(a, b, p, q)`` (p where a <= b, else q).  The power rule for
a variable base and exponent takes a logarithm, an ``ln(t)`` node.  ``ifle``
re-parses too, so printing and parsing round trip for every expression this
module can produce within the depth cap (a derivative can be deeper than its
input), but it is internal: it is not part of the advertised input grammar.
"""

from __future__ import annotations

import math
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
    "compile_array",
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

    offset is the 1-based character position of the offending token (end of
    input counts as len(source) + 1); expected is the set of token
    descriptions that would have been accepted there.
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


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    pos: int  # 1-based character offset


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
            try:
                value = float(tok.text)
            except ValueError:  # str.isdigit also accepts digits such as '²'
                raise ExpressionSyntaxError(
                    f"malformed numeric literal {tok.text!r}",
                    tok.pos,
                    frozenset({"number"}),
                ) from None
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
        value = _RULES[node.op](_eval(node.arg, x))
    elif isinstance(node, Binary):
        value = _RULES[node.op](_eval(node.lhs, x), _eval(node.rhs, x))
    elif isinstance(node, Branch):
        if _eval(node.a, x) <= _eval(node.b, x):
            return _eval(node.low, x)
        return _eval(node.high, x)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if value.__class__ is float and value - value == 0.0:  # finite: the common case
        return value
    if isinstance(value, str):
        raise EvaluationDomainError(value, node, x)
    return _require_finite(value, node, x)


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


# The float rule of each operator: finite arguments to a value, or to the
# reason there is none.  An arithmetic rule may return an infinity, which
# _eval reports as "result is not finite".  _eval reads every row, and so
# does the constant folding of differentiate; the array kernels of ln and ^
# read theirs point by point, NaN for a reason, and the other array kernels
# are numpy ufuncs that give the same bits.
_RULES: dict[str, Callable[..., float | str]] = {
    "neg": lambda v: -v,
    "sin": math.sin,
    "cos": math.cos,
    "abs": abs,
    "sqrt": lambda v: "sqrt of a negative value" if v < 0.0 else math.sqrt(v),
    "ln": lambda v: "log of a non-positive value" if v <= 0.0 else math.log(v),
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: "division by zero" if b == 0.0 else a / b,
    "^": _pow_or_reason,
    "min": min,
    "max": max,
}


# ---------------------------------------------------------------------------
# Array evaluation

_CHUNK = 8192  # points per pass, so memory is (live nodes) x _CHUNK at most


def compile_array(expr: Expression) -> Callable[..., np.ndarray]:
    """The array form of expr: it plans its steps (``_plan``) at its first call
    and then only runs them.

    ``compile_array(expr)(xs)`` evaluates expr at every point of xs, with NaN
    where it is undefined.  Each value is bit-identical to ``evaluate`` at
    that point, and NaN marks exactly the points where ``evaluate`` raises
    EvaluationDomainError: every value ``evaluate`` returns is finite, so NaN
    is free to carry the domain mask.
    """
    steps: list[tuple] = []  # planned at the first call, in one assignment

    def form(xs) -> np.ndarray:
        points = np.asarray(xs, dtype=float)
        if not np.isfinite(points).all():
            raise ValueError("x must be finite")
        if not steps:
            steps[:] = _plan(expr)
        flat = points.ravel()
        out = np.empty(flat.size)
        with np.errstate(all="ignore"):
            for start in range(0, flat.size, _CHUNK):
                chunk = flat[start : start + _CHUNK]
                values: list = [None] * len(steps) + [chunk]
                for slot, (kernel, args, done) in enumerate(steps):
                    values[slot] = kernel(*[values[a] for a in args])
                    for a in done:
                        values[a] = None
                out[start : start + chunk.size] = values[len(steps) - 1]
        return out.reshape(points.shape)

    return form


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


def _plan(expr: Expression) -> list[tuple]:
    """(kernel, argument slots, slots no later step reads) per distinct node,
    children first.  Step i writes slot i; leaves read the chunk of points,
    in the slot after the last step.
    """
    order = _postorder(expr)
    slots = {id(node): i for i, node in enumerate(order)}
    reads = [tuple(slots[id(c)] for c in _children(node)) or (len(order),) for node in order]
    last_reader = {slot: i for i, args in enumerate(reads) for slot in args}
    frees: list[list[int]] = [[] for _ in order]
    for slot, i in last_reader.items():
        frees[i].append(slot)
    return [(_kernel(node), args, tuple(free)) for node, args, free in zip(order, reads, frees)]


def _kernel(node: Expression) -> Callable[..., np.ndarray]:
    if isinstance(node, Num):
        return lambda xs, value=node.value: np.full(xs.shape, value)
    if isinstance(node, Var):
        return lambda xs: xs
    return _KERNELS["ifle" if isinstance(node, Branch) else node.op]


def _finite(values: np.ndarray) -> np.ndarray:
    """values (a fresh array) with every non-finite entry set to NaN."""
    values[~np.isfinite(values)] = math.nan
    return values


def _pointwise(rule: Callable[..., float | str], *args: np.ndarray) -> np.ndarray:
    """rule at every point where no argument is NaN; NaN elsewhere and where
    the rule gives a reason."""
    live = ~np.logical_or.reduce([np.isnan(a) for a in args])
    out = np.full(args[0].shape, math.nan)
    values = map(rule, *(a[live].tolist() for a in args))
    out[live] = [math.nan if isinstance(v, str) else v for v in values]
    return out


# The array kernel of each operator, NaN marking undefined points.  ln and ^
# go point by point through their float rules, because numpy's log and power
# do not round like libm's.
_KERNELS: dict[str, Callable[..., np.ndarray]] = {
    "neg": np.negative,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "sqrt": np.sqrt,  # NaN below zero
    "ln": lambda v: _pointwise(_RULES["ln"], v),
    "+": lambda a, b: _finite(a + b),
    "-": lambda a, b: _finite(a - b),
    "*": lambda a, b: _finite(a * b),
    "/": lambda a, b: _finite(a / b),  # a zero divisor gives an infinity or NaN
    "^": lambda a, b: _pointwise(_RULES["^"], a, b),
    # Python's min and max keep a on ties; a NaN in either side propagates
    "min": lambda a, b: np.where((b < a) | np.isnan(b), b, a),
    "max": lambda a, b: np.where((b > a) | np.isnan(b), b, a),
    # a NaN in a or b propagates; a NaN on the side not taken does not
    "ifle": lambda a, b, low, high: np.where(
        np.isnan(a) | np.isnan(b), math.nan, np.where(a <= b, low, high)
    ),
}


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


def _folded(op: str, a: Expression, b: Expression) -> Expression:
    """Binary(op, a, b), or the number it evaluates to where a and b are
    numbers and the float rule of op gives a finite value."""
    if isinstance(a, Num) and isinstance(b, Num):
        value = _RULES[op](a.value, b.value)
        if not isinstance(value, str) and math.isfinite(value):
            return Num(value)
    return Binary(op, a, b)


def _add(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return _folded("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return _folded("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return _folded("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 1.0):
        return a
    return _folded("/", a, b)


def _pow(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return _ONE
    return Binary("^", a, b)


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
                value = _RULES["ln"](a.value)  # ln(a) folds where it is defined
                ln_a = Unary("ln", a) if isinstance(value, str) else Num(value)
                return _mul(_mul(expr, ln_a), db)
            # general power rule: a^b * (db*ln(a) + b*da/a), a not a number
            return _mul(expr, _add(_mul(db, Unary("ln", a)), _div(_mul(b, da), a)))
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
    that shares subtrees can print exponentially longer than it is big.  The
    pieces and (node, min_prec) pairs left to print wait on one stack, so a
    piece costs the same at any depth.
    """
    todo: list = [(node, min_prec)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            yield item
            continue
        node, min_prec = item
        if _precedence(node) < min_prec:
            yield "("
            todo.append(")")
        # each node yields its first piece and pushes the rest, last first
        if isinstance(node, Num):
            yield repr(node.value)
        elif isinstance(node, Var):
            yield "x"
        elif isinstance(node, Unary) and node.op == "neg":
            yield "-"
            todo.append((node.arg, _PREC_NEG))
        elif isinstance(node, Binary) and node.op in _BINARY_PREC:
            prec = _BINARY_PREC[node.op]
            # ^ is right-associative; the other operators are left-associative
            rhs = (node.rhs, _PREC_MUL if prec == _PREC_ADD else _PREC_NEG)
            todo += [rhs, node.op, (node.lhs, _PREC_ATOM if prec == _PREC_POW else prec)]
        elif isinstance(node, (Unary, Binary, Branch)):  # sin(a), min(a,b), ifle(a,b,p,q)
            yield "ifle(" if isinstance(node, Branch) else f"{node.op}("
            first, *rest = _children(node)
            todo.append(")")
            for part in reversed(rest):
                todo += [(part, 0), ","]
            todo.append((first, 0))
        else:
            raise TypeError(f"not an expression node: {node!r}")


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
