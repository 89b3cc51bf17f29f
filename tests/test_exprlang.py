"""Expression parsing, printing, evaluation and symbolic derivatives."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copula_forge import exprlang
from copula_forge.exprlang import (
    MAX_DEPTH,
    Binary,
    Branch,
    EvaluationDomainError,
    Expression,
    ExpressionSyntaxError,
    Num,
    Unary,
    UnknownIdentifierError,
    Var,
    compile_array,
    differentiate,
    evaluate,
    parse,
    to_source,
)
from copula_forge.generator import from_expression

from conftest import random_valid_expression_generators
from test_golden import EDGE_EXPRESSIONS, OPERATOR_EXPRESSIONS


# ---------------------------------------------------------------------------
# Parsing and precedence


def test_tree_shape_product():
    tree = parse("x*(1-x)")
    assert tree == Binary("*", Var(), Binary("-", Num(1.0), Var()))


def test_tree_shape_sine():
    tree = parse("sin(pi*x)/pi")
    assert tree == Binary(
        "/",
        Unary("sin", Binary("*", Num(math.pi), Var())),
        Num(math.pi),
    )


def test_precedence_mul_over_add_pow_over_mul():
    assert evaluate(parse("1+2*3^2"), 0.0) == 19.0


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0.0) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert evaluate(parse("-x^2"), 2.0) == -4.0


def test_double_star_alias():
    assert parse("2**3**2") == parse("2^3^2")


def test_subtraction_left_associative():
    assert evaluate(parse("6-2-1"), 0.0) == 3.0


def test_whitespace_insensitive():
    assert parse(" x * ( 1 - x ) ") == parse("x*(1-x)")


def test_constants():
    assert evaluate(parse("pi"), 0.0) == math.pi
    assert evaluate(parse("e"), 0.0) == math.e


def test_min_max_two_arguments():
    assert evaluate(parse("min(x, 1-x)"), 0.3) == pytest.approx(0.3)
    assert evaluate(parse("max(x, 1-x)"), 0.3) == pytest.approx(0.7)


def test_syntax_error_unclosed_call():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse("min(x, 1-x")
    assert exc.value.offset == 11
    assert exc.value.expected == frozenset({"')'"})


def test_syntax_error_dangling_operator():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse("x+")
    assert exc.value.offset == 3


def test_syntax_error_empty_source():
    with pytest.raises(ExpressionSyntaxError):
        parse("")


def test_syntax_error_number_overflow():
    with pytest.raises(ExpressionSyntaxError):
        parse("1e999")


def test_syntax_error_digit_that_float_rejects():
    # str.isdigit accepts superscripts, which float() does not read
    for source, offset in (("\u00b2", 1), ("x*(1-x)*0.5\u00b2", 9)):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse(source)
        assert exc.value.offset == offset
        assert exc.value.expected == frozenset({"number"})
        assert str(exc.value).startswith("malformed numeric literal")


def test_unknown_identifier_offset():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("x + tan(x)")
    assert exc.value.name == "tan"
    assert exc.value.offset == 5


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse("x) + 1")


# ---------------------------------------------------------------------------
# Depth cap

NESTED_200 = "(" * 200 + "x*(1-x)" + ")" * 200
CHAIN_1500 = "x*(1-x)" + "+0.0001*x*(1-x)" * 1500


def _syntax_offset(source: str) -> int:
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse(source)
    assert "deeper than" in str(exc.value)
    return exc.value.offset


def test_depth_cap_rejects_deep_parentheses_at_the_crossing_token():
    # the parenthesis that opens nesting level MAX_DEPTH + 1
    assert _syntax_offset(NESTED_200) == MAX_DEPTH + 1
    assert parse("(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1)) == Var()


def test_depth_cap_rejects_long_chains_at_the_crossing_token():
    # x*(1-x) is 3 levels deep and every '+' adds one, so the '+' that
    # makes the tree MAX_DEPTH + 1 deep is the (MAX_DEPTH - 2)-th one
    plus = [i for i, ch in enumerate(CHAIN_1500) if ch == "+"]
    assert _syntax_offset(CHAIN_1500) == plus[MAX_DEPTH - 3] + 1
    assert parse("x" + "+x" * (MAX_DEPTH - 1)) is not None
    assert _syntax_offset("x" + "+x" * MAX_DEPTH) == 2 * MAX_DEPTH
    # signs nest: the operand after MAX_DEPTH of them is level MAX_DEPTH + 1
    assert _syntax_offset("-" * MAX_DEPTH + "x") == MAX_DEPTH + 1


def test_depth_cap_accepts_the_seeded_generators():
    for gen in random_valid_expression_generators(100):
        assert parse(gen.source) is not None


# the deepest chain of each kind, with the length and SHA-256 of the source
# text of its second derivative
CAP_CHAINS = {
    "product": (
        "x" + "*x" * (MAX_DEPTH - 1),
        182_529,
        "fd659da8bf6b3585be7506873b8a16f6bbb4855cedcd387e83d7cc767b50f0fe",
    ),
    "power": (
        "x" + "^x" * (MAX_DEPTH - 1),
        783_793,
        "76c6f20448b56108fce18ae1a0820db760e85cfa0347a5db6c32c88c3fcd5066",
    ),
    "quotient": (
        "x" + "/(x+1)" * (MAX_DEPTH - 2),
        1_098_430,
        "4a488affab488225cb842f7685f45a78db050e50ab32fe497490da42f39ef30a",
    ),
    "sine": (
        "sin(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
        452_729,
        "ce68de320a0d60b18b55380555db3000567fd3ea67c5acf857d014e0e622ca42",
    ),
    "sqrt": (
        "sqrt(" * (MAX_DEPTH - 2) + "x+1" + ")" * (MAX_DEPTH - 2),
        572_856,
        "6f947c77224b3b6d7c0cb1b59fab89aef7763e8d3d62ca1220a73a5ecf2d0b2d",
    ),
    "min": (
        "min(x," * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
        14_556,
        "a5ad284a484da15b5cb9963ebc5c6e88e8314c90cd63cd574355e056ce396933",
    ),
}


@pytest.mark.parametrize("chain", list(CAP_CHAINS))
def test_second_derivative_at_the_cap_evaluates_and_prints(chain):
    source, length, digest = CAP_CHAINS[chain]
    d2 = differentiate(differentiate(parse(source)))
    assert math.isfinite(evaluate(d2, 0.3))
    text = to_source(d2)
    assert len(text) == length
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_nested_abs_differentiates_in_linear_time():
    # each abs derivative names the inner derivative twice; without sharing,
    # the second derivative of 60 nested abs would take 2^60 steps
    gen = from_expression("abs(" * 60 + "x-0.5" + ")" * 60)
    assert gen.phi_prime(0.3) == -1.0
    assert gen.phi_second(0.3) == 0.0


# ---------------------------------------------------------------------------
# Evaluation domain errors


def test_divide_by_zero_names_node_and_point():
    tree = parse("1/x")
    with pytest.raises(EvaluationDomainError) as exc:
        evaluate(tree, 0.0)
    assert exc.value.x == 0.0
    assert exc.value.node == tree
    assert "1.0/x" in str(exc.value)


def test_sqrt_of_negative():
    with pytest.raises(EvaluationDomainError):
        evaluate(parse("sqrt(x-1)"), 0.5)


def test_zero_to_negative_power():
    with pytest.raises(EvaluationDomainError):
        evaluate(parse("x^(0-1)"), 0.0)


def test_negative_base_fractional_exponent():
    with pytest.raises(EvaluationDomainError):
        evaluate(parse("(0-2)^x"), 0.5)


def test_negative_base_integer_exponent_ok():
    assert evaluate(parse("(0-2)^x"), 3.0) == -8.0


@pytest.mark.parametrize(
    "source, message",
    [
        ("sqrt(x-1)", "sqrt of a negative value in 'sqrt(x-1.0)' at x=0.5"),
        ("ln(x-x)", "log of a non-positive value in 'ln(x-x)' at x=0.5"),
        ("x/(x-x)", "division by zero in 'x/(x-x)' at x=0.5"),
        ("(x-x)^(0-1)", "zero raised to a negative power in '(x-x)^(0.0-1.0)' at x=0.5"),
        ("(0-2)^x", "negative base with a non-integer exponent in '(0.0-2.0)^x' at x=0.5"),
        ("x*1e308*10", "result is not finite in 'x*1e+308*10.0' at x=0.5"),
        ("(x+1)^1e300", "overflow in '(x+1.0)^1e+300' at x=0.5"),
    ],
)
def test_each_domain_reason_has_its_message_node_and_array_nan(source, message):
    tree = parse(source)
    with pytest.raises(EvaluationDomainError) as err:
        evaluate(tree, 0.5)
    assert str(err.value) == message
    assert err.value.node is tree  # the root is the node that fails
    assert np.isnan(compile_array(tree)(np.array([0.5]))).all()


def test_hand_built_integer_leaves_keep_integer_arithmetic():
    # parse makes float leaves only; a tree built by hand may hold ints
    assert repr(evaluate(Binary("+", Num(1), Num(2)), 0.5)) == "3"


# ---------------------------------------------------------------------------
# Derivatives


def test_derivative_of_sine_arch_at_zero_is_exactly_one():
    d = differentiate(parse("sin(pi*x)/pi"))
    assert evaluate(d, 0.0) == 1.0


def test_derivative_polynomial():
    d = differentiate(parse("x*(1-x)"))
    for x in (0.0, 0.25, 0.5, 1.0):
        assert evaluate(d, x) == pytest.approx(1.0 - 2.0 * x, abs=1e-15)


def test_derivative_min_left_branch_on_tie():
    d = differentiate(parse("min(x, 1-x)"))
    assert evaluate(d, 0.25) == 1.0
    assert evaluate(d, 0.75) == -1.0
    # At the tie the left operand is selected.
    assert evaluate(d, 0.5) == 1.0


def test_derivative_abs_left_branch_on_tie():
    d = differentiate(parse("abs(2*x-1)"))
    assert evaluate(d, 0.25) == -2.0
    assert evaluate(d, 0.75) == 2.0
    # abs prints as ifle(0, t, t', -t'); the tie keeps the selector's left
    # result, hence the right-hand slope here.
    assert evaluate(d, 0.5) == 2.0


def test_derivative_power_variable_base_and_exponent():
    # d/dx x^x = x^x (ln x + 1)
    d = differentiate(parse("x^x"))
    for x in (0.5, 1.0, 2.0):
        want = x**x * (math.log(x) + 1.0)
        assert evaluate(d, x) == pytest.approx(want, rel=1e-14)


def test_derivative_matches_finite_differences_off_kinks():
    exprs = (
        "x*(1-x)*(1+0.5*sin(pi*x))",
        "sqrt(x+1)*cos(2*x)",
        "min(x, 1-x)*max(x, 0.25)",
        "x^3 - 0.5*x^2 + abs(x-0.3)",
    )
    h = 1e-6
    for source in exprs:
        tree = parse(source)
        d = differentiate(tree)
        for k in range(1, 40):
            x = k / 40.0 + 0.0137  # irrationally offset, clears the kinks
            if x + h >= 1.0:
                continue
            fd = (evaluate(tree, x + h) - evaluate(tree, x - h)) / (2.0 * h)
            assert evaluate(d, x) == pytest.approx(fd, abs=1e-5), (source, x)


def test_second_derivative_through_branch_nodes():
    d2 = differentiate(differentiate(parse("min(x, 1-x)")))
    assert evaluate(d2, 0.3) == 0.0
    assert evaluate(d2, 0.7) == 0.0


# ---------------------------------------------------------------------------
# Print/parse round trip


def _grid_equal(e1, e2, points=None) -> bool:
    for k in points if points is not None else range(1001):
        x = k / 1000.0
        try:
            a = evaluate(e1, x)
        except EvaluationDomainError:
            with pytest.raises(EvaluationDomainError):
                evaluate(e2, x)
            continue
        if evaluate(e2, x) != a:  # exact float equality
            return False
    return True


def test_round_trip_fixed_expressions():
    sources = (
        "x*(1-x)",
        "sin(pi*x)/pi",
        "min(x, 1-x)",
        "x*(1-x)*(1-2*x)",
        "-x^2 + 2^3^2",
        "abs(2*x-1)*sqrt(x+2)",
        "max(x, 1-x) - min(x, 1-x)",
    )
    for source in sources:
        tree = parse(source)
        again = parse(to_source(tree))
        assert again == tree
        assert _grid_equal(tree, again)


def test_round_trip_covers_derivative_nodes():
    # Derivatives introduce ln and ifle, which must print and re-parse.
    # Negative literals come back as negated positives, so the guarantee is
    # value equality, not tree equality.
    for source in ("x^x", "min(x, 1-x)", "abs(2*x-1)", "max(x*x, 0.3)"):
        d = differentiate(parse(source))
        again = parse(to_source(d))
        assert _grid_equal(d, again, points=range(1, 1001))


_leaf = st.one_of(
    st.just(Var()),
    st.floats(
        min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
    ).map(lambda v: Num(abs(v))),
)


def _branches(children):
    unary = st.tuples(
        st.sampled_from(["neg", "sin", "cos", "abs", "sqrt", "ln"]), children
    ).map(lambda t: Unary(*t))
    binary = st.tuples(
        st.sampled_from(["+", "-", "*", "/", "^", "min", "max"]), children, children
    ).map(lambda t: Binary(*t))
    branch = st.tuples(children, children, children, children).map(
        lambda t: Branch(*t)
    )
    return st.one_of(unary, binary, branch)


_trees = st.recursive(_leaf, _branches, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(tree=_trees, k=st.integers(min_value=0, max_value=100))
def test_round_trip_random_trees(tree, k):
    printed = to_source(tree)
    again = parse(printed)
    x = k / 100.0
    try:
        want = evaluate(tree, x)
    except EvaluationDomainError:
        with pytest.raises(EvaluationDomainError):
            evaluate(again, x)
        return
    assert evaluate(again, x) == want  # bitwise equal


def _recursive_pieces(node: Expression, min_prec: int = 0):
    """The printer as one recursive generator, one frame per level: the
    reference that exprlang._pieces must match piece for piece."""
    wrap = exprlang._precedence(node) < min_prec
    if wrap:
        yield "("
    if isinstance(node, Num):
        yield repr(node.value)
    elif isinstance(node, Var):
        yield "x"
    elif isinstance(node, Unary) and node.op == "neg":
        yield "-"
        yield from _recursive_pieces(node.arg, exprlang._PREC_NEG)
    elif isinstance(node, Binary) and node.op in exprlang._BINARY_PREC:
        prec = exprlang._BINARY_PREC[node.op]
        pow_prec, add_prec = exprlang._PREC_POW, exprlang._PREC_ADD
        yield from _recursive_pieces(node.lhs, exprlang._PREC_ATOM if prec == pow_prec else prec)
        yield node.op
        yield from _recursive_pieces(
            node.rhs, exprlang._PREC_MUL if prec == add_prec else exprlang._PREC_NEG
        )
    elif isinstance(node, (Unary, Binary, Branch)):
        yield "ifle(" if isinstance(node, Branch) else f"{node.op}("
        for i, part in enumerate(exprlang._children(node)):
            if i:
                yield ","
            yield from _recursive_pieces(part)
        yield ")"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if wrap:
        yield ")"


def _assert_prints_like_the_reference(tree) -> None:
    assert list(exprlang._pieces(tree)) == list(_recursive_pieces(tree))


def test_printer_matches_the_recursive_reference_on_the_validated_expressions():
    gens = random_valid_expression_generators(100) + [
        from_expression(text) for text in OPERATOR_EXPRESSIONS + EDGE_EXPRESSIONS
    ]
    assert len(gens) == 113
    for gen in gens:
        tree = parse(gen.source)
        d1 = differentiate(tree)
        for t in (tree, d1, differentiate(d1)):
            _assert_prints_like_the_reference(t)


@settings(max_examples=200, deadline=None)
@given(tree=_trees)
def test_printer_matches_the_recursive_reference_on_random_trees(tree):
    _assert_prints_like_the_reference(tree)
    _assert_prints_like_the_reference(differentiate(tree))


@pytest.mark.parametrize("chain", list(CAP_CHAINS))
def test_printer_matches_the_recursive_reference_on_the_cap_chains(chain):
    # their second derivatives are pinned by digest above: printing them
    # recursively would take seconds
    tree = parse(CAP_CHAINS[chain][0])
    _assert_prints_like_the_reference(tree)
    _assert_prints_like_the_reference(differentiate(tree))


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_printing_needs_no_frame_per_level():
    # the quotient chain's phi'' prints 1.1 MB from a tree 372 levels deep;
    # a recursive printer needs a frame per level of it
    d2 = differentiate(differentiate(parse(CAP_CHAINS["quotient"][0])))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        text = to_source(d2)
    finally:
        sys.setrecursionlimit(limit)
    assert len(text) == CAP_CHAINS["quotient"][1]


# ---------------------------------------------------------------------------
# Array evaluation


def _pointwise(tree, xs) -> np.ndarray:
    """evaluate at each point, NaN where it raises a domain error."""
    out = []
    for x in xs:
        try:
            out.append(evaluate(tree, float(x)))
        except EvaluationDomainError:
            out.append(math.nan)
    return np.array(out)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal bit patterns, except that any NaN matches any NaN."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.parametrize(
    "source",
    [
        "sqrt(x-0.5)",
        "ln(x-0.5)",
        "1/(x-0.5)",
        "(x-0.5)^(-1)",
        "(x-0.5)^0.5",
        "(x-0.5)^3",
        "10^(1000*x)",  # overflow in the power
        "x*1e308*10",  # overflow in a product
        "min(x, sqrt(x-0.5))",  # undefined on the right of min
        "max(sqrt(x-0.5), x)",
        "min(x-x, -(x-x))",  # the tie 0.0 vs -0.0 keeps the left side
        "max(-(x-x), x-x)",
        "ifle(x, 0.5, x, sqrt(x-0.7))",  # undefined only on the side not taken
        "ifle(sqrt(x-0.5), 1, x, x)",  # undefined in the comparison
        "sin(8192*pi*x) + cos(3*x) - abs(-x)",
    ],
)
def test_evaluate_array_nan_marks_exactly_the_domain_errors(source):
    tree = parse(source)
    xs = np.concatenate([np.linspace(0.0, 1.0, 401), [0.5, 0.7, -0.0]])
    for t in (tree, differentiate(tree)):
        assert_same_bits(compile_array(t)(xs), _pointwise(t, xs))


@settings(max_examples=200, deadline=None)
@given(tree=_trees)
def test_evaluate_array_matches_evaluate_on_random_trees(tree):
    xs = np.linspace(-0.25, 1.25, 61)
    assert_same_bits(compile_array(tree)(xs), _pointwise(tree, xs))


def test_evaluate_array_spans_chunks_and_keeps_shape():
    tree = differentiate(parse("x*(1-x)*ln(1+x)/sqrt(x)"))
    xs = np.linspace(0.0, 1.0, 20001)  # more than two chunks
    assert_same_bits(compile_array(tree)(xs), _pointwise(tree, xs))
    square = xs[:20000].reshape(100, 200)
    want = _pointwise(tree, xs[:20000]).reshape(100, 200)
    assert_same_bits(compile_array(tree)(square), want)
    assert compile_array(tree)([]).shape == (0,)


@pytest.mark.parametrize("top", [math.pi, 8192 * math.pi], ids=["pi", "8192pi"])
def test_array_sin_cos_equal_math_bit_for_bit(top):
    # the float forms of phi4 and of expressions read math.sin and math.cos,
    # the array forms np.sin and np.cos; the sample digests were taken from
    # the float forms and sample now reads the array forms
    xs = np.random.default_rng(2011).uniform(0.0, top, 10**6)
    points = xs.tolist()
    for array_form, float_form in ((np.sin, math.sin), (np.cos, math.cos)):
        want = np.fromiter(map(float_form, points), dtype=float, count=xs.size)
        differ = np.flatnonzero(array_form(xs).view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, f"{float_form.__name__} differs at x = {xs[differ[:5]]!r}"


def test_evaluate_array_refuses_non_finite_points():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            compile_array(parse("x"))([0.5, bad])


def test_evaluate_array_on_shared_subtrees():
    # 12 nested abs: the derivative has 2^12 paths but few distinct nodes
    tree = parse("x-0.3")
    for _ in range(12):
        tree = Unary("abs", Binary("-", tree, Num(0.01)))
    d1 = differentiate(tree)
    xs = np.linspace(0.0, 1.0, 7)
    assert_same_bits(compile_array(d1)(xs), _pointwise(d1, xs))


def test_evaluate_array_memory_does_not_grow_with_nodes_times_points():
    # 60 terms, 479 nodes (360 distinct), over 100,000 points: one array per
    # node would hold 380 MB, and one per distinct node and chunk 24 MB;
    # freeing each array after its last reader leaves the output and a few
    # chunks.
    tree = parse("+".join(f"{k}*x*(1-x)" for k in range(1, 61)))
    xs = np.linspace(0.0, 1.0, 100_000)
    tracemalloc.start()
    try:
        compile_array(tree)(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_array_forms_plan_once_at_their_first_array_call(monkeypatch):
    plans = []
    postorder = exprlang._postorder
    monkeypatch.setattr(exprlang, "_postorder", lambda e: plans.append(e) or postorder(e))
    gen = from_expression("x*(1-x)*(0.5+0.3*sin(pi*x))*0.9")
    assert plans == []  # building the generator plans none of its three forms
    gen.phi_second(0.25)
    assert plans == []  # nor does a float call
    xs = np.linspace(0.0, 1.0, 16)
    first = gen.phi_second(xs)
    for _ in range(2):
        assert_same_bits(gen.phi_second(xs), first)
    assert len(plans) == 1


def _distinct_nodes(expr) -> int:
    """Nodes of expr, each counted once however many parents share it."""
    seen: set[int] = set()
    todo = [expr]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            fields = (getattr(node, f.name) for f in dataclasses.fields(node))
            todo.extend(v for v in fields if isinstance(v, Expression))
    return len(seen)


@pytest.mark.parametrize(
    "source, nodes",
    [("x" + "/(x+1)" * (MAX_DEPTH - 2), 1229), ("x" + "^x" * (MAX_DEPTH - 1), 1444)],
    ids=["quotient", "power"],
)
def test_array_plan_has_one_step_per_distinct_node(monkeypatch, source, nodes):
    # differentiate shares subtrees: the tree of phi'' is far larger
    d2 = differentiate(differentiate(parse(source)))
    steps = []
    plan = exprlang._plan
    monkeypatch.setattr(exprlang, "_plan", lambda e: steps.extend(plan(e)) or steps)
    compile_array(d2)(np.array([0.3]))
    assert _distinct_nodes(d2) == nodes
    assert len(steps) == nodes


def test_second_derivative_arrays_match_evaluate_on_the_validated_expressions():
    # phi'' of every expression the validate digests pin: the array form that
    # from_expression binds, against its float form, NaN where it raises
    xs = np.concatenate(
        [np.arange(0, 4097, 16) / 4096.0, np.random.default_rng(16).uniform(0.0, 1.0, 100)]
    )
    gens = random_valid_expression_generators(100) + [
        from_expression(text) for text in OPERATOR_EXPRESSIONS + EDGE_EXPRESSIONS
    ]
    assert len(gens) == 113
    for gen in gens:
        want = []
        for x in xs.tolist():
            try:
                want.append(gen.phi_second(x))
            except EvaluationDomainError:
                want.append(math.nan)
        assert_same_bits(gen.phi_second(xs), np.array(want))


def _abs_tower_slope(levels: int):
    """phi' of sqrt(abs(...abs(x-0.5)...)), undefined at 0.5; its source
    doubles with each abs."""
    return differentiate(parse("sqrt(" + "abs(" * levels + "x-0.5" + ")" * levels + ")"))


def test_domain_error_message_cuts_long_sources():
    with pytest.raises(EvaluationDomainError) as err:
        evaluate(_abs_tower_slope(4), 0.5)
    source = to_source(err.value.node)
    assert len(source) > 200
    assert str(err.value) == f"division by zero in {source[:200] + '…'!r} at x=0.5"


@pytest.mark.parametrize("levels", [16, 40])
def test_domain_error_message_is_bounded_for_nested_abs(levels):
    with pytest.raises(EvaluationDomainError) as err:
        evaluate(_abs_tower_slope(levels), 0.5)
    assert len(str(err.value)) <= 240


def test_domain_error_message_keeps_short_sources_whole():
    with pytest.raises(EvaluationDomainError) as err:
        evaluate(parse("x*(1-x)/(x-0.5)"), 0.5)
    assert str(err.value) == "division by zero in 'x*(1.0-x)/(x-0.5)' at x=0.5"
