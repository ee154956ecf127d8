import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybrid_isaacs import config
from hybrid_isaacs.exprlang import (FUNCTIONS, BinOp, Call, ExprDomainError, ExprSyntaxError,
                                    Neg, Num, UnboundVariableError, Var, _tokenize, compile_expr,
                                    evaluate, free_vars, parse, to_str)

from conftest import SHIPPED_SPECS, benchmark_generator

ROOT = Path(__file__).resolve().parents[1]


def ev(text, **env):
    return evaluate(parse(text), env)


def test_basic_arithmetic():
    assert ev("2*x0 + u1", x0=1.0, u1=3.0) == 5.0
    assert ev("x0^2 - u2", x0=3.0, u2=1.0) == 8.0
    assert ev("min(x0, 0.5)", x0=2.0) == 0.5
    assert ev("max(x0, 0.5)", x0=2.0) == 2.0
    assert ev("exp(0)") == 1.0
    assert ev("1/4") == 0.25


def test_precedence_and_associativity():
    assert ev("2 + 3*4") == 14.0
    assert ev("2*3^2") == 18.0
    assert ev("-2^2") == -4.0          # power binds above unary minus
    assert ev("2^-1") == 0.5
    assert ev("2^3^2") == 512.0        # right associative
    assert ev("8/4/2") == 1.0          # division is left associative
    assert ev("1 - 2 - 3") == -4.0
    assert ev("(1 - 2) - 3") == ev("1 - 2 - 3")


def test_functions():
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert ev("tanh(0)") == 0.0
    assert ev("abs(-2)") == 2.0
    assert ev("sqrt(4)") == 2.0
    assert math.isclose(ev("sin(x0)^2 + cos(x0)^2", x0=0.7), 1.0)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x0 + ")
    assert err.value.offset == 5

    with pytest.raises(ExprSyntaxError):
        parse("2 ** 3")
    with pytest.raises(ExprSyntaxError):
        parse("foo(1)")
    with pytest.raises(ExprSyntaxError):
        parse("min(1)")
    with pytest.raises(ExprSyntaxError):
        parse("(1 + 2")
    with pytest.raises(ExprSyntaxError):
        parse("1 2")
    with pytest.raises(ExprSyntaxError):
        parse("")


def test_eval_errors():
    with pytest.raises(UnboundVariableError):
        ev("x0 + u1", x0=1.0)
    with pytest.raises(ExprDomainError):
        ev("sqrt(x0)", x0=-1.0)
    with pytest.raises(ExprDomainError):
        ev("1/x0", x0=0.0)
    with pytest.raises(ExprDomainError):
        ev("0^-1")
    with pytest.raises(ExprDomainError):
        ev("(-8)^0.5")


def test_free_vars():
    assert free_vars(parse("2*x0 + u1")) == {"x0", "u1"}
    assert free_vars(parse("3.5")) == set()
    assert free_vars(parse("min(x1, u2)")) == {"x1", "u2"}


def test_vectorized_evaluation_matches_scalar():
    expr = parse("x0^2 + 0.1*(1 - u2*tanh(x0))")
    xs = np.linspace(-2, 2, 17)
    vec = evaluate(expr, {"x0": xs, "u2": 0.5})
    for x, v in zip(xs, vec):
        assert evaluate(expr, {"x0": float(x), "u2": 0.5}) == v


def test_evaluation_is_pure():
    expr = parse("sin(x0)*exp(u1) - tanh(x0/3)^2")
    env = {"x0": 0.7317, "u1": -1.25}
    first = evaluate(expr, env)
    assert all(evaluate(expr, env) == first for _ in range(5))


def test_canonical_printing_keeps_structure():
    a, b, c = Var("x0"), Var("u1"), Var("u2")
    cases = [
        (BinOp("/", BinOp("/", a, b), c), "x0/u1/u2"),
        (BinOp("/", a, BinOp("/", b, c)), "x0/(u1/u2)"),
        (BinOp("^", BinOp("^", a, b), c), "(x0^u1)^u2"),
        (BinOp("^", a, BinOp("^", b, c)), "x0^u1^u2"),
        (BinOp("^", Neg(a), b), "(-x0)^u1"),
        (BinOp("^", a, Neg(b)), "x0^-u1"),
        (BinOp("-", a, Neg(b)), "x0 - -u1"),
        (BinOp("-", a, BinOp("-", b, c)), "x0 - (u1 - u2)"),
        (BinOp("*", a, BinOp("+", b, c)), "x0*(u1 + u2)"),
        (BinOp("+", a, BinOp("+", b, c)), "x0 + (u1 + u2)"),
        (BinOp("*", a, BinOp("/", b, c)), "x0*(u1/u2)"),
        (BinOp("+", BinOp("+", a, b), c), "x0 + u1 + u2"),
    ]
    env = {"x0": 2.0, "u1": 3.0, "u2": 5.0}
    for tree, expected in cases:
        assert to_str(tree) == expected
        assert evaluate(parse(to_str(tree)), env) == evaluate(tree, env)


# random expression trees for the round-trip property
_names = st.sampled_from(["x0", "x1", "u1", "u2"])
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(Num),
    _names.map(Var),
)


def _combine(children):
    unary = st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "tanh", "abs"]), children).map(
            lambda t: Call(t[0], (t[1],))),
    )
    binary = st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
        lambda t: BinOp(t[0], t[1], t[2]))
    minmax = st.tuples(st.sampled_from(["min", "max"]), children, children).map(
        lambda t: Call(t[0], (t[1], t[2])))
    return st.one_of(unary, binary, minmax)


_exprs = st.recursive(_leaf, _combine, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_exprs, st.integers(0, 2 ** 32 - 1))
# float + and * do not reassociate, so an equal-precedence right operand
# keeps its parentheses
@example(parse("1e16 + (1 + 1)"), 0)
@example(parse("x0*(u1/3)"), 1)
@example(BinOp("*", Num(2.0), BinOp("*", Num(0.25), Num(2.2e-311))), 0)
@example(BinOp("*", Num(2.0), BinOp("*", Num(0.25), Num(2.2000000000006e-311))), 0)
def test_roundtrip_print_parse_evaluates_identically(expr, seed):
    rng = np.random.default_rng(seed)
    env = {name: float(v) for name, v in
           zip(["x0", "x1", "u1", "u2"], rng.uniform(-3, 3, size=4))}
    reparsed = parse(to_str(expr))
    assert evaluate(reparsed, env) == evaluate(expr, env)


@settings(max_examples=100, deadline=None)
@given(_exprs)
def test_roundtrip_preserves_free_vars(expr):
    assert free_vars(parse(to_str(expr))) == free_vars(expr)


# ---------------------------------------------------------------------------
# the compiler against the tree walk it replaced

_REF_UNARY = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp, "abs": np.abs}


def reference_eval(expr, env):
    """The recursive tree walk ``evaluate`` used before expressions were
    compiled: every node dispatched at call time, every ``/``, ``^`` and
    ``sqrt`` checked."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if isinstance(expr, Neg):
        return -reference_eval(expr.operand, env)
    if isinstance(expr, BinOp):
        a = reference_eval(expr.left, env)
        b = reference_eval(expr.right, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            if np.any(b == 0):
                raise ExprDomainError("division by zero")
            return a / b
        a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if np.any((a_arr == 0) & (b_arr < 0)):
            raise ExprDomainError("zero raised to a negative power")
        if np.any((a_arr < 0) & (b_arr != np.floor(b_arr))):
            raise ExprDomainError("negative base with non-integer exponent")
        return np.power(a, b)
    args = [reference_eval(arg, env) for arg in expr.args]
    if expr.func == "sqrt":
        if np.any(np.asarray(args[0]) < 0):
            raise ExprDomainError("sqrt of a negative value")
        return np.sqrt(args[0])
    if expr.func == "min":
        return np.minimum(args[0], args[1])
    if expr.func == "max":
        return np.maximum(args[0], args[1])
    return _REF_UNARY[expr.func](args[0])


def outcome(fn):
    """(kind, value bits) of a call, or (error class, None) if it raises."""
    try:
        result = fn()
    except Exception as exc:    # the class is what is compared
        return type(exc), None
    return type(result), np.asarray(result).tobytes()


def reference_evaluate(expr, env):
    result = reference_eval(expr, env)
    return float(result) if np.ndim(result) == 0 else result


# small integers, zero and halves make the domain checks trip
_checked_leaf = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(Num),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(Num),
    _names.map(Var),
)


def _combine_checked(children):
    checked = st.one_of(
        st.tuples(st.sampled_from(["/", "^"]), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])),
        children.map(lambda c: Call("sqrt", (c,))),
    )
    return st.one_of(_combine(children), checked)


_checked_exprs = st.recursive(_checked_leaf, _combine_checked, max_leaves=10)
_values = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 2.0, -0.5, 1.5, -2.0]),
                    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))


@settings(max_examples=400, deadline=None)
@given(_checked_exprs, st.lists(_values, min_size=4, max_size=4),
       st.lists(_values, min_size=3, max_size=3))
@example(parse("x0^2 / (u1 - u1)"), [1.5, 0.0, 2.0, 2.0], [0.0, 1.0, -1.0])
@example(parse("x0^u1"), [-2.0, 0.0, 0.5, 0.0], [-1.0, 2.0, 0.5])
@example(parse("sqrt(x0) + 0^-1"), [4.0, 0.0, 0.0, 0.0], [1.0, 4.0, 9.0])
def test_compiled_evaluation_matches_tree_walk(expr, scalars, column):
    """Same bits or the same error class, for scalar and array variables."""
    names = ["x0", "x1", "u1", "u2"]
    scalar_env = dict(zip(names, scalars))
    array_env = dict(scalar_env, x0=np.array(column), u2=np.array(column[::-1]))
    with np.errstate(all="ignore"):
        for env in (scalar_env, array_env):
            assert (outcome(lambda: evaluate(expr, env))
                    == outcome(lambda: reference_evaluate(expr, env)))


@pytest.mark.parametrize("text, env", [
    ("1/x0", {"x0": 0.0}),
    ("1/x0", {"x0": np.array([1.0, 0.0, 2.0])}),
    ("u1/(x0 - x0)", {"x0": 0.3, "u1": 1.0}),
    ("x0^u1", {"x0": -2.0, "u1": 0.5}),
    ("x0^u1", {"x0": np.array([1.0, -2.0]), "u1": 0.5}),
    ("0^-1", {}),
    ("x0^-1", {"x0": np.array([2.0, 0.0])}),
    ("(-8)^0.5", {}),
    ("x0^0.5", {"x0": -8.0}),
    ("sqrt(x0 - 1)", {"x0": np.array([2.0, 0.5])}),
    ("1/0", {}),
])
def test_domain_errors_survive_compilation(text, env):
    fn = compile_expr(parse(text))
    with pytest.raises(ExprDomainError):
        fn(env)
    with pytest.raises(ExprDomainError):
        evaluate(parse(text), env)


def test_statically_safe_operands_are_not_checked():
    """A constant non-negative integral exponent and a constant non-zero
    divisor can never trip a check; the result is the same numpy call."""
    x = np.array([-2.0, 0.0, 3.5])
    assert evaluate(parse("x0^2"), {"x0": x}).tobytes() == np.power(x, 2.0).tobytes()
    assert evaluate(parse("x0^0"), {"x0": x}).tobytes() == np.power(x, 0.0).tobytes()
    assert evaluate(parse("x0/4"), {"x0": x}).tobytes() == (x / 4.0).tobytes()
    assert evaluate(parse("(-8)^3"), {}) == -512.0
    assert isinstance(evaluate(parse("2^3"), {}), float)


# ---------------------------------------------------------------------------
# ``parse`` against the recursive-descent parser it replaced, kept as the
# reference over the same tokens

class ReferenceParser:
    """Grammar (standard precedence, ``^`` binds tightest and associates right):

        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := '-' factor | power
        power  := atom ('^' factor)?
        atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"found {value!r}" if value else "unexpected end of input",
                                  offset, expected=repr(op))
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {value!r}", offset, expected="end of expression")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            # right associative; exponent may carry a unary minus
            return BinOp("^", node, self.factor())
        return node

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function '{value}'", offset,
                                          expected="one of " + " ".join(sorted(FUNCTIONS)))
                self.advance()
                args = [self.expr()]
                while True:
                    k, v, _ = self.peek()
                    if k == "op" and v == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                arity = FUNCTIONS[value]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"function '{value}' takes {arity} argument(s), got {len(args)}", offset)
                return Call(value, tuple(args))
            return Var(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", offset, expected="an operand")
        raise ExprSyntaxError(f"found {value!r}", offset, expected="an operand")


def reference_parse(text):
    return ReferenceParser(text).parse()


def parsed(parser, text):
    """The tree ``parser`` reads from ``text``, or None when it refuses."""
    try:
        return parser(text)
    except ExprSyntaxError:
        return None


def spec_expressions(text):
    """Every drift component and running cost in a spec file's text."""
    for name, section in config.loads(text).items():
        if name.startswith("dynamics."):
            yield from section["f"]
        elif name.startswith("cost."):
            yield section["k"]


@pytest.mark.parametrize("path", SHIPPED_SPECS, ids=lambda p: str(p.relative_to(ROOT)))
def test_shipped_expressions_parse_as_the_reference_parses_them(path):
    for text in spec_expressions(path.read_text(encoding="utf-8")):
        assert parsed(parse, text) == parsed(reference_parse, text), text
        assert parsed(parse, text) is not None or path.name == "syntax_error.toml", text


@pytest.mark.parametrize("points", [21, 41, 81])
def test_generated_expressions_parse_as_the_reference_parses_them(points):
    gen = benchmark_generator()
    for seed in range(1, 21):
        for text in spec_expressions(gen.grid2d_spec_text(seed, points)):
            assert parse(text) == reference_parse(text), (seed, text)


# the grammar's alphabet without Python keywords; joined with or without a
# space, so neighbours also fuse into new numbers and names ("1" ".5", "x0" "1")
_ALPHABET = ["0", "1", "2.5", "01", "1.", ".5", "3e2", "1E-3", "x0", "u1", "u2", "foo",
             "sin", "min", "max", "sqrt", "+", "-", "*", "/", "^", "(", ")", ","]
_token_texts = st.lists(st.tuples(st.sampled_from(_ALPHABET), st.sampled_from(["", " "])),
                        max_size=16).map(lambda pairs: "".join(t + sep for t, sep in pairs))


def _mutate(args):
    """``text`` with one token replaced by ``token`` (deleted when it is "")
    or, with ``insert``, with ``token`` put before it."""
    text, at, token, insert = args
    tokens = [value for _, value, _ in _tokenize(text)][:-1]
    at %= len(tokens)
    tokens[at:at + (not insert)] = [token]
    return " ".join(tokens)


# a printed tree one token away from valid finds what short random strings miss
_mutated_texts = st.tuples(_exprs.map(to_str), st.integers(0, 99),
                           st.sampled_from(["", "x0", "+", "-", "*", "^", "(", ")", ","]),
                           st.booleans()).map(_mutate)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_token_texts, _exprs.map(to_str), _mutated_texts))
@example("(sin)(x0)")
@example("2(x0)")
@example("min(x0, u1,)")
@example("x0 (u1)")
@example("1 2")
@example("3e2101 ")
@example("sin(^x0)")
@example("min(x0, ^u1)")
def test_token_strings_parse_as_the_reference_parses_them(text):
    """Both parsers refuse, or both read the same tree; a number that
    overflows a float, which the reference read as ``inf``, is refused."""
    expected = parsed(reference_parse, text)
    if expected is not None and any(kind == "num" and math.isinf(float(value))
                                    for kind, value, _ in _tokenize(text)):
        expected = None
    assert parsed(parse, text) == expected


@pytest.mark.parametrize("text, tree", [
    ("-x0^2", Neg(BinOp("^", Var("x0"), Num(2.0)))),
    ("2^-x0^2", BinOp("^", Num(2.0), Neg(BinOp("^", Var("x0"), Num(2.0))))),
    ("x0^u1^u2", BinOp("^", Var("x0"), BinOp("^", Var("u1"), Var("u2")))),
    ("--x0", Neg(Neg(Var("x0")))),
    ("x0 - -u1", BinOp("-", Var("x0"), Neg(Var("u1")))),
    ("8/4/2", BinOp("/", BinOp("/", Num(8.0), Num(4.0)), Num(2.0))),
    ("-x0*u1", BinOp("*", Neg(Var("x0")), Var("u1"))),
    ("01 + .5*1.", BinOp("+", Num(1.0), BinOp("*", Num(0.5), Num(1.0)))),
])
def test_precedence_is_pinned(text, tree):
    assert parse(text) == tree == reference_parse(text)


@pytest.mark.parametrize("text, offset", [
    ("**", 0), ("x0 ** 2", 4), ("+x0", 0), ("1j", 1), ("0x10", 1), ("1_0", 1), ("#", 0),
    ("\\", 0), ("min(x0, u1,)", 11), ("sin()", 0), ("sin(x=1)", 5), ("sin(*x0)", 4),
    ("x0 < u1", 3), ("x0 % 2", 3), ("x0 // 2", 4), ("x0 @ u1", 3), ("~x0", 0), ("x0[0]", 2),
    ("x0.real", 2), ("(x0, u1)", 0), ("[x0]", 0), ("True", 0), ("not x0", 0),
    ("x0 if u1 else u2", 0), ("(sin)(x0)", 0), ("2(x0)", 0), ("(x0 + 1", 0), ("x0)", 2),
    ("min(x0 u1)", 4), ("x0 + ", 5), ("", 0), ("sin(^x0)", 0),
])
def test_refusals_name_an_offset_in_the_text(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.offset == offset and 0 <= offset <= len(text)
    assert f"at offset {offset}" in str(err.value)


def test_a_number_that_overflows_a_float_is_refused():
    """``1e400`` would be saved as ``inf``, which reads back as a variable."""
    with pytest.raises(ExprSyntaxError, match="number '1e400' is too large at offset 8"):
        parse("min(x0, 1e400)")
    assert parse("1e-400") == Num(0.0)
    assert parse("1.7976931348623157e308") == Num(1.7976931348623157e308)


@pytest.mark.parametrize("deep", [
    "-" * 200 + "x0",
    "x0" + "^x0" * 200,
    " + ".join(["x0^2"] * 201),
    "-" * 1200 + "x0",
    " + ".join(["x0^2"] * 3000),
    "x0" + "^x0" * 3000,
])
def test_trees_deeper_than_200_levels_are_refused(deep):
    with pytest.raises(ExprSyntaxError, match="nested deeper than 200 levels"):
        parse(deep)


def test_a_tree_200_levels_deep_is_read_printed_and_evaluated():
    chain = parse("x0" + "^x0" * 199)
    assert parse(to_str(chain)) == chain
    assert free_vars(chain) == {"x0"}
    assert evaluate(chain, {"x0": 1.0}) == 1.0
    assert evaluate(parse("-" * 199 + "x0"), {"x0": 2.0}) == -2.0
