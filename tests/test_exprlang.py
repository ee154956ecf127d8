import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybrid_isaacs.exprlang import (BinOp, Call, ExprDomainError, ExprSyntaxError, Neg, Num,
                                    UnboundVariableError, Var, compile_expr, evaluate,
                                    free_vars, parse, to_str)


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
